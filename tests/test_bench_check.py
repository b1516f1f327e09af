"""The benchmark's independent checker (bench/check.py) on fresh certificates.

bench/check.py reads a certificate as plain JSON and checks, with sympy
alone, the member orders, every projection of Gamma, Gamma's order from its
generators and from its marked ones, and Gamma perfect.  It is loaded here
by path, so tier-1 guards that the certificate format stays readable to the
benchmark's `check` operation.  Without sympy this module is skipped.
"""

import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy.combinatorics")

from perfectcover.certificates import (  # noqa: E402
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover import catalog  # noqa: E402
from perfectcover.construction import construct  # noqa: E402
from perfectcover.groupfile import parse_family_file, parse_group_file  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
DATA = pathlib.Path(__file__).resolve().parent / "data"


def _load_check():
    spec = importlib.util.spec_from_file_location("bench_check", BENCH / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark workloads: family file, budget and the member orders known
# from mathematics, as bench/run.py lists them.
WORKLOADS = {
    "k1-cover": (61, {"A5": 60, "A6": 360, "PSL27": 168}),
    "k2-mixed": (2, {"SL25": 120, "E16A5": 960}),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_bench_checker_finds_no_problem(workload):
    check = _load_check()
    budget, orders = WORKLOADS[workload]
    names, members, d, k = parse_family_file(str(BENCH / "families" / f"{workload}.txt"))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=budget)
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    report = verify_certificate(data)
    steps = [[s.name, s.ok] for s in report.steps]
    assert check.check_certificate(data, orders, steps) == []


# Members, each with its star-series level and the order known from
# mathematics; the checker compares the certificate's members with these.
# W2A5 = 2^4:A5 is read from its group file, the others from the catalog.
# W7A5 stays out: it alone takes about a second to construct.
LEVELS = {"A5": 1, "A6": 1, "PSL27": 1, "A5xA5": 1, "SL25": 2, "E16A5": 2, "W2A5": 2}
ORDERS = {
    "A5": 60, "A6": 360, "PSL27": 168, "A5xA5": 3600, "SL25": 120, "E16A5": 960,
    "W2A5": 960,
}
GROUP_FILES = {"W2A5": DATA / "W2A5.grp"}


def _member(name):
    path = GROUP_FILES.get(name)
    return catalog.get(name) if path is None else parse_group_file(str(path))


# Members are distinct: the checker compares the family's names with the
# keys of its expected orders, so a repeated member cannot be expressed.
@settings(max_examples=8, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(LEVELS)), min_size=1, max_size=2, unique=True),
    budget=st.sampled_from([2, 3, 61]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bench_checker_agrees_on_drawn_families(names, budget, seed):
    # The sympy checker shares no code with the package; it and the package
    # verifier must both accept every certificate the construction writes.
    k = max(LEVELS[n] for n in names)
    check = _load_check()
    members = tuple(_member(n) for n in names)
    cert = construct(members, d=2, k=k, names=tuple(names), seed=seed, budget=budget)
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    report = verify_certificate(data)
    assert report.valid, report.lines()
    steps = [[s.name, s.ok] for s in report.steps]
    assert check.check_certificate(data, {n: ORDERS[n] for n in names}, steps) == []
