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

pytest.importorskip("sympy.combinatorics")

from perfectcover.certificates import (  # noqa: E402
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.construction import construct  # noqa: E402
from perfectcover.groupfile import parse_family_file  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


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
