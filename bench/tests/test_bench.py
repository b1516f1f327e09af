"""Tests of the benchmark's own checker and tracer.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import copy
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from check import check_certificate, parse_cycles  # noqa: E402
from layertrace import BOUNDARIES, Boundary, Tracer, metric_names  # noqa: E402

ORDERS = {"A5": 60, "A6": 360}


@pytest.fixture(scope="module")
def certificate():
    """A real certificate for A5 and A6 at k=1, small budget."""
    from perfectcover import catalog
    from perfectcover.certificates import serialize_certificate, verify_certificate
    from perfectcover.construction import construct

    cert = construct([catalog.get("A5"), catalog.get("A6")], 2, 1,
                     names=("A5", "A6"), seed=7, budget=2)
    data = serialize_certificate(cert)
    report = verify_certificate(data)
    return data, [[s.name, s.ok] for s in report.steps]


def test_parse_cycles():
    assert parse_cycles("(1 2 3)(4 5)", 6) == [1, 2, 0, 4, 3, 5]
    assert parse_cycles("()", 3) == [0, 1, 2]
    for bad in ("(1 7)", "(1 2 1)", "(1 2)(2 3)", "1 2", ""):
        with pytest.raises(ValueError):
            parse_cycles(bad, 6)


def test_checker_accepts_the_program_output(certificate):
    data, steps = certificate
    assert check_certificate(data, ORDERS, steps) == []


def _tampered(data, component: str):
    bad = copy.deepcopy(data)
    bad["gamma"]["generators"][0]["0"] = component
    return bad


@pytest.mark.parametrize("component", ["(1 6)", "(1 2)"])
def test_checker_rejects_a_generator_outside_its_member(certificate, component):
    # (1 6) leaves A5's block of 5 points; (1 2) is in S5 but not in A5.
    data, steps = certificate
    problems = check_certificate(_tampered(data, component), ORDERS, steps)
    assert problems


def test_checker_rejects_wrong_orders_marks_and_steps(certificate):
    data, steps = certificate
    bad = copy.deepcopy(data)
    bad["gamma"]["order"] += 1
    assert check_certificate(bad, ORDERS, steps)
    bad = copy.deepcopy(data)
    bad["gamma"]["marked"] = bad["gamma"]["marked"][:1]
    assert check_certificate(bad, ORDERS, steps)
    assert check_certificate(data, {"A5": 60, "A6": 720}, steps)
    assert check_certificate(data, ORDERS, steps[:-1])
    assert check_certificate(data, ORDERS, [[n, n != "s-in-T"] for n, _ in steps])


def test_spans_nest_and_self_time_is_bounded():
    from perfectcover import catalog
    from perfectcover.construction import construct

    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin("root")
        construct([catalog.get("A5")], 2, 1, names=("A5",), seed=1, budget=2)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    spans = tracer.spans
    assert len(spans) > 10
    for sid, parent, name, start, end in spans:
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[3] <= start and end <= p[4]
        else:
            assert name == "root"
    for name, row in tracer.self_times().items():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9
    values = tracer.metrics(metric_names())
    assert values["covering.product_set_calls"] > 0
    assert values["construction.L1.build_T_s"] > 0
    assert values["construction.L2.build_T_s"] == 0
    assert values["construction.L1.build_T_s"] <= tracer.inclusive()["root"]


def test_every_binding_is_wrapped_and_restored():
    from perfectcover import construction, covering

    original = covering.product_set
    tracer = Tracer()
    tracer.install(BOUNDARIES)
    try:
        assert covering.product_set is not original
        assert construction.product_set is covering.product_set
    finally:
        tracer.uninstall()
    assert covering.product_set is original
    assert construction.product_set is original


def test_missing_boundary_is_reported_absent():
    tracer = Tracer()
    boundaries = (
        Boundary("perfectcover.groups:no_such_function", span="x.gone_s"),
        Boundary("perfectcover.groups:PermGroup.no_such_method", calls="x.gone_calls"),
        Boundary("perfectcover.no_such_module:f", span="x.missing_s"),
    )
    tracer.install(boundaries, level_target="perfectcover.construction:no_such_level")
    tracer.uninstall()
    assert sorted(tracer.absent) == sorted(
        [b.target for b in boundaries] + ["perfectcover.construction:no_such_level"]
    )
    assert tracer.metrics(metric_names(boundaries)) == {
        "x.gone_s": 0.0, "x.gone_calls": 0, "x.missing_s": 0.0,
    }
