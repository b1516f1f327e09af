import copy
import time
from contextlib import contextmanager

import pytest

from perfectcover import catalog
from perfectcover.perms import Permutation, format_cycles, parse_cycles

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def groups():
    """Fresh catalog groups, built once per test session."""
    return {name: catalog.CATALOG[name].group() for name in catalog.names()}


@contextmanager
def criterion(number, description, budget_seconds):
    """Times one acceptance criterion and records a pass/fail line."""
    t0 = time.time()
    try:
        yield
    except Exception:
        ACCEPTANCE_LINES.append(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.time() - t0
    if elapsed >= budget_seconds:
        ACCEPTANCE_LINES.append(
            f"[criterion {number:2d}] FAIL  {description} "
            f"(over budget: {elapsed:.1f}s >= {budget_seconds}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
        )
    line = (
        f"[criterion {number:2d}] PASS  {description} "
        f"({elapsed:.1f}s, budget {budget_seconds}s)"
    )
    ACCEPTANCE_LINES.append(line)
    print(line)


def tamper_conjugator(data):
    """A copy of a certificate with one conjugator of level 0 replaced.

    r[0][0][0][0] conjugates the first cover generator m of the first simple
    factor in the first term of residue 0.  It is multiplied on the left by
    a cover generator x of the same factor that does not commute with m
    (one exists: the tuple generates a nonabelian simple group), so
    m ** (x r) != m ** r and the cover product of residue 0 changes.
    """
    bad = copy.deepcopy(data)
    lvl = bad["levels"][0]
    cover = lvl["cover"]
    degree = bad["family"][cover["factor_of"][0]]["degree"]
    m, *others = (parse_cycles(s, degree) for s in cover["tuples"][0])
    x = next(y for y in others if y * m != m * y)
    r = parse_cycles(lvl["r"][0][0][0][0], degree)
    assert m.conjugate(x * r) != m.conjugate(r)
    lvl["r"][0][0][0][0] = format_cycles(x * r)
    return bad


def count_permutation_calls(monkeypatch):
    """Count Permutation products and inverses from here on."""
    calls = {"__mul__": 0, "inverse": 0}
    for name in calls:
        original = getattr(Permutation, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Permutation, name, counting)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
