import copy
import sys
import time
from contextlib import contextmanager

import pytest

from perfectcover import catalog, groups as groups_module, structure, words
from perfectcover.groups import (
    ENUMERATION_CAP,
    PermGroup,
    conjugacy_classes,
    derived_subgroup,
    enumerate_elements,
)
from perfectcover.perms import Permutation, format_cycles, parse_cycles
from perfectcover.structure import series_term

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def groups():
    """Fresh catalog groups, built once per test session."""
    return {name: catalog.CATALOG[name].group() for name in catalog.names()}


def walked_classes(G):
    """The conjugacy classes of G as element lists, in class-walk order."""
    return [[Permutation(y) for y in orbit] for orbit in conjugacy_classes(G)]


def centralizer_order(G, g):
    """|C_G(g)| by testing every element of G against g (brute force)."""
    return sum(1 for h in enumerate_elements(G) if h * g == g * h)


def meet(*subgroups):
    """The elements common to subgroups of one group, by testing each
    element of the smallest against the others (brute force)."""
    small = min(subgroups, key=lambda H: H.order)
    return frozenset(
        x for x in enumerate_elements(small) if all(x in H for H in subgroups)
    )


def product_set(X, Y):
    """{x * y : x in X, y in Y}, element by element."""
    return frozenset(x * y for x in X for y in Y)


def full_product_group(prod):
    """The whole direct product, generated by each factor's generators in
    its own block."""
    return prod.subgroup(
        prod.element({j: g}) for j, f in enumerate(prod.factors) for g in f.generators
    )


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
    # the cover lists the simple factors of the members' semisimple parts
    # S = [W, W] in member order, so tuple 0 is in the first member with S > 1
    members = [
        PermGroup(doc["degree"], [parse_cycles(s, doc["degree"]) for s in doc["generators"]])
        for doc in bad["family"]
    ]
    degree = next(
        G.degree
        for G in members
        if derived_subgroup(series_term(G, bad["k"])).order > 1
    )
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


def count_enumerations(monkeypatch):
    """(calling function, group order, cap) of each enumeration of a group
    from here on; a class walk is an enumeration by `conjugacy_classes`."""
    calls = []
    original = groups_module.enumerate_elements

    def counting(G, cap=ENUMERATION_CAP):
        calls.append((sys._getframe(1).f_code.co_name, G.order, cap))
        return original(G, cap)

    for module in (groups_module, structure, words):
        monkeypatch.setattr(module, "enumerate_elements", counting)
    return calls


def count_sifts(monkeypatch):
    """The start level of each sift through a stabilizer chain from here
    on; a sift is the chain kernel's unit of work."""
    sifts = []
    original = groups_module.StabilizerChain._sift_from

    def counting(self, g, start):
        sifts.append(start)
        return original(self, g, start)

    monkeypatch.setattr(groups_module.StabilizerChain, "_sift_from", counting)
    return sifts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
