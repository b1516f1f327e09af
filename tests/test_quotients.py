"""A member's quotient G/W on small degree: W's orbits as blocks, a
complement of a regular W, or the coset action as the fallback."""

import copy
import json
import pathlib

import pytest
from conftest import count_enumerations

from perfectcover import catalog
from perfectcover.certificates import (
    dumps_certificate,
    serialize_certificate,
    verify_certificate,
)
from perfectcover.construction import construct
from perfectcover.errors import PreconditionError
from perfectcover.groupfile import parse_family_file, parse_group_file
from perfectcover.groups import CosetMap, PermGroup, enumerate_elements
from perfectcover.perms import parse_cycles
from perfectcover.products import (
    BlockQuotient,
    ComplementQuotient,
    Level,
    quotient_map,
)
from perfectcover.structure import series_term

DATA = pathlib.Path(__file__).parent / "data"
FAMILIES = pathlib.Path(__file__).parent.parent / "bench" / "families"


def P(text, degree):
    return parse_cycles(text, degree)


S4 = PermGroup(4, [P("(1 2 3 4)", 4), P("(1 2)", 4)])
V4 = PermGroup(4, [P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
A4 = PermGroup(4, [P("(1 2 3)", 4), P("(2 3 4)", 4)])


def _member(name):
    if name in catalog.CATALOG:
        return catalog.CATALOG[name].group()
    return parse_group_file(str(DATA / f"{name}.grp"))


def _level2_cases():
    """(name, G, W = G_1) for the level-2 members of the tier-1 families."""
    cases = []
    for name in ("SL25", "E16A5", "W2A5", "W7A5"):
        G = _member(name)
        cases.append((name, G, series_term(G, 2)))
    return cases


@pytest.fixture(scope="module")
def level2_cases():
    return _level2_cases()


def _check_map(qmap, G, W):
    """apply is a homomorphism on generators with W in its kernel, its
    image is G/W, and apply(lift(q)) == q for every q."""
    Q = qmap.quotient
    assert Q.order * W.order == G.order
    for w in W.generators:
        assert qmap.apply(w).is_identity()
    for g in G.generators:
        for h in G.generators:
            assert qmap.apply(g * h) == qmap.apply(g) * qmap.apply(h)
    assert [qmap.apply(g) for g in G.generators] == list(Q.generators)
    for q in enumerate_elements(Q):
        assert qmap.apply(qmap.lift(q)) == q


def test_each_member_takes_its_rule(level2_cases):
    expected = {
        "SL25": (BlockQuotient, 12),
        "W2A5": (BlockQuotient, 5),
        "W7A5": (BlockQuotient, 5),
        "E16A5": (ComplementQuotient, 16),
    }
    for name, G, W in level2_cases:
        qmap = quotient_map(G, W)
        kind, degree = expected[name]
        assert type(qmap) is kind, name
        assert (qmap.quotient.degree, qmap.quotient.order) == (degree, 60), name
        _check_map(qmap, G, W)


def test_s4_over_v4_takes_a_complement_and_over_a4_the_coset_action():
    # V4 is regular on 4 points, so S_4 projects onto the stabiliser S_3 of
    # point 1; A4 is transitive but not regular, and its one orbit is one
    # block, so neither rule applies
    qmap = quotient_map(S4, V4)
    assert type(qmap) is ComplementQuotient
    assert qmap.quotient.order == 6
    assert all(q(0) == 0 for q in qmap.quotient.generators)
    _check_map(qmap, S4, V4)
    assert qmap.lift(qmap.quotient.generators[0]) == qmap.quotient.generators[0]
    assert BlockQuotient.of(S4, A4, 10**6) is None
    qmap = quotient_map(S4, A4)
    assert type(qmap) is CosetMap
    assert qmap.quotient.order == 2
    _check_map(qmap, S4, A4)


def test_trivial_and_whole_W_keep_the_coset_map(groups):
    for G in (groups["A5"], groups["SL25"], groups["E16A5"], S4):
        trivial = quotient_map(G, PermGroup(G.degree, []))
        assert type(trivial) is CosetMap and trivial.quotient is G
        whole = quotient_map(G, G)
        assert type(whole) is CosetMap
        assert whole.quotient.degree == whole.quotient.order == 1
        assert whole.reps == [G.identity]


def test_apply_refuses_a_non_member(level2_cases):
    # a perfect group holds only even permutations
    for name, G, W in level2_cases:
        qmap = quotient_map(G, W)
        outside = P("(1 2)", G.degree)
        assert outside not in G, name
        with pytest.raises(PreconditionError, match="element is not in the group"):
            qmap.apply(outside)


def test_block_lifts_never_enumerate_W(level2_cases, monkeypatch):
    # the lift table is built breadth-first over G/W on the first lift
    enumerated = count_enumerations(monkeypatch)
    for name, G, W in level2_cases:
        qmap = quotient_map(G, W)
        if type(qmap) is BlockQuotient:
            for q in qmap.quotient.generators:
                assert qmap.apply(qmap.lift(q)) == q
    assert enumerated == []


def test_level1_members_act_on_small_degree():
    # seed-7 k2-mixed: SL25/Z on the 12 pairs {v, -v}, E16A5/2^4 as the
    # stabiliser A5 of a point of the affine space
    names, members, d, k = parse_family_file(str(FAMILIES / "k2-mixed.txt"))
    level = Level(members, 2)
    assert [type(qmap) for qmap in level.qmaps] == [BlockQuotient, ComplementQuotient]
    assert [(Q.degree, Q.order) for Q in level.quotients] == [(12, 60), (16, 60)]


@pytest.mark.parametrize(
    "path", [FAMILIES / "k2-mixed.txt", DATA / "k2-three.txt", DATA / "k2-W7A5.txt"],
    ids=["k2-mixed", "k2-three", "W7A5"],
)
def test_no_quotient_enumerates_W(path, monkeypatch):
    # construct and verify enumerate only by class walks and, in the
    # Gaschutz lift search, each member's <B, S>; no quotient map enumerates
    # W, and an abelian W is its own centre, so its classes are not walked
    names, members, d, k = parse_family_file(str(path))
    enumerated = count_enumerations(monkeypatch)
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    callers = {caller for caller, _, _ in enumerated}
    assert callers <= {"conjugacy_classes", "gaschutz_lift"}
    walked = sorted(o for caller, o, _ in enumerated if caller == "conjugacy_classes")
    enumerated.clear()
    data = json.loads(dumps_certificate(serialize_certificate(cert)))
    assert verify_certificate(data).valid
    assert {caller for caller, _, _ in enumerated} == {"conjugacy_classes"}
    assert sorted(order for _, order, _ in enumerated) == walked
    level = cert.levels[0]
    assert all(order not in {W.order for W in level.W if W.order > 1} for order in walked)


@pytest.fixture(scope="module")
def mixed_data():
    names, members, d, k = parse_family_file(str(FAMILIES / "k2-mixed.txt"))
    cert = construct(members, d=d, k=k, names=names, seed=7, budget=2)
    return serialize_certificate(cert)


def _lift_problems(data):
    report = verify_certificate(data)
    assert not report.valid
    return {s.name: s.problems for s in report.steps}["lifts"]


@pytest.mark.parametrize("j", [0, 1], ids=["blocks", "complement"])
def test_a_lift_in_the_wrong_coset_fails_lifts(mixed_data, j):
    # level 2's lifts of SL25 (blocks on 12 points) and of E16A5 (a
    # complement on 16), swapped: each lies in the other's coset of W
    data = copy.deepcopy(mixed_data)
    lifts = data["levels"][0]["factors"][j]["lifts"]
    lifts[0], lifts[1] = lifts[1], lifts[0]
    problem = f"level 2: InputError: factor {j} lift 0 is in the wrong coset"
    assert problem in _lift_problems(data)


@pytest.mark.parametrize("j", [0, 1], ids=["blocks", "complement"])
def test_a_lift_outside_its_member_fails_lifts(mixed_data, j):
    # apply tests membership before it maps, so a lift outside the member
    # cannot pass for its image
    data = copy.deepcopy(mixed_data)
    data["levels"][0]["factors"][j]["lifts"][0] = "(1 2)"
    assert _lift_problems(data) == [
        "level 2: PreconditionError: element is not in the group"
    ]
