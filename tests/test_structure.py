"""Structure queries, cross-checked against literal brute-force oracles."""

import pathlib
from collections import Counter

import pytest
from conftest import count_enumerations, full_product_group, meet

from perfectcover import catalog, groups as groups_module, structure
from perfectcover.covering import _ClassTable
from perfectcover.errors import InternalError, PreconditionError
from perfectcover.groupfile import parse_group_file
from perfectcover.groups import (
    ENUMERATION_CAP,
    CosetMap,
    PermGroup,
    center,
    derived_subgroup,
    enumerate_elements,
    from_elements,
    mulclose,
)
from perfectcover.perms import Permutation, commutator, format_cycles, parse_cycles
from perfectcover.products import DirectProduct
from perfectcover.structure import (
    InternalDirectProduct,
    is_in_Y,
    min_generators,
    normal_subgroups,
    semisimple_factors,
    split_star_trivial,
    star_chain,
    star_series,
    star_subgroup,
)


def P(text, degree):
    return parse_cycles(text, degree)


# ------------------------------------------------------ brute oracles


def oracle_subgroups(G):
    """All subgroups generated by at most two elements (enough for the
    catalog groups used here)."""
    elements = enumerate_elements(G)
    seen = {}
    seen[frozenset({G.identity})] = [G.identity]
    for a in elements:
        for b in elements:
            key = frozenset(mulclose([a, b], degree=G.degree))
            if key not in seen:
                seen[key] = [a, b]
    return seen


def oracle_normal_subgroups(G):
    out = []
    for key in oracle_subgroups(G):
        if all(x.conjugate(g) in key for x in key for g in G.generators):
            out.append(key)
    return sorted(out, key=lambda s: (len(s), sorted(p.images for p in s)))


def oracle_star(G, normals):
    """Literal definition: intersect every normal subgroup whose quotient
    is abelian or simple.  `normals` holds every normal subgroup of G as
    an element set."""
    gens = list(G.generators)
    result = frozenset(enumerate_elements(G))
    for n_set in normals:
        abelian = all(
            commutator(a, b) in n_set for a in gens for b in gens
        )
        proper = len(n_set) < G.order
        maximal = proper and not any(
            n_set < m_set and len(m_set) < G.order for m_set in normals
        )
        if abelian or maximal:
            result = result & n_set
    return result


# ------------------------------------------------------------- tests


def test_normal_subgroups_examples(groups):
    assert [N.order for N in normal_subgroups(groups["S3"])] == [1, 3, 6]
    assert [N.order for N in normal_subgroups(groups["A5"])] == [1, 60]
    trivial = PermGroup(2, [])
    assert [N.order for N in normal_subgroups(trivial)] == [1]
    assert [N.order for N in normal_subgroups(groups["A4"])] == [1, 4, 12]


def test_normal_subgroups_against_two_generated_oracle(groups):
    for name in ("S3", "V4", "Z4", "A4", "A5"):
        G = groups[name]
        got = sorted(
            (frozenset(enumerate_elements(N)) for N in normal_subgroups(G)),
            key=lambda s: (len(s), sorted(p.images for p in s)),
        )
        assert got == oracle_normal_subgroups(G), name


def test_star_subgroup_examples(groups):
    assert star_subgroup(groups["A5"]).order == 1
    SL_star = star_subgroup(groups["SL25"])
    assert SL_star.order == 2
    assert star_subgroup(groups["Z4"]).order == 1


def test_star_subgroup_against_definition_oracle(groups):
    # The small groups take their normal subgroups from the brute-force
    # two-generated oracle, so this does not rest on normal_subgroups.
    for name in ("S3", "V4", "Z4", "A4", "A5"):
        G = groups[name]
        normals = oracle_normal_subgroups(G)
        assert frozenset(enumerate_elements(star_subgroup(G))) == oracle_star(G, normals), name
    for name in ("SL25", "E16A5"):
        G = groups[name]
        normals = [frozenset(enumerate_elements(N)) for N in normal_subgroups(G)]
        assert frozenset(enumerate_elements(star_subgroup(G))) == oracle_star(G, normals), name


# every group file of tests/data but A9, whose lattice is kept out of
# pytest for its time
_DATA_GROUPS = ["A8.grp", "M11.grp", "W2A5.grp", "W3A5.grp", "W7A5.grp"]


@pytest.mark.parametrize("name", [*catalog.names(), *_DATA_GROUPS])
def test_star_subgroup_is_the_meet_of_its_defining_subgroups(name):
    # star(G) is [G, G] met with every maximal normal N whose quotient is
    # nonabelian simple, the maximal N not above [G, G]; the meet of their
    # elements, taken by brute force, is the lattice member star_subgroup
    # picks
    G = _fresh(name)
    D = derived_subgroup(G)
    proper = [N for N in normal_subgroups(G) if N.order < G.order]
    sets = {id(N): frozenset(enumerate_elements(N)) for N in proper}
    tops = [
        N
        for N in proper
        if not any(sets[id(N)] < sets[id(M)] for M in proper)
        and not N.contains_group(D)
    ]
    assert frozenset(enumerate_elements(star_subgroup(G))) == meet(D, *tops), name


def test_normal_subgroup_lattice_of_elementary_abelian_2_4(groups):
    # star(E16A5) is the regular 2^4 on 16 points.  It is abelian, so
    # star_subgroup never builds its lattice; check the lattice directly.
    E = star_subgroup(groups["E16A5"])
    assert (E.order, E.degree) == (16, 16)
    subs = normal_subgroups(E)
    assert len(subs) == 67
    assert sorted(Counter(N.order for N in subs).items()) == [
        (1, 1), (2, 15), (4, 35), (8, 15), (16, 1)
    ]
    assert len({frozenset(enumerate_elements(N)) for N in subs}) == 67
    assert subs[-1] is E


def test_normal_subgroups_of_a5xa5_keep_their_order(groups):
    # The two factors share an order and keep their discovery order; it
    # reaches the certificate through simple_factors, and so do the
    # generators.  The whole group is listed as itself.
    G = groups["A5xA5"]
    subs = normal_subgroups(G)
    got = [(N.order, [format_cycles(g) for g in N.generators]) for N in subs]
    assert got == [
        (1, []),
        (60, ["(1 2 3 4 5)", "(1 4 5 2 3)"]),
        (60, ["(6 7 8 9 10)", "(6 9 10 7 8)"]),
        (3600, [format_cycles(g) for g in G.generators]),
    ]
    assert subs[-1] is G


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_star_subgroup_skips_the_lattice_for_trivial_derived_subgroup(
    groups, monkeypatch
):
    two_4 = star_subgroup(groups["E16A5"])
    calls = {"normal_subgroups": 0}
    monkeypatch.setattr(
        structure,
        "normal_subgroups",
        _counted(calls, "normal_subgroups", structure.normal_subgroups),
    )
    for G in (groups["V4"], groups["Z4"], two_4):
        assert star_subgroup(G).order == 1
    assert calls == {"normal_subgroups": 0}


def test_normal_subgroups_enumerate_only_for_the_class_walk(monkeypatch):
    A5 = catalog.CATALOG["A5"].group()
    calls = {"enumerate_elements": 0}
    counted = _counted(calls, "enumerate_elements", groups_module.enumerate_elements)
    monkeypatch.setattr(groups_module, "enumerate_elements", counted)
    monkeypatch.setattr(structure, "enumerate_elements", counted)
    assert [N.order for N in normal_subgroups(A5)] == [1, 60]
    assert calls == {"enumerate_elements": 1}


def test_star_series_orders(groups):
    expected = {
        "A5": [60, 1],
        "SL25": [120, 2, 1],
        "E16A5": [960, 16, 1],
        "S3": [6, 3, 1],
    }
    for name, orders in expected.items():
        series, level = star_chain(groups[name])
        assert [H.order for H in series] == orders, name
        assert level == len(orders) - 1


def test_star_series_trivial_group():
    trivial = PermGroup(2, [])
    series, level = star_chain(trivial)
    assert [H.order for H in series] == [1]
    assert level == 0


def test_star_series_report(groups):
    report = star_series(groups["SL25"])
    assert report.level == 2
    assert report.perfect
    assert report.abelianization_invariants == ()
    assert report.min_generators == 2

    report = star_series(groups["S3"])
    assert not report.perfect
    assert report.abelianization_invariants == (2,)


def test_star_is_normal_and_quotient_star_trivial(groups):
    for name in ("SL25", "E16A5", "S3"):
        G = groups[name]
        star = star_subgroup(G)
        quotient = CosetMap(G, star).quotient
        assert star_subgroup(quotient).order == 1


def test_min_generators_examples(groups):
    assert min_generators(groups["A5"], 3) == 2
    assert min_generators(PermGroup(2, []), 1) == 0
    assert min_generators(groups["V4"], 3) == 2
    assert min_generators(groups["Z4"], 2) == 1
    assert min_generators(groups["V4"], 1) is None


def test_min_generators_scans_elements_only_when_abelian(monkeypatch):
    # Only an abelian group can be cyclic, so a nonabelian one skips the
    # t = 1 element-order scan.
    calls = []
    original = structure.enumerate_elements

    def counting(*args, **kwargs):
        calls.append(args[0].order)
        return original(*args, **kwargs)

    monkeypatch.setattr(structure, "enumerate_elements", counting)
    assert min_generators(catalog.get("A5"), 2) == 2
    assert calls == []
    assert min_generators(catalog.get("Z4"), 2) == 1
    assert min_generators(catalog.get("V4"), 2) == 2
    assert calls == [4, 4]


def test_is_in_Y_examples(groups):
    assert is_in_Y(groups["A5"], 2, 1)[0]
    ok, reason = is_in_Y(groups["SL25"], 2, 1)
    assert not ok and "level" in reason
    assert is_in_Y(groups["SL25"], 2, 2)[0]
    assert is_in_Y(PermGroup(2, []), 2, 0)[0]
    ok, reason = is_in_Y(groups["S3"], 2, 2)
    assert not ok and "perfect" in reason


def _asl25() -> PermGroup:
    """5^2:SL(2,5) on the 25 points of F_5^2: star series 3000 > 50 > 25 > 1."""
    points = [(x, y) for x in range(5) for y in range(5)]
    index = {p: i for i, p in enumerate(points)}
    maps = (
        lambda x, y: ((x + y) % 5, y),
        lambda x, y: (y, 4 * x % 5),
        lambda x, y: ((x + 1) % 5, y),
    )
    return PermGroup(25, [Permutation([index[f(*p)] for p in points]) for f in maps])


def test_is_in_Y_reports_the_exact_level():
    # The star series of a finite group always ends at 1, so a member
    # deeper than k is refused with its level, however deep it is.
    G = _asl25()
    series, level = star_chain(G)
    assert [H.order for H in series] == [3000, 50, 25, 1] and level == 3
    assert is_in_Y(G, 2, 1) == (False, "star series level 3 exceeds 1")
    assert is_in_Y(G, 2, 3) == (True, "ok")


def test_star_chain_asserts_a_proper_star_subgroup(monkeypatch):
    # star(G) < G for every nontrivial finite G, so a term that does not
    # shrink is a fault of the package, not of the input
    monkeypatch.setattr(structure, "star_subgroup", lambda G, cap: G)
    with pytest.raises(InternalError):
        star_chain(catalog.CATALOG["A5"].group())


def test_is_in_Y_monotone(groups):
    for name in ("A5", "SL25", "E16A5", "A5xA5"):
        G = groups[name]
        results = [[is_in_Y(G, d, k)[0] for k in range(0, 3)] for d in (1, 2, 3)]
        for d_idx in range(len(results)):
            for k_idx in range(2):
                # monotone in k
                assert not results[d_idx][k_idx] or results[d_idx][k_idx + 1]
            if d_idx + 1 < len(results):
                for k_idx in range(3):
                    # monotone in d
                    assert not results[d_idx][k_idx] or results[d_idx + 1][k_idx]


def test_split_star_trivial_examples(groups):
    prod = DirectProduct((groups["V4"], groups["A5"]))
    W = full_product_group(prod)
    A, S = split_star_trivial(W)
    assert A.order == 4 and S.order == 60
    assert len(meet(A, S)) == 1

    A, S = split_star_trivial(groups["A5"])
    assert A.order == 1 and S.order == 60

    A, S = split_star_trivial(groups["V4"])
    assert A.order == 4 and S.order == 1


def test_split_star_trivial_rejects_nontrivial_star(groups):
    with pytest.raises(PreconditionError):
        split_star_trivial(groups["SL25"])


def test_semisimple_factors(groups):
    assert [M.order for M in semisimple_factors(groups["A5"])] == [60]
    facs = semisimple_factors(groups["A5xA5"])
    assert [M.order for M in facs] == [60, 60]
    assert semisimple_factors(PermGroup(2, [])) == []
    with pytest.raises(PreconditionError):
        semisimple_factors(groups["V4"])
    with pytest.raises(PreconditionError):
        semisimple_factors(groups["E16A5"])


def test_internal_direct_product_components(groups):
    facs = semisimple_factors(groups["A5xA5"])
    dec = InternalDirectProduct(groups["A5xA5"], facs)
    x = P("(1 2 3)(6 7 8 9 10)", 10)
    c0, c1 = dec.components(x)
    assert c0 * c1 == x
    assert c0 in facs[0] and c1 in facs[1]


def test_internal_direct_product_with_one_nontrivial_factor(groups, monkeypatch):
    # W = A x S with A = 1: components come from a membership test, and no
    # factor is enumerated
    A5 = groups["A5"]
    trivial = PermGroup(5, ())
    elements = enumerate_elements(A5)

    def refuse(*args, **kwargs):
        raise AssertionError("a factor was enumerated")

    monkeypatch.setattr(structure, "enumerate_elements", refuse)
    dec = InternalDirectProduct(A5, [trivial, A5])
    for x in elements:
        assert dec.components(x) == (A5.identity, x)
    assert InternalDirectProduct(A5, [A5]).components(elements[1]) == (elements[1],)
    with pytest.raises(PreconditionError, match="element is not in the group"):
        dec.components(P("(1 2)", 5))
    with pytest.raises(PreconditionError, match="element is not in the group"):
        dec.components(P("(1 2 3)", 6))
    whole = groups["A5xA5"]
    first = semisimple_factors(whole)[0]
    with pytest.raises(PreconditionError, match="factors do not fill the group"):
        InternalDirectProduct(whole, [PermGroup(10, ()), first])


def test_level_drops_by_one_in_the_quotient(groups):
    # quotient by the last nontrivial series term has level exactly one less;
    # this is the property the construction recursion relies on
    for name in ("A5", "SL25", "E16A5", "S3", "A5xA5"):
        G = groups[name]
        series, level = star_chain(G)
        if level < 1:
            continue
        quotient = CosetMap(G, series[level - 1]).quotient
        _, qlevel = star_chain(quotient)
        assert qlevel == level - 1, name


@pytest.mark.parametrize(
    "name, orders, closures",
    # At most one closure per cyclic class (A5: the two classes of 5-cycles
    # are x and x^2; SL(2,5): also the two classes of elements of order 10),
    # and, as the trivial group and G are listed from the start, only the
    # nonidentity classes the class equation leaves open: none in A5, the
    # centre {1, -1} in SL(2,5).
    [("A5", [1, 60], 0), ("SL25", [1, 2, 120], 1)],
    ids=["A5", "SL25"],
)
def test_normal_subgroups_take_one_closure_per_cyclic_class(
    monkeypatch, name, orders, closures
):
    G = catalog.CATALOG[name].group()
    calls = {"normal_closure": 0}
    monkeypatch.setattr(
        structure,
        "normal_closure",
        _counted(calls, "normal_closure", structure.normal_closure),
    )
    assert [N.order for N in normal_subgroups(G)] == orders
    assert calls == {"normal_closure": closures}


def test_min_generators_keeps_a_known_minimum(monkeypatch):
    A5 = catalog.CATALOG["A5"].group()
    assert min_generators(A5, 3) == 2
    assert A5.facts["min_generators"] == (2, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("the search ran again")

    monkeypatch.setattr(structure, "generates", refuse)
    monkeypatch.setattr(structure, "is_abelian", refuse)
    assert min_generators(A5, 1) is None
    assert A5.facts["min_generators"] == (2, 0)
    assert min_generators(A5, 2) == 2


_LATTICE_GROUPS = ["A5", "A6", "PSL27", "SL25", "E16A5", "A5xA5", "A8.grp", "M11.grp"]


def _fresh(name):
    if name.endswith(".grp"):
        return parse_group_file(str(pathlib.Path(__file__).parent / "data" / name))
    return catalog.CATALOG[name].group()


@pytest.mark.parametrize("name", _LATTICE_GROUPS)
def test_class_equation_skip_keeps_the_lattice(monkeypatch, name):
    # the reference computes the closure of every candidate class
    calls = {"normal_closure": 0}
    monkeypatch.setattr(
        structure,
        "normal_closure",
        _counted(calls, "normal_closure", structure.normal_closure),
    )
    got = normal_subgroups(_fresh(name))
    skipping = calls["normal_closure"]
    monkeypatch.setattr(structure, "_may_be_proper", lambda *args: True)
    reference = normal_subgroups(_fresh(name))
    assert skipping <= calls["normal_closure"] - skipping
    assert [N.order for N in got] == [N.order for N in reference]
    assert [N.generators for N in got] == [N.generators for N in reference]
    for N, R in zip(got, reference):
        assert set(enumerate_elements(N)) == set(enumerate_elements(R))


def test_may_be_proper_reads_the_class_equation():
    # A5: classes 1, 15, 20, 12, 12; 1 + 15 + 12 + 12 = 40 does not divide 60
    divisors = [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30]
    assert not structure._may_be_proper(divisors, 15, [20, 12, 12])
    assert not structure._may_be_proper(divisors, 12, [15, 20, 12])
    # SL(2,5): the centre {1, -1} has order 2
    assert structure._may_be_proper([d for d in range(1, 61) if 120 % d == 0], 1, [30, 20])
    # 1 + 4 + 2 + 5 = 12 is reached only through two other classes
    assert structure._may_be_proper([1, 2, 3, 4, 6, 8, 12], 4, [2, 5, 9])
    assert not structure._may_be_proper([1, 2, 3, 4, 6, 8, 12], 4, [2, 9])
    assert not structure._may_be_proper([], 0, [])


def test_semisimple_factors_walk_a_simple_group_once(monkeypatch):
    # the lattice, the centre and the covering class table of a group read
    # one walk of its classes
    enumerated = count_enumerations(monkeypatch)
    A5 = catalog.CATALOG["A5"].group()
    assert [M.order for M in semisimple_factors(A5)] == [60]
    assert center(A5).order == 1
    assert len(_ClassTable(A5).members) == 5
    assert enumerated == [("conjugacy_classes", 60, ENUMERATION_CAP)]
    # |M| < |S|: each factor's own lattice decides its simplicity
    assert [M.order for M in semisimple_factors(catalog.CATALOG["A5xA5"].group())] == [60, 60]
    assert [order for _, order, _ in enumerated] == [60, 3600, 60, 60]


def test_split_rejects_a_centre_that_meets_the_derived_subgroup(monkeypatch):
    # A5 x C2 on 7 points is star-trivial with centre <(6 7)>.  A false
    # centre of order 2 inside A5 passes |A||S| = |W|, and fails only as a
    # part that meets S.
    W = PermGroup(7, [P("(1 2 3 4 5)", 7), P("(1 2 3)", 7), P("(6 7)", 7)])
    inside = PermGroup(7, [P("(1 2)(3 4)", 7)])
    monkeypatch.setattr(structure, "center", lambda G, cap=ENUMERATION_CAP: inside)
    with pytest.raises(
        PreconditionError, match="center meets the derived subgroup nontrivially"
    ):
        split_star_trivial(W)
