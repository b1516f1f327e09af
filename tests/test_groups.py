"""Kernel operations, each checked against the BFS-closure oracle."""

import random

import pytest
from conftest import count_permutation_calls

from perfectcover import catalog
from perfectcover.errors import (
    InputError,
    InternalError,
    PreconditionError,
    SizeLimitError,
)
from perfectcover.groups import (
    PermGroup,
    StabilizerChain,
    center,
    centralizer,
    commutator_subgroup,
    conjugacy_class_of,
    conjugacy_classes,
    conjugation_orbit,
    conjugation_orbits,
    derived_subgroup,
    enumerate_elements,
    from_elements,
    greedy_indices,
    intersection,
    is_normal,
    mulclose,
    normal_closure,
    quotient_action,
)
from perfectcover.perms import Permutation, commutator, parse_cycles
from perfectcover.structure import normal_subgroups


def P(text, degree):
    return parse_cycles(text, degree)


def brute_elements(G):
    return set(mulclose(G.generators, degree=G.degree))


def test_build_group_examples():
    G = PermGroup(5, [P("(1 2 3 4 5)", 5), P("(1 2 3)", 5)])
    assert G.order == len(brute_elements(G)) == 60
    assert PermGroup(4, []).order == 1
    G = PermGroup(3, [P("(1 2)", 3), P("(1 2 3)", 3)])
    assert G.order == len(brute_elements(G)) == 6


def test_build_group_rejects_bad_degree():
    with pytest.raises(InputError):
        PermGroup(3, [P("(1 2 3 4)", 4)])
    with pytest.raises(InputError):
        StabilizerChain(4, ()).extend(P("(1 2 3)", 3))


def scan_inputs(G, rng):
    """Generators, repeats, the identity and random products of generators."""
    gens = list(G.generators)
    products = []
    for _ in range(6):
        x = G.identity
        for _ in range(rng.randrange(1, 5)):
            x = x * rng.choice(gens)
        products.append(x)
    return [G.identity] + products[:3] + gens + gens[:1] + products[3:]


def grow_chain_checked(degree, elements):
    """Extend a chain one element at a time, checking each step by mulclose.

    Returns the chain and the indices of the elements that grew it.
    """
    chain = StabilizerChain(degree, ())
    closure = {Permutation.identity(degree)}
    picks = []
    for idx, g in enumerate(elements):
        outside = g not in closure
        assert chain.extend(g) == outside
        if outside:
            picks.append(idx)
            closure = set(mulclose([elements[i] for i in picks], degree=degree))
        assert chain.order() == len(closure)
    return chain, picks


def test_chain_order_matches_bfs_closure(groups):
    rng = random.Random(11)
    for name, G in groups.items():
        assert G.order == len(brute_elements(G)), name
        chain, _ = grow_chain_checked(G.degree, G.generators)
        assert chain.order() == G.order, name
        chain, _ = grow_chain_checked(G.degree, scan_inputs(G, rng))
        assert chain.order() == G.order, name


def test_greedy_indices_picks_elements_outside_earlier_closure(groups):
    rng = random.Random(12)
    for name, G in groups.items():
        for elements in (G.generators, scan_inputs(G, rng)):
            _, picks = grow_chain_checked(G.degree, elements)
            assert greedy_indices(G.degree, elements) == picks, name
            # with a target order the scan stops at the pick that reaches it
            stop = next(
                n for n in range(len(picks) + 1)
                if len(mulclose([elements[i] for i in picks[:n]], degree=G.degree))
                == G.order
            )
            assert greedy_indices(G.degree, elements, G.order) == picks[:stop], name
            if elements is G.generators:
                reduced = tuple(elements[i] for i in picks[:stop])
                assert G.reduced_generators() == reduced, name
    with pytest.raises(InternalError):
        greedy_indices(5, groups["A5"].generators[:1], 60)


def test_membership_agrees_with_enumeration(groups):
    for name in ("S3", "A4", "A5", "PSL27"):
        G = groups[name]
        elements = set(enumerate_elements(G))
        assert all(x in G for x in elements)
        # a permutation outside the group of the same degree
        if name == "A5":
            assert P("(1 2)", 5) not in G


def test_membership_examples(groups):
    A5 = groups["A5"]
    assert P("(1 2 3)", 5) in A5
    assert P("(1 2)", 5) not in A5
    assert Permutation.identity(5) in A5


def test_enumerate_elements_examples(groups):
    assert len(enumerate_elements(groups["S3"], cap=10)) == 6
    trivial = PermGroup(3, [])
    assert enumerate_elements(trivial, cap=1) == [Permutation.identity(3)]
    with pytest.raises(SizeLimitError):
        enumerate_elements(groups["A5"], cap=59)


def test_normal_closure_examples(groups):
    S3 = groups["S3"]
    N = normal_closure(S3, [P("(1 2 3)", 3)])
    assert N.order == 3
    assert normal_closure(S3, [Permutation.identity(3)]).order == 1
    assert normal_closure(groups["A5"], [P("(1 2 3)", 5)]).order == 60
    with pytest.raises(PreconditionError):
        normal_closure(groups["A5"], [P("(1 2)", 5)])


def brute_derived(G):
    elements = list(brute_elements(G))
    comms = {commutator(a, b) for a in elements for b in elements}
    return set(mulclose(list(comms), degree=G.degree))


def test_derived_subgroup_examples(groups):
    D = derived_subgroup(groups["S3"])
    assert D.order == 3
    assert brute_elements(D) == brute_derived(groups["S3"])
    assert derived_subgroup(groups["A5"]).order == 60
    Z4 = PermGroup(4, [P("(1 2 3 4)", 4)])
    assert derived_subgroup(Z4).order == 1
    assert brute_elements(derived_subgroup(groups["A4"])) == brute_derived(
        groups["A4"]
    )


def test_derived_subgroup_is_normal_with_abelian_quotient(groups):
    for name in ("S3", "A4", "SL25"):
        G = groups[name]
        D = derived_subgroup(G)
        assert is_normal(G, D)
        elements = enumerate_elements(G)
        for a in elements[:10]:
            for b in elements[:10]:
                assert commutator(a, b) in D


def test_commutator_subgroup_examples(groups):
    A4, V4 = groups["A4"], groups["V4"]
    got = commutator_subgroup(A4, V4, A4)
    brute = {
        commutator(h, k)
        for h in brute_elements(V4)
        for k in brute_elements(A4)
    }
    assert brute_elements(got) == set(mulclose(list(brute), degree=4))
    assert got.order == 4

    trivial = PermGroup(4, [])
    assert commutator_subgroup(A4, trivial, A4).order == 1

    G = groups["E16A5"]
    T = normal_closure(G, [G.generators[2], G.generators[3]])
    assert T.order == 16
    assert commutator_subgroup(G, T, G).order == 16


def test_commutator_subgroup_containment_check(groups):
    with pytest.raises(PreconditionError):
        commutator_subgroup(groups["V4"], groups["A4"], groups["V4"])


def test_centralizer_examples(groups):
    A5 = groups["A5"]
    assert centralizer(A5, P("(1 2 3 4 5)", 5)).order == 5
    assert centralizer(A5, Permutation.identity(5)).order == 60
    assert centralizer(groups["S3"], P("(1 2)", 3)).order == 2


def test_conjugacy_classes_examples(groups):
    sizes = sorted(len(c) for c in conjugacy_classes(groups["A5"]))
    assert sizes == [1, 12, 12, 15, 20]
    assert sorted(len(c) for c in conjugacy_classes(groups["S3"])) == [1, 2, 3]
    trivial = PermGroup(2, [])
    assert conjugacy_classes(trivial) == [[Permutation.identity(2)]]


def test_class_size_times_centralizer(groups):
    for name in ("S3", "A4", "A5", "PSL27"):
        G = groups[name]
        classes = conjugacy_classes(G)
        assert sum(len(c) for c in classes) == G.order
        for cls in classes:
            assert G.order % len(cls) == 0
            assert len(cls) * centralizer(G, cls[0]).order == G.order


def test_conjugacy_class_of_matches_partition(groups):
    for name in ("A4", "A5", "A6", "PSL27"):
        G = groups[name]
        classes = conjugacy_classes(G)
        for cls in classes:
            assert set(conjugacy_class_of(G, cls[0])) == set(cls), name
            orbit = conjugation_orbit(G, cls[0])
            assert list(orbit) == cls, name
            for y, r in orbit.items():
                assert r in G, name
                assert cls[0].conjugate(r) == y, name
        orbits = list(conjugation_orbits(G))
        assert [list(o) for o in orbits] == classes, name
        for orbit in orbits:
            x = next(iter(orbit))
            for y, r in orbit.items():
                assert r in G, name
                assert x.conjugate(r) == y, name
    with pytest.raises(PreconditionError):
        conjugation_orbit(groups["A5"], P("(1 2)", 5))


def test_center_and_intersection(groups):
    SL = groups["SL25"]
    Z = center(SL)
    assert Z.order == 2
    assert intersection(Z, derived_subgroup(SL)).order == 2
    assert center(groups["A5"]).order == 1


def test_quotient_action(groups):
    SL = groups["SL25"]
    Z = center(SL)
    qmap = quotient_action(SL, Z)
    Q = qmap.quotient
    assert Q.order == 60
    for z in enumerate_elements(Z):
        assert qmap.apply(z).is_identity()
    # homomorphism property on a sample of pairs
    elements = enumerate_elements(SL)
    import random

    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.choice(elements), rng.choice(elements)
        assert qmap.apply(a * b) == qmap.apply(a) * qmap.apply(b)
    # lift returns a representative of the right coset
    for q in enumerate_elements(Q)[:20]:
        assert qmap.apply(qmap.lift(q)) == q


def test_quotient_action_trivial_normal(groups):
    A5 = groups["A5"]
    qmap = quotient_action(A5, PermGroup(5, []))
    assert qmap.quotient is A5
    g = P("(1 2 3)", 5)
    assert qmap.apply(g) == g
    assert qmap.lift(g) == g


def test_from_elements_reduces(groups):
    elements = enumerate_elements(groups["A4"])
    G = from_elements(4, elements)
    assert G.order == 12
    assert len(G.generators) <= 4


def _embedded(p, degree):
    """p on `degree` points, moving 0..p.degree-1 as p does and fixing the rest."""
    return Permutation(tuple(p.images) + tuple(range(p.degree, degree)))


def _restricted(p, n):
    assert all(p(i) == i for i in range(n, p.degree))
    return Permutation(tuple(p.images)[:n])


@pytest.mark.parametrize("name", ["A5", "SL25"])
@pytest.mark.parametrize("degree", [257, 300])
def test_groups_above_degree_256_match_their_native_degree(groups, name, degree):
    # Above degree 256 images are tuples, not bytes; the same loops must run.
    G = groups[name]
    n = G.degree
    big = PermGroup(degree, [_embedded(g, degree) for g in G.generators])

    def down(p):
        return _restricted(p, n)

    assert type(big.identity.images) is tuple
    assert big.order == G.order
    elements = enumerate_elements(G)
    assert all(_embedded(x, degree) in big for x in elements)
    outside = P("(1 2)", n)
    assert outside not in G
    assert _embedded(outside, degree) not in big
    assert P(f"(1 {degree})", degree) not in big
    assert [down(x) for x in mulclose(big.generators, degree=degree)] == elements
    x = G.generators[0]
    orbit = conjugation_orbit(big, _embedded(x, degree))
    assert {down(y): down(r) for y, r in orbit.items()} == conjugation_orbit(G, x)
    closure = normal_closure(big, [_embedded(x, degree)])
    native = normal_closure(G, [x])
    assert closure.order == native.order
    assert [down(g) for g in closure.generators] == list(native.generators)
    derived = derived_subgroup(big)
    assert derived.order == derived_subgroup(G).order
    assert [down(g) for g in derived.generators] == list(derived_subgroup(G).generators)
    assert [N.order for N in normal_subgroups(big)] == [
        N.order for N in normal_subgroups(G)
    ]
    rng_big, rng = random.Random(5), random.Random(5)
    assert [down(big.sample(rng_big)) for _ in range(20)] == [
        G.sample(rng) for _ in range(20)
    ]


def test_kernel_loops_take_no_permutation_products(groups, monkeypatch):
    # The chain, mulclose and class walks run on raw images: no Permutation
    # product or inverse per Schreier generator, sift step, closure element
    # or class member.
    rng = random.Random(3)
    A5, A6 = groups["A5"], groups["A6"]
    redundant = []
    for _ in range(60):
        x = A6.identity
        for _ in range(rng.randrange(1, 8)):
            x = x * rng.choice(A6.generators)
        redundant.append(x)
    five_cycle = P("(1 2 3 4 5)", 5)
    fresh_A5 = PermGroup(5, A5.generators)
    calls = count_permutation_calls(monkeypatch)
    assert StabilizerChain(6, redundant).order() == 360
    assert calls == {"__mul__": 0, "inverse": 0}
    assert len(mulclose(A5.generators)) == 60
    assert calls == {"__mul__": 0, "inverse": 0}
    assert len(conjugation_orbit(fresh_A5, five_cycle)) == 12
    assert calls == {"__mul__": 0, "inverse": 0}


def _gens_fixing_base_prefix(chain, i):
    """The chain's (images, table) pairs that fix its first i base points."""
    prefix = chain.base()[:i]
    return [p for p in chain._gen_tables if all(p[0][b] == b for b in prefix)]


def _assert_level_gens_match_definition(chain):
    for i, lev in enumerate(chain.levels):
        expected = _gens_fixing_base_prefix(chain, i)
        assert lev.gens == expected
        # the levels share the pairs: no table is stored twice
        assert all(a is b for a, b in zip(lev.gens, expected))


@pytest.mark.parametrize("name", catalog.names())
@pytest.mark.parametrize("padded", [False, True])
def test_level_generators_are_the_strong_generators_fixing_the_base(groups, name, padded):
    # Each level keeps its generator list as strong generators are added;
    # it must equal the filter of all strong generators by the base prefix,
    # for bytes images, for tuple images (degree 300) and after `extend`.
    G = groups[name]
    degree = 300 if padded else G.degree
    gens = [_embedded(g, degree) for g in G.generators]
    chain = StabilizerChain(degree, gens)
    assert chain.order() == G.order
    _assert_level_gens_match_definition(chain)
    rng = random.Random(11)
    grown = StabilizerChain(degree, gens[:1])
    for g in gens[1:]:
        grown.extend(g)
        _assert_level_gens_match_definition(grown)
    for _ in range(10):
        x = grown.identity
        for _ in range(rng.randrange(1, 6)):
            x = x * rng.choice(gens)
        grown.extend(x)
        _assert_level_gens_match_definition(grown)
    assert grown.order() == G.order
    empty = StabilizerChain(degree, ())
    for g in reversed(gens):
        empty.extend(g)
        _assert_level_gens_match_definition(empty)
    assert empty.order() == G.order
