"""Kernel operations, each checked against the BFS-closure oracle."""

import random

import pytest
from conftest import centralizer_order, count_permutation_calls, walked_classes

from perfectcover import catalog, groups as groups_module
from perfectcover.errors import (
    InputError,
    PreconditionError,
    SizeLimitError,
)
from perfectcover.groups import (
    CosetMap,
    PermGroup,
    StabilizerChain,
    center,
    commutator_subgroup,
    conjugacy_class_of,
    conjugacy_classes,
    conjugation_orbit_images,
    derived_subgroup,
    enumerate_elements,
    from_elements,
    intersection,
    is_normal,
    mulclose,
    normal_closure,
)
from perfectcover.perms import Permutation, commutator, parse_cycles
from perfectcover.products import DirectProduct
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


def test_chain_picks_are_elements_outside_earlier_closure(groups):
    rng = random.Random(12)
    for name, G in groups.items():
        for elements in (G.generators, scan_inputs(G, rng)):
            _, picks = grow_chain_checked(G.degree, elements)
            assert StabilizerChain(G.degree, elements).picks == picks, name
            # the picks alone generate the group the elements generate
            chosen = [elements[i] for i in picks]
            assert len(mulclose(chosen, degree=G.degree)) == G.order, name
            reduced = PermGroup(G.degree, elements).reduced_generators()
            assert reduced == tuple(chosen), name
            if elements is G.generators:
                assert G.reduced_generators() == reduced, name
    # picks of a list that generates a proper subgroup stop short of it
    assert StabilizerChain(5, groups["A5"].generators[:1]).picks == [0]


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
    # |C(x)| = |G| / |x^G|, against the brute-force count
    A5, S3 = groups["A5"], groups["S3"]
    for G, x, order in (
        (A5, P("(1 2 3 4 5)", 5), 5),
        (A5, Permutation.identity(5), 60),
        (S3, P("(1 2)", 3), 2),
    ):
        assert G.order // len(conjugacy_class_of(G, x)) == order
        assert centralizer_order(G, x) == order


def test_conjugacy_classes_examples(groups):
    sizes = sorted(len(c) for c in walked_classes(groups["A5"]))
    assert sizes == [1, 12, 12, 15, 20]
    assert sorted(len(c) for c in walked_classes(groups["S3"])) == [1, 2, 3]
    trivial = PermGroup(2, [])
    assert walked_classes(trivial) == [[Permutation.identity(2)]]


def test_class_size_times_centralizer(groups):
    for name in ("S3", "A4", "A5", "PSL27"):
        G = groups[name]
        classes = walked_classes(G)
        assert sum(len(c) for c in classes) == G.order
        for cls in classes:
            assert G.order % len(cls) == 0
            assert len(cls) * centralizer_order(G, cls[0]) == G.order


def _wrapped(orbit):
    """An orbit on raw images as (member, conjugator) Permutation pairs."""
    return [(Permutation(y), Permutation(r)) for y, r in orbit.items()]


def test_conjugacy_class_of_matches_partition(groups):
    for name in ("A4", "A5", "A6", "PSL27"):
        G = groups[name]
        classes = walked_classes(G)
        for cls in classes:
            assert conjugacy_class_of(G, cls[0]) == cls, name
            orbit = _wrapped(conjugation_orbit_images(G, cls[0]))
            assert [y for y, _ in orbit] == cls, name
            for y, r in orbit:
                assert r in G, name
                assert cls[0].conjugate(r) == y, name
        orbits = [_wrapped(o) for o in conjugacy_classes(G)]
        assert [[y for y, _ in o] for o in orbits] == classes, name
        for orbit in orbits:
            x = orbit[0][0]
            for y, r in orbit:
                assert r in G, name
                assert x.conjugate(r) == y, name
    with pytest.raises(PreconditionError):
        conjugation_orbit_images(groups["A5"], P("(1 2)", 5))
    with pytest.raises(PreconditionError):
        conjugacy_class_of(groups["A5"], P("(1 2)", 5))


@pytest.mark.parametrize("name", ["A4", "A5", "SL25", "E16A5"])
def test_conjugation_orbits_wrap_the_image_form(groups, name):
    # the orbits partition G, each class is its image orbit wrapped, and
    # each orbit is the walk from its first member, conjugators included
    G = groups[name]
    orbits = list(conjugacy_classes(G))
    assert sum(map(len, orbits)) == G.order
    assert set().union(*orbits) == {x.images for x in enumerate_elements(G)}
    for orbit in orbits:
        x = Permutation(next(iter(orbit)))
        assert conjugacy_class_of(G, x) == [Permutation(y) for y in orbit]
        assert _wrapped(orbit) == _wrapped(conjugation_orbit_images(G, x))


def test_center_and_intersection(groups):
    SL = groups["SL25"]
    Z = center(SL)
    assert Z.order == 2
    assert intersection(Z, derived_subgroup(SL)).order == 2
    assert center(groups["A5"]).order == 1


def count_chain_builds(monkeypatch):
    """Record the generator list of every chain built from here on."""
    built = []
    original = StabilizerChain.__init__

    def counting(self, degree, generators):
        generators = list(generators)
        built.append(generators)
        original(self, degree, generators)

    monkeypatch.setattr(StabilizerChain, "__init__", counting)
    return built


def test_normal_closure_builds_one_chain(groups, monkeypatch):
    # the chain extended while closing is the returned group's chain
    G = groups["A5"]
    built = count_chain_builds(monkeypatch)
    N = normal_closure(G, [P("(1 2 3)", 5)])
    assert len(built) == 1
    monkeypatch.undo()
    assert N.order == 60 == PermGroup(5, N.generators).order
    assert all(g in N for g in G.generators)
    # the picks recorded while closing are those of a fresh chain
    assert N.reduced_generators() == PermGroup(5, N.generators).reduced_generators()


def _random_products(gens, count, rng):
    products = []
    for _ in range(count):
        x = Permutation.identity(gens[0].degree)
        for _ in range(rng.randrange(1, 8)):
            x = x * rng.choice(gens)
        products.append(x)
    return products


@pytest.mark.parametrize("name", ["A5", "PSL27", "SL25", "E16A5", "A5xA5"])
def test_chain_from_long_redundant_list_agrees_with_mulclose(groups, name):
    # The generators, then a few hundred products of them: each product
    # sifts to the identity, so only the generators extend the chain.
    G = groups[name]
    rng = random.Random(17)
    gens = list(G.generators)
    chain = StabilizerChain(G.degree, gens + _random_products(gens, 300, rng))
    elements = set(mulclose(gens, degree=G.degree))
    assert chain.order() == len(elements) == G.order
    assert chain.picks == StabilizerChain(G.degree, gens).picks
    assert all(chain.contains(x) for x in elements)
    points = list(range(G.degree))
    for _ in range(200):
        rng.shuffle(points)
        x = Permutation(points)
        assert chain.contains(x) == (x in elements)


def test_reduced_generators_builds_no_chain(groups, monkeypatch):
    A6 = groups["A6"]
    G = PermGroup(6, A6.generators * 3)
    built = count_chain_builds(monkeypatch)
    reduced = G.reduced_generators()
    assert built == []
    monkeypatch.undo()
    assert reduced == A6.reduced_generators()
    assert PermGroup(6, reduced).order == 360


def test_projection_builds_its_chain_from_reduced_generators(groups, monkeypatch):
    A5, PSL = groups["A5"], groups["PSL27"]
    prod = DirectProduct((A5, PSL))
    pairs = [prod.element({0: A5.generators[i], 1: PSL.generators[i]}) for i in range(2)]
    H = prod.subgroup(pairs + _random_products(pairs, 40, random.Random(3)))
    reduced = H.reduced_generators()
    assert len(reduced) < len(H.generators)
    built = count_chain_builds(monkeypatch)
    proj = prod.projection_of(H, 1)
    assert built == [[prod.project(g, 1) for g in reduced]]
    monkeypatch.undo()
    assert proj.order == 168


def test_quotient_action(groups):
    SL = groups["SL25"]
    Z = center(SL)
    qmap = CosetMap(SL, Z)
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


def brute_coset_map(G, N):
    """Least coset elements, breadth-first from N over G's generators, and
    the quotient image of g, both by literal `min(n * g for n in N)`."""
    n_elements = enumerate_elements(N)

    def least(g):
        return min(n * g for n in n_elements)

    reps = [least(G.identity)]
    index = {reps[0]: 0}
    for r in reps:
        for g in G.generators:
            c = least(r * g)
            if c not in index:
                index[c] = len(reps)
                reps.append(c)

    def apply(g):
        return Permutation([index[least(r * g)] for r in reps])

    return reps, apply


def _coset_map_cases(groups):
    E = groups["E16A5"]
    AA = groups["A5xA5"]
    return [
        ("SL25/Z", groups["SL25"], center(groups["SL25"])),
        ("E16A5/2^4", E, normal_closure(E, E.generators[2:])),
        ("A5xA5/A5", AA, PermGroup(10, AA.generators[:2])),
    ]


def test_coset_map_equals_brute_least_elements(groups):
    rng = random.Random(3)
    for label, G, N in _coset_map_cases(groups):
        assert N.order in (2, 16, 60), label
        qmap = CosetMap(G, N)
        reps, apply = brute_coset_map(G, N)
        assert qmap.reps == reps, label
        assert len(reps) * N.order == G.order, label
        elements = enumerate_elements(G)
        for g in rng.sample(elements, min(len(elements), 120)):
            assert qmap.apply(g) == apply(g), label
        for q in enumerate_elements(qmap.quotient):
            assert qmap.lift(q) == reps[q(0)], label


def test_quotient_action_trivial_normal(groups):
    A5 = groups["A5"]
    qmap = CosetMap(A5, PermGroup(5, []))
    assert qmap.quotient is A5
    g = P("(1 2 3)", 5)
    assert qmap.apply(g) == g
    assert qmap.lift(g) == g


def test_coset_map_onto_the_whole_group_enumerates_nothing(groups, monkeypatch):
    # N = G: one coset, led by the identity, as in the general path
    cases = [groups[name] for name in ("A5", "SL25", "E16A5", "A5xA5")]
    expected = []
    for G in cases:
        reps, apply = brute_coset_map(G, G)
        sample = random.Random(2).sample(enumerate_elements(G), 20)
        expected.append((reps, [apply(g) for g in G.generators], sample, apply))

    def refuse(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(groups_module, "enumerate_elements", refuse)
    monkeypatch.setattr(groups_module, "mulclose", refuse)
    for G, (reps, gen_images, sample, apply) in zip(cases, expected):
        qmap = CosetMap(G, PermGroup(G.degree, G.reduced_generators()))
        assert qmap.reps == reps == [G.identity]
        assert qmap.gen_images == gen_images
        assert qmap.quotient.degree == 1 and qmap.quotient.order == 1
        assert list(qmap.quotient.generators) == gen_images
        for g in sample:
            assert qmap.apply(g) == apply(g)
            assert qmap.lift(qmap.apply(g)) == G.identity
    with pytest.raises(PreconditionError, match="element is not in the group"):
        CosetMap(cases[0], cases[0]).apply(P("(1 2)", 5))


def test_derived_subgroup_is_computed_once_per_group(monkeypatch):
    G = catalog.CATALOG["SL25"].group()
    calls = []
    original = groups_module.normal_closure

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(groups_module, "normal_closure", counting)
    D = derived_subgroup(G)
    assert derived_subgroup(G) is D
    assert D.order == 120
    assert calls == [G]
    # another group object with the same generators computes its own
    assert derived_subgroup(PermGroup(G.degree, G.generators)) is not D
    assert len(calls) == 2


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
    orbit = _wrapped(conjugation_orbit_images(big, _embedded(x, degree)))
    native_orbit = _wrapped(conjugation_orbit_images(G, x))
    assert [(down(y), down(r)) for y, r in orbit] == native_orbit
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
    # tuples order like bytes, so the least coset elements are the same
    N = center(G) if center(G).order > 1 else G
    big_N = PermGroup(degree, [_embedded(g, degree) for g in N.generators])
    qmap, qmap_big = CosetMap(G, N), CosetMap(big, big_N)
    assert [down(r) for r in qmap_big.reps] == qmap.reps
    assert [qmap_big.apply(_embedded(x, degree)) for x in elements[:20]] == [
        qmap.apply(x) for x in elements[:20]
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
    SL25 = groups["SL25"]
    Z = center(SL25)
    calls = count_permutation_calls(monkeypatch)
    assert StabilizerChain(6, redundant).order() == 360
    assert calls == {"__mul__": 0, "inverse": 0}
    assert len(mulclose(A5.generators)) == 60
    assert calls == {"__mul__": 0, "inverse": 0}
    assert len(conjugation_orbit_images(fresh_A5, five_cycle)) == 12
    assert calls == {"__mul__": 0, "inverse": 0}
    assert CosetMap(SL25, Z).quotient.order == 60
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
