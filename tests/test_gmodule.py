"""Module arithmetic on abelian normal subgroups, against brute-force spans."""

import itertools
import pathlib
import random

import pytest

from conftest import count_permutation_calls

from perfectcover.errors import PreconditionError
from perfectcover.gmodule import GModule, abelian_group_basis, solve_commutator_decomposition
from perfectcover.groupfile import parse_group_file
from perfectcover.groups import (
    PermGroup,
    commutator_subgroup,
    enumerate_elements,
    mulclose,
    normal_closure,
)
from perfectcover.perms import Permutation, commutator, parse_cycles

DATA = pathlib.Path(__file__).parent / "data"


def P(text, degree):
    return parse_cycles(text, degree)


def translations(groups):
    G = groups["E16A5"]
    return normal_closure(G, [G.generators[2], G.generators[3]])


def brute_commutator_span(G, A):
    """Closure of all [a, g] over the whole of A and G: the oracle for the
    augmentation submodule [A, G]."""
    comms = {
        commutator(a, g)
        for a in enumerate_elements(A)
        for g in enumerate_elements(G)
    }
    return set(mulclose(list(comms), degree=G.degree))


def elements(H):
    return set(enumerate_elements(H))


# --------------------------------------------------------------- basis


def test_abelian_basis_v4(groups):
    basis, orders = abelian_group_basis(groups["V4"])
    assert orders == [2, 2]


def test_abelian_basis_z4(groups):
    basis, orders = abelian_group_basis(groups["Z4"])
    assert orders == [4]
    assert basis[0].order() == 4


def test_abelian_basis_mixed_orders():
    # cyclic of order 6 presented with two generators
    G = PermGroup(5, [P("(1 2 3)", 5), P("(4 5)", 5)])
    basis, orders = abelian_group_basis(G)
    assert orders == [6]


def test_abelian_basis_trivial():
    assert abelian_group_basis(PermGroup(3, [])) == ([], [])


def cycles_on_blocks(*lengths):
    """One cycle per length, on consecutive blocks of points."""
    degree = sum(lengths)
    gens, start = [], 0
    for n in lengths:
        images = list(range(degree))
        for i in range(n):
            images[start + i] = start + (i + 1) % n
        gens.append(Permutation(images))
        start += n
    return degree, gens


def assert_round_trip(A):
    M = GModule(A, A)
    for x in enumerate_elements(A):
        assert M.decode(M.encode(x)) == x


def test_abelian_invariants_z4_z6_z10():
    degree, gens = cycles_on_blocks(4, 6, 10)
    A = PermGroup(degree, gens)
    basis, orders = abelian_group_basis(A)
    assert orders == [2, 2, 60]
    assert [b.order() for b in basis] == orders
    assert_round_trip(A)


def test_abelian_invariants_z12_z18_redundant_generator():
    degree, (a, c) = cycles_on_blocks(12, 18)
    A = PermGroup(degree, [a * c, a, c])
    assert len(A.reduced_generators()) == 2
    basis, orders = abelian_group_basis(A)
    assert orders == [6, 36]
    assert [b.order() for b in basis] == orders
    assert_round_trip(A)


def test_encode_rejects_an_element_outside_the_carrier(groups):
    M = GModule(groups["A4"], groups["V4"])
    with pytest.raises(PreconditionError):
        M.encode(P("(1 2 3)", 4))
    trivial = PermGroup(4, [])
    with pytest.raises(PreconditionError):
        GModule(trivial, trivial).encode(P("(1 2)(3 4)", 4))


# --------------------------------------------------------------- module


def test_module_v4_under_a4(groups):
    M = GModule(groups["A4"], groups["V4"])
    assert M.rank == 2
    assert M.orders == [2, 2]
    for x in enumerate_elements(groups["V4"]):
        assert M.decode(M.encode(x)) == x


def test_module_trivial_self_action(groups):
    V4 = groups["V4"]
    M = GModule(V4, V4, V4.generators)
    identity = [[1 if i == j else 0 for j in range(M.rank)] for i in range(M.rank)]
    assert all(T == identity for T in M.matrices)


def test_module_e16(groups):
    G = groups["E16A5"]
    A = translations(groups)
    M = GModule(G, A)
    assert M.rank == 4
    assert M.orders == [2, 2, 2, 2]
    # action matrices agree with brute-force conjugation on every element
    for g in G.generators:
        T = M.matrix_for(g)
        for x in enumerate_elements(A):
            v = M.encode(x)
            image = [sum(c * row[j] for c, row in zip(v, T)) for j in range(M.rank)]
            assert M.decode(image) == x.conjugate(g)


def test_module_preconditions(groups):
    with pytest.raises(PreconditionError):
        GModule(groups["S3"], groups["S3"])
    sub = PermGroup(3, [P("(1 2)", 3)])
    with pytest.raises(PreconditionError):
        GModule(groups["S3"], sub)


# ------------------------------------------------------- augmentation
#
# The augmentation submodule [A, G] is computed on groups, as the builder
# and the verifier compute it: B = commutator_subgroup(G, A, G).


def test_augmentation_v4_under_a4(groups):
    G, A = groups["A4"], groups["V4"]
    B = commutator_subgroup(G, A, G)
    assert B.order == 4
    assert elements(B) == brute_commutator_span(G, A)


def test_augmentation_trivial_action(groups):
    V4 = groups["V4"]
    assert commutator_subgroup(V4, V4, V4).order == 1


def test_augmentation_e16(groups):
    G = groups["E16A5"]
    A = translations(groups)
    B = commutator_subgroup(G, A, G)
    assert B.order == 16
    assert elements(B) == brute_commutator_span(G, A)


def test_augmentation_generating_set_independent(groups):
    # Lemma-style property: the augmentation submodule does not depend on
    # which generating set of the acting group is used
    G, A = groups["A4"], groups["V4"]
    extra = tuple(G.generators) + (G.generators[0] * G.generators[1],)
    spans = [
        elements(commutator_subgroup(H, A, H))
        for H in (G, PermGroup(4, G.reduced_generators()), PermGroup(4, extra))
    ]
    assert spans[0] == spans[1] == spans[2]


# --------------------------------------------------- submodule generation
#
# The submodule generated by elements of A is their normal closure in G.


def test_submodule_generated_orbit(groups):
    G = groups["A4"]
    assert normal_closure(G, [P("(1 2)(3 4)", 4)]).order == 4
    assert normal_closure(G, []).order == 1


def test_submodule_generated_irreducible(groups):
    G = groups["E16A5"]
    A = translations(groups)
    seed = next(x for x in enumerate_elements(A) if not x.is_identity())
    assert normal_closure(G, [seed]).order == 16


def test_submodule_lattice_in_a_cyclic_module():
    # Z12 acting on itself: every subgroup is a submodule; the one
    # generated by 4 has order 3 and holds 0, 4 and 8 only
    degree, (g,) = cycles_on_blocks(12)
    A = PermGroup(degree, [g])
    sub = normal_closure(A, [g**4])
    assert elements(sub) == {g**0, g**4, g**8}
    assert elements(sub) == elements(normal_closure(A, [g**8]))
    assert elements(sub) != elements(normal_closure(A, [g**6]))


def test_generated_augmentation_consistency(groups):
    # closing the images b(g - 1) of a generating set equals augmenting the
    # closed module, and both are generated from GModule's basis
    G, A = groups["A4"], groups["V4"]
    M = GModule(G, A)
    left = normal_closure(G, [commutator(b, g) for b in M.basis for g in G.generators])
    right = commutator_subgroup(G, normal_closure(G, M.basis), G)
    assert elements(left) == elements(right) == elements(commutator_subgroup(G, A, G))


# ---------------------------------------------------------- perfection


def test_perfect_module_examples(groups):
    # B = [A, G] is a perfect module, [B, G] = B, for A4 on V4 and for
    # 2^4:A5 on its translations; the trivial module is perfect too
    for G, A in ((groups["A4"], groups["V4"]), (groups["E16A5"], translations(groups))):
        B = commutator_subgroup(G, A, G)
        assert elements(commutator_subgroup(G, B, G)) == elements(B)
    trivial = PermGroup(4, [])
    assert commutator_subgroup(groups["A4"], trivial, groups["A4"]).order == 1


# -------------------------------------------------------------- solving


def test_solve_frozen_example(groups):
    M = GModule(groups["A4"], groups["V4"])
    a1, a2 = P("(1 2 3)", 4), P("(1 2)(3 4)", 4)
    target = P("(1 3)(2 4)", 4)
    qs = solve_commutator_decomposition(M, (a1, a2), target)
    check = commutator(qs[0], a1) * commutator(qs[1], a2)
    assert check == target
    # the hand-computed witness is also a solution
    assert commutator(P("(1 2)(3 4)", 4), a1) == target


def test_solve_identity_target(groups):
    M = GModule(groups["A4"], groups["V4"])
    qs = solve_commutator_decomposition(
        M, groups["A4"].generators, Permutation.identity(4)
    )
    assert all(q.is_identity() for q in qs)


def test_solve_cross_checked_against_exhaustive(groups):
    G = groups["E16A5"]
    A = translations(groups)
    M = GModule(G, A)
    acting = G.generators[:2]
    elements = enumerate_elements(A)
    rng = random.Random(17)
    for _ in range(5):
        target = rng.choice(elements)
        # exhaustive solvability oracle over A x A
        solvable = any(
            commutator(q1, acting[0]) * commutator(q2, acting[1]) == target
            for q1, q2 in itertools.product(elements, elements)
        )
        assert solvable  # the natural module is its own augmentation
        qs = solve_commutator_decomposition(M, acting, target)
        check = G.identity
        for q, a in zip(qs, acting):
            check = check * commutator(q, a)
        assert check == target


def test_solve_rejects_unreachable_target(groups):
    V4 = groups["V4"]
    M = GModule(V4, V4, V4.generators)
    with pytest.raises(PreconditionError):
        solve_commutator_decomposition(M, V4.generators, P("(1 2)(3 4)", 4))


def test_solve_rejects_target_outside_a_nontrivial_augmentation(groups):
    # D8 = <(1 2), V4> acting by (1 2) on V4: [V4, <(1 2)>] = {1, (1 2)(3 4)}.
    V4 = groups["V4"]
    swap = P("(1 2)", 4)
    D8 = PermGroup(4, [swap, *V4.generators])
    assert D8.order == 8
    M = GModule(D8, V4)
    with pytest.raises(PreconditionError):
        solve_commutator_decomposition(M, (swap,), P("(1 3)(2 4)", 4))
    target = P("(1 2)(3 4)", 4)
    (q,) = solve_commutator_decomposition(M, (swap,), target)
    assert commutator(q, swap) == target


# ------------------------------------------------------------ no enumeration


def test_module_and_solve_never_enumerate_the_carrier(monkeypatch):
    # W7A5's translation module has 7^4 = 2401 elements; building its
    # module and solving one commutator equation must take fewer products
    # than there are elements.
    G = parse_group_file(str(DATA / "W7A5.grp"))
    A = normal_closure(G, [G.generators[2]])
    assert A.order == 7**4
    target = G.generators[2] * G.generators[2].conjugate(G.generators[0])
    calls = count_permutation_calls(monkeypatch)
    M = GModule(G, A)
    qs = solve_commutator_decomposition(M, G.generators, target)
    assert calls["__mul__"] + calls["inverse"] < A.order
    assert M.orders == [7, 7, 7, 7]
    check = G.identity
    for q, a in zip(qs, G.generators):
        check = check * commutator(q, a)
    assert check == target
