"""Module arithmetic on abelian normal subgroups, against brute-force spans."""

import itertools
import random

import pytest

from perfectcover.errors import PreconditionError
from perfectcover.gmodule import (
    GModule,
    abelian_group_basis,
    augmentation_submodule,
    is_perfect_module,
    solve_commutator_decomposition,
    submodule_generated,
)
from perfectcover.groups import (
    PermGroup,
    enumerate_elements,
    mulclose,
    normal_closure,
)
from perfectcover.perms import Permutation, commutator, parse_cycles


def P(text, degree):
    return parse_cycles(text, degree)


def translations(groups):
    G = groups["E16A5"]
    return normal_closure(G, [G.generators[2], G.generators[3]])


def brute_commutator_span(G, A):
    """Closure of all [a, g] over the whole of A and G: the oracle for the
    augmentation submodule."""
    comms = {
        commutator(a, g)
        for a in enumerate_elements(A)
        for g in enumerate_elements(G)
    }
    return set(mulclose(list(comms), degree=G.degree))


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
            assert M.decode(M.apply_matrix(M.encode(x), T)) == x.conjugate(g)


def test_module_preconditions(groups):
    with pytest.raises(PreconditionError):
        GModule(groups["S3"], groups["S3"])
    sub = PermGroup(3, [P("(1 2)", 3)])
    with pytest.raises(PreconditionError):
        GModule(groups["S3"], sub)


# ------------------------------------------------------- augmentation


def test_augmentation_v4_under_a4(groups):
    M = GModule(groups["A4"], groups["V4"])
    aug = augmentation_submodule(M)
    assert aug.size == 4
    got = {M.decode(v) for v in aug.elements}
    assert got == brute_commutator_span(groups["A4"], groups["V4"])


def test_augmentation_trivial_action(groups):
    V4 = groups["V4"]
    M = GModule(V4, V4, V4.generators)
    assert augmentation_submodule(M).size == 1


def test_augmentation_e16(groups):
    G = groups["E16A5"]
    A = translations(groups)
    M = GModule(G, A)
    aug = augmentation_submodule(M)
    assert aug.size == 16
    assert {M.decode(v) for v in aug.elements} == brute_commutator_span(G, A)


def test_augmentation_generating_set_independent(groups):
    # Lemma-style property: the augmentation submodule does not depend on
    # which generating set of the acting group is used
    G, A = groups["A4"], groups["V4"]
    M = GModule(G, A)
    first = augmentation_submodule(M, G.generators)
    second = augmentation_submodule(M, G.reduced_generators())
    extra = tuple(G.generators) + (G.generators[0] * G.generators[1],)
    third = augmentation_submodule(M, extra)
    assert first.elements == second.elements == third.elements


# --------------------------------------------------- submodule generation


def test_submodule_generated_orbit(groups):
    M = GModule(groups["A4"], groups["V4"])
    sub = submodule_generated(M, [P("(1 2)(3 4)", 4)])
    assert sub.size == 4
    assert submodule_generated(M, []).size == 1


def test_submodule_generated_irreducible(groups):
    G = groups["E16A5"]
    A = translations(groups)
    M = GModule(G, A)
    seed = next(x for x in enumerate_elements(A) if not x.is_identity())
    assert submodule_generated(M, [seed]).size == 16


def test_generated_augmentation_consistency(groups):
    # closing the images m(g - 1) equals augmenting the closed module
    G, A = groups["A4"], groups["V4"]
    M = GModule(G, A)
    gens = [b for b in M.basis]
    left = submodule_generated(M, gens, apply_augmentation=True)
    inner = submodule_generated(M, gens)
    right_seeds = [
        M.augment(v, T) for v in inner.generators for T in M.matrices
    ]
    from perfectcover.gmodule import close_submodule

    right = close_submodule(M, right_seeds, M.matrices)
    assert left.elements == right.elements


# ---------------------------------------------------------- perfection


def test_perfect_module_examples(groups):
    M = GModule(groups["A4"], groups["V4"])
    assert is_perfect_module(augmentation_submodule(M))
    assert is_perfect_module(submodule_generated(M, []))

    G = groups["E16A5"]
    M = GModule(G, translations(groups))
    assert is_perfect_module(augmentation_submodule(M))


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
