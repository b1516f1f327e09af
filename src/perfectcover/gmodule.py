"""Abelian normal subgroups as modules for the conjugation action.

The multiplicative/additive boundary is encode/decode: an abelian normal
subgroup A of G gets an independent basis with orders from the Smith form
of its relation lattice, elements become coordinate vectors, and each
acting element of G becomes an integer matrix.  Under this identification
a(g - 1) is the commutator [a, g], so all commutator bookkeeping here is
plain linear algebra over the basis orders.

Nothing here visits the elements of A.  Its reduced generators g_1 .. g_r
form a polycyclic sequence: g_i has a relative order e_i over the prefix
subgroup <g_1 .. g_(i-1)>, and each element of A has one exponent vector w
with 0 <= w_i < e_i, found by sifting it down the prefix chains.  The r
power relations g_i^e_i = g_1^w_1 ... g_(i-1)^w_(i-1) span the relation
lattice, whose Smith form maps exponent vectors to basis coordinates.  A
submodule is a lattice too: its generators with the order rows, so that
membership, size and equality are integer linear algebra (Holt-Eick-
O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 8 and 9).
"""

from __future__ import annotations

import math

from .errors import InternalError, PreconditionError
from .groups import PermGroup, StabilizerChain, is_normal
from .perms import Permutation, commutator
from .snf import diagonal_of, identity_matrix, smith_normal_form, solve_left


class _PolycyclicSequence:
    """The reduced generators of abelian A with their prefix chains."""

    def __init__(self, A: PermGroup):
        self.gens = A.reduced_generators()
        self.inverses = [g.inverse() for g in self.gens]
        self.prefixes = [StabilizerChain(A.degree, self.gens[:i]) for i in range(len(self.gens))]
        sizes = [chain.order() for chain in self.prefixes] + [A.order]
        self.relative = [sizes[i + 1] // sizes[i] for i in range(len(self.gens))]

    def exponents(self, x: Permutation) -> list[int]:
        """The w with x = g_1^w_1 ... g_r^w_r and 0 <= w_i < e_i, for x in
        A: g_r, then g_(r-1), ... is peeled off until x is in the prefix."""
        w = [0] * len(self.gens)
        for i in reversed(range(len(w))):
            for c in range(self.relative[i]):
                if self.prefixes[i].contains(x):
                    w[i] = c
                    break
                x = x * self.inverses[i]
            else:
                raise InternalError("sift left the prefix subgroups; is the group abelian?")
        return w


def _smith_basis(A: PermGroup):
    """(sequence, coordinate rows, basis, orders) for abelian A.

    The columns of the relation matrix span the kernel of Z^r -> A; with
    U * columns * V = D, row i of U maps an exponent vector to the
    coordinate of basis[i], whose order is the diagonal entry d_i.
    """
    seq = _PolycyclicSequence(A)
    r = len(seq.gens)
    relations = []
    for i, (g, e) in enumerate(zip(seq.gens, seq.relative)):
        rel = [-c for c in seq.exponents(g**e)]
        rel[i] = e
        relations.append(rel)
    columns = [[rel[i] for rel in relations] for i in range(r)]
    D, U, Uinv, _, _ = smith_normal_form(columns)
    coordinates, basis, orders = [], [], []
    for i, d in enumerate(diagonal_of(D)):
        if d == 1:
            continue
        b = A.identity
        for k in range(r):
            b = b * seq.gens[k] ** Uinv[k][i]
        coordinates.append(U[i])
        basis.append(b)
        orders.append(d)
    return seq, coordinates, basis, orders


def abelian_group_basis(A: PermGroup):
    """Independent generators with orders d_1 | d_2 | ... for abelian A,
    from the Smith form of the r power relations of its reduced generators."""
    _, _, basis, orders = _smith_basis(A)
    return basis, orders


class GModule:
    """An abelian normal subgroup of `ambient` with conjugation as the action."""

    def __init__(self, ambient: PermGroup, carrier: PermGroup, acting_gens=None):
        gens = carrier.reduced_generators()
        for a in gens:
            for b in gens:
                if a * b != b * a:
                    raise PreconditionError("carrier is not abelian")
        if not is_normal(ambient, carrier):
            raise PreconditionError("carrier is not normal in the ambient group")
        self.ambient = ambient
        self.carrier = carrier
        self.acting_gens = tuple(acting_gens) if acting_gens is not None else ambient.generators
        for g in self.acting_gens:
            if g not in ambient:
                raise PreconditionError("acting element outside the ambient group")
        self._sequence, self._coordinates, self.basis, self.orders = _smith_basis(carrier)
        self.rank = len(self.basis)
        self.matrices = [self.matrix_for(g) for g in self.acting_gens]

    def encode(self, x: Permutation) -> tuple[int, ...]:
        if x not in self.carrier:
            raise PreconditionError("element is not in the carrier")
        w = self._sequence.exponents(x)
        return tuple(
            sum(u * c for u, c in zip(row, w)) % d
            for row, d in zip(self._coordinates, self.orders)
        )

    def decode(self, coords) -> Permutation:
        x = self.carrier.identity
        for b, c in zip(self.basis, coords):
            x = x * b**c
        return x

    def matrix_for(self, g: Permutation) -> list[list[int]]:
        """Row i is the coordinate vector of basis[i] conjugated by g."""
        return [list(self.encode(b.conjugate(g))) for b in self.basis]

    def reduce(self, coords) -> tuple[int, ...]:
        return tuple(c % d for c, d in zip(coords, self.orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, u, v) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(u, v, self.orders))

    def neg(self, u) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(u, self.orders))

    def apply_matrix(self, v, matrix) -> tuple[int, ...]:
        return tuple(
            sum(v[i] * matrix[i][j] for i in range(self.rank)) % self.orders[j]
            for j in range(self.rank)
        )

    def augment(self, v, matrix) -> tuple[int, ...]:
        """v * (T - 1), the coordinate form of the commutator [v, g]."""
        return self.add(self.apply_matrix(v, matrix), self.neg(v))


def _order_rows(M: GModule) -> list[list[int]]:
    """The rows d_i e_i, which span the coordinate vectors of the identity."""
    return [[d * e for e in row] for d, row in zip(M.orders, identity_matrix(M.rank))]


class Submodule:
    """A subgroup of the carrier closed under the declared action: the
    lattice spanned by its generators and the order rows."""

    __slots__ = ("module", "generators")

    def __init__(self, module: GModule, generators: tuple[tuple[int, ...], ...]):
        self.module = module
        self.generators = generators

    @property
    def rows(self) -> list[list[int]]:
        return [list(v) for v in self.generators] + _order_rows(self.module)

    @property
    def size(self) -> int:
        """|A| over the lattice's index in Z^rank, its Smith diagonal's product."""
        D = smith_normal_form(self.rows)[0]
        return math.prod(self.module.orders) // math.prod(diagonal_of(D))

    def contains(self, coords) -> bool:
        return solve_left(self.rows, list(coords)) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Submodule)
            and self.module is other.module
            and all(other.contains(v) for v in self.generators)
            and all(self.contains(v) for v in other.generators)
        )


def _acting_matrices(M: GModule, acting_gens) -> list[list[list[int]]]:
    acting = M.acting_gens if acting_gens is None else tuple(acting_gens)
    if acting == M.acting_gens:
        return M.matrices
    return [M.matrix_for(g) for g in acting]


def _augmentation_rows(vectors, matrices) -> list[list[int]]:
    """The rows v(T - 1) over Z, for each T and then each v.  When the v
    span a submodule V over Z, these rows with the order rows span
    [V, <acting>], since a(gh - 1) = (ag)(h - 1) + a(g - 1)."""
    return [
        [sum(c * t[j] for c, t in zip(v, T)) - v[j] for j in range(len(v))]
        for T in matrices
        for v in vectors
    ]


def close_submodule(module: GModule, seed_vectors, matrices) -> Submodule:
    """Smallest action-closed subgroup containing the seeds.

    A seed or an image row * T outside the lattice so far joins its
    generators, until the image of every generator is contained.
    """
    gens = []
    rows = _order_rows(module)

    def join(v):
        if solve_left(rows, list(v)) is None:
            gens.append(v)
            rows.append(list(v))

    for v in seed_vectors:
        join(module.reduce(v))
    for v in gens:  # walks the generators that join on the way too
        for T in matrices:
            join(module.apply_matrix(v, T))
    return Submodule(module, tuple(gens))


def augmentation_submodule(M: GModule, acting_gens=None) -> Submodule:
    """The span of all basis(g - 1), closed under the action: [A, <acting>]."""
    mats = _acting_matrices(M, acting_gens)
    return close_submodule(M, _augmentation_rows(identity_matrix(M.rank), mats), mats)


def submodule_generated(
    M: GModule, elements, apply_augmentation: bool = False, acting_gens=None
) -> Submodule:
    """Action closure of the given carrier elements, optionally of their
    images under every g - 1 first."""
    mats = _acting_matrices(M, acting_gens)
    vecs = [M.encode(x) for x in elements]
    if apply_augmentation:
        vecs = _augmentation_rows(vecs, mats)
    return close_submodule(M, vecs, mats)


def is_perfect_module(V: Submodule, acting_gens=None) -> bool:
    """True iff V equals its own augmentation submodule."""
    mats = _acting_matrices(V.module, acting_gens)
    return close_submodule(V.module, _augmentation_rows(V.generators, mats), mats) == V


def solve_commutator_decomposition(
    M: GModule, acting_gens, target: Permutation
) -> list[Permutation]:
    """Elements q_l of the carrier with prod_l [q_l, a_l] = target.

    Solved as the integer linear system sum_l q_l (T_l - 1) = target over
    the basis orders; the result is verified by direct group arithmetic.
    """
    acting = tuple(acting_gens)
    mats = _acting_matrices(M, acting)
    rows = _augmentation_rows(identity_matrix(M.rank), mats) + _order_rows(M)
    # No solution means the target lies outside [A, <acting>].
    x = solve_left(rows, list(M.encode(target)))
    if x is None:
        raise PreconditionError(
            "target is outside the augmentation submodule of the acting tuple"
        )
    s = M.rank
    result = [M.decode(M.reduce(x[l * s:(l + 1) * s])) for l in range(len(acting))]
    check = M.carrier.identity
    for q, a in zip(result, acting):
        check = check * commutator(q, a)
    if check != target:
        raise InternalError("commutator decomposition failed verification")
    return result
