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
lattice, whose Smith form maps exponent vectors to basis coordinates.
Solving prod_l [q_l, a_l] = target is then one integer linear solve
against the rows basis(T_l - 1) and the order rows (Holt-Eick-O'Brien,
*Handbook of Computational Group Theory*, 2005, ch. 8 and 9).  The
submodule [A, G] itself is computed on groups, by `commutator_subgroup`.
"""

from __future__ import annotations

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
    D, U, Uinv, _ = smith_normal_form(columns)
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


def _order_rows(M: GModule) -> list[list[int]]:
    """The rows d_i e_i, which span the coordinate vectors of the identity."""
    return [[d * e for e in row] for d, row in zip(M.orders, identity_matrix(M.rank))]


def _augmentation_rows(vectors, matrices) -> list[list[int]]:
    """The rows v(T - 1) over Z, for each T and then each v.  When the v
    span a submodule V over Z, these rows with the order rows span
    [V, <acting>], since a(gh - 1) = (ag)(h - 1) + a(g - 1)."""
    return [
        [sum(c * t[j] for c, t in zip(v, T)) - v[j] for j in range(len(v))]
        for T in matrices
        for v in vectors
    ]


def solve_commutator_decomposition(
    M: GModule, acting_gens, target: Permutation
) -> list[Permutation]:
    """Elements q_l of the carrier with prod_l [q_l, a_l] = target.

    Solved as the integer linear system sum_l q_l (T_l - 1) = target over
    the basis orders; the result is verified by direct group arithmetic.
    """
    acting = tuple(acting_gens)
    mats = M.matrices if acting == M.acting_gens else [M.matrix_for(g) for g in acting]
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
