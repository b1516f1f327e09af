"""Abelian normal subgroups as modules for the conjugation action.

The multiplicative/additive boundary is encode/decode: an abelian normal
subgroup A of G gets an independent basis with orders from the Smith form
of its relation lattice, elements become coordinate vectors, and each
acting element of G becomes an integer matrix.  Under this identification
a(g - 1) is the commutator [a, g], so all commutator bookkeeping here is
plain linear algebra over the basis orders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalError, PreconditionError
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    is_normal,
)
from .perms import Permutation, commutator
from .snf import diagonal_of, smith_normal_form, solve_left


def abelian_group_basis(A: PermGroup, cap: int = ENUMERATION_CAP):
    """Independent generators with orders d_1 | d_2 | ... for abelian A.

    Derived from the Smith normal form of the relation lattice of a
    generating set, with relations harvested from the non-tree edges of a
    breadth-first scan plus the generator orders.
    """
    gens = [g for g in A.reduced_generators() if not g.is_identity()]
    if not gens:
        return [], []
    r = len(gens)
    zero = (0,) * r
    vectors = {A.identity: zero}
    relations = []
    queue = deque([A.identity])
    while queue:
        x = queue.popleft()
        vx = vectors[x]
        for i, g in enumerate(gens):
            y = x * g
            step = tuple(v + (1 if j == i else 0) for j, v in enumerate(vx))
            vy = vectors.get(y)
            if vy is None:
                vectors[y] = step
                queue.append(y)
            else:
                rel = tuple(a - b for a, b in zip(step, vy))
                if any(rel):
                    relations.append(list(rel))
    if len(vectors) != A.order:
        raise InternalError("abelian scan missed elements; is the group abelian?")
    for i, g in enumerate(gens):
        relations.append([g.order() if j == i else 0 for j in range(r)])
    # Columns of the relation matrix span the kernel of Z^r -> A.
    columns = [[rel[i] for rel in relations] for i in range(r)]
    D, _, Uinv, _, _ = smith_normal_form(columns)
    orders = diagonal_of(D)
    basis = []
    basis_orders = []
    for i in range(r):
        d = orders[i] if i < len(orders) else 0
        if d == 0:
            raise InternalError("relation lattice is not full rank")
        if d == 1:
            continue
        b = A.identity
        for k in range(r):
            b = b * gens[k] ** Uinv[k][i]
        basis.append(b)
        basis_orders.append(d)
    check = 1
    for d in basis_orders:
        check *= d
    if check != A.order:
        raise InternalError("basis orders do not multiply to the group order")
    for b, d in zip(basis, basis_orders):
        if b.order() != d:
            raise InternalError("basis element order mismatch")
    return basis, basis_orders


class GModule:
    """An abelian normal subgroup of `ambient` with conjugation as the action."""

    def __init__(
        self,
        ambient: PermGroup,
        carrier: PermGroup,
        acting_gens=None,
        cap: int = ENUMERATION_CAP,
    ):
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
        self.basis, self.orders = abelian_group_basis(carrier, cap)
        self.rank = len(self.basis)
        self._encode: dict[Permutation, tuple[int, ...]] = {}
        for coords in _coordinate_space(self.orders):
            element = self.decode(coords)
            if element in self._encode:
                raise InternalError("coordinate map is not injective")
            self._encode[element] = coords
        if len(self._encode) != carrier.order:
            raise InternalError("coordinate map is not surjective")
        self.matrices = [self.matrix_for(g) for g in self.acting_gens]

    def encode(self, x: Permutation) -> tuple[int, ...]:
        try:
            return self._encode[x]
        except KeyError:
            raise PreconditionError("element is not in the carrier") from None

    def decode(self, coords) -> Permutation:
        x = self.carrier.identity
        for b, c in zip(self.basis, coords):
            x = x * b**c
        return x

    def matrix_for(self, g: Permutation) -> list[list[int]]:
        """Row i is the coordinate vector of basis[i] conjugated by g."""
        rows = []
        for b, d in zip(self.basis, self.orders):
            image = b.conjugate(g)
            coords = self.encode(image)
            if image.order() != d:
                raise InternalError("action does not preserve basis orders")
            rows.append(list(coords))
        matrix = rows
        images = {self.apply_matrix(v, matrix) for v in _coordinate_space(self.orders)}
        if len(images) != self.carrier.order:
            raise InternalError("action matrix is not invertible modulo the orders")
        return matrix

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


def _coordinate_space(orders):
    if not orders:
        yield ()
        return
    head, *tail = orders
    for rest in _coordinate_space(tail):
        for c in range(head):
            yield (c,) + rest


@dataclass(frozen=True)
class Submodule:
    """A subgroup of the carrier closed under the declared action."""

    module: GModule
    generators: tuple[tuple[int, ...], ...]
    elements: frozenset

    @property
    def size(self) -> int:
        return len(self.elements)

    def contains(self, coords) -> bool:
        return tuple(coords) in self.elements


def _additive_closure(module: GModule, gens) -> set:
    closed = {module.zero()}
    queue = deque([module.zero()])
    while queue:
        v = queue.popleft()
        for g in gens:
            w = module.add(v, g)
            if w not in closed:
                closed.add(w)
                queue.append(w)
    return closed


def close_submodule(module: GModule, seed_vectors, matrices) -> Submodule:
    """Smallest action-closed subgroup containing the seeds."""
    gens = []
    seen = set()
    for v in seed_vectors:
        v = module.reduce(v)
        if any(v) and v not in seen:
            seen.add(v)
            gens.append(v)
    while True:
        elements = _additive_closure(module, gens)
        new = []
        for g in gens:
            for T in matrices:
                img = module.apply_matrix(g, T)
                if img not in elements and img not in seen:
                    seen.add(img)
                    new.append(img)
        if not new:
            return Submodule(module, tuple(gens), frozenset(elements))
        gens.extend(new)


def augmentation_submodule(M: GModule, acting_gens=None) -> Submodule:
    """The span of all basis(g - 1), closed under the action: [A, <acting>]."""
    acting = tuple(acting_gens) if acting_gens is not None else M.acting_gens
    mats = [M.matrix_for(g) for g in acting]
    seeds = []
    for i in range(M.rank):
        e = tuple(1 if j == i else 0 for j in range(M.rank))
        for T in mats:
            seeds.append(M.augment(e, T))
    return close_submodule(M, seeds, mats)


def submodule_generated(
    M: GModule, elements, apply_augmentation: bool = False, acting_gens=None
) -> Submodule:
    """Action closure of the given carrier elements, optionally of their
    images under every g - 1 first."""
    acting = tuple(acting_gens) if acting_gens is not None else M.acting_gens
    mats = [M.matrix_for(g) for g in acting]
    vecs = [M.encode(x) for x in elements]
    if apply_augmentation:
        vecs = [M.augment(v, T) for v in vecs for T in mats]
    return close_submodule(M, vecs, mats)


def is_perfect_module(V: Submodule, acting_gens=None) -> bool:
    """True iff V equals its own augmentation submodule."""
    M = V.module
    acting = tuple(acting_gens) if acting_gens is not None else M.acting_gens
    mats = [M.matrix_for(g) for g in acting]
    seeds = [M.augment(v, T) for v in V.generators for T in mats]
    return close_submodule(M, seeds, mats).elements == V.elements


def solve_commutator_decomposition(
    M: GModule, acting_gens, target: Permutation
) -> list[Permutation]:
    """Elements q_l of the carrier with prod_l [q_l, a_l] = target.

    Solved as the integer linear system sum_l q_l (T_l - 1) = target over
    the basis orders; the result is verified by direct group arithmetic.
    """
    acting = tuple(acting_gens)
    if M.rank == 0:
        if not target.is_identity():
            raise PreconditionError("nontrivial target in a trivial module")
        return [M.carrier.identity for _ in acting]
    mats = [M.matrix_for(g) for g in acting]
    t = M.encode(target)
    if not augmentation_submodule(M, acting).contains(t):
        raise PreconditionError(
            "target is outside the augmentation submodule of the acting tuple"
        )
    s = M.rank
    rows = []
    for T in mats:
        for i in range(s):
            rows.append([T[i][j] - (1 if i == j else 0) for j in range(s)])
    for j, d in enumerate(M.orders):
        rows.append([d if jj == j else 0 for jj in range(s)])
    x = solve_left(rows, list(t))
    if x is None:
        raise InternalError("linear solve failed although membership holds")
    result = []
    for l in range(len(acting)):
        coords = M.reduce(x[l * s:(l + 1) * s])
        result.append(M.decode(coords))
    check = M.carrier.identity
    for q, a in zip(result, acting):
        check = check * commutator(q, a)
    if check != target:
        raise InternalError("commutator decomposition failed verification")
    return result
