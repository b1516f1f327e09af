"""Conjugacy-class product arithmetic in small simple groups.

Covering numbers are computed exactly by iterating set products of normal
subsets; element decompositions into products of conjugates of given
generators come from layered product sets with back-pointers.  The cover
provider builds, for a finite list of simple groups, a bounded tuple of
elements of their direct product generating a perfect subgroup that surjects onto every
factor.

Like the chain in `groups`, the product loops run on raw images through
`perms.kernel`: set products, the power sets of a covering number and the
decomposer's layers hold images, and each element's right-operand table is
computed once and shared by every product it is the right operand of.  A
`Permutation` is built only for what a function returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InputError, InternalError, PreconditionError
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    StabilizerChain,
    conjugacy_class_of,
    conjugation_orbit_images,
    derived_subgroup,
    enumerate_elements,
    is_abelian,
)
from .perms import Permutation, kernel
from .products import DirectProduct
from .structure import normal_subgroups

_COVER_BUDGET_MAX = 61
_COVER_RETRIES = 64
_GENERATING_TUPLE_RETRIES = 512
_wrap = Permutation._trusted


def is_simple_nonabelian(S: PermGroup, cap: int = ENUMERATION_CAP) -> bool:
    if is_abelian(S) or S.order == 1:
        return False
    return len(normal_subgroups(S, cap)) == 2


def product_set(X, Y, cap: int = ENUMERATION_CAP) -> frozenset:
    """{x * y : x in X, y in Y}."""
    X = [x.images for x in X]
    Y = [y.images for y in Y]
    if len(X) * len(Y) > cap * 64:
        raise PreconditionError("product set computation over the cap")
    if not X or not Y:
        return frozenset()
    degree = len(X[0])
    if any(len(a) != degree for a in X) or any(len(b) != degree for b in Y):
        raise InputError("degree mismatch in product")
    table, compose, _ = kernel(degree)
    return frozenset(map(_wrap, _product_images(X, [table(b) for b in Y], compose, cap)))


def _product_images(X, tables, compose, cap: int) -> set:
    """The images of x * y for x in X (images) and y in Y (their tables)."""
    out = set()
    for a in X:
        out.update([compose(a, t) for t in tables])
        if len(out) > cap:
            raise PreconditionError("product set exceeded the cap")
    return out


def is_normal_subset(S: PermGroup, X, cap: int = ENUMERATION_CAP) -> bool:
    Xset = frozenset(X)
    return all(x.conjugate(g) in Xset for x in Xset for g in S.reduced_generators())


@dataclass(frozen=True)
class CoveringCertificate:
    """Least e with X^e = S, plus the size trail that witnesses minimality."""

    group: PermGroup
    normal_set: frozenset
    e: int
    power_sizes: tuple[int, ...]

    def check(self) -> None:
        if self.power_sizes[-1] != self.group.order:
            raise InternalError("final power does not cover the group")
        if self.e > 1 and self.power_sizes[-2] == self.group.order:
            raise InternalError("covering number is not minimal")
        # counting bound: |S| <= |X|^e
        if len(self.normal_set) ** self.e < self.group.order:
            raise InternalError("covering certificate violates the counting bound")


def covering_number(
    S: PermGroup, X, cap: int = ENUMERATION_CAP
) -> CoveringCertificate:
    """Least e with X^e = S, for a nontrivial normal subset X of simple S."""
    Xset = frozenset(X)
    if not is_simple_nonabelian(S, cap):
        raise PreconditionError("group is not simple nonabelian")
    if not all(x in S for x in Xset):
        raise PreconditionError("subset is not contained in the group")
    if not is_normal_subset(S, Xset, cap):
        raise PreconditionError("subset is not closed under conjugation")
    if not Xset or Xset == {S.identity}:
        raise PreconditionError("subset must contain a nonidentity element")
    table, compose, _ = kernel(S.degree)
    x_tables = [table(x.images) for x in Xset]
    all_elements = {g.images for g in enumerate_elements(S, cap)}
    power = {x.images for x in Xset}
    sizes = [len(power)]
    e = 1
    while power != all_elements:
        if e > S.order:
            raise InternalError("covering iteration failed to terminate")
        power = _product_images(power, x_tables, compose, cap)
        sizes.append(len(power))
        e += 1
    cert = CoveringCertificate(S, Xset, e, tuple(sizes))
    cert.check()
    return cert


def pick_small_centralizer_gen(
    S: PermGroup, gens, cap: int = ENUMERATION_CAP
) -> int:
    """Index of a generator with minimal centralizer order.

    For a generating t-tuple of a simple group the selected generator always
    satisfies |C(m)|^t <= |S|^(t-1): the centralizers of a generating set
    intersect in the trivial center, so they cannot all have small index.
    """
    gens = tuple(gens)
    if not gens:
        raise PreconditionError("empty generating tuple")
    if StabilizerChain(S.degree, gens).order() != S.order:
        raise PreconditionError("tuple does not generate the group")
    if not is_simple_nonabelian(S, cap):
        raise PreconditionError("group is not simple nonabelian")
    orders = []
    for m in gens:
        cls = conjugacy_class_of(S, m)
        if S.order % len(cls):
            raise InternalError("class size does not divide the group order")
        orders.append(S.order // len(cls))
    best = min(range(len(gens)), key=lambda i: (orders[i], i))
    t = len(gens)
    if orders[best] ** t > S.order ** (t - 1):
        raise InternalError(
            "pigeonhole bound failed for a generating tuple; this contradicts "
            "the trivial center of a simple group"
        )
    return best


class _LayeredDecomposer:
    """Product-set layers of the classes of m_1..m_g, with back-pointers.

    Layer i is the set of products c_1 ... c_i with c_k in class(m_{k mod g}).
    Once a layer saturates to the whole group, later layers are not stored;
    their back-pointers are resolved on demand.

    Layers, classes and the keys of `conjugators` are raw images: layer i
    maps the images of each product to (images of its layer i-1 factor,
    images of its class member).  An element's right-operand table, and in
    `_back_step` its inverse's, is computed once and shared by every class
    it belongs to.
    """

    def __init__(self, S: PermGroup, gens, e: int, cap: int = ENUMERATION_CAP):
        self.S = S
        self.gens = tuple(gens)
        self.e = e
        self.g = len(self.gens)
        self._table, self._compose, self._invert = kernel(S.degree)
        self._tables: dict = {}
        self._inverse_tables: dict = {}
        self._ident = S.identity.images
        self.classes: list[list] = []
        self.conjugators: list[dict] = []
        for m in self.gens:
            cls_map = conjugation_orbit_images(S, m)
            self.classes.append(list(cls_map))
            self.conjugators.append(cls_map)
        self.all_elements = {x.images for x in enumerate_elements(S, cap)}
        total = e * self.g
        self.layers: list[dict] = [{self._ident: None}]
        self.saturated_at: int | None = None
        compose = self._compose
        for i in range(1, total + 1):
            if self.saturated_at is not None:
                break
            prev = self.layers[i - 1]
            cls = [(c, self._table_of(c)) for c in self.classes[(i - 1) % self.g]]
            layer: dict = {}
            for x in prev:
                for c, c_table in cls:
                    y = compose(x, c_table)
                    if y not in layer:
                        layer[y] = (x, c)
            self.layers.append(layer)
            if len(layer) == S.order:
                self.saturated_at = i

    def _table_of(self, c):
        t = self._tables.get(c)
        if t is None:
            t = self._tables[c] = self._table(c)
        return t

    def _layer_contains(self, i: int, x) -> bool:
        if self.saturated_at is not None and i >= self.saturated_at:
            return x in self.all_elements
        return x in self.layers[i]

    def _back_step(self, i: int, x) -> tuple:
        """(layer i-1 factor, class member) of images x in layer i."""
        if self.saturated_at is None or i < len(self.layers):
            entry = self.layers[i].get(x)
            if entry is not None:
                return entry
        inverse_tables = self._inverse_tables
        for c in self.classes[(i - 1) % self.g]:
            c_inv = inverse_tables.get(c)
            if c_inv is None:
                c_inv = inverse_tables[c] = self._table(self._invert(c))
            prev = self._compose(x, c_inv)
            if self._layer_contains(i - 1, prev):
                return prev, c
        raise InternalError("back-pointer resolution failed")

    def decompose(self, target: Permutation) -> list[list[Permutation]]:
        """Conjugators r[t][j] with target = prod_t prod_j m_j ** r[t][j]."""
        total = self.e * self.g
        cur = target.images
        if not self._layer_contains(total, cur):
            raise PreconditionError(
                f"element is not a product of {self.e} rounds of the classes"
            )
        rows = [[self.S.identity] * self.g for _ in range(self.e)]
        for i in range(total, 0, -1):
            prev, used = self._back_step(i, cur)
            t, j = divmod(i - 1, self.g)
            rows[t][j] = _wrap(self.conjugators[j][used])
            cur = prev
        if cur != self._ident:
            raise InternalError("back-walk did not reach the identity")
        check = self.S.identity
        for t in range(self.e):
            for j in range(self.g):
                check = check * self.gens[j].conjugate(rows[t][j])
        if check != target:
            raise InternalError("decomposition failed verification")
        return rows


def decompose_conjugate_product(
    S: PermGroup,
    target: Permutation,
    gens,
    e: int,
    cap: int = ENUMERATION_CAP,
) -> list[list[Permutation]]:
    """Conjugators r[t][j] with target = prod_{t<=e} prod_j m_j ** r[t][j]."""
    return _LayeredDecomposer(S, gens, e, cap).decompose(target)


@dataclass(frozen=True)
class SemisimpleCover:
    """A bounded generating tuple of a perfect subdirect subgroup of a
    product of simple groups."""

    product: DirectProduct
    factors: tuple[PermGroup, ...]
    gens: tuple[Permutation, ...]
    group: PermGroup = field(repr=False)
    full_product: bool
    budget: int

    def factor_tuple(self, i: int) -> list[Permutation]:
        return [self.product.project(g, i) for g in self.gens]


def sample_generating_tuple(M: PermGroup, size: int, rng) -> list[Permutation]:
    """A seeded random generating tuple of the given size."""
    for _ in range(_GENERATING_TUPLE_RETRIES):
        tup = [M.sample(rng) for _ in range(size)]
        if StabilizerChain(M.degree, tup).order() == M.order:
            return tup
    raise PreconditionError(
        f"failed to generate the group with tuples of size {size}"
    )


def cover_tuples(factors, budget: int, rng, cap: int = ENUMERATION_CAP):
    """Per-factor generating tuples of size `budget`, retried so that the
    corresponding diagonal subgroup is the full product when possible.

    Returns (tuples, full_product_flag).
    """
    factors = list(factors)
    full_order = 1
    for M in factors:
        full_order *= M.order
    for attempt in range(_COVER_RETRIES):
        tuples = [sample_generating_tuple(M, budget, rng) for M in factors]
        if len(factors) == 1:
            return tuples, True
        prod = DirectProduct(factors)
        gens = [
            prod.element({i: tuples[i][c] for i in range(len(factors))})
            for c in range(budget)
        ]
        if StabilizerChain(prod.degree, gens).order() == full_order:
            return tuples, True
    return tuples, False


def semisimple_cover(
    factors, budget: int = _COVER_BUDGET_MAX, seed: int = 0, cap: int = ENUMERATION_CAP
) -> SemisimpleCover:
    """Generators of a perfect subgroup of the product surjecting onto
    every simple factor, using at most `budget` generators."""
    factors = tuple(factors)
    if not factors:
        raise PreconditionError("need at least one factor")
    if not 1 <= budget <= _COVER_BUDGET_MAX:
        raise PreconditionError(f"budget must be between 1 and {_COVER_BUDGET_MAX}")
    for M in factors:
        if not is_simple_nonabelian(M, cap):
            raise PreconditionError("every factor must be simple nonabelian")
    if budget < 2:
        raise PreconditionError("a simple nonabelian factor needs at least 2 generators")
    rng = random.Random(seed)
    tuples, full = cover_tuples(factors, budget, rng, cap)
    prod = DirectProduct(factors)
    gens = tuple(
        prod.element({i: tuples[i][c] for i in range(len(factors))})
        for c in range(budget)
    )
    group = prod.subgroup(gens)
    for i, M in enumerate(factors):
        if prod.projection_of(group, i).order != M.order:
            raise InternalError("cover projection is not surjective")
    if derived_subgroup(group).order != group.order:
        raise InternalError("cover subgroup is not perfect")
    return SemisimpleCover(prod, factors, gens, group, full, budget)
