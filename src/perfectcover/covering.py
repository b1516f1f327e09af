"""Conjugacy-class product arithmetic in small simple groups.

Normal subsets are unions of conjugacy classes, so covering numbers and
the layers of a cover decomposition are computed on class numbers from one
class walk per group (`_ClassTable`): class k lies in P * Q iff z_k q^-1
lies in P for some q in Q, z_k the representative of k (Arad-Herzog,
*Products of Conjugacy Classes in Groups*, LNM 1112, 1985).  Decompositions
into products of conjugates of given generators follow back-pointers
through those layers.  The cover provider builds, for a finite list of
simple groups, a bounded tuple of elements of their direct product
generating a perfect subgroup that surjects onto every factor.

Element loops run on raw images through `perms.kernel`, and a
`Permutation` is built only for what a function returns.  `product_set`
multiplies element sets, for callers and tests that need the elements.
"""

from __future__ import annotations

import random

from .errors import InputError, InternalError, PreconditionError
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    StabilizerChain,
    conjugacy_class_of,
    conjugation_orbit_images,
    conjugation_orbits_images,
    derived_subgroup,
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
    """{x * y : x in X, y in Y}, element by element."""
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
    tables = [table(b) for b in Y]
    out = set()
    for a in X:
        out.update([compose(a, t) for t in tables])
        if len(out) > cap:
            raise PreconditionError("product set exceeded the cap")
    return frozenset(map(_wrap, out))


class _ClassTable:
    """The conjugacy classes of a group, from one class walk.

    `index` maps the images of each element to the number of its class and
    `members[k]` lists the images of class k in walk order; its first
    member z_k represents the class.  A normal subset is a union of
    classes, held as the frozenset of their numbers.
    """

    def __init__(self, S: PermGroup, cap: int = ENUMERATION_CAP):
        self.group = S
        self.index: dict = {}
        self.members: list[list] = []
        for k, orbit in enumerate(conjugation_orbits_images(S, cap)):
            self.index.update(dict.fromkeys(orbit, k))
            self.members.append(list(orbit))
        self._table, self._compose, self._invert = kernel(S.degree)
        self._inverse_tables: dict[int, list] = {}

    def number(self, x: Permutation) -> int:
        try:
            return self.index[x.images]
        except KeyError:
            raise PreconditionError("element is not in the group") from None

    def classes_of(self, X) -> frozenset:
        return frozenset(map(self.number, X))

    def size(self, K) -> int:
        return sum(len(self.members[k]) for k in K)

    def product(self, P, Q) -> frozenset:
        """The classes of P * Q: class k is in it iff z_k q^-1 is in P for
        some q in Q, so the cost is #classes x |Q| products at most."""
        tables = []
        for q in Q:
            t = self._inverse_tables.get(q)
            if t is None:
                t = self._inverse_tables[q] = [
                    self._table(self._invert(c)) for c in self.members[q]
                ]
            tables.extend(t)
        index, compose = self.index, self._compose
        return frozenset(
            k
            for k, cls in enumerate(self.members)
            if any(index[compose(cls[0], t)] in P for t in tables)
        )

    def layers(self, ks) -> list[frozenset]:
        """The classes of class(k_1) ... class(k_i) for i = 0, 1, ... along
        the class numbers ks, up to the first that is the whole group."""
        layers = [frozenset({self.index[self.group.identity.images]})]
        for k in ks:
            if len(layers[-1]) == len(self.members):
                break
            layers.append(self.product(layers[-1], {k}))
        return layers

    def power_sizes(self, K) -> tuple[int, ...]:
        """|X|, |X^2|, ... up to the first power of X, the union of the
        classes K, that is the whole group."""
        power = K
        sizes = [self.size(K)]
        while len(power) < len(self.members):
            if len(sizes) > self.group.order:
                raise InternalError("covering iteration failed to terminate")
            power = self.product(power, K)
            sizes.append(self.size(power))
        if sizes[-1] != self.group.order:
            raise InternalError("the classes do not partition the group")
        return tuple(sizes)


class CoveringCertificate:
    """Least e with X^e = S, plus the size trail that witnesses minimality."""

    __slots__ = ("group", "normal_set", "e", "power_sizes")

    def __init__(
        self, group: PermGroup, normal_set: frozenset, e: int, power_sizes: tuple[int, ...]
    ):
        self.group = group
        self.normal_set = normal_set
        self.e = e
        self.power_sizes = power_sizes

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
    """Least e with X^e = S, for a nontrivial normal subset X of simple S.

    X and its powers are unions of classes, so the powers are taken on
    class numbers and their sizes are sums of class sizes.
    """
    Xset = frozenset(X)
    if not is_simple_nonabelian(S, cap):
        raise PreconditionError("group is not simple nonabelian")
    classes = _ClassTable(S, cap)
    K = classes.classes_of(Xset)
    if classes.size(K) != len(Xset):
        raise PreconditionError("subset is not closed under conjugation")
    if not Xset or Xset == {S.identity}:
        raise PreconditionError("subset must contain a nonidentity element")
    sizes = classes.power_sizes(K)
    cert = CoveringCertificate(S, Xset, len(sizes), sizes)
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
    """Back-pointers through the products of the classes of m_1..m_g.

    Layer i is class(m_1) ... class(m_i), indices mod g; `layers[i]` holds
    its class numbers up to the first layer that is the whole group
    (`saturated_at`).  Layer i is ordered by the new products x * c, for x
    in layer i-1 in its order and c in m_i's `conjugation_orbit` order.  A
    back step from y takes the first x of layer i-1 with x^-1 y in
    class(m_i), and that orbit's conjugator for x^-1 y.  The orders are
    generated only as far as back steps read them, and an orbit is walked
    on first use.  Past saturation every x qualifies, so the step takes m_i
    itself with the identity conjugator, the first member of its orbit.
    """

    def __init__(self, classes: _ClassTable, gens, e: int):
        self.classes = classes
        self.S = classes.group
        self.gens = tuple(gens)
        self.e = e
        self.g = len(self.gens)
        self._table, self._compose, self._invert = kernel(self.S.degree)
        self._ident = self.S.identity.images
        self._class_of = [classes.number(m) for m in self.gens]
        self.layers = classes.layers(self._class_of[i % self.g] for i in range(e * self.g))
        full = len(self.layers[-1]) == len(classes.members)
        self.saturated_at = len(self.layers) - 1 if full else None
        self._orbits: dict[int, tuple[dict, list]] = {}
        # each layer's generated prefix, as a list and a set, and how many
        # elements of the layer below it has multiplied out
        self._orders = [[self._ident]] + [[] for _ in self.layers[1:]]
        self._seen = [set(order) for order in self._orders]
        self._taken = [0] * len(self.layers)

    def _orbit(self, j: int) -> tuple[dict, list]:
        """m_j's `conjugation_orbit_images` and its members' tables."""
        if j not in self._orbits:
            orbit = conjugation_orbit_images(self.S, self.gens[j])
            self._orbits[j] = orbit, list(map(self._table, orbit))
        return self._orbits[j]

    def _element(self, i: int, n: int):
        """The n-th element of layer i in its order, or None past its end."""
        order, seen = self._orders[i], self._seen[i]
        while len(order) <= n:
            x = self._element(i - 1, self._taken[i])
            if x is None:
                return None
            self._taken[i] += 1
            for t in self._orbit((i - 1) % self.g)[1]:
                y = self._compose(x, t)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        return order[n]

    def _back_step(self, i: int, y) -> tuple:
        """(layer i-1 factor, conjugator) of images y in layer i."""
        j = (i - 1) % self.g
        if self.saturated_at is not None and i > self.saturated_at:
            m_inverse = self._invert(self.gens[j].images)
            return self._compose(y, self._table(m_inverse)), self._ident
        y_table = self._table(y)
        index, want = self.classes.index, self._class_of[j]
        n = 0
        while (x := self._element(i - 1, n)) is not None:
            c = self._compose(self._invert(x), y_table)
            if index[c] == want:
                return x, self._orbit(j)[0][c]
            n += 1
        raise InternalError("back-pointer resolution failed")

    def decompose(self, target: Permutation) -> list[list[Permutation]]:
        """Conjugators r[t][j] with target = prod_t prod_j m_j ** r[t][j]."""
        cur = target.images
        if self.classes.index.get(cur) not in self.layers[-1]:
            raise PreconditionError(
                f"element is not a product of {self.e} rounds of the classes"
            )
        rows = [[self.S.identity] * self.g for _ in range(self.e)]
        for i in range(self.e * self.g, 0, -1):
            cur, r = self._back_step(i, cur)
            t, j = divmod(i - 1, self.g)
            rows[t][j] = _wrap(r)
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
    return _LayeredDecomposer(_ClassTable(S, cap), gens, e).decompose(target)


class SemisimpleCover:
    """A bounded generating tuple of a perfect subdirect subgroup of a
    product of simple groups."""

    __slots__ = ("product", "factors", "gens", "group", "full_product", "budget")

    def __init__(
        self,
        product: DirectProduct,
        factors: tuple[PermGroup, ...],
        gens: tuple[Permutation, ...],
        group: PermGroup,
        full_product: bool,
        budget: int,
    ):
        self.product = product
        self.factors = factors
        self.gens = gens
        self.group = group
        self.full_product = full_product
        self.budget = budget

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
