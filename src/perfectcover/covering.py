"""Conjugacy-class product arithmetic in small simple groups.

Normal subsets are unions of conjugacy classes, so covering numbers and
the layers of a cover decomposition (`_ClassTable.layers`, which also
takes the powers of a normal subset) are computed on class numbers from
the group's one class walk, which its lattice reads too: class k lies in
P * Q iff z_k q^-1 lies in P for some q in Q, z_k the representative of k
(Arad-Herzog, *Products of Conjugacy Classes in Groups*, LNM 1112, 1985).
Decompositions into products of conjugates of given generators follow
back-pointers through those layers and read their conjugators off the
same walk, so no generator's class is walked again.  `cover_tuples`
draws, for a list of simple groups, one generating tuple of each of a
common bounded length; the construction's T is generated by the
componentwise products of these tuples.

Element loops run on raw images through `perms.kernel`, and a
`Permutation` is built only for what a function returns.
"""

from __future__ import annotations

from itertools import repeat

from .errors import InternalError, PreconditionError
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    StabilizerChain,
    conjugacy_classes,
    generates,
    is_abelian,
)
from .perms import Permutation, kernel
from .products import DirectProduct
from .structure import normal_subgroups

_COVER_RETRIES = 64
_GENERATING_TUPLE_RETRIES = 512
_wrap = Permutation._trusted


def is_simple_nonabelian(S: PermGroup, cap: int = ENUMERATION_CAP) -> bool:
    if is_abelian(S) or S.order == 1:
        return False
    return len(normal_subgroups(S, cap)) == 2


class _ClassTable:
    """The conjugacy classes of a group, as its class walk lists them.

    `index` maps the images of each element to the number of its class.
    `members[k]` is class k's `conjugation_orbit_images`: it maps the images
    of each member, in walk order, to the images of a conjugator r with
    z_k ** r the member, where z_k, the first member, represents the class.
    A normal subset is a union of classes, held as the frozenset of their
    numbers.
    """

    def __init__(self, S: PermGroup, cap: int = ENUMERATION_CAP):
        self.group = S
        self.members: list[dict] = conjugacy_classes(S, cap)
        self.index = {y: k for k, orbit in enumerate(self.members) for y in orbit}
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

    def inverse_tables(self, k: int) -> list:
        """The tables of the inverses of class k's members, in walk order."""
        tables = self._inverse_tables.get(k)
        if tables is None:
            tables = self._inverse_tables[k] = [
                self._table(self._invert(c)) for c in self.members[k]
            ]
        return tables

    def product(self, P, Q) -> frozenset:
        """The classes of P * Q: class k is in it iff z_k q^-1 is in P for
        some q in Q, so the cost is #classes x |Q| products at most."""
        tables = [t for q in Q for t in self.inverse_tables(q)]
        index, compose = self.index, self._compose
        return frozenset(
            k
            for k, cls in enumerate(self.members)
            if any(index[compose(next(iter(cls)), t)] in P for t in tables)
        )

    def layers(self, Ks) -> list[frozenset]:
        """The classes of K_1 ... K_i for i = 0, 1, ... along the class
        number sets Ks, which may be endless, up to the first that is the
        whole group; in a simple group that takes fewer than |S| layers."""
        layers = [frozenset({self.index[self.group.identity.images]})]
        for K in Ks:
            if len(layers[-1]) == len(self.members):
                break
            if len(layers) > self.group.order:
                raise InternalError("covering iteration failed to terminate")
            layers.append(self.product(layers[-1], K))
        return layers


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

    X and its powers are unions of classes, so the powers are the layers
    along X, X, ... and their sizes are sums of class sizes.
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
    sizes = tuple(map(classes.size, classes.layers(repeat(K))[1:]))
    cert = CoveringCertificate(S, Xset, len(sizes), sizes)
    cert.check()
    return cert


class _LayeredDecomposer:
    """Back-pointers through the products of the classes of m_1..m_g.

    Layer i is class(m_1) ... class(m_i), indices mod g; `layers[i]` holds
    its class numbers up to the first layer that is the whole group, and
    every later layer is the whole group too.  A back step from y in layer
    i takes c = m_i, with the identity conjugator, when y c^-1 lies in
    layer i-1, and otherwise the first c of class(m_i), in the class
    table's walk order, with y c^-1 in layer i-1.  The walk gives
    m_i = z ** u and c = z ** r_c, so c = m_i ** (u^-1 r_c).  Past the last
    layer m_i always qualifies, so those conjugators are the identity.
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
        self._gen_inverses = [self._table(self._invert(m.images)) for m in self.gens]
        self.layers = classes.layers(
            frozenset({self._class_of[i % self.g]}) for i in range(e * self.g)
        )

    def _back_step(self, i: int, y) -> tuple:
        """(layer i-1 factor, conjugator) of images y in layer i."""
        j = (i - 1) % self.g
        index, compose = self.classes.index, self._compose
        below = self.layers[min(i - 1, len(self.layers) - 1)]
        x = compose(y, self._gen_inverses[j])
        if index[x] in below:
            return x, self._ident
        k = self._class_of[j]
        conjugators = self.classes.members[k]
        for (c, r), c_inverse in zip(conjugators.items(), self.classes.inverse_tables(k)):
            x = compose(y, c_inverse)
            if index[x] in below:
                u_inverse = self._invert(conjugators[self.gens[j].images])
                return x, compose(u_inverse, self._table(r))
        raise InternalError("back-pointer resolution failed")

    def decompose(self, target: Permutation) -> list[list[Permutation]]:
        """Conjugators r[t][j] with target = prod_t prod_j m_j ** r[t][j]."""
        cur = target.images
        number = self.classes.index.get(cur)
        if number is None:
            raise PreconditionError("element is not in the group")
        if number not in self.layers[-1]:
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


def sample_generating_tuple(M: PermGroup, size: int, rng) -> list[Permutation]:
    """A seeded random generating tuple of the given size."""
    for _ in range(_GENERATING_TUPLE_RETRIES):
        tup = [M.sample(rng) for _ in range(size)]
        if generates(M, tup):
            return tup
    raise PreconditionError(
        f"failed to generate the group with tuples of size {size}"
    )


def cover_tuples(factors, budget: int, rng) -> list[list[Permutation]]:
    """Per-factor generating tuples of size `budget`, retried so that the
    corresponding diagonal subgroup is the full product when possible.
    Each tuple lies in its factor, so the product's order bounds the
    diagonal's chain."""
    factors = list(factors)
    prod = DirectProduct(factors)
    full_order = 1
    for M in factors:
        full_order *= M.order
    for _ in range(_COVER_RETRIES):
        tuples = [sample_generating_tuple(M, budget, rng) for M in factors]
        gens = [
            prod.element({i: tuples[i][c] for i in range(len(factors))})
            for c in range(budget)
        ]
        if StabilizerChain(prod.degree, gens, full_order).order() == full_order:
            return tuples
    return tuples
