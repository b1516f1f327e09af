"""Direct products of permutation groups on the disjoint union of their domains.

A product element is stored sparsely as a map from factor index to that
factor's component; missing indices mean the identity.  Flattening embeds
the tuple as a single permutation of the combined domain, which lets the
stabilizer-chain kernel work on subgroups of products unchanged.
"""

from __future__ import annotations

from .errors import InputError
from .groups import PermGroup
from .perms import Permutation, commutator


class DirectProduct:
    """Context for a finite ordered list of factor groups."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise InputError("direct product needs at least one factor")
        self.factors = factors
        self.offsets = []
        total = 0
        for f in factors:
            self.offsets.append(total)
            total += f.degree
        self.degree = total

    def embed(self, j: int, p: Permutation) -> Permutation:
        """The factor-j element p as a permutation of the combined domain."""
        if p.degree != self.factors[j].degree:
            raise InputError("component degree mismatch")
        images = list(range(self.degree))
        off = self.offsets[j]
        for i, im in enumerate(p.images):
            images[off + i] = off + im
        return Permutation(images)

    def project(self, g: Permutation, j: int) -> Permutation:
        """Component of a block-preserving permutation in factor j."""
        off = self.offsets[j]
        deg = self.factors[j].degree
        block = g.images[off:off + deg]
        if any(not off <= im < off + deg for im in block):
            raise InputError("permutation does not preserve the factor blocks")
        return Permutation(tuple(im - off for im in block))

    def element(self, components: dict[int, Permutation]) -> ProductElement:
        return ProductElement(self, components)

    def identity_element(self) -> ProductElement:
        return ProductElement(self, {})

    def from_flat(self, g: Permutation) -> ProductElement:
        comps = {}
        for j in range(len(self.factors)):
            p = self.project(g, j)
            if not p.is_identity():
                comps[j] = p
        return ProductElement(self, comps)

    def subgroup(self, elements) -> PermGroup:
        """Group generated by product elements, on the combined domain."""
        gens = [e.flat() if isinstance(e, ProductElement) else e for e in elements]
        return PermGroup(self.degree, gens)

    def full_group(self) -> PermGroup:
        gens = []
        for j, f in enumerate(self.factors):
            gens.extend(self.embed(j, g) for g in f.generators)
        return PermGroup(self.degree, gens)

    def projection_of(self, H: PermGroup, j: int) -> PermGroup:
        """Image of a subgroup of the product in factor j."""
        return PermGroup(
            self.factors[j].degree,
            [self.project(g, j) for g in H.generators],
        )


class ProductElement:
    """Sparse tuple over the factors of a DirectProduct."""

    __slots__ = ("product", "components")

    def __init__(self, product: DirectProduct, components: dict[int, Permutation]):
        comps = {}
        for j, p in components.items():
            if not 0 <= j < len(product.factors):
                raise InputError(f"no factor with index {j}")
            if p.degree != product.factors[j].degree:
                raise InputError("component degree mismatch")
            if not p.is_identity():
                comps[j] = p
        self.product = product
        self.components = comps

    def component(self, j: int) -> Permutation:
        p = self.components.get(j)
        if p is None:
            return Permutation.identity(self.product.factors[j].degree)
        return p

    def __mul__(self, other: ProductElement) -> ProductElement:
        comps = {}
        for j in set(self.components) | set(other.components):
            comps[j] = self.component(j) * other.component(j)
        return ProductElement(self.product, comps)

    def inverse(self) -> ProductElement:
        return ProductElement(
            self.product, {j: p.inverse() for j, p in self.components.items()}
        )

    def conjugate(self, by: ProductElement) -> ProductElement:
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return not self.components

    def flat(self) -> Permutation:
        images = list(range(self.product.degree))
        for j, p in self.components.items():
            off = self.product.offsets[j]
            for i, im in enumerate(p.images):
                images[off + i] = off + im
        return Permutation(images)

    def __eq__(self, other):
        return (
            isinstance(other, ProductElement)
            and self.product is other.product
            and self.components == other.components
        )

    def __hash__(self):
        return hash(frozenset(self.components.items()))

    def __repr__(self):
        return f"ProductElement({self.components!r})"


# ----------------------------------------------------------------------
# The cover's generators from its witnesses.  Construction and verification
# both derive Delta, Q and T here, so which values exist, and in which
# order Gamma lists them, is decided once.


def column(product: DirectProduct, rows, i: int) -> ProductElement:
    """The element whose factor-j component is rows[j][i], for every j."""
    return ProductElement(product, {j: rows[j][i] for j in range(len(product.factors))})


def pad_generators(marked, product: DirectProduct, d: int) -> list[ProductElement]:
    """The deeper Gamma's marked generators, the last repeated up to d
    (the identity alone when there are none)."""
    gens = list(marked) or [product.identity_element()]
    while len(gens) < d:
        gens.append(gens[-1])
    return gens


def _factor_product(product: DirectProduct, factor_of, parts) -> ProductElement:
    """Component j is the product, in index order, of the parts[idx] with
    factor_of[idx] == j: simple factors of one member multiply together."""
    comps: dict[int, Permutation] = {}
    for j, part in zip(factor_of, parts):
        comps[j] = comps.get(j, product.factors[j].identity) * part
    return ProductElement(product, comps)


def _cover_element(product: DirectProduct, factor_of, tuples, c: int) -> ProductElement:
    """m_c: the c-th cover generator of every simple factor at once."""
    return _factor_product(product, factor_of, [tup[c] for tup in tuples])


def _conjugator_element(
    product: DirectProduct, factor_of, r, l: int, c: int, t: int
) -> ProductElement:
    """r_{l,c,t}: the conjugator of m_c in term t of residue l's decomposition."""
    return _factor_product(product, factor_of, [rows[t][c] for rows in r[l]])


def cover_row_product(
    product: DirectProduct, factor_of, tuples, r, l: int, e: int
) -> ProductElement:
    """The product over t < e, c < g of m_c ** r_{l,c,t}; by construction it
    equals the semisimple residue s_l."""
    x = product.identity_element()
    for t in range(e):
        for c in range(len(tuples[0])):
            x = x * _cover_element(product, factor_of, tuples, c).conjugate(
                _conjugator_element(product, factor_of, r, l, c, t)
            )
    return x


def _distinct(values) -> list[ProductElement]:
    seen: set[ProductElement] = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def q_values(product: DirectProduct, q_elems, lifts) -> list[ProductElement]:
    """Q's generators: the distinct nonidentity [q_{i,l}, a_t] over (i, l, t)
    in that order; q_elems[j] is None for a member without a module."""
    nontrivial = [j for j, q in enumerate(q_elems) if q is not None]
    m = len(lifts[0])
    values = (
        ProductElement(
            product, {j: commutator(q_elems[j][i][l], lifts[j][t]) for j in nontrivial}
        )
        for i in range(m)
        for l in range(m)
        for t in range(m)
    )
    return _distinct(v for v in values if not v.is_identity())


def t_values(
    product: DirectProduct, factor_of, tuples, r, e: int
) -> list[ProductElement]:
    """T's generators: the distinct m_{c'} ** r_{l,c,t} over (l, c, t, c')
    in that order."""
    g = len(tuples[0])
    covers = [_cover_element(product, factor_of, tuples, c) for c in range(g)]
    values = []
    for l in range(len(r)):
        for c in range(g):
            for t in range(e):
                conj = _conjugator_element(product, factor_of, r, l, c, t)
                inv = conj.inverse()
                values.extend(inv * m_c * conj for m_c in covers)
    return _distinct(values)


def gamma_generators(delta, q_vals, t_vals) -> list[ProductElement]:
    """Gamma's generator list, Delta then Q then T; `marked` indexes it."""
    return [*delta, *q_vals, *t_vals]
