"""Direct products on disjoint domains; elements are flat permutations.

Factor j acts on the block of points offsets[j] .. offsets[j] + degree - 1
of the combined domain, so an element of the product is a single
permutation of that domain which preserves every block, and the
stabilizer-chain kernel works on subgroups of products unchanged.
"""

from __future__ import annotations

from .errors import InputError
from .groups import PermGroup
from .perms import Permutation, commutator, kernel, pack


class DirectProduct:
    """The domain layout of a finite ordered list of factor groups."""

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
        self.identity = Permutation._trusted(pack(range(total)))

    def element(self, components: dict[int, Permutation]) -> Permutation:
        """The element whose factor-j component is components[j]; factors
        without a component get the identity."""
        images = list(range(self.degree))
        for j, p in components.items():
            if not 0 <= j < len(self.factors):
                raise InputError(f"no factor with index {j}")
            if p.degree != self.factors[j].degree:
                raise InputError("component degree mismatch")
            off = self.offsets[j]
            images[off:off + p.degree] = [off + im for im in p.images]
        return Permutation._trusted(pack(images))

    def project(self, g: Permutation, j: int) -> Permutation:
        """Component of a block-preserving permutation in factor j."""
        off = self.offsets[j]
        deg = self.factors[j].degree
        block = g.images[off:off + deg]
        if not off <= min(block) or max(block) >= off + deg:
            raise InputError("permutation does not preserve the factor blocks")
        # g is a bijection mapping the block into itself, hence onto it
        return Permutation._trusted(pack([im - off for im in block]))

    def subgroup(self, elements) -> PermGroup:
        """Group generated by elements of the product, on the combined domain."""
        return PermGroup(self.degree, list(elements))

    def full_group(self) -> PermGroup:
        gens = []
        for j, f in enumerate(self.factors):
            gens.extend(self.element({j: g}) for g in f.generators)
        return PermGroup(self.degree, gens)

    def projection_of(self, H: PermGroup, j: int) -> PermGroup:
        """Image of a subgroup of the product in factor j."""
        return PermGroup(
            self.factors[j].degree,
            [self.project(g, j) for g in H.generators],
        )


# ----------------------------------------------------------------------
# The cover's generators from its witnesses.  Construction and verification
# both derive Delta, Q and T here, so which values exist, and in which
# order Gamma lists them, is decided once.


def column(product: DirectProduct, rows, i: int) -> Permutation:
    """The element whose factor-j component is rows[j][i], for every j."""
    return product.element({j: rows[j][i] for j in range(len(product.factors))})


def pad_generators(marked, product: DirectProduct, d: int) -> list[Permutation]:
    """The deeper Gamma's marked generators, the last repeated up to d
    (the identity alone when there are none)."""
    gens = list(marked) or [product.identity]
    while len(gens) < d:
        gens.append(gens[-1])
    return gens


def _factor_product(product: DirectProduct, factor_of, parts) -> Permutation:
    """Component j is the product, in index order, of the parts[idx] with
    factor_of[idx] == j: simple factors of one member multiply together."""
    comps: dict[int, Permutation] = {}
    for j, part in zip(factor_of, parts):
        comps[j] = comps[j] * part if j in comps else part
    return product.element(comps)


def _cover_element(product: DirectProduct, factor_of, tuples, c: int) -> Permutation:
    """m_c: the c-th cover generator of every simple factor at once."""
    return _factor_product(product, factor_of, [tup[c] for tup in tuples])


def _conjugator_element(
    product: DirectProduct, factor_of, r, l: int, c: int, t: int
) -> Permutation:
    """r_{l,c,t}: the conjugator of m_c in term t of residue l's decomposition."""
    return _factor_product(product, factor_of, [rows[t][c] for rows in r[l]])


def cover_row_product(
    product: DirectProduct, factor_of, tuples, r, l: int, e: int
) -> Permutation:
    """The product over t < e, c < g of m_c ** r_{l,c,t}; by construction it
    equals the semisimple residue s_l."""
    x = product.identity
    for t in range(e):
        for c in range(len(tuples[0])):
            x = x * _cover_element(product, factor_of, tuples, c).conjugate(
                _conjugator_element(product, factor_of, r, l, c, t)
            )
    return x


def _distinct(values) -> list[Permutation]:
    seen: set[Permutation] = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def q_values(product: DirectProduct, q_elems, lifts) -> list[Permutation]:
    """Q's generators: the distinct nonidentity [q_{i,l}, a_t] over (i, l, t)
    in that order; q_elems[j] is None for a member without a module."""
    nontrivial = [j for j, q in enumerate(q_elems) if q is not None]
    m = len(lifts[0])
    values = (
        product.element(
            {j: commutator(q_elems[j][i][l], lifts[j][t]) for j in nontrivial}
        )
        for i in range(m)
        for l in range(m)
        for t in range(m)
    )
    return _distinct(v for v in values if not v.is_identity())


def t_values(product: DirectProduct, factor_of, tuples, r, e: int) -> list[Permutation]:
    """T's generators: the distinct m_{c'} ** r_{l,c,t} over (l, c, t, c')
    in that order."""
    g = len(tuples[0])
    table, compose, invert = kernel(product.degree)
    cover_tables = [
        table(_cover_element(product, factor_of, tuples, c).images) for c in range(g)
    ]
    values: dict = {}
    for l in range(len(r)):
        for c in range(g):
            for t in range(e):
                conj = _conjugator_element(product, factor_of, r, l, c, t).images
                inv, conj_table = invert(conj), table(conj)
                for m_table in cover_tables:
                    values[compose(compose(inv, m_table), conj_table)] = None
    return [Permutation._trusted(v) for v in values]


def gamma_generators(delta, q_vals, t_vals) -> list[Permutation]:
    """Gamma's generator list, Delta then Q then T; `marked` indexes it."""
    return [*delta, *q_vals, *t_vals]
