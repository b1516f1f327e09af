"""Direct products on disjoint domains, and one level of the cover over them.

Factor j acts on the block of points offsets[j] .. offsets[j] + degree - 1
of the combined domain, so an element of the product is a single
permutation of that domain which preserves every block, and the
stabilizer-chain kernel works on subgroups of products unchanged.

`Level` is one level of the construction: the split of each member, the
witnesses a certificate stores, and Delta, Q, T and Gamma derived from
them.  The builder fills it in phase by phase and the verifier parses it
from a certificate; both run the `check_*` functions below on it.

The chains of T, Gamma and <Delta, Q> are bounded by the order of a product
that contains them (`groups.StabilizerChain`), but only once the witnesses
are seen to lie in their groups: T <= S_1 x ... x S_n when each cover tuple
element and each distinct conjugator part lies in its simple factor, and
Gamma and <Delta, Q> lie in G_1 x ... x G_n when, besides, each lift lies
in its member and each module basis in its A.  Otherwise those chains are
built unbounded, so a witness outside its group changes no verdict.

A level derives its cover's values once (`CoverValues`): each of the g
cover elements m_c and each distinct conjugator r_{l,c,t} is built once,
and T's generators and the s-in-T row products are composed on raw images
from those same values.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import InputError, PreconditionError, VerificationError
from .groups import (
    ENUMERATION_CAP,
    CosetMap,
    PermGroup,
    commutator_subgroup,
    derived_subgroup,
    generates,
    normal_closure,
)
from .perms import BYTES_MAX_DEGREE, Permutation, commutator, kernel, pack
from .structure import semisimple_factors, series_term, split_star_trivial, star_chain


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
        # Up to degree 256 an element is the join of one bytes block per
        # factor: the identity's block, or the component's images shifted
        # by the factor's offset through its translate table.
        self._blocks = self._shifts = None
        if total <= BYTES_MAX_DEGREE:
            ident = self.identity.images
            self._blocks = [
                ident[off:off + f.degree] for off, f in zip(self.offsets, factors)
            ]
            self._shifts = [
                bytes((off + i) % BYTES_MAX_DEGREE for i in range(BYTES_MAX_DEGREE))
                for off in self.offsets
            ]

    def element(self, components: dict[int, Permutation]) -> Permutation:
        """The element whose factor-j component is components[j]; factors
        without a component get the identity."""
        for j, p in components.items():
            if not 0 <= j < len(self.factors):
                raise InputError(f"no factor with index {j}")
            if p.degree != self.factors[j].degree:
                raise InputError("component degree mismatch")
        if self._shifts is None:
            images = list(range(self.degree))
            for j, p in components.items():
                off = self.offsets[j]
                images[off:off + p.degree] = [off + im for im in p.images]
            return Permutation._trusted(pack(images))
        blocks = self._blocks.copy()
        for j, p in components.items():
            blocks[j] = p.images.translate(self._shifts[j])
        return Permutation._trusted(b"".join(blocks))

    def project(self, g: Permutation, j: int) -> Permutation:
        """Component of a block-preserving permutation in factor j."""
        off = self.offsets[j]
        deg = self.factors[j].degree
        block = g.images[off:off + deg]
        if not off <= min(block) or max(block) >= off + deg:
            raise InputError("permutation does not preserve the factor blocks")
        # g is a bijection mapping the block into itself, hence onto it
        return Permutation._trusted(pack([im - off for im in block]))

    def subgroup(self, elements, bound: int | None = None) -> PermGroup:
        """Group generated by elements of the product, on the combined
        domain; `bound` is the order of a group known to contain them."""
        return PermGroup(self.degree, list(elements), bound)

    def projections(self, H: PermGroup, j: int) -> list[Permutation]:
        """The projections into factor j of H's reduced generators, which
        generate H, so these generate H's image in factor j."""
        return [self.project(g, j) for g in H.reduced_generators()]

    def projection_of(self, H: PermGroup, j: int) -> PermGroup:
        """Image of a subgroup of the product in factor j."""
        return PermGroup(self.factors[j].degree, self.projections(H, j))


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


class CoverValues:
    """A level's cover on raw images, derived once per level.

    From the cover (factor_of, tuples, e, r) it builds each of the g cover
    elements m_c once and each distinct conjugator column r_{l,c,t} once,
    and composes each distinct conjugator once with every m_c.
    `columns[l][c][t]` numbers r_{l,c,t} among the distinct conjugators, in
    first-seen (l, c, t) order, `parts[n]` lists conjugator n's part in
    each simple factor, and `conjugates[n][c]` holds the images of
    m_c ** (conjugator n).  T's generators and the cover-row products are
    read off these values; a repeated conjugator only repeats values
    already seen.
    """

    def __init__(self, product: DirectProduct, cover):
        factor_of, tuples, e, r = cover
        g = len(tuples[0])
        self.e, self.g = e, g
        self.identity = product.identity
        self._table, compose, invert = kernel(product.degree)
        self._compose = compose
        elements = []
        for c in range(g):
            m_c = _factor_product(product, factor_of, [tup[c] for tup in tuples])
            elements.append(self._table(m_c.images))
        number: dict = {}
        self.columns: list[list[list[int]]] = []
        self.parts: list[list[Permutation]] = []
        self.conjugates: list[list] = []
        for blocks in r:
            per_c = []
            for c in range(g):
                per_t = []
                for t in range(e):
                    parts = [rows[t][c] for rows in blocks]
                    key = tuple(p.images for p in parts)
                    if key not in number:
                        number[key] = len(self.conjugates)
                        self.parts.append(parts)
                        conj = _factor_product(product, factor_of, parts).images
                        inv, conj_table = invert(conj), self._table(conj)
                        self.conjugates.append(
                            [compose(compose(inv, m), conj_table) for m in elements]
                        )
                    per_t.append(number[key])
                per_c.append(per_t)
            self.columns.append(per_c)

    def t_values(self) -> list[Permutation]:
        """T's generators: the distinct m_{c'} ** r_{l,c,t} over (l, c, t, c')
        in that order, each distinct conjugator composed once per m_{c'}."""
        values = dict.fromkeys(v for row in self.conjugates for v in row)
        return [Permutation._trusted(v) for v in values]

    def row_product(self, l: int) -> Permutation:
        """The product over t < e, c < g of m_c ** r_{l,c,t}; by construction
        it equals the semisimple residue s_l."""
        x = self.identity.images
        columns = self.columns[l]
        for t in range(self.e):
            for c in range(self.g):
                x = self._compose(x, self._table(self.conjugates[columns[c][t]][c]))
        return Permutation._trusted(x)


def gamma_generators(delta, q_vals, t_vals) -> list[Permutation]:
    """Gamma's generator list, Delta then Q then T; `marked` indexes it."""
    return [*delta, *q_vals, *t_vals]


# ----------------------------------------------------------------------
# One level of the cover.


class Level:
    """Level k of the construction over a family, built by the builder and
    parsed from a certificate by the verifier.

    The split, derived by the constructor: each member G splits over
    W = G_{k-1} as A x S, with A = Z(W), S = [W, W] and B = [A, G];
    `qmaps[j]` maps G onto G/W, the member one level deeper, and
    `simple_factors` lists (member, factor) for the simple factors of each
    S, members in order.

    The witnesses, as a certificate stores them, set by whoever builds or
    reads the level: `m`, `words`, `lifts`, `k_res` and `s_res`; per member
    the module `basis` and `q_coords`, both None without a module; `cover`
    = (factor_of, tuples, e, r), or None without simple factors; and
    `marked`, the indices into `gamma_gens` of Gamma's marked generators.

    The values Gamma is built from are derived from the witnesses on first
    use, so that a verifier step that needs a value the witnesses cannot
    give reports the failure itself.
    """

    def __init__(self, family, k: int, cap: int = ENUMERATION_CAP):
        """The split at level k >= 1; PreconditionError if a member does
        not split as A x S or its quotient is not of level k - 1."""
        self.k = k
        self.family = tuple(family)
        self.product = DirectProduct(self.family)
        self.W, self.A, self.S, self.B, self.qmaps = [], [], [], [], []
        for G in self.family:
            W = series_term(G, k, cap)
            A, S = split_star_trivial(W, cap)
            B = commutator_subgroup(G, A, G)
            qmap = CosetMap(G, W, cap)
            _, qlevel = star_chain(qmap.quotient, cap)
            if qlevel > k - 1:
                raise PreconditionError(
                    f"quotient has star level {qlevel}, above {k - 1}"
                )
            self.W.append(W)
            self.A.append(A)
            self.S.append(S)
            self.B.append(B)
            self.qmaps.append(qmap)
        self.simple_factors = [
            (j, M) for j, S in enumerate(self.S) for M in semisimple_factors(S, cap)
        ]

    @property
    def quotients(self) -> list[PermGroup]:
        """The family one level deeper."""
        return [qmap.quotient for qmap in self.qmaps]

    @cached_property
    def delta(self) -> list[Permutation]:
        return [column(self.product, self.lifts, i) for i in range(self.m)]

    @cached_property
    def k_elems(self) -> list[Permutation]:
        """The abelian residues k_i as elements of the product."""
        return [column(self.product, self.k_res, i) for i in range(self.m)]

    @cached_property
    def s_elems(self) -> list[Permutation]:
        """The semisimple residues s_i as elements of the product."""
        return [column(self.product, self.s_res, i) for i in range(self.m)]

    @cached_property
    def q_elems(self) -> list[list[list[Permutation]] | None]:
        """q_elems[j][i][l] decoded from the module basis and coordinates;
        None for a member without a module."""
        out = []
        for j, (G, basis) in enumerate(zip(self.family, self.basis)):
            if basis is None:
                out.append(None)
                continue

            def decode(coords, identity=G.identity, basis=basis):
                x = identity
                for b, c in zip(basis, coords):
                    x = x * b**c
                return x

            out.append([[decode(c) for c in row] for row in self.q_coords[j]])
        return out

    @cached_property
    def q_values(self) -> list[Permutation]:
        return q_values(self.product, self.q_elems, self.lifts)

    @cached_property
    def cover_values(self) -> CoverValues | None:
        """The cover's values, None without a cover."""
        return None if self.cover is None else CoverValues(self.product, self.cover)

    @cached_property
    def t_values(self) -> list[Permutation]:
        return [] if self.cover_values is None else self.cover_values.t_values()

    @cached_property
    def cover_inside(self) -> bool:
        """Does each cover tuple element and each distinct conjugator part
        lie in its simple factor?  Then T <= S_1 x ... x S_n."""
        if self.cover is None:
            return True
        _, tuples, _, _ = self.cover
        factors = [M for _, M in self.simple_factors]
        parts = self.cover_values.parts
        n = len(factors)
        if len(tuples) != n or any(len(p) != n for p in parts):
            return False
        return _inside(
            (M, [*tup, *(p[idx] for p in parts)])
            for idx, (M, tup) in enumerate(zip(factors, tuples))
        )

    @cached_property
    def delta_q_bound(self) -> int | None:
        """|G_1| ... |G_n| when each lift lies in its member and each module
        basis in its A, so that <Delta, Q> lies in the product; else None."""
        bases = ((A, b) for A, b in zip(self.A, self.basis) if b is not None)
        if not _inside([*zip(self.family, self.lifts), *bases]):
            return None
        return math.prod(G.order for G in self.family)

    @cached_property
    def t_group(self) -> PermGroup:
        values = self.t_values
        bound = math.prod(S.order for S in self.S) if self.cover_inside else None
        return self.product.subgroup(values, bound)

    @cached_property
    def gamma_gens(self) -> list[Permutation]:
        return gamma_generators(self.delta, self.q_values, self.t_values)

    @cached_property
    def gamma(self) -> PermGroup:
        gens = self.gamma_gens
        bound = self.delta_q_bound if self.cover_inside else None
        return self.product.subgroup(gens, bound)


def _inside(pairs) -> bool:
    """Does each element lie in its group, for each (group, elements) pair?
    A repeated element is sifted once."""
    return all(x in H for H, xs in pairs for x in dict.fromkeys(xs))


# ----------------------------------------------------------------------
# The claims that make Gamma = <Delta, Q, T> a perfect subdirect cover.
# Construction asserts them and verification re-checks them, both with
# these functions; each raises VerificationError naming what fails.


def check_Q(product: DirectProduct, delta, q_vals, k_elems, bound=None) -> None:
    """Q = [Q, Delta], where Q is the normal closure of its generators in
    <Delta, Q>, and Q holds every abelian residue k_i; `bound` is the order
    of a group known to contain Delta and Q, or None."""
    if not q_vals:
        if not all(k.is_identity() for k in k_elems):
            raise VerificationError("nonzero abelian residue with empty Q")
        return
    joint = product.subgroup([*delta, *q_vals], bound)
    qgroup = normal_closure(joint, q_vals)
    # Q is normal in <Delta, Q>, so [Q, Delta] <= Q and orders decide
    if commutator_subgroup(joint, qgroup, product.subgroup(delta)).order != qgroup.order:
        raise VerificationError("Q is not equal to [Q, Delta]")
    for i, k in enumerate(k_elems):
        if k not in qgroup:
            raise VerificationError(f"abelian residue {i} is not in Q")


def check_s_in_T(cover: CoverValues | None, s_elems, t_group: PermGroup) -> None:
    """Each semisimple residue s_l is its cover-row product and lies in T.
    Without a cover (None) every residue must be trivial."""
    if cover is None:
        if not all(s.is_identity() for s in s_elems):
            raise VerificationError("nontrivial semisimple residue with no T")
        return
    for l, s in enumerate(s_elems):
        if cover.row_product(l) != s:
            raise VerificationError(f"row {l}: cover product does not equal the residue")
        if s not in t_group:
            raise VerificationError(f"row {l}: semisimple residue is not in T")


def check_T(product: DirectProduct, t_group: PermGroup, S) -> None:
    """T is perfect and projects onto each member's semisimple part S[j]."""
    if derived_subgroup(t_group).order != t_group.order:
        raise VerificationError("T is not perfect")
    for j, S_j in enumerate(S):
        if not generates(S_j, product.projections(t_group, j)):
            raise VerificationError(f"T does not project onto the semisimple part {j}")


def check_gamma_perfect(gamma: PermGroup) -> None:
    if derived_subgroup(gamma).order != gamma.order:
        raise VerificationError("gamma is not perfect")


def check_projections(product: DirectProduct, gamma: PermGroup, family) -> None:
    """Gamma maps onto every member."""
    for j, G in enumerate(family):
        if not generates(G, product.projections(gamma, j)):
            raise VerificationError(f"projection onto factor {j} is not surjective")
