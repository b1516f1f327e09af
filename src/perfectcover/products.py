"""Direct products on disjoint domains, and one level of the cover over them.

Factor j acts on the block of points offsets[j] .. offsets[j] + degree - 1
of the combined domain, so an element of the product is a single
permutation of that domain which preserves every block, and the
stabilizer-chain kernel works on subgroups of products unchanged.

`Level` is one level of the construction: the split of each member, the
witnesses a certificate stores, and Delta, Q, T and Gamma derived from
them.  The builder fills it in phase by phase and the verifier parses it
from a certificate; both run the `check_*` functions below on it.

Each member G maps onto G/W, the member one level deeper, on small degree
where it can (`quotient_map`): by G's action on the orbits of W, which are
blocks since W is normal, when that image has order |G|/|W|; else, when W
is regular, onto a point stabiliser G_a, a complement of W; else by
`groups.CosetMap`, the regular action on the cosets of W, which also
serves W = 1 and W = G.  So SL(2,5)/Z acts on 12 points and 2^4:A5/2^4 on
16, not 60 (Holt-Eick-O'Brien, *Handbook of Computational Group Theory*,
2005, ch. 4; Seress, *Permutation Group Algorithms*, 2003, ch. 6).

The chains of T, Gamma and <Delta, Q> are bounded by the order of a product
that contains them (`groups.StabilizerChain`), but only once the witnesses
are seen to lie in their groups: T <= S_1 x ... x S_n when each cover tuple
element and each distinct conjugator part lies in its simple factor, and
Gamma and <Delta, Q> lie in G_1 x ... x G_n when, besides, each lift lies
in its member and each q in its A.  Otherwise those chains are
built unbounded, so a witness outside its group changes no verdict.

On those same conditions T-perfect, gamma-perfect and projections take an
order path (`check_T`, `check_gamma_perfect`, `check_projections`): when T's
chain reaches |S_1| ... |S_n|, or Gamma's |G_1| ... |G_n|, the group is the
whole product, since a subgroup of a finite group with the group's order is
the group.  A direct product is perfect iff each factor is, and it maps onto
each factor, so T-perfect then checks only that each S_j is perfect,
gamma-perfect that each G_j is, and projections nothing.  Every other T or
Gamma, a proper subgroup or one whose witnesses are not seen to lie in their
groups, takes the derived closure and the projection chains, so both paths
give the same verdicts.

A level derives its cover's values once (`CoverValues`): each of the g
cover elements m_c and each distinct conjugator r_{l,c,t} is built once,
and T's generators and the s-in-T row products are composed on raw images
from those same values: each factor of a row product is one of T's
generators, so a residue equal to its row product lies in T.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

from .errors import (
    InputError,
    InternalError,
    PreconditionError,
    SizeLimitError,
    VerificationError,
)
from .groups import (
    ENUMERATION_CAP,
    CosetMap,
    PermGroup,
    commutator_subgroup,
    generates,
    is_perfect,
    normal_closure,
)
from .perms import BYTES_MAX_DEGREE, Permutation, commutator, kernel, pack
from .structure import semisimple_factors, split_star_trivial


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


def q_values(product: DirectProduct, q, lifts) -> list[Permutation]:
    """Q's generators: the distinct nonidentity [q_{i,l}, a_t] over (i, l, t)
    in that order, each joining the members whose q holds a q_{i,l}; q[j]
    is None for a member without a module.  Every stored q is read, so Q
    is defined whatever shape the q-decomposition step finds."""
    m = len(lifts[0])
    cells: dict = {}
    for j, rows in enumerate(q):
        for i, row in enumerate(rows or ()):
            for l, x in enumerate(row):
                cells.setdefault((i, l), {})[j] = x
    values = (
        product.element({j: commutator(x, lifts[j][t]) for j, x in cells[il].items()})
        for il in sorted(cells)
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
# A member's quotient G/W on small degree.  Each map has `quotient`, the
# image group, `apply(g)`, which refuses a non-member of G, and `lift(q)`,
# a preimage in G of an element of the image; `groups.CosetMap` is the
# fallback.


class BlockQuotient:
    """G/W as the action of G on the orbits of W, numbered by least point.

    W is normal, so its orbits are blocks for G and W lies in the kernel of
    the action on them; that kernel is W, and the image is G/W, exactly
    when the image has order |G|/|W| (`of`).  The lift table pairs each
    element of the image with a preimage, breadth-first over the generators
    of G; it is built on the first `lift`, and W is never enumerated.
    """

    def __init__(self, group: PermGroup, block_of, least, quotient: PermGroup, cap: int):
        self.group = group
        self.quotient = quotient
        self._block_of, self._least = block_of, least
        self._cap = cap

    @classmethod
    def of(cls, G: PermGroup, W: PermGroup, cap: int) -> BlockQuotient | None:
        """The map, or None when the action on W's orbits is not G/W."""
        block_of = [-1] * G.degree
        least: list[int] = []
        gens = [w.images for w in W.reduced_generators()]
        for start in range(G.degree):
            if block_of[start] < 0:
                block_of[start] = len(least)
                orbit = [start]
                # appending to the list being walked makes the walk breadth-first
                for p in orbit:
                    for w in gens:
                        if block_of[w[p]] < 0:
                            block_of[w[p]] = len(least)
                            orbit.append(w[p])
                least.append(start)
        index = G.order // W.order
        images = [Permutation(block_of[g.images[p]] for p in least) for g in G.generators]
        # W lies in the kernel, so |G/W| bounds the image
        quotient = PermGroup(len(least), images, index)
        if quotient.order != index:
            return None
        return cls(G, block_of, least, quotient, cap)

    def apply(self, g: Permutation) -> Permutation:
        """Image of g in the quotient group."""
        if g not in self.group:
            raise PreconditionError("element is not in the group")
        block_of, images = self._block_of, g.images
        return Permutation._trusted(pack([block_of[images[p]] for p in self._least]))

    @cached_property
    def _preimages(self) -> dict:
        """Images of each element of the quotient to images of a preimage."""
        order, cap = self.quotient.order, self._cap
        if order > cap:
            raise SizeLimitError(f"quotient order {order} exceeds cap {cap}")
        table, compose, _ = kernel(self.group.degree)
        q_table, q_compose, _ = kernel(self.quotient.degree)
        steps = [
            (q_table(s.images), table(g.images))
            for s, g in zip(self.quotient.generators, self.group.generators)
        ]
        found = {self.quotient.identity.images: self.group.identity.images}
        # appending to the list being walked makes the walk breadth-first
        queue = list(found)
        for x in queue:
            g = found[x]
            for s, t in steps:
                y = q_compose(x, s)
                if y not in found:
                    found[y] = compose(g, t)
                    queue.append(y)
        return found

    def lift(self, q: Permutation) -> Permutation:
        """A preimage of q in G."""
        g = self._preimages.get(q.images)
        if g is None:
            raise PreconditionError("element is not in the quotient")
        return Permutation._trusted(g)


class ComplementQuotient:
    """G/W as a point stabiliser G_a, for W regular: transitive, with |W|
    equal to the degree.

    G_a meets W in W_a = 1 and G = G_a W, so G_a is a complement of W and
    g -> g t, where t in W sends a^g back to a, projects G onto G_a with
    kernel W.  The point a is W's first base point and t is read off W's
    chain transversal at a (`transversal_inverse`), so W is never
    enumerated; `lift` is the identity, since G_a lies in G.
    """

    def __init__(self, G: PermGroup, W: PermGroup):
        self.group = G
        self._chain = W.chain
        self._point = W.chain.levels[0].point
        self._compose = kernel(G.degree)[1]
        images = [self._project(g.images) for g in G.generators]
        self.quotient = PermGroup(G.degree, images, G.order // W.order)
        if self.quotient.order * W.order != G.order:
            raise InternalError("complement order mismatch")

    @classmethod
    def of(cls, G: PermGroup, W: PermGroup) -> ComplementQuotient | None:
        """The map, or None when W, a nontrivial subgroup of G, is not regular."""
        if W.order != G.degree or len(W.chain.levels[0].orbit) != G.degree:
            return None
        return cls(G, W)

    def _project(self, g) -> Permutation:
        t_inv = self._chain.transversal_inverse(0, g[self._point])
        return Permutation._trusted(self._compose(g, t_inv))

    def apply(self, g: Permutation) -> Permutation:
        """Image of g in the quotient group."""
        if g not in self.group:
            raise PreconditionError("element is not in the group")
        return self._project(g.images)

    def lift(self, q: Permutation) -> Permutation:
        """q itself, an element of G_a."""
        return q


def quotient_map(G: PermGroup, W: PermGroup, cap: int = ENUMERATION_CAP):
    """G -> G/W for W = G_{k-1}, normal in G, by the first rule that
    applies: W's orbits as blocks, then a complement of a regular W, then
    the regular action on the cosets of W, which also takes W = 1 and
    W = G.  For 1 < |W| < |G| the first two exclude each other: a regular W
    has one orbit, on which G acts trivially."""
    if 1 < W.order < G.order:
        qmap = BlockQuotient.of(G, W, cap) or ComplementQuotient.of(G, W)
        if qmap is not None:
            return qmap
    return CosetMap(G, W, cap)


# ----------------------------------------------------------------------
# One level of the cover.


def w_seeds(G: PermGroup, W: PermGroup) -> list[Permutation]:
    """W's reduced generators, taken in order until their normal closure in
    G has order |W|: the seeds a certificate stores for W at a level >= 2."""
    seeds: list[Permutation] = []
    for w in W.reduced_generators():
        if normal_closure(G, seeds).order == W.order:
            break
        seeds.append(w)
    return seeds


class Level:
    """Level k of the construction over a family, built by the builder and
    parsed from a certificate by the verifier.

    The split, derived by the constructor: each member G splits over a
    normal subgroup W as A x S, with A = Z(W), S = [W, W] and B = [A, G].
    At level 1, W is G itself; at a level k >= 2 it is the normal closure
    in G of `seeds[j]`, which the builder takes from the star-series term
    G_{k-1} (`w_seeds`) and the verifier reads from the certificate.
    `qmaps[j]` maps G onto G/W, the member one level deeper, by the first
    rule of `quotient_map` that applies, and `simple_factors` lists
    (member, factor) for the simple factors of each S, members in order.

    The constructor checks that each W is star-trivial and is A x S.  G/W
    is the next level's family, whose split checks its own W, down to
    level 1, whose W is the whole quotient.  So the levels give each member
    a normal series G = N_0 >= ... >= N_k = 1 whose factors are abelian x
    semisimple, and G's star series then has G_i <= N_i: its level is at
    most k.  The star series is such a series, so every member of level at
    most k has one, and a certificate needs no star series of a member.

    The witnesses, as a certificate stores them, set by whoever builds or
    reads the level: `m`, `words`, `lifts`, `k_res` and `s_res`; `q`, per
    member the m x m elements q_il of its A, None without a module; `cover`
    = (factor_of, tuples, e, r), or None without simple factors; and
    `marked`, the indices into `gamma_gens` of Gamma's marked generators.

    The values Gamma is built from are derived from the witnesses on first
    use, so that a verifier step that needs a value the witnesses cannot
    give reports the failure itself.
    """

    def __init__(self, family, k: int, seeds, cap: int = ENUMERATION_CAP):
        """The split at level k >= 1 over the normal closures of `seeds`, or
        over each member itself when `seeds` is None, as at level 1;
        PreconditionError if a seed lies outside its member or a W does
        not split as A x S."""
        self.k = k
        self.family = tuple(family)
        self.seeds = seeds
        self.product = DirectProduct(self.family)
        self.W, self.A, self.S, self.B, self.qmaps = [], [], [], [], []
        for j, G in enumerate(self.family):
            W = G if seeds is None else normal_closure(G, seeds[j])
            A, S = split_star_trivial(W, cap)
            B = commutator_subgroup(G, A, G)
            qmap = quotient_map(G, W, cap)
            self.W.append(W)
            self.A.append(A)
            self.S.append(S)
            self.B.append(B)
            self.qmaps.append(qmap)
        self.simple_factors = [
            (j, M) for j, S in enumerate(self.S) for M in semisimple_factors(S, cap)
        ]

    @property
    def q(self) -> list:
        """The q witnesses; a level whose q was never set, as when the
        verifier cannot read it, refers each step that needs it to the
        step that reads it."""
        try:
            return self._q
        except AttributeError:
            raise VerificationError("no q (see q-decomposition)") from None

    @q.setter
    def q(self, rows) -> None:
        self._q = rows

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
    def q_values(self) -> list[Permutation]:
        return q_values(self.product, self.q, self.lifts)

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
        """|G_1| ... |G_n| when each lift lies in its member and each q in
        its A, so that <Delta, Q> lies in the product; else None."""
        qs = [(A, chain(*rows)) for A, rows in zip(self.A, self.q) if rows]
        if not _inside([*zip(self.family, self.lifts), *qs]):
            return None
        return math.prod(G.order for G in self.family)

    @cached_property
    def gamma_inside(self) -> bool:
        """Do Delta, Q and T lie in G_1 x ... x G_n, as seen from their
        witnesses?"""
        return self.cover_inside and self.delta_q_bound is not None

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
        bound = self.delta_q_bound if self.gamma_inside else None
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


def check_s_in_T(cover: CoverValues | None, s_elems) -> None:
    """Each semisimple residue s_l is its cover-row product, and so lies in
    T: each factor of the row product is one of T's generators
    (`CoverValues.t_values`).  Without a cover (None) every residue must be
    trivial."""
    if cover is None:
        if not all(s.is_identity() for s in s_elems):
            raise VerificationError("nontrivial semisimple residue with no T")
        return
    for l, s in enumerate(s_elems):
        if cover.row_product(l) != s:
            raise VerificationError(f"row {l}: cover product does not equal the residue")


def _is_whole(H: PermGroup, groups, inside: bool) -> bool:
    """Is H, known to lie in the product of `groups` when `inside`, all of
    it?  A subgroup whose order is the group's order is the group."""
    return inside and H.order == math.prod(G.order for G in groups)


def check_T(product: DirectProduct, t_group: PermGroup, S, inside: bool = False) -> None:
    """T is perfect and projects onto each member's semisimple part S[j];
    `inside` says T is known to lie in S[0] x ... x S[n-1]."""
    if _is_whole(t_group, S, inside):
        # a direct product is perfect iff each factor is, and maps onto each
        if not all(is_perfect(S_j) for S_j in S):
            raise VerificationError("T is not perfect")
        return
    if not is_perfect(t_group):
        raise VerificationError("T is not perfect")
    for j, S_j in enumerate(S):
        if not generates(S_j, product.projections(t_group, j)):
            raise VerificationError(f"T does not project onto the semisimple part {j}")


def check_gamma_perfect(gamma: PermGroup, family, inside: bool = False) -> None:
    """Gamma is perfect; `inside` says it is known to lie in the product of
    the members `family`."""
    if _is_whole(gamma, family, inside):
        perfect = all(is_perfect(G) for G in family)
    else:
        perfect = is_perfect(gamma)
    if not perfect:
        raise VerificationError("gamma is not perfect")


def check_projections(
    product: DirectProduct, gamma: PermGroup, family, inside: bool = False
) -> None:
    """Gamma maps onto every member; `inside` as for `check_gamma_perfect`."""
    if _is_whole(gamma, family, inside):
        return
    for j, G in enumerate(family):
        if not generates(G, product.projections(gamma, j)):
            raise VerificationError(f"projection onto factor {j} is not surjective")
