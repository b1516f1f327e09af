"""The inductive construction of a perfect subdirect cover.

Given a finite family of d-generated perfect permutation groups whose
star series reach the trivial group within k steps, build generators of a
perfect subgroup of the direct product that surjects onto every member,
by recursion on k:

  * split each member over its last series term W_j = A_j x S_j,
  * recurse on the quotient family, lift the recursion's generators,
  * repair the lifts with commutator words, a congruence correction and a
    Gaschutz adjustment so they generate each member exactly,
  * absorb the abelian residues into a module Q with Q = [Q, Delta],
  * absorb the semisimple residues into a perfect group T built from a
    bounded cover of all simple factors,
  * take Gamma = <Delta, Q, T> and verify every claim directly.

Every choice is deterministic given the seed, and every intermediate
identity is asserted rather than assumed.  The construction transcript
retains all witnesses so a certificate can be verified from scratch.
"""

from __future__ import annotations

import random

from .covering import _ClassTable, _LayeredDecomposer, cover_tuples
from .errors import InternalError, PreconditionError, VerificationError
from .gmodule import GModule, solve_commutator_decomposition
from .groups import (
    DEFAULT_BUDGET,
    ENUMERATION_CAP,
    CosetMap,
    PermGroup,
    commutator_subgroup,
)
from .perms import Permutation
from .products import (
    DirectProduct,
    check_gamma_perfect,
    check_projections,
    check_Q,
    check_s_in_T,
    check_T,
    column,
    gamma_generators,
    pad_generators,
    q_values,
    t_values,
)
from .structure import (
    InternalDirectProduct,
    is_in_Y,
    semisimple_factors,
    series_term,
    split_star_trivial,
    star_chain,
)
from .words import Word, commutator_words, evaluate_word, gaschutz_lift


class LevelSplit:
    """Per-factor decomposition data at one recursion level."""

    __slots__ = ("family", "product", "W", "A", "S", "B", "qmaps")

    def __init__(
        self,
        family: tuple[PermGroup, ...],
        product: DirectProduct,
        W: list[PermGroup],
        A: list[PermGroup],
        S: list[PermGroup],
        B: list[PermGroup],
        qmaps: list[CosetMap],
    ):
        self.family = family
        self.product = product
        self.W = W
        self.A = A
        self.S = S
        self.B = B
        self.qmaps = qmaps

    @property
    def quotients(self) -> list[PermGroup]:
        return [qm.quotient for qm in self.qmaps]


class AlignedLifts:
    """Words and per-factor lifts satisfying the alignment identity."""

    __slots__ = ("m", "words", "lifts", "k_res", "s_res")

    def __init__(
        self,
        m: int,
        words: list[Word],
        lifts: list[list[Permutation]],
        k_res: list[list[Permutation]],
        s_res: list[list[Permutation]],
    ):
        self.m = m
        self.words = words
        self.lifts = lifts
        self.k_res = k_res
        self.s_res = s_res


class QData:
    __slots__ = ("modules", "q_elems", "q_coords", "values")

    def __init__(
        self,
        modules: list[GModule | None],
        q_elems: list[list[list[Permutation]] | None],
        q_coords: list[list[list[tuple[int, ...]]] | None],
        values: list[Permutation],
    ):
        self.modules = modules
        self.q_elems = q_elems
        self.q_coords = q_coords
        self.values = values


class TData:
    __slots__ = ("factor_of", "tuples", "e", "r", "values")

    def __init__(
        self,
        factor_of: list[int],
        tuples: list[list[Permutation]],
        e: int,
        r: list[list[list[list[Permutation]]]],
        values: list[Permutation],
    ):
        self.factor_of = factor_of
        self.tuples = tuples
        self.e = e
        self.r = r
        self.values = values


class LevelData:
    __slots__ = (
        "k_level", "split", "aligned", "delta_gens", "qdata", "tdata",
        "gamma", "gamma_gens", "marked_idx",
    )

    def __init__(
        self,
        k_level: int,
        split: LevelSplit,
        aligned: AlignedLifts,
        delta_gens: list[Permutation],
        qdata: QData,
        tdata: TData | None,
        gamma: PermGroup,
        gamma_gens: list[Permutation],
        marked_idx: list[int],
    ):
        self.k_level = k_level
        self.split = split
        self.aligned = aligned
        self.delta_gens = delta_gens
        self.qdata = qdata
        self.tdata = tdata
        self.gamma = gamma
        self.gamma_gens = gamma_gens
        self.marked_idx = marked_idx


class ConstructionCertificate:
    """Full witness data for one run of the construction."""

    __slots__ = (
        "family", "names", "d", "k", "seed", "budget", "cap",
        "levels", "gamma", "product",
    )

    def __init__(
        self,
        family: tuple[PermGroup, ...],
        names: tuple[str, ...],
        d: int,
        k: int,
        seed: int,
        budget: int,
        cap: int,
        levels: list[LevelData] | None = None,
        gamma: PermGroup | None = None,
        product: DirectProduct | None = None,
    ):
        self.family = family
        self.names = names
        self.d = d
        self.k = k
        self.seed = seed
        self.budget = budget
        self.cap = cap
        self.levels = [] if levels is None else levels
        self.gamma = gamma
        self.product = product

    @property
    def top(self) -> LevelData | None:
        return self.levels[0] if self.levels else None


def split_levels(family, k: int, cap: int = ENUMERATION_CAP) -> LevelSplit:
    """W_j = (G_j)_{k-1} with its abelian/semisimple split and B_j = [A_j, G_j]."""
    if k < 1:
        raise PreconditionError("split_levels needs k >= 1")
    family = tuple(family)
    product = DirectProduct(family)
    Ws, As, Ss, Bs, qmaps = [], [], [], [], []
    for G in family:
        W = series_term(G, k, cap)
        A, S = split_star_trivial(W, cap)
        B = commutator_subgroup(G, A, G)
        qmap = CosetMap(G, W, cap)
        _, qlevel = star_chain(qmap.quotient, max_depth=max(k, 4), cap=cap)
        if qlevel is None or qlevel > k - 1:
            raise PreconditionError(
                f"quotient has star level {qlevel}, above {k - 1}"
            )
        Ws.append(W)
        As.append(A)
        Ss.append(S)
        Bs.append(B)
        qmaps.append(qmap)
    return LevelSplit(family, product, Ws, As, Ss, Bs, qmaps)


def recurse_and_align(
    split: LevelSplit,
    sub_gamma: PermGroup,
    sub_product: DirectProduct,
    marked,
    d: int,
    rng,
    cap: int = ENUMERATION_CAP,
) -> AlignedLifts:
    """Lift the recursion's generators into each member and repair them.

    After this step the tuple a_{.,j} generates G_j for every j and
    a_{i,j} * w_i(a_{1,j},...,a_{m,j})^-1 = k_{i,j} * s_{i,j} with
    k_{i,j} in B_j and s_{i,j} in S_j.
    """
    gens = pad_generators(marked, sub_product, d)
    m = len(gens)
    words = commutator_words(sub_gamma, gens, gens, cap=cap)

    lifts: list[list[Permutation]] = []
    k_res: list[list[Permutation]] = []
    s_res: list[list[Permutation]] = []
    for j, G in enumerate(split.family):
        qmap = split.qmaps[j]
        W, A, S, B = split.W[j], split.A[j], split.S[j], split.B[j]
        ws_split = InternalDirectProduct(W, [A, S], cap)

        def residues(a_tuple):
            ks, ss = [], []
            for i in range(m):
                r = a_tuple[i] * evaluate_word(words[i], a_tuple).inverse()
                if r not in W:
                    raise InternalError("alignment residue left the split subgroup")
                kk, ss_part = ws_split.components(r)
                ks.append(kk)
                ss.append(ss_part)
            return ks, ss

        a = [qmap.lift(sub_product.project(gens[i], j)) for i in range(m)]
        ks, ss = residues(a)
        # congruence correction: moves every abelian residue into B_j
        a = [ai * ki.inverse() for ai, ki in zip(a, ks)]
        ks, ss = residues(a)
        for kk in ks:
            if kk not in B:
                raise InternalError("congruence correction left a residue outside B")

        adjust = PermGroup(G.degree, tuple(B.generators) + tuple(S.generators))
        with_adjust = PermGroup(G.degree, tuple(a) + tuple(adjust.generators))
        if with_adjust.order != G.order:
            raise InternalError(
                "lifts do not generate modulo B*S; the Frattini argument failed"
            )
        a = gaschutz_lift(G, adjust, a, rng=rng, cap=cap)
        ks, ss = residues(a)
        for kk in ks:
            if kk not in B:
                raise InternalError("Gaschutz adjustment left a residue outside B")
        lifts.append(a)
        k_res.append(ks)
        s_res.append(ss)
    return AlignedLifts(m, words, lifts, k_res, s_res)


def build_Q(
    split: LevelSplit, aligned: AlignedLifts, cap: int = ENUMERATION_CAP
) -> QData:
    """Solve each abelian residue k_i as a product of commutators [q_il, a_l]
    in its member's module; Q is generated by the [q_il, a_t]."""
    m = aligned.m
    modules: list[GModule | None] = []
    q_elems: list[list[list[Permutation]] | None] = []
    q_coords: list[list[list[tuple[int, ...]]] | None] = []
    for j, G in enumerate(split.family):
        A = split.A[j]
        if A.order == 1:
            for i in range(m):
                if not aligned.k_res[j][i].is_identity():
                    raise InternalError("nontrivial residue over a trivial abelian part")
            modules.append(None)
            q_elems.append(None)
            q_coords.append(None)
            continue
        M = GModule(G, A, aligned.lifts[j], cap)
        per_i_elems = []
        per_i_coords = []
        for i in range(m):
            target = aligned.k_res[j][i]
            if target.is_identity():
                qs = [A.identity] * m
            else:
                qs = solve_commutator_decomposition(M, aligned.lifts[j], target)
            per_i_elems.append(qs)
            per_i_coords.append([M.encode(q) for q in qs])
        modules.append(M)
        q_elems.append(per_i_elems)
        q_coords.append(per_i_coords)

    values = q_values(split.product, q_elems, aligned.lifts)
    return QData(modules, q_elems, q_coords, values)


def build_T(
    split: LevelSplit,
    aligned: AlignedLifts,
    budget: int,
    rng,
    cap: int = ENUMERATION_CAP,
) -> TData | None:
    """Cover the simple factors of the semisimple parts and decompose every
    semisimple residue as a bounded product of conjugates of cover
    generators."""
    m = aligned.m
    product = split.product
    factor_of: list[int] = []
    flat_factors: list[PermGroup] = []
    simple_factors: list[list[PermGroup]] = []
    decomposers: list[InternalDirectProduct | None] = []
    for j, S in enumerate(split.S):
        facs = semisimple_factors(S, cap)
        simple_factors.append(facs)
        if facs:
            decomposers.append(InternalDirectProduct(S, facs, cap))
        else:
            decomposers.append(None)
        for M in facs:
            factor_of.append(j)
            flat_factors.append(M)
    if not flat_factors:
        return None

    g = budget
    tuples, _ = cover_tuples(flat_factors, g, rng, cap)
    # X = class(m_1) ... class(m_g) and its powers are unions of classes
    class_tables = [_ClassTable(M, cap) for M in flat_factors]
    e_per_factor = []
    for classes, tup in zip(class_tables, tuples):
        X = classes.layers(map(classes.number, tup))[-1]
        e_per_factor.append(len(classes.power_sizes(X)))
    e = max(e_per_factor)

    # components of each semisimple residue in each simple factor
    s_comp: list[list[Permutation]] = []
    for idx, M in enumerate(flat_factors):
        j = factor_of[idx]
        pos = simple_factors[j].index(M)
        comps = []
        for i in range(m):
            comps.append(decomposers[j].components(aligned.s_res[j][i])[pos])
        s_comp.append(comps)

    r: list[list[list[list[Permutation]]]] = [[] for _ in range(m)]
    for classes, tup, comps in zip(class_tables, tuples, s_comp):
        decomposer = _LayeredDecomposer(classes, tup, e)
        for l in range(m):
            r[l].append(decomposer.decompose(comps[l]))

    values = t_values(product, factor_of, tuples, r, e)
    return TData(factor_of, tuples, e, r, values)


def assemble_and_verify(
    split: LevelSplit,
    aligned: AlignedLifts,
    delta_gens,
    qdata: QData,
    tdata: TData | None,
) -> tuple[PermGroup, list[Permutation], list[int]]:
    """Gamma = <Delta u Q u T>; assert the claims that make it a perfect
    subdirect cover, by the checks the verifier runs, before returning.
    The marked indices are the generators that extended Gamma's chain."""
    product = split.product
    t_vals = tdata.values if tdata is not None else []
    gamma_gens = gamma_generators(delta_gens, qdata.values, t_vals)
    gamma = product.subgroup(gamma_gens)
    t_group = product.subgroup(t_vals)
    cover = None if tdata is None else (tdata.factor_of, tdata.tuples, tdata.e, tdata.r)
    k_elems = [column(product, aligned.k_res, i) for i in range(aligned.m)]
    s_elems = [column(product, aligned.s_res, i) for i in range(aligned.m)]
    try:
        check_Q(product, delta_gens, qdata.values, k_elems)
        check_s_in_T(product, cover, s_elems, t_group)
        check_T(product, t_group, split.S)
        check_gamma_perfect(gamma)
        check_projections(product, gamma, split.family)
    except VerificationError as exc:
        raise InternalError(str(exc)) from exc
    return gamma, gamma_gens, list(gamma.chain.picks)


def _construct_level(
    family,
    d: int,
    k: int,
    rng,
    budget: int,
    cap: int,
    levels: list[LevelData],
) -> tuple[PermGroup, list[Permutation], DirectProduct]:
    product = DirectProduct(family)
    if k == 0:
        return product.subgroup([]), [], product
    split = split_levels(family, k, cap)
    sub_gamma, sub_marked, sub_product = _construct_level(
        split.quotients, d, k - 1, rng, budget, cap, levels
    )
    aligned = recurse_and_align(split, sub_gamma, sub_product, sub_marked, d, rng, cap)
    delta_gens = [column(split.product, aligned.lifts, i) for i in range(aligned.m)]
    qdata = build_Q(split, aligned, cap)
    tdata = build_T(split, aligned, budget, rng, cap)
    gamma, gamma_gens, marked_idx = assemble_and_verify(
        split, aligned, delta_gens, qdata, tdata
    )
    levels.append(
        LevelData(
            k_level=k,
            split=split,
            aligned=aligned,
            delta_gens=delta_gens,
            qdata=qdata,
            tdata=tdata,
            gamma=gamma,
            gamma_gens=gamma_gens,
            marked_idx=marked_idx,
        )
    )
    marked = [gamma_gens[i] for i in marked_idx]
    return gamma, marked, split.product


def construct(
    family,
    d: int,
    k: int,
    names=None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    cap: int = ENUMERATION_CAP,
) -> ConstructionCertificate:
    """Run the construction for a finite family; returns the full transcript."""
    family = tuple(family)
    if names is None:
        names = tuple(f"G{j}" for j in range(len(family)))
    names = tuple(names)
    if len(names) != len(family):
        raise PreconditionError("need one name per family member")
    if d < 1:
        raise PreconditionError("d must be positive")
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    for name, G in zip(names, family):
        ok, reason = is_in_Y(G, d, k, cap)
        if not ok:
            raise PreconditionError(f"family member {name} is not admissible: {reason}")
    cert = ConstructionCertificate(
        family=family, names=names, d=d, k=k, seed=seed, budget=budget, cap=cap
    )
    if not family:
        cert.gamma = PermGroup(1, ())
        cert.product = None
        return cert
    rng = random.Random(seed)
    levels: list[LevelData] = []
    gamma, _, product = _construct_level(family, d, k, rng, budget, cap, levels)
    cert.levels = list(reversed(levels))
    cert.gamma = gamma
    cert.product = product
    return cert
