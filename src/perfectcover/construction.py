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

Each level is a `products.Level`, the record the verifier reads a
certificate level into: `split_levels` derives its split, the next three
phases set its witnesses, and `assemble_and_verify` runs the verifier's
claim checks on the Delta, Q, T and Gamma the level derives from them.
Every choice is deterministic given the seed, and every intermediate
identity is asserted rather than assumed.  The construction transcript
retains all witnesses so a certificate can be verified from scratch.
"""

from __future__ import annotations

import random
from itertools import cycle

from .covering import _ClassTable, _LayeredDecomposer, cover_tuples
from .errors import InternalError, PreconditionError, VerificationError
from .gmodule import GModule, solve_commutator_decomposition
from .groups import DEFAULT_BUDGET, ENUMERATION_CAP, PermGroup, generates
from .perms import Permutation
from .products import (
    DirectProduct,
    Level,
    check_gamma_perfect,
    check_projections,
    check_Q,
    check_s_in_T,
    check_T,
    pad_generators,
    w_seeds,
)
from .structure import InternalDirectProduct, is_in_Y, semisimple_factors, series_term
from .words import commutator_words, evaluate_word, gaschutz_lift


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
        levels: list[Level] | None = None,
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
    def top(self) -> Level | None:
        return self.levels[0] if self.levels else None


def split_levels(family, k: int, cap: int = ENUMERATION_CAP) -> Level:
    """The level-k split of each member over W_j = (G_j)_{k-1}, given at
    k >= 2 by the seeds of its normal closure that the certificate stores."""
    if k < 1:
        raise PreconditionError("split_levels needs k >= 1")
    seeds = None if k == 1 else [w_seeds(G, series_term(G, k, cap)) for G in family]
    return Level(family, k, seeds, cap)


def recurse_and_align(
    level: Level,
    sub_gamma: PermGroup,
    sub_product: DirectProduct,
    marked,
    d: int,
    rng,
    cap: int = ENUMERATION_CAP,
) -> None:
    """Lift the recursion's generators into each member and repair them.

    Sets the level's m, words, lifts and residues: the tuple a_{.,j}
    generates G_j for every j and a_{i,j} * w_i(a_{1,j},...,a_{m,j})^-1 =
    k_{i,j} * s_{i,j} with k_{i,j} in B_j and s_{i,j} in S_j.
    """
    gens = pad_generators(marked, sub_product, d)
    m = len(gens)
    words = commutator_words(sub_gamma, gens, gens, cap=cap)

    lifts: list[list[Permutation]] = []
    k_res: list[list[Permutation]] = []
    s_res: list[list[Permutation]] = []
    for j, G in enumerate(level.family):
        qmap = level.qmaps[j]
        W, A, S, B = level.W[j], level.A[j], level.S[j], level.B[j]
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
        if not generates(G, tuple(a) + tuple(adjust.generators)):
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
    level.m, level.words = m, words
    level.lifts, level.k_res, level.s_res = lifts, k_res, s_res


def build_Q(level: Level) -> None:
    """Solve each abelian residue k_i as a product of commutators [q_il, a_l]
    with every q_il in its member's abelian part A, the identity for a
    trivial residue, and set the level's q; Q is generated by the
    [q_il, a_t]."""
    m = level.m
    level.q = []
    for j, G in enumerate(level.family):
        A, lifts = level.A[j], level.lifts[j]
        if A.order == 1:
            if not all(k.is_identity() for k in level.k_res[j]):
                raise InternalError("nontrivial residue over a trivial abelian part")
            level.q.append(None)
            continue
        M = GModule(G, A, lifts)
        level.q.append(
            [
                [G.identity] * m
                if target.is_identity()
                else solve_commutator_decomposition(M, lifts, target)
                for target in level.k_res[j]
            ]
        )


def build_T(level: Level, budget: int, rng, cap: int = ENUMERATION_CAP) -> None:
    """Cover the simple factors of the semisimple parts and decompose every
    semisimple residue as a bounded product of conjugates of cover
    generators; sets the level's cover, or None without simple factors."""
    m = level.m
    if not level.simple_factors:
        level.cover = None
        return
    factor_of = [j for j, _ in level.simple_factors]
    flat_factors = [M for _, M in level.simple_factors]
    tuples = cover_tuples(flat_factors, budget, rng)
    # X = class(m_1) ... class(m_g) and its powers are unions of classes;
    # normal subsets commute, so X^e is layer e*g along m_1..m_g, repeated
    class_tables = [_ClassTable(M, cap) for M in flat_factors]
    e = 1
    for classes, tup in zip(class_tables, tuples):
        ks = [frozenset({classes.number(m)}) for m in tup]
        covered_at = len(classes.layers(cycle(ks))) - 1
        e = max(e, -(-covered_at // len(ks)))

    # each semisimple residue's component in each simple factor
    decomposers = {
        j: InternalDirectProduct(S, semisimple_factors(S, cap), cap)
        for j, S in enumerate(level.S)
        if j in factor_of
    }
    s_comp: list[list[Permutation]] = []
    for j, M in level.simple_factors:
        pos = decomposers[j].factors.index(M)
        s_comp.append(
            [decomposers[j].components(level.s_res[j][i])[pos] for i in range(m)]
        )

    r: list[list[list[list[Permutation]]]] = [[] for _ in range(m)]
    for classes, tup, comps in zip(class_tables, tuples, s_comp):
        decomposer = _LayeredDecomposer(classes, tup, e)
        for l in range(m):
            r[l].append(decomposer.decompose(comps[l]))
    level.cover = (factor_of, tuples, e, r)


def assemble_and_verify(level: Level) -> None:
    """Gamma = <Delta u Q u T>; assert the claims that make it a perfect
    subdirect cover, by the checks the verifier runs, and mark the
    generators that extended Gamma's chain."""
    product = level.product
    try:
        check_Q(
            product, level.delta, level.q_values, level.k_elems, level.delta_q_bound
        )
        check_s_in_T(level.cover_values, level.s_elems)
        check_T(product, level.t_group, level.S, level.cover_inside)
        check_gamma_perfect(level.gamma, level.family, level.gamma_inside)
        check_projections(product, level.gamma, level.family, level.gamma_inside)
    except VerificationError as exc:
        raise InternalError(str(exc)) from exc
    level.marked = list(level.gamma.chain.picks)


def _construct_level(
    family,
    d: int,
    k: int,
    rng,
    budget: int,
    cap: int,
    levels: list[Level],
) -> tuple[PermGroup, list[Permutation], DirectProduct]:
    if k == 0:
        product = DirectProduct(family)
        return product.subgroup([]), [], product
    level = split_levels(family, k, cap)
    sub_gamma, sub_marked, sub_product = _construct_level(
        level.quotients, d, k - 1, rng, budget, cap, levels
    )
    recurse_and_align(level, sub_gamma, sub_product, sub_marked, d, rng, cap)
    build_Q(level)
    build_T(level, budget, rng, cap)
    assemble_and_verify(level)
    levels.append(level)
    marked = [level.gamma_gens[i] for i in level.marked]
    return level.gamma, marked, level.product


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
    if family and budget < 2:
        raise PreconditionError(
            "budget must be at least 2: a simple nonabelian factor needs 2 generators"
        )
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
    levels: list[Level] = []
    gamma, _, product = _construct_level(family, d, k, rng, budget, cap, levels)
    cert.levels = list(reversed(levels))
    cert.gamma = gamma
    cert.product = product
    return cert
