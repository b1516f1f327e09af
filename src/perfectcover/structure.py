"""Characteristic series via the star operator, and related structure queries.

For a finite group G, star(G) is the intersection of all normal subgroups
whose quotient is abelian or simple, read off the normal-subgroup
lattice; G/star(G) splits as (abelianization) x (largest semisimple
quotient).  Iterating star yields a strictly
descending characteristic series whose length is the level of G.

Subgroups are compared through their stabilizer chains: H <= K when |H|
divides |K| and K contains the generators of H, and equal orders with
containment mean equality.  `normal_subgroups` reads the group's one
class walk (`groups.conjugacy_classes`), and its result is sorted by
order, subgroups of equal order in discovery order (Holt-Eick-O'Brien,
Handbook of Computational Group Theory, ch. 4).

The lattice takes only class sizes and candidate representatives from
the walk.  G itself is listed from the start, so a class x^G is skipped
when no proper divisor of |G| is 1 + |x^G| + (a sum of sizes of other
nontrivial classes).  This is exact: a normal subgroup is a
union of classes containing {1}, so a proper ncl(x) would have such an
order by Lagrange; hence ncl(x) = G, which is already listed.  Every
structure fact is computed once per group and kept in `PermGroup.facts`;
a perfect group is its own derived subgroup, so it has one lattice.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import InternalError, PreconditionError
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    CosetMap,
    center,
    conjugacy_classes,
    derived_subgroup,
    enumerate_elements,
    generates,
    is_abelian,
    is_perfect,
    normal_closure,
)
from .gmodule import abelian_group_basis
from .perms import Permutation

_MIN_GEN_TRIALS = 512
_EXHAUSTIVE_TUPLES = 10**6


def normal_subgroups(G: PermGroup, cap: int = ENUMERATION_CAP) -> list[PermGroup]:
    """All normal subgroups, as join-closure of class normal closures.

    Each subgroup is held by its chain: a candidate is already known when
    some entry has its order and contains it.  The first group found for
    each subgroup represents it, G for G and the trivial group first.  The
    list is sorted by order, stably, so ties keep their discovery order.
    """
    cached = G.facts.get("normal_subgroups")
    if cached is not None:
        return cached
    found: list[PermGroup] = []

    def known(H: PermGroup) -> bool:
        return any(F.order == H.order and F.contains_group(H) for F in found)

    def register(H: PermGroup) -> None:
        if not known(H):
            found.append(H)

    register(PermGroup(G.degree, ()))
    register(G)
    # x and x^k with k prime to |x| have the same normal closure, so a class
    # holding such a power of an earlier representative adds nothing.  The
    # lattice keeps each class's size and each candidate's representative.
    covered: set = set()
    sizes: list[int] = []
    candidates: list[tuple[int, Permutation]] = []
    for orbit in conjugacy_classes(G, cap):
        if covered.isdisjoint(orbit):
            x = Permutation._trusted(next(iter(orbit)))
            covered.update(y.images for y in _coprime_powers(x))
            candidates.append((len(sizes), x))
        sizes.append(len(orbit))
    # A class whose closure cannot be proper adds nothing.  sizes[0] is the
    # identity's class, which the walk meets first: candidate 0, whose
    # closure is the trivial group registered above, so it is skipped.
    n = G.order
    divisors = [d for d in range(1, n // 2 + 1) if n % d == 0]
    for i, x in candidates[1:]:
        if _may_be_proper(divisors, sizes[i], sizes[1:i] + sizes[i + 1 :]):
            register(normal_closure(G, [x]))
    # Pairs within found[:old] were joined on the previous pass, so their
    # joins are already in found.
    old = 0
    while True:
        new = []
        for (_, a), (j, b) in itertools.combinations(enumerate(found), 2):
            if j < old or _is_subgroup(a, b) or _is_subgroup(b, a):
                continue
            join = PermGroup(G.degree, a.generators + b.generators, G.order)
            if not known(join):
                new.append(join)
        if not new:
            break
        old = len(found)
        for H in new:
            register(H)
    subs = G.facts["normal_subgroups"] = sorted(found, key=lambda H: H.order)
    return subs


def _may_be_proper(divisors: list[int], size: int, others: list[int]) -> bool:
    """Can 1 + size + (a sum of some of `others`) be one of `divisors`?

    Subset sums are bits of an int, kept below the largest divisor.
    """
    base = 1 + size
    targets = sum(1 << (d - base) for d in divisors if d >= base)
    if not targets:
        return False
    limit = (1 << (divisors[-1] - base + 1)) - 1
    sums = 1
    for c in others:
        if sums & targets:
            return True
        sums |= (sums << c) & limit
    return sums & targets != 0


def _coprime_powers(x: Permutation) -> list[Permutation]:
    """x^k for 0 < k < |x| with k prime to |x|."""
    m = x.order()
    powers = []
    y = x
    for k in range(1, m):
        if math.gcd(k, m) == 1:
            powers.append(y)
        y = y * x
    return powers


def _is_subgroup(H: PermGroup, K: PermGroup) -> bool:
    """H <= K, for subgroups of one ambient group."""
    return K.order % H.order == 0 and K.contains_group(H)


def star_subgroup(G: PermGroup, cap: int = ENUMERATION_CAP) -> PermGroup:
    """Intersection of all normal subgroups with abelian or simple quotient.

    Equals derived(G) intersected with every maximal normal subgroup whose
    quotient is nonabelian simple, the maximal ones not above derived(G).
    An intersection of normal subgroups is normal, so it is the largest
    member of the lattice below all of them.  star(G) <= [G, G], so a
    trivial derived subgroup returns at once, without the lattice.
    """
    cached = G.facts.get("star")
    if cached is not None:
        return cached
    D = derived_subgroup(G)
    if D.order == 1:
        return D
    lattice = normal_subgroups(G, cap)
    proper = [N for N in lattice if N.order < G.order]
    tops = [
        N
        for N in proper
        if not any(M.order > N.order and _is_subgroup(N, M) for M in proper)
        and not _is_subgroup(D, N)
    ]
    result = next(
        N for N in reversed(lattice) if all(_is_subgroup(N, M) for M in [D, *tops])
    )
    G.facts["star"] = result
    return result


def star_chain(G: PermGroup, cap: int = ENUMERATION_CAP):
    """The series G = G_0 > G_1 > ... > G_level = 1 and its level.

    For G != 1, star(G) lies in [G, G] < G or, when G is perfect, in a
    maximal normal subgroup, so the series descends strictly to 1 within
    log2 |G| steps.
    """
    cached = G.facts.get("star_chain")
    if cached is None:
        series = [G]
        while series[-1].order > 1:
            nxt = star_subgroup(series[-1], cap)
            if nxt.order == series[-1].order:
                raise InternalError("star subgroup of a nontrivial group is not proper")
            series.append(nxt)
        cached = G.facts["star_chain"] = (series, len(series) - 1)
    return cached


def series_term(G: PermGroup, k: int, cap: int = ENUMERATION_CAP) -> PermGroup:
    """W = G_{k-1} for k >= 1: the star-series term k - 1, or the trivial
    group once the series has ended; a level-k split of G is taken over it."""
    series, _ = star_chain(G, cap)
    return series[k - 1] if k - 1 < len(series) else PermGroup(G.degree, ())


class StructureReport:
    __slots__ = (
        "series", "level", "perfect", "min_generators", "mg_bound",
        "abelianization_invariants",
    )

    def __init__(
        self,
        series: tuple[PermGroup, ...],
        level: int,
        perfect: bool,
        min_generators: int | None,
        mg_bound: int,
        abelianization_invariants: tuple[int, ...],
    ):
        self.series = series
        self.level = level
        self.perfect = perfect
        self.min_generators = min_generators
        self.mg_bound = mg_bound
        self.abelianization_invariants = abelianization_invariants

    @property
    def dmin_text(self) -> str:
        if self.min_generators is None:
            return f">{self.mg_bound}"
        return str(self.min_generators)


def star_series(
    G: PermGroup,
    mg_bound: int = 4,
    cap: int = ENUMERATION_CAP,
) -> StructureReport:
    series, level = star_chain(G, cap)
    perfect = is_perfect(G)
    if perfect:
        invariants: tuple[int, ...] = ()
    else:
        ab = CosetMap(G, derived_subgroup(G), cap).quotient
        _, orders = abelian_group_basis(ab)
        invariants = tuple(orders)
    return StructureReport(
        series=tuple(series),
        level=level,
        perfect=perfect,
        min_generators=min_generators(G, mg_bound, cap=cap),
        mg_bound=mg_bound,
        abelianization_invariants=invariants,
    )


def min_generators(
    G: PermGroup, bound: int, cap: int = ENUMERATION_CAP
) -> int | None:
    """Least t <= bound such that some t-tuple generates G, else None.

    Seeded random sampling with an exhaustive sweep when the tuple space is
    small; beyond the exhaustive threshold a None answer is inconclusive.
    """
    if bound < 0:
        raise PreconditionError("bound must be nonnegative")
    if G.order == 1:
        return 0
    known = G.facts.get("min_generators")
    if known is not None:
        value, none_bound = known
        if value is not None:
            return value if value <= bound else None
        if bound <= none_bound:
            return None
    elements = None
    for t in range(1, bound + 1):
        if t == 1:
            # a cyclic group is abelian
            if is_abelian(G) and any(
                g.order() == G.order for g in enumerate_elements(G, cap)
            ):
                G.facts["min_generators"] = (1, 0)
                return 1
            continue
        found = False
        rng = random.Random(G.order * 1_000_003 + t)
        for _ in range(_MIN_GEN_TRIALS):
            tup = [G.sample(rng) for _ in range(t)]
            if generates(G, tup):
                found = True
                break
        if not found and G.order**t <= _EXHAUSTIVE_TUPLES:
            if elements is None:
                elements = enumerate_elements(G, cap)
            for tup in itertools.product(elements, repeat=t):
                if generates(G, tup):
                    found = True
                    break
        if found:
            G.facts["min_generators"] = (t, 0)
            return t
    G.facts["min_generators"] = (None, bound)
    return None


def is_in_Y(
    G: PermGroup, d: int, k: int, cap: int = ENUMERATION_CAP
) -> tuple[bool, str]:
    """Is G a d-generated perfect group whose star series reaches 1 within k steps?"""
    if not is_perfect(G):
        return False, "not perfect"
    if min_generators(G, d, cap=cap) is None:
        return False, f"no generating tuple of size at most {d} found"
    _, level = star_chain(G, cap)
    if level > k:
        return False, f"star series level {level} exceeds {k}"
    return True, "ok"


def split_star_trivial(
    W: PermGroup, cap: int = ENUMERATION_CAP
) -> tuple[PermGroup, PermGroup]:
    """Decompose a star-trivial group as (abelian part, semisimple part).

    The abelian part is the center, the semisimple part the derived
    subgroup; the direct decomposition is verified before returning.
    """
    if star_subgroup(W, cap).order != 1:
        raise PreconditionError("group is not star-trivial")
    A = center(W, cap)
    S = derived_subgroup(W)
    if A.order * S.order != W.order:
        raise PreconditionError("center and derived subgroup do not split the group")
    # A is central, so it meets S trivially iff |AS| = |A||S| = |W|; a
    # trivial part meets the other trivially
    AS = A.generators + S.generators
    if A.order > 1 and S.order > 1 and not generates(W, AS):
        raise PreconditionError("center meets the derived subgroup nontrivially")
    semisimple_factors(S, cap)
    return A, S


def semisimple_factors(S: PermGroup, cap: int = ENUMERATION_CAP) -> list[PermGroup]:
    """The simple direct factors of a semisimple group (errors otherwise)."""
    if S.order == 1:
        return []
    cached = S.facts.get("semisimple_factors")
    if cached is not None:
        return cached
    normals = normal_subgroups(S, cap)
    minimal = [
        N
        for N in normals
        if N.order > 1
        and not any(1 < M.order < N.order and _is_subgroup(M, N) for M in normals)
    ]
    product_order = 1
    gens = []
    for M in minimal:
        if is_abelian(M):
            raise PreconditionError("minimal normal subgroup is abelian")
        if len(normal_subgroups(M, cap)) != 2:
            raise PreconditionError("minimal normal subgroup is not simple")
        product_order *= M.order
        gens.extend(M.generators)
    if product_order != S.order:
        raise PreconditionError("minimal normal subgroups do not fill the group")
    if not generates(S, gens):
        raise PreconditionError("factors do not generate the group")
    S.facts["semisimple_factors"] = minimal
    return minimal


class InternalDirectProduct:
    """Component lookup for an internal direct product decomposition.

    With one nontrivial factor F (A = 1 in W = A x S, or S simple) the
    components of x are x in F's place and identities elsewhere, read off a
    membership test in F's chain; otherwise every product of factor elements
    is enumerated into a table.
    """

    def __init__(self, whole: PermGroup, factors, cap: int = ENUMERATION_CAP):
        self.whole = whole
        self.factors = list(factors)
        self._components: dict[Permutation, tuple[Permutation, ...]] = {}
        nontrivial = [i for i, F in enumerate(self.factors) if F.order != 1]
        self._only = nontrivial[0] if len(nontrivial) == 1 else None
        if self._only is not None:
            if self.factors[self._only].order != whole.order:
                raise PreconditionError("factors do not fill the group")
            return
        element_lists = [enumerate_elements(F, cap) for F in self.factors]
        for combo in itertools.product(*element_lists):
            x = whole.identity
            for c in combo:
                x = x * c
            if x in self._components:
                raise PreconditionError("decomposition is not direct")
            self._components[x] = combo
        if len(self._components) != whole.order:
            raise PreconditionError("factors do not fill the group")

    def components(self, x: Permutation) -> tuple[Permutation, ...]:
        if self._only is not None:
            F = self.factors[self._only]
            if x.degree != F.degree or x not in F:
                raise PreconditionError("element is not in the group")
            return tuple(
                x if i == self._only else G.identity
                for i, G in enumerate(self.factors)
            )
        try:
            return self._components[x]
        except KeyError:
            raise PreconditionError("element is not in the group") from None
