"""Permutation groups backed by a deterministic stabilizer chain.

A chain is built greedily: each generator in list order is sifted through
the chain so far, and only a non-identity residue extends it, resuming
Schreier-Sims at the level where the sift stopped (`StabilizerChain.extend`
is the same step).  The indices of the generators that extended it are its
`picks`; they generate the group, each lies outside the group of the
earlier ones, and `PermGroup.reduced_generators` returns them without
building another chain.  A redundant generator costs one sift.  There is
no randomness: base points are least moved points and orbits are
discovered breadth-first with strong generators in order, so orders,
membership tests and every derived computation are reproducible bit for
bit.  Normal closures extend one chain and keep its picks.

A chain may be given an order bound: the order of a group that provably
contains every generator it will see.  Once the product of its basic orbit
lengths reaches the bound, it stops: `__init__` skips the generators that
are left, `_complete` returns and `normal_closure` ends its conjugate loop.
That product never exceeds the order of the group the strong generators
generate, so reaching the bound means each basic orbit is already the full
orbit of its stabilizer and the partial BSGS is complete: every Schreier
generator and every later generator would sift to the identity, and the
unbounded run would change nothing more.  Levels, transversals, strong
generators and picks are therefore the unbounded run's, bit for bit.  A
bound is passed only where containment is definitional or was just
checked: samples of G, conjugates by G of elements of G, subgroups of G,
or elements sifted through G's chain first, as `generates` does.  A
generation test is `generates(G, xs)`; only the builder's own samples of G
(`covering`) and its Gaschutz candidates, products of elements of G
(`words.gaschutz_lift`), skip its sifts and compare orders alone.

The chain, `mulclose` and the class walks work on raw images through
`perms.kernel` and build a `Permutation` only for what they return: a
closure element, a class member.  A group's classes are walked once and
kept in its `facts`.  Each level stores the inverse of a transversal
element the first time a sift or a Schreier generator needs it
(`transversal_inverse`), so a sift step is one compose and no orbit point
that nothing reaches has its inverse built, and it keeps the strong
generators that fix the earlier base points as they are added, so no pass
filters them again.  Schreier-Sims checks each Schreier generator once: a
level records, since its orbit was last recomputed, the (orbit point,
strong generator) pairs it has checked, and it keeps the Schreier
generators that sifted to the identity.  Both stay true because the levels
below are complete whenever a level is processed and their group only
grows (Seress, *Permutation Group Algorithms*, 2003, ch. 4;
Holt-Eick-O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).

The independent oracle for all of this is :func:`mulclose`, a plain
breadth-first closure of the generating set.  It never consults the chain.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import repeat

from .errors import InputError, InternalError, PreconditionError, SizeLimitError
from .perms import Permutation, commutator, kernel, pack

ENUMERATION_CAP = 10**6
# The construction's cover generator budget.  It sits beside the cap so that
# the CLI parser can read both defaults without loading the builder.
DEFAULT_BUDGET = 61
_wrap = Permutation._trusted


def mulclose(generators, cap: int = ENUMERATION_CAP, degree: int | None = None):
    """BFS closure of a generating set; the brute-force element oracle.

    Returns all elements of the generated group in discovery order.
    Raises SizeLimitError when more than `cap` elements appear.
    """
    gens = [g for g in generators if not g.is_identity()]
    if degree is None:
        if not gens:
            raise InputError("mulclose needs a degree when no generator moves a point")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise InputError("degree mismatch in product")
    table, compose, _ = kernel(degree)
    tables = [table(g.images) for g in gens]
    elements = [pack(range(degree))]
    seen = set(elements)
    # appending to the list being walked makes the walk breadth-first
    for x in elements:
        for t in tables:
            y = compose(x, t)
            if y not in seen:
                if len(elements) >= cap:
                    raise SizeLimitError(f"closure exceeded cap {cap}")
                seen.add(y)
                elements.append(y)
    return [_wrap(x) for x in elements]


class _Level:
    """One level of the chain, on raw images.

    `gens` holds the (images, table) pairs of the strong generators that fix
    the earlier levels' points, in strong-generator order; a new strong
    generator joins every level up to and including the first whose point
    it moves.  `transversal[q]` maps the base point to q and `inverse[q]`,
    filled on first use, is the right-operand table of its inverse.
    `checked[k]` counts the leading entries s of `gens` whose Schreier
    generator at `orbit[k]` is known to lie in the deeper levels' group; it
    is reset, with `inverse`, whenever the orbit is recomputed.  `sifted`
    holds Schreier generators that sifted to the identity through the
    deeper levels.
    """

    __slots__ = ("point", "gens", "orbit", "transversal", "inverse", "checked", "sifted")

    def __init__(self, point: int, gens: list[tuple]):
        self.point = point
        self.gens = gens
        self.sifted = set()


class StabilizerChain:
    """Base, basic orbits and transversals for a permutation group.

    `picks` lists the indices of the generators that extended the chain
    while it was built, in order.  `bound`, when given, is the order of a
    group that contains every generator; the chain stops growing once its
    order reaches it (see the module docstring).
    """

    def __init__(self, degree: int, generators, bound: int | None = None):
        self.degree = degree
        self.bound = bound
        self._table, self._compose, self._invert = kernel(degree)
        self._ident = pack(range(degree))
        self.identity = _wrap(self._ident)
        self._gen_tables: list[tuple] = []
        self.levels: list[_Level] = []
        self.picks: list[int] = []
        for i, g in enumerate(generators):
            if g.degree != degree:
                raise InputError("generator degree mismatch")
            if self.full():
                continue
            if self._extend_images(g.images):
                self.picks.append(i)

    # -- construction -------------------------------------------------

    def _append_strong_gen(self, g) -> None:
        """Record images g as a strong generator at every level it joins."""
        pair = (g, self._table(g))
        self._gen_tables.append(pair)
        for lev in self.levels:
            lev.gens.append(pair)
            if g[lev.point] != lev.point:
                return

    def _append_level(self, g) -> None:
        """A new last level at the least point that images g, which fix the base, move."""
        point = next((p for p in range(self.degree) if g[p] != p), None)
        if point is None:
            raise InternalError("sift residue moves no point")
        if self.levels:
            last = self.levels[-1]
            b = last.point
            gens = [pair for pair in last.gens if pair[0][b] == b]
        else:
            gens = list(self._gen_tables)
        self.levels.append(_Level(point, gens))

    def _recompute_orbit(self, i: int) -> None:
        lev = self.levels[i]
        gens = lev.gens
        compose = self._compose
        transversal = {lev.point: self._ident}
        orbit = [lev.point]
        # appending to the list being walked makes the walk breadth-first
        for p in orbit:
            rep = transversal[p]
            for s, s_table in gens:
                q = s[p]
                if q not in transversal:
                    transversal[q] = compose(rep, s_table)
                    orbit.append(q)
        lev.orbit = orbit
        lev.transversal = transversal
        lev.inverse = {}
        lev.checked = [0] * len(orbit)

    def transversal_inverse(self, i: int, q: int):
        """The right-operand table of the inverse of level i's transversal
        element at orbit point q, built on first use."""
        lev = self.levels[i]
        t_inv = lev.inverse.get(q)
        if t_inv is None:
            t_inv = lev.inverse[q] = self._table(self._invert(lev.transversal[q]))
        return t_inv

    def _sift_from(self, g, start: int):
        """Strip images g through levels >= start; returns (residue, level reached)."""
        compose = self._compose
        levels = self.levels
        for i in range(start, len(levels)):
            lev = levels[i]
            p = g[lev.point]
            if p == lev.point:
                continue
            t_inv = lev.inverse.get(p)
            if t_inv is None:
                if p not in lev.transversal:
                    return g, i
                t_inv = self.transversal_inverse(i, p)
            g = compose(g, t_inv)
        return g, len(levels)

    def _complete(self, i: int) -> None:
        """Schreier-Sims on levels i down to 0; levels deeper than i are
        complete.  Returns early once the order reaches the bound."""
        while i >= 0:
            if self.full():
                return
            extended = self._process_level(i)
            if extended is None:
                i -= 1
            else:
                i = extended

    def _add_strong_gen(self, residue, j: int, first: int) -> None:
        """Append a sift residue (images) that stopped at level j; recompute orbits first..j."""
        self._append_strong_gen(residue)
        if j == len(self.levels):
            self._append_level(residue)
        for level in range(first, j + 1):
            self._recompute_orbit(level)

    def _process_level(self, i: int):
        """Sift the unchecked Schreier generators of level i; returns new work level or None.

        A checked pair, or a Schreier generator in `sifted`, lies in the
        group of levels i+1 and deeper, and that group only grows; since
        those levels are complete here, it would sift to the identity again.
        """
        lev = self.levels[i]
        gens = lev.gens
        n_gens = len(gens)
        compose, ident = self._compose, self._ident
        transversal, inverse, checked, sifted = (
            lev.transversal, lev.inverse, lev.checked, lev.sifted
        )
        transversal_inverse = self.transversal_inverse
        for k, p in enumerate(lev.orbit):
            done = checked[k]
            if done == n_gens:
                continue
            t_p = transversal[p]
            for s, s_table in gens[done:]:
                done += 1
                q = s[p]
                u = compose(t_p, s_table)
                if u == transversal[q]:
                    continue
                t_inv = inverse.get(q)
                if t_inv is None:
                    t_inv = transversal_inverse(i, q)
                schreier = compose(u, t_inv)
                if schreier in sifted:
                    continue
                residue, j = self._sift_from(schreier, i + 1)
                if residue == ident:
                    sifted.add(schreier)
                    continue
                checked[k] = done
                self._add_strong_gen(residue, j, i + 1)
                return j
            checked[k] = done
        return None

    def extend(self, g: Permutation) -> bool:
        """Add g to the group; False (and no change) when g is already a member."""
        if g.degree != self.degree:
            raise InputError("degree mismatch in chain extension")
        return self._extend_images(g.images)

    def _extend_images(self, g) -> bool:
        """`extend` for images of the chain's degree."""
        residue, j = self._sift_from(g, 0)
        if residue == self._ident:
            return False
        self._add_strong_gen(residue, j, 0)
        self._complete(j)
        return True

    # -- queries -------------------------------------------------------

    def order(self) -> int:
        n = 1
        for lev in self.levels:
            n *= len(lev.transversal)
        return n

    def full(self) -> bool:
        """Has the order reached the bound?  Then the chain is complete."""
        return self.bound is not None and self.order() >= self.bound

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise InputError("degree mismatch in membership test")
        return self._sift_from(g.images, 0)[0] == self._ident

    def base(self) -> list[int]:
        return [lev.point for lev in self.levels]

    def sample(self, rng) -> Permutation:
        """Uniform random element, drawn via the transversals."""
        compose, table = self._compose, self._table
        g = self._ident
        for lev in self.levels:
            p = lev.orbit[rng.randrange(len(lev.orbit))]
            g = compose(lev.transversal[p], table(g))
        return _wrap(g)


class PermGroup:
    """A finite permutation group with its stabilizer chain.

    `facts` caches what the structure queries compute from the group, keyed
    by the query: each is determined by the generators, which never change.
    """

    def __init__(self, degree: int, generators, bound: int | None = None):
        """`bound` is the order of a group known to contain the generators."""
        if degree < 1:
            raise InputError("degree must be positive")
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise InputError("generator degree mismatch")
        self.degree = degree
        self.generators = generators
        self.chain = StabilizerChain(degree, generators, bound)
        self._order = self.chain.order()
        self._reduced = tuple(generators[i] for i in self.chain.picks)

    @classmethod
    def _from_chain(cls, generators, chain: StabilizerChain, picks) -> PermGroup:
        """The group `chain` holds, listed by `generators`, which must
        generate it; `picks` index the generators that extended the chain.
        Builds no second chain."""
        G = cls.__new__(cls)
        G.degree = chain.degree
        G.generators = tuple(generators)
        G.chain = chain
        G._order = chain.order()
        G._reduced = tuple(G.generators[i] for i in picks)
        return G

    @cached_property
    def facts(self) -> dict:
        return {}

    @property
    def order(self) -> int:
        return self._order

    @property
    def identity(self) -> Permutation:
        return self.chain.identity

    def __contains__(self, g: Permutation) -> bool:
        return self.chain.contains(g)

    def contains_group(self, other: PermGroup) -> bool:
        return all(g in self for g in other.generators)

    def sample(self, rng) -> Permutation:
        return self.chain.sample(rng)

    def reduced_generators(self) -> tuple[Permutation, ...]:
        """The generators that extended the chain as it was built, in order:
        each lies outside the group of the earlier ones, and together they
        generate the group."""
        return self._reduced

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self._order})"


def enumerate_elements(G: PermGroup, cap: int = ENUMERATION_CAP) -> list[Permutation]:
    """All elements by BFS closure; errors if |G| exceeds the cap."""
    if G.order > cap:
        raise SizeLimitError(f"group order {G.order} exceeds cap {cap}")
    return mulclose(G.generators, cap=cap, degree=G.degree)


def from_elements(degree: int, elements) -> PermGroup:
    """Group generated by an element list, generated by the elements that
    extended its chain."""
    elements = list(elements)
    chain = StabilizerChain(degree, elements)
    picked = [elements[i] for i in chain.picks]
    return PermGroup._from_chain(picked, chain, range(len(picked)))


def generates(G: PermGroup, xs) -> bool:
    """Do the elements xs lie in G and generate it?  Each x is sifted
    through G's chain, so |G| bounds the chain of xs."""
    xs = list(xs)
    if not all(x in G for x in xs):
        return False
    return StabilizerChain(G.degree, xs, G.order).order() == G.order


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing `seeds` and closed under G-conjugation;
    it lies in G, so its chain is bounded by |G|."""
    seeds = list(seeds)
    for s in seeds:
        if s not in G:
            raise PreconditionError("seed is not an element of the ambient group")
    table, compose, _ = kernel(G.degree)
    conj = _conjugators(G)
    gens = [s for s in seeds if not s.is_identity()]
    chain = StabilizerChain(G.degree, gens, G.order)
    picks = list(chain.picks)
    queue = deque(s.images for s in gens)
    while queue and not chain.full():
        h_table = table(queue.popleft())
        for g_inv, g_table in conj:
            c = compose(compose(g_inv, h_table), g_table)
            if chain._extend_images(c):
                picks.append(len(gens))
                gens.append(_wrap(c))
                queue.append(c)
                if chain.full():
                    break
    return PermGroup._from_chain(gens, chain, picks)


def _conjugators(G: PermGroup) -> list[tuple]:
    """(images of g^-1, table of g) for each reduced generator g of G.

    The images of y ** g are compose(compose(g^-1, table(y)), table(g)).
    """
    table, _, invert = kernel(G.degree)
    return [(invert(g.images), table(g.images)) for g in G.reduced_generators()]


def _distinct_commutators(xs, ys) -> list[Permutation]:
    """The distinct nonidentity [x, y], in first-seen order."""
    seeds = {}
    for x in xs:
        for y in ys:
            c = commutator(x, y)
            if not c.is_identity():
                seeds[c] = None
    return list(seeds)


def derived_subgroup(G: PermGroup) -> PermGroup:
    """[G, G]: normal closure of commutators of generator pairs, computed
    once per group; G itself when G is perfect."""
    D = G.facts.get("derived")
    if D is None:
        gens = G.reduced_generators()
        D = normal_closure(G, _distinct_commutators(gens, gens))
        G.facts["derived"] = D = G if D.order == G.order else D
    return D


def is_perfect(G: PermGroup) -> bool:
    return derived_subgroup(G).order == G.order


def is_abelian(G: PermGroup) -> bool:
    gens = G.reduced_generators()
    return all(a * b == b * a for a in gens for b in gens)


def commutator_subgroup(G: PermGroup, H: PermGroup, K: PermGroup) -> PermGroup:
    """[H, K] for H, K <= G with at least one of them normal in G."""
    for sub in (H, K):
        if not all(g in G for g in sub.generators):
            raise PreconditionError("subgroup not contained in ambient group")
    if not (is_normal(G, H) or is_normal(G, K)):
        raise PreconditionError("neither argument is normal in the ambient group")
    joint = PermGroup(G.degree, tuple(H.generators) + tuple(K.generators), G.order)
    return normal_closure(joint, _distinct_commutators(H.generators, K.generators))


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    if not all(n in G for n in N.generators):
        return False
    return all(
        n.conjugate(g) in N
        for n in N.generators
        for g in G.reduced_generators()
    )


def center(G: PermGroup, cap: int = ENUMERATION_CAP) -> PermGroup:
    """Z(G): G if abelian, else the walk's singleton classes in enumeration order."""
    if is_abelian(G):
        return G
    central = [_wrap(z) for cls in conjugacy_classes(G, cap) if len(cls) == 1 for z in cls]
    return from_elements(G.degree, central)


def conjugation_orbit_images(G: PermGroup, x: Permutation) -> dict:
    """The class of x in G on raw images: the images of each member y
    mapped to the images of one r with x ** r == y.

    Breadth-first over the reduced generators, so members appear in a fixed
    discovery order; G is never enumerated.
    """
    if x not in G:
        raise PreconditionError("element is not in the group")
    table, compose, _ = kernel(G.degree)
    conj = _conjugators(G)
    orbit = {x.images: G.identity.images}
    queue = [x.images]
    # appending to the list being walked makes the walk breadth-first
    for y in queue:
        r = orbit[y]
        y_table = table(y)
        for g_inv, g_table in conj:
            z = compose(compose(g_inv, y_table), g_table)
            if z not in orbit:
                orbit[z] = compose(r, g_table)
                queue.append(z)
    return orbit


def conjugacy_classes(G: PermGroup, cap: int = ENUMERATION_CAP) -> list[dict]:
    """Each class of G as its `conjugation_orbit_images`, each led by the
    first element, in enumeration order, of no earlier class; walked once
    per group and kept, unchanged by its readers, in `G.facts`."""
    classes = G.facts.get("classes")
    if classes is None:
        # reversed, so that popitem() takes the elements in enumeration order
        remaining = dict.fromkeys(reversed([x.images for x in enumerate_elements(G, cap)]))
        classes = []
        while remaining:
            orbit = conjugation_orbit_images(G, _wrap(remaining.popitem()[0]))
            for y in orbit:
                remaining.pop(y, None)
            classes.append(orbit)
        G.facts["classes"] = classes
    return classes


def conjugacy_class_of(G: PermGroup, x: Permutation) -> list[Permutation]:
    """The class of x in G, with no full enumeration of G."""
    return [_wrap(y) for y in conjugation_orbit_images(G, x)]


class CosetMap:
    """The action of G on right cosets of a normal subgroup N: G/N acting
    regularly, the fallback of `products.quotient_map`.

    Cosets are identified by the least element they contain; coset 0 is N
    itself, so quotient permutations are determined by their image of 0.
    With N trivial the map is the identity on G; with N = G there is one
    coset, led by the identity, and nothing is enumerated.

    The map keeps the elements of N as raw images (`n_images`), and the
    least element of a coset Ng is the `min` of their products with g on
    images; bytes order like tuples of ints, so it is the same element as
    the least `Permutation`.  `reps` lists the least elements in discovery
    order, breadth-first from N over the generators of G.
    """

    def __init__(self, group: PermGroup, normal: PermGroup, cap: int = ENUMERATION_CAP):
        if not is_normal(group, normal):
            raise PreconditionError("subgroup is not normal")
        self.group = group
        self.normal = normal
        self.trivial = normal.order == 1
        self.full = not self.trivial and normal.order == group.order
        if self.trivial:
            self.quotient = group
            return
        if self.full:
            # N = G: one coset, whose least element is the identity
            self.reps = [group.identity]
            self.gen_images = [Permutation((0,)) for _ in group.generators]
            self.quotient = PermGroup(1, self.gen_images)
            return
        self.n_images = [n.images for n in enumerate_elements(normal, cap)]
        if group.order // normal.order > cap:
            raise SizeLimitError("quotient degree exceeds cap")
        table, compose, _ = kernel(group.degree)
        self._table, self._compose = table, compose
        gen_tables = [table(g.images) for g in group.generators]
        reps = [self._canonical(group.identity.images)]
        index = {reps[0]: 0}
        columns = [[] for _ in gen_tables]
        # appending to the list being walked makes the walk breadth-first
        for r in reps:
            for column, t in zip(columns, gen_tables):
                c = self._canonical(compose(r, t))
                i = index.get(c)
                if i is None:
                    i = index[c] = len(reps)
                    reps.append(c)
                column.append(i)
        self._index = index
        self.reps = [_wrap(r) for r in reps]
        self.gen_images = [Permutation(column) for column in columns]
        self.quotient = PermGroup(max(len(reps), 1), self.gen_images)
        if self.quotient.order * normal.order != group.order:
            raise InternalError("coset action order mismatch")

    def _canonical(self, g):
        """Images of the least element of the coset of images g."""
        return min(map(self._compose, self.n_images, repeat(self._table(g))))

    def apply(self, g: Permutation) -> Permutation:
        """Image of g in the quotient group."""
        if g not in self.group:
            raise PreconditionError("element is not in the group")
        if self.trivial:
            return g
        if self.full:
            return Permutation((0,))
        t, compose, canonical = self._table(g.images), self._compose, self._canonical
        return Permutation(
            tuple(self._index[canonical(compose(r.images, t))] for r in self.reps)
        )

    def lift(self, q: Permutation) -> Permutation:
        """The canonical representative of the coset q sends coset 0 to."""
        if self.trivial:
            return q
        return self.reps[q.images[0]]
