"""Free-group words, evaluation, commutator-word search and generator lifting.

Words are stored freely reduced over an abstract alphabet x_1..x_m with
exponents +-1 per letter.  A word lies in the commutator subgroup of the
free group exactly when every letter index has total exponent sum zero;
that is the membership certificate this module hands out and checks.

The commutator-word search runs on raw images through `perms.kernel`.
`word_table` is a breadth-first walk that keeps, for each element, only
its parent and the letter that reached it.  The search walks classes in
that order until every target is answered, and builds a `Word` only for
the witnesses used (Seress, *Permutation Group Algorithms*, 2003, ch. 1).

`gaschutz_lift` tries the tuples of N^k in a seeded order: all of them,
over shuffled enumerations of N, when there are at most 10^6, and
otherwise draws from N's chain, so a large N is never enumerated.
"""

from __future__ import annotations

import itertools
import random
import re

from .errors import (
    InputError,
    InternalError,
    PreconditionError,
    SearchError,
    SizeLimitError,
)
from .groups import (
    ENUMERATION_CAP,
    PermGroup,
    StabilizerChain,
    conjugation_orbit_images,
    derived_subgroup,
    enumerate_elements,
    generates,
    is_normal,
)
from .perms import Permutation, kernel, pack
from .structure import min_generators


def _reduce(letters):
    stack: list[tuple[int, int]] = []
    for idx, exp in letters:
        if exp not in (1, -1):
            raise InputError("letter exponents must be +1 or -1")
        if stack and stack[-1] == (idx, -exp):
            stack.pop()
        else:
            stack.append((idx, exp))
    return tuple(stack)


class Word:
    """A freely reduced word over x_1..x_{size}; letters are (0-based index, +-1).

    A value: words with the same size and letters are equal and hash alike.
    """

    __slots__ = ("size", "letters")

    def __init__(self, size: int, letters: tuple[tuple[int, int], ...]):
        for idx, _ in letters:
            if not 0 <= idx < size:
                raise InputError(f"letter index {idx} out of range for size {size}")
        self.size = size
        self.letters = letters

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.size == other.size and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.size, self.letters))

    def __repr__(self) -> str:
        return f"Word(size={self.size!r}, letters={self.letters!r})"

    @classmethod
    def make(cls, size: int, letters) -> Word:
        return cls(size, _reduce(letters))

    @classmethod
    def empty(cls, size: int) -> Word:
        return cls(size, ())

    def __mul__(self, other: Word) -> Word:
        if self.size != other.size:
            raise InputError("alphabet size mismatch")
        return Word.make(self.size, self.letters + other.letters)

    def inverse(self) -> Word:
        return Word(self.size, tuple((i, -e) for i, e in reversed(self.letters)))

    def commutator(self, other: Word) -> Word:
        return self.inverse() * other.inverse() * self * other

    def exponent_sums(self) -> list[int]:
        sums = [0] * self.size
        for idx, exp in self.letters:
            sums[idx] += exp
        return sums

    @property
    def in_commutator_subgroup(self) -> bool:
        return all(s == 0 for s in self.exponent_sums())

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^-1" for i, e in self.letters
        )


_LETTER_RE = re.compile(r"^x(\d+)(\^-1)?$")


def parse_word(text: str, size: int) -> Word:
    """Parse the serialization produced by str(word), e.g. 'x1 x2 x1^-1 x2^-1'."""
    text = text.strip()
    if text in ("", "e"):
        return Word.empty(size)
    letters = []
    for token in text.split():
        m = _LETTER_RE.match(token)
        if not m:
            raise InputError(f"bad word letter {token!r}")
        idx = int(m.group(1)) - 1
        letters.append((idx, -1 if m.group(2) else 1))
    return Word.make(size, letters)


def evaluate_word(w: Word, perms) -> Permutation:
    """Substitute a tuple of permutations into w, composing left to right."""
    perms = tuple(perms)
    if len(perms) < w.size:
        raise InputError(
            f"word needs {w.size} values but only {len(perms)} were supplied"
        )
    if not perms:
        raise InputError("cannot evaluate a word over an empty tuple")
    degree = perms[0].degree
    result = Permutation.identity(degree)
    inverses = {}
    for idx, exp in w.letters:
        if exp == 1:
            result = result * perms[idx]
        else:
            inv = inverses.get(idx)
            if inv is None:
                inv = inverses[idx] = perms[idx].inverse()
            result = result * inv
    return result


def word_table(gens, degree: int, cap: int = ENUMERATION_CAP) -> dict:
    """Shortest-first words for every element of the generated group, as
    parent pointers on raw images.

    Maps the images of each element y to (images of x, (i, +-1)), where x
    is the element y was first reached from and y = x * gens[i]^(+-1); the
    identity maps to None.  `_word_of` reads a word back; `commutator_words`
    leads its classes with table elements in this order.
    """
    table, compose, invert = kernel(degree)
    moves = []
    for i, g in enumerate(gens):
        if g.degree != degree:
            raise InputError("degree mismatch in product")
        if g.is_identity():
            continue
        moves.append((table(g.images), (i, 1)))
        moves.append((table(invert(g.images)), (i, -1)))
    identity = pack(range(degree))
    parents = {identity: None}
    walk = [identity]
    # appending to the list being walked makes the walk breadth-first
    for x in walk:
        for t, letter in moves:
            y = compose(x, t)
            if y not in parents:
                if len(parents) >= cap:
                    raise SizeLimitError(f"word table exceeded cap {cap}")
                parents[y] = (x, letter)
                walk.append(y)
    return parents


def _word_of(table: dict, images, m: int) -> Word:
    """The word of `word_table` for the element with these images.

    A breadth-first path never cancels: a step undoing the last letter
    lands on the parent, which is already in the table.
    """
    letters = []
    step = table[images]
    while step is not None:
        images, letter = step
        letters.append(letter)
        step = table[images]
    letters.reverse()
    return Word.make(m, letters)


_MAX_WORD_LENGTH = 256


def commutator_words(
    G: PermGroup, gens, targets, cap: int = ENUMERATION_CAP
) -> list[Word]:
    """For each target, a word w with zero exponent sums and w(gens) = target.

    Works for perfect G: every element is then a bounded product of
    commutators of group elements, each of which turns into a commutator
    of generator words.  As {[u, v] : v in G} = u^-1 * class(u), a pool of
    commutator values grows class by class, each led by the first unwalked
    `word_table` element, until each target is a new value k, k * k2 or
    k1 * k with k1, k2 pooled; the first such k in walk order answers it,
    whatever the other targets.  Words are at most 256 letters long.
    """
    gens = tuple(gens)
    targets = tuple(targets)
    m = len(gens)
    for target in targets:
        if target not in G:
            raise PreconditionError("target is not an element of the group")
    if derived_subgroup(G).order != G.order:
        raise PreconditionError("group is not perfect")
    if all(target.is_identity() for target in targets):
        return [Word.empty(m) for _ in targets]

    table = word_table(gens, G.degree, cap)
    if G.order > len(table):
        raise PreconditionError("the given tuple does not generate the group")
    to_table, compose, invert = kernel(G.degree)
    pending = {i: t.images for i, t in enumerate(targets) if not t.is_identity()}
    tables = {i: to_table(t) for i, t in pending.items()}
    answers = {}  # target index -> the witness pairs of its pool values
    pool = {}  # commutator value [u, v] -> its first witness pair (u, v)
    walked = set()
    for u in (y for y in table if y not in walked):
        if not pending:
            break
        orbit = conjugation_orbit_images(G, Permutation._trusted(u))
        walked.update(orbit)
        u_inv = invert(u)
        for x, v in orbit.items():
            k = compose(u_inv, to_table(x))
            if k in pool:
                continue
            pool[k] = pair = (u, v)
            k_inv = invert(k)
            for i, t in list(pending.items()):
                if t == k:
                    answers[i] = (pair,)
                elif (rest := compose(k_inv, tables[i])) in pool:
                    answers[i] = (pair, pool[rest])
                elif (rest := compose(t, to_table(k_inv))) in pool:
                    answers[i] = (pool[rest], pair)
                else:
                    continue
                del pending[i]
    if pending:
        raise SearchError("target is not a product of at most two commutators")

    words = []
    for i, target in enumerate(targets):
        w = Word.empty(m)
        for u, v in answers.get(i, ()):
            w = w * _word_of(table, u, m).commutator(_word_of(table, v, m))
        if len(w) > _MAX_WORD_LENGTH:
            raise SearchError(
                f"shortest found word has {len(w)} letters, "
                f"over the cap of {_MAX_WORD_LENGTH}"
            )
        if not w.in_commutator_subgroup:
            raise InternalError("constructed word has a nonzero exponent sum")
        if evaluate_word(w, gens) != target:
            raise InternalError("constructed word does not evaluate to its target")
        words.append(w)
    return words


_EXHAUSTIVE_LIFTS = 10**6
_RANDOM_LIFT_TRIALS = 10**5


def gaschutz_lift(
    G: PermGroup,
    N: PermGroup,
    coset_reps,
    rng=None,
    cap: int = ENUMERATION_CAP,
) -> list[Permutation]:
    """Adjust coset representatives within their cosets of N so they generate G.

    Requires N normal in G, the cosets a_i N to generate G/N, and
    k = len(coset_reps) at least the minimal number of generators of G;
    under those hypotheses a lift always exists, so an exhaustive search
    failure aborts as an internal error.  Each a_i is checked to lie in G
    and each n_i lies in N <= G, so |G| bounds the chain of a candidate
    tuple a_i n_i, and no candidate is sifted into G.
    """
    reps = list(coset_reps)
    k = len(reps)
    if rng is None:
        rng = random.Random(0)
    if not is_normal(G, N):
        raise PreconditionError("subgroup is not normal")
    for a in reps:
        if a not in G:
            raise PreconditionError("representative is not in the group")
    if not generates(G, tuple(reps) + tuple(N.generators)):
        raise PreconditionError("the cosets do not generate the quotient")
    d = min_generators(G, k)
    if d is None:
        raise PreconditionError(f"group needs more than {k} generators")

    def generating(members) -> bool:
        return StabilizerChain(G.degree, members, G.order).order() == G.order

    if generating(reps):
        return reps

    exhaustive = N.order**k <= _EXHAUSTIVE_LIFTS
    if exhaustive:
        elements = enumerate_elements(N, cap)
        axes = []
        for _ in range(k):
            axis = list(elements)
            rng.shuffle(axis)
            axes.append(axis)
        candidates = itertools.product(*axes)
    else:
        candidates = (
            [N.sample(rng) for _ in range(k)] for _ in range(_RANDOM_LIFT_TRIALS)
        )
    for tup in candidates:
        lifted = [a * n for a, n in zip(reps, tup)]
        if generating(lifted):
            return lifted
    if exhaustive:
        raise InternalError(
            "exhaustive lift search failed although the hypotheses hold"
        )
    raise SearchError("random lift search exhausted its trial budget")
