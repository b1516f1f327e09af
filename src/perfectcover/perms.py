"""Permutations on the points 0..degree-1.

Composition is fixed package-wide as left-to-right: (p * q)(i) = q(p(i)),
i.e. the left factor acts first.  Conjugation is x ** y = y^-1 * x * y and
the commutator is [x, y] = x^-1 * y^-1 * x * y.  Cycle notation in text is
1-based, matching the group file format.

`Permutation.images` holds the image of each point.  Up to degree 256
(`BYTES_MAX_DEGREE`) it is a `bytes` object, so a product is one
`bytes.translate` and an inverse one `bytes.maketrans`, both in C; above
that it is a tuple of ints.  The form follows from the degree alone.  Both
index, iterate and compare alike: bytes order like tuples of ints below
256, so sorting permutations or taking a `min` gives the same result in
either form (Seress, *Permutation Group Algorithms*, 2003, ch. 1).

Loops that run through many elements (the Schreier-Sims pass, `mulclose`,
class walks) keep raw images and build a `Permutation` only for what they
return.  `kernel(degree)` gives them the three steps they need, chosen from
the degree the way `pack` chooses the stored form:

- `table(b)`, the right-operand form of images b (bytes padded to 256);
- `compose(a, table(b))`, the images of a * b;
- `invert(a)`, the images of a^-1.
"""

from __future__ import annotations

import math
import re

from .errors import InputError

BYTES_MAX_DEGREE = 256
_IDENT = bytes(range(BYTES_MAX_DEGREE))


def pack(images) -> bytes | tuple:
    """The stored form of a sequence of point images: bytes when there are
    at most 256 of them, else a tuple of ints."""
    if len(images) <= BYTES_MAX_DEGREE:
        return bytes(images)
    return tuple(images)


def _pad(b: bytes) -> bytes:
    # every byte of a left operand is below len(b), so the tail is never read
    return b + _IDENT[len(b):]


def _invert_bytes(a: bytes) -> bytes:
    return bytes.maketrans(a, _IDENT[:len(a)])[:len(a)]


def _lookup(b: tuple):
    return b.__getitem__


def _compose_tuple(a: tuple, table) -> tuple:
    return tuple(map(table, a))


def _invert_tuple(a: tuple) -> tuple:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


_BYTES_KERNEL = (_pad, bytes.translate, _invert_bytes)
_TUPLE_KERNEL = (_lookup, _compose_tuple, _invert_tuple)


def kernel(degree: int):
    """(table, compose, invert) for raw images of this degree (module docstring)."""
    return _BYTES_KERNEL if degree <= BYTES_MAX_DEGREE else _TUPLE_KERNEL


class Permutation:
    """An immutable permutation of 0..degree-1.

    `images[i]` is the image of point i.  `images` is `bytes` when the
    degree is at most 256 and a tuple of ints above that, whichever
    constructor built the permutation; read it by index, iteration or
    `tuple(p.images)`, never by its type.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise InputError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[i] = True
        _set_images(self, pack(images))

    @classmethod
    def _trusted(cls, images: bytes | tuple) -> Permutation:
        """A permutation from images already known to be one, in their
        stored form (see `pack`); no checks.

        Only for images that are a permutation by construction, such as a
        product or an inverse; input from outside goes through the validating
        constructor, `from_cycles` or `parse_cycles`.
        """
        p = _new(cls)
        _set_images(p, images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> Permutation:
        """Build from disjoint 0-based cycles, e.g. [(0, 1, 2)]."""
        images = list(range(degree))
        moved: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                if not 0 <= a < degree:
                    raise InputError(f"point {a} out of range for degree {degree}")
            if len(set(cycle)) != len(cycle):
                raise InputError(f"repeated point in cycle {cycle!r}")
            # a later cycle would silently overwrite an earlier one's images
            if not moved.isdisjoint(cycle):
                raise InputError(f"cycle {cycle!r} shares a point with an earlier cycle")
            moved.update(cycle)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        a = self.images
        b = other.images
        n = len(a)
        if n != len(b):
            raise InputError("degree mismatch in product")
        p = _new(Permutation)
        if n <= BYTES_MAX_DEGREE:
            _set_images(p, a.translate(_pad(b)))
        else:
            _set_images(p, _compose_tuple(a, _lookup(b)))
        return p

    def inverse(self) -> Permutation:
        a = self.images
        if len(a) <= BYTES_MAX_DEGREE:
            return Permutation._trusted(_invert_bytes(a))
        return Permutation._trusted(_invert_tuple(a))

    def __pow__(self, n: int) -> Permutation:
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation._trusted(pack(range(self.degree)))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, by: Permutation) -> Permutation:
        """self ** by = by^-1 * self * by."""
        a, b = self.images, by.images
        if len(a) != len(b):
            raise InputError("degree mismatch in product")
        table, compose, invert = kernel(len(a))
        return Permutation._trusted(compose(compose(invert(b), table(a)), table(b)))

    def is_identity(self) -> bool:
        a = self.images
        if len(a) <= BYTES_MAX_DEGREE:
            return _IDENT.startswith(a)
        return a == tuple(range(len(a)))

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        return math.lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: Permutation):
        return self.images < other.images

    def __le__(self, other: Permutation):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_cycles(self)!r})"


_new = object.__new__
_set_images = Permutation.images.__set__


def commutator(x: Permutation, y: Permutation) -> Permutation:
    """[x, y] = x^-1 y^-1 x y."""
    a, b = x.images, y.images
    if len(a) != len(b):
        raise InputError("degree mismatch in product")
    table, compose, invert = kernel(len(a))
    return Permutation._trusted(
        compose(compose(compose(invert(a), table(invert(b))), table(a)), table(b))
    )


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation, '()' for the identity."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(a + 1) for a in c) + ")" for c in cycles)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation such as '(1 2 3)(4 5)'."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty permutation text")
    consumed = 0
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[consumed:m.start()].strip():
            raise InputError(f"unexpected text in permutation: {text!r}")
        consumed = m.end()
        body = m.group(1).replace(",", " ").split()
        cycle = []
        for token in body:
            try:
                point = int(token)
            except ValueError:
                raise InputError(f"bad point {token!r} in {text!r}") from None
            if not 1 <= point <= degree:
                raise InputError(f"point {point} out of range 1..{degree}")
            cycle.append(point - 1)
        if len(set(cycle)) != len(cycle):
            raise InputError(f"repeated point in cycle ({m.group(1)})")
        cycles.append(tuple(cycle))
    if stripped[consumed:].strip():
        raise InputError(f"unexpected text in permutation: {text!r}")
    return Permutation.from_cycles(degree, cycles)
