"""Built-in permutation groups used throughout the tests and the CLI.

Each entry records its construction recipe and its documented order; the
self-test compares the documented order to the one computed from the
stabilizer chain.
"""

from __future__ import annotations

from .errors import InputError
from .groups import PermGroup
from .perms import Permutation

# Arithmetic of the field with four elements, encoded 0, 1, w, w+1 with
# w^2 = w + 1.  Addition is xor.
_F4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _sl25_points():
    return [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]


def _sl25_perm(matrix) -> Permutation:
    (m00, m01), (m10, m11) = matrix
    points = _sl25_points()
    index = {v: i for i, v in enumerate(points)}
    images = [
        index[((m00 * x + m01 * y) % 5, (m10 * x + m11 * y) % 5)]
        for x, y in points
    ]
    return Permutation(images)


def _psl27_perms():
    # Projective line over F_7: points 0..6 and infinity as point 7.
    shift = list(range(8))
    for x in range(7):
        shift[x] = (x + 1) % 7
    inv = [0] * 8
    inv[0] = 7
    inv[7] = 0
    for x in range(1, 7):
        inv[x] = (-pow(x, 5, 7)) % 7  # -1/x in F_7
    return Permutation(shift), Permutation(inv)


def _f4_affine_points():
    return [(a, b) for a in range(4) for b in range(4)]


def _f4_linear(matrix) -> Permutation:
    (m00, m01), (m10, m11) = matrix
    points = _f4_affine_points()
    index = {v: i for i, v in enumerate(points)}
    images = [
        index[
            (
                _F4_MUL[m00][x] ^ _F4_MUL[m01][y],
                _F4_MUL[m10][x] ^ _F4_MUL[m11][y],
            )
        ]
        for x, y in points
    ]
    return Permutation(images)


def _f4_translation(vector) -> Permutation:
    tx, ty = vector
    points = _f4_affine_points()
    index = {v: i for i, v in enumerate(points)}
    return Permutation([index[(x ^ tx, y ^ ty)] for x, y in points])


def _cycle(degree: int, *cycles) -> Permutation:
    return Permutation.from_cycles(degree, [tuple(a - 1 for a in c) for c in cycles])


class CatalogEntry:
    __slots__ = ("name", "degree", "generators", "order", "provenance")

    def __init__(
        self,
        name: str,
        degree: int,
        generators: tuple[Permutation, ...],
        order: int,
        provenance: str,
    ):
        self.name = name
        self.degree = degree
        self.generators = generators
        self.order = order
        self.provenance = provenance

    def group(self) -> PermGroup:
        return PermGroup(self.degree, self.generators)


def _entries() -> list[CatalogEntry]:
    shift7, inv7 = _psl27_perms()
    return [
        CatalogEntry(
            "A5", 5,
            (_cycle(5, (1, 2, 3, 4, 5)), _cycle(5, (1, 2, 3))),
            60, "alternating group on 5 points",
        ),
        CatalogEntry(
            "S3", 3,
            (_cycle(3, (1, 2)), _cycle(3, (1, 2, 3))),
            6, "symmetric group on 3 points",
        ),
        CatalogEntry(
            "V4", 4,
            (_cycle(4, (1, 2), (3, 4)), _cycle(4, (1, 3), (2, 4))),
            4, "Klein four group as double transpositions",
        ),
        CatalogEntry(
            "A4", 4,
            (_cycle(4, (1, 2, 3)), _cycle(4, (1, 2), (3, 4))),
            12, "alternating group on 4 points",
        ),
        CatalogEntry(
            "Z4", 4,
            (_cycle(4, (1, 2, 3, 4)),),
            4, "cyclic group of order 4",
        ),
        CatalogEntry(
            "SL25", 24,
            (_sl25_perm(((1, 1), (0, 1))), _sl25_perm(((0, 4), (1, 0)))),
            120, "SL(2,5) acting on the 24 nonzero vectors of F_5^2",
        ),
        CatalogEntry(
            "PSL27", 8,
            (shift7, inv7),
            168, "PSL(2,7) on the projective line over F_7 (8 points)",
        ),
        CatalogEntry(
            "A6", 6,
            (_cycle(6, (1, 2, 3, 4, 5)), _cycle(6, (4, 5, 6))),
            360, "alternating group on 6 points",
        ),
        CatalogEntry(
            "E16A5", 16,
            (
                _f4_linear(((1, 1), (0, 1))),
                _f4_linear(((0, 1), (1, 2))),
                _f4_translation((1, 0)),
                _f4_translation((0, 1)),
            ),
            960,
            "2^4:A5 affine on 16 points via A5 = SL(2,4) acting on F_4^2 = F_2^4",
        ),
        CatalogEntry(
            "A5xA5", 10,
            (
                _cycle(10, (1, 2, 3, 4, 5)),
                _cycle(10, (1, 2, 3)),
                _cycle(10, (6, 7, 8, 9, 10)),
                _cycle(10, (6, 7, 8)),
            ),
            3600, "A5 x A5 on 5 + 5 points",
        ),
    ]


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _entries()}


def get(name: str) -> PermGroup:
    try:
        return CATALOG[name].group()
    except KeyError:
        raise InputError(f"no catalog group named {name!r}") from None


def names() -> list[str]:
    return list(CATALOG)
