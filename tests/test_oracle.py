"""The permutation kernel against sympy.combinatorics, which shares no code
with it: group orders, membership, derived subgroups, centers and normal
closures on every catalog group, on subgroups generated by products of
catalog generators, and on the group files W2A5, W3A5 and W7A5.  sympy is a
test-only dependency; without it this module is skipped."""

import pathlib
import random

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from perfectcover.catalog import CATALOG  # noqa: E402
from perfectcover.groupfile import parse_group_file  # noqa: E402
from perfectcover.groups import (  # noqa: E402
    PermGroup,
    center,
    derived_subgroup,
    normal_closure,
)
from perfectcover.perms import Permutation  # noqa: E402

SymPerm = sympy_comb.Permutation
SymGroup = sympy_comb.PermutationGroup
DATA = pathlib.Path(__file__).parent / "data"
# C_p^4 : A5 for p = 2, 3 and 7, each with a module of p^4 elements
GROUP_FILES = ("W2A5", "W3A5", "W7A5")


def _sym(p: Permutation):
    return SymPerm(list(p.images))


def _random_word(rng, gens, length):
    return [rng.choice(gens) for _ in range(length)]


def _product_both(word, degree):
    """The product of a word in both kernels, left factor acting first in both."""
    ours = Permutation.identity(degree)
    theirs = SymPerm(list(range(degree)))
    for g in word:
        ours = ours * g
        theirs = theirs * _sym(g)
    assert list(ours.images) == list(theirs.array_form)
    return ours


def _product_subgroups(rng, G: PermGroup, count=2):
    """Subgroups generated by two products of a few of G's generators."""
    subs = []
    for _ in range(count):
        gens = [
            _product_both(_random_word(rng, G.generators, rng.randint(1, 4)), G.degree)
            for _ in range(2)
        ]
        subs.append(PermGroup(G.degree, gens))
    return subs


def _groups():
    rng = random.Random(2003)
    out = []
    for name, entry in CATALOG.items():
        G = entry.group()
        out.append((name, G))
        out.extend(
            (f"{name}-sub{i}", H) for i, H in enumerate(_product_subgroups(rng, G))
        )
    out.extend((name, parse_group_file(str(DATA / f"{name}.grp"))) for name in GROUP_FILES)
    return out


GROUPS = _groups()


@pytest.mark.parametrize("name,G", GROUPS, ids=[name for name, _ in GROUPS])
def test_kernel_agrees_with_sympy(name, G):
    rng = random.Random(name)
    S = SymGroup([_sym(g) for g in G.generators])
    assert G.order == S.order(), "order"

    # random products of generators are members of both
    for _ in range(10):
        g = _product_both(_random_word(rng, G.generators, rng.randint(1, 8)), G.degree)
        assert g in G and S.contains(_sym(g))

    # random elements of the full symmetric group: both kernels agree
    for _ in range(20):
        images = list(range(G.degree))
        rng.shuffle(images)
        x = Permutation(images)
        assert (x in G) == S.contains(_sym(x)), x

    assert derived_subgroup(G).order == S.derived_subgroup().order(), "derived"
    assert center(G).order == S.center().order(), "center"

    seed = _product_both(_random_word(rng, G.generators, 3), G.degree)
    closure = normal_closure(G, [seed])
    assert closure.order == S.normal_closure(_sym(seed)).order(), "normal closure"
