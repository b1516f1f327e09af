"""Conjugacy-class covering arithmetic in small simple groups.

A normal subset X of a simple group covers the whole group after finitely
many set products; the least such exponent is computed exactly here.  The
same layered product sets decompose any element as a bounded product of
conjugates of a generating tuple, which is how semisimple residues get
absorbed in the main construction.
"""

from perfectcover import catalog
from perfectcover.covering import (
    covering_number,
    decompose_conjugate_product,
    pick_small_centralizer_gen,
    semisimple_cover,
)
from perfectcover.groups import centralizer, conjugacy_class_of
from perfectcover.perms import format_cycles, parse_cycles

A5 = catalog.get("A5")
X = conjugacy_class_of(A5, parse_cycles("(1 2)(3 4)", 5))
cert = covering_number(A5, X)
print(f"involution class of A5: size {len(X)}, covering number e={cert.e}")
print(f"  power sizes {cert.power_sizes}")

idx = pick_small_centralizer_gen(A5, A5.generators)
g = A5.generators[idx]
print(
    f"generator with the smallest centralizer: {format_cycles(g)} "
    f"(|C| = {centralizer(A5, g).order} <= 60^(1/2))"
)

target = parse_cycles("(1 2)(3 4)", 5)
rows = decompose_conjugate_product(A5, target, A5.generators, 2)
print(f"{format_cycles(target)} as a product of conjugates of the generators:")
for t, row in enumerate(rows):
    for m, r in zip(A5.generators, row):
        print(f"  round {t}: {format_cycles(m)} ^ {format_cycles(r)}")

cover = semisimple_cover((catalog.get("A5"), catalog.get("PSL27")), budget=2, seed=1)
print(
    f"two-generator cover of A5 x PSL(2,7): order {cover.group.order} "
    f"(full product: {cover.full_product})"
)
