"""Conjugacy-class covering arithmetic in small simple groups.

A normal subset X of a simple group covers the whole group after finitely
many set products; the least such exponent is computed exactly here.  The
same layered product sets decompose any element as a bounded product of
conjugates of a generating tuple, which is how semisimple residues get
absorbed in the main construction.
"""

import random

from perfectcover import catalog
from perfectcover.covering import cover_tuples, covering_number, decompose_conjugate_product
from perfectcover.groups import conjugacy_class_of
from perfectcover.perms import format_cycles, parse_cycles
from perfectcover.products import DirectProduct, check_T

A5 = catalog.get("A5")
X = conjugacy_class_of(A5, parse_cycles("(1 2)(3 4)", 5))
cert = covering_number(A5, X)
print(f"involution class of A5: size {len(X)}, covering number e={cert.e}")
print(f"  power sizes {cert.power_sizes}")

# |C(m)| = |A5| / |m^A5|
centralizers = [A5.order // len(conjugacy_class_of(A5, m)) for m in A5.generators]
c, g = min(zip(centralizers, A5.generators))
print(
    f"generator with the smallest centralizer: {format_cycles(g)} "
    f"(|C| = {c} <= 60^(1/2))"
)

target = parse_cycles("(1 2)(3 4)", 5)
rows = decompose_conjugate_product(A5, target, A5.generators, 2)
print(f"{format_cycles(target)} as a product of conjugates of the generators:")
for t, row in enumerate(rows):
    for m, r in zip(A5.generators, row):
        print(f"  round {t}: {format_cycles(m)} ^ {format_cycles(r)}")

# the cover the construction builds T from: one generating pair per factor,
# combined componentwise; check_T asserts T is perfect and onto each factor
factors = (catalog.get("A5"), catalog.get("PSL27"))
tuples = cover_tuples(factors, 2, random.Random(1))
product = DirectProduct(factors)
T = product.subgroup(
    product.element({i: tup[c] for i, tup in enumerate(tuples)}) for c in range(2)
)
check_T(product, T, factors)
print(
    f"two-generator cover of A5 x PSL(2,7): order {T.order} "
    f"(full product: {T.order == 60 * 168})"
)
