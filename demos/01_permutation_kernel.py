"""Permutation groups: construction, orders, membership, conjugacy.

Walks through the kernel on the icosahedral rotation group A5: builds it
from two generators, cross-checks the stabilizer-chain order against a
plain breadth-first closure, and looks at its class structure.
"""

from perfectcover.groups import (
    PermGroup,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    enumerate_elements,
    mulclose,
)
from perfectcover.perms import parse_cycles

a = parse_cycles("(1 2 3 4 5)", 5)
b = parse_cycles("(1 2 3)", 5)
A5 = PermGroup(5, [a, b])

print("A5 from two generators")
print("  order via stabilizer chain:", A5.order)
print("  order via BFS closure:     ", len(mulclose(A5.generators, degree=5)))

print("  (1 2 3) is a member:", parse_cycles("(1 2 3)", 5) in A5)
print("  (1 2) is a member:  ", parse_cycles("(1 2)", 5) in A5)

print("  perfect:", derived_subgroup(A5).order == A5.order)

print("conjugacy classes:")
for cls in conjugacy_classes(A5):
    rep = cls[0]
    print(
        f"  size {len(cls):2d}  centralizer {centralizer(A5, rep).order:2d}  "
        f"product {len(cls) * centralizer(A5, rep).order}"
    )

assert len(enumerate_elements(A5)) == 60
print("all 60 elements enumerate without duplicates")
