"""Permutation groups: construction, orders, membership, conjugacy.

Walks through the kernel on the icosahedral rotation group A5: builds it
from two generators, cross-checks the stabilizer-chain order against a
plain breadth-first closure, and looks at its class structure.
"""

from perfectcover.groups import (
    PermGroup,
    conjugacy_classes,
    derived_subgroup,
    enumerate_elements,
    mulclose,
)
from perfectcover.perms import Permutation, parse_cycles

a = parse_cycles("(1 2 3 4 5)", 5)
b = parse_cycles("(1 2 3)", 5)
A5 = PermGroup(5, [a, b])

print("A5 from two generators")
print("  order via stabilizer chain:", A5.order)
print("  order via BFS closure:     ", len(mulclose(A5.generators, degree=5)))

print("  (1 2 3) is a member:", parse_cycles("(1 2 3)", 5) in A5)
print("  (1 2) is a member:  ", parse_cycles("(1 2)", 5) in A5)

print("  perfect:", derived_subgroup(A5).order == A5.order)

elements = enumerate_elements(A5)
print("conjugacy classes:")
for orbit in conjugacy_classes(A5):
    rep = Permutation(next(iter(orbit)))
    # the centralizer of rep, by filtering the element list
    centralizer = sum(1 for h in elements if h * rep == rep * h)
    print(
        f"  size {len(orbit):2d}  centralizer {centralizer:2d}  "
        f"product {len(orbit) * centralizer}"
    )

assert len(elements) == 60
print("all 60 elements enumerate without duplicates")
