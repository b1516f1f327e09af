"""Abelian normal subgroups as integer-matrix modules.

The translation subgroup of the affine group 2^4:A5 is a rank-4 module
over F_2 for the conjugation action.  Commutator equations k = prod [q, a]
become linear systems over the basis orders, solved by Smith normal form
and verified by direct group arithmetic.
"""

import random

from perfectcover import catalog
from perfectcover.gmodule import (
    GModule,
    augmentation_submodule,
    is_perfect_module,
    solve_commutator_decomposition,
)
from perfectcover.groups import enumerate_elements, normal_closure
from perfectcover.perms import commutator, format_cycles

G = catalog.get("E16A5")
A = normal_closure(G, [G.generators[2], G.generators[3]])
print(f"carrier: translation subgroup of order {A.order}")

M = GModule(G, A)
print(f"module rank {M.rank}, basis orders {M.orders}")
print("action matrix of the first linear generator:")
for row in M.matrix_for(G.generators[0]):
    print("   ", row)

aug = augmentation_submodule(M)
print(f"augmentation submodule has {aug.size} elements (the whole carrier)")
print("perfect module:", is_perfect_module(aug))

rng = random.Random(4)
target = rng.choice(enumerate_elements(A))
qs = solve_commutator_decomposition(M, G.generators[:2], target)
print(f"decomposing {format_cycles(target)}:")
check = G.identity
for q, a in zip(qs, G.generators):
    print(f"  [{format_cycles(q)}, {format_cycles(a)}]")
    check = check * commutator(q, a)
print("product equals target:", check == target)
