"""Abelian normal subgroups as integer-matrix modules.

The translation subgroup of the affine group 2^4:A5 is a rank-4 module
over F_2 for the conjugation action.  Elements become coordinate vectors
by sifting, so nothing walks the carrier's elements.  The augmentation
submodule [A, G] is the commutator subgroup, computed on groups.
Commutator equations k = prod [q, a] become linear systems over the basis
orders, solved by Smith normal form and verified by direct group
arithmetic.
"""

from perfectcover import catalog
from perfectcover.gmodule import GModule, solve_commutator_decomposition
from perfectcover.groups import commutator_subgroup, normal_closure
from perfectcover.perms import commutator, format_cycles

G = catalog.get("E16A5")
A = normal_closure(G, [G.generators[2], G.generators[3]])
print(f"carrier: translation subgroup of order {A.order}")

M = GModule(G, A)
print(f"module rank {M.rank}, basis orders {M.orders}")
print("action matrix of the first linear generator:")
for row in M.matrix_for(G.generators[0]):
    print("   ", row)

B = commutator_subgroup(G, A, G)
print(f"augmentation submodule [A, G] has {B.order} elements (the whole carrier)")
print(f"  generated by {len(B.reduced_generators())} elements")
print("perfect module:", commutator_subgroup(G, B, G).order == B.order)

target = M.decode((1, 0, 0, 1))
print(f"target coordinates {M.encode(target)}, in the submodule:", target in B)
qs = solve_commutator_decomposition(M, G.generators[:2], target)
print(f"decomposing {format_cycles(target)}:")
check = G.identity
for q, a in zip(qs, G.generators):
    print(f"  [{format_cycles(q)}, {format_cycles(a)}]")
    check = check * commutator(q, a)
print("product equals target:", check == target)
