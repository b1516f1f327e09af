"""Commutator words and generator lifting.

In a perfect group every element is a value of a word with zero exponent
sums.  Such words survive central adjustments of their arguments, which is
what lets generators of a quotient be repaired into generators of the
full group (the lifting lemma demonstrated second).
"""

from perfectcover import catalog
from perfectcover.groups import PermGroup, center, derived_subgroup
from perfectcover.perms import format_cycles, parse_cycles
from perfectcover.words import commutator_words, evaluate_word, gaschutz_lift

A5 = catalog.get("A5")
target = parse_cycles("(1 2 3)", 5)
(w,) = commutator_words(A5, A5.generators, [target])
print(f"target (1 2 3) as a word in the generators: {w}")
print(f"  exponent sums: {w.exponent_sums()}  (all zero: in [F, F])")
print(f"  evaluates back to target: {evaluate_word(w, A5.generators) == target}")

print()
S3 = catalog.get("S3")
A3 = derived_subgroup(S3)
reps = (parse_cycles("(1 2)", 3), S3.identity)
lifts = gaschutz_lift(S3, A3, reps)
print("lifting coset representatives of A3 in S3:")
for rep, lift in zip(reps, lifts):
    print(f"  {format_cycles(rep):8s} -> {format_cycles(lift)}")
print("  lifted tuple generates S3:", PermGroup(3, lifts).order == 6)

SL = catalog.get("SL25")
unchanged = gaschutz_lift(SL, center(SL), SL.generators)
print("already-generating representatives come back unchanged:",
      tuple(unchanged) == tuple(SL.generators))
