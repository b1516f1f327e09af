"""The characteristic series behind the whole construction.

For each catalog group, iterate the star operator (intersection of all
normal subgroups with abelian or simple quotient) until the trivial group
appears.  The number of steps is the level; perfect groups of level at
most k are exactly the inputs the construction accepts.
"""

from perfectcover import catalog
from perfectcover.structure import split_star_trivial, star_series

for name in ("A5", "SL25", "E16A5", "S3", "A5xA5"):
    G = catalog.get(name)
    report = star_series(G)
    orders = " > ".join(str(H.order) for H in report.series)
    print(
        f"{name:7s} series {orders:18s} level={report.level_text} "
        f"perfect={report.perfect} dmin={report.dmin_text}"
    )

print()
print("star-trivial groups split as (abelian) x (semisimple):")
for name in ("A5", "V4", "A5xA5"):
    G = catalog.get(name)
    A, S = split_star_trivial(G)
    print(f"  {name:6s} = A of order {A.order} x S of order {S.order}")
