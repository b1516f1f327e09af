"""End to end: one perfect group covering a whole family.

Runs the inductive construction on the family (SL(2,5), 2^4:A5), both of
which need two extension steps over their semisimple tops, writes the
certificate, and re-verifies it from scratch with the independent checker.
"""

import tempfile

from perfectcover import catalog
from perfectcover.certificates import (
    load_certificate,
    serialize_certificate,
    verify_certificate,
    write_certificate,
)
from perfectcover.construction import construct
from perfectcover.groups import derived_subgroup

family = (catalog.get("SL25"), catalog.get("E16A5"))
cert = construct(family, d=2, k=2, names=("SL25", "E16A5"), seed=7, budget=3)

gamma = cert.gamma
print(f"family orders: {[G.order for G in family]}")
print(f"gamma order {gamma.order} on {cert.product.degree} points")
print("gamma is perfect:", derived_subgroup(gamma).order == gamma.order)
for j, G in enumerate(family):
    print(
        f"  projection onto factor {j}: order "
        f"{cert.product.projection_of(gamma, j).order} of {G.order}"
    )

for lvl in cert.levels:
    t_count = len(lvl.tdata.values) if lvl.tdata else 0
    print(
        f"level k={lvl.k_level}: m={lvl.aligned.m} generators, "
        f"{len(lvl.qdata.values)} distinct Q generators, "
        f"{t_count} distinct T generators"
    )

with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
    path = fh.name
write_certificate(serialize_certificate(cert), path)
report = verify_certificate(load_certificate(path))
print(f"certificate at {path}")
print("independent verification:", "valid" if report.valid else "INVALID")
for line in report.lines():
    print(" ", line)
