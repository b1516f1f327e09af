"""End to end: one perfect group covering a whole family.

Runs the inductive construction on the family (SL(2,5), 2^4:A5), both of
which need two extension steps over their semisimple tops, writes the
certificate, and re-verifies it from scratch with the independent checker.
"""

import os
import tempfile

from perfectcover import catalog
from perfectcover.certificates import (
    dumps_certificate,
    load_certificate,
    serialize_certificate,
    verify_certificate,
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
    print(
        f"level k={lvl.k}: m={lvl.m} generators, "
        f"{len(lvl.q_values)} distinct Q generators, "
        f"{len(lvl.t_values)} distinct T generators"
    )

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "certificate.json")
    with open(path, "w") as fh:
        fh.write(dumps_certificate(serialize_certificate(cert)))
    print(f"certificate of {os.path.getsize(path)} bytes written and read back")
    report = verify_certificate(load_certificate(path))
print("independent verification:", "valid" if report.valid else "INVALID")
for line in report.lines():
    print(" ", line)
