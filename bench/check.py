"""Independent checks of a perfectcover certificate.

Nothing here imports perfectcover: certificates are read as plain JSON,
cycle notation is parsed by the small parser below, and all group
arithmetic is done by sympy.combinatorics.  The checks are:

  * every family member has its mathematical order;
  * every component of every Gamma generator lies in its member;
  * each projection of Gamma has its member's order;
  * Gamma, from all its generators, has the stated order;
  * the marked generators generate a group of that same order;
  * the derived subgroup of the marked group has that order (Gamma perfect);
  * the verifier reported every named step ok.

`check_certificate` returns a list of problems; an empty list means the
certificate passed.
"""

from __future__ import annotations

import re

from sympy.combinatorics import Permutation, PermutationGroup

VERIFIER_STEPS = (
    "family",
    "structure",
    "words",
    "lifts",
    "equation1",
    "generation",
    "q-decomposition",
    "Q-module",
    "s-in-T",
    "T-perfect",
    "gamma-perfect",
    "projections",
)

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> list[int]:
    """Array form (0-based images) of 1-based cycle notation like '(1 2)(3 4 5)'."""
    images = list(range(degree))
    moved: set[int] = set()
    rest = _CYCLE.sub("", text).strip()
    if rest or not text.strip():
        raise ValueError(f"not cycle notation: {text!r}")
    for body in _CYCLE.findall(text):
        points = [int(tok) - 1 for tok in body.replace(",", " ").split()]
        for p in points:
            if not 0 <= p < degree:
                raise ValueError(f"point {p + 1} outside 1..{degree} in {text!r}")
            if p in moved:
                raise ValueError(f"point {p + 1} repeated in {text!r}")
            moved.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return images


def _group(degree: int, gens: list[list[int]]) -> PermutationGroup:
    if not gens:
        return PermutationGroup([Permutation(list(range(degree)))])
    return PermutationGroup([Permutation(g) for g in gens])


def _flat(components: dict[int, list[int]], degrees: list[int]) -> list[int]:
    """The element of the direct product, each member on its own block."""
    images = []
    offset = 0
    for j, degree in enumerate(degrees):
        part = components.get(j, list(range(degree)))
        images.extend(offset + x for x in part)
        offset += degree
    return images


def check_steps(steps: list[list]) -> list[str]:
    """Problems in the verifier's [name, ok] list: every named step, each ok."""
    problems = []
    names = [s[0] for s in steps]
    if names != list(VERIFIER_STEPS):
        problems.append(f"verifier steps {names} are not the 12 named steps")
    problems.extend(f"verifier step {name} not ok" for name, ok in steps if not ok)
    return problems


def check_certificate(
    data: dict, expected_orders: dict[str, int], steps: list[list] | None = None
) -> list[str]:
    """Problems found in a certificate; `steps` is the verifier's [name, ok] list."""
    problems = check_steps(steps) if steps is not None else []
    try:
        problems.extend(_check_groups(data, expected_orders))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"certificate unreadable: {exc!r}")
    return problems


def _check_groups(data: dict, expected_orders: dict[str, int]) -> list[str]:
    problems: list[str] = []
    family = data["family"]
    degrees = [doc["degree"] for doc in family]
    members = []
    for doc in family:
        gens = [parse_cycles(s, doc["degree"]) for s in doc["generators"]]
        G = _group(doc["degree"], gens)
        members.append(G)
        want = expected_orders.get(doc["name"])
        if want is None:
            problems.append(f"member {doc['name']} has no expected order")
        elif G.order() != want:
            problems.append(f"member {doc['name']} has order {G.order()}, not {want}")
    if sorted(expected_orders) != sorted(doc["name"] for doc in family):
        problems.append("family members differ from the workload's family")

    gamma = data["gamma"]
    comps = []
    for g in gamma["generators"]:
        parsed = {}
        for key, text in g.items():
            j = int(key)
            if not 0 <= j < len(family):
                raise ValueError(f"component index {j} outside the family")
            parsed[j] = parse_cycles(text, degrees[j])
        comps.append(parsed)
    for j, (doc, G) in enumerate(zip(family, members)):
        proj = [c[j] for c in comps if j in c]
        outside = sum(1 for p in proj if not G.contains(Permutation(p)))
        if outside:
            problems.append(f"{outside} Gamma components lie outside {doc['name']}")
            continue
        order = _group(doc["degree"], proj).order()
        if order != G.order():
            problems.append(
                f"projection onto {doc['name']} has order {order}, not {G.order()}"
            )
    if problems:
        return problems

    total = sum(degrees)
    flats = [_flat(c, degrees) for c in comps]
    stated = gamma["order"]
    full = _group(total, flats).order()
    if full != stated:
        problems.append(f"Gamma has order {full}, stated {stated}")
    marked = gamma["marked"]
    if not all(0 <= i < len(flats) for i in marked):
        problems.append("a marked index is out of range")
        return problems
    marked_group = _group(total, [flats[i] for i in marked])
    if marked_group.order() != stated:
        problems.append(f"marked generators give order {marked_group.order()}")
    elif marked_group.derived_subgroup().order() != stated:
        problems.append("Gamma is not perfect")
    return problems
