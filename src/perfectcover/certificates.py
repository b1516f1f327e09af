"""Certificate serialization and the independent verifier.

A certificate is a plain JSON document holding the witnesses of one
construction run: the family, then per level the words, lifts, residues,
the elements q_il of A in each abelian residue's commutator decomposition,
cover tuples and conjugators and the marked generators of that level's
Gamma, and at the top Gamma's marked generators.  A q is stored as a
permutation, like a lift, so the q-decomposition step checks the claim
k_i = [q_i1, a_1] ... [q_im, a_m] and nothing about an encoding.
Nothing the family and k determine is stored per level.  The verifier
reads each level into a `products.Level`, the record the construction
builds: the Level derives the split (W, A, S, B and the simple factors)
from the family and the level number, with the construction's checks, and
Delta, Q, T and Gamma from the witnesses.  `serialize_certificate` writes
a Level's witnesses, and `verify_certificate` parses them back from the
JSON document, so it trusts nothing of the construction run.  It re-checks
every claim from scratch, using only the stored data and the library
kernel, and a fixed list of named steps makes failures attributable.  The
claim checks of `products` (`check_Q`, `check_s_in_T`, `check_T`,
`check_gamma_perfect` and `check_projections`) are the construction's
too, which asserts them on its own levels.  When a level's T or Gamma is
the whole product of its groups, as its recomputed order and the
membership of its witnesses show, the last three read each factor's
perfectness, recomputed here from the family, instead of taking a derived
closure and projection chains of the product (`products`).
"""

from __future__ import annotations

import json

from . import __version__
from .errors import InputError
from .groups import ENUMERATION_CAP, PermGroup, StabilizerChain, generates
from .perms import Permutation, commutator, format_cycles, parse_cycles
from .products import (
    DirectProduct,
    Level,
    check_gamma_perfect,
    check_projections,
    check_Q,
    check_s_in_T,
    check_T,
    pad_generators,
)
from .structure import is_in_Y
from .words import evaluate_word, parse_word

CERT_FORMAT = "perfectcover.certificate"

STEP_NAMES = (
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


# ----------------------------------------------------------------------
# serialization


def _perm_str(p: Permutation) -> str:
    return format_cycles(p)


def _group_gens(G: PermGroup) -> list[str]:
    return [_perm_str(g) for g in G.generators]


def _prodelem(product: DirectProduct, g: Permutation) -> dict[str, str]:
    """The nonidentity projections of g, keyed by factor index."""
    out = {}
    for j in range(len(product.factors)):
        p = product.project(g, j)
        if not p.is_identity():
            out[str(j)] = _perm_str(p)
    return out


def _top_gamma_doc(product, gamma_gens, order, marked) -> dict:
    """The top-level gamma block: level 0's marked generators in marked
    order, Gamma's order, and `marked` indexing the stored list."""
    return {
        "generators": [_prodelem(product, gamma_gens[i]) for i in marked],
        "order": order,
        "marked": list(range(len(marked))),
    }


def serialize_certificate(cert) -> dict:
    """ConstructionCertificate -> JSON-ready dict."""
    data = {
        "format": CERT_FORMAT,
        "version": __version__,
        "seed": cert.seed,
        "budget": cert.budget,
        "cap": cert.cap,
        "d": cert.d,
        "k": cert.k,
        "family": [
            {"name": name, "degree": G.degree, "generators": _group_gens(G)}
            for name, G in zip(cert.names, cert.family)
        ],
        "levels": [],
    }
    for lvl in cert.levels:
        factors = []
        for j in range(len(lvl.family)):
            q = lvl.q[j]
            factors.append(
                {
                    "lifts": [_perm_str(a) for a in lvl.lifts[j]],
                    "k_res": [_perm_str(x) for x in lvl.k_res[j]],
                    "s_res": [_perm_str(x) for x in lvl.s_res[j]],
                    "q": (
                        None if q is None else [[_perm_str(x) for x in row] for row in q]
                    ),
                }
            )
        cover = lvl.cover
        if cover is not None:
            _, tuples, e, r = cover
        level_doc = {
            "m": lvl.m,
            "words": [str(w) for w in lvl.words],
            "factors": factors,
            "cover": (
                {"e": e, "tuples": [[_perm_str(x) for x in tup] for tup in tuples]}
                if cover is not None
                else None
            ),
            "r": (
                [
                    [
                        [[_perm_str(x) for x in row] for row in per_idx]
                        for per_idx in per_l
                    ]
                    for per_l in r
                ]
                if cover is not None
                else None
            ),
            "marked": list(lvl.marked),
        }
        data["levels"].append(level_doc)
    if cert.levels:
        top = cert.levels[0]
        data["gamma"] = _top_gamma_doc(
            top.product, top.gamma_gens, top.gamma.order, top.marked
        )
    else:
        data["gamma"] = _top_gamma_doc(None, [], 1, [])
    return data


def dumps_certificate(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_certificate(path) -> dict:
    """The JSON object in a file; InputError if it holds anything else."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise InputError(f"{path}: a certificate is a JSON object, not a {kind}")
    return data


_TOP_FIELDS = (
    ("seed", int, "an integer"),
    ("budget", int, "an integer"),
    ("cap", int, "an integer"),
    ("d", int, "an integer"),
    ("k", int, "an integer"),
    ("family", list, "a list"),
    ("levels", list, "a list"),
    ("gamma", dict, "an object"),
)


def _check_shape(data: dict) -> None:
    """Types of the top-level fields the verifier reads; InputError if wrong."""
    for key, kind, text in _TOP_FIELDS:
        value = data.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InputError(f"certificate field {key!r} is missing or not {text}")


# ----------------------------------------------------------------------
# verification


class StepResult:
    __slots__ = ("name", "ok", "problems")

    def __init__(self, name: str, ok: bool, problems: list[str] | None = None):
        self.name = name
        self.ok = ok
        self.problems = [] if problems is None else problems


class VerificationReport:
    __slots__ = ("steps", "valid", "message")

    def __init__(self, steps: list[StepResult], valid: bool, message: str = ""):
        self.steps = steps
        self.valid = valid
        self.message = message

    def failed_steps(self) -> list[str]:
        return [s.name for s in self.steps if not s.ok]

    def lines(self) -> list[str]:
        out = []
        for s in self.steps:
            mark = "ok" if s.ok else "FAIL"
            out.append(f"{s.name}: {mark}")
            for p in s.problems:
                out.append(f"    {p}")
        out.append("certificate valid" if self.valid else "certificate INVALID")
        return out


class _Recorder:
    def __init__(self):
        self.problems: dict[str, list[str]] = {name: [] for name in STEP_NAMES}

    def fail(self, step: str, msg: str) -> None:
        self.problems[step].append(msg)

    def guard(self, step: str, label: str, fn) -> None:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report, never crash
            self.problems[step].append(f"{label}: {type(exc).__name__}: {exc}")

    def report(self) -> VerificationReport:
        steps = [
            StepResult(name, not self.problems[name], self.problems[name])
            for name in STEP_NAMES
        ]
        return VerificationReport(steps, all(s.ok for s in steps))


def _parse_group(doc: dict, parsed: dict) -> PermGroup:
    degree = doc["degree"]
    return PermGroup(degree, _parse_gens(doc["generators"], degree, parsed))


def _parse_gens(strings, degree: int, parsed: dict) -> list[Permutation]:
    """The permutations of cycle strings of one degree.  `parsed` holds, for
    one verification, each (string, degree) parsed and validated so far,
    so a repeated string is parsed once; a string that fails to parse
    raises each time and is never kept."""
    out = []
    for s in strings:
        if type(s) is not str or type(degree) is not int:
            out.append(parse_cycles(s, degree))
            continue
        p = parsed.get((s, degree))
        if p is None:
            p = parsed[s, degree] = parse_cycles(s, degree)
        out.append(p)
    return out


def _read_level(doc: dict, level: Level, parsed: dict) -> None:
    """Set a level's witnesses from its document, all but q and the cover:
    the q-decomposition and s-in-T steps read those, so that a malformed
    one fails the step that checks it, and a later step that needs it
    fails on its absence."""
    if len(doc["factors"]) != len(level.family):
        raise InputError("the level needs one factor per family member")
    degrees = [G.degree for G in level.family]
    level.m = doc["m"]
    factors = list(zip(doc["factors"], degrees))
    level.lifts = [_parse_gens(f["lifts"], n, parsed) for f, n in factors]
    level.k_res = [_parse_gens(f["k_res"], n, parsed) for f, n in factors]
    level.s_res = [_parse_gens(f["s_res"], n, parsed) for f, n in factors]
    level.words = [parse_word(w, level.m) for w in doc["words"]]
    level.marked = doc["marked"]


def _read_q(doc: dict, level: Level, parsed: dict) -> None:
    """Set each member's q, None without a module."""
    level.q = [
        None
        if f["q"] is None
        else [_parse_gens(row, G.degree, parsed) for row in f["q"]]
        for f, G in zip(doc["factors"], level.family)
    ]


def _read_cover(doc: dict, level: Level, parsed: dict) -> None:
    """Set the cover (factor_of, tuples, e, r), None if the document has
    none; cover tuple idx belongs to the level's simple factor idx."""
    cover = doc["cover"]
    if cover is None:
        level.cover = None
        return
    factor_of = [j for j, _ in level.simple_factors]
    degrees = [level.family[j].degree for j in factor_of]
    tuples = [_parse_gens(tup, n, parsed) for tup, n in zip(cover["tuples"], degrees)]
    r = [
        [
            [_parse_gens(row, n, parsed) for row in per_idx]
            for per_idx, n in zip(per_l, degrees)
        ]
        for per_l in doc["r"]
    ]
    level.cover = factor_of, tuples, cover["e"], r


def verify_certificate(
    data: dict, force_version: bool = False, cap: int = ENUMERATION_CAP
) -> VerificationReport:
    """Re-check every claim of a certificate from its stored witnesses.

    Raises InputError if a top-level field the verifier reads is missing or
    of the wrong type.
    """
    if not isinstance(data, dict) or data.get("format") != CERT_FORMAT:
        return VerificationReport([], False, "not a certificate document")
    _check_shape(data)
    if data.get("version") != __version__ and not force_version:
        return VerificationReport(
            [],
            False,
            f"certificate version {data.get('version')!r} does not match "
            f"tool version {__version__!r} (use force to verify anyway)",
        )
    rec = _Recorder()
    d = data["d"]
    k = data["k"]
    # every (string, degree) this verification has parsed; dropped with it
    parsed: dict = {}
    try:
        family = [_parse_group(doc, parsed) for doc in data["family"]]
        names = [doc["name"] for doc in data["family"]]
    except Exception as exc:  # noqa: BLE001
        return VerificationReport([], False, f"family data unreadable: {exc}")

    # family step: admissibility of every member
    for name, G in zip(names, family):
        def check_member(name=name, G=G):
            if not isinstance(name, str):
                raise InputError("name is not a string")
            ok, reason = is_in_Y(G, d, k, cap)
            if not ok:
                raise InputError(reason)
        rec.guard("family", f"member {name}", check_member)

    if not family:
        if data["levels"]:
            rec.fail("gamma-perfect", "an empty family has no levels")
        _verify_top(rec, data, [])
        return rec.report()

    # level i is level k - i; each level's family is the quotient of the
    # one above by its W
    if len(data["levels"]) != k:
        return VerificationReport(
            [], False, f"a certificate with k = {k} needs {k} levels"
        )
    levels: list[Level] = []
    cur_family = family
    for i, doc in enumerate(data["levels"]):
        try:
            level = Level(cur_family, k - i, cap)
        except Exception as exc:  # noqa: BLE001
            # without the split there is no deeper family to check against
            rec.fail("structure", f"level {k - i}: {type(exc).__name__}: {exc}")
            message = f"level {k - i} does not split; later steps not run"
            return VerificationReport(rec.report().steps, False, message)
        try:
            _read_level(doc, level, parsed)
        except Exception as exc:  # noqa: BLE001
            return VerificationReport([], False, f"level data unreadable: {exc}")
        levels.append(level)
        cur_family = level.quotients

    # bottom-up: each level needs the deeper gamma's marked generators
    for idx in range(len(levels) - 1, -1, -1):
        deeper = levels[idx + 1] if idx + 1 < len(levels) else None
        _verify_level(
            rec, levels[idx], data["levels"][idx], deeper, d, data["budget"], parsed
        )

    _verify_top(rec, data, levels)
    return rec.report()


def _verify_top(rec, data: dict, levels: list[Level]) -> None:
    """The top-level gamma block must be level 0's marked generators, derived
    from its witnesses, with its order; the trivial group without levels."""

    def check_top():
        if levels:
            top = levels[0]
            expected = _top_gamma_doc(
                top.product, top.gamma_gens, top.gamma.order, top.marked
            )
        else:
            expected = _top_gamma_doc(None, [], 1, [])
        # compared as JSON text, so that true cannot pass for 1
        if dumps_certificate(data["gamma"]) != dumps_certificate(expected):
            raise InputError("top gamma block differs from the derived level-0 gamma")

    rec.guard("gamma-perfect", "top gamma block", check_top)


def _check_r_shape(doc: dict, m: int, n_factors: int) -> None:
    """`r` is null exactly when `cover` is; otherwise r[l][idx][t][c] holds
    m rows l, one block per simple factor idx, e rows t and one conjugator
    per element c of cover tuple idx, so no stored conjugator goes unread."""
    cover, r = doc["cover"], doc["r"]
    if cover is None:
        if r is not None:
            raise InputError("conjugators r without a cover")
        return
    tuples, e = cover["tuples"], cover["e"]
    if type(e) is not int or e < 1:
        raise InputError("the covering exponent e is not a positive integer")
    if not isinstance(r, list) or len(r) != m:
        raise InputError("conjugator row count differs from m")
    for l, per_l in enumerate(r):
        if not isinstance(per_l, list) or len(per_l) != n_factors:
            raise InputError(f"conjugator row {l} needs one block per simple factor")
        for idx, (rows, tup) in enumerate(zip(per_l, tuples)):
            if not isinstance(rows, list) or len(rows) != e or any(
                not isinstance(row, list) or len(row) != len(tup) for row in rows
            ):
                raise InputError(
                    f"conjugators ({l}, {idx}) need e = {e} rows, each as long "
                    f"as cover tuple {idx}"
                )


def _verify_level(
    rec, level: Level, doc: dict, deeper: Level | None, d: int, budget: int, parsed: dict
) -> None:
    lab = f"level {level.k}"
    m = level.m

    # ---- words
    def check_words():
        if len(level.words) != m:
            raise InputError("word count differs from m")
        for i, w in enumerate(level.words):
            if not w.in_commutator_subgroup:
                raise InputError(
                    f"word {i} has nonzero exponent sums: {w}"
                )

    rec.guard("words", lab, check_words)

    # the words act on the deeper gamma's marked generators, padded to d;
    # the checks read the first m, so padding stops there whatever d says
    def prev_gens() -> list[Permutation]:
        marked = [deeper.gamma_gens[i] for i in deeper.marked]
        return pad_generators(marked, deeper.product, min(d, m))[:m]

    # each word must reproduce its own generator
    def check_prev():
        if deeper is None:
            if m != d:
                raise InputError("m differs from d at the deepest level")
            return
        if max(len(deeper.marked) or 1, d) != m:
            raise InputError("m differs from the padded generator count")
        if len(level.words) != m:
            return  # the word count check reports it
        gens = prev_gens()
        for i, w in enumerate(level.words):
            if evaluate_word(w, gens) != gens[i]:
                raise InputError(f"word {i} does not reproduce its generator")

    rec.guard("words", f"{lab} padded generators", check_prev)

    # ---- lifts
    def check_lifts():
        for j, lifts in enumerate(level.lifts):
            if len(lifts) != m:
                raise InputError(f"factor {j} has {len(lifts)} lifts, not m = {m}")
        prev = prev_gens() if deeper is not None else None
        for j, qmap in enumerate(level.qmaps):
            for i in range(m):
                img = qmap.apply(level.lifts[j][i])
                if prev is None:
                    if not img.is_identity():
                        raise InputError(
                            f"factor {j} lift {i} is not in the trivial coset"
                        )
                elif img != deeper.product.project(prev[i], j):
                    raise InputError(f"factor {j} lift {i} is in the wrong coset")

    rec.guard("lifts", lab, check_lifts)

    # ---- equation (1)
    def check_eq1():
        for j in range(len(level.family)):
            if len(level.k_res[j]) != m or len(level.s_res[j]) != m:
                raise InputError(f"factor {j} needs m = {m} k_res and s_res entries")
            for i in range(m):
                lifts = level.lifts[j]
                lhs = lifts[i] * evaluate_word(level.words[i], lifts).inverse()
                rhs = level.k_res[j][i] * level.s_res[j][i]
                if lhs != rhs:
                    raise InputError(f"factor {j} row {i}: residue identity fails")
                if level.k_res[j][i] not in level.B[j]:
                    raise InputError(f"factor {j} row {i}: abelian residue outside B")
                if level.s_res[j][i] not in level.S[j]:
                    raise InputError(f"factor {j} row {i}: residue outside S")

    rec.guard("equation1", lab, check_eq1)

    # ---- generation
    def check_generation():
        for j, G in enumerate(level.family):
            if not generates(G, level.lifts[j]):
                raise InputError(f"factor {j}: lifts do not generate the member")

    rec.guard("generation", lab, check_generation)

    # ---- q decomposition
    def check_qdec():
        _read_q(doc, level, parsed)
        for j, rows in enumerate(level.q):
            A = level.A[j]
            if rows is None:
                if A.order != 1:
                    raise InputError(f"factor {j}: missing q")
                if not all(x.is_identity() for x in level.k_res[j]):
                    raise InputError(f"factor {j}: nontrivial residue without a module")
                continue
            if A.order == 1:
                raise InputError(f"factor {j}: q without a module")
            if len(rows) != m or any(len(row) != m for row in rows):
                raise InputError(f"factor {j}: q needs m = {m} rows of m elements")
            if not all(x in A for x in dict.fromkeys(x for row in rows for x in row)):
                raise InputError(f"factor {j}: q outside A")
            for i, row in enumerate(rows):
                prod = level.family[j].identity
                for q, a in zip(row, level.lifts[j]):
                    prod = prod * commutator(q, a)
                if prod != level.k_res[j][i]:
                    raise InputError(
                        f"factor {j} row {i}: commutator decomposition fails"
                    )

    rec.guard("q-decomposition", lab, check_qdec)

    # ---- Q module closure
    def check_qmodule():
        check_Q(
            level.product, level.delta, level.q_values, level.k_elems,
            level.delta_q_bound,
        )

    rec.guard("Q-module", lab, check_qmodule)

    # ---- T containment; the cover is read even if `r` has the wrong
    # shape, since the T-perfect step checks the cover tuples
    rec.guard("s-in-T", lab, lambda: _check_r_shape(doc, m, len(level.simple_factors)))

    def check_sT():
        _read_cover(doc, level, parsed)
        check_s_in_T(level.cover_values, level.s_elems)

    rec.guard("s-in-T", lab, check_sT)

    # ---- T perfect: one generating cover tuple of `budget` elements per
    # simple factor
    def check_cover():
        flat = level.simple_factors
        if doc["cover"] is None:
            if flat:
                raise InputError("semisimple part present but no cover")
            return
        if len(doc["cover"]["tuples"]) != len(flat):
            raise InputError(
                f"the cover needs one tuple per simple factor, {len(flat)} in all"
            )
        _, tuples, _, _ = level.cover
        # cover_inside has sifted each tuple element into its factor, so
        # |M| bounds the chain of the tuple; otherwise `generates` sifts them
        inside = level.cover_inside
        for idx, (_, M) in enumerate(flat):
            if len(tuples[idx]) != budget:
                raise InputError(
                    f"cover tuple {idx} holds {len(tuples[idx])} elements, "
                    f"not the budget {budget}"
                )
            if inside:
                ok = StabilizerChain(M.degree, tuples[idx], M.order).order() == M.order
            else:
                ok = generates(M, tuples[idx])
            if not ok:
                raise InputError(f"cover tuple {idx} does not generate its factor")
        check_T(level.product, level.t_group, level.S, level.cover_inside)

    rec.guard("T-perfect", lab, check_cover)

    # ---- gamma
    def check_gamma():
        gamma = level.gamma
        check_gamma_perfect(gamma, level.family, level.gamma_inside)
        for i in range(m):
            # equation (1) assembled over the product
            w_val = evaluate_word(level.words[i], level.delta)
            if level.k_elems[i] * level.s_elems[i] != level.delta[i] * w_val.inverse():
                raise InputError(f"assembled residue identity fails at row {i}")
        marked = level.marked
        gens = level.gamma_gens
        # a bool is an int in Python; True must not stand in for index 1
        if any(type(i) is not int for i in marked):
            raise InputError("marked indices must be integers")
        if len(set(marked)) != len(marked) or any(
            not 0 <= i < len(gens) for i in marked
        ):
            raise InputError("marked indices are invalid")
        marked_gens = [gens[i] for i in marked]
        if not generates(gamma, marked_gens):
            raise InputError("marked generators do not generate gamma")

    rec.guard("gamma-perfect", lab, check_gamma)

    # ---- projections
    def check_proj():
        check_projections(
            level.product, level.gamma, level.family, level.gamma_inside
        )

    rec.guard("projections", lab, check_proj)
