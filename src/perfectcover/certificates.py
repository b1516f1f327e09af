"""Certificate serialization and the independent verifier.

A certificate is a plain JSON document holding the witnesses of one
construction run: the family, then per level the words, lifts, residues,
module coordinates, cover tuples and conjugators and the marked
generators of that level's Gamma, and at the top Gamma's marked
generators.
Nothing the family and k determine is stored per level: the verifier
derives each level's members, W, A, S, B and simple factors itself, and
Delta, Q, T and each Gamma's generator list from the witnesses, by the
helpers in `structure` and `products` that the construction uses.
`verify_certificate` re-checks every claim from scratch, using only the
stored data and the library kernel; it shares no state with the
construction code, and a fixed list of named steps makes failures
attributable.
"""

from __future__ import annotations

import json
from functools import cached_property

from . import __version__
from .errors import InputError
from .groups import (
    ENUMERATION_CAP,
    CosetMap,
    PermGroup,
    StabilizerChain,
    center,
    commutator_subgroup,
    derived_subgroup,
    normal_closure,
)
from .perms import Permutation, commutator, format_cycles, parse_cycles
from .products import (
    DirectProduct,
    column,
    cover_row_product,
    gamma_generators,
    pad_generators,
    q_values,
    t_values,
)
from .structure import is_in_Y, semisimple_factors, series_term
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
        aligned, qdata, tdata = lvl.aligned, lvl.qdata, lvl.tdata
        factors = []
        for j in range(len(lvl.split.family)):
            modules = qdata.modules[j]
            coords = qdata.q_coords[j]
            factors.append(
                {
                    "lifts": [_perm_str(a) for a in aligned.lifts[j]],
                    "k_res": [_perm_str(x) for x in aligned.k_res[j]],
                    "s_res": [_perm_str(x) for x in aligned.s_res[j]],
                    "module_basis": (
                        [_perm_str(b) for b in modules.basis] if modules else None
                    ),
                    "q_coords": (
                        [[list(c) for c in per_i] for per_i in coords]
                        if coords is not None
                        else None
                    ),
                }
            )
        level_doc = {
            "m": aligned.m,
            "words": [str(w) for w in aligned.words],
            "factors": factors,
            "cover": (
                {
                    "e": tdata.e,
                    "tuples": [
                        [_perm_str(x) for x in tup] for tup in tdata.tuples
                    ],
                }
                if tdata
                else None
            ),
            "r": (
                [
                    [
                        [[_perm_str(x) for x in row] for row in per_idx]
                        for per_idx in per_l
                    ]
                    for per_l in tdata.r
                ]
                if tdata
                else None
            ),
            "marked": list(lvl.marked_idx),
        }
        data["levels"].append(level_doc)
    if cert.levels:
        top = cert.levels[0]
        data["gamma"] = _top_gamma_doc(
            top.split.product, top.gamma_gens, top.gamma.order, top.marked_idx
        )
    else:
        data["gamma"] = _top_gamma_doc(None, [], 1, [])
    return data


def dumps_certificate(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_certificate(data: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_certificate(data))


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


def _parse_group(doc: dict) -> PermGroup:
    degree = doc["degree"]
    gens = [parse_cycles(s, degree) for s in doc["generators"]]
    return PermGroup(degree, gens)


def _parse_gens(strings, degree: int) -> list[Permutation]:
    return [parse_cycles(s, degree) for s in strings]


class _LevelCtx:
    """One level of the certificate: the structure the verifier derives
    from the family and the level number, and the stored witnesses.

    At level k_level each member G splits over W = G_{k_level - 1}, with
    A = Z(W), S = [W, W] and B = [A, G]; its quotient by W is the member
    one level deeper.  The values Gamma is built from (Delta, Q, T and the
    generator list) are derived from the witnesses on first use, so a step
    that needs a value the witnesses cannot give reports the failure itself.
    """

    def __init__(self, doc: dict, family: list[PermGroup], k_level: int, cap: int):
        if len(doc["factors"]) != len(family):
            raise InputError("the level needs one factor per family member")
        self.doc = doc
        self.k_level = k_level
        self.m = doc["m"]
        self.family = family
        self.product = DirectProduct(family)
        self.W = [series_term(G, k_level, cap) for G in family]
        self.A = [center(W, cap) for W in self.W]
        self.S = [derived_subgroup(W) for W in self.W]
        self.B = [commutator_subgroup(G, A, G) for G, A in zip(family, self.A)]
        self.qmaps = [CosetMap(G, W, cap) for G, W in zip(family, self.W)]
        self.lifts = []
        self.k_res = []
        self.s_res = []
        for G, fdoc in zip(family, doc["factors"]):
            self.lifts.append(_parse_gens(fdoc["lifts"], G.degree))
            self.k_res.append(_parse_gens(fdoc["k_res"], G.degree))
            self.s_res.append(_parse_gens(fdoc["s_res"], G.degree))
        self.words = [parse_word(w, self.m) for w in doc["words"]]
        self.marked = doc["marked"]
        self.cap = cap

    def k_elem(self, i: int) -> Permutation:
        return column(self.product, self.k_res, i)

    def s_elem(self, i: int) -> Permutation:
        return column(self.product, self.s_res, i)

    def basis(self, j: int) -> list[Permutation]:
        degree = self.family[j].degree
        return _parse_gens(self.doc["factors"][j]["module_basis"], degree)

    @cached_property
    def delta(self) -> list[Permutation]:
        return [column(self.product, self.lifts, i) for i in range(self.m)]

    @cached_property
    def q_elems(self) -> list[list[list[Permutation]] | None]:
        """q_elems[j][i][l] decoded from the module coordinates; None for a
        member without module data."""
        out = []
        for j, fdoc in enumerate(self.doc["factors"]):
            if fdoc["module_basis"] is None:
                out.append(None)
                continue
            basis = self.basis(j)

            def decode(coords, identity=self.family[j].identity):
                x = identity
                for b, c in zip(basis, coords):
                    x = x * b**c
                return x

            out.append([[decode(c) for c in row] for row in fdoc["q_coords"]])
        return out

    @cached_property
    def simple_factors(self) -> list[tuple[int, PermGroup]]:
        """(member, factor) for each simple factor of each S, members in order;
        the cover lists one tuple per entry, in this order."""
        return [
            (j, M) for j, S in enumerate(self.S) for M in semisimple_factors(S, self.cap)
        ]

    @cached_property
    def q_values(self) -> list[Permutation]:
        return q_values(self.product, self.q_elems, self.lifts)

    @cached_property
    def cover(self):
        """(factor_of, tuples, e, r) of the stored cover, or None."""
        cover = self.doc["cover"]
        if cover is None:
            return None
        factor_of = [j for j, _ in self.simple_factors]
        degrees = [self.family[j].degree for j in factor_of]
        tuples = [_parse_gens(tup, deg) for tup, deg in zip(cover["tuples"], degrees)]
        r = [
            [
                [_parse_gens(row, deg) for row in per_idx]
                for per_idx, deg in zip(per_l, degrees)
            ]
            for per_l in self.doc["r"]
        ]
        return factor_of, tuples, cover["e"], r

    @cached_property
    def t_values(self) -> list[Permutation]:
        if self.cover is None:
            return []
        factor_of, tuples, e, r = self.cover
        return t_values(self.product, factor_of, tuples, r, e)

    @cached_property
    def t_group(self) -> PermGroup:
        return self.product.subgroup(self.t_values)

    @cached_property
    def gamma_gens(self) -> list[Permutation]:
        return gamma_generators(self.delta, self.q_values, self.t_values)

    @cached_property
    def gamma(self) -> PermGroup:
        return self.product.subgroup(self.gamma_gens)


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
    try:
        family = [_parse_group(doc) for doc in data["family"]]
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
    levels: list[_LevelCtx] = []
    cur_family = family
    try:
        for i, doc in enumerate(data["levels"]):
            ctx = _LevelCtx(doc, cur_family, k - i, cap)
            levels.append(ctx)
            cur_family = [qmap.quotient for qmap in ctx.qmaps]
    except Exception as exc:  # noqa: BLE001
        return VerificationReport([], False, f"level data unreadable: {exc}")

    for ctx in levels:
        _verify_structure(rec, ctx)

    # bottom-up: each level needs the deeper gamma's marked generators
    for idx in range(len(levels) - 1, -1, -1):
        ctx = levels[idx]
        deeper = levels[idx + 1] if idx + 1 < len(levels) else None
        _verify_level(rec, ctx, deeper, d, data["budget"], cap)

    _verify_top(rec, data, levels)
    return rec.report()


def _verify_top(rec, data: dict, levels: list[_LevelCtx]) -> None:
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


def _verify_structure(rec, ctx: _LevelCtx) -> None:
    for j in range(len(ctx.family)):

        def check(j=j):
            if ctx.A[j].order * ctx.S[j].order != ctx.W[j].order:
                raise InputError("W does not split as A x S")

        rec.guard("structure", f"level {ctx.k_level} factor {j}", check)


def _verify_level(
    rec, ctx: _LevelCtx, deeper: _LevelCtx | None, d: int, budget: int, cap
) -> None:
    kl = ctx.k_level
    lab = f"level {kl}"
    m = ctx.m
    nfac = len(ctx.family)

    # ---- words
    def check_words():
        if len(ctx.words) != m:
            raise InputError("word count differs from m")
        for i, w in enumerate(ctx.words):
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
        if len(ctx.words) != m:
            return  # the word count check reports it
        gens = prev_gens()
        for i, w in enumerate(ctx.words):
            if evaluate_word(w, gens) != gens[i]:
                raise InputError(f"word {i} does not reproduce its generator")

    rec.guard("words", f"{lab} padded generators", check_prev)

    # ---- lifts
    def check_lifts():
        for j, lifts in enumerate(ctx.lifts):
            if len(lifts) != m:
                raise InputError(f"factor {j} has {len(lifts)} lifts, not m = {m}")
        prev = prev_gens() if deeper is not None else None
        for j, qmap in enumerate(ctx.qmaps):
            for i in range(m):
                img = qmap.apply(ctx.lifts[j][i])
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
        for j in range(nfac):
            for i in range(m):
                lhs = ctx.lifts[j][i] * evaluate_word(ctx.words[i], ctx.lifts[j]).inverse()
                rhs = ctx.k_res[j][i] * ctx.s_res[j][i]
                if lhs != rhs:
                    raise InputError(f"factor {j} row {i}: residue identity fails")
                if ctx.k_res[j][i] not in ctx.B[j]:
                    raise InputError(f"factor {j} row {i}: abelian residue outside B")
                if ctx.s_res[j][i] not in ctx.S[j]:
                    raise InputError(f"factor {j} row {i}: residue outside S")

    rec.guard("equation1", lab, check_eq1)

    # ---- generation
    def check_generation():
        for j, G in enumerate(ctx.family):
            if StabilizerChain(G.degree, ctx.lifts[j]).order() != G.order:
                raise InputError(f"factor {j}: lifts do not generate the member")

    rec.guard("generation", lab, check_generation)

    # ---- q decomposition
    def check_qdec():
        for j, fdoc in enumerate(ctx.doc["factors"]):
            if fdoc["module_basis"] is None:
                if ctx.A[j].order != 1:
                    raise InputError(f"factor {j}: missing module data")
                for i in range(m):
                    if not ctx.k_res[j][i].is_identity():
                        raise InputError(
                            f"factor {j}: nontrivial residue without module data"
                        )
                continue
            size = 1
            for b in ctx.basis(j):
                if b not in ctx.A[j]:
                    raise InputError(f"factor {j}: basis element outside A")
                size *= b.order()
            if size != ctx.A[j].order:
                raise InputError(f"factor {j}: basis does not span A")
            rows = fdoc["q_coords"]
            if rows is None or len(rows) != m:
                raise InputError(f"factor {j}: missing q coordinates")
            for i in range(m):
                if len(rows[i]) != m:
                    raise InputError(f"factor {j}: q row {i} has wrong arity")
        for j, per_i in enumerate(ctx.q_elems):
            if per_i is None:
                continue
            for i in range(m):
                prod = ctx.family[j].identity
                for l in range(m):
                    prod = prod * commutator(per_i[i][l], ctx.lifts[j][l])
                if prod != ctx.k_res[j][i]:
                    raise InputError(
                        f"factor {j} row {i}: commutator decomposition fails"
                    )

    rec.guard("q-decomposition", lab, check_qdec)

    # ---- Q module closure
    def check_qmodule():
        if not ctx.q_values:
            for i in range(m):
                if not ctx.k_elem(i).is_identity():
                    raise InputError("nonzero abelian residue with empty Q")
            return
        qgroup = normal_closure(
            ctx.product.subgroup(ctx.delta + ctx.q_values), ctx.q_values
        )
        delta_group = ctx.product.subgroup(ctx.delta)
        joint = ctx.product.subgroup([*ctx.delta, *qgroup.generators])
        comm = commutator_subgroup(joint, qgroup, delta_group)
        if comm.order != qgroup.order or not all(
            g in qgroup for g in comm.generators
        ):
            raise InputError("Q is not equal to [Q, Delta]")
        for i in range(m):
            if ctx.k_elem(i) not in qgroup:
                raise InputError(f"abelian residue {i} is not in Q")

    rec.guard("Q-module", lab, check_qmodule)

    # ---- T containment
    def check_sT():
        if ctx.cover is None:
            for i in range(m):
                if not ctx.s_elem(i).is_identity():
                    raise InputError("nontrivial semisimple residue with no T")
            return
        factor_of, tuples, e, r = ctx.cover
        if len(r) != m:
            raise InputError("conjugator row count differs from m")
        for l in range(m):
            row = cover_row_product(ctx.product, factor_of, tuples, r, l, e)
            if row != ctx.s_elem(l):
                raise InputError(f"row {l}: cover product does not equal the residue")
            if ctx.s_elem(l) not in ctx.t_group:
                raise InputError(f"row {l}: semisimple residue is not in T")

    rec.guard("s-in-T", lab, check_sT)

    # ---- T perfect: one generating cover tuple of `budget` elements per
    # simple factor
    def check_T():
        flat = ctx.simple_factors
        if ctx.doc["cover"] is None:
            if flat:
                raise InputError("semisimple part present but no cover")
            return
        if len(ctx.doc["cover"]["tuples"]) != len(flat):
            raise InputError(
                f"the cover needs one tuple per simple factor, {len(flat)} in all"
            )
        _, tuples, _, _ = ctx.cover
        for idx, (_, M) in enumerate(flat):
            if len(tuples[idx]) != budget:
                raise InputError(
                    f"cover tuple {idx} holds {len(tuples[idx])} elements, "
                    f"not the budget {budget}"
                )
            if StabilizerChain(M.degree, tuples[idx]).order() != M.order:
                raise InputError(f"cover tuple {idx} does not generate its factor")
        t_group = ctx.t_group
        if derived_subgroup(t_group).order != t_group.order:
            raise InputError("T is not perfect")
        for j in range(nfac):
            proj = ctx.product.projection_of(t_group, j)
            if proj.order != ctx.S[j].order:
                raise InputError(f"T does not project onto the semisimple part {j}")

    rec.guard("T-perfect", lab, check_T)

    # ---- gamma
    def check_gamma():
        gamma = ctx.gamma
        der = derived_subgroup(gamma)
        if der.order != gamma.order:
            raise InputError("gamma is not perfect")
        for i in range(m):
            a = ctx.delta[i]
            if a not in der:
                raise InputError(f"Delta generator {i} escapes [gamma, gamma]")
            # equation (1) assembled over the product
            w_val = evaluate_word(ctx.words[i], ctx.delta)
            if ctx.k_elem(i) * ctx.s_elem(i) != a * w_val.inverse():
                raise InputError(f"assembled residue identity fails at row {i}")
        marked = ctx.marked
        gens = ctx.gamma_gens
        # a bool is an int in Python; True must not stand in for index 1
        if any(type(i) is not int for i in marked):
            raise InputError("marked indices must be integers")
        if len(set(marked)) != len(marked) or any(
            not 0 <= i < len(gens) for i in marked
        ):
            raise InputError("marked indices are invalid")
        if StabilizerChain(ctx.product.degree, [gens[i] for i in marked]).order() != gamma.order:
            raise InputError("marked generators do not generate gamma")

    rec.guard("gamma-perfect", lab, check_gamma)

    # ---- projections
    def check_proj():
        for j, G in enumerate(ctx.family):
            if ctx.product.projection_of(ctx.gamma, j).order != G.order:
                raise InputError(f"projection onto factor {j} is not surjective")

    rec.guard("projections", lab, check_proj)
