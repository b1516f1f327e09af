"""Spans and counters at the public boundaries of perfectcover's layers.

The tracer edits no program file: `install` replaces a function at every
module global of the package that binds it (so `product_set` is wrapped
both in `perfectcover.covering` and in `perfectcover.construction`), and
replaces methods on their class.  Spans carry a parent link and stay in
memory until `report` turns them into per-layer metrics and a self-time
table.  A boundary whose name no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Boundary:
    """One traced callable.

    `target` is "module:attr" or "module:Class.method".  `span` is the
    metric name of the span (inclusive time of outermost calls, in s), or
    None to only count.  `calls`, `total` and `peak` name counters of the
    number of calls, the summed len() of results and the largest len().
    A span name may contain "{level}", filled in from the construction
    level being built.
    """

    target: str
    span: str | None = None
    calls: str | None = None
    total: str | None = None
    peak: str | None = None


P = "perfectcover."
BOUNDARIES = (
    Boundary(P + "structure:is_in_Y", span="construction.admissibility_s"),
    Boundary(P + "construction:split_levels", span="construction.L{level}.split_levels_s"),
    Boundary(P + "construction:recurse_and_align", span="construction.L{level}.recurse_and_align_s"),
    Boundary(P + "construction:build_Q", span="construction.L{level}.build_Q_s"),
    Boundary(P + "construction:build_T", span="construction.L{level}.build_T_s"),
    Boundary(P + "construction:assemble_and_verify", span="construction.L{level}.assemble_and_verify_s"),
    Boundary(P + "structure:normal_subgroups", span="structure.normal_subgroups_s",
             calls="structure.normal_subgroups_calls"),
    Boundary(P + "structure:star_chain", span="structure.star_chain_s"),
    Boundary(P + "structure:semisimple_factors", span="structure.semisimple_factors_s"),
    Boundary(P + "words:commutator_word_for", span="words.commutator_word_for_s",
             calls="words.commutator_word_for_calls"),
    Boundary(P + "words:gaschutz_lift", span="words.gaschutz_lift_s"),
    Boundary(P + "covering:cover_tuples", span="covering.cover_tuples_s"),
    Boundary(P + "covering:covering_number", span="covering.covering_number_s"),
    Boundary(P + "covering:product_set", span="covering.product_set_s",
             calls="covering.product_set_calls", total="covering.product_set_elements"),
    Boundary(P + "gmodule:solve_commutator_decomposition",
             span="gmodule.solve_commutator_decomposition_s"),
    Boundary(P + "gmodule:close_submodule", span="gmodule.close_submodule_s"),
    Boundary(P + "groups:StabilizerChain.__init__", span="groups.chain_build_s",
             calls="groups.chains_built"),
    Boundary(P + "groups:mulclose", calls="groups.mulclose_calls",
             total="groups.mulclose_elements", peak="groups.mulclose_peak"),
    Boundary(P + "groups:normal_closure", span="groups.normal_closure_s"),
    Boundary(P + "groups:conjugacy_classes", span="groups.conjugacy_classes_s"),
    Boundary(P + "groups:CosetMap.__init__", span="groups.coset_map_s",
             calls="groups.coset_maps_built"),
    Boundary(P + "groups:CosetMap.apply", span="groups.coset_map_s"),
    Boundary(P + "perms:Permutation.__mul__", calls="perms.products"),
    Boundary(P + "perms:Permutation.__init__", calls="perms.permutations_built"),
    Boundary(P + "perms:parse_cycles", span="perms.parse_cycles_s",
             calls="perms.parse_cycles_calls"),
    Boundary(P + "perms:format_cycles", calls="perms.format_cycles_calls"),
    Boundary(P + "certificates:serialize_certificate", span="certificates.serialize_s"),
    Boundary(P + "certificates:dumps_certificate", span="certificates.dumps_s"),
    Boundary(P + "certificates:load_certificate", span="certificates.load_s"),
    Boundary(P + "certificates:verify_certificate", span="certificates.verify_certificate_s"),
)

# Construction levels are numbered by the `k` argument of this function.
LEVEL_TARGET = P + "construction:_construct_level"
LEVELS = (1, 2)


def metric_names(boundaries=BOUNDARIES, levels=LEVELS) -> list[str]:
    """Every per-layer metric the boundaries define, in a fixed order."""
    names: list[str] = []
    for b in boundaries:
        for name in (b.span, b.calls, b.total, b.peak):
            if name is None:
                continue
            expanded = [name.format(level=k) for k in levels] if "{level}" in name else [name]
            names.extend(n for n in expanded if n not in names)
    return names


class Tracer:
    """In-memory spans (id, parent id, name, start, end) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._levels: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        if n > self.counters.get(name, 0):
            self.counters[name] = n

    # -- installation --------------------------------------------------

    def install(self, boundaries=BOUNDARIES, level_target: str | None = LEVEL_TARGET) -> None:
        """Wrap every boundary that exists; record the others as absent."""
        if level_target is not None:
            self._wrap(level_target, self._level_wrapper)
        for b in boundaries:
            self._wrap(b.target, lambda fn, b=b: self._boundary_wrapper(fn, b))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, target: str, make_wrapper) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        wrapper = make_wrapper(original)
        if classes:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        package = module_name.split(".")[0]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _level_wrapper(self, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self._levels.append(bound.arguments.get("k", 0))
            try:
                return fn(*args, **kwargs)
            finally:
                self._levels.pop()

        return wrapper

    def _boundary_wrapper(self, fn, b: Boundary):
        tracer = self
        if b.span is None and b.total is None and b.peak is None:
            calls = b.calls

            def counting(*args, **kwargs):
                tracer.counters[calls] = tracer.counters.get(calls, 0) + 1
                return fn(*args, **kwargs)

            return counting

        def wrapper(*args, **kwargs):
            if b.calls is not None:
                tracer.count(b.calls)
            sid = None
            if b.span is not None:
                level = tracer._levels[-1] if tracer._levels else 0
                sid = tracer.begin(b.span.format(level=level))
            try:
                result = fn(*args, **kwargs)
            finally:
                if sid is not None:
                    tracer.end(sid)
            if b.total is not None:
                tracer.count(b.total, len(result))
            if b.peak is not None:
                tracer.peak(b.peak, len(result))
            return result

        return wrapper

    # -- reporting -----------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Per span name, the summed duration of calls with no same-named ancestor."""
        out: dict[str, float] = {}
        for sid, parent, name, start, end in self.spans:
            ancestor = parent
            nested = False
            while ancestor is not None:
                if self.spans[ancestor][2] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][1]
            if not nested:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, summed duration and self time (minus children)."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for sid, parent, name, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return table

    def metrics(self, names: list[str]) -> dict[str, float]:
        """Values of the named metrics; names never recorded read 0."""
        inclusive = self.inclusive()
        return {
            n: inclusive.get(n, 0.0) if n.endswith("_s") else self.counters.get(n, 0)
            for n in names
        }

    def report(self, names: list[str]) -> dict:
        return {
            "metrics": self.metrics(names),
            "absent": list(self.absent),
            "self_times": self.self_times(),
            "spans": self.spans,
        }
