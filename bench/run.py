"""Construct/verify benchmark for perfectcover.

    python3 bench/run.py --workload k1-cover --seed 7 --seconds 60 --trace 0

Each round runs the way a user does: one fresh process constructs,
serializes and writes a certificate; then the workload's number of fresh
processes each load and verify it; then the outputs are checked, outside
any timed region, by `check.py` (sympy, no perfectcover code).  Processes
run one at a time.  There are at least MIN_ROUNDS rounds, and another
starts while the last round's length still fits in --seconds;
construct_s and verify_s are medians over all constructs and verifies.
Set-up (a fresh interpreter that imports perfectcover and parses the
family file) is timed SETUP_SAMPLES times before the rounds, once before
each construct and verify process, and SETUP_SAMPLES times after the
rounds; setup_s is the median.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 each round is run twice, untraced and traced (layertrace.py),
and the last line holds the per-layer metrics plus the tracing overhead.
Certificates, traces and results go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from check import check_certificate, check_steps
from layertrace import metric_names

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
RUN_LIMIT_S = 170  # a run, children included, ends within this
OPERATIONS = ("construct", "verify", "check")


@dataclass(frozen=True)
class Workload:
    family: str
    budget: int
    orders: dict  # member name -> its order, as known from mathematics
    # Verify processes per construct.  Where verify takes well under half
    # of construct's time, more verifies give its median more samples.
    verifies: int


# Why each workload is here: bench/README.md (k2-affine is run by hand only).
WORKLOADS = {
    "k1-cover": Workload("k1-cover.txt", 61, {"A5": 60, "A6": 360, "PSL27": 168}, 2),
    "k2-affine": Workload("k2-affine.txt", 2, {"E16A5": 960}, 1),
    "k2-mixed": Workload("k2-mixed.txt", 2, {"SL25": 120, "E16A5": 960}, 1),
}


def family_params(path: str) -> dict[str, int]:
    """The d and k of a family file's `params d=<d> k=<k>` line."""
    with open(path) as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts and parts[0] == "params":
                return {key: int(value) for key, value in (p.split("=") for p in parts[1:])}
    raise ValueError(f"{path} has no params line")


class StepFailed(Exception):
    pass


def run_child(deadline: float, *argv: str) -> dict:
    """Run child.py to completion (killed at `deadline`); its JSON result."""
    proc = subprocess.run(
        [sys.executable, CHILD, *argv],
        capture_output=True, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        raise StepFailed(f"{argv[0]} exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """Hash of the package sources, so certificates are compared per code version."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "perfectcover")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


class Run:
    """State of one benchmark run: rounds, operation counts, digests."""

    def __init__(self, name: str, workload: Workload, seed: int, out: str):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.out = out
        self.family = os.path.join(BENCH_DIR, "families", workload.family)
        self.attempted = {op: 0 for op in OPERATIONS}
        self.failed = {op: 0 for op in OPERATIONS}
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.checked: dict[str, list[str]] = {}  # certificate digest -> its problems
        self.setups: list[float] = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def fail(self, ops, message: str) -> None:
        for op in ops:
            self.failed[op] += 1
        print(f"  failed: {message}", flush=True)

    def round(self, tag: str, trace: bool) -> dict | None:
        """Construct once, verify the certificate in the workload's number of
        processes (one when traced) and check; returns the round's figures."""
        verifies = 1 if trace else self.workload.verifies
        self.attempted["construct"] += 1
        self.attempted["verify"] += verifies
        self.attempted["check"] += 1
        cert = os.path.join(self.out, f"cert-{tag}.json")

        def trace_args(proc):
            return ["--trace", os.path.join(self.out, f"trace-{proc}-{tag}.json")] if trace else []

        self.setup_samples(1)
        try:
            c = run_child(
                self.deadline, "construct", ROOT, self.family, "--seed", str(self.seed),
                "--budget", str(self.workload.budget), "--out", cert, *trace_args("construct"),
            )
        except (StepFailed, subprocess.TimeoutExpired) as exc:
            self.fail(OPERATIONS, str(exc))
            self.failed["verify"] += verifies - 1
            return None
        vs = []
        for i in range(verifies):
            self.setup_samples(1)
            try:
                vs.append(run_child(self.deadline, "verify", ROOT, cert, *trace_args("verify")))
            except (StepFailed, subprocess.TimeoutExpired) as exc:
                self.fail(OPERATIONS[1:], str(exc))
                self.failed["verify"] += verifies - 1 - i
                return None
        with open(cert, "rb") as fh:
            raw = fh.read()
        try:
            problems = self.check(raw, vs)
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(OPERATIONS[2:], f"check could not read the certificate: {exc!r}")
            return None
        if problems:
            self.problems.extend(problems)
            print(f"  check: {problems}", flush=True)
        return {
            "construct_s": c["construct_s"],
            "verify_s": [v["verify_s"] for v in vs],
            "cert_bytes": len(raw),
            "peak_rss_mb": max(c["peak_rss_mb"], *(v["peak_rss_mb"] for v in vs)),
        }

    def check(self, raw: bytes, verified: list[dict]) -> list[str]:
        problems = []
        for v in verified:
            if not v["valid"]:
                problems.append(f"verifier rejected the certificate: {v['message']}")
            problems += check_steps(v["steps"])
        digest = hashlib.sha256(raw).hexdigest()
        self.digests.add(digest)
        if len(self.digests) > 1:
            problems.append("certificates of one seed differ between rounds")
        # The group checks depend only on the certificate's bytes, so a
        # byte-identical certificate has the result already computed.
        if digest not in self.checked:
            data = json.loads(raw)
            found = []
            want = {"seed": self.seed, "budget": self.workload.budget,
                    **family_params(self.family)}
            for key, value in want.items():
                if data.get(key) != value:
                    found.append(f"certificate {key}={data.get(key)!r}, expected {value}")
            self.checked[digest] = found + check_certificate(data, self.workload.orders)
        return problems + self.checked[digest]

    def check_recorded_digest(self) -> None:
        """Certificates of one seed and one source version must repeat across runs."""
        if len(self.digests) != 1:
            return
        path = os.path.join(OUT_DIR, "digests.json")
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            record = {}
        key = f"{self.name} seed={self.seed} src={source_digest()}"
        digest = next(iter(self.digests))
        if record.setdefault(key, digest) != digest:
            self.problems.append(f"certificate differs from an earlier run ({key})")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def setup_samples(self, n: int = SETUP_SAMPLES) -> None:
        """Time n fresh set-ups.  Spread over the run, between the rounds'
        processes, so that setup_s sees the host as the rounds do."""
        for _ in range(n):
            self.setups.append(run_child(self.deadline, "setup", ROOT, self.family)["setup_s"])


def median(rows: list[dict], key: str) -> float:
    """Median of a figure over rounds; a round's list of samples counts each one."""
    return statistics.median(
        x for r in rows for x in (r[key] if isinstance(r[key], list) else [r[key]])
    )


def trace_metrics(run: Run, tags: list[str]) -> dict:
    names = metric_names()
    out = {}
    for proc in ("construct", "verify"):
        reports = []
        for tag in tags:
            with open(os.path.join(run.out, f"trace-{proc}-{tag}.json")) as fh:
                reports.append(json.load(fh))
        for name in names:
            value = statistics.median(r["metrics"][name] for r in reports)
            out[f"{proc}.{name}"] = (value, "s" if name.endswith("_s") else "count")
        table = sorted(reports[0]["self_times"].items(), key=lambda kv: -kv[1]["self_s"])
        print(f"{proc}: self time by span (first traced round)")
        for span, row in table[:14]:
            print(f"  {span:48s} calls {row['calls']:8d}  total {row['total_s']:8.3f} s"
                  f"  self {row['self_s']:8.3f} s")
        if reports[0]["absent"]:
            print(f"{proc}: absent boundaries: {', '.join(reports[0]['absent'])}")
    return out


def measure(run: Run, args) -> tuple[list, list]:
    """Whole rounds: a round starts only while the previous round's length
    still fits in --seconds, after a minimum number of rounds."""
    rounds, traced = [], []
    start = time.perf_counter()
    n, last = 0, 0.0
    while n < (1 if args.trace else MIN_ROUNDS) or (
        time.perf_counter() - start + last <= args.seconds
    ):
        t0 = time.perf_counter()
        row = run.round(f"r{n}", trace=False)
        if row is not None:
            rounds.append(row)
        trow = run.round(f"t{n}", trace=True) if args.trace else None
        if trow is not None:
            traced.append((f"t{n}", trow))
        n += 1
        last = time.perf_counter() - t0
        print(f"round {n}: {row}" + (f", traced {trow}" if args.trace else ""), flush=True)
    if not args.trace:
        run.setup_samples()
    return rounds, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(out, exist_ok=True)
    run = Run(args.workload, workload, args.seed, out)
    try:
        run.setup_samples(1)  # compiles bytecode; not counted
        run.setups.clear()
        run.setup_samples()
        rounds, traced = measure(run, args)
    except (StepFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    run.check_recorded_digest()
    print("operations (attempted/failed): " + ", ".join(
        f"{op} {run.attempted[op]}/{run.failed[op]}" for op in OPERATIONS))

    if not rounds or (args.trace and not traced):
        print("error: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = trace_metrics(run, [tag for tag, _ in traced])
        trows = [row for _, row in traced]
        for key in ("construct_s", "verify_s"):
            proc = key[:-2]
            metrics[f"{proc}.trace_overhead"] = (median(trows, key) / median(rounds, key), "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(run.setups), "s"),
            "construct_s": (median(rounds, "construct_s"), "s"),
            "verify_s": (median(rounds, "verify_s"), "s"),
            "cert_bytes": (median(rounds, "cert_bytes"), "B"),
            "peak_rss_mb": (median(rounds, "peak_rss_mb"), "MB"),
        }
    result = {
        "correct": not run.problems,
        "attempted": sum(run.attempted.values()),
        "failed": sum(run.failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "setup_s": run.setups, "rounds": rounds, "problems": run.problems,
                   "operations": {op: [run.attempted[op], run.failed[op]] for op in OPERATIONS}},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
