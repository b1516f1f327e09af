"""One fresh-process step of a benchmark round; prints one JSON line.

    child.py setup     ROOT FAMILY
    child.py construct ROOT FAMILY --seed N --budget G --out CERT [--trace T]
    child.py verify    ROOT CERT [--trace T]

ROOT is the checkout whose `src/` holds the perfectcover under test.
`setup` times a fresh interpreter from the start of this script (a few
standard-library imports) through `import perfectcover` and
`parse_family_file`; `construct` times what `perfectcover construct`
does after set-up (construct, serialize, dumps, file write); `verify`
times load plus verification.
With --trace, the layer boundaries are wrapped before the timed region
and the trace report is written to T after it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _import_package(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import perfectcover

    if not os.path.abspath(perfectcover.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfectcover was imported from {perfectcover.__file__}, not {src}")


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss would also count the
    # memory of the parent that forked it.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _tracer(path):
    if path is None:
        return None
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _write_trace(tracer, path, names) -> None:
    if tracer is None:
        return
    with open(path, "w") as fh:
        json.dump(tracer.report(names), fh)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "construct", "verify"))
    parser.add_argument("root")
    parser.add_argument("path")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    _import_package(args.root)
    from perfectcover import groupfile

    if args.mode == "setup":
        groupfile.parse_family_file(args.path)
        return {"setup_s": time.perf_counter() - T_START}

    from layertrace import metric_names

    names = metric_names()
    if args.mode == "construct":
        family_names, groups, d, k = groupfile.parse_family_file(args.path)
        tracer = _tracer(args.trace)
        # Looked up after install, so the traced run calls the wrappers.
        from perfectcover import certificates, construction

        t0 = time.perf_counter()
        span = tracer.begin("run.construct") if tracer else None
        cert = construction.construct(
            groups, d, k, names=family_names, seed=args.seed, budget=args.budget
        )
        text = certificates.dumps_certificate(certificates.serialize_certificate(cert))
        with open(args.out, "w") as fh:
            fh.write(text)
        if tracer:
            tracer.end(span)
        elapsed = time.perf_counter() - t0
        _write_trace(tracer, args.trace, names)
        return {"construct_s": elapsed, "peak_rss_mb": _peak_rss_mb()}

    tracer = _tracer(args.trace)
    from perfectcover import certificates

    t0 = time.perf_counter()
    span = tracer.begin("run.verify") if tracer else None
    report = certificates.verify_certificate(certificates.load_certificate(args.path))
    if tracer:
        tracer.end(span)
    elapsed = time.perf_counter() - t0
    _write_trace(tracer, args.trace, names)
    return {
        "verify_s": elapsed,
        "peak_rss_mb": _peak_rss_mb(),
        "valid": report.valid,
        "message": report.message,
        "steps": [[s.name, s.ok] for s in report.steps],
    }


if __name__ == "__main__":
    print(json.dumps(main()))
