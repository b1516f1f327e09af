"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/seeds.py --workload k2-mixed --seeds 1-10 [--trace 0]

Runs `run.py` once per seed, one run at a time, and prints for every
metric its median, first and third quartile (statistics.quantiles, n=4)
and the quartile spread as a share of the median.  The reference figures
in README.md were made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="60")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    print(f"{args.workload}, {len(results)} seeds: metric median [q1, q3] spread")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:44s} {med:14.4f} [{q1:.4f}, {q3:.4f}] {spread:.3f} {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
