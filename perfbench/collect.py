"""Run the benchmark over several seeds and keep every result line.

    python3 perfbench/collect.py --out runs.jsonl --seeds 1-10 \\
        [--workload NAME ...] [--trace 0|1] [--seconds S]

Runs ``run.py`` once per workload and seed, one run at a time, and appends
one JSON line per run to ``--out``: workload, seed, trace flag, exit code
and the run's result object.  Feed two such files to ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=seed_list,
                        help="comma-separated seeds or ranges, e.g. 1-10,42")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="repeatable; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "exit_code": proc.returncode, "result": result}
            with open(args.out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"in {time.monotonic() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
