"""Compare two sets of benchmark runs, or show the spread of one.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Inputs are files written by ``collect.py``.  For each workload and metric
the table gives the run count, the median and the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  An end-to-end metric is
marked ``noisy`` when its spread exceeds a third of its bound in
``BENCHMARK.json`` (``setup_s`` is exempt).  With a second file, ``change``
is how much worse (positive) or better (negative) the second median is,
as a share of the first, and ``REGRESSED`` marks a change beyond the
bound.  Failed operations are compared as a share of those attempted.
Exits 1 when a run failed, a share of failures differs, or a metric
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def failure_share(recs):
    ok = [r["result"] for r in recs if r["result"] is not None]
    attempted = sum(r["attempted"] for r in ok)
    failed = sum(r["failed"] for r in ok)
    return failed, attempted


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(p) for p in argv]
    bad = False
    for key in sorted(set().union(*sets)):
        workload, trace = key
        groups = [s.get(key, []) for s in sets]
        print(f"\n== {workload} (trace {trace}) ==")
        for label, recs in zip("AB", groups):
            failed, attempted = failure_share(recs)
            errors = sum(r["result"] is None for r in recs)
            correct = all(r["result"]["correct"] for r in recs if r["result"] is not None)
            print(f"  set {label}: {len(recs)} runs, {errors} without a result, "
                  f"correct {correct}, failed {failed}/{attempted}")
            bad |= errors > 0 or not correct
        if len(groups) == 2 and all(groups):
            shares = [failure_share(g) for g in groups]
            if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
                print("  share of failed operations differs between the sets")
                bad = True
        names = sorted({m for recs in groups for r in recs if r["result"]
                        for m in r["result"]["metrics"]},
                       key=lambda m: (m not in specs or "bound" not in specs[m], m))
        print(f"  {'metric':52s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s}  note")
        for name in names:
            spec = specs.get(name, {})
            bound = spec.get("bound")
            medians = []
            for label, recs in zip("AB", groups):
                values = [r["result"]["metrics"][name]["value"] for r in recs
                          if r["result"] and name in r["result"]["metrics"]]
                if not values:
                    continue
                med, q1, q3, spread = summary(values)
                medians.append(med)
                note = ""
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    note = f"noisy (> {bound / 3:.3f})"
                print(f"  {name:52s} {label:>3s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f}  {note}")
            if len(medians) == 2 and medians[0]:
                sign = -1.0 if spec.get("better") == "higher" else 1.0
                change = sign * (medians[1] - medians[0]) / abs(medians[0])
                flag = ""
                if bound is not None and change > bound:
                    flag = f"  REGRESSED (bound {bound})"
                    bad = True
                print(f"  {'':52s} change {change:+.3f}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
