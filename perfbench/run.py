"""Scenario benchmark of ``algfield``: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from ``src`` as it
stands; nothing is built or installed.  This process writes the workload's
configs with the seed (and a held-out seed) into a scratch directory under
``.bench_work``, measures set-up in fresh single-threaded worker processes,
lets one worker run the timed passes (``worker.py``), then checks every
output the passes wrote against ``oracles.py`` and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json`` -- end-to-end with ``--trace 0``,
per-layer with ``--trace 1``.  A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import oracles  # noqa: E402
from tracer import pass_summaries  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = SRC / "algfield" / "configs"
OWN = HERE / "configs"

# workload -> configs, each run by ``algfield run`` once per pass
WORKLOADS = {
    "cs_lattice": {"chern_simons": SHIPPED / "chern_simons.json"},
    "mechanics_rk4": {"rigid_body": SHIPPED / "rigid_body.json",
                      "heavy_top": SHIPPED / "heavy_top.json"},
    "curved_field2d": {"standard_field": SHIPPED / "standard_field.json",
                       "atiyah_euler_poincare": SHIPPED / "atiyah_euler_poincare.json",
                       "standard_field_linear_u": OWN / "standard_field_linear_u.json"},
}
HELDOUT_OFFSET = 100003      # held-out seed = seed + HELDOUT_OFFSET
# set-up-only workers before the measuring worker and as many after it, so
# that set-up is sampled across the run, not in one burst
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# problem size
# ---------------------------------------------------------------------------

def lattice_nodes(config) -> int:
    """Nodes of every lattice a pass builds a field on, for one config.

    Sampled, gauge-generated and integrated fields each count once, however
    many sweeps (residual, EL, CSV) then read them.  This is the problem
    size, fixed by the config, so ``nodes_per_s`` is its rate.
    """
    p = config.get("params", {})
    kinds = {c["kind"] for c in config["checks"]}
    scenario = config["scenario"]
    if scenario in ("rigid_body", "heavy_top"):
        steps = int(round(p["t_end"] / p["dt"]))
        total = steps + 1
        if "drift_convergence" in kinds:
            total += 2 * steps + 1
        if "first_variation_convergence" in kinds:
            total += 101 + 201
        return total
    n = int(p.get("lattice", 12))
    dim = 3 if scenario == "chern_simons" else int(p.get("base_dim", 2))
    coarse, fine = n ** dim, (2 * n) ** dim
    total = coarse
    if "morphism_convergence" in kinds:
        # gauge scenarios reuse their field at n; standard_field samples afresh
        total += fine + (coarse if scenario == "standard_field" else 0)
    if "first_variation_convergence" in kinds:
        total += coarse + fine
    if "rigid_body_crosscheck" in kinds:
        total += 2 * 101
    return total


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _spawn(spec, workdir, deadline):
    """Run one worker to its end; return its result with ``setup_s`` added."""
    spec_path = workdir / f"spec-{time.monotonic_ns()}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    """Counts operations attempted and failed; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.messages = []
        self.failed = 0

    def record(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)


def _output_check(name, config, outdir, references):
    """The config's CSV against the independent computation."""
    p = config.get("params", {})
    seed = config["seed"]
    scenario = config["scenario"]
    if scenario == "chern_simons":
        return oracles.check_gauge_csv(outdir / "residuals.csv", seed, int(p["lattice"]), 3,
                                       float(p.get("gauge_amplitude", 0.5)))
    if scenario == "atiyah_euler_poincare":
        return oracles.check_gauge_csv(outdir / "residuals.csv", seed, int(p["lattice"]),
                                       int(p.get("base_dim", 2)),
                                       float(p.get("gauge_amplitude", 0.5)))
    if scenario == "standard_field":
        coeffs = (p.get("connection_coeffs", [0.4, -0.7])
                  if p.get("connection") == "linear_u" else [0.0, 0.0])
        points = next(c.get("points", 100) for c in config["checks"]
                      if c["kind"] == "structure_equations")
        return oracles.check_scalar_csv(outdir / "residuals.csv", seed, int(p["lattice"]),
                                        points, coeffs)
    if scenario == "rigid_body":
        return oracles.check_rigid_body_csv(outdir / "trajectory.csv", p,
                                            references[name])
    if scenario == "heavy_top":
        return oracles.check_heavy_top_csv(outdir / "trajectory.csv", p,
                                           references[name])
    raise BenchError(f"no output check for scenario {scenario!r}")


def _same_files(first, other):
    names = sorted(f.name for f in first.iterdir() if f.name != "timing.json")
    if names != sorted(f.name for f in other.iterdir() if f.name != "timing.json"):
        return [f"{other}: output files differ from {first}"]
    return [f"{other / n}: not byte-identical to {first / n}" for n in names
            if (first / n).read_bytes() != (other / n).read_bytes()]


def check_passes(passes, configs):
    """Every pass's outputs: report, CSV oracle and, for a repeated seed, bytes."""
    references = {}
    for name, cfg in configs["main"].items():
        if cfg["scenario"] == "rigid_body":
            references[name] = oracles.rigid_body_reference(cfg["params"])
        elif cfg["scenario"] == "heavy_top":
            references[name] = oracles.heavy_top_reference(cfg["params"])
    checks = Checks()
    first_pass = {}
    for p in passes:
        first = first_pass.setdefault(p["seed_key"], Path(p["dir"]))
        for name, cfg in configs[p["seed_key"]].items():
            outdir = Path(p["dir"]) / name
            checks.record(oracles.check_report(outdir / "report.json", cfg,
                                               p["exit_codes"][name]))
            checks.record(_output_check(name, cfg, outdir, references))
            if first != Path(p["dir"]):
                checks.record(_same_files(first / name, outdir))
    return checks


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup_samples, peak_rss_kb, nodes_per_pass):
    wall = statistics.median(p["seconds"] for p in passes)
    return {
        "wall_s": (wall, "s"),
        "nodes_per_s": (nodes_per_pass / wall, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def per_layer(passes, spans, names_units, checks):
    """Per-layer metrics: medians over traced passes of per-pass values."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    summaries = pass_summaries(spans)
    for p in traced[1:]:
        checks.record([] if p["counts"] == traced[0]["counts"]
                      else [f"call counts differ between traced passes in {p['dir']}"])

    def value(metric, p):
        if metric == "trace.overhead_s":
            return p["seconds"] - statistics.median(u["seconds"] for u in untraced)
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            return p["counts"].get(base, 0)
        agg = summaries.get(p["id"], {}).get(base, {"s": 0.0, "self_s": 0.0, "work": 0})
        if kind in ("s", "self_s"):
            return agg[kind]
        if kind.startswith("us_per_"):
            return 1e6 * agg["self_s"] / agg["work"] if agg["work"] else 0.0
        raise BenchError(f"no rule for per-layer metric {metric!r}")

    out = {}
    for metric, unit in names_units:
        values = [value(metric, p) for p in traced]
        # counts repeat exactly (checked above); times are medians
        out[metric] = (values[0] if metric.endswith(".calls") else statistics.median(values),
                       unit)
    return out


# ---------------------------------------------------------------------------

def run(args, workdir):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    (workdir / "configs").mkdir(parents=True)
    configs, paths = {}, {}
    for seed_key, seed in (("main", args.seed), ("heldout", args.seed + HELDOUT_OFFSET)):
        configs[seed_key], paths[seed_key] = {}, {}
        for name, source in WORKLOADS[args.workload].items():
            cfg = json.loads(source.read_text())
            cfg["seed"] = seed
            path = workdir / "configs" / f"{name}-{seed}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            configs[seed_key][name], paths[seed_key][name] = cfg, str(path)

    spec = {"src": str(SRC), "configs": paths, "workdir": str(workdir),
            "seconds": args.seconds, "trace": bool(args.trace), "setup_only": True}
    samples = 0 if args.trace else SETUP_SAMPLES
    setup = [_spawn(spec, workdir, deadline)["setup_s"] for _ in range(samples)]
    result = _spawn(dict(spec, setup_only=False), workdir, deadline)
    setup.append(result["setup_s"])
    setup += [_spawn(spec, workdir, deadline)["setup_s"] for _ in range(samples)]
    passes = result["passes"]

    checks = check_passes(passes, configs)
    if args.trace:
        spans_file = workdir / "spans.jsonl"
        spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
        shutil.copyfile(spans_file, workdir.parent / f"trace-{args.workload}-s{args.seed}.jsonl")
        metrics = per_layer(passes, spans,
                            [(m["name"], m["unit"]) for m in bench["per_layer"]], checks)
    else:
        nodes = sum(lattice_nodes(cfg) for cfg in configs["main"].values())
        metrics = end_to_end(passes, setup, result["peak_rss_kb"], nodes)
        if set(metrics) != {m["name"] for m in bench["end_to_end"]}:
            raise BenchError("end-to-end metrics do not match BENCHMARK.json")

    per_config = {name: statistics.median(p["config_seconds"][name] for p in passes)
                  for name in configs["main"]}
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced) of "
          + ", ".join(f"{p['seconds']:.3f}" for p in passes)
          + " s; median seconds per config "
          + ", ".join(f"{n} {s:.3f}" for n, s in per_config.items())
          + "; set-up samples " + ", ".join(f"{s:.3f}" for s in setup) + " s",
          file=sys.stderr)
    for message in checks.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in (SRC / "algfield" / "cli.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of an algfield checkout",
                  file=sys.stderr)
            return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result = run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
