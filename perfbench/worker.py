"""Workload process: set up, then run timed passes of ``algfield run``.

Started by ``run.py`` with one argument, the path of a JSON spec.  It
imports the package from the checkout's ``src``, validates every
generated config with ``algfield check-config`` and notes the moment it
is ready; with ``setup_only`` it stops there.  Otherwise it runs passes
(every config of the workload through the CLI entry point, each into its
own output directory) and prints one JSON line with the pass times, exit
codes, peak resident memory and, in a traced run, the call counts.

Untraced: passes alternate between the run's seed and its held-out seed
and continue until ``seconds`` have elapsed, at least three of them, so
that each seed that repeats can be compared byte for byte.  Traced:
untraced and traced passes alternate, all with the run's seed, until
``seconds`` have elapsed, at least one of each.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _run_pass(cli, configs, workdir, pass_id):
    outdir = workdir / f"pass{pass_id}"
    exit_codes, seconds = {}, {}
    start = time.perf_counter()
    for name, path in configs.items():
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            exit_codes[name] = cli.main(["run", path, str(outdir / name)])
        seconds[name] = time.perf_counter() - t
    return {"id": pass_id, "seconds": time.perf_counter() - start,
            "config_seconds": seconds, "exit_codes": exit_codes, "dir": str(outdir)}


def _peak_rss_kb():
    """High-water resident set of this process image.

    ``getrusage`` would not do: its ``ru_maxrss`` keeps the parent's
    high-water mark across fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import algfield
    from algfield import cli

    if not Path(algfield.__file__).resolve().is_relative_to(src):
        sys.exit(f"algfield imported from {algfield.__file__}, not from {src}")
    for configs in spec["configs"].values():
        for path in configs.values():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["check-config", path])
            if code != 0:
                sys.exit(f"check-config rejected {path} (exit code {code})")
    result = {"ready": time.monotonic()}
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    work = Path(spec["workdir"])
    passes = []
    start = time.perf_counter()
    if not spec["trace"]:
        while len(passes) < 3 or time.perf_counter() - start < spec["seconds"]:
            seed_key = ("main", "heldout")[len(passes) % 2]
            p = _run_pass(cli, spec["configs"][seed_key], work, len(passes))
            passes.append(dict(p, seed_key=seed_key, traced=False))
    else:
        from tracer import Tracer

        # untraced and traced passes alternate, so both see the same
        # machine and their difference is the tracing overhead
        tracer = Tracer(algfield)
        while len(passes) < 2 or time.perf_counter() - start < spec["seconds"]:
            traced = len(passes) % 2 == 1
            if traced:
                tracer.install()
                tracer.start_pass(len(passes))
            try:
                p = _run_pass(cli, spec["configs"]["main"], work, len(passes))
            finally:
                tracer.uninstall()
            if traced:
                p["counts"] = dict(tracer.counts)
            passes.append(dict(p, seed_key="main", traced=traced))
        tracer.write_spans(work / "spans.jsonl")
    result["peak_rss_kb"] = _peak_rss_kb()
    result["passes"] = passes
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
