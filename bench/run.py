"""Benchmark for spectralminors.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, one after another
    python3 bench/run.py --smoke         # every workload and check, reduced size
    python3 bench/run.py --write-manifest

Run from anywhere; it imports the package from the src/ next to this
directory and refuses to run without it. One run sets up (timed in fresh
processes), then repeats whole rounds of the workload until --seconds have
passed, checks the outputs of the first round against independent oracles
and every later round against the first, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a further traced round gives the
per-layer ones, and its spans are written under bench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RUN_SECONDS = 10
SETUP_PROBES = 5
# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("round_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def manifest() -> dict:
    from spans import per_layer_metrics
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_metrics()],
    }


def environment() -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import spectralminors as sm

    if Path(sm.__file__).resolve().parent != SRC / "spectralminors":
        raise SystemExit(f"spectralminors imported from {sm.__file__}, not {SRC}")
    import spans
    from workloads import WORKLOADS, Ops, run_child

    cls = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        probe = [sys.executable, str(BENCH / "child.py"), "setup", name] + (["--smoke"] if smoke else [])
        setup_times = []
        for _ in range(1 if smoke else SETUP_PROBES):
            code, out, err, _ = run_child(probe, ROOT, workdir)
            if code != 0:
                raise SystemExit(f"set-up probe failed ({code}): {err.strip()}")
            setup_times.append(float(out.split()[-1]))

        cls.setup(sm, smoke)
        w = cls(sm, seed, smoke, ROOT, workdir)
        ops = Ops()
        times, summaries = [], []
        first = None
        t_start = perf_counter()
        while True:
            t0 = perf_counter()
            out = w.round(ops)
            times.append(perf_counter() - t0)
            summaries.append(w.summary(out))
            if first is None:
                # Later rounds run while the first one's outputs are kept for
                # the checks, so the peak is read here, where it does not
                # depend on how many rounds fit in the run.
                first = out
                peak_mb = w.peak_rss_mb()
            if perf_counter() - t_start >= seconds:
                break
        problems = [f"round {k} output differs from round 1"
                    for k, s in enumerate(summaries[1:], start=2) if s != summaries[0]]

        if trace:
            tracer = spans.Tracer()
            tracer.install()
            key = tracer.originals["canon.canonical_key"]
            before = key.cache_info()
            t0 = perf_counter()
            try:
                traced = w.round(ops, tracer)
            finally:
                traced_s = perf_counter() - t0
                after = key.cache_info()
                tracer.uninstall()
            tracer.cache_hits += after.hits - before.hits
            tracer.cache_misses += after.misses - before.misses
            if w.summary(traced) != summaries[0]:
                problems.append("traced round output differs from round 1")
            tracer.write(OUT / f"spans-{name}-seed{seed}.json")
            units = {n: u for n, u, _ in spans.per_layer_metrics()}
            values = tracer.metrics(traced_s - statistics.median(times))
            metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
        else:
            values = {"round_s": statistics.median(times),
                      "setup_s": statistics.median(setup_times),
                      "peak_rss_mb": peak_mb}
            metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
        problems += w.check(first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": environment(), "round_s": times, "setup_s": setup_times,
        "errors": ops.errors, "problems": problems,
    }
    result = {"correct": not problems, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record.update(result)
    tag = "smoke-" if smoke else ""
    (OUT / f"run-{tag}{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")
    for line in ops.errors + problems:
        print(f"{name}: {line}", file=sys.stderr)
    print(json.dumps({"workload": name, "rounds": len(times), "environment": record["environment"]}))
    return result


def run_all(args) -> int:
    """Each workload in its own process, so caches and peak memory stay
    apart; prints each result and a combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    traces = (0, 1) if args.smoke else (args.trace,)
    for name in WORKLOADS:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: " + lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per run (default {RUN_SECONDS}, 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one round, traced and untraced")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else RUN_SECONDS

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n",
                                             encoding="ascii")
        return 0
    if not (SRC / "spectralminors" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'spectralminors'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for metric, v in result["metrics"].items():
        print(f"{metric} = {v['value']!r} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
