"""fracburst benchmark: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Workloads: reproduce, long_solve, param_sweep, special_grid (see README.md).
A run sets up (import, inputs from the seed, one warm-up call) five times,
then repeats whole rounds of the workload's operations until --seconds of
timed rounds have passed, checks every output, and prints one JSON object
as its last line: `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the calls into
each layer are wrapped and timed, and the metrics are the per-layer ones.

It runs fracburst from the `src` directory next to this one and writes only
under `.bench_tmp` in the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

# The solver's history products are BLAS gemv calls. With the default
# OpenBLAS pool they wake a second thread and solve times turn bimodal, so
# the pool is pinned to one thread. reproduce's worker pool is pinned to one
# thread too: its rows hold the interpreter lock for most of each step, so a
# second worker gains nothing and makes wall time hang on the scheduler.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "FRACBURST_THREADS": "1"}

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "ok_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.resolve_steps": "count",
    "cli.csv_mb": "MB",
    "detect.calls": "count",
    "detect.levels": "count",
    "detect.steps": "count",
    "detect.busy_s": "s",
    "detect.stop_fired_ratio": "ratio",
    "solver.calls": "count",
    "solver.steps": "count",
    "solver.busy_s": "s",
    "solver.us_per_step": "us",
    "solver.fixed_us_per_step": "us",
    "solver.history_share": "ratio",
    "bounds.calls": "count",
    "bounds.busy_s": "s",
    "bounds.ms_per_call": "ms",
    "special.ml_calls": "count",
    "special.ml_failed": "count",
    "special.ml_busy_s": "s",
    "special.ml_us_per_call": "us",
    "trace.wall_s": "s",
}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import fracburst; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time `import fracburst` in a fresh interpreter, as a user's process pays it."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "long_solve", "param_sweep", "special_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, workdir: Path) -> dict:
    import workloads
    from spans import Tracer, layer_metrics, median_metrics

    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        t0 = time.perf_counter()
        workload = cls(args.seed, workdir)
        workload.warm_up()
        setups.append(seconds + time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    walls, cpus, outs, layer_rounds, problems = [], [], [], [], []
    if tracer:
        tracer.install()
    try:
        while not walls or sum(walls) < args.seconds:
            if tracer:
                tracer.reset()
            c0, t0 = cpu_seconds(), time.perf_counter()
            out = workload.run_round()
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - c0)
            if tracer:
                layer_rounds.append({**layer_metrics(tracer.spans), **workload.layer_extras(),
                                     "trace.wall_s": walls[-1]})
            outs.append(out)
            problems += workload.check_round(out)
    finally:
        if tracer:
            tracer.uninstall()
    # read before the final checks load scipy and mpmath
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.check_final(outs)

    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    if tracer:
        values = median_metrics(layer_rounds)
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": statistics.median(walls),
            "ok_per_s": (attempted - failed) / sum(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} rounds, round walls {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracburst" / "__init__.py").is_file():
        print(f"error: fracburst sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads
    sys.path.insert(0, str(SRC))
    import fracburst

    if Path(fracburst.__file__).resolve().parent != SRC / "fracburst":
        print(f"error: imported fracburst from {fracburst.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
