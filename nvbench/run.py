#!/usr/bin/env python3
"""Benchmark of the nvdeer simulate/fit pipeline.

    python3 nvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program runs single-threaded: one BLAS
thread and NVDEER_THREADS=1 are set here, before numpy is imported (see
README.md for the measurements behind that).

--trace 0 runs whole rounds of the workload until S seconds have passed
and prints the end-to-end metrics; --trace 1 does the same, then one more
round with the layer wrappers of tracer.py installed, and prints the
per-layer metrics of that round.  Either way the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs go to .bench_out/<workload>/ under the repository root.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NVDEER_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_SAMPLES = 3

_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
from nvdeer.cli import load_config
load_config(sys.argv[1], None, [a.split("=", 1) for a in sys.argv[2:]])
print(time.perf_counter() - t0)
"""


def setup_seconds(config):
    """Median time to import nvdeer.cli and resolve config in fresh
    interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, *config],
                             env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_round(workload, seed, tracer=None):
    """One round in a clean directory; returns (Round, check errors)."""
    from workloads import WORKLOADS, Round
    body, check, _ = WORKLOADS[workload]
    out_dir = os.path.join(OUT, workload, "round")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    rnd = Round(out_dir, seed, tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            body(rnd)
        except Exception as exc:  # reported as a failed operation
            return rnd, [f"{type(exc).__name__}: {exc}"]
    for w in {str(w.message) for w in caught}:
        print(f"warning: {w}", file=sys.stderr)
    try:
        errors = check(rnd)
    except (OSError, KeyError, ValueError) as exc:
        return rnd, [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    print(f"check: {rnd.note}", file=sys.stderr)
    return rnd, errors


def round_simulate(rnd):
    """The round's simulate phase: the mean of its timed samples (none
    when its first operation failed)."""
    return statistics.fmean(rnd.sim_samples) if rnd.sim_samples else 0.0


def round_total(rnd):
    """Config to final output: the round's simulate phase plus its fit
    calls."""
    return round_simulate(rnd) + rnd.fit_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nvdeer", "cli.py")):
        print(f"nvbench: no nvdeer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"nvbench: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)

    setup = setup_seconds(WORKLOADS[args.workload][2])
    rounds, errors = [], []
    t_start = time.perf_counter()
    while True:
        rnd, errs = run_round(args.workload, args.seed)
        rounds.append(rnd)
        errors += errs
        print(f"round {len(rounds)}: simulate "
              + " ".join(f"{s:.4f}" for s in rnd.sim_samples)
              + f" s, fit {rnd.fit_s:.4f} s", file=sys.stderr)
        if time.perf_counter() - t_start >= args.seconds:
            break

    simulate = [round_simulate(r) for r in rounds]
    total = [round_total(r) for r in rounds]
    if args.trace:
        import tracer as tr
        t = tr.Tracer()
        tr.install(t)
        try:
            rnd, errs = run_round(args.workload, args.seed, tracer=t)
        finally:
            t.uninstall()
        rounds.append(rnd)
        errors += errs
        t.write(os.path.join(OUT, args.workload, "trace.json"))
        metrics = tr.layer_metrics(t)
        metrics["trace.overhead_pct"] = 100.0 * (
            round_total(rnd) / statistics.median(total) - 1.0)
        units = {k: tr.unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": setup,
            "simulate_s": statistics.median(simulate),
            "total_s": statistics.median(total),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "simulate_s": "s", "total_s": "s",
                 "peak_rss_mb": "MB"}

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s), seed {args.seed}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
