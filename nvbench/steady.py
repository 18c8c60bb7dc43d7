#!/usr/bin/env python3
"""Steadiness check of the nvdeer benchmark on one commit.

    python3 nvbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                              [--first-seed 1] [--traced 2]

Runs every workload --runs times per set, each run with its own seed and
one after another (never in parallel), for --sets sets.  For each
end-to-end metric it prints every set's median, quartiles and spread
(Q3 - Q1 over the median, from statistics.quantiles(n=4)), and flags:

* SPREAD  a set's spread above the metric's bound (setup_s excepted);
* TUNE    a spread above a third of the bound;
* DRIFT   a later set's median worse than the first's by more than the
          bound;
* FAILED  a share of failed operations that differs between sets;
* WRONG   a run that reported correct = false.

Then it makes --traced traced runs of each workload with the same seed
and flags COUNTS when their counts differ; it prints the tracing
overhead of each.  The full record goes to .bench_out/steady.json.  The
exit status is 1 when anything but TUNE was flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNT_METRICS = ("deer.leggauss_calls", "deer.transfer_gauss_calls",
                 "dynamics.eigh_calls", "fitting.starts", "fitting.nfev",
                 "fitting.njev", "datasets.bytes_written")


def bench_run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"runs": {}, "flags": []}
    flags = record["flags"]

    for name in names:
        sets = []
        for k in range(args.sets):
            seeds = range(args.first_seed + k * args.runs,
                          args.first_seed + (k + 1) * args.runs)
            runs = []
            for seed in seeds:
                res = bench_run(spec, name, seed, 0)
                print(f"{name} set {k + 1} seed {seed}: "
                      + ", ".join(f"{m}={v['value']:.4g}"
                                  for m, v in res["metrics"].items()),
                      flush=True)
                if not res["correct"]:
                    flags.append(f"WRONG {name} seed {seed}")
                runs.append({"seed": seed, **res})
            sets.append(runs)
        record["runs"][name] = sets

        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        if len(shares) > 1:
            flags.append(f"FAILED {name}: failed shares {sorted(shares)}")
        print(f"\n{name}")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'spread':>9}{'bound':>7}")
        for metric, m in bounds.items():
            stats = [summary([r["metrics"][metric]["value"] for r in s])
                     for s in sets]
            for k, st in enumerate(stats):
                print(f"  {metric:<14}{k + 1:>4}{st['median']:>12.5g}"
                      f"{st['q1']:>12.5g}{st['q3']:>12.5g}"
                      f"{st['spread']:>9.4f}{m['bound']:>7}")
                if metric != "setup_s" and st["spread"] > m["bound"]:
                    flags.append(f"SPREAD {name} {metric} set {k + 1}: "
                                 f"{st['spread']:.4f} > {m['bound']}")
                elif st["spread"] > m["bound"] / 3:
                    flags.append(f"TUNE {name} {metric} set {k + 1}: "
                                 f"{st['spread']:.4f} > {m['bound']}/3")
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (st["median"] / stats[0]["median"] - 1.0)
                if worse > m["bound"]:
                    flags.append(f"DRIFT {name} {metric} set {k + 1}: "
                                 f"{100 * worse:.1f}% worse than set 1")
            record.setdefault("summary", {}).setdefault(name, {})[metric] = \
                stats

        traced = [bench_run(spec, name, args.first_seed, 1)
                  for _ in range(args.traced)]
        record.setdefault("traced", {})[name] = traced
        for res in traced:
            print(f"  traced: overhead "
                  f"{res['metrics']['trace.overhead_pct']['value']:.2f}%")
        for metric in COUNT_METRICS:
            values = {res["metrics"][metric]["value"] for res in traced}
            print(f"  traced: {metric} = {sorted(values)}")
            if len(values) > 1:
                flags.append(f"COUNTS {name} {metric}: {sorted(values)}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\nflags:" if flags else "\nno flags")
    for f in flags:
        print(f"  {f}")
    return 1 if any(not f.startswith("TUNE") for f in flags) else 0


if __name__ == "__main__":
    sys.exit(main())
