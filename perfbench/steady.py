#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads program_cpi,label_dataset]
                                [--out steady.json] [--compare old.json]

Runs perfbench/run.py --trace 0 once per seed for every workload (one
process per run, sequentially), then prints for every end-to-end metric
its median, first and third quartile (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, the metric's bound from BENCHMARK.json, and
whether the spread stays below a third of the bound. With --compare it
also prints how far each median moved against an earlier --out file.
Metrics that have been noisy before are marked with '*'. The header
records git describe, nproc and the CPU model.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Figures whose run-to-run medians an earlier version of this benchmark
# could not hold within 10%.
WATCHED = {("program_cpi", "throughput_per_s"),
           ("program_cpi", "latency_p50_us"),
           ("label_dataset", "latency_p90_us")}


def host_info():
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        describe = ""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_describe": describe or "unknown",
            "nproc": os.cpu_count(), "cpu_model": cpu}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", help="write every run's metrics as JSON")
    ap.add_argument("--compare", help="an earlier --out file")
    args = ap.parse_args()

    info = host_info()
    print(f"git {info['git_describe']}  nproc {info['nproc']}  "
          f"cpu {info['cpu_model']}  runs {args.runs}  "
          f"seconds {args.seconds:g}")
    record = {"host": info, "runs": {}}
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["runs"]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'':2}{'workload/metric':40} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6} {'ok':>3}"
          + ("  shift" if earlier else ""))
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        record["runs"][workload] = results
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = "yes" if spread < m["bound"] / 3 else "NO"
            line = (f"{'*' if (workload, name) in WATCHED else ' '} "
                    f"{workload + '/' + name:40} {med:14.6g} {q1:14.6g} "
                    f"{q3:14.6g} {spread:7.2%} {m['bound']:6.2f} {ok:>3}")
            if earlier and workload in earlier:
                old = statistics.median(r["metrics"][name]["value"]
                                        for r in earlier[workload])
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                line += f"  {worse:+7.2%} {'ok' if worse <= m['bound'] else 'WORSE'}"
            print(line, flush=True)
        print(f"  {workload}: {attempted} operations, {failed} failed",
              flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
