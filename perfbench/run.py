#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload program_cpi --seed 1 --seconds 20 --trace 0

Run from the root of a Concorde source tree. The first call builds the
benchmark binary (perfbench/CMakeLists.txt) into the build directory
($CARGO_TARGET_DIR if set, else .bench_build) and writes the untrained
production-layout model there as a ModelArtifact; later calls let CMake
rebuild what changed and rewrite the model only after a rebuild.

Each call runs the workload's set-up SETUP_PROBES extra times in separate
processes that stop before the first timed operation, and reports the
median set-up time of those and the measured run. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1; a layer the workload does not exercise reads 0). Lines
before it list every metric the binary reported, with its sample count.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("program_cpi", "label_dataset", "serve_mixed")
SETUP_PROBES = 8
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Allocator settings of every benchmark process: freed memory stays in
# the process (no trimming, no mmap per large allocation), so the
# measured part does not keep faulting fresh pages in. Page faults are
# kernel work whose cost a virtual machine's host changes from minute to
# minute; without these settings label_dataset spends about 10% of its
# CPU time in the kernel (630,000 faults in a 10-second process, 22,000
# with them).
GLIBC_TUNABLES = ":".join([
    "glibc.malloc.mmap_threshold=268435456",
    "glibc.malloc.trim_threshold=1073741824",
    "glibc.malloc.top_pad=67108864",
])


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_checked(cmd, timeout, **kw):
    """Run to completion; on timeout kill the child and wait for it."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"timed out after {timeout}s: {' '.join(cmd)}")
        if proc.returncode != 0:
            fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
        return out


def build(bdir):
    """Configure (once) and build the binary, then write the model if the
    binary is newer than it. Locked, so concurrent first calls do not race;
    CMake's own dependency tracking decides what to rebuild."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a Concorde source tree (no CMakeLists.txt/src)")
    os.makedirs(bdir, exist_ok=True)
    binary = os.path.join(bdir, "concorde_perfbench")
    model = os.path.join(bdir, "perfbench_model.bin")
    with open(os.path.join(bdir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
        run_checked(["cmake", "--build", bdir, "--target", "concorde_perfbench",
                     "-j", str(min(4, os.cpu_count() or 1))],
                    BUILD_TIMEOUT_S, stdout=sys.stderr)
        if not os.path.isfile(model) \
                or os.path.getmtime(model) < os.path.getmtime(binary):
            tmp = model + ".tmp"
            run_checked([binary, "--prepare", tmp], RUN_TIMEOUT_S)
            os.replace(tmp, model)
    return binary, model


def run_bench(cmd):
    out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
                      env=dict(os.environ, GLIBC_TUNABLES=GLIBC_TUNABLES))
    lines = out.strip().splitlines()
    if not lines:
        fail(f"no output from {' '.join(cmd)}")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    binary, model = build(bdir)
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--model", model]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            _, probe = run_bench(base + ["--trace", "0", "--setup-only"])
            setups.append(probe["metrics"]["setup_s"]["value"])
    cmd = base + ["--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            bdir, f"spans_{args.workload}_{args.seed}.csv")]
    log, result = run_bench(cmd)
    for line in log:
        print(line)

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups)}
        print("setup_s runs: " + " ".join(f"{s:.6f}" for s in setups))
    out = {}
    for m in wanted:
        if m["name"] not in metrics and args.trace:
            # A layer this workload does not exercise: no spans, no work.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif m["name"] not in metrics:
            fail(f"{args.workload} did not report {m['name']}")
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']}, expected {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = (bool(result["correct"]) and result["failed"] == 0
               and result["attempted"] >= 1)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
