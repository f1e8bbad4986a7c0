#!/usr/bin/env python3
"""End-to-end benchmark of the SDL runtime.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the driver (e2ebench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR
or .bench_build, runs the workload in a fresh process, prints every metric
with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json. --trace 1 spends
half of --seconds untraced and half traced (SDL_OBS=1 SDL_OBS_SAMPLE=1 plus
the benchmark's span recorder), reports the per_layer metrics from the traced
half, and the tracing overhead as the drop in txn_per_s between the halves.
Exits 1 on a wrong answer, 2 when the driver cannot be built.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sum3_replication", "sum2_society", "sum1_consensus", "kv_mixed")
# Wall-clock budget for all driver processes of one invocation.
DRIVER_BUDGET_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "sdl_e2e"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "sdl_e2e")


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat: a busy host shows up as steal
    on a virtual machine, and explains a slow run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_driver(exe, workload, seed, seconds, traced, deadline):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--workdir", work]
    env = dict(os.environ)
    env.pop("SDL_OBS", None)
    env.pop("SDL_OBS_SAMPLE", None)
    if traced:
        cmd += ["--spans", os.path.join(work, "spans-%s-%d.csv" % (workload, seed))]
        env.update(SDL_OBS="1", SDL_OBS_SAMPLE="1")
    steal0, total0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("driver killed after the %ds budget" % DRIVER_BUDGET_S, file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("driver exited %d without a result" % proc.returncode, file=sys.stderr)
        return None
    steal1, total1 = cpu_ticks()
    result["exit_code"] = proc.returncode
    result["cpu_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    return result


def print_result(title, res):
    print("== %s: %s seed=%d threads=%d nproc=%d build=%s compiler=%s iterations=%d"
          % (title, res["workload"], res["seed"], res["threads"], res["nproc"],
             res["build_type"], res["compiler"], res["iterations"]))
    print("   cpu steal during the run: %.1f%% of all CPU time" % (100 * res["cpu_steal_frac"]))
    if res["notes"]:
        print("   " + res["notes"])
    for name, m in res["metrics"].items():
        base = ("; " + m["base"]) if m["base"] else ""
        print("   %-36s %16.6g %-6s (n=%d%s)" % (name, m["value"], m["unit"], m["samples"], base))
    for err in res["errors"]:
        print("   WRONG ANSWER: " + err)


def print_spans(res):
    spans = res["spans"]
    print("== spans: %d recorded, %d dropped (lane full), written to %s"
          % (spans["recorded"], spans["dropped"], spans["file"]))
    for name, t in spans["by_name"].items():
        print("   %-20s count=%-8d total=%.6f s self=%.6f s"
              % (name, t["count"], t["total_s"], t["self_s"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    if exe is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DRIVER_BUDGET_S
    if args.trace == 0:
        runs = [run_driver(exe, args.workload, args.seed, args.seconds, False, deadline)]
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        half = args.seconds / 2
        runs = [run_driver(exe, args.workload, args.seed, half, False, deadline)]
        if runs[0] is not None:
            runs.append(run_driver(exe, args.workload, args.seed, half, True, deadline))
        wanted = [m["name"] for m in spec["per_layer"]]
    if any(r is None for r in runs):
        return 1

    for r, title in zip(runs, ("untraced", "traced")):
        print_result(title, r)
    report = runs[-1]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in report["metrics"].items()}
    if args.trace == 1:
        print_spans(report)
        plain = runs[0]["metrics"]["txn_per_s"]["value"]
        traced = report["metrics"]["txn_per_s"]["value"]
        overhead = (plain - traced) / plain
        print("== tracing overhead: txn_per_s untraced %.6g, traced %.6g, drop %.2f%%"
              % (plain, traced, 100 * overhead))
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}

    correct = all(r["exit_code"] == 0 and not r["errors"] for r in runs)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print("e2ebench: driver did not report " + ", ".join(missing), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
