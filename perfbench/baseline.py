#!/usr/bin/env python3
"""Measure a baseline: run.py on every workload for several seeds.

  python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For each workload and end-to-end metric it records the median over the
seeds and the quartile spread ((q3 - q1) / median, as
statistics.quantiles(n=4) gives them), next to each metric's bound from
BENCHMARK.json; then one traced run per workload (the first seed) for
the per-layer metrics. The host facts (nproc, CPU, compiler, build type)
are recorded with it, because host time only compares on one host.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def seeds_arg(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def host_facts(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache_file:
        for line in cache_file:
            match = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)",
                             line)
            if match:
                cache[match.group(1)] = match.group(2)
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              stdout=subprocess.PIPE, text=True).stdout
    cpu = ""
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
            "compiler": compiler.splitlines()[0],
            "kernel": platform.release(),
            "date": time.strftime("%Y-%m-%d", time.gmtime())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default="")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"seeds": opts.seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        values, correct = {}, True
        for seed in opts.seeds:
            report = run(workload, seed, seconds, 0)
            correct = correct and report["correct"]
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {"correct": correct, "end_to_end": {}}
        for name, samples in values.items():
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary["end_to_end"][name] = {
                "median": median, "spread": spread, "bound": bounds[name]}
            print("%-10s %-20s median %-14.6g spread %.4f bound %s"
                  % (workload, name, median, spread, bounds[name]),
                  flush=True)
        traced = run(workload, opts.seeds[0], seconds, 1)
        summary["correct"] = correct and traced["correct"]
        summary["per_layer"] = {name: metric["value"] for name, metric
                                in traced["metrics"].items()
                                if metric["value"] != 0}
        result["workloads"][workload] = summary
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    result["host"] = host_facts(os.path.join(ROOT, target, "perfbench"))
    if opts.out:
        with open(opts.out, "w") as out:
            json.dump(result, out, indent=2, sort_keys=True)
            out.write("\n")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
