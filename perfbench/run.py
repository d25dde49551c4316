#!/usr/bin/env python3
"""Benchmark of the PIM-cache simulator.

Builds the job binary from source (perfbench/CMakeLists.txt compiles the
simulator's libraries from ../src), runs one workload for --seconds and
prints every metric by name with its unit. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 36 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones from a separate traced run. --self-test shows that a
wrong expected answer, a digest mismatch and an aborting job are each
counted as failures. perfbench/README.md explains the workloads.

Every job is its own process: PIM_PANIC ends in std::abort() and
PIM_FATAL in exit(1), and a job that dies must fail alone.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_grid", "bus_storm", "par_hits", "explore")
# Workloads whose timed run can be checked against a serialized one.
PAR_WORKLOADS = ("bus_storm", "par_hits")
# At least this many timed jobs per run, so the digest of one seed is
# compared across runs.
MIN_JOBS = 2
JOB_TIMEOUT_S = 150
# Emitted by traced jobs besides the per-layer metrics.
TRACED_EXTRA = ("refs_per_s",)


def log(*parts):
    print(*parts, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure and build the job binary; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_job"]]
    with open(log_path, "w") as log_file:
        for step in steps:
            if subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(out, "perfbench_job")


def no_core_dumps():
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


class Job:
    """Outcome of one job process."""

    def __init__(self, ok, reason, digest="", metrics=None):
        self.ok = ok
        self.reason = reason
        self.digest = digest
        self.metrics = metrics or {}

    def fail(self, reason):
        if self.ok:
            self.reason = reason
        self.ok = False


def spawn(binary, args):
    """Run one job process and parse its PERFBENCH_JOB line."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=JOB_TIMEOUT_S,
                              preexec_fn=no_core_dumps)
    except subprocess.TimeoutExpired:
        return Job(False, "timed out after %d s" % JOB_TIMEOUT_S)
    stderr_tail = " | ".join(proc.stderr.strip().splitlines()[-2:])
    if proc.returncode < 0:
        name = signal.Signals(-proc.returncode).name
        return Job(False, "killed by %s: %s" % (name, stderr_tail))
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("PERFBENCH_JOB ")]
    if not lines:
        return Job(False, "exit %d without a report: %s"
                   % (proc.returncode, stderr_tail))
    report = json.loads(lines[-1][len("PERFBENCH_JOB "):])
    return Job(report["ok"], report["reason"], report["digest"],
               report["metrics"])


class Tally:
    """Attempted and failed jobs, with each failure's reason printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label, job):
        self.attempted += 1
        if not job.ok:
            self.failed += 1
            log("FAILED %s: %s" % (label, job.reason))

    def check_digests(self, label, jobs, expected):
        """Fail every ok job whose digest differs from @p expected."""
        for index, job in enumerate(jobs):
            if job.ok and job.digest != expected:
                job.fail("digest mismatch: %s != %s" % (job.digest, expected))
                self.failed += 1
                log("FAILED %s job %d: %s" % (label, index, job.reason))


def run_until(seconds, make_job, min_jobs):
    """Start jobs (at least @p min_jobs) while one more of median length
    still ends within @p seconds."""
    start = time.monotonic()
    jobs, lengths = [], []
    while len(jobs) < min_jobs or (time.monotonic() - start
                                   + statistics.median(lengths) <= seconds):
        began = time.monotonic()
        jobs.append(make_job(len(jobs)))
        lengths.append(time.monotonic() - began)
    return jobs


def medians(jobs, names):
    """Median of each metric over the run's ok jobs."""
    ok = [j for j in jobs if j.ok]
    values = {}
    for name in names:
        samples = [j.metrics[name] for j in ok if name in j.metrics]
        if samples:
            values[name] = statistics.median(samples)
    return values


def job_args(workload, seed, mode, spans=None):
    args = ["job", "--workload", workload, "--seed", str(seed),
            "--mode", mode]
    if spans:
        args += ["--spans", spans]
    return args


def run_timed(binary, opts, tally):
    """The end-to-end run: timed jobs for --seconds."""
    reference = None
    if opts.workload in PAR_WORKLOADS:
        reference = spawn(binary, job_args(opts.workload, opts.seed,
                                           "reference"))
        tally.add("reference run", reference)
    start = time.monotonic()
    jobs = run_until(opts.seconds, lambda i: spawn(
        binary, job_args(opts.workload, opts.seed, "timed")), MIN_JOBS)
    for index, job in enumerate(jobs):
        tally.add("job %d" % index, job)
        if job.ok:
            log("job %d: refs_per_s %.6g wall_s %.6g cpu_s %.6g" % (
                index, job.metrics["refs_per_s"], job.metrics["wall_s"],
                job.metrics["cpu_s"]))
    ok = [j for j in jobs if j.ok]
    if reference is not None and reference.ok:
        tally.check_digests("timed vs serialized reference", ok,
                            reference.digest)
    elif ok:
        tally.check_digests("timed jobs of one seed", ok, ok[0].digest)
    log("jobs: %d timed in %.1f s" % (len(jobs), time.monotonic() - start))
    return jobs


def run_traced(binary, opts, tally, per_layer):
    """The traced run: untraced and traced jobs in turn."""
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    untraced, traced = [], []

    def pair(index):
        untraced.append(spawn(binary, job_args(opts.workload, opts.seed,
                                               "timed")))
        spans = os.path.join(spans_dir, "%s-seed%d-%d.json"
                             % (opts.workload, opts.seed, index))
        traced.append(spawn(binary, job_args(opts.workload, opts.seed,
                                             "traced", spans)))
        log("spans: %s" % spans)
        return traced[-1]

    run_until(opts.seconds, pair, 1)
    for index, job in enumerate(untraced):
        tally.add("untraced job %d" % index, job)
    for index, job in enumerate(traced):
        tally.add("traced job %d" % index, job)
        unknown = set(job.metrics) - set(per_layer) - set(TRACED_EXTRA)
        if job.ok and unknown:
            job.fail("metrics missing from BENCHMARK.json: %s"
                     % ", ".join(sorted(unknown)))
            tally.failed += 1
            log("FAILED traced job %d: %s" % (index, job.reason))
    ok = [j for j in untraced + traced if j.ok]
    if ok:
        tally.check_digests("traced vs untraced jobs", ok, ok[0].digest)
    return untraced, traced


def layer_metrics(untraced, traced, per_layer):
    values = medians(traced, per_layer)
    base = medians(untraced, ["refs_per_s"]).get("refs_per_s")
    with_trace = medians(traced, ["refs_per_s"]).get("refs_per_s")
    if base and with_trace:
        values["trace.untraced_refs_per_s"] = base
        values["trace.traced_refs_per_s"] = with_trace
        values["trace.overhead_frac"] = base / with_trace - 1.0
    # A layer this workload does not exercise did no work: 0.
    for name in per_layer:
        values.setdefault(name, 0.0)
    return values


def self_test(binary):
    """Planted failures must each be counted; real jobs still report."""
    tally = Tally()
    abort = spawn(binary, ["probe", "--case", "abort"])
    tally.add("abort probe", abort)
    wrong = spawn(binary, ["probe", "--case", "wrong-answer"])
    tally.add("wrong-answer probe", wrong)
    real = [spawn(binary, job_args("bus_storm", 1, "timed"))
            for _ in range(2)]
    for index, job in enumerate(real):
        tally.add("bus_storm job %d" % index, job)
    real[1].digest = "0" * 16  # a planted digest mismatch
    tally.check_digests("bus_storm jobs of one seed", real, real[0].digest)
    checks = [
        ("abort counted as failed", not abort.ok
         and abort.reason.startswith("killed by SIGABRT")),
        ("wrong answer counted as failed", not wrong.ok
         and "host mirror" in wrong.reason),
        ("digest mismatch counted as failed", not real[1].ok
         and real[1].reason.startswith("digest mismatch")),
        ("other jobs still report", real[0].ok
         and "refs_per_s" in real[0].metrics),
        ("failed/attempted = 3/4", (tally.failed, tally.attempted) == (3, 4)),
    ]
    for name, passed in checks:
        log("%s: %s" % ("ok" if passed else "NOT OK", name))
    return all(passed for _, passed in checks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")
    if opts.seed < 0:
        parser.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    binary = build()
    if binary is None:
        return 1
    if opts.self_test:
        return 0 if self_test(binary) else 1

    tally = Tally()
    if opts.trace == 0:
        declared = spec["end_to_end"]
        jobs = run_timed(binary, opts, tally)
        values = medians(jobs, [m["name"] for m in declared])
    else:
        declared = spec["per_layer"]
        names = [m["name"] for m in declared]
        untraced, traced = run_traced(binary, opts, tally, names)
        values = layer_metrics(untraced, traced, names)

    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            log("%-34s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
        else:
            log("%-34s missing" % m["name"])
    log("%-34s %.6g (%d of %d jobs failed)" % (
        "failed_frac", tally.failed / max(1, tally.attempted),
        tally.failed, tally.attempted))
    correct = tally.failed == 0 and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
