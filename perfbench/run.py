#!/usr/bin/env python3
"""The repository's benchmark: builds lps_perfbench and lps_serve from
source, runs one workload, checks its output, and prints one JSON result
as the last line of stdout.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge_ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check      # the benchmark's own smoke checks

Workloads, metrics and bounds are declared in BENCHMARK.json; what each
metric measures is in perfbench/README.md. Build output goes to stderr
and to .bench_build/, run scratch to .bench_work/ (span dumps of traced
runs are kept there as spans-<workload>.tsv, the latest run's).
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170
# Smoke size of a run: long enough for 1000 ingest samples everywhere;
# edge_ingest's reader tops up after the load stops to reach the 1000
# samples a p99 needs.
SMOKE_SECONDS = 8


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no library sources next to perfbench/ (run from a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "lps_perfbench", "-j", jobs],
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail("build failed")
    return (os.path.join(BUILD_DIR, "lps_perfbench"),
            os.path.join(BUILD_DIR, "lps", "lps_serve"))


def check_result(result, spec, trace):
    """The result line's shape: exact keys, the declared metric set with
    its units, finite values, and (untraced) no end-to-end metric at 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return "%s is not a whole number" % key
    if result["attempted"] < 1:
        return "nothing was attempted"
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        return "metric set differs: missing %s, undeclared %s" % (missing, extra)
    for m in declared:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"}:
            return "%s has keys %s" % (m["name"], sorted(got))
        if got["unit"] != m["unit"]:
            return "%s in %s, declared %s" % (m["name"], got["unit"], m["unit"])
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s is not a finite number" % m["name"]
        if not trace and value == 0:
            return "%s reads 0" % m["name"]
    return None


def run_once(workload, seed, seconds, trace, spec, binaries, echo=True):
    """Runs one workload; returns (result dict, input fingerprint)."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % workload)
    bench, serve = binaries
    workdir = os.path.join(WORK_DIR, "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [bench, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--serve", serve, "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    spans = os.path.join(workdir, "spans.tsv")
    if os.path.isfile(spans):
        os.replace(spans, os.path.join(WORK_DIR, "spans-%s.tsv" % workload))
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines or not lines[-1].startswith("{"):
        fail("%s exited with %d and no result" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: %s" % lines[-1])
    problem = check_result(result, spec, trace)
    if problem:
        fail("%s: %s" % (workload, problem))
    fingerprint = None
    for line in lines:
        found = re.match(r"# inputs ([0-9a-f]+)", line)
        if found:
            fingerprint = found.group(1)
    return result, fingerprint


def self_check(spec, binaries):
    """Smoke size of every workload, traced and untraced: every declared
    metric emitted, finite and with its unit, the correctness gate run
    and passed; a second seed yields other inputs, a repeated seed the
    same inputs."""
    for w in spec["workloads"]:
        name = w["name"]
        seconds = SMOKE_SECONDS
        prints = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, fingerprint = run_once(name, seed, seconds, trace, spec, binaries,
                                           echo=False)
            if not result["correct"]:
                fail("%s seed %d trace %d: correctness gate failed" % (name, seed, trace))
            if fingerprint is None:
                fail("%s printed no input fingerprint" % name)
            prints.setdefault(seed, set()).add(fingerprint)
            print("check %s seed %d trace %d: %d metrics, %d/%d failed, inputs %s"
                  % (name, seed, trace, len(result["metrics"]), result["failed"],
                     result["attempted"], fingerprint))
        if len(prints[1]) != 1:
            fail("%s: one seed gave different inputs: %s" % (name, prints[1]))
        if prints[1] & prints[2]:
            fail("%s: seeds 1 and 2 gave the same inputs" % name)
    print("check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    binaries = build()
    if args.check:
        self_check(spec, binaries)
        return
    if not args.workload:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    result, _ = run_once(args.workload, args.seed, args.seconds, args.trace, spec, binaries)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
