#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the Spindle library and the benchmark program from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload and prints its metrics; the last line of standard output
is the result JSON.

    python3 perfbench/run.py --workload scale-4096|service-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Besides the program's own checks, this wrapper verifies that the metrics
printed are exactly those BENCHMARK.json declares, and that the values the
program marks deterministic repeat bit for bit across runs of one seed on
the same sources (a record per seed is kept in the build directory).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale-4096", "service-mix")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "spindle", "spindle.h")):
        log("perfbench: Spindle sources (src/) not found next to perfbench/")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def source_key():
    """Digest of every source the measured program is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def check_determinism(record_path, values):
    """Violations against the record of an earlier run, or [] (and the
    record written) when this is the first run of this seed."""
    if not os.path.isfile(record_path):
        os.makedirs(os.path.dirname(record_path), exist_ok=True)
        with open(record_path, "w") as f:
            json.dump(values, f, sort_keys=True)
        return []
    with open(record_path) as f:
        earlier = json.load(f)
    return ["%s = %r, an earlier run of this seed gave %r"
            % (k, values.get(k), earlier[k])
            for k in sorted(earlier) if values.get(k) != earlier[k]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        with open(os.path.join(HERE, "spec.json")) as f:
            mapped = set(json.load(f)["per_layer"])
        if mapped != set(expected_metrics(1)):
            log("perfbench: spec.json and BENCHMARK.json list different "
                "per-layer metrics:", sorted(mapped ^ set(expected_metrics(1))))
            return 1
        if not build(["perfbench_selftest"]):
            return 2
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")
    if not build(["perfbench"]):
        return 2

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(build_dir(), "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        log("perfbench: benchmark program exited with code %d" % run.returncode)
        return 3

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(got.items()) ^ set(want.items())))
        return 4

    violations = []
    for line in lines[:-1]:
        if line.startswith("DETERMINISTIC "):
            record = os.path.join(build_dir(), "determinism",
                                  "%s-%s.json" % (source_key(), tag))
            violations = check_determinism(
                record, json.loads(line[len("DETERMINISTIC "):]))
        print(line)
    for v in violations:
        print("  VIOLATION: not deterministic: " + v)
    if violations:
        result["correct"] = False
        result["failed"] = min(result["failed"] + 1, result["attempted"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
