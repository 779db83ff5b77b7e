#!/usr/bin/env python3
"""Builds and runs the mpcsd benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/ (which compiles the checkout's src/ and the CLI) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), builds it, then
runs the benchmark binary. The last line of standard output is the result
object; build logs go to standard error. Result files with the host record
land in .bench_results/. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "mpcsd_bench", "mpcsd_cli"],
                   stdout=sys.stderr, check=True, timeout=840)


def run_workload(workload, args, spec, build_dir, results_dir, pins):
    """Runs one workload; prints its table and result line. Returns the exit code."""
    pin = pins["fingerprints"].get(workload, {}).get(str(args.seed))
    cmd = [os.path.join(build_dir, "mpcsd_bench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "mpcsd_cli"),
           "--work-dir", os.path.join(build_dir, "work"),
           "--results-dir", results_dir, "--git-sha", git_sha()]
    if pin is not None:
        cmd += ["--pin", pin, "--pin-nproc", str(pins["nproc"])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    # The binary's metric set must be exactly the one BENCHMARK.json declares.
    lines = proc.stdout.strip().splitlines()
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(json.loads(lines[-1])["metrics"])
    if got != declared:
        fail("metric set differs from BENCHMARK.json: %s" % sorted(got ^ declared))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "examples/mpcsd_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from the root of an mpcsd checkout" % needed)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    selected = workloads if args.workload == "all" else [args.workload]
    if not set(selected) <= set(workloads):
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    results_dir = os.path.join(ROOT, ".bench_results")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    os.makedirs(os.path.join(build_dir, "work"), exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    codes = [run_workload(w, args, spec, build_dir, results_dir, pins) for w in selected]
    sys.exit(max(codes))

if __name__ == "__main__":
    main()
