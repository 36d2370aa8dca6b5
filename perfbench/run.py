#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gau_1m --seed 1 --seconds 30 --trace 0

Run from the repository root. Configures and builds perfbench/ (which
builds the library from ../src) into $CARGO_TARGET_DIR or .bench_build,
runs the reference checker's self-test, then the benchmark driver. The
driver's last stdout line is the result JSON; with --trace 1 the Chrome
trace lands next to the build as trace-<workload>-<seed>.json. Build
output goes to stderr. Exits non-zero when the build, the self-test or
any check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(out):
    """Configures once, then builds both targets; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def describe():
    try:
        result = subprocess.run(["git", "describe", "--always", "--dirty"],
                                cwd=HERE, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return result.stdout.strip() or "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["gau_1m", "kdd_494k", "svc_4k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--backend", choices=["pool", "seq"], default="pool",
                        help="seq: library workloads on the Sequential "
                             "backend (single-threaded baseline)")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if subprocess.run([os.path.join(out, "kc_perfbench_check_test")]).returncode:
        print("perfbench: reference checker self-test failed", file=sys.stderr)
        return 1
    command = [os.path.join(out, "kc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--backend", args.backend, "--describe", describe()]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
