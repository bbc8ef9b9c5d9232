#!/usr/bin/env python3
"""Build the PIF benchmark from source and run one workload.

    python3 pifbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pifbench/run.py --selftest

Run from the root of a checkout.  The benchmark is compiled with CMake from
pifbench/CMakeLists.txt, which builds the repository's src/ libraries as they
are, into $CARGO_TARGET_DIR/pifbench (default .bench_build/pifbench).  Build
output goes to standard error, so the last line of standard output is the
workload's JSON result.  Each workload runs in a fresh single-threaded
process; traces and layer tables land in <build dir>/out.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("engine_sync_1m", "engine_snap_1k", "emulate_lossy_1k", "serve_udp_lossy")
RUN_TIMEOUT_S = 175

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"pifbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "pifbench")


def build(targets):
    """Configures (once) and builds; exits non-zero on any failure."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail(f"repository sources not found under {REPO}/src; nothing to build")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            fail(f"build step failed ({' '.join(cmd)})", 3)
    return bdir


def run(cmd):
    """Runs one child to completion (killed past the timeout); returns its code."""
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{cmd[0]} ran past {RUN_TIMEOUT_S} s and was stopped", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's own oracles")
    args = ap.parse_args()

    if args.selftest:
        bdir = build(["pifbench_selftest"])
        sys.exit(run([os.path.join(bdir, "pifbench_selftest")]))
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    bdir = build(["pifbench"])
    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([os.path.join(bdir, "pifbench"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", repr(args.seconds),
                  "--trace", str(args.trace), "--out", out]))


if __name__ == "__main__":
    main()
