#!/usr/bin/env python3
"""Build and run the figure-sweep benchmark on one workload.

    python3 perfbench/run.py --workload uniform_sat --seed 1 --seconds 20 --trace 0

Run from the root of a wormsim source tree. The first run configures and
builds the library and the benchmark into .bench_build (or
$CARGO_TARGET_DIR when set); later runs only rebuild what changed. Build
output goes to stderr; the benchmark's report goes to stdout, ending in
one JSON line. Exits nonzero, without a result, when the sources are
missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_sha256():
    """Digest of the library sources, for trees that are not git checkouts."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no wormsim sources at " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    # Only this tree's own repository counts, not one that encloses it.
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.samefile(top, ROOT)
    commit = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain") if in_repo else None
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit or "unknown",
           "--dirty", "unknown" if status is None else str(int(bool(status))),
           "--source-sha", source_sha256(),
           "--digest-table", os.path.join(HERE, "digests_seed1.txt")]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
