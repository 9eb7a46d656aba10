#!/usr/bin/env python3
"""Build and run the RoWSim host-performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload contended-counter --seed 1 \
        --seconds 30 --trace 0

Configures perfbench/ (which compiles the simulator from src/) in Release
mode under .bench_build/perfbench, builds it, and runs rowsim_perfbench.
Build output goes to stderr; the program's report goes to stdout, and its
last line is the JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rowsim_perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, and a digest of the sources the
    binary is built from, which identifies the code in any checkout."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at %s; run from a full "
              "checkout of the repository" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.txt"),
           "--commit", source_id()]
    try:
        # Bound the run well inside the caller's limit; subprocess kills
        # and reaps the program on timeout.
        return subprocess.run(cmd, timeout=args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: rowsim_perfbench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
