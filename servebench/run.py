#!/usr/bin/env python3
"""Served-load benchmark for onexd: build, self-test, run one workload.

    python3 servebench/run.py --workload explore|ingest|dashboard \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `onexd` and the load generator from
source into .bench_build/servebench (CMake, the repository's default
RelWithDebInfo build type), runs the benchmark's self-test after every
build, then runs serve_bench, whose last stdout line is the JSON result.
Exits non-zero if the build, the self-test or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BUILD_TYPE = "RelWithDebInfo"
TARGETS = ["onexd", "serve_bench", "serve_bench_selftest"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the three targets (a no-op when current)."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run([os.path.join(BUILD, "serve_bench_selftest")],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_hash():
    """SHA-256 over the server's sources: identifies the program measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "examples"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "ingest", "dashboard"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("servebench: build or self-test failed:", e)
        return 1

    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "serve_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--onexd", os.path.join(BUILD, "onex_root", "onexd"),
           "--workdir", workdir,
           "--git", git_revision(),
           "--source-hash", source_hash(),
           "--build-type", BUILD_TYPE]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
