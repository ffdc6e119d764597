#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (perfbench/mbs_perf).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload parallel|serial \
        --seed N --seconds S --trace 0|1

The first run configures and builds libmbs plus mbs_perf in .bench_build/
(Release, the repository's own compile flags); later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Run-time files (warm stores, trace JSON) live in
.bench_build/run/. Exits non-zero, without a result, when the checkout
lacks the library sources or the build fails.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
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
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "mbs_perf",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "mbs_perf")


def main():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: checkout lacks %s; nothing to benchmark" %
                     needed)
    binary = build()
    cmd = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(BUILD_DIR, "run"),
        "--commit", source_id()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
