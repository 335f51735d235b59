#!/usr/bin/env python3
"""Build the ipmbench binary from this source tree and run one workload.

Usage (from the repository root):
  python3 ipmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/ipmbench (default .bench_build/ipmbench)
and is incremental.  Build output goes to stderr; the benchmark's own output,
whose last line is the JSON result, goes to stdout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ipmbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "ipmbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "ipmbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as exc:
        print("ipmbench: build failed: %s" % exc, file=sys.stderr)
        return 1
    work = os.path.join(build_root, "ipmbench-run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run([binary, "--workdir", work,
                               "--report-dir", build_root] + sys.argv[1:],
                              timeout=170)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("ipmbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
