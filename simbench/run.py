#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload sim-3d --seed 0 --seconds 15 --trace 0
    python3 simbench/run.py --self-test

The build lives in .bench_build/simbench under the repository root and
is reused by later runs. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")


def build(target):
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def main(argv):
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("simbench_test")]).returncode
        binary = build("simbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("simbench: build failed: %s" % e, file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [binary] + argv + [
        "--digests", os.path.join(HERE, "reference_digests.json"),
        "--work-dir", work]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
