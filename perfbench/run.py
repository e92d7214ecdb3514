#!/usr/bin/env python3
"""Builds the replay benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, checkpoints and span files to
.bench_build/perfbench-work.  The benchmark binary prints the result JSON
as the last line of standard output; build logs go to standard error.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", *generator, "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "prediction_service.h")):
        sys.stderr.write("perfbench: no horizon sources next to %s\n" % HERE)
        return 1
    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "perfbench")
    work = os.path.join(os.path.dirname(out), "perfbench-work")
    # The child is waited for on every path, so no process outlives the run;
    # SIGTERM takes the same path as Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen([binary, *sys.argv[1:], "--work-dir", work])
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
