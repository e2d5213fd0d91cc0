#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one run; the last stdout line is the JSON result
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      every workload, untraced and traced; prints every metric with its
      unit and exits 1 if any verdict is wrong
  python3 perfbench/run.py --selftest
      builds and runs the benchmark's own tests
  python3 perfbench/run.py --make-answers
      recomputes the known-answer table on stdout (slow: minutes)

The benchmark builds the sani libraries from ./src into $CARGO_TARGET_DIR
(default .bench_build) on first use; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold", "store"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace, capture):
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--answers", os.path.join(HERE, "known_answers.tsv"),
           "--work-dir", work]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(binary, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_once(binary, workload, seed, seconds, trace, True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print("FAIL: %s trace=%d" % (workload, trace))
                ok = False
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--make-answers", action="store_true")
    a = p.parse_args()

    if a.selftest:
        binary = build("perfbench_test")
        if not binary:
            return 2
        work = os.path.join(build_dir(), "selftest-work")
        env = dict(os.environ,
                   PERFBENCH_ANSWERS=os.path.join(HERE, "known_answers.tsv"),
                   PERFBENCH_WORK_DIR=work)
        try:
            return subprocess.run([binary], env=env).returncode
        finally:
            shutil.rmtree(work, ignore_errors=True)
    binary = build("perfbench")
    if not binary:
        return 2
    if a.make_answers:
        return subprocess.run([binary, "--make-answers"]).returncode
    if a.all:
        return run_all(binary, a.seed, a.seconds)
    if not a.workload:
        p.error("--workload is required")
    return run_once(binary, a.workload, a.seed, a.seconds, a.trace, False).returncode


if __name__ == "__main__":
    sys.exit(main())
