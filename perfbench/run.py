#!/usr/bin/env python3
"""Build the LUBT benchmark in this checkout and run one workload.

usage: python3 perfbench/run.py --workload corpus-scaled|serve-cold|serve-eco
                                --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/main.exe with dune
into .bench_build/, runs it, and passes its output through. To the JSON
summary that ends an untraced run it adds max_rss_mb, the benchmark
process's peak resident memory. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("corpus-scaled", "serve-cold", "serve-eco")
# a run still going after this long is killed and reported as failed
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def main():
    ap = argparse.ArgumentParser(description="Run one LUBT benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run this from the root of a LUBT checkout "
             "(no dune-project or lib/ here)")

    # the shared dune cache lives outside the checkout: keep the build in it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                          "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("the build failed")

    # One malloc arena: glibc gives each of the daemon's threads an arena
    # of its own and keeps freed memory in it, so with the default the
    # peak resident memory of one seed varied by a quarter from run to
    # run and hid the program's own changes. Latency and throughput read
    # the same either way.
    child = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, MALLOC_ARENA_MAX="1"))
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    out = child.stdout.read()
    # wait4 reports the resources of this child alone: the build above ran
    # in another child and does not count toward the peak
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.returncode = code = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"the benchmark exited with status {code}")

    *body, last = lines
    summary = json.loads(last)
    for line in body:
        print(line)
    if args.trace == 0:
        rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        summary["metrics"]["max_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print(f"{'max_rss_mb':<26} {rss_mb:18.6f} MB")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
