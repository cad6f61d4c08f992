#!/usr/bin/env python3
"""Build and run the served PackageBuilder benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paql_sketch --seed 1 --seconds 10 --trace 0

Builds pb_server, pb_router and the benchmark program (bench.exe) with
dune (build directory: $CARGO_TARGET_DIR, else .bench_build; dune's
shared cache is disabled so nothing is written outside the checkout),
then runs bench.exe, which starts the servers as child processes, drives
them, checks every answer and prints a run record plus one JSON result
line. The exit status is bench.exe's: 0 only when every answer checked
out.
"""

import os
import signal
import subprocess
import sys

# Upper bound on one run; a longer one is killed with its servers.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main(argv):
    root = os.getcwd()
    for needed in ("dune-project", "bin/pb_server.ml", "bin/pb_router.ml", "lib", "perfbench/bench.ml"):
        if not os.path.exists(os.path.join(root, needed)):
            return fail("run from the root of a PackageBuilder checkout (missing %s)" % needed)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = [
        "dune", "build", "--root", ".", "--build-dir", build_dir, "--cache=disabled",
        "./bin/pb_server.exe", "./bin/pb_router.exe", "./perfbench/bench.exe",
    ]
    try:
        if subprocess.run(build, stdout=sys.stderr).returncode != 0:
            return fail("build failed")
    except OSError as e:
        return fail("cannot run dune: %s" % e)
    default = os.path.join(build_dir, "default")
    work = os.path.join(build_dir, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(default, "perfbench", "bench.exe"),
        "--bin", os.path.join(default, "bin"),
        "--work", work,
    ] + argv
    # Own process group, so a run that overstays takes its servers with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("run exceeded %ds" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
