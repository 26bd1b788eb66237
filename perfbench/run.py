#!/usr/bin/env python3
"""Builds `redet` and the load client, then runs one benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload rr_small --seed 1 --seconds 10 --trace 0

Build output goes to stderr; stdout carries only the client's report, whose
last line is the JSON result. Binaries land in $CARGO_TARGET_DIR
(default `.bench_build`). Exits non-zero, without a result, when the
repository's sources are missing or a build fails.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/server")):
        print("perfbench: run from the root of a redet checkout "
              "(Cargo.toml and crates/server are missing)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "redet-server", "--bin", "redet"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        build = subprocess.run(command, env=env, stdout=sys.stderr)
        if build.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return 2
    release = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release")
    client = [os.path.join(release, "perfbench"),
              "--redet", os.path.join(release, "redet"), *sys.argv[1:]]
    # Client and server each get a CPU of their own. Left to itself the
    # scheduler sometimes runs both on one core, where a wakeup preempts the
    # writer and the server's idle sleep never happens: the latency floor
    # would then depend on placement rather than on the code.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        client += ["--server-cpu", str(cpus[0])]
        os.sched_setaffinity(0, {cpus[1]})
    return subprocess.run(client, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
