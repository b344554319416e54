#!/usr/bin/env python3
"""Builds the vrr store's server and the kvbench binary from source, then
runs one workload of the benchmark.

usage: python3 kvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository. Cargo builds into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); the spans
of a traced run are written to <target dir>/kvbench-trace/<workload>.tsv.
The last line of standard output is the benchmark's JSON result.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run measures for --seconds and then checks every operation; this bounds
# the whole run, set-up and checking included.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    sys.stderr.write(f"kvbench: {message}\n")
    sys.exit(code)


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"build failed: {' '.join(cmd)}")


def flag_value(argv, flag):
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    fail(f"{flag} is required")


def stop_group(proc):
    """Kills every process left in `proc`'s process group, reaps `proc`, and
    waits until no process of the group remains."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    argv = sys.argv[1:]
    workload = flag_value(argv, "--workload")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the repository root: the store's sources are missing")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_NET_OFFLINE"] = "true"
    build(["-p", "vrr-net", "--bin", "vrr-server"], env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "kvbench"),
        *argv,
        "--server-bin",
        os.path.join(release, "vrr-server"),
        "--trace-out",
        os.path.join(target, "kvbench-trace", f"{workload}.tsv"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"kvbench: run exceeded {RUN_TIMEOUT_S}s\n")
        code = 124
    finally:
        # Reaps anything the run left behind, a vrr-server included.
        stop_group(proc)
    sys.exit(code)


if __name__ == "__main__":
    main()
