#!/usr/bin/env python3
"""Build the modref CLI and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload medical_verify --seed 1 --seconds 20 --trace 0

Every flag is passed to the benchmark binary (see perfbench/README.md).
Builds go to $CARGO_TARGET_DIR, or .bench_build/ at the repository root
when it is unset; traced runs write their span traces under
<target dir>/perfbench/. The last line of standard output is the JSON
result; the exit status is the benchmark's.
"""

import os
import signal
import subprocess
import sys

# The benchmark ends itself after --seconds plus set-up; this only stops a
# hung run (and every process it started) before a caller's 180 s limit.
TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "modref-cli"],
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))

    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "modref-perfbench"),
        *sys.argv[1:],
        "--modref",
        os.path.join(release, "modref"),
        "--out-dir",
        os.path.join(target, "perfbench"),
    ]
    # A session of its own, so a timeout can stop the server child too.
    proc = subprocess.Popen(bench, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: the benchmark did not finish in %d s" % TIMEOUT_S)


if __name__ == "__main__":
    main()
