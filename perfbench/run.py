#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <churn|wide|relay> \\
        --seed <n> --seconds <s> --trace <0|1> [--small]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); its output goes to stderr, so the last line on
stdout is the benchmark's JSON result. MSB_THREADS and MSB_AES_BACKEND
are cleared, so every run uses the program's defaults.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Builds the release binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "msb-perfbench")


def bench_env():
    env = dict(os.environ)
    for var in ("MSB_THREADS", "MSB_AES_BACKEND"):
        env.pop(var, None)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def main():
    env = bench_env()
    exe = build(env)
    if exe is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
