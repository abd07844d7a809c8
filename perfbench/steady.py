#!/usr/bin/env python3
"""Steadiness check: runs every workload N times untraced, each in a
fresh process with seeds 1..N, alternating the workload order from pass
to pass, and prints each end-to-end metric's median, quartiles and
quartile spread (the distance between the quartiles as a share of the
median). Each run measures BENCHMARK.json's `run_seconds`.

    python3 perfbench/steady.py [--runs 10]

The bounds in BENCHMARK.json come from two such sets of runs. The host
fingerprint (nproc, CPU model, rustc, git revision) heads the output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

def fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or "unknown",
        "rustc": out(["rustc", "--version"]) or "unknown",
        "git": out(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])

    env = run.bench_env()
    exe = run.build(env)
    if exe is None:
        return 1
    print(json.dumps(fingerprint()))
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = i + 1
            cmd = [exe, "--workload", w, "--seed", str(seed), "--seconds", seconds,
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
    for w in workloads:
        print(f"{w}: failed share {sorted(shares[w])}")
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<28} median {med:>14.4f}  q1 {q1:>14.4f}  q3 {q3:>14.4f}  spread {spread:.4f}")
            print(f"  {'':<28} runs   {' '.join(f'{v:.4g}' for v in vs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
