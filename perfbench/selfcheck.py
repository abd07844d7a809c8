#!/usr/bin/env python3
"""Reduced-size self-check: every workload at a small size, with every
output check on, on the default seed (1) and a second one (2), untraced
and traced. Takes well under a minute once the benchmark is built.

    python3 perfbench/selfcheck.py

Exits non-zero if any run fails, reports an output-check failure, or
prints a result line without every metric BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = [1, 2]


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    env = run.bench_env()
    exe = run.build(env)
    if exe is None:
        return 1
    bad = 0
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in ("0", "1"):
                cmd = [exe, "--workload", w["name"], "--seed", str(seed), "--seconds", "0.2",
                       "--trace", trace, "--small"]
                proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                problem = None
                if proc.returncode != 0 or not lines:
                    problem = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
                else:
                    result = json.loads(lines[-1])
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    if not result["correct"] or result["failed"] or result["attempted"] < 1:
                        problem = f"correct {result['correct']}, {result['failed']} of {result['attempted']} failed"
                    elif units != wanted[trace]:
                        problem = f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(wanted[trace]))}"
                tag = f"{w['name']:<9} seed {seed} trace {trace}"
                print(f"{tag}: {'ok' if problem is None else problem}")
                bad += problem is not None
    print("self-check passed" if bad == 0 else f"self-check: {bad} runs failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
