"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 10 [--first-seed N] [--out FILE]

Runs `perfbench/run.py --trace 0` once per seed and workload of
BENCHMARK.json, for its run_seconds, one run at a time, and reports for
every end-to-end metric the median and the interquartile range of its
values as a share of the median (quartiles from
`statistics.quantiles(values, n=4)`), next to the bound in BENCHMARK.json.
A spread at or above its bound makes the exit status 1.
With --out, the per-seed values and the summary are written as JSON:
perfbench/baseline.json (seeds 1-10) and perfbench/baseline-repeat.json
(seeds 101-110) are two such sets from a 2-core x86 sandbox.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description="run-to-run spread")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    result = {"machine": {"platform": platform.platform(),
                          "python": platform.python_version(),
                          "cpus": os.cpu_count()},
              "date": time.strftime("%Y-%m-%d %H:%M:%S %Z"),
              "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = run_once(workload, seed, seconds)
            ok &= out["correct"]
            runs.append({"seed": seed, "attempted": out["attempted"],
                         "failed": out["failed"],
                         **{k: v["value"] for k, v in out["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()),
                flush=True)
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs])
            summary[name] = s
            flag = "ok" if s["spread"] < bound / 3 else (
                "within bound" if s["spread"] < bound else "OVER BOUND")
            if s["spread"] >= bound:
                ok = False
            print(f"  {workload:10s} {name:15s} median {s['median']:.5g} "
                  f"IQR/median {s['spread']:.3f} (bound {bound}) {flag}")
        result["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
