"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json
    python3 bench/baseline.py --workloads verify --seeds 1-5 --trace 1

Runs ``run.py`` once per workload and seed, one run at a time, with the run
length from ``BENCHMARK.json``.  For every metric it prints and stores the
values, their median and quartiles, and the spread: the distance between the
quartiles as a share of the median, which is what a metric's bound in
``BENCHMARK.json`` is compared with.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    seeds = seed_list(args.seeds)
    result = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}, {len(os.sched_getaffinity(0))} CPUs",
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            run = json.loads(lines[-1])
            if not run["correct"]:
                print(f"{workload} seed {seed}: incorrect answers\n{proc.stdout}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.5g}" for name, m in run["metrics"].items()), flush=True)
            for name, m in run["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        result["workloads"][workload] = {name: summary(v) for name, v in values.items()}
        for name, s in result["workloads"][workload].items():
            print(f"  {workload:18s} {name:38s} median {s['median']:12.5g} "
                  f"spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
