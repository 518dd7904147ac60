"""Run the benchmark in two sets over seeds; record medians, spreads and machine facts.

    python3 perfbench/baseline.py                       # writes perfbench/baseline.json
    python3 perfbench/baseline.py --out /tmp/check.json

Each run is a separate ``run.py`` process with its own seed, on every workload
of BENCHMARK.json.  For every end-to-end metric the spread is the distance
between the first and third quartiles of a set's values, as a share of their
median.  BENCHMARK.json bounds how far a later median may move, so a spread
well under that bound is what makes a comparison meaningful.  The two sets run
the same code on different seeds; ``agreement`` gives how far the second
set's median is from the first's.  Two traced runs per workload give the
per-layer medians.  The output file is rewritten after every set, so an
interrupted baseline keeps what it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
FIRST_SEEDS = (2026, 3026)  # one set of RUNS consecutive seeds from each
TRACE_RUNS = 2


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           "unset (OpenBLAS default: one per core)")}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for key, label in (("pass_walls", "pass wall times"), ("setup_samples", "set-up times")):
        line = re.search(rf"{label} \(s\): (.*)", proc.stdout).group(1)
        result[key] = [float(w) for w in line.split()]
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_set(workload: str, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + RUNS))
    runs = [run_once(workload, s, 0) for s in seeds]
    entry = {"seeds": seeds,
             "correct": all(r["correct"] for r in runs),
             "failed": sum(r["failed"] for r in runs),
             "attempted": sum(r["attempted"] for r in runs),
             "pass_walls": [r["pass_walls"] for r in runs],
             "setup_samples": [r["setup_samples"] for r in runs],
             "end_to_end": {}}
    for metric in BENCH["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = summarize([r["metrics"][name]["value"] for r in runs])
        entry["end_to_end"][name] = dict(s, bound=bound, unit=metric["unit"])
        print(f"{workload:8s} seeds {first_seed}+ {name:12s} median {s['median']:.4g}"
              f"  spread {s['spread']:.4f}  (bound {bound}, target < {bound / 3:.4f})",
              flush=True)
    print(f"{workload:8s} seeds {first_seed}+ correct={entry['correct']} "
          f"failed={entry['failed']}/{entry['attempted']}", flush=True)
    return entry


def agreement(first: dict, second: dict) -> dict:
    """How far the second set's median is from the first's, per metric."""
    out = {}
    for metric in BENCH["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        change = (second["end_to_end"][name]["median"]
                  / first["end_to_end"][name]["median"] - 1.0)
        out[name] = {"change": change, "bound": bound, "within": abs(change) <= bound}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in BENCH["workloads"]]
    report = {"machine": machine_facts(), "run_seconds": BENCH["run_seconds"],
              "sets": [], "agreement": {}, "per_layer": {}}

    def save():
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for first_seed in FIRST_SEEDS:
        report["sets"].append({"first_seed": first_seed,
                               "workloads": {wl: run_set(wl, first_seed)
                                             for wl in workloads}})
        save()
    for wl in workloads:
        first, second = (s["workloads"][wl] for s in report["sets"])
        report["agreement"][wl] = agreement(first, second)
        for name, a in report["agreement"][wl].items():
            print(f"{wl:8s} {name:12s} second/first median - 1 = {a['change']:+.4f}"
                  f"  (bound {a['bound']})", flush=True)
        traced = [run_once(wl, FIRST_SEEDS[0] + i, 1) for i in range(TRACE_RUNS)]
        report["per_layer"][wl] = {
            "seeds": [FIRST_SEEDS[0] + i for i in range(TRACE_RUNS)],
            "metrics": {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                        for name in traced[0]["metrics"]}}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
