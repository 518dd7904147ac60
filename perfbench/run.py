"""noneq benchmark: time to a checked result, end to end and layer by layer.

    python3 perfbench/run.py --workload paths --seed 2026 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one at a time

One run measures one workload in this process, as a closed loop: one caller,
and each pass starts when the previous one has returned.  A pass makes every
call of the workload and applies every check; failed checks are counted, not
fatal.  Before measuring, the run makes one uncounted pass (warm-up).  After
each measured pass it times a fresh interpreter doing ``import noneq.cli``
plus a first CLI call (set-up).  ``--trace 1`` alternates untraced and traced
passes and reports per-layer numbers from the traced ones.  The last line of
standard output is one JSON object with the metrics that BENCHMARK.json
lists; README.md says what each one is.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 2026  # the CLI's default seed
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])

SETUP_PROBE = ("import sys, noneq.cli; "
               "sys.exit(noneq.cli.main(['validate', '--out', sys.argv[1]]))")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(parts, out: Path, seed: int, known: dict, reference: dict | None):
    """Run every part once; return (attempted, failed, digests).

    A part that raises counts every check it made last time as failed.  Each
    part's digest must equal the first pass's (same code, seed and size give
    byte-identical artifacts); a difference counts as one more failed check.
    """
    attempted = failed = 0
    digests = {}
    for part in parts:
        name = part.__name__
        try:
            checks, digest = part(out, seed)
        except Exception:  # noqa: BLE001  (a failed experiment is counted, not fatal)
            traceback.print_exc(file=sys.stderr)
            checks, digest = [(name, False)] * known.get(name, 1), None
        known.setdefault(name, len(checks))
        for check, ok in checks:
            if not ok:
                print(f"check failed: {name}: {check}", file=sys.stderr)
        same = digest is not None and (reference is None or digest == reference[name])
        if not same:
            print(f"rerun differs from the first pass: {name}", file=sys.stderr)
        attempted += len(checks) + 1
        failed += sum(not ok for _, ok in checks) + (not same)
        digests[name] = digest
    return attempted, failed, digests


def setup_seconds(out: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and making one call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(out)], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from floors import measure_floors
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    parts = WORKLOADS[workload]
    run_dir = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        known: dict = {}
        run_pass(parts, run_dir / "warmup", seed, known, None)
        floors = measure_floors(seed) if trace else {}

        walls: dict[bool, list] = {False: [], True: []}
        setup, cpu_util, layers, spans = [], [], [], []
        attempted = failed = 0
        reference = None
        deadline = time.perf_counter() + seconds
        while True:
            k = len(walls[False]) + len(walls[True])
            traced = trace and k % 2 == 1
            tracer = Tracer() if traced else None
            out = run_dir / f"pass{k}"
            cpu0, t0 = os.times(), time.perf_counter()
            if tracer is None:
                a, f, digests = run_pass(parts, out, seed, known, reference)
            else:
                with tracer, tracer.span("perfbench.pass"):
                    a, f, digests = run_pass(parts, out, seed, known, reference)
            wall = time.perf_counter() - t0
            cpu1 = os.times()
            walls[traced].append(wall)
            attempted, failed = attempted + a, failed + f
            reference = reference or digests
            if tracer is None:
                cpu_util.append((cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall)
            else:
                layers.append(layer_metrics(tracer.spans, tracer.counters))
                spans += [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p,
                           "workload": workload, "pass": k}
                          for i, (n, s, e, p) in enumerate(tracer.spans)]
            shutil.rmtree(out, ignore_errors=True)
            # Set-up is timed between passes, not all before them, so that its
            # samples see the same stretch of machine speed as the passes.
            setup.append(setup_seconds(run_dir / "setup"))
            cycle = time.perf_counter() - t0
            enough = walls[False] and (walls[True] or not trace)
            if enough and time.perf_counter() + cycle > deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = walls[False]
    result = {
        "workload": workload, "seed": seed, "passes": len(untraced),
        "traced_passes": len(walls[True]), "attempted": attempted, "failed": failed,
        "setup_samples": setup,
        "end_to_end": {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall_samples": untraced,
    }
    if trace:
        per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        per_layer.update(floors)
        per_layer["process.cpu_util"] = statistics.median(cpu_util)
        per_layer["trace.overhead_ratio"] = (statistics.median(walls[True])
                                             / statistics.median(untraced))
        per_layer["check_fail_ratio"] = failed / attempted
        result["per_layer"] = per_layer
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
        span_file.write_text("".join(json.dumps(s) + "\n" for s in spans))
        result["span_file"] = str(span_file.relative_to(ROOT))
    return result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _import_package() -> bool:
    """Import noneq from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import noneq.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import noneq from {SRC}: {exc}", file=sys.stderr)
        return False
    import noneq
    if SRC.resolve() not in Path(noneq.__file__).resolve().parents:
        print(f"perfbench: noneq was imported from {noneq.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def _report(result: dict, trace: bool) -> dict:
    group = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": result[group][m["name"]], "unit": m["unit"]}
               for m in BENCH[group]}
    wl = result["workload"]
    print(f"{wl}: {result['passes']} untraced passes, {result['traced_passes']} traced, "
          f"{result['attempted'] - result['failed']}/{result['attempted']} checks passed")
    print(f"{wl}: check_fail_ratio = {result['failed'] / result['attempted']:.6g} ratio")
    print(f"{wl}: pass wall times (s): " + " ".join(f"{w:.3f}" for w in result["wall_samples"]))
    print(f"{wl}: set-up times (s): " + " ".join(f"{w:.3f}" for w in result["setup_samples"]))
    for name, m in metrics.items():
        print(f"{wl}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _run_all(args) -> int:
    """Each workload in its own interpreter, so that peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {wl} exited with {proc.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{wl}.{n}": v for n, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                        help="measuring time; a pass that would overrun it is not started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not _import_package():
        return 2
    if args.workload == "all":
        return _run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(_report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
