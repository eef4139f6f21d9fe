"""Benchmark for vnchain: ``python3 benchmarks/run.py [--workload NAME] ...``.

Each run starts ``WORKERS_PER_RUN`` fresh worker processes one after the
other (see worker.py); each sets up, warms up and then times operations for
its share of ``--seconds``.  The run pools their operations, prints every
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Without ``--workload`` every workload runs, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

WORKERS_PER_RUN = 3
WORKER_TIMEOUT_S = 150.0
# Set before numpy loads in the workers: one BLAS thread keeps each
# operation on one core, so its time does not depend on what runs on the
# other one (see README.md, "Host and settings").
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli_self_ms": "ms",
    "runner_self_ms": "ms",
    "chains_self_ms": "ms",
    "premeasurement_self_ms": "ms",
    "observables_self_ms": "ms",
    "hilbert_self_ms": "ms",
    "kron_ms": "ms",
    "complete_orthonormal_ms": "ms",
    "package_calls": "count",
    "embed_operator_calls": "count",
    "kron_calls": "count",
    "kron_max_mib": "MiB",
    "density_operator_builds": "count",
    "eigvalsh_calls": "count",
    "branch_yield": "ratio",
}


class BenchmarkError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, index: int) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    spans = OUT / f"spans-{workload}-seed{seed}-w{index}.jsonl"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--index", str(index),
        "--spawned-at", repr(time.monotonic()),
        *(["--spans-out", str(spans)] if trace else []),
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker {index} of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    parts = [
        run_worker(workload, seed, seconds / WORKERS_PER_RUN, trace, index)
        for index in range(WORKERS_PER_RUN)
    ]
    norm = [t for p in parts for t in p["norm_ms"]]
    raw = [t for p in parts for t in p["raw_ms"]]
    attempted = sum(p["attempted"] for p in parts)
    result = {
        "correct": all(p["correct"] for p in parts),
        "attempted": attempted,
        "failed": sum(p["failed"] for p in parts),
    }
    if trace:
        values = {
            name: statistics.fmean(p["layers"][name] for p in parts) for name in PER_LAYER_UNITS
        }
        units = PER_LAYER_UNITS
    else:
        values = {
            "op_ms_p50": statistics.median(norm),
            "ops_per_s": attempted / (sum(norm) / 1000.0),
            "peak_rss_mib": max(p["peak_rss_mib"] for p in parts),
            "setup_s": statistics.median(p["setup_s"] for p in parts),
        }
        units = END_TO_END_UNITS
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "raw_op_ms_p50": statistics.median(raw),
        "raw_ops_per_s": attempted / (sum(raw) / 1000.0),
        "norm_op_ms_p50": statistics.median(norm),
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in parts),
        "errors": [e for p in parts for e in p["errors"]],
    }
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    return {"result": result, "info": info}


def report(outcome: dict) -> None:
    result, info = outcome["result"], outcome["info"]
    print(
        f"workload {info['workload']}  seed {info['seed']}  seconds {info['seconds']:g}  "
        f"trace {info['trace']}  workers {WORKERS_PER_RUN}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<24} {metric['value']:>12.4f} {metric['unit']}")
    print(
        f"  raw wall (not gated): op_ms_p50 {info['raw_op_ms_p50']:.4f} ms, "
        f"ops_per_s {info['raw_ops_per_s']:.4f} 1/s, setup_s {info['raw_setup_s']:.4f} s"
    )
    if info["trace"]:
        print(f"  traced op_ms_p50 {info['norm_op_ms_p50']:.4f} ms (normalized, with tracing)")
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {str(result['correct']).lower()}"
    )
    for error in info["errors"]:
        print(f"  error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vnchain" / "__init__.py").is_file():
        print(f"error: no vnchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        outcomes = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        report(outcome)
    for outcome in outcomes:
        print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
