"""stabtensor benchmark: one workload, end-to-end or traced per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each workload process (``worker.py``) is a closed loop with one client and
no extra threads.  Prints a table, then one JSON line as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exits 1 on any wrong output and when the traced counts do not repeat.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

WORKLOADS = ("crosscheck-narrow", "simulate-wide", "contract-ordered", "verify-suite")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_RUNS = 5
# Every worker must end within this many seconds of the benchmark's start.
DEADLINE_S = 170
# No worker gets extra threads from the BLAS library numpy loads.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def spawn(mode: str, args, started: float, seconds: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), *extra]
    timeout = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(sorted_values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(args, started: float) -> tuple[dict, dict, list[str]]:
    setups = [spawn("setup", args, started, 0) for _ in range(SETUP_RUNS - 1)]
    result = spawn("run", args, started, args.seconds)
    setups.append(result)
    lat_ms = sorted(1000 * s for s in result["latencies_s"])
    n = len(lat_ms)
    failed = sum(result["failures"].values())
    p90, beyond = percentile(lat_ms, 0.9)
    metrics = {
        "ops_per_s": n / (sum(lat_ms) / 1000),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": p90,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(r["setup_s"] for r in setups),
    }
    raw_ms = sorted(1000 * s for s in result["raw_latencies_s"])
    notes = [
        f"ops={n} beyond_p90={beyond} failed_frac={failed / n!r}",
        f"unscaled: ops_per_s={n / (sum(raw_ms) / 1000)!r} "
        f"op_ms_p50={statistics.median(raw_ms)!r} op_ms_p90={percentile(raw_ms, 0.9)[0]!r}",
        f"unscaled: setup_s={statistics.median(r['raw_setup_s'] for r in setups)!r} "
        f"samples={len(setups)}",
    ]
    return metrics, result, notes


def per_layer(args, started: float) -> tuple[dict, dict, list[str]]:
    """Two fresh trace workers, half of --seconds each; their counts must agree."""
    first = spawn("trace", args, started, args.seconds / 2, "--write-spans")
    second = spawn("trace", args, started, args.seconds / 2)
    a, b = first["metrics"], second["metrics"]
    unstable = set(first["unrepeatable"]) | set(second["unrepeatable"])
    unstable |= {m for m in a if tracing.is_count(m) and a[m] != b[m]}
    metrics = {m: a[m] if tracing.is_count(m) else (a[m] + b[m]) / 2 for m in a}
    merged = {
        "attempted": first["attempted"] + second["attempted"],
        "failures": dict(Counter(first["failures"]) + Counter(second["failures"])),
        "examples": first["examples"] + second["examples"],
        "env": first["env"],
        "unrepeatable": bool(unstable),
    }
    notes = [f"traced ops per pass={first['ops']} passes={first['passes']}+{second['passes']}",
             f"spans={first['spans']}"]
    if unstable:
        notes.append("counts differ between traced passes: " + ", ".join(sorted(unstable)))
    return metrics, merged, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    try:
        if args.trace:
            metrics, result, notes = per_layer(args, started)
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, result, notes = end_to_end(args, started)
            units = END_TO_END_UNITS
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={env['python']} numpy={env['numpy']} "
          f"kernel_backend={env['kernel_backend']} nproc={env['nproc']}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value!r} {units[name]}")
    for note in notes + result["examples"]:
        print(f"  {note}")
    failures = result["failures"]
    correct = not failures.get("mismatch") and not result.get("unrepeatable")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": sum(failures.values()),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
