"""One workload process of the benchmark (``run.py`` starts it).

    python3 perfbench/worker.py MODE --workload NAME --seed N [--seconds S] [--write-spans]

MODE is one of
  setup  import stabtensor, generate the inputs, run one checked warm-up op;
  run    setup, then a closed loop of ops for --seconds, one client, untraced;
  trace  setup, then for --seconds the fixed pass of the workload's trace
         ops, alternately untraced and traced.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# An op that runs longer than this is stopped and counted as failed.
OP_LIMIT_S = 10.0
# Address-space cap, so a blow-up ends in MemoryError (a counted failure)
# instead of exhausting the machine.
ADDRESS_SPACE_LIMIT = 2 << 30


# Host speed is sampled by timing fixed pure-Python work before and after
# every op.  Op times are scaled to what they would have been when that work
# takes REFERENCE_S, using the median of the four samples around the op.
# This cancels most of the drift in CPU speed that neighbours on a shared
# host cause.
REFERENCE_S = 0.001
_REFERENCE_DATA = tuple(complex(k % 7, -(k % 5)) for k in range(1024))


def reference_seconds() -> float:
    start = time.perf_counter()
    acc = 0j
    for _ in range(12):
        acc += sum(a * b for a, b in zip(_REFERENCE_DATA, reversed(_REFERENCE_DATA)))
    return time.perf_counter() - start


def scaled(raw: list[float], refs: list[float]) -> list[float]:
    """Scale op i, which ran between refs[i] and refs[i + 1]."""
    return [dt * REFERENCE_S / statistics.median(refs[max(i - 1, 0):i + 3])
            for i, dt in enumerate(raw)]


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op ran over {OP_LIMIT_S} s")


def timed(wl, case):
    """Run one op under the time limit; return (output, error, seconds)."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            output = wl.op(case)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # noqa: BLE001 - every failure is counted; the loop goes on
        return None, exc, time.perf_counter() - start
    return output, None, time.perf_counter() - start


def failure(wl, case, output, error) -> tuple[str, str] | None:
    """(kind, reason) when the op failed, None when it succeeded."""
    if isinstance(error, OpTimeout):
        return "timeout", str(error)
    if error is not None:
        return "error", f"{type(error).__name__}: {error}"
    try:
        reason = wl.check(case, output)
    except (ValueError, KeyError) as exc:
        reason = f"unreadable output: {exc}"
    return None if reason is None else ("mismatch", reason)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.kinds: Counter[str] = Counter()
        self.examples: list[str] = []

    def add(self, case, bad) -> None:
        self.attempted += 1
        if bad is not None:
            self.kinds[bad[0]] += 1
            if len(self.examples) < 5:
                self.examples.append(f"case {case.index}: {bad[0]}: {bad[1]}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failures": dict(self.kinds),
                "examples": self.examples}


def setup(name: str, seed: int):
    """Make the workload and run its warm-up op; return it with the raw and
    speed-scaled seconds since the interpreter started this module."""
    wl = workloads.WORKLOADS[name](seed)
    case = wl.cases[0]
    bad = failure(wl, case, *timed(wl, case)[:2])
    if bad is not None:
        raise SystemExit(f"warm-up op failed: {bad[0]}: {bad[1]}")
    raw = time.perf_counter() - T0
    refs = [reference_seconds() for _ in range(5)]
    return wl, raw, raw * REFERENCE_S / statistics.median(refs)


def run_loop(wl, seconds: float) -> dict:
    """Closed loop for `seconds`: raw and speed-scaled latency of every op."""
    tally = Tally()
    raw = []
    refs = [reference_seconds()]
    stop = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < stop:
        case = wl.cases[i % len(wl.cases)]
        i += 1
        output, error, dt = timed(wl, case)
        refs.append(reference_seconds())
        raw.append(dt)
        tally.add(case, failure(wl, case, output, error))
    return {"latencies_s": scaled(raw, refs), "raw_latencies_s": raw, **tally.as_dict()}


def fixed_pass(wl, tally, tracer=None) -> float:
    """Run the workload's trace ops once; return the seconds spent in ops."""
    busy = 0.0
    for op_id in range(wl.trace_ops):
        case = wl.cases[op_id % len(wl.cases)]
        if tracer is not None:
            tracer.begin_op(op_id)
        output, error, dt = timed(wl, case)
        if tracer is not None:
            tracer.end_op()
        busy += dt
        tally.add(case, failure(wl, case, output, error))
    return busy


def trace_run(wl, seconds: float, write_spans: bool) -> dict:
    """Alternate untraced and traced passes for `seconds` (at least one
    each).  Counts come from the first traced pass and must repeat in every
    later one; times are means over the passes."""
    tally = Tally()
    untraced, traced, passes = [], [], []
    stop = time.perf_counter() + seconds
    spans = None
    while not passes or time.perf_counter() < stop:
        untraced.append(fixed_pass(wl, tally))
        with tracing.Tracer() as tracer:
            traced.append(fixed_pass(wl, tally, tracer))
        passes.append(tracing.layer_metrics(tracer.spans, wl.trace_ops))
        if write_spans and spans is None:
            path = workloads.WORK / f"{wl.name}-seed{wl.seed}-spans.jsonl"
            tracer.write(path)
            spans = str(path.relative_to(workloads.ROOT))
    first = passes[0]
    metrics = {m: v if tracing.is_count(m) else statistics.fmean(p[m] for p in passes)
               for m, v in first.items()}
    # Share of untraced throughput lost to tracing: 1 - (traced ops/s) / (untraced ops/s).
    metrics["trace.overhead_frac"] = 1.0 - statistics.fmean(untraced) / statistics.fmean(traced)
    unrepeatable = sorted({m for p in passes for m, v in p.items()
                           if tracing.is_count(m) and v != first[m]})
    return {"metrics": metrics, "ops": wl.trace_ops, "passes": len(passes),
            "unrepeatable": unrepeatable, "spans": spans, **tally.as_dict()}


def environment() -> dict:
    import numpy
    import stabtensor

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernel_backend": stabtensor.kernel_backend(), "nproc": os.cpu_count()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--write-spans", action="store_true",
                        help="write the traced spans under .perfbench_work")
    args = parser.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    signal.signal(signal.SIGALRM, _on_alarm)
    wl, raw_setup_s, setup_s = setup(args.workload, args.seed)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s, "env": environment()}
    if args.mode == "run":
        result.update(run_loop(wl, args.seconds))
    elif args.mode == "trace":
        result.update(trace_run(wl, args.seconds, args.write_spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
