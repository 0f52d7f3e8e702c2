"""Tests of the benchmark itself: checks, tracer arithmetic, smoke runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer as tracing
import worker
import workloads
from stabtensor.circuits import parse_circuit

HERE = Path(__file__).resolve().parent

BELL = "wires 2\ninput 00\nH 0\nCN 0 1\n"


@pytest.fixture(autouse=True)
def op_alarm():
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def tiny(cls, seed=0):
    """The workload with few inputs and a short traced pass."""
    small = type(cls.__name__, (cls,), {
        "inputs": min(cls.inputs, 3),
        "trace_ops": 2,
        "depths": (cls.depths[0], min(cls.depths[1], cls.depths[0] + 5)),
    })
    return small(seed)


def bell_case(tmp_path):
    path = tmp_path / "bell.circ"
    path.write_text(BELL, encoding="utf-8")
    circuit = parse_circuit(BELL)
    return workloads.Case(0, str(path), circuit, circuit)


def test_check_accepts_simulate_output_and_rejects_corrupted_amplitude(tmp_path):
    wl = tiny(workloads.SimulateWide)
    case = bell_case(tmp_path)
    code, text = wl.op(case)
    assert wl.check(case, (code, text)) is None
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("amp index=11 "))
    lines[k] = "amp index=11 re=0.5 im=0.0"
    reason = wl.check(case, (code, "\n".join(lines) + "\n"))
    assert reason is not None and "amplitude delta" in reason


def test_check_rejects_wrong_contraction_result(tmp_path):
    wl = tiny(workloads.ContractOrdered)
    case = bell_case(tmp_path)
    good = wl.op(case)
    assert wl.check(case, good) is None
    assert wl.check(case, good.scale(1j)) is None  # one global scalar is allowed
    bad = type(good)(good.rank, (good.data[0], 0.25, good.data[2], good.data[3]))
    assert wl.check(case, bad) is not None


def test_check_rejects_verify_selftest_fault():
    wl = tiny(workloads.VerifySuite)
    case = wl.cases[0]
    assert wl.check(case, wl.op(case)) is None
    faulty = workloads.run_cli(["--format", "records", "verify", "--selftest-fault"])
    assert faulty[0] == 1
    assert wl.check(case, faulty) == "exit code 1"
    code, text = wl.op(case)
    assert wl.check(case, (code, text.replace("HoldsUpToScalar", "ExactHold", 1))) \
        == "records differ from the first run"
    unflagged = text.replace(" expected=mismatch", "")
    assert "expected=mismatch" in wl.check(case, (code, unflagged))


def test_failures_are_counted_and_the_loop_goes_on(monkeypatch):
    wl = tiny(workloads.VerifySuite)
    case = wl.cases[0]
    monkeypatch.setattr(worker, "OP_LIMIT_S", 0.05)

    def slow(_case):
        time.sleep(1)

    def oom(_case):
        raise MemoryError

    tally = worker.Tally()
    for op in (slow, oom, type(wl).op.__get__(wl)):
        monkeypatch.setattr(wl, "op", op)
        output, error, _ = worker.timed(wl, case)
        tally.add(case, worker.failure(wl, case, output, error))
    assert tally.attempted == 3
    assert tally.kinds == {"timeout": 1, "error": 1}


def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_on_synthetic_span_tree():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a: the union is counted once
        span("leaf", 2.0, 3.0, 1),
        span("a", 7.0, 8.0, 0),
        span("a", 7.25, 7.75, 4),  # nested in a span of the same name
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 0.5, 0.5]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 3, "busy_s": 4.0, "self_s": 3.0}
    assert summary["root"]["self_s"] == 4.0
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_tracer_rebinds_every_module_and_restores():
    from stabtensor import circuits, cli, oracles, relations, generators, tensor

    original = circuits.circuit_state
    with tracing.Tracer():
        assert cli.circuit_state is oracles.circuit_state is circuits.circuit_state
        assert circuits.circuit_state is not original
        assert relations.contract_pair is generators.contract_pair is tensor.contract_pair
    assert cli.circuit_state is oracles.circuit_state is circuits.circuit_state is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name):
    wl = tiny(workloads.WORKLOADS[name])
    loop = worker.run_loop(wl, 0.2)
    assert loop["attempted"] >= 1 and loop["failures"] == {}
    first = worker.trace_run(wl, 0.1, False)
    second = worker.trace_run(wl, 0, False)
    assert first["failures"] == {} and set(first["metrics"]) == set(tracing.PER_LAYER_UNITS)
    assert first["passes"] >= 1 and first["unrepeatable"] == []
    counts = {m: v for m, v in first["metrics"].items() if tracing.is_count(m)}
    assert counts == {m: second["metrics"][m] for m in counts}
    state_calls = {"crosscheck-narrow": 2.0, "simulate-wide": 1.0}.get(name, 0.0)
    assert first["metrics"]["circuits.circuit_state.calls_per_op"] == state_calls


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-suite",
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suite",
         "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
