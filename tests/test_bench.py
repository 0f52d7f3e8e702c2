"""benchmarks/bench.py: the plan figures it reports are the kernel's work."""

import importlib.util
from pathlib import Path

import pytest

from stabtensor import oracles, tensor
from stabtensor.circuits import compile_circuit
from stabtensor.tensor import TensorNetwork

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("circuit", [
    oracles.random_clifford_circuit(5, 40, 3),
    bench.cn_ladder(6),
], ids=["random-5x40", "cn-ladder-6"])
def test_plan_figures_count_the_merges_contract_runs(circuit, monkeypatch):
    net = compile_circuit(circuit)
    calls = []
    pair = tensor.contract_pair

    def recording_pair(a, legs_a, b, legs_b):
        out = pair(a, legs_a, b, legs_b)
        calls.append((1 << (a.rank + b.rank - len(legs_a)), max(a.rank, b.rank, out.rank)))
        return out

    monkeypatch.setattr(tensor, "contract_pair", recording_pair)
    net.contract()
    figures = bench.plan_figures(net, net.plan())
    assert figures["merges"] == len(calls)
    assert figures["flops"] == sum(flops for flops, _ in calls)
    assert figures["peak_rank"] == max(rank for _, rank in calls)


def test_relation_suite_row_restores_plan():
    plan = TensorNetwork.plan
    row = bench.relation_suite_row()
    assert TensorNetwork.plan is plan
    assert row["reports"] == 21 and row["networks"] > 0 and row["merges"] > 0


def test_cli_row_captures_the_output(capsys):
    row = bench.cli_row("cli-polarity", ["polarity", "--n", "2"])
    assert row["name"] == "cli-polarity" and row["call_s"] > 0
    assert capsys.readouterr().out == ""
    with pytest.raises(RuntimeError, match="exited 2"):
        bench.cli_row("cli-bad", ["polarity", "--n", "9"])


def test_rows_are_timed_in_interleaved_rounds(monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 3)
    calls = []
    times = {"a": iter([3.0, 1.0, 2.0]), "b": iter([5.0, 4.0, 6.0])}

    def stub_row(name):
        calls.append(name)
        return {"name": name, "merges": 7, "call_s": next(times[name])}

    rows = bench.interleaved([lambda: stub_row("a"), lambda: stub_row("b")])
    assert calls == ["a", "b", "a", "b", "a", "b"]
    assert rows == [
        {"name": "a", "merges": 7, "call_s": 2.0, "call_s_range": [1.0, 3.0]},
        {"name": "b", "merges": 7, "call_s": 5.0, "call_s_range": [4.0, 6.0]},
    ]
