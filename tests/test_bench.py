"""benchmarks/bench.py: the plan figures it reports are the kernel's work."""

import importlib.util
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from stabtensor import cli, oracles, tensor
from stabtensor.circuits import compile_circuit
from stabtensor.tensor import DEFAULT_TOL, TensorNetwork

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("circuit", [
    oracles.random_clifford_circuit(5, 40, 3),
    bench.cn_ladder(6),
], ids=["random-5x40", "cn-ladder-6"])
def test_plan_figures_count_the_merges_contract_runs(circuit, monkeypatch, kernel_runs):
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
    assert 0 < figures["kernel_merges"] == len(kernel_runs) < len(calls)
    assert figures["flops"] == sum(flops for flops, _ in calls)
    assert figures["peak_rank"] == max(rank for _, rank in calls)


def test_batch_row_reports_per_circuit_figures(kernel_runs):
    circuits = bench.batch_circuits(3, 0)
    assert [(10 <= c.width <= 12, 30 <= len(c.ops) <= 50) for c in circuits] == [(True, True)] * 3
    row = bench.batch_row("batch-3", circuits)
    assert row["name"] == "batch-3" and row["circuits"] == 3
    assert all(row[f"{phase}_us"] > 0 for phase in ("compile", "network", "plan", "contract"))
    plans = [compile_circuit(c).plan() for c in circuits]
    assert row["merges"] == sum(s.kind == "merge" for steps in plans for s in steps) / 3
    # The row contracts each circuit once, and only there runs the kernel.
    assert 0 < row["kernel_merges"] == len(kernel_runs) / 3 < row["merges"]


def test_parse_rows_report_what_the_parsed_circuits_hold():
    texts = bench.parse_texts(3, 10, 4, 0)
    assert len(texts) == 4 and all(t.startswith("wires 3\ninput 000\n") for t in texts)
    row = bench.parse_row("parse-3x10", texts, **bench.parse_figures(texts))
    assert row["name"] == "parse-3x10" and row["files"] == 4 and row["ops"] == 40
    # Equal op lines of one file share one op; no two files share one.
    assert row["distinct_ops"] == sum(len(set(t.splitlines()[2:])) for t in texts) < 40
    assert row["bytes_per_op"] > 0 and row["parse_s"] > 0


def test_relation_suite_row_restores_plan():
    plan = TensorNetwork.plan
    row = bench.relation_suite_row()
    assert TensorNetwork.plan is plan
    assert row["reports"] == 25 and row["networks"] > 0 and row["merges"] > 0


def test_relation_suite_row_times_each_report_group(monkeypatch):
    groups = ("families", "hadamard_basis", "clifford", "columns", "cn")
    assert tuple(cli.report_groups(DEFAULT_TOL)) == groups
    monkeypatch.setattr(bench, "REPEATS", 2)
    (row,) = bench.interleaved([bench.relation_suite_row])
    for group in groups:
        low, high = row[f"{group}_s_range"]
        assert 0 < low <= row[f"{group}_s"] <= high


def test_relation_suite_row_counts_the_kernel_merges(monkeypatch, kernel_runs):
    row = bench.relation_suite_row()
    contract = TensorNetwork.contract
    in_networks = []

    def counting_contract(self, order=None):
        before = len(kernel_runs)
        out = contract(self, order)
        in_networks.append(len(kernel_runs) - before)
        return out

    monkeypatch.setattr(TensorNetwork, "contract", counting_contract)
    cli.verification_reports(DEFAULT_TOL)
    assert len(in_networks) == row["networks"]
    assert 0 < row["kernel_merges"] == sum(in_networks) < row["merges"]


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


def test_oracle_rows_time_each_oracle_alone(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "DENSE_CIRCUIT", (3, 10))
    monkeypatch.setattr(bench, "TABLEAU_WIDTH", 30)
    monkeypatch.setattr(bench, "TABLEAU_STRINGS", 4)
    batches = []
    exact = oracles.pauli_expectations

    def recording(state, paulis):
        values = exact(state, paulis)
        batches.append((state.n, values))
        return values

    simulated = []
    exact_simulate = oracles.tableau_simulate

    def recording_simulate(circuit):
        simulated.append((circuit.width, len(circuit.ops)))
        return exact_simulate(circuit)

    monkeypatch.setattr(oracles, "pauli_expectations", recording)
    monkeypatch.setattr(oracles, "tableau_simulate", recording_simulate)
    calls = {call.args[0]: call for call in bench.row_calls(tmp_path) if isinstance(call, partial)}
    names = ["cli-crosscheck-bell", "dense-simulate-3x10", "expect-dense-3",
             "tableau-simulate-30", "expect-tableau-30"]
    rows = [calls[name]() for name in names]
    assert [row["name"] for row in rows] == names
    assert rows[2]["paulis"] == 17 and rows[4]["paulis"] == 4
    assert (rows[3]["width"], rows[3]["depth"]) == (30, 120)
    assert all(row["call_s"] > 0 for row in rows)
    # One batched call per oracle in the crosscheck and per expectation
    # row; the tableau strings are stabilizer products, each +1 or -1.
    assert [n for n, _ in batches] == [2, 2, 3, 30]
    assert set(np.abs(batches[-1][1])) == {1.0}
    # The tableau row simulates the circuit whose tableau the expectation
    # row reads: once to build that tableau, outside the timer, then the
    # crosscheck's Bell circuit, then the row's timed call.
    assert simulated == [(30, 120), (2, 2), (30, 120)]


def test_simulate_rows_read_files_written_before_timing(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "DENSE_CIRCUIT", (3, 10))
    monkeypatch.setattr(bench, "GHZ_WIDTH", 4)
    monkeypatch.setattr(bench, "WIDE_CIRCUIT", (2, 5))
    calls = {call.args[0]: call for call in bench.row_calls(tmp_path) if isinstance(call, partial)}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["2x5.circ", "3x10.circ", "ghz4.circ"]
    assert (tmp_path / "ghz4.circ").read_text() == (
        "wires 4\ninput 0000\nH 0\nCN 0 1\nCN 1 2\nCN 2 3\n")
    for name in ("cli-simulate-ghz4", "cli-simulate-3x10", "cli-simulate-2x5"):
        row = calls[name]()
        assert row["name"] == name and row["call_s"] > 0


def test_code_lines_skip_comments_and_docstrings(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code, then a comment\n"
        "\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One line."""\n'
        '    text = """a string\n'
        '    that is code"""\n'
        "    return a\n",
        encoding="utf-8")
    # X, the def's two lines, the assigned string's two, the return.
    assert bench.code_lines(stub) == 6
    assert bench.environment()["src_code_lines"] > 0
