"""Properties over generated inputs: the oracles agree with the engine, the
bond order does not change a state, writing each wire's run of single-wire
gates as one word does not change a state or an operator, the CLI never
ends in a traceback, and a malformed network claim is a ValueError or
TypeError.

Every property runs a fixed, bounded set of examples (`derandomize=True`,
no example database), so a run is repeatable and the module stays short.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabtensor import cli, oracles
from stabtensor import generators as gen
from stabtensor.circuits import (
    SINGLE_WIRE_STEPS, Circuit, GateApp, circuit_state, circuit_unitary, compile_circuit,
)
from stabtensor.tensor import TensorNetwork

GATES = oracles.CLIFFORD_GATES + ("NOT",)


def bounded(n):
    return settings(max_examples=n, derandomize=True, database=None, deadline=None)


@st.composite
def circuits(draw, max_width=6, max_depth=40):
    width = draw(st.integers(1, max_width))
    gates = GATES if width > 1 else tuple(g for g in GATES if g != "CN")
    ops = []
    for _ in range(draw(st.integers(0, max_depth))):
        gate = draw(st.sampled_from(gates))
        count = 2 if gate == "CN" else 1
        ops.append(GateApp(gate, tuple(draw(st.permutations(range(width)))[:count])))
    bits = draw(st.text("01", min_size=width, max_size=width))
    return Circuit(width, tuple(ops), bits)


@bounded(100)
@given(circuits())
def test_engine_and_both_oracles_agree(circuit):
    dense = oracles.dense_simulate(circuit)
    got = circuit_state(circuit).array.reshape(-1)
    np.testing.assert_allclose(got, dense.amplitudes, rtol=0, atol=1e-12)
    # The tableau's n signed stabilizer rows fix one state: the dense one.
    xs, zs, signs = oracles.tableau_simulate(circuit).stabilizer_rows()
    rows = ["".join("IXZY"[x + 2 * z] for x, z in zip(xr, zr)) for xr, zr in zip(xs, zs)]
    np.testing.assert_allclose(
        oracles.pauli_expectations(dense, rows), 1 - 2 * signs.astype(float), rtol=0, atol=1e-12)


@bounded(40)
@given(circuits(max_width=4, max_depth=8), st.data())
def test_any_bond_order_gives_the_same_state(circuit, data):
    net = compile_circuit(circuit)
    order = data.draw(st.permutations(range(len(net.bonds))))
    got = net.contract(order).array
    np.testing.assert_allclose(got, net.contract().array, rtol=0, atol=1e-12)


@st.composite
def run_heavy_circuits(draw, max_width=6):
    """Runs of up to 8 single-wire gates, NOT among them, each on a drawn
    wire, so runs on different wires interleave; after a run, now and then
    a CN on its wire and another wire."""
    width = draw(st.integers(1, max_width))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        w = draw(st.integers(0, width - 1))
        run = draw(st.lists(st.sampled_from(sorted(SINGLE_WIRE_STEPS)), max_size=8))
        ops += [GateApp(gate, (w,)) for gate in run]
        if draw(st.booleans()) and width > 1:
            other = draw(st.sampled_from([v for v in range(width) if v != w]))
            ops.append(GateApp("CN", draw(st.permutations((w, other)))))
    bits = draw(st.text("01", min_size=width, max_size=width))
    return Circuit(width, tuple(ops), bits)


@bounded(100)
@given(run_heavy_circuits())
def test_single_wire_runs_rewrite_to_the_same_state_and_operator(circuit):
    dense = oracles.dense_simulate(circuit)
    got = circuit_state(circuit).array.reshape(-1)
    np.testing.assert_allclose(got, dense.amplitudes, rtol=0, atol=1e-12)
    n = circuit.width
    if n <= 4:
        u = circuit_unitary(circuit).array.reshape(1 << n, 1 << n)
        for col in range(1 << n):
            column = Circuit(n, circuit.ops, format(col, f"0{n}b"))
            np.testing.assert_allclose(
                u[:, col], oracles.dense_simulate(column).amplitudes, rtol=0, atol=1e-12)


WIRE_TOKENS = ["0", "1", "5", "-1", "x", "1_0", "\u0663", ""]
BAD_CIRCUIT_LINES = st.one_of(
    st.builds("wires {}".format, st.sampled_from(["0", "2", "x", "2 2", ""])),
    st.builds("input {}".format, st.sampled_from(["0", "01", "2", "0 1", ""])),
    st.builds("{} {} {}".format, st.sampled_from(GATES + ("T", "cn")),
              st.sampled_from(WIRE_TOKENS), st.sampled_from(WIRE_TOKENS)),
    st.sampled_from(["# comment", "\ufeffwires 1", "\t"]),
)
BAD_TABLE_LINES = st.one_of(
    st.builds("bits {}".format, st.sampled_from(["0", "2", "x", "-1", ""])),
    st.builds("{} {}".format, st.text("012", max_size=3), st.text("01x", max_size=3)),
    st.sampled_from(["# comment", "0 1 1"]),
)


@st.composite
def with_a_bad_line(draw, lines, bad):
    """The file text of `lines`, half the time with a line from `bad` inserted."""
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    return "\n".join(lines) + "\n"


@st.composite
def circuit_files(draw):
    circuit = draw(circuits(max_width=5, max_depth=12))
    lines = [f"wires {circuit.width}", f"input {circuit.input}"]
    lines += [" ".join((op.gate, *map(str, op.wires))) for op in circuit.ops]
    return draw(with_a_bad_line(lines, BAD_CIRCUIT_LINES))


@st.composite
def table_files(draw):
    n = draw(st.integers(1, 3))
    outputs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    lines = [f"bits {n}"] + [f"{y:0{n}b} {g:0{n}b}" for y, g in enumerate(outputs)]
    return draw(with_a_bad_line(lines, BAD_TABLE_LINES))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@bounded(60)
@given(circuit_files(), st.booleans(), st.booleans())
def test_cli_simulate_exits_with_a_status_code(workdir, text, crosscheck, records):
    path = workdir / "generated.circ"
    path.write_text(text, encoding="utf-8")
    argv = ["--format", "records" if records else "human", "simulate", str(path)]
    code, err = run_cli(argv + ["--crosscheck"] * crosscheck)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@bounded(40)
@given(table_files(), st.booleans())
def test_cli_entropy_exits_with_a_status_code(workdir, text, records):
    path = workdir / "generated.table"
    path.write_text(text, encoding="utf-8")
    code, err = run_cli(["--format", "records" if records else "human", "entropy", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


NODES = {"a": gen.identity_map(), "b": gen.copy_tensor(), "c": gen.ket_zero()}
# Mostly claims of the right shape on known nodes, so that the leg checks
# are reached, among names and legs of every wrong kind.
NAMES = st.sampled_from(["a", "b", "c", "a", "b", "c", "d", ["a"], None])
LEGS = st.one_of(st.integers(-1, 3), st.integers(0, 2), st.sampled_from(
    [0.0, 1.5, "0", None, [0], True, np.int64(1), np.uint8(2), np.float64(0)]))
PAIRS = st.tuples(NAMES, LEGS)
CLAIMS = st.one_of(PAIRS, PAIRS, PAIRS, st.sampled_from([5, None, (), ("a",), "a0"]))
BONDS = st.one_of(st.tuples(NAMES, LEGS, NAMES, LEGS), st.tuples(NAMES, LEGS, NAMES, LEGS),
                  st.tuples(PAIRS, PAIRS), st.sampled_from([5, None, ("a", 0, "b")]))


@bounded(200)
@given(st.lists(BONDS, max_size=4), st.lists(CLAIMS, max_size=5), st.booleans())
@example([], [(["a"], 0), ("a", 1)], False)
@example([("a", 0, ["b"], 0)], [("a", 1)], False)
@example([(["a"], 0, "a", 1)], [], False)
@example([], [("a", 0), 5], True)
# a leg bonded to itself, by int legs and by legs of another integer type
@example([("c", 0, "c", 0)], [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("b", 2)], False)
@example([("c", np.int64(0), "c", False)], [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("b", 2)],
         False)
def test_malformed_claims_raise_value_or_type_errors(bonds, open_legs, as_iterators):
    # The error names the claim, the leg or the node at fault; a claim set
    # that is accepted must also contract.
    if as_iterators:
        bonds, open_legs = iter(bonds), iter(open_legs)
    try:
        TensorNetwork(NODES, bonds, open_legs).contract()
    except (ValueError, TypeError) as exc:
        assert re.match(r"(bond|open leg|leg|dangling leg|node) ", str(exc)), exc
