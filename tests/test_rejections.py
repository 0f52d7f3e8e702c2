"""Every input-rejection path, with its exception type and exact message.

Each case is a bad input to one public constructor, parser or helper; the
valid neighbours of these inputs are tested beside the code they exercise.
"""

import re

import numpy as np
import pytest

from stabtensor import generators as gen
from stabtensor import kernel_backend, oracles, tensor
from stabtensor.boolfn import (
    TruthTable, hadamard_power, parse_truth_table, polarity_table,
    verify_hadamard_column_indexing,
)
from stabtensor.circuits import Circuit, CircuitParseError, GateApp, parse_circuit
from stabtensor.tensor import (
    RankBudgetError, Tensor, contract_pair, max_abs_diff, tensor_from_fn,
)

REJECTIONS = {
    "gate-unknown": (lambda: GateApp("T", (0,)), ValueError, "unknown gate 'T'"),
    "gate-wire-count": (lambda: GateApp("CN", (0,)), ValueError,
                        "CN takes 2 wire(s), got (0,)"),
    "circuit-width-0": (lambda: Circuit(0), ValueError, "circuit needs at least one wire"),
    # Every field of a GateApp and a Circuit is checked, and a list is
    # stored as a tuple, so no malformed field gets past as a raw
    # TypeError or AttributeError, or as a mutable part of a frozen object.
    "gate-not-a-str": (lambda: GateApp(["H"], (0,)), ValueError, "unknown gate ['H']"),
    "gate-wires-not-a-sequence": (lambda: GateApp("H", 0), ValueError,
                                  "H wires 0 is not a sequence"),
    "circuit-ops-not-a-sequence": (lambda: Circuit(2, 5), ValueError,
                                   "circuit ops 5 is not a sequence"),
    "circuit-op-not-a-gateapp": (lambda: Circuit(2, (("H", (0,)),)), ValueError,
                                 "op ('H', (0,)) is not a GateApp"),
    "circuit-input-not-a-str": (lambda: Circuit(2, (), 1), ValueError,
                                "input 1 is not a 2-bit string"),
    "circuit-input-a-list": (lambda: Circuit(2, (), ["0", "1"]), ValueError,
                             "input ['0', '1'] is not a 2-bit string"),
    "parse-duplicate-wires": (lambda: parse_circuit("wires 2\nwires 2\n"),
                              CircuitParseError, "line 2: duplicate wires header"),
    "parse-wires-0": (lambda: parse_circuit("wires 0\n"), CircuitParseError,
                      "line 1: wires must be >= 1"),
    "parse-duplicate-input": (lambda: parse_circuit("wires 1\ninput 0\ninput 1\n"),
                              CircuitParseError, "line 3: duplicate input line"),
    "parse-malformed-input": (lambda: parse_circuit("wires 2\ninput 0 1\n"),
                              CircuitParseError, "line 2: bad input line 'input 0 1'"),
    "parse-no-header": (lambda: parse_circuit("# nothing but a comment\n\n"),
                        CircuitParseError, "missing `wires N` header"),
    # A wire past the header's width and an input of the wrong length are
    # Circuit's faults, named with their line, and found when their line
    # is read, before any fault on a later line.
    "parse-wire-past-width": (lambda: parse_circuit("wires 3\nH 0\nCN 1 3\n"),
                              CircuitParseError, "line 3: wire 3 outside 0..2"),
    "parse-input-length": (lambda: parse_circuit("wires 2\ninput 011\n"),
                           CircuitParseError, "line 2: input '011' is not a 2-bit string"),
    "parse-wire-fault-before-later-line": (lambda: parse_circuit("wires 3\nH 5\nT 0\n"),
                                           CircuitParseError, "line 2: wire 5 outside 0..2"),
    "table-n-0": (lambda: TruthTable(0, ()), ValueError, "truth table needs n >= 1"),
    "table-output-range": (lambda: TruthTable(1, (0, 2)), ValueError,
                           "output 2 is not an 1-bit value"),
    # n and each output follow the integer rule, and the outputs must be a
    # sequence, so a float or a string is never a raw TypeError.
    "table-n-float": (lambda: TruthTable(2.0, (0, 1, 2, 3)), ValueError,
                      "truth table n 2.0 is not an integer"),
    "table-n-str": (lambda: TruthTable("2", (0, 1, 2, 3)), ValueError,
                    "truth table n '2' is not an integer"),
    "table-outputs-not-a-sequence": (lambda: TruthTable(1, 5), ValueError,
                                     "truth table outputs 5 is not a sequence"),
    "table-output-float": (lambda: TruthTable(2, (0, 1, 2, 3.0)), ValueError,
                           "output 3.0 is not an integer"),
    "table-bits-0": (lambda: parse_truth_table("bits 0\n"), ValueError,
                     "line 1: bits must be >= 1"),
    "table-three-fields": (lambda: parse_truth_table("bits 1\n0 1 1\n"), ValueError,
                           "line 2: expected `input_bits output_bits`"),
    "table-bad-input": (lambda: parse_truth_table("bits 1\n2 0\n"), ValueError,
                        "line 2: bad input bits '2'"),
    "table-empty": (lambda: parse_truth_table(""), ValueError, "missing `bits n` header"),
    # 2**n is never built to compare sizes: 2**(2**40) would need 128 GiB.
    "table-n-2-pow-40": (lambda: TruthTable(2 ** 40, ()), ValueError,
                         "expected 2**1099511627776 outputs, got 0"),
    "hadamard-power-0": (lambda: hadamard_power(0), ValueError, "n must be >= 1"),
    "hadamard-power-float": (lambda: hadamard_power(2.0), ValueError,
                             "n 2.0 is not an integer"),
    "hadamard-columns-float": (lambda: verify_hadamard_column_indexing(2.0), ValueError,
                               "n 2.0 is not an integer"),
    # The polarity table takes n as hadamard_power does, and as a tensor of
    # 2n legs it is refused past the rank budget before it is allocated.
    "polarity-table-0": (lambda: polarity_table(0), ValueError, "n must be >= 1"),
    "polarity-table-negative": (lambda: polarity_table(-1), ValueError, "n must be >= 1"),
    "polarity-table-float": (lambda: polarity_table(2.0), ValueError,
                             "n 2.0 is not an integer"),
    "polarity-table-13": (lambda: polarity_table(13), RankBudgetError,
                          "a polarity table has rank 26; the rank budget is 24"),
    # The phase vector's power follows the integer rule: 1.0 is not an
    # index, and "1" % 4 is string formatting.
    "t-vector-float": (lambda: gen.t_vector(1.0), ValueError,
                       "t_vector k 1.0 is not an integer"),
    "t-vector-str": (lambda: gen.t_vector("1"), ValueError,
                     "t_vector k '1' is not an integer"),
    "tensor-rank": (lambda: Tensor(-1, []), ValueError, "rank must be non-negative, got -1"),
    "tensor-from-fn-rank": (lambda: tensor_from_fn(-1, complex), ValueError,
                            "rank must be non-negative, got -1"),
    # A float rank that equals 2 is not the integer 2.
    "tensor-rank-float": (lambda: Tensor(2.0, (1, 0, 0, 0)), ValueError,
                          "tensor rank 2.0 is not an integer"),
    "tensor-from-fn-rank-float": (lambda: tensor_from_fn(2.0, complex), ValueError,
                                  "tensor rank 2.0 is not an integer"),
    # A rank far past the entries is compared without building 2**rank.
    "tensor-rank-100000": (lambda: Tensor(100000, (1, 0)), ValueError,
                           "rank-100000 tensor needs 2**100000 entries, got 2"),
    "tensor-rank-2-pow-40": (lambda: Tensor(2 ** 40, (1, 0)), ValueError,
                             "rank-1099511627776 tensor needs 2**1099511627776 entries, got 2"),
    # Refused before fn is called, not after its 2**25 calls.
    "tensor-from-fn-over-budget": (lambda: tensor_from_fn(tensor.MAX_RANK + 1, complex),
                                   RankBudgetError,
                                   "a tensor_from_fn result has rank 25; the rank budget is 24"),
    "abs-diff-rank": (lambda: max_abs_diff(gen.ket_zero(), gen.hadamard()), ValueError,
                      "shape mismatch: rank 1 vs 2"),
    "tableau-width-0": (lambda: oracles.StabilizerTableau(0), ValueError,
                        "tableau needs at least one qubit"),
    "tableau-width-float": (lambda: oracles.StabilizerTableau(2.0), ValueError,
                            "tableau width 2.0 is not an integer"),
    "tableau-gate-unknown": (lambda: oracles.StabilizerTableau(2).apply("T", (0,)),
                             ValueError, "gate 'T' is not in the tableau gate set"),
    # A state vector's width follows the integer rule, and it holds exactly
    # 2**n amplitudes, so a wrong count is not numpy's IndexError or
    # reshape error in the expectations.
    "state-vector-width-float": (lambda: oracles.StateVector(2.0, np.zeros(4)), ValueError,
                                 "state width 2.0 is not an integer"),
    "state-vector-width-0": (lambda: oracles.StateVector(0, np.ones(1)), ValueError,
                             "state needs at least one qubit"),
    "state-vector-too-few": (lambda: oracles.StateVector(2, np.zeros(3)), ValueError,
                             "2-qubit state needs 4 amplitudes, got 3"),
    "state-vector-too-many": (lambda: oracles.StateVector(2, np.zeros(8)), ValueError,
                              "2-qubit state needs 4 amplitudes, got 8"),
    "state-vector-width-100000": (lambda: oracles.StateVector(100000, np.zeros(2)), ValueError,
                                  "100000-qubit state needs 2**100000 amplitudes, got 2"),
    "state-vector-width-2-pow-40": (
        lambda: oracles.StateVector(2 ** 40, np.zeros(2)), ValueError,
        "1099511627776-qubit state needs 2**1099511627776 amplitudes, got 2"),
    # A gate's wires are checked before any column is read, so a negative
    # wire does not act on the last one and CN on one wire does not clear
    # its X column.
    "tableau-wire-count": (lambda: oracles.StabilizerTableau(2).apply("H", (0, 1)),
                           ValueError, "H takes 1 wire(s), got (0, 1)"),
    "tableau-wire-negative": (lambda: oracles.StabilizerTableau(2).apply("H", (-1,)),
                              ValueError, "wire -1 outside 0..1"),
    "tableau-wire-past-width": (lambda: oracles.StabilizerTableau(2).apply("H", (2,)),
                                ValueError, "wire 2 outside 0..1"),
    "tableau-cn-one-wire": (lambda: oracles.StabilizerTableau(2).apply("CN", (0, 0)),
                            ValueError, "CN wires must be distinct, got (0, 0)"),
    # The seeded generators' sizes, checked before the first draw.
    "random-circuit-width-0": (lambda: oracles.random_clifford_circuit(0, 5, 1), ValueError,
                               "circuit needs at least one wire"),
    "random-circuit-width-float": (lambda: oracles.random_clifford_circuit(2.0, 5, 1),
                                   ValueError, "circuit width 2.0 is not an integer"),
    "random-circuit-depth-float": (lambda: oracles.random_clifford_circuit(2, 5.0, 1),
                                   ValueError, "depth 5.0 is not an integer"),
    "random-circuit-depth-negative": (lambda: oracles.random_clifford_circuit(2, -1, 1),
                                      ValueError, "depth must be >= 0"),
    # The gates too: an unknown name fails though nothing is drawn, and a
    # gate set with no gate that fits the width fails before a draw would.
    "random-circuit-gate-unknown": (
        lambda: oracles.random_clifford_circuit(2, 0, 1, ("H", "T")),
        ValueError, "unknown gate 'T'"),
    "random-circuit-gates-not-a-sequence": (
        lambda: oracles.random_clifford_circuit(2, 5, 1, 5),
        ValueError, "gates 5 is not a sequence"),
    "random-circuit-no-gates": (lambda: oracles.random_clifford_circuit(2, 5, 1, ()),
                                ValueError, "no gate of () fits 2 wire(s)"),
    "random-circuit-cn-on-one-wire": (
        lambda: oracles.random_clifford_circuit(1, 5, 1, ("CN",)),
        ValueError, "no gate of ('CN',) fits 1 wire(s)"),
    "crosscheck-paulis-0": (lambda: oracles.crosscheck_paulis(0), ValueError,
                            "n must be >= 1"),
    "crosscheck-paulis-float": (lambda: oracles.crosscheck_paulis(2.0), ValueError,
                                "n 2.0 is not an integer"),
    # A seed follows the integer rule, so a numpy integer draws as its int
    # does and a float or a string is refused, not hashed into a seed.
    "random-circuit-seed-float": (lambda: oracles.random_clifford_circuit(2, 5, 1.5),
                                  ValueError, "seed 1.5 is not an integer"),
    "crosscheck-paulis-seed-float": (lambda: oracles.crosscheck_paulis(2, 1.0), ValueError,
                                     "seed 1.0 is not an integer"),
    "crosscheck-seed-str": (
        lambda: oracles.crosscheck_circuit(Circuit(2, (), "00"), Tensor(2, (1, 0, 0, 0)), "1"),
        ValueError, "seed '1' is not an integer"),
    # The crosscheck's state is checked before the dense oracle runs.
    "crosscheck-state-not-a-tensor": (
        lambda: oracles.crosscheck_circuit(Circuit(2, (), "00"), [1, 0, 0, 0]),
        TypeError, "state is a list, not a Tensor"),
    "crosscheck-state-rank": (
        lambda: oracles.crosscheck_circuit(Circuit(3, (), "000"), Tensor(2, (1, 0, 0, 0))),
        ValueError, "state has rank 2, but the circuit has 3 wires"),
    "pauli-state-type": (lambda: oracles.pauli_expectations("01", ["Z"]), TypeError,
                         "unsupported state type str"),
    # A string given as a list of its letters is refused by both oracles alike.
    "pauli-letter-list-dense": (
        lambda: oracles.pauli_expectations(oracles.dense_simulate(Circuit(1, (), "0")), [["Z"]]),
        ValueError, "bad Pauli string ['Z'] for 1 qubits"),
    "pauli-letter-list-tableau": (
        lambda: oracles.pauli_expectations(oracles.tableau_simulate(Circuit(1, (), "0")),
                                           [["Z"]]),
        ValueError, "bad Pauli string ['Z'] for 1 qubits"),
    "contract-first-not-a-tensor": (lambda: contract_pair(1, (), Tensor(0, (1,)), ()),
                                    TypeError, "first operand is a int, not a Tensor"),
    "contract-second-not-a-tensor": (lambda: contract_pair(gen.ket_zero(), (0,), (1, 0), (0,)),
                                     TypeError, "second operand is a tuple, not a Tensor"),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection_is_named(name):
    build, error, message = REJECTIONS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        build()
    assert type(caught.value) is error


def test_truth_table_outputs_in_a_list_are_stored_as_a_tuple_that_hashes():
    table = TruthTable(True, [np.int64(1), 0])
    assert table == TruthTable(1, (1, 0)) and hash(table) == hash(TruthTable(1, (1, 0)))
    assert type(table.n) is int and all(type(v) is int for v in table.outputs)


def test_comments_and_blank_lines_in_a_truth_table_are_skipped():
    assert parse_truth_table("# g\n\nbits 1\n  \n# rows\n0 1\n1 0\n") == TruthTable(1, (1, 0))


def test_tensor_repr_lists_small_tensors_only():
    assert repr(Tensor(1, (1, 0))) == "Tensor(rank=1, data=((1+0j), 0j))"
    assert repr(gen.copy_tensor()) == "Tensor(rank=3, <8 entries>)"


def test_legs_in_a_list_are_never_stored():
    t1, copy = gen.t_vector(1), gen.copy_tensor()
    assert tensor.stored_product(t1, (0,), copy, (0,)) is not None
    assert tensor.stored_product(t1, [0], copy, [0]) is None


def test_numpy_is_the_only_backend():
    assert kernel_backend() == "numpy"
