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
    BooleanLinearForm, TruthTable, hadamard_power, linear_forms, parse_truth_table,
    polarity_table, verify_hadamard_column_indexing,
)
from stabtensor.circuits import Circuit, CircuitParseError, GateApp, parse_circuit
from stabtensor.tensor import (
    RankBudgetError, Tensor, contract_pair, max_abs_diff, max_scaled_diff, tensor_from_fn,
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
    "form-empty": (lambda: BooleanLinearForm(""), ValueError,
                   "coefficients '' must be a nonempty bit string"),
    "form-not-bits": (lambda: BooleanLinearForm("012"), ValueError,
                      "coefficients '012' must be a nonempty bit string"),
    "form-c0": (lambda: BooleanLinearForm("1", 2), ValueError, "c0 must be 0 or 1, got 2"),
    # A float c0 that equals 1 is not the integer 1.
    "form-c0-float": (lambda: BooleanLinearForm("10", 1.0), ValueError,
                      "c0 1.0 is not an integer"),
    "form-c-not-str": (lambda: BooleanLinearForm(101), ValueError,
                       "coefficients 101 must be a nonempty bit string"),
    "hadamard-power-0": (lambda: hadamard_power(0), ValueError, "n must be >= 1"),
    "hadamard-power-float": (lambda: hadamard_power(2.0), ValueError,
                             "n 2.0 is not an integer"),
    "hadamard-columns-float": (lambda: verify_hadamard_column_indexing(2.0), ValueError,
                               "n 2.0 is not an integer"),
    # The linear forms and their polarity table take n as hadamard_power does.
    "linear-forms-0": (lambda: linear_forms(0), ValueError, "n must be >= 1"),
    "linear-forms-float": (lambda: linear_forms(2.0), ValueError, "n 2.0 is not an integer"),
    "polarity-table-negative": (lambda: polarity_table(-1), ValueError, "n must be >= 1"),
    "polarity-table-float": (lambda: polarity_table(2.0), ValueError,
                             "n 2.0 is not an integer"),
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
    # Refused before fn is called, not after its 2**25 calls.
    "tensor-from-fn-over-budget": (lambda: tensor_from_fn(tensor.MAX_RANK + 1, complex),
                                   RankBudgetError,
                                   "a tensor_from_fn result has rank 25; the rank budget is 24"),
    "index-count": (lambda: gen.hadamard()[(0,)], IndexError, "expected 2 indices, got 1"),
    "index-bit": (lambda: gen.hadamard()[(0, 2)], IndexError,
                  "leg index must be 0 or 1, got 2"),
    "item-rank": (lambda: gen.ket_zero().item(), ValueError, "item() on rank-1 tensor"),
    "abs-diff-rank": (lambda: max_abs_diff(gen.ket_zero(), gen.hadamard()), ValueError,
                      "shape mismatch: rank 1 vs 2"),
    "scaled-diff-rank": (lambda: max_scaled_diff(gen.hadamard(), 1, gen.ket_zero()),
                         ValueError, "shape mismatch: rank 2 vs 1"),
    "tableau-width-0": (lambda: oracles.StabilizerTableau(0), ValueError,
                        "tableau needs at least one qubit"),
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
    "crosscheck-paulis-0": (lambda: oracles.crosscheck_paulis(0), ValueError,
                            "n must be >= 1"),
    "crosscheck-paulis-float": (lambda: oracles.crosscheck_paulis(2.0), ValueError,
                                "n 2.0 is not an integer"),
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
