"""Circuit parsing, the two controlled-NOT constructions, and compilation."""

import itertools
import random

import numpy as np
import pytest

from stabtensor import generators as gen
from stabtensor import oracles, tensor
from stabtensor.circuits import (
    Circuit,
    CircuitParseError,
    GateApp,
    circuit_state,
    circuit_unitary,
    cn_component_polynomial,
    cn_index_contraction,
    compile_circuit,
    feynman_gate_network,
    parse_circuit,
)
from stabtensor.tensor import max_abs_diff, permute_legs
from tests.conftest import to_np


class TestParsing:
    def test_minimal(self):
        c = parse_circuit("wires 2\nH 0\nCN 0 1\n")
        assert c.width == 2
        assert c.ops == (GateApp("H", (0,)), GateApp("CN", (0, 1)))
        assert c.input is None

    def test_comments_blanks_and_input(self):
        c = parse_circuit("# bell pair\nwires 2\n\ninput 10\nH 0\n# done\n")
        assert c.input == "10"
        assert len(c.ops) == 1

    def test_all_gate_mnemonics(self):
        text = "wires 4\nH 0\nS 2\nX 1\nY 0\nZ 3\nCN 0 1\nNOT 2\n"
        c = parse_circuit(text)
        assert [op.gate for op in c.ops] == ["H", "S", "X", "Y", "Z", "CN", "NOT"]

    def test_missing_header(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("H 0\n")

    def test_duplicate_wire_in_cn(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\nCN 0 0\n")

    def test_wire_out_of_range(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\nH 5\n")

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 1\nT 0\n")

    def test_bad_input_length(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\ninput 101\n")

    def test_bad_wire_token(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\nH zero\n")


class TestFeynmanNetwork:
    @pytest.mark.parametrize(
        "bits_in,bits_out",
        [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")],
    )
    def test_basis_action(self, bits_in, bits_out):
        state = circuit_state(Circuit(2, (GateApp("CN", (0, 1)),), bits_in))
        expect = np.zeros(4)
        expect[int(bits_out, 2)] = 1
        np.testing.assert_allclose(np.array(state.data), expect, atol=1e-15)

    def test_contracts_to_permutation_matrix(self):
        got = feynman_gate_network().contract()
        mat = to_np(permute_legs(got, (2, 3, 0, 1))).reshape(4, 4)
        want = np.zeros((4, 4))
        for a, b in itertools.product((0, 1), repeat=2):
            want[(a << 1) | (a ^ b), (a << 1) | b] = 1
        np.testing.assert_array_equal(mat, want)

    def test_compiled_cn_is_the_wired_network(self):
        # compile_circuit wires its own copy/XOR pair for each CN; it must
        # stay the same tensor as feynman_gate_network.
        compiled = circuit_unitary(Circuit(2, (GateApp("CN", (0, 1)),)))
        wired = permute_legs(feynman_gate_network().contract(), (2, 3, 0, 1))
        assert np.array_equal(compiled.array, wired.array)


class TestIndexContraction:
    def test_all_16_entries_match_polynomial_exactly(self):
        t = cn_index_contraction()
        for idx in itertools.product((0, 1), repeat=4):
            assert t[idx] == cn_component_polynomial(*idx), idx

    def test_corner_values(self):
        assert cn_component_polynomial(0, 0, 0, 0) == 1
        assert cn_component_polynomial(1, 1, 1, 0) == 1

    def test_differs_from_wired_cnot(self):
        # the two constructions disagree, e.g. at (1, 0, 1, 1)
        wired = permute_legs(feynman_gate_network().contract(), (2, 3, 0, 1))
        contracted = cn_index_contraction()
        assert wired[(1, 0, 1, 1)] == 1
        assert contracted[(1, 0, 1, 1)] == 0
        assert max_abs_diff(wired, contracted) == 1.0


class TestCompile:
    def test_empty_circuit_is_identity(self):
        u = circuit_unitary(Circuit(1, ()))
        assert u.data == (1, 0, 0, 1)

    def test_h_on_zero_gives_plus(self):
        state = circuit_state(Circuit(1, (GateApp("H", (0,)),), "0"))
        np.testing.assert_allclose(
            np.array(state.data), np.array([1, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_bell_state_matches_dense_oracle(self):
        circ = Circuit(2, (GateApp("H", (0,)), GateApp("CN", (0, 1))), "00")
        got = np.array(circuit_state(circ).data)
        want = oracles.dense_simulate(circ).amplitudes
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("gate", ["H", "S", "X", "Y", "Z", "NOT"])
    def test_single_gate_unitaries_match_oracle_matrices(self, gate):
        u = to_np(circuit_unitary(Circuit(1, (GateApp(gate, (0,)),)))).reshape(2, 2)
        np.testing.assert_allclose(u, oracles.GATE_MATRICES[gate], atol=1e-12)

    def test_cn_both_orientations(self):
        for c, t in ((0, 1), (1, 0)):
            u = to_np(
                circuit_unitary(Circuit(2, (GateApp("CN", (c, t)),)))
            ).reshape(4, 4)
            want = np.zeros((4, 4))
            for a, b in itertools.product((0, 1), repeat=2):
                bits = [a, b]
                out = bits.copy()
                out[t] ^= bits[c]
                want[(out[0] << 1) | out[1], (a << 1) | b] = 1
            np.testing.assert_allclose(u, want, atol=1e-12)

    def test_compiled_networks_use_generator_nodes_only(self):
        # each node tag and the generator its entries must equal
        allowed = {
            "copy": gen.copy_tensor(), "xor": gen.xor_tensor(), "H": gen.hadamard(),
            "one": gen.ket_one(), "id": gen.identity_map(),
            "in0": gen.ket_zero(), "in1": gen.ket_one(),
            **{f"t{k}": gen.t_vector(k) for k in range(4)},
        }
        ops = (
            GateApp("H", (0,)), GateApp("S", (1,)), GateApp("Z", (2,)),
            GateApp("X", (0,)), GateApp("Y", (1,)), GateApp("CN", (2, 0)),
            GateApp("NOT", (1,)),
        )
        for bits in ("011", None):
            net = compile_circuit(Circuit(3, ops, bits))
            for name, node in net.nodes.items():
                tag = name.split(":", 1)[1]
                assert tag in allowed
                assert np.array_equal(node.array, allowed[tag].array), name

    def test_compiled_operator_is_unitary(self):
        rng = random.Random(31)
        for seed in range(6):
            circ = oracles.random_clifford_circuit(
                rng.randint(1, 3), rng.randint(1, 12), seed=seed
            )
            n = circ.width
            u = to_np(circuit_unitary(circ)).reshape(1 << n, 1 << n)
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(1 << n), atol=1e-10
            )

    def test_every_gate_against_dense_oracle(self):
        ops = (
            GateApp("H", (0,)), GateApp("S", (1,)), GateApp("CN", (1, 2)),
            GateApp("Y", (2,)), GateApp("X", (0,)), GateApp("Z", (1,)),
            GateApp("NOT", (2,)), GateApp("CN", (2, 0)), GateApp("S", (0,)),
        )
        circ = Circuit(3, ops, "010")
        got = np.array(circuit_state(circ).data)
        want = oracles.dense_simulate(circ).amplitudes
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.fixture()
def peak_rank(monkeypatch):
    """Record the largest rank of any contract_pair result in the test."""
    peak = [0]
    original = tensor.contract_pair

    def recording(a, legs_a, b, legs_b):
        out = original(a, legs_a, b, legs_b)
        peak[0] = max(peak[0], out.rank)
        return out

    monkeypatch.setattr(tensor, "contract_pair", recording)
    return peak


class TestContractionWidth:
    """Gate-order contraction stays near the circuit width."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width,depth", [(8, 100), (10, 100), (12, 400)])
    def test_state_peak_rank_and_dense_agreement(self, peak_rank, width, depth, seed):
        circ = oracles.random_clifford_circuit(width, depth, seed)
        state = circuit_state(circ)
        assert peak_rank[0] <= width + 1
        delta, scale = oracles.phase_fixed_delta(
            state.array.reshape(-1), oracles.dense_simulate(circ).amplitudes
        )
        assert delta <= 1e-10 and scale > 0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_operator_peak_rank_and_dense_agreement(self, peak_rank, width, seed):
        circ = oracles.random_clifford_circuit(width, 60, seed)
        u = circuit_unitary(circ).array.reshape(1 << width, 1 << width)
        assert peak_rank[0] <= 2 * width
        for col in range(1 << width):
            basis = Circuit(width, circ.ops, format(col, f"0{width}b"))
            want = oracles.dense_simulate(basis).amplitudes
            np.testing.assert_allclose(u[:, col], want, atol=1e-10)
