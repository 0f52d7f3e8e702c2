"""Dense and tableau oracles, their agreement channel, and the crosscheck."""

import random

import numpy as np
import pytest

from stabtensor.circuits import Circuit, GateApp
from stabtensor.oracles import (
    CLIFFORD_GATES,
    StabilizerTableau,
    crosscheck_circuit,
    dense_simulate,
    pauli_expectation,
    phase_fixed_delta,
    random_clifford_circuit,
    tableau_simulate,
)

SQ2 = np.sqrt(2)

BELL = Circuit(2, (GateApp("H", (0,)), GateApp("CN", (0, 1))), "00")


class TestDense:
    def test_h_on_zero(self):
        state = dense_simulate(Circuit(1, (GateApp("H", (0,)),), "0"))
        np.testing.assert_allclose(state.amplitudes, np.array([1, 1]) / SQ2)

    def test_cnot_on_10(self):
        state = dense_simulate(Circuit(2, (GateApp("CN", (0, 1)),), "10"))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1])

    def test_empty_circuit_keeps_input(self):
        state = dense_simulate(Circuit(3, (), "101"))
        want = np.zeros(8)
        want[0b101] = 1
        np.testing.assert_allclose(state.amplitudes, want)

    def test_norm_preserved(self):
        circ = random_clifford_circuit(5, 40, seed=3)
        state = dense_simulate(circ)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10

    def test_width_limit(self):
        with pytest.raises(ValueError):
            dense_simulate(Circuit(13, ()))


class TestTableau:
    def test_h_gives_x_stabilizer(self):
        tab = tableau_simulate(Circuit(1, (GateApp("H", (0,)),)))
        sx, sz, sr = tab.stabilizer_rows()
        assert sx.tolist() == [[1]] and sz.tolist() == [[0]] and sr.tolist() == [0]

    def test_bell_stabilizers_via_expectations(self):
        tab = tableau_simulate(BELL)
        assert pauli_expectation(tab, "XX") == 1.0
        assert pauli_expectation(tab, "ZZ") == 1.0
        assert pauli_expectation(tab, "ZI") == 0.0
        assert pauli_expectation(tab, "YY") == -1.0

    def test_s_squared_equals_z(self):
        a = tableau_simulate(Circuit(1, (GateApp("H", (0,)), GateApp("S", (0,)), GateApp("S", (0,)))))
        b = tableau_simulate(Circuit(1, (GateApp("H", (0,)), GateApp("Z", (0,)))))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.r, b.r)

    def test_input_bits_prepared_with_x(self):
        tab = tableau_simulate(Circuit(2, (), "01"))
        assert pauli_expectation(tab, "ZI") == 1.0
        assert pauli_expectation(tab, "IZ") == -1.0

    def test_rejects_unknown_gate(self):
        tab = StabilizerTableau(1)
        with pytest.raises(ValueError):
            tab.apply("T", (0,))

    def test_symplectic_structure_preserved(self):
        # destabilizer i anticommutes exactly with stabilizer i
        n = 4
        tab = tableau_simulate(random_clifford_circuit(n, 60, seed=11))
        products = tab.symplectic_products()
        want = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        for i in range(n):
            want[i, n + i] = 1
            want[n + i, i] = 1
        assert np.array_equal(products, want)


class TestPauliExpectation:
    def test_z_on_zero_state(self):
        tab = tableau_simulate(Circuit(1, ()))
        assert pauli_expectation(tab, "Z") == 1.0
        dense = dense_simulate(Circuit(1, ()))
        assert pauli_expectation(dense, "Z") == 1.0

    def test_bell_dense_values(self):
        dense = dense_simulate(BELL)
        assert abs(pauli_expectation(dense, "XX") - 1.0) <= 1e-12
        assert abs(pauli_expectation(dense, "ZI")) <= 1e-12

    def test_tableau_values_are_plus_minus_zero(self):
        tab = tableau_simulate(random_clifford_circuit(3, 25, seed=5))
        for pauli in ("XII", "IYI", "IIZ", "XYZ", "ZZZ"):
            assert pauli_expectation(tab, pauli) in (-1.0, 0.0, 1.0)

    def test_malformed_string(self):
        tab = tableau_simulate(Circuit(2, ()))
        with pytest.raises(ValueError):
            pauli_expectation(tab, "XQ")
        with pytest.raises(ValueError):
            pauli_expectation(tab, "X")


class TestAgreement:
    def test_phase_fixed_delta_ignores_global_phase(self):
        ref = np.array([1, 1j, 0, 0]) / SQ2
        cand = ref * np.exp(0.7j) * 3.0
        delta, mag = phase_fixed_delta(cand, ref)
        assert delta <= 1e-12
        assert abs(mag - 3.0) <= 1e-12

    def test_phase_fixed_delta_detects_disagreement(self):
        ref = np.array([1.0, 0.0])
        cand = np.array([0.0, 1.0])
        delta, _ = phase_fixed_delta(cand, ref)
        assert delta >= 1.0

    def test_crosscheck_bell(self):
        result = crosscheck_circuit(BELL, seed=2)
        assert result.amplitude_delta <= 1e-12
        assert result.expectation_delta <= 1e-12
        assert abs(result.scalar_magnitude - 1.0) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_triple_agreement_sample(self, seed):
        # The Clifford gates at every width from 1 to 7, and with NOT as well
        # at every width from 1 to 12, each from the zero input and from a
        # nonzero one.
        rng = random.Random(seed)
        cases = [(width, CLIFFORD_GATES) for width in range(1, 8)]
        cases += [(width, CLIFFORD_GATES + ("NOT",)) for width in range(1, 13)]
        for width, gates in cases:
            circ = random_clifford_circuit(width, 30, seed=seed, gates=gates)
            bits = format(rng.randrange(1, 1 << width), f"0{width}b")
            for start in (circ, Circuit(width, circ.ops, bits)):
                result = crosscheck_circuit(start, seed=seed)
                assert result.ok(1e-9), (width, start.input, result)


def test_random_circuit_is_deterministic_per_seed():
    a = random_clifford_circuit(5, 30, seed=7)
    b = random_clifford_circuit(5, 30, seed=7)
    c = random_clifford_circuit(5, 30, seed=8)
    assert a == b
    assert a != c
