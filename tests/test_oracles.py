"""Dense and tableau oracles, their agreement channel, and the crosscheck."""

import dataclasses
import importlib.util
import itertools
import random
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from stabtensor import cli, oracles
from stabtensor.circuits import Circuit, GateApp, circuit_state
from stabtensor.oracles import (
    CLIFFORD_GATES,
    StabilizerTableau,
    StateVector,
    crosscheck_circuit,
    crosscheck_paulis,
    dense_simulate,
    pauli_expectations,
    phase_fixed_delta,
    random_clifford_circuit,
    tableau_simulate,
)

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _BENCH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SQ2 = np.sqrt(2)

BELL = Circuit(2, (GateApp("H", (0,)), GateApp("CN", (0, 1))), "00")

PAULIS_2X2 = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def _seeded_start(width, seed, depth=30):
    """A seeded circuit with NOT, from a nonzero input."""
    circ = random_clifford_circuit(width, depth, seed, CLIFFORD_GATES + ("NOT",))
    bits = format(random.Random(seed).randrange(1, 1 << width), f"0{width}b")
    return Circuit(width, circ.ops, bits)


def _all_strings(n):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


def _row_string(x, z):
    return "".join("IZXY"[2 * a + b] for a, b in zip(x, z))


def _row(cols, i):
    """Row i of a packed tableau's X or Z columns, one bit per wire."""
    return np.array([col >> i & 1 for col in cols], dtype=np.uint8)


def _symplectic_products(tab):
    """Pairwise commutation matrix of a tableau's 2n rows (1 = anticommute)."""
    rows = range(2 * tab.n)
    x = np.array([_row(tab.xcols, i) for i in rows])
    z = np.array([_row(tab.zcols, i) for i in rows])
    return (x @ z.T ^ z @ x.T) & 1


def _expectation(state, pauli):
    return pauli_expectations(state, [pauli])[0]


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

    def test_state_is_frozen_so_its_size_check_holds(self):
        state = dense_simulate(Circuit(2, (), "00"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.amplitudes = np.zeros(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.n = 3
        assert pauli_expectations(state, ["ZZ"]).tolist() == [1.0]
        assert type(StateVector(np.int64(1), np.ones(2)).n) is int


class TestTableau:
    def test_h_gives_x_stabilizer(self):
        tab = tableau_simulate(Circuit(1, (GateApp("H", (0,)),)))
        sx, sz, sr = tab.stabilizer_rows()
        assert sx.tolist() == [[1]] and sz.tolist() == [[0]] and sr.tolist() == [0]

    def test_bell_stabilizers_via_expectations(self):
        tab = tableau_simulate(BELL)
        assert _expectation(tab, "XX") == 1.0
        assert _expectation(tab, "ZZ") == 1.0
        assert _expectation(tab, "ZI") == 0.0
        assert _expectation(tab, "YY") == -1.0

    def test_s_squared_equals_z(self):
        a = tableau_simulate(Circuit(1, (GateApp("H", (0,)), GateApp("S", (0,)), GateApp("S", (0,)))))
        b = tableau_simulate(Circuit(1, (GateApp("H", (0,)), GateApp("Z", (0,)))))
        assert a.xcols == b.xcols
        assert a.zcols == b.zcols
        assert a.signs == b.signs

    def test_input_bits_prepared_with_x(self):
        tab = tableau_simulate(Circuit(2, (), "01"))
        assert _expectation(tab, "ZI") == 1.0
        assert _expectation(tab, "IZ") == -1.0

    def test_rejects_unknown_gate(self):
        tab = StabilizerTableau(1)
        with pytest.raises(ValueError):
            tab.apply("T", (0,))

    def test_symplectic_structure_preserved(self):
        # destabilizer i anticommutes exactly with stabilizer i
        n = 4
        tab = tableau_simulate(random_clifford_circuit(n, 60, seed=11))
        products = _symplectic_products(tab)
        want = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        for i in range(n):
            want[i, n + i] = 1
            want[n + i, i] = 1
        assert np.array_equal(products, want)


class _NumpyTableau:
    """The tableau as 2n numpy rows of X and Z bits plus sign bits, updated
    and read by the row rules the packed tableau replaced: the reference
    it is tested against."""

    # Exponent of i picked up multiplying two one-qubit Paulis, indexed by
    # the bits x1 z1 x2 z2 (so I, Z, X, Y are the codes 0..3 of 2x + z).
    PRODUCT_PHASE = np.array([0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 1, 0, 1, -1, 0])

    def __init__(self, circuit):
        n = self.n = circuit.width
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1
        for w, bit in enumerate(circuit.input or ""):
            if bit == "1":
                self.apply("X", (w,))
        for op in circuit.ops:
            self.apply(op.gate, op.wires)

    def apply(self, gate, wires):
        x, z = self.x, self.z
        if gate == "CN":
            c, t = wires
            self.r ^= x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
            x[:, t] ^= x[:, c]
            z[:, c] ^= z[:, t]
            return
        (a,) = wires
        if gate == "H":
            self.r ^= x[:, a] & z[:, a]
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif gate == "S":
            self.r ^= x[:, a] & z[:, a]
            z[:, a] ^= x[:, a]
        elif gate == "Z":
            self.r ^= x[:, a]
        elif gate == "Y":
            self.r ^= x[:, a] ^ z[:, a]
        else:
            assert gate in ("X", "NOT")
            self.r ^= z[:, a]

    def expectations(self, paulis):
        n = self.n
        letters = np.array([list(p) for p in paulis]).reshape(len(paulis), n)
        x = ((letters == "X") | (letters == "Y")).astype(np.int64)
        z = ((letters == "Z") | (letters == "Y")).astype(np.int64)
        anti = (np.hstack((self.x, self.z)).astype(np.int64) @ np.hstack((z, x)).T) & 1 == 1
        values = np.zeros(len(paulis))
        live = ~anti[n:].any(axis=0)
        takes = anti[:n, live]
        want = 2 * x[live] + z[live]
        product = np.zeros_like(want)
        phase = np.zeros(len(want), dtype=np.int64)
        stabilizers = 2 * self.x[n:].astype(np.int64) + self.z[n:]
        for k in np.flatnonzero(takes.any(axis=1)):
            s = np.flatnonzero(takes[k])
            gained = self.PRODUCT_PHASE[4 * product[s] + stabilizers[k]].sum(axis=1)
            phase[s] += gained + 2 * int(self.r[n + k])
            product[s] ^= stabilizers[k]
        assert np.array_equal(product, want)
        phase %= 4
        assert not (phase & 1).any()
        values[live] = 1 - phase
        return values


class TestPackedTableau:
    """The packed tableau against `_NumpyTableau`, row for row and value
    for value."""

    @pytest.mark.parametrize("n", [*range(1, 9), 33, 130])
    def test_rows_and_signs_equal_the_reference(self, n):
        # At 130 wires the rows run to 259, past bit 256 of each int.
        for seed in range(3):
            circ = _seeded_start(n, seed, depth=max(30, 4 * n))
            tab, ref = tableau_simulate(circ), _NumpyTableau(circ)
            rows = range(2 * n)
            assert np.array_equal([_row(tab.xcols, i) for i in rows], ref.x)
            assert np.array_equal([_row(tab.zcols, i) for i in rows], ref.z)
            assert [tab.signs >> i & 1 for i in rows] == ref.r.tolist()
            assert tab.signs >> 2 * n == 0
            got = tab.stabilizer_rows()
            for part, want in zip(got, (ref.x[n:], ref.z[n:], ref.r[n:])):
                assert part.dtype == np.uint8 and np.array_equal(part, want)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_expectations_equal_the_reference_on_every_string(self, n):
        paulis = _all_strings(n)
        for seed in range(4):
            for circ in (_seeded_start(n, seed), random_clifford_circuit(n, 40, seed)):
                got = pauli_expectations(tableau_simulate(circ), paulis)
                assert np.array_equal(got, _NumpyTableau(circ).expectations(paulis))

    @pytest.mark.parametrize("n", [100, 1000])
    def test_expectations_equal_the_reference_on_stabilizer_products(self, n):
        circ = random_clifford_circuit(n, 4 * n, 0)
        tab, ref = tableau_simulate(circ), _NumpyTableau(circ)
        paulis = bench.stabilizer_products(tab, 20, 0)
        rng = random.Random(n)
        paulis += ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(4)]
        got = pauli_expectations(tab, paulis)
        assert set(np.abs(got[:20])) == {1.0}
        assert np.array_equal(got, ref.expectations(paulis))


class TestPauliExpectation:
    def test_z_on_zero_state(self):
        tab = tableau_simulate(Circuit(1, ()))
        assert _expectation(tab, "Z") == 1.0
        dense = dense_simulate(Circuit(1, ()))
        assert _expectation(dense, "Z") == 1.0

    def test_bell_dense_values(self):
        dense = dense_simulate(BELL)
        assert abs(_expectation(dense, "XX") - 1.0) <= 1e-12
        assert abs(_expectation(dense, "ZI")) <= 1e-12

    def test_tableau_values_are_plus_minus_zero(self):
        tab = tableau_simulate(random_clifford_circuit(3, 25, seed=5))
        for pauli in ("XII", "IYI", "IIZ", "XYZ", "ZZZ"):
            assert _expectation(tab, pauli) in (-1.0, 0.0, 1.0)

    def test_malformed_string(self):
        tab = tableau_simulate(Circuit(2, ()))
        with pytest.raises(ValueError):
            _expectation(tab, "XQ")
        with pytest.raises(ValueError):
            _expectation(tab, "X")


class TestPauliExpectations:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_dense_matches_kronecker_reference(self, n):
        rng = np.random.default_rng(n)
        generic = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        states = [dense_simulate(_seeded_start(n, seed)).amplitudes for seed in range(3)]
        states += [v / np.linalg.norm(v) for v in generic]
        paulis = _all_strings(n)
        for psi in states:
            got = pauli_expectations(StateVector(n, psi), paulis)
            for pauli, value in zip(paulis, got):
                op = reduce(np.kron, [PAULIS_2X2[p] for p in pauli])
                assert abs(value - np.vdot(psi, op @ psi).real) <= 1e-12, pauli

    @pytest.mark.parametrize("n", range(1, 6))
    def test_tableau_matches_dense(self, n):
        paulis = _all_strings(n)
        for seed in range(3):
            circ = _seeded_start(n, seed)
            tab = pauli_expectations(tableau_simulate(circ), paulis)
            dense = pauli_expectations(dense_simulate(circ), paulis)
            assert set(tab) <= {-1.0, 0.0, 1.0}
            assert np.max(np.abs(tab - dense)) <= 1e-12

    @pytest.mark.parametrize("n", [100, 400])
    def test_stabilizer_products_far_past_the_dense_limit(self, n):
        tab = tableau_simulate(random_clifford_circuit(n, 4 * n, n, CLIFFORD_GATES + ("NOT",)))
        rng = np.random.default_rng(n)
        subsets = rng.random((4, n)) < 0.5
        sx, sz, _ = tab.stabilizer_rows()
        products = [(sx[s].sum(axis=0) & 1, sz[s].sum(axis=0) & 1) for s in subsets]
        paulis = [_row_string(x, z) for x, z in products]
        values = pauli_expectations(tab, paulis)
        assert set(np.abs(values)) == {1.0}
        for subset in subsets:
            k = int(np.flatnonzero(subset)[0])
            tab.signs ^= 1 << (n + k)
            flipped = pauli_expectations(tab, paulis)
            tab.signs ^= 1 << (n + k)
            assert np.array_equal(flipped, np.where(subsets[:, k], -values, values))
        # Destabilizer j anticommutes with stabilizer j alone.
        with_destabilizer = [
            _row_string(x ^ _row(tab.xcols, j), z ^ _row(tab.zcols, j))
            for j, (x, z) in enumerate(products)
        ]
        assert np.array_equal(pauli_expectations(tab, with_destabilizer), np.zeros(4))

    def test_batch_equals_one_string_calls(self):
        circ = _seeded_start(5, 1)
        paulis = crosscheck_paulis(5, seed=4)
        for state in (dense_simulate(circ), tableau_simulate(circ)):
            one = [_expectation(state, p) for p in paulis]
            assert pauli_expectations(state, paulis).tolist() == one

    @pytest.mark.parametrize("bad", ["XQ", "X", "XYZ", "xz"])
    def test_malformed_string_anywhere_in_a_batch(self, bad):
        for state in (dense_simulate(BELL), tableau_simulate(BELL)):
            for batch in ([bad, "XX"], ["XX", bad], ["ZZ", bad, "XX"]):
                with pytest.raises(ValueError, match=repr(bad)):
                    pauli_expectations(state, batch)

    def test_empty_batch(self):
        for state in (dense_simulate(BELL), tableau_simulate(BELL)):
            values = pauli_expectations(state, [])
            assert values.shape == (0,) and values.dtype == float


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

    def test_phase_fixed_delta_pivot_can_be_the_last_entry(self):
        ref = np.zeros(4096, dtype=complex)
        ref[0] = 1e-13  # below the pivot threshold
        ref[-1] = 1.0
        cand = -2.0 * ref
        assert phase_fixed_delta(cand, ref) == (0.0, 2.0)

    def test_phase_fixed_delta_pivots_on_the_first_nonzero_entry(self):
        cand = np.array([0, 2, 3], dtype=complex)
        assert phase_fixed_delta(cand, np.array([0, 1, 1], dtype=complex)) == (0.5, 2.0)

    def test_phase_fixed_delta_all_zero_reference(self):
        with pytest.raises(ValueError, match="all zero"):
            phase_fixed_delta(np.ones(4), np.full(4, 1e-13))

    def test_nan_expectation_disagrees(self, monkeypatch, tmp_path, capsys):
        exact = oracles.pauli_expectations

        def nan_dense(state, paulis):
            values = exact(state, paulis)
            return np.full_like(values, np.nan) if isinstance(state, StateVector) else values

        monkeypatch.setattr(oracles, "pauli_expectations", nan_dense)
        result = crosscheck_circuit(BELL, circuit_state(BELL))
        assert np.isnan(result.expectation_delta) and not result.ok(1e-9)
        path = tmp_path / "bell.circ"
        path.write_text("wires 2\nH 0\nCN 0 1\n")
        assert cli.main(["--format", "records", "simulate", str(path), "--crosscheck"]) == 1
        assert capsys.readouterr().out.splitlines()[-1].endswith(
            "expectation_delta=nan paulis=14 status=disagree"
        )

    def test_one_flipped_stabilizer_sign_disagrees(self, monkeypatch):
        # The flipped sign is the Bell state's ZZ row, so the sample's ZZ
        # disagrees while its 13 other strings still agree: the worst
        # string counts.
        exact = oracles.tableau_simulate

        def flipped(circuit):
            tab = exact(circuit)
            tab.signs ^= 1 << (2 * tab.n - 1)
            return tab

        monkeypatch.setattr(oracles, "tableau_simulate", flipped)
        paulis = crosscheck_paulis(2, seed=2)
        deltas = np.abs(pauli_expectations(flipped(BELL), paulis)
                        - pauli_expectations(dense_simulate(BELL), paulis))
        assert np.count_nonzero(deltas > 1.0) == 1 and np.max(deltas) == pytest.approx(2.0)
        result = crosscheck_circuit(BELL, circuit_state(BELL), seed=2)
        assert result.expectation_delta == pytest.approx(2.0)
        assert not result.ok(1e-9)

    def test_crosscheck_bell(self):
        result = crosscheck_circuit(BELL, circuit_state(BELL), seed=2)
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
                result = crosscheck_circuit(start, circuit_state(start), seed=seed)
                assert result.ok(1e-9), (width, start.input, result)


def test_random_circuit_is_deterministic_per_seed():
    a = random_clifford_circuit(5, 30, seed=7)
    b = random_clifford_circuit(5, 30, seed=7)
    c = random_clifford_circuit(5, 30, seed=8)
    assert a == b
    assert a != c


def test_numpy_integer_seeds_draw_as_their_int_does():
    for seed in (np.int64(7), np.uint8(7)):
        assert random_clifford_circuit(5, 30, seed) == random_clifford_circuit(5, 30, 7)
        assert crosscheck_paulis(4, seed) == crosscheck_paulis(4, 7)
        assert crosscheck_circuit(BELL, circuit_state(BELL), seed) == crosscheck_circuit(
            BELL, circuit_state(BELL), 7)
