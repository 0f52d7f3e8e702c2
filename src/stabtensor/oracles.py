"""Independent reference simulators used to validate the tensor engine.

Two deliberately separate routes: a dense state-vector simulator built on
textbook gate matrices and numpy, and a stabilizer tableau simulator
updated row-wise over GF(2).  Neither touches the generator tensors, so
agreement with the contracted networks is a real cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from stabtensor.circuits import Circuit, GateApp, circuit_state

MAX_DENSE_WIDTH = 12

_SQRT_HALF = 1.0 / np.sqrt(2.0)

GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT_HALF,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "NOT": np.array([[0, 1], [1, 0]], dtype=complex),
    "CN": np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    ),
}

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": GATE_MATRICES["X"],
    "Y": GATE_MATRICES["Y"],
    "Z": GATE_MATRICES["Z"],
}


@dataclass
class StateVector:
    """Dense n-qubit state; wire 0 is the most significant basis bit."""

    n: int
    amplitudes: np.ndarray


def dense_simulate(circuit: Circuit) -> StateVector:
    """Apply each gate's textbook matrix by direct multiplication."""
    n = circuit.width
    if n > MAX_DENSE_WIDTH:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_WIDTH} wires, got {n}")
    bits = circuit.input or "0" * n
    psi = np.zeros((2,) * n, dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    for op in circuit.ops:
        mat = GATE_MATRICES[op.gate]
        if len(op.wires) == 1:
            (w,) = op.wires
            psi = np.tensordot(mat, psi, axes=([1], [w]))
            psi = np.moveaxis(psi, 0, w)
        else:
            c, t = op.wires
            u = mat.reshape(2, 2, 2, 2)
            psi = np.tensordot(u, psi, axes=([2, 3], [c, t]))
            psi = np.moveaxis(psi, (0, 1), (c, t))
    return StateVector(n, psi.reshape(-1))


class StabilizerTableau:
    """2n generator rows (destabilizers then stabilizers) of X/Z bits plus
    sign bits, updated by the standard conjugation rules."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("tableau needs at least one qubit")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1

    def apply(self, gate: str, wires: tuple[int, ...]) -> None:
        if gate == "H":
            (a,) = wires
            self.r ^= self.x[:, a] & self.z[:, a]
            self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()
        elif gate == "S":
            (a,) = wires
            self.r ^= self.x[:, a] & self.z[:, a]
            self.z[:, a] ^= self.x[:, a]
        elif gate == "Z":
            (a,) = wires
            self.r ^= self.x[:, a]
        elif gate in ("X", "NOT"):
            (a,) = wires
            self.r ^= self.z[:, a]
        elif gate == "Y":
            (a,) = wires
            self.r ^= self.x[:, a] ^ self.z[:, a]
        elif gate == "CN":
            c, t = wires
            self.r ^= (
                self.x[:, c]
                & self.z[:, t]
                & (self.x[:, t] ^ self.z[:, c] ^ 1)
            )
            self.x[:, t] ^= self.x[:, c]
            self.z[:, c] ^= self.z[:, t]
        else:
            raise ValueError(f"gate {gate!r} is not in the tableau gate set")

    def stabilizer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n
        return self.x[n:].copy(), self.z[n:].copy(), self.r[n:].copy()

    def symplectic_products(self) -> np.ndarray:
        """Pairwise commutation matrix of all 2n rows (1 = anticommute)."""
        return (self.x @ self.z.T ^ self.z @ self.x.T) & 1


def tableau_simulate(circuit: Circuit) -> StabilizerTableau:
    """Standard tableau updates per gate, starting from |0...0>."""
    tab = StabilizerTableau(circuit.width)
    for w, bit in enumerate(circuit.input or ""):
        if bit == "1":
            tab.apply("X", (w,))
    for op in circuit.ops:
        tab.apply(op.gate, op.wires)
    return tab


def _pauli_bits(pauli: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    if len(pauli) != n or set(pauli) - set("IXYZ"):
        raise ValueError(f"bad Pauli string {pauli!r} for {n} qubits")
    x = np.array([1 if p in "XY" else 0 for p in pauli], dtype=np.uint8)
    z = np.array([1 if p in "ZY" else 0 for p in pauli], dtype=np.uint8)
    return x, z


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i picked up multiplying two single-qubit Paulis."""
    if x1 == 0 and z1 == 0:
        return 0
    if x1 == 1 and z1 == 1:
        return z2 - x2
    if x1 == 1:
        return z2 * (2 * x2 - 1)
    return x2 * (1 - 2 * z2)


def _rowmult(acc: tuple, row: tuple) -> tuple:
    """Multiply Pauli rows (x, z, phase_mod4); phase tracks the sign."""
    x1, z1, p1 = acc
    x2, z2, p2 = row
    phase = p1 + p2
    for k in range(len(x1)):
        phase += _phase_exponent(int(x1[k]), int(z1[k]), int(x2[k]), int(z2[k]))
    return (x1 ^ x2, z1 ^ z2, phase % 4)


def pauli_expectation(state, pauli: str) -> float:
    """<psi|P|psi>; exactly -1, 0 or +1 when `state` is a tableau."""
    if isinstance(state, StabilizerTableau):
        return _tableau_expectation(state, pauli)
    if isinstance(state, StateVector):
        return _dense_expectation(state, pauli)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _dense_expectation(state: StateVector, pauli: str) -> float:
    n = state.n
    _pauli_bits(pauli, n)  # validate
    psi = state.amplitudes.reshape((2,) * n)
    out = psi
    for w, p in enumerate(pauli):
        if p == "I":
            continue
        out = np.tensordot(PAULI_MATRICES[p], out, axes=([1], [w]))
        out = np.moveaxis(out, 0, w)
    val = complex(np.vdot(psi.reshape(-1), out.reshape(-1)))
    if abs(val.imag) > 1e-9:
        raise ArithmeticError(f"expectation of {pauli} not real: {val}")
    return val.real


def _tableau_expectation(tab: StabilizerTableau, pauli: str) -> float:
    n = tab.n
    xt, zt = _pauli_bits(pauli, n)
    # 1 where a tableau row anticommutes with P: destabilizers, then stabilizers.
    anti = ((tab.x @ zt) + (tab.z @ xt)) & 1
    if anti[n:].any():
        return 0.0
    # P commutes with every stabilizer, so it is +-1 times the product of
    # the stabilizers whose destabilizer anticommutes with P (Aaronson &
    # Gottesman, PRA 70, 052328, section III).
    sx, sz, sr = tab.stabilizer_rows()
    acc = (
        np.zeros(n, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
        0,
    )
    for k in np.flatnonzero(anti[:n]):
        acc = _rowmult(acc, (sx[k], sz[k], 2 * int(sr[k])))
    ax, az, phase = acc
    if not (np.array_equal(ax, xt) and np.array_equal(az, zt)):
        raise ArithmeticError("destabilizer rule gave an inconsistent product")
    if phase == 0:
        return 1.0
    if phase == 2:
        return -1.0
    raise ArithmeticError(f"non-Hermitian accumulated phase i^{phase}")


CLIFFORD_GATES = ("H", "S", "X", "Y", "Z", "CN")


def random_clifford_circuit(
    width: int, depth: int, seed: int, gates: tuple[str, ...] = CLIFFORD_GATES
) -> Circuit:
    """Seeded random circuit: uniform over gate type, then over wires."""
    rng = random.Random(seed)
    if width < 2:
        gates = tuple(g for g in gates if g != "CN")
    ops = []
    for _ in range(depth):
        gate = rng.choice(gates)
        if gate == "CN":
            c, t = rng.sample(range(width), 2)
            ops.append(GateApp("CN", (c, t)))
        else:
            ops.append(GateApp(gate, (rng.randrange(width),)))
    return Circuit(width, tuple(ops), "0" * width)


@dataclass(frozen=True)
class CrosscheckResult:
    amplitude_delta: float
    scalar_magnitude: float
    expectation_delta: float
    paulis_checked: int

    def ok(self, tol: float) -> bool:
        return self.amplitude_delta <= tol and self.expectation_delta <= tol


def phase_fixed_delta(candidate: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """Max deviation after removing one global scalar, plus its magnitude.

    The scalar is fixed at the first reference amplitude of non-negligible
    magnitude, so unnormalised engine output compares cleanly against the
    normalised oracle.
    """
    idx = None
    for k, v in enumerate(reference):
        if abs(v) > 1e-12:
            idx = k
            break
    if idx is None:
        raise ValueError("reference state is all zero")
    if abs(candidate[idx]) <= 1e-15:
        return float(np.max(np.abs(candidate - reference))), 0.0
    scalar = candidate[idx] / reference[idx]
    return float(np.max(np.abs(candidate / scalar - reference))), float(abs(scalar))


def crosscheck_circuit(
    circuit: Circuit, seed: int = 0, extra_paulis: int = 8
) -> CrosscheckResult:
    """Compare contracted-network amplitudes and tableau expectations
    against the dense oracle for one circuit."""
    n = circuit.width
    dense = dense_simulate(circuit)
    net_state = circuit_state(circuit).array.reshape(-1)
    amp_delta, scalar_mag = phase_fixed_delta(net_state, dense.amplitudes)

    tab = tableau_simulate(circuit)
    paulis = []
    for w in range(n):
        for p in "XYZ":
            paulis.append("I" * w + p + "I" * (n - w - 1))
    rng = random.Random(seed)
    for _ in range(extra_paulis):
        paulis.append("".join(rng.choice("IXYZ") for _ in range(n)))
    exp_delta = 0.0
    for pauli in paulis:
        d = abs(pauli_expectation(tab, pauli) - pauli_expectation(dense, pauli))
        exp_delta = max(exp_delta, d)
    return CrosscheckResult(amp_delta, scalar_mag, exp_delta, len(paulis))
