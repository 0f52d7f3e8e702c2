"""Independent reference simulators used to validate the tensor engine.

Two deliberately separate routes: a dense state-vector simulator built on
textbook gate matrices and numpy, and a stabilizer tableau simulator
updated row-wise over GF(2).  Neither touches the generator tensors, so
agreement with the contracted networks is a real cross-check.

Pauli expectations are batched: `pauli_expectations` reads a list of
strings as X and Z bit masks.  On a state vector each string is one
flip-and-sign pass, P|j> = i**ny (-1)**popcount(j & Z) |j ^ X>, and one
`np.vdot`.  On a tableau one matmul finds, for every string, the rows it
anticommutes with, and the stabilizer rows are multiplied with a
16-entry phase table across all qubits at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# circuit_state is not called here; perfbench's tracer test reads oracles.circuit_state.
from stabtensor.circuits import Circuit, GateApp, circuit_state
from stabtensor.tensor import Tensor

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

@dataclass
class StateVector:
    """Dense n-qubit state; wire 0 is the most significant basis bit."""

    n: int
    amplitudes: np.ndarray


def dense_simulate(circuit: Circuit) -> StateVector:
    """Apply each gate's textbook matrix by direct multiplication.

    Each gate runs `np.tensordot`'s own steps: its wires are moved to the
    front, the state is flattened to (2**k, -1) for one `np.dot` with the
    matrix, and the wires are moved back.
    """
    n = circuit.width
    if n > MAX_DENSE_WIDTH:
        raise ValueError(f"dense oracle limited to {MAX_DENSE_WIDTH} wires, got {n}")
    bits = circuit.input or "0" * n
    psi = np.zeros((2,) * n, dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    for op in circuit.ops:
        wires = op.wires
        order = [*wires, *(a for a in range(n) if a not in wires)]
        front = psi.transpose(order)
        out = np.dot(GATE_MATRICES[op.gate], front.reshape(1 << len(wires), -1))
        psi = out.reshape(front.shape).transpose([order.index(a) for a in range(n)])
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


_PAULI_LETTERS = frozenset("IXYZ")

# i**k for k = 0..3, exact.
_I_POWERS = np.array([1, 1j, -1, -1j])

# Exponent of i picked up multiplying two one-qubit Paulis, indexed by the
# bits x1 z1 x2 z2 (so I, Z, X, Y are the codes 0..3 of 2x + z).
_PRODUCT_PHASE = np.array(
    [0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 1, 0, 1, -1, 0], dtype=np.int8
)


def _pauli_bits(paulis, n: int) -> tuple[np.ndarray, np.ndarray]:
    """X bits and Z bits of each string, each of shape (len(paulis), n)."""
    for pauli in paulis:
        if len(pauli) != n or not _PAULI_LETTERS.issuperset(pauli):
            raise ValueError(f"bad Pauli string {pauli!r} for {n} qubits")
    letters = np.frombuffer("".join(paulis).encode(), dtype=np.uint8)
    letters = letters.reshape(len(paulis), n)
    y = letters == ord("Y")
    x = (letters == ord("X")) | y
    z = (letters == ord("Z")) | y
    return x.astype(np.uint8), z.astype(np.uint8)


def pauli_expectations(state, paulis) -> np.ndarray:
    """<psi|P|psi> for each string P in `paulis`, as one float array.

    Exactly -1, 0 or +1 when `state` is a tableau.  A string that is not
    n letters from IXYZ is a ValueError naming it.
    """
    if isinstance(state, StabilizerTableau):
        return _tableau_expectations(state, paulis)
    if isinstance(state, StateVector):
        return _dense_expectations(state, paulis)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def pauli_expectation(state, pauli: str) -> float:
    """<psi|P|psi> for one string; see `pauli_expectations`."""
    return float(pauli_expectations(state, [pauli])[0])


def _dense_expectations(state: StateVector, paulis) -> np.ndarray:
    n = state.n
    x, z = _pauli_bits(paulis, n)
    weights = 1 << np.arange(n - 1, -1, -1)  # wire 0 is the most significant bit
    xmask, zmask = x @ weights, z @ weights
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        parity = np.concatenate((parity, parity ^ 1))
    # P|j> = i**ny (-1)**popcount(j & Z) |j ^ X>, so row k of P psi takes
    # that factor and psi's amplitude at j = k ^ X.
    psi = state.amplitudes.reshape(-1)
    j = np.arange(1 << n) ^ xmask[:, None]
    signs = np.array([1.0, -1.0])[parity[j & zmask[:, None]]]
    rows = _I_POWERS[(x & z).sum(axis=1) % 4][:, None] * signs * psi[j]
    values = np.array([np.vdot(psi, row) for row in rows], dtype=complex)
    bad = np.flatnonzero(np.abs(values.imag) > 1e-9)
    if bad.size:
        k = bad[0]
        raise ArithmeticError(f"expectation of {paulis[k]} not real: {values[k]}")
    return values.real


def _tableau_expectations(tab: StabilizerTableau, paulis) -> np.ndarray:
    n = tab.n
    x, z = _pauli_bits(paulis, n)
    # True where a tableau row (destabilizers, then stabilizers)
    # anticommutes with a string.  One float32 matmul, so BLAS runs it; its
    # counts, at most 2n, are exact below 2**24.
    rows = np.hstack((tab.x, tab.z), dtype=np.float32)
    strings = np.hstack((z, x), dtype=np.float32)
    anti = (rows @ strings.T).astype(np.int64) & 1 == 1
    values = np.zeros(len(paulis))
    live = ~anti[n:].any(axis=0)
    # A string P that commutes with every stabilizer is +-1 times the
    # product of the stabilizers whose destabilizer anticommutes with P
    # (Aaronson & Gottesman, PRA 70, 052328, section III).  Rows are
    # multiplied as Pauli codes 2x + z, for every string that takes them.
    takes = anti[:n, live]
    want = 2 * x[live] + z[live]
    product = np.zeros_like(want)
    phase = np.zeros(len(want), dtype=np.int64)
    stabilizers = 2 * tab.x[n:] + tab.z[n:]
    for k in np.flatnonzero(takes.any(axis=1)):
        s = np.flatnonzero(takes[k])
        acc = product[s]
        row = stabilizers[k]
        gained = np.take(_PRODUCT_PHASE, 4 * acc + row).sum(axis=1)
        phase[s] += gained + 2 * int(tab.r[n + k])
        product[s] = acc ^ row
    if not np.array_equal(product, want):
        raise ArithmeticError("destabilizer rule gave an inconsistent product")
    phase %= 4
    odd = np.flatnonzero(phase & 1)
    if odd.size:
        raise ArithmeticError(f"non-Hermitian accumulated phase i^{phase[odd[0]]}")
    values[live] = 1 - phase
    return values


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
    nonzero = np.flatnonzero(np.abs(reference) > 1e-12)
    if nonzero.size == 0:
        raise ValueError("reference state is all zero")
    idx = nonzero[0]
    if abs(candidate[idx]) <= 1e-15:
        return float(np.max(np.abs(candidate - reference))), 0.0
    scalar = candidate[idx] / reference[idx]
    return float(np.max(np.abs(candidate / scalar - reference))), float(abs(scalar))


def crosscheck_paulis(n: int, seed: int = 0) -> list[str]:
    """The crosscheck's strings: X, Y and Z on each wire alone, then 8
    strings over IXYZ drawn from `seed`."""
    paulis = ["I" * w + p + "I" * (n - w - 1) for w in range(n) for p in "XYZ"]
    rng = random.Random(seed)
    for _ in range(8):
        paulis.append("".join(rng.choice("IXYZ") for _ in range(n)))
    return paulis


def crosscheck_circuit(circuit: Circuit, state: Tensor, seed: int = 0) -> CrosscheckResult:
    """Compare `state`, the engine's contracted state of `circuit`, and the
    tableau's expectations with the dense oracle.

    The amplitudes are compared as they are, with no scalar fitted out, so
    a fault in the global phase or the norm disagrees; `scalar_magnitude`
    is the engine state's 2-norm, 1 when the state is right.
    """
    dense = dense_simulate(circuit)
    net_state = state.array.reshape(-1)
    amp_delta = float(np.max(np.abs(net_state - dense.amplitudes)))
    scalar_mag = float(np.linalg.norm(net_state))

    paulis = crosscheck_paulis(circuit.width, seed)
    deltas = np.abs(
        pauli_expectations(tableau_simulate(circuit), paulis)
        - pauli_expectations(dense, paulis)
    )
    # np.max, unlike max(), keeps a NaN, so a NaN expectation disagrees.
    return CrosscheckResult(amp_delta, scalar_mag, float(np.max(deltas)), len(paulis))
