"""Independent reference simulators used to validate the tensor engine.

Two deliberately separate routes: a dense state-vector simulator built on
textbook gate matrices and numpy, and a stabilizer tableau simulator over
GF(2), bit-packed so that each wire's X and Z bits of all 2n rows are one
Python int.  Neither touches the generator tensors, so agreement with the
contracted networks is a real cross-check.

Pauli expectations are batched: `pauli_expectations` reads a list of
strings as X and Z bit masks.  On a state vector each string is one
flip-and-sign pass, P|j> = i**ny (-1)**popcount(j & Z) |j ^ X>, and one
`np.vdot`.  On a tableau the rows a string anticommutes with are one int,
the XOR of a column per letter, and the stabilizer rows it takes are
multiplied as wire masks, the phase counted with `int.bit_count`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# circuit_state is not called here; perfbench's tracer test reads oracles.circuit_state.
from stabtensor.circuits import Circuit, GateApp, circuit_state
from stabtensor.tensor import Tensor, as_int

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


# The wires each gate of the tableau gate set acts on; `apply` reads any
# other gate as an error, never as one of these.
_TABLEAU_ARITY = {"H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "NOT": 1, "CN": 2}


class StabilizerTableau:
    """The 2n generator rows of a stabilizer state, bit-packed by wire.

    Rows 0..n-1 are the destabilizers and rows n..2n-1 the stabilizers.
    `xcols[a]` and `zcols[a]` are Python ints whose bit i is row i's X and
    Z bit on wire a, and bit i of `signs` is row i's sign bit.  Each gate
    updates every row at once by the standard conjugation rules, with a
    few integer operations at any width.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("tableau needs at least one qubit")
        self.n = n
        self.xcols = [1 << a for a in range(n)]
        self.zcols = [1 << (n + a) for a in range(n)]
        self.signs = 0

    def apply(self, gate: str, wires: tuple[int, ...]) -> None:
        """Conjugate every row by `gate` on `wires`.  A gate outside the
        tableau gate set, a wrong wire count, a wire outside 0..n-1 or CN
        on one wire is a ValueError, raised before any column changes."""
        arity = _TABLEAU_ARITY.get(gate)
        if arity is None:
            raise ValueError(f"gate {gate!r} is not in the tableau gate set")
        if len(wires) != arity:
            raise ValueError(f"{gate} takes {arity} wire(s), got {wires!r}")
        n = self.n
        for w in wires:
            if not 0 <= w < n:
                raise ValueError(f"wire {w!r} outside 0..{n - 1}")
        x, z = self.xcols, self.zcols
        if arity == 2:
            c, t = wires
            if c == t:
                raise ValueError(f"CN wires must be distinct, got {wires!r}")
            # ~(...) is negative, but x[c] is not, so neither is the mask.
            self.signs ^= x[c] & z[t] & ~(x[t] ^ z[c])
            x[t] ^= x[c]
            z[c] ^= z[t]
            return
        (a,) = wires
        if gate == "H":
            self.signs ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif gate == "S":
            self.signs ^= x[a] & z[a]
            z[a] ^= x[a]
        elif gate == "Z":
            self.signs ^= x[a]
        elif gate == "Y":
            self.signs ^= x[a] ^ z[a]
        else:  # X and NOT
            self.signs ^= z[a]

    def stabilizer_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X bits, Z bits and sign bits of the n stabilizer rows, as uint8
        arrays of shapes (n, n), (n, n) and (n,)."""
        n = self.n
        bits = _row_bits(self.xcols + self.zcols + [self.signs], n, n)
        return bits[:, :n].copy(), bits[:, n:2 * n].copy(), bits[:, 2 * n].copy()


def _row_bits(cols: list[int], first: int, count: int) -> np.ndarray:
    """Bits first..first+count-1 of each int in `cols`, as a uint8 array of
    shape (count, len(cols)): the rows of a tableau whose wire columns are
    `cols`."""
    size = (count + 7) // 8
    data = b"".join((c >> first).to_bytes(size, "little") for c in cols)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(cols), size)
    bits = np.unpackbits(packed, axis=1, count=count, bitorder="little")
    # Transposed into a contiguous array, so that packing its rows again
    # reads memory in order (three times faster at 1000 wires).
    return np.ascontiguousarray(bits.T)


def _row_masks(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as an int, bit a for column a."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data, size = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


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


def _check_paulis(paulis, n: int) -> None:
    """A ValueError naming the first string that is not a str of n letters of IXYZ."""
    for pauli in paulis:
        if not isinstance(pauli, str) or len(pauli) != n or not _PAULI_LETTERS.issuperset(pauli):
            raise ValueError(f"bad Pauli string {pauli!r} for {n} qubits")


def _pauli_bits(paulis, n: int) -> tuple[np.ndarray, np.ndarray]:
    """X bits and Z bits of each string, each of shape (len(paulis), n)."""
    _check_paulis(paulis, n)
    letters = np.frombuffer("".join(paulis).encode(), dtype=np.uint8)
    letters = letters.reshape(len(paulis), n)
    y = letters == ord("Y")
    x = (letters == ord("X")) | y
    z = (letters == ord("Z")) | y
    return x.astype(np.uint8), z.astype(np.uint8)


def pauli_expectations(state, paulis) -> np.ndarray:
    """<psi|P|psi> for each string P in `paulis`, as one float array.

    Exactly -1, 0 or +1 when `state` is a tableau.  A string that is not
    a str of n letters from IXYZ is a ValueError naming it.
    """
    if isinstance(state, StabilizerTableau):
        return _tableau_expectations(state, paulis)
    if isinstance(state, StateVector):
        return _dense_expectations(state, paulis)
    raise TypeError(f"unsupported state type {type(state).__name__}")


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
    _check_paulis(paulis, n)
    xcols, zcols, signs = tab.xcols, tab.zcols, tab.signs
    # Bits 0..n-1: the destabilizer rows of `anti` below, and the X part of
    # a stabilizer row in `stabilizers`, whose bits n..2n-1 are its Z part.
    low = (1 << n) - 1
    values = np.zeros(len(paulis))
    stabilizers = None
    for i, pauli in enumerate(paulis):
        # Bit j of anti is set where tableau row j anticommutes with the
        # string; xs and zs are the string's X and Z bits, bit a for wire a.
        anti = xs = zs = 0
        for a, letter in enumerate(pauli):
            if letter != "I":
                if letter != "Z":
                    anti ^= zcols[a]
                    xs |= 1 << a
                if letter != "X":
                    anti ^= xcols[a]
                    zs |= 1 << a
        if anti >> n:
            continue
        # A string P that commutes with every stabilizer is +-1 times the
        # product of the stabilizers whose destabilizer anticommutes with P
        # (Aaronson & Gottesman, PRA 70, 052328, section III).  With the
        # Hermitian H(x, z) = i**|x & z| X**x Z**z, H(x1, z1) H(x2, z2) is
        # i**(|x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3|) H(x3, z3), x3 = x1 ^ x2
        # and z3 = z1 ^ z2, and a row with its sign bit set is -H(x, z).
        if stabilizers is None:
            stabilizers = _row_masks(_row_bits(xcols + zcols, n, n))
        x1 = z1 = phase = 0
        takes = anti & low
        while takes:
            k = (takes & -takes).bit_length() - 1
            takes &= takes - 1
            row = stabilizers[k]
            x2, z2 = row & low, row >> n
            x3, z3 = x1 ^ x2, z1 ^ z2
            phase += ((x1 & z1).bit_count() + (x2 & z2).bit_count()
                      + 2 * (z1 & x2).bit_count() - (x3 & z3).bit_count()
                      + 2 * (signs >> (n + k) & 1))
            x1, z1 = x3, z3
        if x1 != xs or z1 != zs:
            raise ArithmeticError("destabilizer rule gave an inconsistent product")
        phase %= 4
        if phase & 1:
            raise ArithmeticError(f"non-Hermitian accumulated phase i^{phase}")
        values[i] = 1 - phase
    return values


CLIFFORD_GATES = ("H", "S", "X", "Y", "Z", "CN")


def random_clifford_circuit(
    width: int, depth: int, seed: int, gates: tuple[str, ...] = CLIFFORD_GATES
) -> Circuit:
    """Seeded random circuit: uniform over gate type, then over wires.

    Width (at least 1) and depth (at least 0) follow the integer rule and
    are checked before the first draw."""
    width = as_int(width, "circuit width")
    if width < 1:
        raise ValueError("circuit needs at least one wire")
    depth = as_int(depth, "depth")
    if depth < 0:
        raise ValueError("depth must be >= 0")
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
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
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
