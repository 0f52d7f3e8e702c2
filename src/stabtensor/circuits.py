"""Gate-list circuits and their compilation to tensor networks.

`compile_circuit` is the one place the gates are built from the generator
tensors (single-wire gates by the table `SINGLE_WIRE_STEPS`), and the
decomposition is canonical and fixed:

    H    native Hadamard tensor
    S    copy tensor with (1, i) contracted into one leg (diagonal lift)
    Z    diagonal lift of (1, -1)
    X    H Z H
    Y    S X S^3
    CN   copy tensor on the control wire feeding the XOR tensor on the target
    NOT  XOR tensor with the constant |1> on one input

Two controlled-NOT constructions coexist on purpose: the wired network
(`feynman_gate_network`; `compile_circuit` wires the same copy/XOR pair
for each CN) and the raised-index single contraction
(`cn_index_contraction`).  They are not the same tensor; the
verification suite reports the comparison instead of assuming either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from stabtensor import generators as gen
from stabtensor.tensor import Tensor, TensorNetwork, contract_pair

GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "NOT": 1, "CN": 2}


class CircuitParseError(ValueError):
    """Raised on malformed circuit or truth-table text."""


@dataclass(frozen=True)
class GateApp:
    gate: str
    wires: tuple[int, ...]

    def __post_init__(self):
        if self.gate not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.gate!r}")
        if len(self.wires) != GATE_ARITY[self.gate]:
            raise ValueError(
                f"{self.gate} takes {GATE_ARITY[self.gate]} wire(s), got {self.wires}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"{self.gate} wires must be distinct, got {self.wires}")


@dataclass(frozen=True)
class Circuit:
    width: int
    ops: tuple[GateApp, ...] = ()
    input: str | None = None

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit needs at least one wire")
        for op in self.ops:
            for w in op.wires:
                if not 0 <= w < self.width:
                    raise ValueError(f"wire {w} outside 0..{self.width - 1}")
        if self.input is not None:
            if len(self.input) != self.width or set(self.input) - {"0", "1"}:
                raise ValueError(f"input {self.input!r} is not a {self.width}-bit string")


def parse_circuit(text: str) -> Circuit:
    """Parse the one-op-per-line circuit format.

    Header `wires N` first, optional `input <bits>`, then one gate per
    line (`H 0`, `CN 0 1`, ...).  Lines starting with `#` are comments.
    """
    width: int | None = None
    input_bits: str | None = None
    ops: list[GateApp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        head = fields[0]
        try:
            if head == "wires":
                if width is not None:
                    raise CircuitParseError("duplicate wires header")
                if len(fields) != 2 or not fields[1].isdigit():
                    raise CircuitParseError(f"bad wires header {line!r}")
                width = int(fields[1])
                if width < 1:
                    raise CircuitParseError("wires must be >= 1")
                continue
            if width is None:
                raise CircuitParseError("missing `wires N` header before first op")
            if head == "input":
                if input_bits is not None:
                    raise CircuitParseError("duplicate input line")
                if len(fields) != 2:
                    raise CircuitParseError(f"bad input line {line!r}")
                input_bits = fields[1]
                continue
            if head not in GATE_ARITY:
                raise CircuitParseError(f"unknown gate {head!r}")
            try:
                wires = tuple(int(w) for w in fields[1:])
            except ValueError as exc:
                raise CircuitParseError(f"bad wire list in {line!r}") from exc
            ops.append(GateApp(head, wires))
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from None
    if width is None:
        raise CircuitParseError("missing `wires N` header")
    try:
        return Circuit(width, tuple(ops), input_bits)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def feynman_gate_network() -> TensorNetwork:
    """Controlled-NOT as a wired network of copy and XOR.

    Open legs in order: in-control, in-target, out-control, out-target.
    Contracts to the permutation (a, b) -> (a, a xor b).
    """
    nodes = {"copy": gen.copy_tensor(), "xor": gen.xor_tensor()}
    bonds = [(("copy", 2), ("xor", 2))]
    open_legs = [("copy", 0), ("xor", 1), ("copy", 1), ("xor", 0)]
    return TensorNetwork(nodes, bonds, open_legs)


def cn_component_polynomial(i: int, j: int, q: int, r: int) -> int:
    """Closed-form component expansion of the raised-index contraction."""
    return (
        1
        - (i + j + q + r)
        + i * j
        + i * q
        + j * q
        + i * r
        + j * r
        + 2 * (q * r - i * q * r - j * q * r)
    )


def cn_index_contraction() -> Tensor:
    """The single contraction of raised-index copy with XOR over one shared leg.

    Legs ordered (i, j, q, r).  Supported where i = j = q xor r, which is
    not the controlled-NOT permutation tensor; see the verification suite.
    """
    return contract_pair(gen.copy_tensor(), (2,), gen.xor_tensor(), (0,))


# Single-wire gates as the steps they take along their wire: "H" is a
# Hadamard node, k a copy node with the phase vector t{k} on leg 0, which
# is the diagonal lift diag(1, i**k).
SINGLE_WIRE_STEPS = {
    "H": ("H",), "S": (1,), "Z": (2,), "X": ("H", 2, "H"), "Y": (3, "H", 2, "H", 1),
}


def compile_circuit(circuit: Circuit) -> TensorNetwork:
    """Compile a circuit to a network over the generator tensors only.

    With an input string the open legs are the output wires 0..width-1.
    Without one the result is the circuit operator with open legs
    (out_0..out_{n-1}, in_0..in_{n-1}).
    """
    nodes: dict[str, Tensor] = {}
    bonds: list = []
    # the dangling output end of each wire
    cur: list[tuple[str, int]] = []
    in_legs: list[tuple[str, int]] = []
    # Tensors are immutable, so every node of one kind can share one
    # instance; each is built on first use within this compile.
    generator = lru_cache(maxsize=None)(gen.by_name)

    def add(tag: str, tensor: Tensor) -> str:
        name = f"{len(nodes)}:{tag}"
        nodes[name] = tensor
        return name

    def apply_map(w: int, name: str, in_leg: int, out_leg: int) -> None:
        bonds.append((cur[w], (name, in_leg)))
        cur[w] = (name, out_leg)

    if circuit.input is not None:
        for bit in circuit.input:
            name = add(f"in{bit}", generator(f"ket{bit}"))
            cur.append((name, 0))
    else:
        # Anchor each open input on an identity node so inputs stay legs.
        identity = gen.identity_map()
        for w in range(circuit.width):
            name = add("id", identity)
            cur.append((name, 0))
            in_legs.append((name, 1))

    for op in circuit.ops:
        w = op.wires[0]
        if op.gate == "CN":
            d = add("copy", generator("copy"))
            x = add("xor", generator("xor"))
            bonds.append(((d, 2), (x, 2)))
            apply_map(w, d, 0, 1)  # control
            apply_map(op.wires[1], x, 1, 0)  # target
        elif op.gate == "NOT":
            x = add("xor", generator("xor"))
            one = add("one", generator("ket1"))
            bonds.append(((one, 0), (x, 2)))
            apply_map(w, x, 1, 0)
        else:
            for step in SINGLE_WIRE_STEPS[op.gate]:
                if step == "H":
                    apply_map(w, add("H", generator("hadamard")), 1, 0)
                else:
                    d = add("copy", generator("copy"))
                    t = add(f"t{step}", generator(f"t{step}"))
                    bonds.append(((t, 0), (d, 0)))
                    apply_map(w, d, 2, 1)

    return TensorNetwork(nodes, bonds, list(cur) + in_legs)


def circuit_state(circuit: Circuit) -> Tensor:
    """Contract the compiled network to the output state (rank = width)."""
    if circuit.input is None:
        circuit = Circuit(circuit.width, circuit.ops, "0" * circuit.width)
    return compile_circuit(circuit).contract()


def circuit_unitary(circuit: Circuit) -> Tensor:
    """Contract the compiled network to the circuit operator (rank = 2*width)."""
    stripped = Circuit(circuit.width, circuit.ops, None)
    return compile_circuit(stripped).contract()
