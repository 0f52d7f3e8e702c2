"""Gate-list circuits and their compilation to tensor networks.

Every gate is one block of generator tensors in the table `GATE_BLOCKS`:
its nodes, its internal bonds, and where each of its wires enters and
leaves it.  `compile_circuit` builds every gate from that table through one
loop; the single-wire blocks are built at import from the words of
`SINGLE_WIRE_STEPS`.  The decomposition is canonical and fixed:

    H    native Hadamard tensor
    S    copy tensor with (1, i) contracted into one leg (diagonal lift)
    Z    diagonal lift of (1, -1)
    X    H Z H
    Y    S X S^3
    CN   copy tensor on the control wire feeding the XOR tensor on the target
    NOT  XOR tensor with the constant |1> on one input

Each gate declares its internal bonds before the bonds that attach it to
its wires, so the merges inside a gate block involve that block's
generator tensors alone and are the same in every circuit.  At import,
each one-gate network is contracted once as an operator and once as a
state on every input bit pattern, and all its merges are stored
(`tensor.store_product`), those with the shared identity anchor or
input ket that the first gate on each wire meets included:
`contract_pair` returns them without running the kernel, while every
merge still goes through it.

Each generator is read through its `generators` accessor once per call,
at call time, so patching one (say `generators.xor_tensor`) reaches
every compiled circuit: the patched tensor is a different object,
matches no stored product, and is contracted.

Two controlled-NOT constructions coexist on purpose: the wired copy/XOR
pair `compile_circuit` builds for each CN, and the raised-index single
contraction (`cn_index_contraction`).  They are not the same tensor; the
verification suite reports the comparison instead of assuming either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from stabtensor import generators as gen
from stabtensor.tensor import (
    LegBinding, Tensor, TensorNetwork, as_int, check_rank, contract_pair, store_product,
    stored_merges,
)

# Single-wire gates as the steps they take along their wire: "H" is a
# Hadamard node, k a copy node with the phase vector t{k} on leg 0, which
# is the diagonal lift diag(1, i**k).
SINGLE_WIRE_STEPS = {
    "H": ("H",), "S": (1,), "X": ("H", 2, "H"), "Y": (3, "H", 2, "H", 1), "Z": (2,),
}


def _word_block(word: tuple) -> tuple:
    """The gate block of a single-wire word (see `GATE_BLOCKS`).

    The wire enters an H node at leg 1 and leaves it at leg 0; it enters a
    copy node at leg 2 and leaves it at leg 1.  Each step declares its
    phase-vector bond, then the chain bond from the previous step's exit.
    """
    tags: list[str] = []
    inner: list[tuple[int, int, int, int]] = []
    for step in word:
        node = len(tags)
        if step == "H":
            tags.append("H")
            leg_in, leg_out = 1, 0
        else:
            tags += ("copy", f"t{step}")
            inner.append((node + 1, 0, node, 0))
            leg_in, leg_out = 2, 1
        if node:
            inner.append((*end, node, leg_in))
        else:
            entry = (node, leg_in)
        end = (node, leg_out)
    return tuple(tags), tuple(inner), ((*entry, *end),)


# Each gate as one block of generator tensors: its nodes by generator tag;
# its internal bonds (node, leg, node, leg) between node positions, declared
# before the block meets its wires; and for each wire the (node, leg) where
# the wire enters and the (node, leg) where it leaves.
GATE_BLOCKS = {gate: _word_block(word) for gate, word in SINGLE_WIRE_STEPS.items()}
# NOT: the constant |1> on xor leg 2; the wire enters xor leg 1, leaves leg 0.
GATE_BLOCKS["NOT"] = (("xor", "one"), ((1, 0, 0, 2),), ((0, 1, 0, 0),))
# CN: copy leg 2 feeds xor leg 2; the control enters copy leg 0 and leaves
# leg 1, the target enters xor leg 1 and leaves leg 0.
GATE_BLOCKS["CN"] = (("copy", "xor"), ((0, 2, 1, 2),), ((0, 0, 0, 1), (1, 1, 1, 0)))

GATE_ARITY = {gate: len(wires) for gate, (_, _, wires) in GATE_BLOCKS.items()}

# A LegBinding from a tuple of its four fields, without NamedTuple's
# per-call argument handling.
_new_bond = partial(tuple.__new__, LegBinding)


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
        for w in self.wires:
            if type(w) is not int:  # an integer of another type, or a fault
                ints = tuple([as_int(v, f"{self.gate} wire") for v in self.wires])
                object.__setattr__(self, "wires", ints)
                break
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"{self.gate} wires must be distinct, got {self.wires}")


@dataclass(frozen=True)
class Circuit:
    width: int
    ops: tuple[GateApp, ...] = ()
    input: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "width", as_int(self.width, "circuit width"))
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
    Numbers are ASCII decimal digits only: no sign, underscore or other
    script's digits, all of which `int` would take.
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
                if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
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
            if not all(w.isascii() and w.isdigit() for w in fields[1:]):
                raise CircuitParseError(f"bad wire list in {line!r}")
            ops.append(GateApp(head, tuple(map(int, fields[1:]))))
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from None
    if width is None:
        raise CircuitParseError("missing `wires N` header")
    try:
        return Circuit(width, tuple(ops), input_bits)
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


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


def compile_circuit(circuit: Circuit) -> TensorNetwork:
    """Compile a circuit to a network over the generator tensors only.

    With an input string the open legs are the output wires 0..width-1.
    Without one the result is the circuit operator with open legs
    (out_0..out_{n-1}, in_0..in_{n-1}).
    """
    # Each accessor is read once per call, and still at call time.
    tensors = {
        "copy": gen.copy_tensor(), "xor": gen.xor_tensor(), "H": gen.hadamard(),
        "t1": gen.t_vector(1), "t2": gen.t_vector(2), "t3": gen.t_vector(3),
        "one": gen.ket_one(),
    }
    if circuit.input is None:
        # Anchor each open input on an identity node so inputs stay legs.
        tensors["id"] = gen.identity_map()
        starts = ["id"] * circuit.width
        in_legs = [(f"{k}:id", 1) for k in range(circuit.width)]
    else:
        tensors["in0"], tensors["in1"] = gen.ket_zero(), tensors["one"]
        starts = ["in" + bit for bit in circuit.input]
        in_legs = []
    # Node k is named f"{k}:{tag}".
    nodes: dict[str, Tensor] = {}
    bonds: list[LegBinding] = []
    # the dangling output end of each wire
    cur: list[tuple[str, int]] = []
    for k, tag in enumerate(starts):
        name = f"{k}:{tag}"
        nodes[name] = tensors[tag]
        cur.append((name, 0))

    # Each gate declares its internal bonds, then bonds the end of each wire
    # it acts on to that wire's entry leg; the wire's exit leg becomes its end.
    k = circuit.width
    for op in circuit.ops:
        tags, inner, ends = GATE_BLOCKS[op.gate]
        names = []
        for tag in tags:
            names.append(name := f"{k}:{tag}")
            nodes[name] = tensors[tag]
            k += 1
        for i, a, j, b in inner:
            bonds.append(_new_bond((names[i], a, names[j], b)))
        wires = op.wires
        for n, (i, a, j, b) in enumerate(ends):
            w = wires[n]
            bonds.append(_new_bond((*cur[w], names[i], a)))
            cur[w] = (names[j], b)

    return TensorNetwork(nodes, bonds, cur + in_legs)


def _store_gate_products() -> None:
    """Contract each one-gate network once, as an operator and as a state
    on every input bit pattern, storing every merge (see
    `tensor.store_product`).

    Every node is a shared constant, the identity anchors and input kets
    included, and every gate declares its internal bonds first: these are
    the merges inside each gate block of any compiled circuit, and those
    that join an operator's anchor or a state's input ket to the first
    gate on its wire.
    """
    for gate, arity in GATE_ARITY.items():
        ops = (GateApp(gate, tuple(range(arity))),)
        for bits in (None, *map("".join, itertools.product("01", repeat=arity))):
            net = compile_circuit(Circuit(arity, ops, bits))
            stored_merges(list(net.nodes.values()), net.plan(), store_product)


_store_gate_products()


def circuit_state(circuit: Circuit) -> Tensor:
    """Contract the compiled network to the output state (rank = width).

    A result above the rank budget is refused (RankBudgetError) before the
    network, or its all-zero input, is built; so is a network whose
    contraction plan exceeds the budget, before any merge.
    """
    check_rank(circuit.width, f"a {circuit.width}-wire state")
    if circuit.input is None:
        circuit = Circuit(circuit.width, circuit.ops, "0" * circuit.width)
    return compile_circuit(circuit).contract()


def circuit_unitary(circuit: Circuit) -> Tensor:
    """Contract the compiled network to the circuit operator (rank = 2*width).

    Refused as `circuit_state` is, the result having two legs per wire.
    """
    check_rank(2 * circuit.width, f"a {circuit.width}-wire operator")
    stripped = Circuit(circuit.width, circuit.ops, None)
    return compile_circuit(stripped).contract()
