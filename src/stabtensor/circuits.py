"""Gate-list circuits and their compilation to tensor networks.

Every gate is built as a block of generator tensors: its nodes, its
internal bonds, and where each of its wires enters and leaves it.  CN is
the block `CN_BLOCK`; a run of single-wire gates is one word block
(`WORD_BLOCKS`) and a phase.  Built from generators only:

    H    native Hadamard tensor
    S    copy tensor with (1, i) contracted into one leg (diagonal lift)
    Z    diagonal lift of (1, -1)
    NOT  XOR tensor with the constant |1> on one input
    X    NOT (the same matrix)
    Y    X Z, with the phase i
    CN   copy tensor on the control wire feeding the XOR tensor on the target

The single-wire gates generate a group of 192 matrices, 24 classes up to a
global phase omega**g (omega = e**(i pi/4)).  At import a shortest-path
search over the steps H, diag(1, i**k) and NOT gives each element its
shortest word (`WORDS`, costs in nodes) and the integer table of which
element each gate leads to from each element.  An element's class is the
cheapest of its 8 multiples by omega**g (`CLASS`), and its phase the g
that takes the class's element to it (`PHASE`).  The class words of H, S,
Z, NOT, X and Y are the six above (`SINGLE_WIRE_STEPS`).
`compile_circuit` keeps one element per wire, one lookup per single-wire
gate; a CN ends the runs on its wires.  Each run becomes its class word's
block, or no node in the identity class, and its phase joins the
network's `scalar`, which multiplies the contracted result once: the
paper's relations (H H = I, phases compose pointwise through the copy
tensor, NOT NOT = I through the XOR tensor) make the word times that
phase equal to the gates it replaces.  A state's first run on a wire acts
on the input ket, and makes one of the six single-qubit stabilizer states
up to a phase; it is compiled as the cheapest (element, ket) pair that
makes the same state (`_START`), whose words are only (), H and (H, 1).

Each block declares its internal bonds before the bonds that attach it to
its wires, so the merges inside a block involve that block's generator
tensors alone and are the same in every circuit.  At import this module
fills `tensor`'s table of stored products (`tensor.store_product`) with
every merge of each one-block operator, CN's and each of the 23 class
words' (the merges inside each block, and those that join it to the
identity anchors), and every merge of one CN on each pair of the six
start states (each start word's merges with its ket, and CN's with the
two states): 94 products.  `contract_pair` returns a stored product
without running the kernel, while every merge still goes through it; the
table does not grow after import.

Every diagram, a compiled circuit's and each relation's
(`relations.RELATIONS`), resolves its node tags through one table,
`generator_tensors`, which reads each `generators` accessor once per
call, at call time.  So patching one (say `generators.xor_tensor`)
reaches every compiled circuit and every relation diagram: the patched
tensor is a different object, matches no stored product, and is
contracted.

`GateApp` and `Circuit` are frozen, slotted dataclasses whose sequences
are tuples.  `parse_circuit` builds one `GateApp` per distinct op line of
its text, and equal op lines share that one immutable object, so a held
circuit costs a pointer for each repeated line.  Nothing is shared
between two parses.

Two controlled-NOT constructions coexist on purpose: the wired copy/XOR
pair `compile_circuit` builds for each CN, and the raised-index single
contraction (`cn_index_contraction`).  They are not the same tensor; the
verification suite reports the comparison instead of assuming either.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product

from stabtensor import generators as gen
from stabtensor.tensor import (
    Tensor, TensorNetwork, as_int, as_tuple, check_rank, contract_pair,
    store_product, stored_merges,
)

# Single-wire gates as the steps they take along their wire: "H" is a
# Hadamard node, k a copy node with the phase vector t{k} on leg 0, which
# is the diagonal lift diag(1, i**k), and "N" (NOT) an xor node with the
# constant |1> on leg 2.  Each step's nodes: its generator's tag, the
# constant bonded into one of its legs (its tag and that leg, or None),
# and the legs the wire enters and leaves it by.
_STEP_NODES = {
    "H": ("H", None, None, 1, 0),
    **{k: ("copy", f"t{k}", 0, 2, 1) for k in (1, 2, 3)},
    "N": ("xor", "ket1", 2, 1, 0),
}
# A step costs its nodes.
STEP_COST = {step: 2 if constant else 1 for step, (_, constant, *_) in _STEP_NODES.items()}

# A single-wire element (a 2x2 matrix) held exactly as (a, b, c, d, h): its
# entries a, b, c, d (row-major) are Gaussian integers over sqrt(2)**h, h
# as small as it can be, so equal matrices are equal keys.  Each
# single-wire gate's matrix, the textbook one of `oracles.GATE_MATRICES`:
_GATE_MATRICES = {
    "H": (1, 1, 1, -1, 1), "S": (1, 0, 0, 1j, 0), "X": (0, 1, 1, 0, 0),
    "Y": (0, -1j, 1j, 0, 0), "Z": (1, 0, 0, -1, 0), "NOT": (0, 1, 1, 0, 0),
}


def _then(matrix: tuple, step) -> tuple:
    """The element `matrix` followed by `step`: the step's matrix times it."""
    a, b, c, d, h = matrix
    if step == "N":
        return c, d, a, b, h
    if step != "H":
        phase = gen.I_POWERS[step]
        return a, b, c * phase, d * phase, h
    a, b, c, d = a + c, b + d, a - c, b - d
    # Every entry even can only follow an earlier H (H H is 2I over 2), and
    # one halving then leaves h least.
    if h and not (a.real % 2 or a.imag % 2 or b.real % 2 or b.imag % 2
                  or c.real % 2 or c.imag % 2 or d.real % 2 or d.imag % 2):
        return a / 2, b / 2, c / 2, d / 2, h - 1
    return a, b, c, d, h + 1


def _search_words() -> tuple:
    """Every element the steps generate, each with its shortest word.

    A shortest-path search from the identity, costs in nodes (`STEP_COST`),
    one bucket per cost, each taken first in, first out, steps in
    `STEP_COST` order.  An element keeps the first of its cheapest reaches:
    its parent's word plus one step, so the words are prefix-closed.
    Returns, in the order the search settles them (the identity first,
    every parent before its children), each element's matrix, word and
    parent; and for each step, the element it leads to from each element.
    """
    settled: dict[tuple, int] = {}
    matrices, words, parents, leads = [], [], [], []
    # Each bucket holds (matrix, parent, step) for each reach at its cost.
    buckets: list[list] = [[((1, 0, 0, 1, 0), -1, None)]]
    for cost, bucket in enumerate(buckets):  # buckets grows as it is walked
        for matrix, parent, step in bucket:
            if matrix in settled:
                continue
            element = settled[matrix] = len(matrices)
            matrices.append(matrix)
            parents.append(parent)
            words.append(() if parent < 0 else (*words[parent], step))
            leads.append(row := [_then(matrix, step) for step in STEP_COST])
            for (step, step_cost), after in zip(STEP_COST.items(), row):
                if after not in settled:
                    while len(buckets) <= cost + step_cost:
                        buckets.append([])
                    buckets[cost + step_cost].append((after, element, step))
    steps = {step: tuple([settled[row[k]] for row in leads]) for k, step in enumerate(STEP_COST)}
    return tuple(matrices), tuple(words), tuple(parents), steps


# Element e is ELEMENTS[e], its shortest word WORDS[e] (the identity, 0,
# has the empty word) and its parent the element of WORDS[e][:-1];
# _STEPS[step][e] is the element of WORDS[e] followed by `step`.
ELEMENTS, WORDS, _PARENTS, _STEPS = _search_words()
_GATE_ELEMENTS = {gate: ELEMENTS.index(m) for gate, m in _GATE_MATRICES.items()}


def _followed_by(e: int, f: int) -> int:
    """The element of element e's word followed by element f's word."""
    for step in WORDS[f]:
        e = _STEPS[step][e]
    return e


# The 8 scalar elements, omega**g times the identity: by g, each element
# and omega**g.
_SCALARS = {
    round(cmath.phase(a) * 4 / cmath.pi) % 8: (e, complex(a) * gen.SQRT_HALF ** h)
    for e, (a, b, c, d, h) in enumerate(ELEMENTS) if b == c == 0 and a == d
}


def _classes() -> tuple:
    """Each element's class up to a global phase, and its phase in it.

    A class is an element's 8 multiples by the scalar elements.  CLASS[e]
    is the first of e's class the search settled, so the cheapest, and
    PHASE[e] the g for which element e is omega**g times CLASS[e].
    """
    found: dict[int, tuple] = {}
    for e in range(len(ELEMENTS)):
        if e not in found:
            found.update({_followed_by(e, z): (e, g) for g, (z, _) in _SCALARS.items()})
    return tuple(zip(*[found[e] for e in range(len(ELEMENTS))]))


CLASS, PHASE = _classes()
SINGLE_WIRE_STEPS = {gate: WORDS[CLASS[e]] for gate, e in _GATE_ELEMENTS.items()}


def _column(e: int, bit: str) -> tuple:
    """The state element e makes of the input ket |bit>, exactly: its
    column's two entries over sqrt(2)**h.

    The element's h is already least for each column: a column of all
    even entries with h > 1 would make the other column even too, the
    columns being orthogonal with equal norms 2**h, and the element would
    have been halved (`_then`).
    """
    a, b, c, d, h = ELEMENTS[e]
    return (b, d, h) if bit == "1" else (a, c, h)


def _starts() -> dict:
    """For each input bit and element e, the cheapest (element, bit) that
    makes the same state as e on |bit>, phase included.

    Candidates are taken class by class in the order the search settled the
    class words, so cheapest word first, and ket |0> before |1> within a
    class; a state keeps its first.  Up to their phase these states are the
    six single-qubit stabilizer states, whose words are (), H and (H, 1).
    """
    first: dict[tuple, tuple] = {}
    for _, bit, e in sorted((CLASS[e], bit, e) for e in range(len(ELEMENTS)) for bit in "01"):
        first.setdefault(_column(e, bit), (e, bit))
    return {bit: tuple([first[_column(e, bit)] for e in range(len(ELEMENTS))]) for bit in "01"}


# A wire's first run, element e on its input ket |bit>, starts from
# _START[bit][e]: (element, bit) with the same state and the cheapest word.
_START = _starts()


# The run products: _RUN_AFTER[gate][e] is element e followed by the gate.
_RUN_AFTER = {
    gate: tuple([_followed_by(e, f) for e in range(len(WORDS))])
    for gate, f in _GATE_ELEMENTS.items()
}


def generator_tensors() -> dict:
    """Each node tag's generator, each accessor read once, at call time:
    the one table every diagram resolves its tags through, the compiled
    gates and starts here and the relation diagrams (`relations`)."""
    return {
        "copy": gen.copy_tensor(), "xor": gen.xor_tensor(), "H": gen.hadamard(),
        "t1": gen.t_vector(1), "t2": gen.t_vector(2), "t3": gen.t_vector(3),
        "ket0": gen.ket_zero(), "ket1": gen.ket_one(), "plus": gen.plus_covector(),
        "id": gen.identity_map(),
    }


def _walk_words() -> tuple:
    """Each element's block: its class word's, built over the class words'
    tree, parents first.

    The class words are prefix-closed, so each but the identity's empty
    word is its parent class word followed by one step, whose nodes and
    legs are its row of `_STEP_NODES`.  The step declares its constant's
    bond, then the chain bond from the parent's exit.  Returns the blocks
    (in `CN_BLOCK`'s form) indexed by element, None for the 8 scalar
    elements.
    """
    blocks = {0: None}
    for e in sorted(set(CLASS))[1:]:
        tag, constant, at, enter, leave = _STEP_NODES[WORDS[e][-1]]
        tags, inner, ends = blocks[_PARENTS[e]] or ((), (), None)
        node = len(tags)
        tags += (tag,)
        if constant:
            tags += (constant,)
            inner += ((node + 1, 0, node, at),)
        # The block's entry: its parent's, else this step's.
        ((i, a, j, b),) = ends or ((node, enter, None, None),)
        if ends:
            inner += ((j, b, node, enter),)
        blocks[e] = (tags, inner, ((i, a, node, leave),))
    return tuple([blocks[c] for c in CLASS])


# Each gate as one block of generator tensors: its nodes by generator tag;
# its internal bonds (node, leg, node, leg) between node positions, declared
# before the block meets its wires; and for each wire the (node, leg) where
# the wire enters and the (node, leg) where it leaves.  WORD_BLOCKS[e] is
# element e's class word's block (None in the identity class), and the
# single-wire gates' runs are written with them; CN is the one other block.
WORD_BLOCKS = _walk_words()
# CN: copy leg 2 feeds xor leg 2; the control enters copy leg 0 and leaves
# leg 1, the target enters xor leg 1 and leaves leg 0.
CN_BLOCK = (("copy", "xor"), ((0, 2, 1, 2),), ((0, 0, 0, 1), (1, 1, 1, 0)))

GATE_ARITY = dict.fromkeys(_GATE_ELEMENTS, 1) | {"CN": 2}


class CircuitParseError(ValueError):
    """Raised on malformed circuit or truth-table text."""


@dataclass(frozen=True, slots=True)
class GateApp:
    """One gate on its wires.  Immutable and slotted: a parsed circuit holds
    one `GateApp` per distinct op line, shared by every line equal to it."""

    gate: str
    wires: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.gate, str) and self.gate in GATE_ARITY):
            raise ValueError(f"unknown gate {self.gate!r}")
        if type(self.wires) is not tuple:
            object.__setattr__(self, "wires", as_tuple(self.wires, f"{self.gate} wires"))
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


@dataclass(frozen=True, slots=True)
class Circuit:
    width: int
    ops: tuple[GateApp, ...] = ()
    input: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "width", as_int(self.width, "circuit width"))
        if self.width < 1:
            raise ValueError("circuit needs at least one wire")
        if type(self.ops) is not tuple:
            object.__setattr__(self, "ops", as_tuple(self.ops, "circuit ops"))
        for op in self.ops:
            if not isinstance(op, GateApp):
                raise ValueError(f"op {op!r} is not a GateApp")
            _check_wires(op.wires, self.width)
        if self.input is not None:
            _check_input(self.input, self.width)


def _check_wires(wires: tuple[int, ...], width: int) -> None:
    for w in wires:
        if not 0 <= w < width:
            raise ValueError(f"wire {w} outside 0..{width - 1}")


def _check_input(bits, width: int) -> None:
    if not isinstance(bits, str) or len(bits) != width or set(bits) - {"0", "1"}:
        raise ValueError(f"input {bits!r} is not a {width}-bit string")


# Each gate name to GATE_ARITY's own string of it, the one string every
# parsed op of that gate holds.
_GATE_NAMES = {gate: gate for gate in GATE_ARITY}


def parse_circuit(text: str) -> Circuit:
    """Parse the one-op-per-line circuit format.

    Header `wires N` first, optional `input <bits>`, then one gate per
    line (`H 0`, `CN 0 1`, ...).  Lines starting with `#` are comments.
    Numbers are ASCII decimal digits only: no sign, underscore or other
    script's digits, all of which `int` would take.

    Each fault is reported with its line, a wire past the header's width
    and an input of the wrong length included.

    Equal op lines (equal once stripped) share one immutable `GateApp`:
    each distinct line is checked and built once per call, and every
    later copy of it is the same object.  Ops on the same wires share one
    wires tuple, and each op's gate is `GATE_ARITY`'s own name string.
    """
    width: int | None = None
    input_bits: str | None = None
    ops: list[GateApp] = []
    # Each op line that passed every check, stripped, to its GateApp; and
    # each wire tuple to the one those GateApps share.
    built: dict[str, GateApp] = {}
    shared_wires: dict[tuple, tuple] = {}
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
                _check_input(input_bits, width)
                continue
            op = built.get(line)
            if op is None:
                gate = _GATE_NAMES.get(head)
                if gate is None:
                    raise CircuitParseError(f"unknown gate {head!r}")
                if not all(w.isascii() and w.isdigit() for w in fields[1:]):
                    raise CircuitParseError(f"bad wire list in {line!r}")
                wires = tuple(map(int, fields[1:]))
                op = GateApp(gate, shared_wires.setdefault(wires, wires))
                _check_wires(wires, width)
                built[line] = op
            ops.append(op)
        except ValueError as exc:
            raise CircuitParseError(f"line {lineno}: {exc}") from None
    if width is None:
        raise CircuitParseError("missing `wires N` header")
    return Circuit(width, tuple(ops), input_bits)


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
    """Compile a circuit to a network over the generator tensors only: one
    block per CN, and one word block per run of single-wire gates.

    With an input string the open legs are the output wires 0..width-1.
    Without one the result is the circuit operator with open legs
    (out_0..out_{n-1}, in_0..in_{n-1}).
    """
    # Each wire's run of single-wire gates is one element, a lookup per
    # gate.  A CN ends the run on each of its wires, and so does the end of
    # the circuit.  A state's first run on a wire (fresh: no CN has touched
    # the wire) acts on its input ket, and is swapped with the ket for the
    # cheapest pair that makes the same state (`_START`).  The run becomes
    # its class's word block, or no block in the identity class, and its
    # phase in the class joins the network's.
    blocks, phase = [], 0
    run = [0] * circuit.width
    bits = None if circuit.input is None else list(circuit.input)
    fresh = [bits is not None] * circuit.width
    for op in (*circuit.ops, None):  # None: the end, which ends every run
        if op is not None and (after := _RUN_AFTER.get(op.gate)) is not None:
            w = op.wires[0]
            run[w] = after[run[w]]
            continue
        for w in range(circuit.width) if op is None else op.wires:
            e, run[w] = run[w], 0
            if fresh[w]:
                fresh[w] = False
                e, bits[w] = _START[bits[w]][e]
            phase += PHASE[e]
            if WORD_BLOCKS[e]:
                blocks.append((WORD_BLOCKS[e], (w,)))
        if op is not None:
            blocks.append((CN_BLOCK, op.wires))
    return _network(circuit.width, bits, blocks, _SCALARS[phase % 8][1])


def _network(width: int, bits: str | list[str] | None, blocks: list,
             scalar: complex) -> TensorNetwork:
    """The network of `blocks`, each a (block, wires) pair in circuit order,
    on `width` wires that start from the input kets of `bits` (a string or
    list of "0" and "1"), or from identity anchors when `bits` is None; its
    result is scaled by `scalar`."""
    tensors = generator_tensors()
    # Without input bits, each open input is anchored on an identity node
    # so that inputs stay legs.
    starts = ["id"] * width if bits is None else ["ket" + bit for bit in bits]
    in_legs = [(f"{k}:id", 1) for k in range(width)] if bits is None else []
    # Node k is named f"{k}:{tag}"; cur holds the dangling output end of
    # each wire.
    nodes = {f"{k}:{tag}": tensors[tag] for k, tag in enumerate(starts)}
    cur = [(name, 0) for name in nodes]
    bonds: list[tuple] = []

    # Each block declares its internal bonds, then bonds the end of each
    # wire it acts on to that wire's entry leg; the wire's exit leg becomes
    # its end.
    k = width
    for (tags, inner, ends), wires in blocks:
        names = []
        for tag in tags:
            names.append(name := f"{k}:{tag}")
            nodes[name] = tensors[tag]
            k += 1
        for i, a, j, b in inner:
            bonds.append((names[i], a, names[j], b))
        for n, (i, a, j, b) in enumerate(ends):
            w = wires[n]
            bonds.append((*cur[w], names[i], a))
            cur[w] = (names[j], b)

    return TensorNetwork(nodes, bonds, cur + in_legs, scalar)


def _store_products() -> None:
    """Store every merge of each one-block operator, CN's and each class
    word's: the merges inside the block, and those that join it to the
    identity anchors.  Then every merge of one CN on each pair of start
    states (`_START`, a start word on its ket, or a bare ket): each start
    word's merges with its ket, and CN's with the two states."""
    # These networks are only planned, never contracted: their scalar is 1.
    for block in (CN_BLOCK, *dict.fromkeys(filter(None, WORD_BLOCKS))):
        wires = tuple(range(len(block[2])))
        net = _network(len(wires), None, [(block, wires)], 1)
        stored_merges(list(net.nodes.values()), net.plan(), store_product)
    # Every state is some element's on |0>, so _START["0"] holds every start.
    starts = dict.fromkeys((WORD_BLOCKS[e], bit) for e, bit in _START["0"])
    for (control, bit_c), (target, bit_t) in product(starts, repeat=2):
        words = [(block, (w,)) for w, block in enumerate((control, target)) if block]
        net = _network(2, bit_c + bit_t, [*words, (CN_BLOCK, (0, 1))], 1)
        stored_merges(list(net.nodes.values()), net.plan(), store_product)


_store_products()


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
