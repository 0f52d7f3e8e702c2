"""Machine checks for the algebraic identities between the generators.

Every check builds both sides as tensor networks over the generators,
contracts them, and compares them entrywise in one `compare`, recording
whether the identity holds exactly, holds up to one scalar, or fails.
Unnormalised conventions make global scalars conventional, so reports
keep the fitted scalar explicitly instead of hiding it.

The seven relation families between copy and XOR are data: each is one
entry of `RELATIONS`, a pair of diagrams over the generators, and
`verify_relation` contracts both and compares them.

Two laws side by side are one law between tensor-product diagrams, so a
family of two (the XOR and the copy law, or copy on |0> and on |1>) is
one compare: each side is one network whose halves are disconnected
components, contracted as an outer product.  Neither half is zero, so a
fault in either shows in the product, and as the generators' entries are
0 or 1, a fault in one half is reported with that half's deviation.

The generators are read through `generators` at call time, so a test
that patches one (say `generators.xor_tensor`) reaches these networks and
the circuits `compile_circuit` builds for the Clifford checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from stabtensor import generators as gen
from stabtensor.circuits import (
    Circuit,
    GateApp,
    circuit_unitary,
    cn_component_polynomial,
    cn_index_contraction,
)
from stabtensor.oracles import GATE_MATRICES
from stabtensor.tensor import (
    DEFAULT_TOL,
    Tensor,
    TensorNetwork,
    contract_pair,
    equal_up_to_scalar,
    max_abs_diff,
    max_scaled_diff,
    tensor_from_fn,
)

class RelationStatus(enum.Enum):
    EXACT_HOLD = "ExactHold"
    HOLDS_UP_TO_SCALAR = "HoldsUpToScalar"
    FAILS = "Fails"


@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    status: RelationStatus
    scalar: complex | None
    max_deviation: float
    expected_mismatch: bool = False

    @property
    def holds(self) -> bool:
        return self.status is not RelationStatus.FAILS

    def record(self) -> str:
        """One stable line per relation, diffable across runs."""
        if self.scalar is None:
            lam = "-"
        else:
            lam = f"{self.scalar.real!r}{self.scalar.imag:+}j"
        flag = " expected=mismatch" if self.expected_mismatch else ""
        return (
            f"check={self.relation_id} status={self.status.value} "
            f"lambda={lam} deviation={self.max_deviation!r}{flag}"
        )


def compare(
    relation_id: str,
    lhs: Tensor,
    rhs: Tensor,
    tol: float = DEFAULT_TOL,
    expected_mismatch: bool = False,
) -> RelationReport:
    raw = max_abs_diff(lhs, rhs)
    if raw <= tol:
        return RelationReport(
            relation_id, RelationStatus.EXACT_HOLD, 1 + 0j, raw, expected_mismatch,
        )
    lam = equal_up_to_scalar(lhs, rhs, tol)
    # A fit through lambda ~ 0 only says the left side vanishes; treat as failure.
    if lam is not None and abs(lam) > tol:
        dev = max_scaled_diff(lhs, lam, rhs)
        return RelationReport(
            relation_id, RelationStatus.HOLDS_UP_TO_SCALAR, lam, dev, expected_mismatch,
        )
    return RelationReport(relation_id, RelationStatus.FAILS, None, raw, expected_mismatch)


def _net(nodes, bonds, open_legs) -> Tensor:
    return TensorNetwork(nodes, bonds, open_legs).contract()


# Each relation family as its two sides, each side one diagram over the
# generators, held as `circuits.GATE_BLOCKS` holds a gate: its nodes by
# generator tag, its bonds (node, leg, node, leg) between node positions,
# and its open legs (node, leg) in order.  In a family of two laws, the
# first law's nodes and open legs come first.
RELATIONS = {
    # xor.(xor x id) = xor.(id x xor);  (copy x id).copy = (id x copy).copy
    "associativity": (
        (("xor", "xor", "copy", "copy"), ((0, 1, 1, 0), (3, 0, 2, 1)),
         ((0, 0), (1, 1), (1, 2), (0, 2), (3, 1), (3, 2), (2, 2), (2, 0))),
        (("xor", "xor", "copy", "copy"), ((0, 2, 1, 0), (3, 0, 2, 2)),
         ((0, 0), (0, 1), (1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (2, 0))),
    ),
    # xor with |0> on one input = id;  (<+| x id).copy = id
    "unit-laws": (
        (("xor", "ket0", "copy", "plus"), ((0, 1, 1, 0), (3, 0, 2, 1)),
         ((0, 0), (0, 2), (2, 2), (2, 0))),
        (("id", "id"), (), ((0, 0), (0, 1), (1, 0), (1, 1))),
    ),
    # xor.swap = xor;  swap.copy = copy
    "symmetry": (
        (("xor", "copy"), (), ((0, 0), (0, 2), (0, 1), (1, 0), (1, 2), (1, 1))),
        (("xor", "copy"), (), ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))),
    ),
    # copy.xor = (xor x xor).(id x swap x id).(copy x copy)
    "bialgebra": (
        (("xor", "copy"), ((1, 0, 0, 0),), ((1, 1), (1, 2), (0, 1), (0, 2))),
        (("copy", "copy", "xor", "xor"),
         ((2, 1, 0, 1), (2, 2, 1, 1), (3, 1, 0, 2), (3, 2, 1, 2)),
         ((2, 0), (3, 0), (0, 0), (1, 0))),
    ),
    # copy |0> = |00>;  copy |1> = |11>
    "copy-laws": (
        (("copy", "ket0", "copy", "ket1"), ((0, 0, 1, 0), (2, 0, 3, 0)),
         ((0, 1), (0, 2), (2, 1), (2, 2))),
        (("ket0", "ket0", "ket1", "ket1"), (), ((0, 0), (1, 0), (2, 0), (3, 0))),
    ),
    # <+|0> = 1: the empty diagram is the scalar 1
    "unit-scalar": ((("plus", "ket0"), ((0, 0, 1, 0),), ()), ((), (), ())),
    # xor.copy = |0><+|
    "hopf": (
        (("copy", "xor"), ((0, 1, 1, 1), (0, 2, 1, 2)), ((1, 0), (0, 0))),
        (("ket0", "plus"), (), ((0, 0), (1, 0))),
    ),
}

RELATION_FAMILIES = tuple(RELATIONS)


def verify_relation(
    relation_id: str,
    tol: float = DEFAULT_TOL,
    copy: Tensor | None = None,
) -> RelationReport:
    """Check one of the seven relation families between copy and XOR:
    contract both sides of its entry in `RELATIONS` and compare them.

    `copy` defaults to the copy generator; the self-test injects a
    corrupted one to confirm the suite detects violations.
    """
    try:
        sides = RELATIONS[relation_id]
    except (KeyError, TypeError):
        raise ValueError(f"unknown relation {relation_id!r}") from None
    # Each accessor is read once per call, and still at call time.
    tensors = {
        "copy": copy if copy is not None else gen.copy_tensor(), "xor": gen.xor_tensor(),
        "ket0": gen.ket_zero(), "ket1": gen.ket_one(), "plus": gen.plus_covector(),
        "id": gen.identity_map(),
    }
    lhs, rhs = (
        _net({k: tensors[tag] for k, tag in enumerate(tags)}, bonds, open_legs)
        for tags, bonds, open_legs in sides
    )
    return compare(relation_id, lhs, rhs, tol)


def verify_xor_in_hadamard_basis(tol: float = DEFAULT_TOL) -> RelationReport:
    """XOR against the copy tensor conjugated by Hadamard on all three legs."""
    h = gen.hadamard()
    lhs = _net({"x": gen.xor_tensor()}, [], [("x", 0), ("x", 1), ("x", 2)])
    rhs = _net(
        {"d": gen.copy_tensor(), "h0": h, "h1": h, "h2": h},
        [(("d", 0), ("h0", 0)), (("d", 1), ("h1", 0)), (("d", 2), ("h2", 0))],
        [("h0", 1), ("h1", 1), ("h2", 1)],
    )
    return compare("xor-hadamard-conjugation", lhs, rhs, tol)


def verify_xor_copies_plus_minus(tol: float = DEFAULT_TOL) -> RelationReport:
    """XOR as a 1-in/2-out map copies |+> and |-> with one shared scalar.

    Leg k of both sides picks the basis vector H|k>, so the one scalar that
    `compare` fits over the whole tensor serves |+> and |-> alike.
    """
    h = gen.hadamard()
    lhs = _net(
        {"x": gen.xor_tensor(), "h": h},
        [(("x", 0), ("h", 0))],
        [("x", 1), ("x", 2), ("h", 1)],
    )
    rhs = _net(
        {"d": gen.copy_tensor(), "h1": h, "h2": h},
        [(("h1", 1), ("d", 1)), (("h2", 1), ("d", 2))],
        [("h1", 0), ("h2", 0), ("d", 0)],
    )
    return compare("xor-copies-plus-minus", lhs, rhs, tol)


def compiled_cn() -> Tensor:
    """The operator `compile_circuit` builds for one CN on wires (0, 1), legs
    (out-c, out-t, in-c, in-t): the textbook matrix's [out, in]."""
    return circuit_unitary(Circuit(2, (GateApp("CN", (0, 1)),)))


def verify_clifford_recovery(tol: float = DEFAULT_TOL) -> list[RelationReport]:
    """Check the networks `compile_circuit` builds for S, Z, X, Y, NOT and
    CN against the oracles' textbook matrices, and the compiled CN for
    unitarity."""
    reports = [
        compare(f"clifford-{gate}",
                circuit_unitary(Circuit(1, (GateApp(gate, (0,)),))),
                Tensor(2, GATE_MATRICES[gate]), tol)
        for gate in ("S", "Z", "X", "Y", "NOT")
    ]

    cn_op = compiled_cn()
    reports.append(compare("clifford-CN", cn_op, Tensor(4, GATE_MATRICES["CN"]), tol))
    cn_dag = Tensor(4, cn_op.array.transpose(2, 3, 0, 1).conj())
    prod = contract_pair(cn_op, (2, 3), cn_dag, (0, 1))
    ident4 = Tensor(4, np.eye(4))
    reports.append(compare("clifford-CN-unitary", prod, ident4, tol))

    h = gen.hadamard()
    reports.append(
        compare("clifford-H-involution", contract_pair(h, (1,), h, (0,)),
                gen.identity_map(), tol)
    )
    return reports


def verify_cn_transcription(tol: float = DEFAULT_TOL) -> list[RelationReport]:
    """Check the raised-index contraction against its component polynomial,
    then report how it relates to the wired controlled-NOT that
    `compile_circuit` builds (`compiled_cn()`).  They differ; the mismatch
    is expected and recorded, never silently resolved."""
    contracted = cn_index_contraction()
    polynomial = tensor_from_fn(4, cn_component_polynomial)
    return [
        compare("cn-index-contraction", contracted, polynomial, tol),
        compare("cn-contraction-vs-wired", contracted, compiled_cn(), tol,
                expected_mismatch=True),
    ]
