"""Machine checks for the algebraic identities between the generators.

Every check builds both sides as tensor networks over the generators,
contracts them, and compares entrywise, recording whether the identity
holds exactly, holds up to one scalar, or fails.  Unnormalised
conventions make global scalars conventional, so reports keep the fitted
scalar explicitly instead of hiding it.
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
    feynman_gate_network,
)
from stabtensor.tensor import (
    DEFAULT_TOL,
    Tensor,
    TensorNetwork,
    contract_pair,
    equal_up_to_scalar,
    max_abs_diff,
    max_scaled_diff,
    permute_legs,
    tensor_from_fn,
)

RELATION_FAMILIES = (
    "associativity",
    "unit-laws",
    "symmetry",
    "bialgebra",
    "copy-laws",
    "unit-scalar",
    "hopf",
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
    lhs: str
    rhs: str
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
    lhs_desc: str,
    rhs_desc: str,
    tol: float = DEFAULT_TOL,
    expected_mismatch: bool = False,
) -> RelationReport:
    raw = max_abs_diff(lhs, rhs)
    if raw <= tol:
        return RelationReport(
            relation_id, RelationStatus.EXACT_HOLD, 1 + 0j, raw, lhs_desc, rhs_desc,
            expected_mismatch,
        )
    lam = equal_up_to_scalar(lhs, rhs, tol)
    # A fit through lambda ~ 0 only says the left side vanishes; treat as failure.
    if lam is not None and abs(lam) > tol:
        dev = max_scaled_diff(lhs, lam, rhs)
        return RelationReport(
            relation_id, RelationStatus.HOLDS_UP_TO_SCALAR, lam, dev,
            lhs_desc, rhs_desc, expected_mismatch,
        )
    return RelationReport(
        relation_id, RelationStatus.FAILS, None, raw, lhs_desc, rhs_desc,
        expected_mismatch,
    )


def _worst(relation_id: str, parts: list[RelationReport]) -> RelationReport:
    order = {
        RelationStatus.EXACT_HOLD: 0,
        RelationStatus.HOLDS_UP_TO_SCALAR: 1,
        RelationStatus.FAILS: 2,
    }
    worst = max(parts, key=lambda r: order[r.status])
    return RelationReport(
        relation_id,
        worst.status,
        worst.scalar,
        max(r.max_deviation for r in parts),
        " & ".join(r.lhs for r in parts),
        " & ".join(r.rhs for r in parts),
    )


def _net(nodes, bonds, open_legs) -> Tensor:
    return TensorNetwork(nodes, bonds, open_legs).contract()


def verify_relation(
    relation_id: str,
    tol: float = DEFAULT_TOL,
    copy: Tensor | None = None,
    xor: Tensor | None = None,
) -> RelationReport:
    """Check one of the seven relation families between copy and XOR.

    `copy` and `xor` default to the generators; tests may inject corrupted
    tensors to confirm the suite actually detects violations.
    """
    d = copy if copy is not None else gen.copy_tensor()
    x = xor if xor is not None else gen.xor_tensor()
    k0 = gen.ket_zero()
    k1 = gen.ket_one()
    plus = gen.plus_covector()
    ident = gen.identity_map()

    if relation_id == "associativity":
        lhs_x = _net(
            {"x1": x, "x2": x},
            [(("x1", 1), ("x2", 0))],
            [("x1", 0), ("x2", 1), ("x2", 2), ("x1", 2)],
        )
        rhs_x = _net(
            {"x1": x, "x2": x},
            [(("x1", 2), ("x2", 0))],
            [("x1", 0), ("x1", 1), ("x2", 1), ("x2", 2)],
        )
        lhs_d = _net(
            {"d1": d, "d2": d},
            [(("d2", 0), ("d1", 1))],
            [("d2", 1), ("d2", 2), ("d1", 2), ("d1", 0)],
        )
        rhs_d = _net(
            {"d1": d, "d2": d},
            [(("d2", 0), ("d1", 2))],
            [("d1", 1), ("d2", 1), ("d2", 2), ("d1", 0)],
        )
        return _worst(relation_id, [
            compare(relation_id, lhs_x, rhs_x, "xor.(xor x id)", "xor.(id x xor)", tol),
            compare(relation_id, lhs_d, rhs_d, "(copy x id).copy", "(id x copy).copy", tol),
        ])

    if relation_id == "unit-laws":
        lhs_x = _net(
            {"x": x, "z": k0},
            [(("x", 1), ("z", 0))],
            [("x", 0), ("x", 2)],
        )
        lhs_d = _net(
            {"d": d, "p": plus},
            [(("p", 0), ("d", 1))],
            [("d", 2), ("d", 0)],
        )
        return _worst(relation_id, [
            compare(relation_id, lhs_x, ident, "xor with |0> on one input", "identity", tol),
            compare(relation_id, lhs_d, ident, "(<+| x id).copy", "identity", tol),
        ])

    if relation_id == "symmetry":
        lhs_x = _net({"x": x}, [], [("x", 0), ("x", 2), ("x", 1)])
        rhs_x = _net({"x": x}, [], [("x", 0), ("x", 1), ("x", 2)])
        lhs_d = _net({"d": d}, [], [("d", 0), ("d", 2), ("d", 1)])
        rhs_d = _net({"d": d}, [], [("d", 0), ("d", 1), ("d", 2)])
        return _worst(relation_id, [
            compare(relation_id, lhs_x, rhs_x, "xor.swap", "xor", tol),
            compare(relation_id, lhs_d, rhs_d, "swap.copy", "copy", tol),
        ])

    if relation_id == "bialgebra":
        lhs = _net(
            {"x": x, "d": d},
            [(("d", 0), ("x", 0))],
            [("d", 1), ("d", 2), ("x", 1), ("x", 2)],
        )
        rhs = _net(
            {"d1": d, "d2": d, "x1": x, "x2": x},
            [
                (("x1", 1), ("d1", 1)),
                (("x1", 2), ("d2", 1)),
                (("x2", 1), ("d1", 2)),
                (("x2", 2), ("d2", 2)),
            ],
            [("x1", 0), ("x2", 0), ("d1", 0), ("d2", 0)],
        )
        return compare(
            relation_id, lhs, rhs,
            "copy.xor", "(xor x xor).(id x swap x id).(copy x copy)", tol,
        )

    if relation_id == "copy-laws":
        lhs0 = _net({"d": d, "z": k0}, [(("d", 0), ("z", 0))], [("d", 1), ("d", 2)])
        rhs0 = _net({"a": k0, "b": k0}, [], [("a", 0), ("b", 0)])
        lhs1 = _net({"d": d, "o": k1}, [(("d", 0), ("o", 0))], [("d", 1), ("d", 2)])
        rhs1 = _net({"a": k1, "b": k1}, [], [("a", 0), ("b", 0)])
        return _worst(relation_id, [
            compare(relation_id, lhs0, rhs0, "copy |0>", "|00>", tol),
            compare(relation_id, lhs1, rhs1, "copy |1>", "|11>", tol),
        ])

    if relation_id == "unit-scalar":
        lhs = _net({"p": plus, "z": k0}, [(("p", 0), ("z", 0))], [])
        return compare(relation_id, lhs, Tensor(0, (1,)), "<+|0>", "1", tol)

    if relation_id == "hopf":
        lhs = _net(
            {"d": d, "x": x},
            [(("d", 1), ("x", 1)), (("d", 2), ("x", 2))],
            [("x", 0), ("d", 0)],
        )
        rhs = _net({"z": k0, "p": plus}, [], [("z", 0), ("p", 0)])
        return compare(relation_id, lhs, rhs, "xor.copy", "|0><+|", tol)

    raise ValueError(f"unknown relation {relation_id!r}")


def verify_xor_in_hadamard_basis(tol: float = DEFAULT_TOL) -> RelationReport:
    """XOR against the copy tensor conjugated by Hadamard on all three legs."""
    h = gen.hadamard()
    lhs = _net({"x": gen.xor_tensor()}, [], [("x", 0), ("x", 1), ("x", 2)])
    rhs = _net(
        {"d": gen.copy_tensor(), "h0": h, "h1": h, "h2": h},
        [(("d", 0), ("h0", 0)), (("d", 1), ("h1", 0)), (("d", 2), ("h2", 0))],
        [("h0", 1), ("h1", 1), ("h2", 1)],
    )
    return compare(
        "xor-hadamard-conjugation", lhs, rhs,
        "xor", "copy conjugated by H on all legs", tol,
    )


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
    return compare(
        "xor-copies-plus-minus", lhs, rhs,
        "xor applied to |+>, |->", "|++>, |-->", tol,
    )


def verify_clifford_recovery(tol: float = DEFAULT_TOL) -> list[RelationReport]:
    """Check the networks `compile_circuit` builds for S, Z, X, Y against
    their textbook matrices, and the compiled CN for unitarity."""
    textbook = (
        ("S", (1, 0, 0, 1j), "diagonal lift of (1,i)", "|0><0| + i|1><1|"),
        ("Z", (1, 0, 0, -1), "diagonal lift of (1,-1)", "pauli Z"),
        ("X", (0, 1, 1, 0), "H Z H", "pauli X"),
        ("Y", (0, -1j, 1j, 0), "S X S^3", "pauli Y"),
    )
    reports = [
        compare(f"clifford-{gate}",
                circuit_unitary(Circuit(1, (GateApp(gate, (0,)),))),
                Tensor(2, matrix), lhs_desc, rhs_desc, tol)
        for gate, matrix, lhs_desc, rhs_desc in textbook
    ]

    # legs (out-c, out-t, in-c, in-t)
    cn_op = circuit_unitary(Circuit(2, (GateApp("CN", (0, 1)),)))
    cn_dag = Tensor(4, cn_op.array.transpose(2, 3, 0, 1).conj())
    prod = contract_pair(cn_op, (2, 3), cn_dag, (0, 1))
    ident4 = Tensor(4, np.eye(4))
    reports.append(
        compare("clifford-CN-unitary", prod, ident4,
                "CN . CN^dagger", "identity on two wires", tol)
    )

    h = gen.hadamard()
    reports.append(
        compare("clifford-H-involution", contract_pair(h, (1,), h, (0,)),
                gen.identity_map(), "H H", "identity", tol)
    )
    return reports


def verify_cn_transcription(tol: float = DEFAULT_TOL) -> list[RelationReport]:
    """Check the raised-index contraction against its component polynomial,
    then report how it relates to the wired controlled-NOT (they differ;
    the mismatch is expected and recorded, never silently resolved)."""
    contracted = cn_index_contraction()
    polynomial = tensor_from_fn(4, cn_component_polynomial)
    reports = [
        compare("cn-index-contraction", contracted, polynomial,
                "sum over shared leg of raised copy and xor",
                "component polynomial", tol),
    ]
    wired = permute_legs(feynman_gate_network().contract(), (2, 3, 0, 1))
    reports.append(
        compare("cn-contraction-vs-wired", contracted, wired,
                "raised-index contraction", "wired controlled-NOT tensor",
                tol, expected_mismatch=True)
    )
    return reports
