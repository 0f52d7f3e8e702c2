"""The relation-checking suite: statuses, recorded scalars, determinism."""

import hashlib
import math
import re

import pytest

from stabtensor import boolfn, circuits, cli, relations
from stabtensor import generators as gen
from stabtensor.circuits import Circuit, GateApp, circuit_unitary
from stabtensor.generators import copy_tensor, identity_map, xor_tensor
from stabtensor.relations import RelationStatus
from stabtensor.oracles import GATE_MATRICES
from stabtensor.tensor import DEFAULT_TOL, Tensor, max_abs_diff


@pytest.mark.parametrize("rid", relations.RELATION_FAMILIES)
def test_relation_family_holds(rid):
    rep = relations.verify_relation(rid)
    assert rep.holds, rep.record()


@pytest.mark.parametrize("rid", ["associativity", "bialgebra", "copy-laws", "hopf", "unit-scalar"])
def test_exact_relations_have_zero_deviation(rid):
    rep = relations.verify_relation(rid)
    assert rep.status is RelationStatus.EXACT_HOLD
    assert rep.max_deviation == 0.0


def test_hopf_scalar_is_one():
    rep = relations.verify_relation("hopf")
    assert rep.scalar == 1


def test_unknown_relation_rejected():
    with pytest.raises(ValueError):
        relations.verify_relation("frobenius")


def test_corrupted_copy_tensor_detected():
    data = list(copy_tensor().data)
    data[0b010] = 1.0
    rep = relations.verify_relation("copy-laws", copy=Tensor(3, data))
    assert rep.status is RelationStatus.FAILS


def test_xor_in_hadamard_basis_scalar_is_sqrt2():
    rep = relations.verify_xor_in_hadamard_basis()
    assert rep.status is RelationStatus.HOLDS_UP_TO_SCALAR
    assert rep.scalar is not None
    assert abs(rep.scalar - math.sqrt(2)) <= 1e-12
    assert rep.max_deviation <= 1e-12


def test_xor_copies_plus_minus_shares_one_scalar():
    rep = relations.verify_xor_copies_plus_minus()
    assert rep.status is RelationStatus.HOLDS_UP_TO_SCALAR
    assert rep.scalar is not None
    assert abs(rep.scalar - math.sqrt(2)) <= 1e-12
    assert rep.max_deviation <= 1e-12


def test_clifford_recovery_all_exact():
    reports = relations.verify_clifford_recovery()
    ids = [r.relation_id for r in reports]
    assert ids == [
        "clifford-S",
        "clifford-Z",
        "clifford-X",
        "clifford-Y",
        "clifford-NOT",
        "clifford-CN",
        "clifford-CN-unitary",
        "clifford-H-involution",
    ]
    for rep in reports:
        assert rep.status is RelationStatus.EXACT_HOLD, rep.record()
        assert rep.max_deviation <= 1e-12


def _flipped(t, k):
    data = list(t.data)
    data[k] = 1 - data[k]
    return Tensor(t.rank, data)


def _patch_generator(monkeypatch, accessor, tensor, *args):
    """Make `gen.<accessor>(*args)` return `tensor`; other calls read the real one."""
    real = getattr(gen, accessor)
    monkeypatch.setattr(gen, accessor, lambda *a: tensor if a == args else real(*a))


# sha256 of the records of all seven families: as shipped, then under each
# single-entry flip of copy (through `copy=`), then under each single-entry
# flip of xor (through the accessor).  Every line is ExactHold or Fails with
# lambda 1.0+0.0j or -, so the digest does not depend on the BLAS in use.
FAMILY_RECORDS_SHA256 = "a74176f8026b83fbb2688474c421f5cec027cbfba611c80f657271992e897972"


def test_family_records_are_pinned(monkeypatch):
    def records(copy=None):
        return [relations.verify_relation(rid, copy=copy).record()
                for rid in relations.RELATION_FAMILIES]

    lines = records()
    for k in range(8):
        lines += records(copy=_flipped(copy_tensor(), k))
    xor = xor_tensor()
    for k in range(8):
        monkeypatch.setattr(gen, "xor_tensor", lambda t=_flipped(xor, k): t)
        lines += records()
    assert len(lines) == 119
    for line in lines:
        assert re.search(r" status=(ExactHold lambda=1\.0\+0\.0j|Fails lambda=-) ", line), line
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FAMILY_RECORDS_SHA256


def _clifford(rid):
    return next(r for r in relations.verify_clifford_recovery() if r.relation_id == rid)


def test_clifford_checks_read_the_compiled_phase_vectors(monkeypatch):
    # compile builds S^3 from t3; (1, i) there turns Y into S X S
    _patch_generator(monkeypatch, "t_vector", Tensor(1, (1, 1j)), 3)
    assert _clifford("clifford-Y").status is RelationStatus.FAILS


def test_clifford_checks_read_the_compiled_cn(monkeypatch):
    _patch_generator(monkeypatch, "xor_tensor", _flipped(xor_tensor(), 0b000))
    assert _clifford("clifford-CN-unitary").status is RelationStatus.FAILS


def test_patched_xor_accessor_reaches_the_compiled_cn(monkeypatch):
    monkeypatch.setattr(gen, "xor_tensor", lambda: _flipped(xor_tensor(), 0b000))
    for rid in ("clifford-CN", "clifford-CN-unitary"):
        assert _clifford(rid).status is RelationStatus.FAILS


def test_patched_hadamard_reaches_the_compiled_x(monkeypatch, capsys):
    # The gate blocks' stored products are keyed by the generator objects,
    # so a patched accessor's tensor is contracted afresh.  (-H) Z (-H) is
    # still X; a Hadamard with its minus sign dropped makes X the zero map.
    unsigned = Tensor(2, [abs(v) for v in gen.hadamard().data])
    monkeypatch.setattr(gen, "hadamard", lambda: unsigned)
    assert cli.main(["--format", "records", "verify"]) == 1
    records = capsys.readouterr().out.splitlines()
    assert any(line.startswith("check=clifford-X status=Fails ") for line in records)


def _verify_exit(capsys):
    code = cli.main(["--format", "records", "verify"])
    capsys.readouterr()
    return code


def test_not_built_on_ket0_fails_clifford_not(monkeypatch, capsys):
    # NOT with |0> on the XOR's spare leg is the identity, itself unitary
    monkeypatch.setattr(gen, "ket_one", gen.ket_zero)
    reports = relations.verify_clifford_recovery()
    assert [r.relation_id for r in reports if not r.holds] == ["clifford-NOT"]
    assert _verify_exit(capsys) == 1


def test_swapped_cn_wires_fail_clifford_cn(monkeypatch, capsys):
    # CN with control and target swapped is still a permutation, so only
    # the textbook matrix tells it apart
    real = circuits.compile_circuit

    def swapped(circuit):
        ops = tuple(GateApp("CN", op.wires[::-1]) if op.gate == "CN" else op
                    for op in circuit.ops)
        return real(Circuit(circuit.width, ops, circuit.input))

    monkeypatch.setattr(circuits, "compile_circuit", swapped)
    assert _clifford("clifford-CN").status is RelationStatus.FAILS
    assert _clifford("clifford-CN-unitary").status is RelationStatus.EXACT_HOLD
    assert _verify_exit(capsys) == 1


def test_corrupted_xor_fails_copies_plus_minus(monkeypatch):
    monkeypatch.setattr(gen, "xor_tensor", lambda: _flipped(xor_tensor(), 0b000))
    rep = relations.verify_xor_copies_plus_minus()
    assert rep.status is RelationStatus.FAILS
    assert rep.scalar is None


@pytest.mark.parametrize("flip", [
    # A whole column negated fits lambda = -1 on its own; only a scalar
    # shared by all columns rejects it.
    lambda vec: vec.scale(-1),
    lambda vec: Tensor(vec.rank, [-v if k == 5 else v for k, v in enumerate(vec.data)]),
], ids=["vector", "entry"])
def test_flipped_polarity_sign_fails_column_indexing(monkeypatch, flip):
    real = boolfn.polarity_vector

    def polarity_vector(form):
        vec = real(form)
        return flip(vec) if form.c == "101" else vec

    monkeypatch.setattr(boolfn, "polarity_vector", polarity_vector)
    rep = boolfn.verify_hadamard_column_indexing(3)
    assert rep.relation_id == "hadamard-column-indexing-n3"
    assert rep.status is RelationStatus.FAILS


def test_xor_records_hold_exactly_at_coarse_tolerance():
    # |1/sqrt2 - 1/2| and the conjugation's own gap are both below 0.5
    for rep in (relations.verify_xor_in_hadamard_basis(tol=0.5),
                relations.verify_xor_copies_plus_minus(tol=0.5)):
        assert rep.status is RelationStatus.EXACT_HOLD, rep.record()


def test_phase_gate_algebra():
    s, z = (GateApp(g, (0,)) for g in "SZ")
    s2 = circuit_unitary(Circuit(1, (s, s)))
    assert max_abs_diff(s2, circuit_unitary(Circuit(1, (z,)))) == 0  # S^2 = Z
    s4 = circuit_unitary(Circuit(1, (s,) * 4))
    assert max_abs_diff(s4, identity_map()) == 0  # S^4 = 1


def test_cn_transcription_reports():
    exact, versus = relations.verify_cn_transcription()
    assert exact.relation_id == "cn-index-contraction"
    assert exact.status is RelationStatus.EXACT_HOLD
    assert exact.max_deviation == 0.0
    assert versus.relation_id == "cn-contraction-vs-wired"
    assert versus.status is RelationStatus.FAILS
    assert versus.expected_mismatch
    assert versus.max_deviation == 1.0


def test_records_are_deterministic():
    def run():
        reps = [relations.verify_relation(r) for r in relations.RELATION_FAMILIES]
        reps.append(relations.verify_xor_in_hadamard_basis())
        reps.append(relations.verify_xor_copies_plus_minus())
        reps.extend(relations.verify_clifford_recovery())
        return "\n".join(r.record() for r in reps)

    assert run() == run()


def test_scalar_near_zero_is_failure():
    # an all-zero left side must not count as scalar-equal
    rep = relations.compare("degenerate", Tensor(1, (0, 0)), Tensor(1, (1, 1)))
    assert rep.status is RelationStatus.FAILS


def test_every_report_is_one_compare(monkeypatch):
    made = []
    real = relations.compare

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(relations, "compare", counting)
    monkeypatch.setattr(boolfn, "compare", counting)
    reports = cli.verification_reports(DEFAULT_TOL)
    assert len(reports) == 23
    assert [id(r) for r in reports] == [id(r) for r in made]


def test_compiled_cn_runs_no_kernel(kernel_runs):
    # Each of its merges is a stored product of the one-gate CN network,
    # the two with the identity anchors included.
    cn_op = relations.compiled_cn()
    assert kernel_runs == []
    assert max_abs_diff(cn_op, Tensor(4, GATE_MATRICES["CN"])) == 0.0
    reports = {r.relation_id: r for r in cli.verification_reports(DEFAULT_TOL)}
    assert reports["clifford-CN"].status is RelationStatus.EXACT_HOLD
    assert reports["cn-contraction-vs-wired"].max_deviation == 1.0


def test_given_cn_operator_reaches_both_cn_checks(monkeypatch):
    # a swapped CN is still unitary; only the textbook matrix tells it apart
    swapped = circuit_unitary(Circuit(2, (GateApp("CN", (1, 0)),)))
    monkeypatch.setattr(relations, "compiled_cn", lambda: swapped)
    clifford = {r.relation_id: r for r in relations.verify_clifford_recovery()}
    assert clifford["clifford-CN"].status is RelationStatus.FAILS
    assert clifford["clifford-CN-unitary"].status is RelationStatus.EXACT_HOLD
    # given the raised-index contraction itself, the documented mismatch goes
    monkeypatch.setattr(relations, "compiled_cn", relations.cn_index_contraction)
    _, versus = relations.verify_cn_transcription()
    assert versus.status is RelationStatus.EXACT_HOLD


# (family, half, entry flipped in that half's generator); each entry is one
# the half's law reads, so the fault must show through the folded compare.
FOLDED_FAULTS = [
    ("associativity", "xor", 0b000),
    ("associativity", "copy", 0b010),
    ("unit-laws", "xor", 0b101),  # xor with |0> on leg 1 reads (q, 0, s)
    ("unit-laws", "copy", 0b010),
    ("symmetry", "xor", 0b010),  # (0,1,0) against (0,0,1)
    ("symmetry", "copy", 0b001),
    ("copy-laws", "copy", 0b001),  # read by copy |0>
    ("copy-laws", "copy", 0b110),  # read by copy |1>
]


@pytest.mark.parametrize("rid, half, entry", FOLDED_FAULTS,
                         ids=[f"{r}-{h}-{e:03b}" for r, h, e in FOLDED_FAULTS])
def test_fault_in_either_half_fails_the_family(monkeypatch, rid, half, entry):
    if half == "xor":
        monkeypatch.setattr(gen, "xor_tensor", lambda: _flipped(xor_tensor(), entry))
        rep = relations.verify_relation(rid)
    else:
        rep = relations.verify_relation(rid, copy=_flipped(copy_tensor(), entry))
    assert rep.status is RelationStatus.FAILS, rep.record()
