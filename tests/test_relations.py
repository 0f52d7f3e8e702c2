"""The relation-checking suite: statuses, recorded scalars, determinism."""

import math

import pytest

from stabtensor import boolfn, relations
from stabtensor import generators as gen
from stabtensor.circuits import Circuit, GateApp, circuit_unitary
from stabtensor.generators import copy_tensor, identity_map, xor_tensor
from stabtensor.relations import RelationStatus
from stabtensor.tensor import Tensor, max_abs_diff


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


def _patch_generator(monkeypatch, name, tensor):
    real = gen.by_name
    monkeypatch.setattr(gen, "by_name", lambda n: tensor if n == name else real(n))


def _clifford(rid):
    return next(r for r in relations.verify_clifford_recovery() if r.relation_id == rid)


def test_clifford_checks_read_the_compiled_phase_vectors(monkeypatch):
    # compile builds S^3 from t3; (1, i) there turns Y into S X S
    _patch_generator(monkeypatch, "t3", Tensor(1, (1, 1j)))
    assert _clifford("clifford-Y").status is RelationStatus.FAILS


def test_clifford_checks_read_the_compiled_cn(monkeypatch):
    _patch_generator(monkeypatch, "xor", _flipped(xor_tensor(), 0b000))
    assert _clifford("clifford-CN-unitary").status is RelationStatus.FAILS


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
    rep = relations.compare(
        "degenerate", Tensor(1, (0, 0)), Tensor(1, (1, 1)), "zero", "ones"
    )
    assert rep.status is RelationStatus.FAILS
