"""Generator tensors and the constructions derived from them."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabtensor import generators as gen
from stabtensor.circuits import Circuit, GateApp, circuit_unitary
from stabtensor.relations import RelationStatus, compare
from stabtensor.tensor import (
    Tensor,
    contract_pair,
    max_abs_diff,
)
from tests.conftest import random_tensor, to_np

SQ2 = math.sqrt(2)


def test_copy_entries_match_membership_predicate():
    d = gen.copy_tensor()
    for i, j, k in itertools.product((0, 1), repeat=3):
        want = 1 if i == j == k else 0
        assert d.array[i, j, k] == want


def test_xor_entries_match_membership_predicate():
    x = gen.xor_tensor()
    for q, r, s in itertools.product((0, 1), repeat=3):
        want = 1 if q == r ^ s else 0
        assert x.array[q, r, s] == want


def test_copy_duplicates_basis_states():
    d = gen.copy_tensor()
    assert contract_pair(d, (0,), gen.ket_one(), (0,)).data == (0, 0, 0, 1)
    assert contract_pair(d, (0,), gen.ket_zero(), (0,)).data == (1, 0, 0, 0)


def test_hadamard_entries_and_involution():
    h = gen.hadamard()
    np.testing.assert_allclose(
        to_np(h), np.array([[1, 1], [1, -1]]) / SQ2, atol=1e-15
    )
    plus = contract_pair(h, (1,), gen.ket_zero(), (0,))
    np.testing.assert_allclose(to_np(plus), np.array([1, 1]) / SQ2, atol=1e-15)
    # H|-> = |1>
    minus = contract_pair(h, (1,), gen.ket_one(), (0,))
    back = contract_pair(h, (1,), minus, (0,))
    np.testing.assert_allclose(to_np(back), [0, 1], atol=1e-15)


def test_hadamard_twice_on_random_vector():
    rng = random.Random(2)
    v = random_tensor(rng, 1)
    h = gen.hadamard()
    twice = contract_pair(h, (1,), contract_pair(h, (1,), v, (0,)), (0,))
    assert max_abs_diff(twice, v) <= 1e-12


@pytest.mark.parametrize(
    "k,expected",
    [
        (0, (1, 1)),
        (1, (1, 1j)),
        (2, (1, -1)),
        (3, (1, -1j)),
        (4, (1, 1)),
        (-1, (1, -1j)),
    ],
)
def test_t_vector_quadrants(k, expected):
    assert gen.t_vector(k).data == expected


def test_plus_covector_pairings():
    p = gen.plus_covector()
    assert contract_pair(p, (0,), gen.ket_zero(), (0,)).array.item() == 1
    assert contract_pair(p, (0,), gen.t_vector(1), (0,)).array.item() == 1 + 1j


def test_counit_yields_identity():
    out = contract_pair(gen.copy_tensor(), (1,), gen.plus_covector(), (0,))
    assert out.data == (1, 0, 0, 1)


class TestCupCap:
    def test_entries(self):
        for leg in range(3):
            cup = contract_pair(gen.copy_tensor(), (leg,), gen.plus_covector(), (0,))
            assert cup.data == (1, 0, 0, 1)

    def test_snake_equation(self):
        # (cap x id) . (id x cup) = id, the cap the same tensor as the cup
        cup = cap = contract_pair(gen.copy_tensor(), (0,), gen.plus_covector(), (0,))
        left = contract_pair(cap, (1,), cup, (0,))  # legs (a, c)
        assert left.data == (1, 0, 0, 1)


def _pointwise(u, v):
    """The entrywise product of two vectors, through the copy tensor."""
    half = contract_pair(gen.copy_tensor(), (1,), u, (0,))
    return contract_pair(half, (1,), v, (0,))


class TestPointwiseProduct:
    def test_t1_times_t3_is_all_ones(self):
        got = _pointwise(gen.t_vector(1), gen.t_vector(3))
        assert got.data == (1 + 0j, 1 + 0j)

    def test_phase_family_is_cyclic(self):
        for a in range(4):
            for b in range(4):
                got = _pointwise(gen.t_vector(a), gen.t_vector(b))
                assert got.data == gen.t_vector((a + b) % 4).data

    def test_all_ones_is_unit(self):
        rng = random.Random(8)
        u = random_tensor(rng, 1)
        got = _pointwise(u, Tensor(1, (1, 1)))
        assert max_abs_diff(got, u) == 0


def _gates(*names: str) -> Circuit:
    return Circuit(1, tuple(GateApp(g, (0,)) for g in names))


class TestLiftDiagonal:
    def test_phase_gate(self):
        assert circuit_unitary(_gates("S")).data == (1, 0, 0, 1j)

    def test_pauli_z(self):
        assert circuit_unitary(_gates("Z")).data == (1, 0, 0, -1)

    def test_unit_diagonal(self):
        # no gate lifts t0, so contract (1, 1) into copy leg 0 directly
        lifted = contract_pair(gen.copy_tensor(), (0,), Tensor(1, (1, 1)), (0,))
        assert lifted.data == (1, 0, 0, 1)

    def test_lifted_phase_vector_is_unitary(self):
        s = circuit_unitary(_gates("S"))
        sdag = Tensor(2, (v.conjugate() for v in s.data))  # diagonal: dagger = conj
        assert contract_pair(sdag, (1,), s, (0,)).data == (1, 0, 0, 1)

    def test_fourth_power_is_identity(self):
        # diag(1, i**k) for k = 0..3
        for lift in ((), ("S",), ("Z",), ("Z", "S")):
            acc = circuit_unitary(_gates(*lift * 4))
            assert max_abs_diff(acc, gen.identity_map()) <= 1e-12


class TestPaulis:
    def test_pauli_x_from_hzh(self):
        x = circuit_unitary(_gates("X"))
        assert max_abs_diff(x, Tensor(2, (0, 1, 1, 0))) <= 1e-15

    def test_pauli_y_from_sxs3(self):
        y = circuit_unitary(_gates("Y"))
        assert max_abs_diff(y, Tensor(2, (0, -1j, 1j, 0))) <= 1e-15

    def test_squares_are_identity(self):
        for p in ("X", "Y", "Z"):
            squared = circuit_unitary(_gates(p, p))
            assert max_abs_diff(squared, gen.identity_map()) <= 1e-12


class TestNotFromConstant:
    def test_matrix(self):
        assert circuit_unitary(_gates("NOT")).data == (0, 1, 1, 0)

    def test_flips_basis_states(self):
        n = circuit_unitary(_gates("NOT"))
        assert contract_pair(n, (1,), gen.ket_zero(), (0,)).data == (0, 1)
        assert contract_pair(n, (1,), gen.ket_one(), (0,)).data == (1, 0)

    def test_involution(self):
        assert circuit_unitary(_gates("NOT", "NOT")).data == (1, 0, 0, 1)


def test_xor_copies_x_basis_with_shared_scalar():
    x = gen.xor_tensor()
    h = gen.hadamard()
    plus = contract_pair(h, (1,), gen.ket_zero(), (0,))
    minus = contract_pair(h, (1,), gen.ket_one(), (0,))
    scalars = []
    for v in (plus, minus):
        applied = contract_pair(x, (0,), v, (0,))  # legs raised: 1-in 2-out
        pair = contract_pair(v, (), v, ())
        report = compare("xor-copies", applied, pair, 1e-12)
        assert report.status is RelationStatus.HOLDS_UP_TO_SCALAR
        scalars.append(report.scalar)
    assert abs(scalars[0] - SQ2) <= 1e-12 and abs(scalars[1] - scalars[0]) <= 1e-12


@given(st.integers(min_value=-8, max_value=8))
@settings(deadline=None)
def test_t_vector_period_four(k):
    assert gen.t_vector(k).data == gen.t_vector(k % 4).data


GENERATORS = {
    "copy": gen.copy_tensor, "xor": gen.xor_tensor, "hadamard": gen.hadamard,
    "plus_covector": gen.plus_covector, "ket0": gen.ket_zero, "ket1": gen.ket_one,
    **{f"t{k}": lambda k=k: gen.t_vector(k) for k in range(4)},
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_shared(name):
    assert GENERATORS[name]() is GENERATORS[name]()


def test_phase_vectors_and_identity_are_shared():
    assert gen.t_vector(1) is gen.t_vector(5)
    assert gen.t_vector(-1) is gen.t_vector(3)
    assert gen.identity_map() is gen.identity_map()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_shared_generators_are_read_only(name):
    t = GENERATORS[name]()
    before = t.data
    with pytest.raises(ValueError, match="read-only"):
        t.array[(0,) * t.rank] = 5
    with pytest.raises(ValueError, match="read-only"):
        t.array.reshape(-1)[-1] = 5
    assert GENERATORS[name]().data == before
