"""Core tensor operations: construction, contraction, networks, and the one
fitted scalar of `relations.compare`."""

import collections
import hashlib
import itertools
import math
import random
import re
import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabtensor import generators as gen
from stabtensor import tensor
from stabtensor.circuits import Circuit, GateApp, cn_component_polynomial, compile_circuit
from stabtensor.relations import RelationStatus, compare
from stabtensor.tensor import (
    MAX_RANK,
    PlanStep,
    RankBudgetError,
    Tensor,
    TensorNetwork,
    contract_pair,
    max_abs_diff,
    tensor_from_fn,
)
from tests.conftest import assert_plan_is_observed, random_tensor, to_np


class TestConstruction:
    def test_scalar_from_fn(self):
        t = tensor_from_fn(0, lambda: 1)
        assert t.rank == 0
        assert t.array.item() == 1

    def test_basis_vector_from_fn(self):
        t = tensor_from_fn(1, lambda x: 1 - x)
        assert t.data == (1, 0)

    def test_copy_polynomial_support(self):
        t = tensor_from_fn(3, lambda i, j, k: 1 - (i + j + k) + i * j + i * k + j * k)
        assert t.array[0, 0, 0] == 1
        assert t.array[1, 1, 1] == 1
        assert sum(abs(v) for v in t.data) == 2

    def test_from_fn_walks_the_indices_row_major(self):
        # The leftmost leg varies slowest: the order of a walk over the flat
        # index, whose bits are the legs.  So the generator constants and
        # the CN polynomial tensor come out as that walk makes them, bit for
        # bit.
        def flat_walk(rank):
            return [tuple((flat >> (rank - 1 - k)) & 1 for k in range(rank))
                    for flat in range(1 << rank)]

        for rank in range(6):
            seen = []
            tensor_from_fn(rank, lambda *idx: seen.append(idx) or 0)
            assert seen == flat_walk(rank)
        for built, rank, fn in [
            (gen.copy_tensor(), 3, lambda i, j, k: 1 - (i + j + k) + i * j + i * k + j * k),
            (gen.xor_tensor(), 3,
             lambda q, r, s: 1 - (q + r + s) + 2 * (q * r + q * s + s * r) - 4 * q * r * s),
            (gen.hadamard(), 2, lambda i, j: gen.SQRT_HALF * (-1) ** (i * j)),
            (tensor_from_fn(4, cn_component_polynomial), 4, cn_component_polynomial),
        ]:
            walked = np.array([complex(fn(*idx)) for idx in flat_walk(rank)])
            assert built.array.tobytes() == walked.tobytes()

    @pytest.mark.parametrize("rank", [True, np.int64(1)], ids=["bool", "numpy-int"])
    def test_rank_is_stored_as_the_int_index_makes(self, rank):
        for t in (Tensor(rank, (1, 0)), tensor_from_fn(rank, lambda x: 1 - x)):
            assert type(t.rank) is int and t.rank == 1 and t.data == (1, 0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tensor(1, (float("nan"), 0))

    @pytest.mark.parametrize("bad", [
        float("inf"), float("-inf"), complex(0, float("nan")), complex(1, float("-inf")),
    ], ids=["inf", "-inf", "nan-imag", "-inf-imag"])
    def test_rejects_every_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="non-finite amplitude"):
            Tensor(2, (1, 0, bad, 0))

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_message_names_the_first_bad_entry(self, part, where, bad):
        value = complex(bad, 0) if part == "real" else complex(0, bad)
        data = [0.5j] * 8
        if where == "first":
            data[0], data[5] = value, complex(-math.inf, math.inf)
        else:
            data[7] = value
        with pytest.raises(ValueError, match=rf"^non-finite amplitude {re.escape(repr(value))}$"):
            Tensor(3, data)

    def test_finite_entries_whose_squares_overflow_are_accepted(self):
        t = Tensor(2, [1e200] * 4)
        assert t.data == (1e200,) * 4
        huge = Tensor(2, [1.7e308, -1.7e308j, 1.7e308 + 1.7e308j, 0])
        assert huge.array[1, 0] == 1.7e308 + 1.7e308j

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Tensor(2, (1, 0))

    def test_shape(self):
        assert Tensor(3, [0] * 8).array.shape == (2, 2, 2)

    def test_storage_is_read_only(self):
        t = Tensor(2, (1, 0, 0, 1))
        assert t.array.shape == (2, 2)
        with pytest.raises(ValueError):
            t.array[0, 1] = 5
        with pytest.raises(ValueError):
            t.array.reshape(-1)[1] = 5
        assert t.data == (1, 0, 0, 1)

    def test_caller_mutation_does_not_reach_tensor(self):
        entries = [1, 2, 3, 4]
        from_list = Tensor(2, entries)
        entries[0] = 99
        arr = np.array([1, 2, 3, 4], dtype=complex)
        from_array = Tensor(2, arr)
        arr[0] = 99
        assert from_list.data == (1, 2, 3, 4)
        assert from_array.data == (1, 2, 3, 4)

    def test_data_entries_are_python_complex(self):
        t = contract_pair(gen.hadamard(), (1,), gen.ket_zero(), (0,))
        assert all(type(v) is complex for v in t.data)
        assert type(t.array.item(1)) is complex
        assert type(Tensor(0, (2,)).array.item()) is complex

    def test_int_index_matches_data(self):
        # `.data` lists `.array`'s entries flat in row-major leg order: bit
        # r - 1 - k of a flat index is leg k's index.
        t = random_tensor(random.Random(4), 5)
        for k, value in enumerate(t.data):
            legs = tuple((k >> (4 - leg)) & 1 for leg in range(5))
            assert t.array.item(k) == t.array.item(legs) == value


class TestContractPair:
    def test_copy_with_ket0_gives_00(self):
        out = contract_pair(gen.copy_tensor(), (0,), gen.ket_zero(), (0,))
        assert out.rank == 2
        assert out.data == (1, 0, 0, 0)

    def test_scalar_contraction_is_scaling(self):
        rng = random.Random(3)
        t = random_tensor(rng, 3)
        scaled = contract_pair(t, (), Tensor(0, (2.5,)), ())
        np.testing.assert_allclose(to_np(scaled), 2.5 * to_np(t))

    def test_xor_with_11_gives_ket0(self):
        ones = contract_pair(gen.ket_one(), (), gen.ket_one(), ())
        out = contract_pair(gen.xor_tensor(), (1, 2), ones, (0, 1))
        assert out.data == (1, 0)

    def test_leg_out_of_range(self):
        with pytest.raises(ValueError, match="^first leg 1 out of range for rank 1$"):
            contract_pair(gen.ket_zero(), (1,), gen.ket_zero(), (0,))
        with pytest.raises(ValueError, match="^second leg -1 out of range for rank 3$"):
            contract_pair(gen.ket_zero(), (0,), gen.copy_tensor(), (-1,))
        # The first operand's legs are reported before the second's.
        with pytest.raises(ValueError, match="^first leg 3 out of range for rank 3$"):
            contract_pair(gen.copy_tensor(), (0, 3), gen.copy_tensor(), (0, 0))

    def test_duplicate_legs(self):
        with pytest.raises(ValueError, match="^duplicate first leg 0$"):
            contract_pair(gen.copy_tensor(), (0, 0), Tensor(2, (1, 0, 0, 1)), (0, 1))
        with pytest.raises(ValueError, match="^duplicate second leg 1$"):
            contract_pair(gen.copy_tensor(), (0, 2), gen.copy_tensor(), (1, 1))
        # named as the caller passed it
        with pytest.raises(ValueError, match="^duplicate first leg False$"):
            contract_pair(gen.copy_tensor(), (0, False), Tensor(2, (1, 0, 0, 1)), (0, 1))

    @pytest.mark.parametrize("a", [gen.t_vector(1), gen.hadamard()], ids=["stored", "built"])
    def test_non_integer_leg_is_named(self, a, kernel_runs):
        # t1 with the copy tensor over (0,), (0,) is a stored product; a
        # float 0.0 equals 0 as a key, and must not reach it.
        b = gen.copy_tensor()
        stored = tensor.stored_product(a, (0,), b, (0,))
        assert (stored is None) == (a is gen.hadamard())
        for legs_a, legs_b, bad in [
            ([0.0], [0], "first leg 0.0"), ((0.0,), (0,), "first leg 0.0"),
            ((0,), (0.5,), "second leg 0.5"), ((0,), ("0",), "second leg '0'"),
            ((np.False_,), (0,), f"first leg {re.escape(repr(np.False_))}"),
        ]:
            with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
                contract_pair(a, legs_a, b, legs_b)
        assert kernel_runs == []
        # Integers of other types are used as their int values; in a tuple
        # they meet the stored product, in a list (never stored) the kernel.
        want = contract_pair(a, [0], b, [0])
        for legs_a in ([np.int64(0)], [False], (np.int64(0),), (False,)):
            got = contract_pair(a, legs_a, b, (0,))
            assert np.array_equal(got.array, want.array)
            assert (got is stored) == (stored is not None and type(legs_a) is tuple)
        assert len(kernel_runs) == (3 if stored is None else 1) + 2

    def test_bool_leg_is_its_int(self, kernel_runs):
        # A bool leg reaches the kernel's transposes as the int it equals.
        out = contract_pair(Tensor(2, [1, 2, 3, 4]), (True,), Tensor(1, [1, 1]), (0,))
        assert out.data == (3, 7) and kernel_runs == [1]
        stored = tensor.stored_product(gen.ket_zero(), (0,), gen.hadamard(), (1,))
        assert contract_pair(gen.ket_zero(), (0,), gen.hadamard(), (True,)) is stored
        assert kernel_runs == [1]

    def test_mismatched_leg_counts(self):
        with pytest.raises(ValueError, match="^leg lists differ in length: 2 vs 1$"):
            contract_pair(gen.copy_tensor(), (0, 1), gen.ket_zero(), (0,))
        # checked before the legs' types
        with pytest.raises(ValueError, match="^leg lists differ in length: 1 vs 0$"):
            contract_pair(gen.copy_tensor(), (0.5,), gen.ket_zero(), ())

    def test_overflowing_result_is_rejected(self):
        big = Tensor(1, (1e308, 1e308))
        # Finite operands whose sum of products overflows to inf.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite amplitude"):
                contract_pair(big, (0,), big, (0,))
            with pytest.raises(ValueError, match="non-finite amplitude"):
                contract_pair(big, (), big, ())

    def test_finite_result_whose_squares_overflow_is_accepted(self):
        # Entries near 1e300: their squares overflow, they do not.
        a = Tensor(2, (1e300, -2e300j, 3e300, 1e-300))
        out = contract_pair(a, (1,), Tensor(1, (1, 1j)), (0,))
        assert out.data == (1e300 + 2e300, 3e300 + 1e-300j)
        out = contract_pair(a, (), Tensor(0, (1,)), ())
        assert out.data == a.data

    @pytest.mark.parametrize("factor", [1e308, 1e308j, 1e308 + 1e308j])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_non_finite_result_names_the_first_bad_entry(self, factor, where):
        # An outer product of finite operands that overflows at one entry,
        # the first or the last; which non-finite value the kernel makes
        # there is up to BLAS, so the test reads it off the same np.dot.
        a = Tensor(1, (1e308, 1) if where == "first" else (1, 1e308))
        b = Tensor(1, (factor, 1) if where == "first" else (1, factor))
        with np.errstate(over="ignore", invalid="ignore"):
            kernel = np.dot(a.array.reshape(2, 1), b.array.reshape(1, 2)).reshape(-1)
            bad = np.flatnonzero(~np.isfinite(kernel))
            assert bad.tolist() == ([0] if where == "first" else [3])
            named = re.escape(repr(kernel[bad[0]].item()))
            with pytest.raises(ValueError, match=rf"^non-finite amplitude {named}$"):
                contract_pair(a, (), b, ())

    def test_result_is_read_only_and_unshared(self):
        a, b = gen.hadamard(), gen.copy_tensor()
        out = contract_pair(a, (1,), b, (0,))
        with pytest.raises(ValueError):
            out.array[0, 0, 0] = 5
        assert not np.shares_memory(out.array, a.array)
        assert not np.shares_memory(out.array, b.array)

    def test_result_above_rank_budget_is_refused(self):
        assert MAX_RANK == 24
        a = Tensor(13, np.ones(1 << 13))
        with pytest.raises(RankBudgetError, match="rank 26"):
            contract_pair(a, (), a, ())
        assert issubclass(RankBudgetError, ValueError)


class TestPermute:
    def test_xor_fully_symmetric(self):
        x = gen.xor_tensor()
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(x.array.transpose(perm), x.array)

    def test_copy_symmetric_in_outputs(self):
        d = gen.copy_tensor()
        assert np.array_equal(d.array.transpose((0, 2, 1)), d.array)


class TestEqualUpToScalar:
    """`relations.compare`: exact, up to one fitted scalar, or failing."""

    def test_scalar_multiple(self):
        h = gen.hadamard()
        report = compare("h2", h.scale(2.0), h, 1e-12)
        assert report.status is RelationStatus.HOLDS_UP_TO_SCALAR
        assert report.scalar == 2 and report.max_deviation == 0.0

    def test_independent_vectors(self):
        report = compare("kets", gen.ket_zero(), gen.ket_one(), 1e-12)
        assert report.status is RelationStatus.FAILS
        assert report.scalar is None and report.max_deviation == 1.0

    def test_both_zero(self):
        z = Tensor(1, (0, 0))
        report = compare("zeros", z, z, 1e-12)
        assert report.status is RelationStatus.EXACT_HOLD
        assert report.scalar == 1 and report.max_deviation == 0.0

    def test_zero_vs_nonzero(self):
        # A fit through lambda = 0 only says the left side vanishes, and an
        # all-zero right side has no pivot to fit at: both fail, each with
        # the raw deviation.
        for lhs, rhs in ((Tensor(1, (0, 0)), gen.ket_one()),
                         (gen.ket_one(), Tensor(1, (0, 0)))):
            report = compare("zero", lhs, rhs, 1e-12)
            assert report.status is RelationStatus.FAILS
            assert report.scalar is None and report.max_deviation == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^shape mismatch: rank 1 vs 3$"):
            compare("ranks", gen.ket_zero(), gen.copy_tensor(), 1e-12)

    def test_pivot_is_the_first_largest_entry_of_the_right_side(self):
        # Entries 0 and 2 of rhs tie for the largest magnitude, and entry 3
        # is zero.  The fit at entry 0 is 2 exactly, and the deviation is
        # the scaled one, left at entry 2.
        rhs = Tensor(2, (1, 0.5, -1, 0))
        lhs = Tensor(2, (2, 1, -2 + 1e-11, 0))
        report = compare("ties", lhs, rhs, 1e-10)
        assert report.status is RelationStatus.HOLDS_UP_TO_SCALAR
        assert report.scalar == 2
        assert report.max_deviation == abs((-2 + 1e-11) - (-2)) > 0

    def test_xor_vs_hadamard_conjugated_copy(self):
        # independent reference: conjugate the copy array by H with numpy
        h = to_np(gen.hadamard())
        d = to_np(gen.copy_tensor())
        conj = np.einsum("ijk,ix,jy,kz->xyz", d, h, h, h)
        report = compare("xor", gen.xor_tensor(), Tensor(3, conj.reshape(-1)), 1e-12)
        assert report.status is RelationStatus.HOLDS_UP_TO_SCALAR
        assert abs(report.scalar - math.sqrt(2)) < 1e-12

    @given(
        st.randoms(use_true_random=False),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_planted_scalar(self, rnd, mag, angle):
        t = random_tensor(rnd, rnd.randint(1, 4))
        if max(abs(v) for v in t.data) < 0.1:  # the property needs nonzero a
            t = Tensor(t.rank, (1 + 0.5j,) + t.data[1:])
        lam = complex(mag * math.cos(angle), mag * math.sin(angle))
        assume(max_abs_diff(t.scale(lam), t) > 1e-9)  # else an exact hold, lambda 1
        report = compare("planted", t.scale(lam), t, 1e-9)
        assert report.status is RelationStatus.HOLDS_UP_TO_SCALAR
        assert abs(report.scalar - lam) < 1e-9


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_contract_pair_bilinear(rnd):
    rank_a = rnd.randint(1, 4)
    rank_b = rnd.randint(1, 4)
    k = rnd.randint(0, min(rank_a, rank_b))
    legs_a = rnd.sample(range(rank_a), k)
    legs_b = rnd.sample(range(rank_b), k)
    a = random_tensor(rnd, rank_a)
    b = random_tensor(rnd, rank_b)
    alpha = complex(rnd.uniform(-2, 2), rnd.uniform(-2, 2))
    left = contract_pair(a.scale(alpha), legs_a, b, legs_b)
    right = contract_pair(a, legs_a, b, legs_b).scale(alpha)
    assert max_abs_diff(left, right) <= 1e-12


def _cnot_matrix_by_enumeration() -> np.ndarray:
    # oracle: enumerate the truth table (a, b) -> (a, a xor b)
    m = np.zeros((4, 4))
    for a in (0, 1):
        for b in (0, 1):
            m[(a << 1) | (a ^ b), (a << 1) | b] = 1
    return m


def _feynman_network():
    """The Feynman gate (controlled-NOT) as `compile_circuit` wires it:
    one copy/XOR pair, open legs (out-c, out-t, in-c, in-t)."""
    return compile_circuit(Circuit(2, (GateApp("CN", (0, 1)),)))


class TestNetworks:
    def test_single_node_no_bonds(self):
        rng = random.Random(1)
        t = random_tensor(rng, 2)
        net = TensorNetwork({"n": t}, [], [("n", 0), ("n", 1)])
        assert net.contract().data == t.data

    def test_feynman_network_equals_enumerated_cnot(self):
        # open legs (out-c, out-t, in-c, in-t) -> matrix [out, in]
        mat = to_np(_feynman_network().contract()).reshape(4, 4)
        np.testing.assert_array_equal(mat.real, _cnot_matrix_by_enumeration())
        np.testing.assert_array_equal(mat.imag, np.zeros((4, 4)))

    def test_copy_into_xor_collapses_to_constant_zero_map(self):
        # brute force both basis inputs: a -> a xor a = 0
        net = TensorNetwork(
            {"d": gen.copy_tensor(), "x": gen.xor_tensor()},
            [("d", 1, "x", 1), ("d", 2, "x", 2)],
            [("x", 0), ("d", 0)],
        )
        out = net.contract()
        assert out.data == (1, 1, 0, 0)
        for bit, ket in ((0, gen.ket_zero()), (1, gen.ket_one())):
            applied = contract_pair(out, (1,), ket, (0,))
            assert applied.data == (1, 0), f"basis input {bit}"

    def test_open_leg_order_respected(self):
        rng = random.Random(7)
        t = random_tensor(rng, 3)
        fwd = TensorNetwork({"n": t}, [], [("n", 0), ("n", 1), ("n", 2)]).contract()
        rev = TensorNetwork({"n": t}, [], [("n", 2), ("n", 1), ("n", 0)]).contract()
        np.testing.assert_allclose(to_np(rev), to_np(fwd).transpose(2, 1, 0))

    def test_disconnected_components_outer_product(self):
        net = TensorNetwork(
            {"a": gen.ket_zero(), "b": gen.ket_one()},
            [],
            [("a", 0), ("b", 0)],
        )
        assert net.contract().data == (0, 1, 0, 0)

    def test_trace_loop(self):
        # bond both legs of a rank-2 tensor to itself: the trace
        rng = random.Random(9)
        t = random_tensor(rng, 2)
        net = TensorNetwork({"n": t}, [("n", 0, "n", 1)], [])
        assert abs(net.contract().array.item() - (t.data[0] + t.data[3])) < 1e-14

    def test_dangling_leg_rejected(self):
        with pytest.raises(ValueError, match=r"^dangling leg \('n', 0\)$"):
            TensorNetwork({"n": gen.ket_zero()}, [], [])
        with pytest.raises(ValueError, match=r"^dangling leg \('n', 2\)$"):
            TensorNetwork({"n": gen.copy_tensor()}, [], [("n", 1), ("n", 0)])

    def test_duplicated_leg_rejected(self):
        with pytest.raises(ValueError, match=r"^leg \('n', 0\) used more than once$"):
            TensorNetwork(
                {"n": gen.copy_tensor(), "m": gen.ket_zero()},
                [("n", 0, "m", 0)],
                [("n", 0), ("n", 1), ("n", 2)],
            )
        # As many claims as legs, one leg claimed twice and one left over.
        with pytest.raises(ValueError, match=r"^leg \('n', 1\) used more than once$"):
            TensorNetwork({"n": gen.copy_tensor()}, [], [("n", 0), ("n", 1), ("n", 1)])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="^open leg references unknown node 'm'$"):
            TensorNetwork({"n": gen.ket_zero()}, [], [("m", 0)])
        with pytest.raises(ValueError, match="^bond references unknown node 'm'$"):
            TensorNetwork({"n": gen.ket_zero()}, [("n", 0, "m", 0)], [])

    @pytest.mark.parametrize("claims, message", [
        (([], [(["a"], 0), ("a", 1)]), r"^open leg references unknown node \['a'\]$"),
        (([("a", 0, ["b"], 0)], [("a", 1)]), r"^bond references unknown node \['b'\]$"),
        (([(["a"], 0, "a", 1)], []), r"^bond references unknown node \['a'\]$"),
        (([(("a", 0), ("a", 1))], []),
         r"^bond \(\('a', 0\), \('a', 1\)\) is not \(node, leg, node, leg\)$"),
        (([], [("a", 0), 5]), r"^open leg 5 is not a \(node, leg\) pair$"),
    ], ids=["open-leg", "bond", "bond-first-node", "bond-pairs", "open-leg-not-a-pair"])
    @pytest.mark.parametrize("feed", [list, iter], ids=["list", "iterator"])
    def test_malformed_claims_are_named(self, claims, message, feed):
        # An unhashable node name is an unknown node; the claims may be
        # read only once.
        bonds, open_legs = claims
        with pytest.raises(ValueError, match=message):
            TensorNetwork({"a": gen.identity_map()}, feed(bonds), feed(open_legs))

    def test_open_legs_may_be_any_pairs(self):
        net = TensorNetwork({"a": gen.identity_map()}, [], iter([["a", 1], ("a", 0)]))
        assert net.open_legs == (("a", 1), ("a", 0))

    def test_leg_out_of_range_rejected(self):
        with pytest.raises(
            ValueError, match=r"^bond references leg 1 of node 'n' \(rank 1\)$"
        ):
            TensorNetwork({"n": gen.ket_zero(), "m": gen.ket_zero()},
                          [("m", 0, "n", 1)], [("n", 0)])
        with pytest.raises(
            ValueError, match=r"^open leg references leg -1 of node 'n' \(rank 1\)$"
        ):
            TensorNetwork({"n": gen.ket_zero()}, [], [("n", -1)])

    def test_non_integer_open_leg_rejected(self):
        with pytest.raises(
            ValueError, match=r"^open leg references leg 0.7 of node 'n', which is not an integer$"
        ):
            TensorNetwork({"n": gen.ket_one()}, [], [("n", 0.7)])

    def test_float_bond_leg_rejected(self):
        # 0.0 == 0, so only the leg's type tells it apart
        with pytest.raises(
            ValueError, match=r"^bond references leg 0.0 of node 'a', which is not an integer$"
        ):
            TensorNetwork({"a": gen.ket_zero(), "b": gen.ket_zero()},
                          [("a", 0.0, "b", 0)], [])

    @pytest.mark.parametrize("kind", [np.int64, np.uint8, bool], ids=["int64", "uint8", "bool"])
    def test_integer_legs_of_other_types_are_numbered(self, kind):
        # Legs that are integers but not int pass validation, and must be
        # numbered as their int values: in bonds and in open legs alike.
        def network(leg):
            return TensorNetwork(
                {"a": gen.copy_tensor(), "b": gen.xor_tensor(), "c": gen.hadamard()},
                [("a", leg(0), "b", leg(1)), ("b", 0, "c", leg(1)), ("a", 2, "a", leg(1))],
                [("c", leg(0)), ("b", 2)],
            )

        as_int, other = network(int), network(kind)
        assert other.plan() == as_int.plan()
        assert np.array_equal(other.contract().array, as_int.contract().array)

    @pytest.mark.parametrize("net_args,message", [
        # a leg past its node's rank whose id is the next node's leg 0
        (({"n": gen.ket_zero(), "m": gen.ket_zero()}, [], [("n", 1), ("n", 0)]),
         r"^open leg references leg 1 of node 'n' \(rank 1\)$"),
        (({"n": gen.hadamard(), "m": gen.ket_zero()}, [("n", 2, "n", 0)], [("n", 1)]),
         r"^bond references leg 2 of node 'n' \(rank 2\)$"),
        # a bond from a leg to itself
        (({"n": gen.ket_zero()}, [("n", 0, "n", 0)], []),
         r"^leg \('n', 0\) used more than once$"),
        (({"n": gen.hadamard()}, [("n", 1, "n", 1)], [("n", 0)]),
         r"^leg \('n', 1\) used more than once$"),
        # as many claims as legs
        (({"n": gen.hadamard()}, [("n", 0, "n", 0)], []),
         r"^leg \('n', 0\) used more than once$"),
        # an open leg that is also bonded
        (({"n": gen.hadamard(), "m": gen.ket_zero()}, [("n", 1, "m", 0)],
          [("n", 0), ("m", 0)]),
         r"^leg \('m', 0\) used more than once$"),
        # numpy-integer legs keep their wording
        (({"n": gen.ket_zero()}, [], [("n", np.int64(1))]),
         r"^open leg references leg 1 of node 'n' \(rank 1\)$"),
        (({"n": gen.ket_zero()}, [], [("n", np.float64(0))]),
         rf"^open leg references leg {re.escape(repr(np.float64(0)))} of node 'n', "
         "which is not an integer$"),
        (({"n": gen.hadamard()}, [], [("n", True)]),
         r"^dangling leg \('n', 0\)$"),
    ], ids=["open-past-rank", "bond-past-rank", "self-bond", "self-bond-open",
            "self-bond-no-open", "bonded-and-open", "int64-past-rank", "float64", "bool-dangling"])
    def test_malformed_network_message(self, net_args, message):
        with pytest.raises(ValueError, match=message):
            TensorNetwork(*net_args)

    @pytest.mark.parametrize("net_args,error,message", [
        (({"a": gen.hadamard()}, [("a", 0, "a")], [("a", 1)]), ValueError,
         r"^bond \('a', 0, 'a'\) is not \(node, leg, node, leg\)$"),
        (({"a": gen.ket_zero()}, [0], []), ValueError,
         r"^bond 0 is not \(node, leg, node, leg\)$"),
        (({"a": gen.ket_zero()}, [], [("a",)]), ValueError,
         r"^open leg \('a',\) is not a \(node, leg\) pair$"),
        (({"a": gen.ket_zero()}, [], [("a", 0, 0)]), ValueError,
         r"^open leg \('a', 0, 0\) is not a \(node, leg\) pair$"),
        (({"a": gen.ket_zero(), "b": (1, 0)}, [], [("a", 0), ("b", 0)]), TypeError,
         r"^node 'b' is a tuple, not a Tensor$"),
    ], ids=["three-field-bond", "int-bond", "one-field-open-leg", "three-field-open-leg",
            "tuple-node"])
    def test_malformed_network_shape_is_named(self, net_args, error, message):
        with pytest.raises(error, match=message):
            TensorNetwork(*net_args)

    def test_every_bond_is_stored_as_a_plain_tuple(self):
        nodes = {"a": gen.copy_tensor(), "b": gen.xor_tensor(), "c": gen.hadamard()}
        given = [("a", 0, "b", 0), ["a", 1, "b", 1], _NamedBond("b", 2, "c", 0)]
        net = TensorNetwork(nodes, given, [("a", 2), ("c", 1)])
        assert [type(b) for b in net.bonds] == [tuple] * 3
        assert net.bonds == tuple(tuple(b) for b in given)
        assert net.bonds[0] is given[0]

    def test_bad_order_rejected(self):
        net = _feynman_network()
        with pytest.raises(ValueError):
            net.contract(order=[0, 0])

    def test_overflow_that_a_later_trace_drops_is_rejected(self):
        # Merging over A0-B0 overflows only where A's legs 1, 2 read (0, 1),
        # entries the A1-A2 trace then drops: the merge itself must fail.
        a = np.zeros(8)
        a[0b001] = 1e200
        net = TensorNetwork(
            {"A": Tensor(3, a), "B": Tensor(3, np.full(8, 1e200))},
            [("A", 0, "B", 0), ("A", 1, "A", 2)],
            [("B", 1), ("B", 2)],
        )
        assert [step.kind for step in net.plan()] == ["merge", "trace", "permute"]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite amplitude"):
                net.contract()


_CORPUS_TENSORS = (gen.ket_zero(), gen.hadamard(), gen.copy_tensor(), gen.xor_tensor())

# A bond given as a tuple subclass, which the network stores as a plain tuple.
_NamedBond = collections.namedtuple("_NamedBond", "node_a leg_a node_b leg_b")


def _corpus_leg(rng, leg, rank):
    """A stand-in for leg `leg` of a rank-`rank` node: some are the same
    integer in another type, the rest faults."""
    return rng.choice([
        float(leg), leg + 0.5, -1, bool(leg % 2), np.int64(leg), np.int64(rank),
        np.bool_(leg % 2), str(leg), rank, leg + 1,
    ])


def _seeded_network_args(rng):
    """Nodes, bonds and open legs of a network over 1-5 generator tensors,
    every leg bonded or open, then edited 0-2 times: a leg replaced (see
    `_corpus_leg`), a node unknown, a self-bond or an extra open leg
    added, one claim copied onto another, or a claim dropped."""
    names = rng.sample("abcde", rng.randint(1, 5))
    nodes = {name: rng.choice(_CORPUS_TENSORS) for name in names}
    refs = [[name, leg] for name, t in nodes.items() for leg in range(t.rank)]
    rng.shuffle(refs)
    n_open = rng.randint(0, len(refs))
    n_open += (len(refs) - n_open) % 2
    open_legs, paired = refs[:n_open], refs[n_open:]
    bonds = [paired[k] + paired[k + 1] for k in range(0, len(paired), 2)]
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        # Each claim as (its list, the offset of its node in that list).
        claims = [(o, 0) for o in open_legs] + [(b, s) for b in bonds for s in (0, 2)]
        name = rng.choice(names)
        leg = rng.randrange(max(nodes[name].rank, 1))
        edit = rng.choice(["leg", "leg", "node", "self-bond", "extra", "copy", "drop"])
        if edit in ("leg", "node", "copy") and claims:
            claim, at = rng.choice(claims)
            if edit == "leg":
                rank = nodes[claim[at]].rank if claim[at] in nodes else 1
                was = claim[at + 1] if type(claim[at + 1]) is int else 0
                claim[at + 1] = _corpus_leg(rng, was, rank)
            elif edit == "node":
                claim[at] = "z"
            else:
                source, s = rng.choice(claims)
                claim[at:at + 2] = source[s:s + 2]
        elif edit == "self-bond":
            bonds.insert(rng.randint(0, len(bonds)), [name, leg, name, leg])
        elif edit == "extra":
            open_legs.insert(rng.randint(0, len(open_legs)), [name, leg])
        elif edit == "drop" and claims:
            group = rng.choice([g for g in (open_legs, bonds) if g])
            del group[rng.randrange(len(group))]
    shaped = [rng.choice([tuple(b), list(b), _NamedBond(*b)]) for b in bonds]
    return nodes, shaped, [tuple(o) for o in open_legs]


# sha256 of the records `test_network_faults_and_plans_are_pinned` hashes.
_CORPUS_DIGEST = "0b92009abdf5f6c2fdd4102b58a5493ce8a8a69297647abab6aca09bd573373e"


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="messages quote numpy scalars by repr, which numpy 2 changed")
def test_network_faults_and_plans_are_pinned():
    # Every network of a seeded corpus, valid or not, gives the recorded
    # error type and message, or the recorded plan.
    rng = random.Random(20)
    records, kinds = [], collections.Counter()
    for _ in range(3000):
        try:
            record = repr(TensorNetwork(*_seeded_network_args(rng)).plan())
            kinds["valid"] += 1
        except ValueError as exc:
            record = f"{type(exc).__name__}: {exc}"
            kinds[re.sub(r".*(unknown node|not an integer|\(rank|more than once|dangling).*",
                         r"\1", record)] += 1
        records.append(record)
    assert sorted(kinds) == sorted(
        ["valid", "unknown node", "not an integer", "(rank", "more than once", "dangling"])
    assert min(kinds.values()) >= 100
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == _CORPUS_DIGEST


def _corpus():
    bell = compile_circuit(Circuit(2, (GateApp("H", (0,)), GateApp("CN", (0, 1))), "00"))
    ghz = compile_circuit(
        Circuit(3, (GateApp("H", (0,)), GateApp("CN", (0, 1)), GateApp("CN", (1, 2))), "000")
    )
    hopf = TensorNetwork(
        {"d": gen.copy_tensor(), "x": gen.xor_tensor()},
        [("d", 1, "x", 1), ("d", 2, "x", 2)],
        [("x", 0), ("d", 0)],
    )
    return {
        "feynman": _feynman_network(),
        "bell": bell,
        "ghz": ghz,
        "hopf": hopf,
        "loop": _loop_network(),
    }


def _loop_network():
    """Node a is bonded to itself (legs 1, 3) and twice to node b."""
    rng = random.Random(5)
    return TensorNetwork(
        {"a": random_tensor(rng, 5), "b": random_tensor(rng, 3)},
        [("a", 1, "a", 3), ("a", 0, "b", 2), ("b", 0, "a", 4)],
        [("b", 1), ("a", 2)],
    )


def test_self_loop_and_shared_bonds_match_einsum():
    net = _loop_network()
    want = np.einsum("pqrqs,stp->tr", net.nodes["a"].array, net.nodes["b"].array)
    for order in itertools.permutations(range(len(net.bonds))):
        np.testing.assert_allclose(net.contract(order=order).array, want, atol=1e-13)


@pytest.mark.parametrize("name", ["feynman", "bell", "ghz", "hopf", "loop"])
def test_contraction_order_independence(name):
    net = _corpus()[name]
    rng = random.Random(42)
    reference = net.contract()
    for _ in range(2):
        order = list(range(len(net.bonds)))
        rng.shuffle(order)
        shuffled = net.contract(order=order)
        assert max_abs_diff(shuffled, reference) <= 1e-12


@pytest.mark.parametrize("name", ["feynman", "bell", "ghz", "hopf", "loop"])
def test_plan_is_what_contract_builds_under_every_order(name):
    net = _corpus()[name]
    for order in itertools.permutations(range(len(net.bonds))):
        assert_plan_is_observed(net, order)


def _random_network(rng):
    """2-7 random tensors with at most 12 legs in all, their legs paired at
    random (a node may bond to itself, and a pair of nodes more than once)
    and the rest open in random order.  Also returns the einsum spec."""
    ranks = [rng.randint(0, 4) for _ in range(rng.randint(2, 7))]
    while sum(ranks) > 12:
        ranks[rng.choice([k for k, r in enumerate(ranks) if r])] -= 1
    names = [f"t{k}" for k in range(len(ranks))]
    rng.shuffle(names)  # declared node order differs from name order
    nodes = {name: random_tensor(rng, r) for name, r in zip(names, ranks)}
    refs = [(name, leg) for name, r in zip(names, ranks) for leg in range(r)]
    rng.shuffle(refs)
    n_open = rng.randint(0, min(len(refs), 6))
    n_open += (len(refs) - n_open) % 2
    open_legs, paired = refs[:n_open], refs[n_open:]
    bonds = list(zip(paired[0::2], paired[1::2]))
    letter = {}
    for k, (ref_a, ref_b) in enumerate(bonds):
        letter[ref_a] = letter[ref_b] = string.ascii_letters[k]
    for k, ref in enumerate(open_legs):
        letter[ref] = string.ascii_letters[len(bonds) + k]
    inputs = ",".join(
        "".join(letter[name, leg] for leg in range(t.rank)) for name, t in nodes.items()
    )
    spec = f"{inputs}->{''.join(letter[ref] for ref in open_legs)}"
    return TensorNetwork(nodes, [a + b for a, b in bonds], open_legs), spec


def test_random_networks_match_einsum_under_every_order_tried():
    rng = random.Random(2017)
    self_loops = repeated_pairs = 0
    for _ in range(60):
        net, spec = _random_network(rng)
        pairs = [frozenset((b[0], b[2])) for b in net.bonds]
        self_loops += any(len(pair) == 1 for pair in pairs)
        repeated_pairs += len(set(pairs)) < len(pairs)
        want = np.einsum(spec, *(t.array for t in net.nodes.values()))
        orders = [None]
        for _ in range(3):
            orders.append(rng.sample(range(len(net.bonds)), len(net.bonds)))
        for order in orders:
            got = net.contract(order)
            np.testing.assert_allclose(got.array, want, rtol=1e-12, atol=1e-12)
            assert_plan_is_observed(net, order)
    # The sample covers the cases the plan handles specially.
    assert self_loops >= 5 and repeated_pairs >= 5


def _chain_network(length):
    """Copy tensors in a chain, each with a |0> on its middle leg; the chain
    bonds are declared first, the |0> bonds last.  Open legs: the ends."""
    nodes, bonds = {}, []
    for k in range(length):
        nodes[f"m{k}"], nodes[f"e{k}"] = gen.copy_tensor(), gen.ket_zero()
        if k:
            bonds.append((f"m{k - 1}", 2, f"m{k}", 0))
    bonds += [(f"m{k}", 1, f"e{k}", 0) for k in range(length)]
    return TensorNetwork(nodes, bonds, [("m0", 0), (f"m{length - 1}", 2)])


class TestPlan:
    def test_steps_of_the_feynman_network(self):
        # nodes: the two identity anchors, copy, XOR; the copy/XOR bond first
        assert _feynman_network().plan() == [
            PlanStep("merge", 4, 2, 3, (2,), (2,)),
            PlanStep("merge", 4, 0, 2, (0,), (0,)),
            PlanStep("merge", 4, 1, 0, (0,), (3,)),
            PlanStep("permute", 4, 0, legs_a=(3, 2, 0, 1)),
        ]

    def test_steps_of_a_merge_over_two_bonds(self):
        # b's legs 0 and 2 meet a's legs 2 and 0: legs_a ascends and legs_b
        # follows it, under either order.
        net = TensorNetwork(
            {"a": gen.copy_tensor(), "b": gen.xor_tensor()},
            [("a", 0, "b", 2), ("a", 2, "b", 0)],
            [("b", 1), ("a", 1)],
        )
        for order in (None, [1, 0]):
            assert net.plan(order) == [
                PlanStep("merge", 2, 0, 1, (0, 2), (2, 0)),
                PlanStep("permute", 2, 0, legs_a=(1, 0)),
            ]

    def test_steps_of_a_network_that_traces(self):
        # a's self-bond traced first, then after the two-bond merge; last,
        # the merge is taken from b's side.
        net = _loop_network()
        assert net.plan() == [
            PlanStep("trace", 3, 0, legs_a=(1, 3)),
            PlanStep("merge", 2, 0, 1, (0, 2), (2, 0)),
            PlanStep("permute", 2, 0, legs_a=(1, 0)),
        ]
        assert net.plan([1, 2, 0]) == [
            PlanStep("merge", 4, 0, 1, (0, 4), (2, 0)),
            PlanStep("trace", 2, 0, legs_a=(0, 2)),
            PlanStep("permute", 2, 0, legs_a=(1, 0)),
        ]
        assert net.plan([2, 0, 1]) == [
            PlanStep("merge", 4, 1, 0, (0, 2), (4, 0)),
            PlanStep("trace", 2, 0, legs_a=(1, 3)),
            PlanStep("permute", 2, 0, legs_a=(0, 1)),
        ]

    @pytest.mark.parametrize("net", [
        compile_circuit(Circuit(3, (), "010")),
        compile_circuit(Circuit(3, (GateApp("H", (1,)), GateApp("CN", (1, 2))))),
        TensorNetwork(
            {"k": gen.ket_zero(), "c": gen.copy_tensor(), "h": gen.hadamard()},
            [("c", 0, "c", 1)],
            [("h", 1), ("c", 2), ("k", 0), ("h", 0)],
        ),
    ], ids=["three-kets", "lone-anchor-first", "trace-then-outer"])
    def test_plan_is_reentrant(self, net):
        # Each plan ends in outer products of several clusters, the first
        # of them a node no step merged: every call starts from the
        # network's own leg lists, and none may write into them.
        steps = net.plan()
        assert steps[-2].kind == "merge" and steps[-2].legs_a == ()
        assert net.plan() == steps
        fresh = TensorNetwork(net.nodes, net.bonds, net.open_legs)
        assert np.array_equal(net.contract().array, fresh.contract().array)
        assert net.plan() == fresh.plan() == steps

    def test_network_without_nodes_is_the_unit(self):
        net = TensorNetwork({}, [], [])
        assert net.plan() == [PlanStep("unit", 0)]
        assert net.contract().data == (1,)

    def test_scalar_scales_the_result_in_its_last_step(self):
        # A network without nodes is its scalar; any other network's scalar
        # multiplies its result in the last step's one construction.
        omega = complex(gen.SQRT_HALF, gen.SQRT_HALF)
        assert TensorNetwork({}, [], [], scalar=omega).contract().data == (omega,)
        for net in _corpus().values():
            phased = TensorNetwork(net.nodes, net.bonds, net.open_legs, scalar=omega)
            assert phased.plan() == net.plan()
            assert np.array_equal(phased.contract().array, omega * net.contract().array)
            assert_plan_is_observed(phased)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            _feynman_network().plan(order=[0, 0])

    @pytest.mark.parametrize("order", [[0.0], [0.5]])
    def test_float_order_rejected(self, order):
        # 0.0 == 0 passes the permutation test; it must still be a ValueError
        net = compile_circuit(Circuit(1, (GateApp("H", (0,)),), "0"))
        for run in (net.plan, net.contract):
            with pytest.raises(ValueError, match="^order must be a permutation of the bond indices$"):
                run(order=order)

    def test_an_iterator_order_is_read_once(self):
        # The permutation check must not use up a one-shot iterator.
        net = compile_circuit(Circuit(2, (GateApp("H", (0,)), GateApp("CN", (0, 1))), "00"))
        order = list(range(len(net.bonds)))[::-1]
        assert net.plan(iter(order)) == net.plan(order)
        assert net.contract(order=iter(order)).data == net.contract(order=order).data
        with pytest.raises(ValueError, match="^order must be a permutation of the bond indices$"):
            net.plan(iter([0] * len(order)))

    def test_numpy_integer_order_accepted(self):
        net = _feynman_network()
        order = list(np.arange(len(net.bonds))[::-1])
        assert net.plan(order) == net.plan(order=[2, 1, 0])

    @pytest.mark.parametrize("net,message", [
        # The chain first holds both ends and all 23 middle legs.
        (_chain_network(23), "merge in the contraction plan has rank 25"),
        (TensorNetwork({k: gen.ket_zero() for k in range(25)}, [], [(k, 0) for k in range(25)]),
         "the network's result has rank 25"),
    ], ids=["chain", "25-kets"])
    def test_plan_over_budget_is_refused_before_any_merge(self, net, message, monkeypatch):
        with pytest.raises(RankBudgetError, match=f"{message}; the rank budget is 24"):
            net.plan()
        calls = []
        monkeypatch.setattr(tensor, "contract_pair", lambda *args: calls.append(args))
        with pytest.raises(RankBudgetError, match="the rank budget is 24"):
            net.contract()
        assert calls == []

    def test_same_network_fits_with_the_kets_first(self):
        net = _chain_network(23)
        kets_first = list(range(22, 45)) + list(range(22))
        assert max(step.rank for step in net.plan(kets_first)) == 2
        assert net.contract(kets_first).data == (1, 0, 0, 0)
