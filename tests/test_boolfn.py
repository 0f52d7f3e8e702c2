"""Truth-table entropy analysis and the linear-form / Hadamard correspondence."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabtensor import boolfn
from stabtensor.boolfn import (
    TruthTable,
    delta_entropy,
    hadamard_power,
    is_reversible,
    output_entropy_gap,
    parse_truth_table,
    polarity_table,
    verify_hadamard_column_indexing,
)
from stabtensor.relations import RelationStatus
from tests.conftest import to_np

AND_TABLE = TruthTable(2, (0, 0, 0, 1))  # outputs 00,00,00,01
AND_DELTA = 9 / 4 * math.log2(3) - 3


def eval_linear(c, c0, x):
    """Pointwise reference: c0 xor (c . x mod 2) for bit strings c and x."""
    acc = c0
    for ci, xi in zip(c, x):
        acc ^= int(ci) & int(xi)
    return acc


def all_tables(n):
    size = 1 << n
    for outputs in itertools.product(range(size), repeat=size):
        yield TruthTable(n, outputs)


class TestDeltaEntropy:
    def test_cnot_table_vanishes(self):
        cnot = TruthTable(2, (0b00, 0b01, 0b11, 0b10))
        assert delta_entropy(cnot) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_table_vanishes(self, n):
        ident = TruthTable(n, tuple(range(1 << n)))
        assert delta_entropy(ident) == 0.0

    def test_and_based_table_value(self):
        assert abs(delta_entropy(AND_TABLE) - AND_DELTA) <= 1e-9

    def test_every_permutation_vanishes_at_n2(self):
        for perm in itertools.permutations(range(4)):
            assert abs(delta_entropy(TruthTable(2, perm))) <= 1e-12

    def test_input_indexed_sum_vanishes_on_some_non_bijections(self):
        # Transcription artifact, kept deliberately: equal fibre masses make
        # the input-indexed sum cancel even though information is lost.
        half = TruthTable(2, (0, 0, 1, 1))
        assert not is_reversible(half)
        assert delta_entropy(half) == 0.0

    def test_input_indexed_sum_can_go_negative_at_n3(self):
        # fibre profile (2, 1, 1, 1, 1, 1, 1)
        t = TruthTable(3, (0, 0, 1, 2, 3, 4, 5, 6))
        assert delta_entropy(t) == -0.25

    def test_nonnegative_exhaustively_at_n2(self):
        for table in all_tables(2):
            assert delta_entropy(table) >= 0.0

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_input_relabelling(self, rnd):
        n = 2
        outputs = [rnd.randrange(4) for _ in range(4)]
        perm = list(range(4))
        rnd.shuffle(perm)
        base = TruthTable(n, tuple(outputs))
        relabelled = TruthTable(n, tuple(outputs[perm[i]] for i in range(4)))
        assert abs(delta_entropy(base) - delta_entropy(relabelled)) <= 1e-12


class TestOutputEntropyGap:
    def test_zero_iff_permutation_exhaustive_n2(self):
        for table in all_tables(2):
            gap = output_entropy_gap(table)
            if is_reversible(table):
                assert abs(gap) <= 1e-12
            else:
                assert gap > 1e-12

    def test_nonnegative_on_random_n3_sample(self):
        rng = random.Random(123)
        for _ in range(100_000):
            table = TruthTable(3, tuple(rng.randrange(8) for _ in range(8)))
            assert output_entropy_gap(table) >= 0.0

    def test_and_table_gap(self):
        assert abs(output_entropy_gap(AND_TABLE) - 3 / 4 * math.log2(3)) <= 1e-12


class TestReversible:
    def test_cnot_reversible(self):
        assert is_reversible(TruthTable(2, (0, 1, 3, 2)))

    def test_constant_zero_not_reversible(self):
        assert not is_reversible(TruthTable(2, (0, 0, 0, 0)))

    def test_exhaustive_n2_against_permutation_oracle(self):
        # brute force: reversible must mean the outputs are a permutation
        for table in all_tables(2):
            assert is_reversible(table) == (
                sorted(table.outputs) == [0, 1, 2, 3]
            )


class TestTableParsing:
    def test_round_trip(self):
        text = "bits 2\n00 00\n01 00\n10 00\n11 01\n"
        assert parse_truth_table(text) == AND_TABLE

    def test_rejects_out_of_order_rows(self):
        with pytest.raises(ValueError):
            parse_truth_table("bits 1\n1 0\n0 0\n")

    def test_rejects_missing_row(self):
        with pytest.raises(ValueError):
            parse_truth_table("bits 2\n00 00\n01 00\n10 00\n")

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            parse_truth_table("bits 2\n00 0\n01 00\n10 00\n11 00\n")

    # 2**n is spelt out while short; 2**100000 has over 30000 digits.
    # (bits 40000000000 runs in tests/test_cli.py, under a memory cap.)
    @pytest.mark.parametrize("n,size", [
        (63, "9223372036854775808"), (64, "2**64"), (100000, "2**100000"),
    ])
    def test_huge_header_is_rejected_without_building_2_pow_n(self, n, size):
        with pytest.raises(ValueError, match=rf"^expected {re.escape(size)} rows, got 0$"):
            parse_truth_table(f"bits {n}\n")
        with pytest.raises(ValueError, match=rf"^expected {re.escape(size)} outputs, got 0$"):
            TruthTable(n, ())

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_truth_table("00 00\n")


class TestLinearForms:
    """Column c of `polarity_table(n)` is the polarity vector of the form
    whose coefficient bits are c, most significant first."""

    def test_zero_form(self):
        for x in range(8):
            assert eval_linear("000", 0, f"{x:03b}") == 0
        assert polarity_table(3)[:, 0].tolist() == [1] * 8

    def test_single_bit(self):
        assert eval_linear("11", 0, "01") == 1
        assert polarity_table(2)[0b01, 0b11] == -1

    def test_negation_constant(self):
        assert eval_linear("1", 1, "1") == 0
        assert eval_linear("1", 1, "0") == 1
        assert (-polarity_table(1)[:, 1]).tolist() == [-1, 1]

    def test_polarity_all_ones_for_zero_form(self):
        assert polarity_table(2)[:, 0].tolist() == [1, 1, 1, 1]

    def test_polarity_single_bit(self):
        assert polarity_table(1)[:, 1].tolist() == [1, -1]

    def test_affine_negates_entrywise(self):
        table = polarity_table(2)
        for c in range(4):
            assert [(-1) ** eval_linear(f"{c:02b}", 1, f"{x:02b}") for x in range(4)] == [
                -v for v in table[:, c]
            ]

    def test_count_of_linear_forms(self):
        for n in range(1, 5):
            table = polarity_table(n)
            assert table.shape[1] == 1 << n
            assert len({tuple(col) for col in table.T}) == 1 << n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_polarity_matches_pointwise_reference(self, n):
        table = polarity_table(n)
        for c in range(1 << n):
            for c0 in (0, 1):
                want = [(-1) ** eval_linear(f"{c:0{n}b}", c0, f"{x:0{n}b}")
                        for x in range(1 << n)]
                assert [(-1) ** c0 * v for v in table[:, c]] == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_polarity_table_columns_are_the_forms_polarity_vectors(self, n):
        table = polarity_table(n)
        assert table.shape == (1 << n, 1 << n)
        for c in range(1 << n):
            assert list(table[:, c]) == [
                (-1) ** eval_linear(f"{c:0{n}b}", 0, f"{x:0{n}b}") for x in range(1 << n)
            ]

    def test_polarity_vectors_orthogonal(self):
        n = 3
        table = polarity_table(n)
        np.testing.assert_array_equal(table.T @ table, (1 << n) * np.eye(1 << n))


class TestHadamardColumns:
    def test_n1_columns(self):
        rep = verify_hadamard_column_indexing(1)
        assert rep.status is RelationStatus.EXACT_HOLD, rep.record()
        assert rep.max_deviation <= 1e-12

    def test_n2_column_11_by_hand(self):
        # Kronecker product by hand: column 11 is (1, -1, -1, 1) / 2
        mat = to_np(hadamard_power(2)).reshape(4, 4)
        np.testing.assert_allclose(
            mat[:, 3], np.array([1, -1, -1, 1]) / 2, atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_columns_match_scaled_polarity(self, n):
        rep = verify_hadamard_column_indexing(n)
        assert rep.status is RelationStatus.EXACT_HOLD, rep.record()
        assert rep.max_deviation <= 1e-12

    def test_matches_numpy_kron(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        want = np.kron(np.kron(h, h), h)
        got = to_np(hadamard_power(3)).reshape(8, 8)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_hadamard_column_indexing(7)
