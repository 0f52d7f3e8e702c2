"""contract_pair against an independent np.einsum reference."""

import random
import string

import numpy as np
import pytest

from stabtensor.tensor import Tensor, contract_pair

# Operands are built from Python tuples of complex and from numpy arrays:
# the constructor must store both the same way.
SOURCES = [
    pytest.param(lambda arr: tuple(arr.reshape(-1).tolist()), id="python"),
    pytest.param(lambda arr: arr, id="numpy"),
]


def _random_array(rng, rank):
    flat = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << rank)]
    return np.array(flat).reshape((2,) * rank)


def _einsum_contract(a, legs_a, b, legs_b):
    # Explicit subscripts: paired legs share a letter, free legs of `a`
    # precede free legs of `b` in the output.
    letters = iter(string.ascii_letters)
    sub_a = [next(letters) for _ in range(a.ndim)]
    sub_b = [next(letters) for _ in range(b.ndim)]
    for pa, pb in zip(legs_a, legs_b):
        sub_b[pb] = sub_a[pa]
    out = [s for k, s in enumerate(sub_a) if k not in legs_a]
    out += [s for k, s in enumerate(sub_b) if k not in legs_b]
    spec = f"{''.join(sub_a)},{''.join(sub_b)}->{''.join(out)}"
    return np.einsum(spec, a, b)


SHAPES = [
    (0, [], 0, []),
    (1, [], 2, []),
    (3, [0], 1, [0]),
    (3, [1, 2], 2, [0, 1]),
    (4, [0, 3], 4, [2, 1]),
    (5, [4, 0, 2], 3, [1, 0, 2]),
    (6, [5], 2, [0]),
    (2, [0, 1], 2, [1, 0]),
]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("rank_a,legs_a,rank_b,legs_b", SHAPES)
def test_contract_matches_numpy(source, rank_a, legs_a, rank_b, legs_b):
    rng = random.Random(11 + rank_a * 7 + rank_b)
    a = _random_array(rng, rank_a)
    b = _random_array(rng, rank_b)
    got = contract_pair(Tensor(rank_a, source(a)), legs_a, Tensor(rank_b, source(b)), legs_b)
    want = _einsum_contract(a, legs_a, b, legs_b)
    assert got.rank == want.ndim
    np.testing.assert_allclose(got.array, want, atol=1e-13)


@pytest.mark.parametrize("rank_a,legs_a,rank_b,legs_b", SHAPES)
def test_contract_is_bit_identical_to_tensordot(rank_a, legs_a, rank_b, legs_b):
    # The kernel runs tensordot's transpose, reshape and dot itself: the
    # same arithmetic in the same order, so every bit must agree.
    rng = random.Random(23 + rank_a * 7 + rank_b)
    a = _random_array(rng, rank_a)
    b = _random_array(rng, rank_b)
    got = contract_pair(Tensor(rank_a, a), legs_a, Tensor(rank_b, b), legs_b)
    assert np.array_equal(got.array, np.tensordot(a, b, axes=(legs_a, legs_b)))
