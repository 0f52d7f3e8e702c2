"""The primitive generator tensors and the small maps built from them.

Five primitives generate the whole gate set: the copy tensor, the XOR
tensor, the Hadamard matrix, the phase vectors (1, i**k), and the
all-ones covector.  The gates themselves are built from these in one
place, `circuits.compile_circuit`.  Vectors are kept unnormalised exactly
as defined, so identities built from them may hold only up to a recorded
scalar.

Each generator, the identity map and the cup are built once at import
(the cup with its self-check); the functions below return those shared
instances.  Sharing is safe because a `Tensor` is immutable and its array
is read-only.  These functions are the one way to reach a generator, and
callers look them up at call time, so a test that patches one (say
`xor_tensor`) reaches both the relation networks and every circuit
`compile_circuit` builds.
"""

from __future__ import annotations

import math

from stabtensor.tensor import Tensor, contract_pair, max_abs_diff, tensor_from_fn

SQRT_HALF = 1.0 / math.sqrt(2.0)

# i**k by quadrant; never computed through floating trig.
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


_COPY = tensor_from_fn(3, lambda i, j, k: 1 - (i + j + k) + i * j + i * k + j * k)
_XOR = tensor_from_fn(
    3, lambda q, r, s: 1 - (q + r + s) + 2 * (q * r + q * s + s * r) - 4 * q * r * s,
)
_HADAMARD = tensor_from_fn(2, lambda i, j: SQRT_HALF * (-1) ** (i * j))
_T_VECTORS = tuple(Tensor(1, (1, power)) for power in I_POWERS)
_PLUS = Tensor(1, (1, 1))
_KET_ZERO = Tensor(1, (1, 0))
_KET_ONE = Tensor(1, (0, 1))
_IDENTITY = Tensor(2, (1, 0, 0, 1))


def copy_tensor() -> Tensor:
    """Rank-3 copy tensor: 1 exactly when all three legs agree."""
    return _COPY


def xor_tensor() -> Tensor:
    """Rank-3 parity tensor: 1 exactly when one leg is the XOR of the others."""
    return _XOR


def hadamard() -> Tensor:
    return _HADAMARD


def t_vector(k: int) -> Tensor:
    """The unnormalised vector (1, i**k); period 4 in k."""
    return _T_VECTORS[k % 4]


def plus_covector() -> Tensor:
    return _PLUS


def ket_zero() -> Tensor:
    return _KET_ZERO


def ket_one() -> Tensor:
    return _KET_ONE


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"generator self-check failed: {what}")


_CUP = contract_pair(_COPY, (0,), _PLUS, (0,))
_require(max_abs_diff(_CUP, _IDENTITY) == 0.0, "cup from copy tensor")


def cup() -> Tensor:
    """Rank-2 index-raiser with entries 1 at (0,0) and (1,1).

    Built once, at import, from the generators: the copy tensor with the
    all-ones vector contracted into its input leg, checked against the
    direct definition.
    """
    return _CUP


def cap() -> Tensor:
    """Covariant counterpart of cup(); the same tensor."""
    return cup()


def identity_map() -> Tensor:
    """The identity operator, legs ordered (out, in)."""
    return _IDENTITY


def pointwise_product(u: Tensor, v: Tensor) -> Tensor:
    """Entrywise product of two vectors, realised through the copy tensor."""
    if u.rank != 1 or v.rank != 1:
        raise ValueError(f"pointwise_product needs rank-1 inputs, got {u.rank}, {v.rank}")
    half = contract_pair(copy_tensor(), (1,), u, (0,))
    built = contract_pair(half, (1,), v, (0,))
    direct = Tensor(1, (u.data[0] * v.data[0], u.data[1] * v.data[1]))
    _require(max_abs_diff(built, direct) == 0.0, "pointwise product via copy tensor")
    return built
