"""The primitive generator tensors and the small maps built from them.

Five primitives generate the whole gate set: the copy tensor, the XOR
tensor, the Hadamard matrix, the phase vectors (1, i**k), and the
all-ones covector.  The gates themselves are built from these in one
place, `circuits.compile_circuit`.  Vectors are kept unnormalised exactly
as defined, so identities built from them may hold only up to a recorded
scalar.

Each generator and the identity map are built once at import; the
functions below return those shared instances.  Sharing is safe because
a `Tensor` is immutable and its array is read-only.  These functions are
the one way to reach a generator, and callers look them up at call time,
so a test that patches one (say `xor_tensor`) reaches both the relation
networks and every circuit `compile_circuit` builds.  The cup, copy with
the all-ones covector on one leg, is the identity map; `verify` reports
that law as the second half of `unit-laws`.
"""

from __future__ import annotations

import math

# contract_pair is unused here; perfbench's tracer test reads it as
# `generators.contract_pair`.
from stabtensor.tensor import Tensor, as_int, contract_pair, tensor_from_fn  # noqa: F401

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
    return _T_VECTORS[as_int(k, "t_vector k") % 4]


def plus_covector() -> Tensor:
    return _PLUS


def ket_zero() -> Tensor:
    return _KET_ZERO


def ket_one() -> Tensor:
    return _KET_ONE


def identity_map() -> Tensor:
    """The identity operator, legs ordered (out, in)."""
    return _IDENTITY
