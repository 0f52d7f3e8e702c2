"""The primitive generator tensors and the small maps built from them.

Five primitives generate the whole gate set: the copy tensor, the XOR
tensor, the Hadamard matrix, the phase vectors (1, i**k), and the
all-ones covector.  The gates themselves are built from these in one
place, `circuits.compile_circuit`.  Vectors are kept unnormalised exactly
as defined, so identities built from them may hold only up to a recorded
scalar.
"""

from __future__ import annotations

import math

from stabtensor.tensor import Tensor, contract_pair, max_abs_diff, tensor_from_fn

SQRT_HALF = 1.0 / math.sqrt(2.0)

# i**k by quadrant; never computed through floating trig.
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def copy_tensor() -> Tensor:
    """Rank-3 copy tensor: 1 exactly when all three legs agree."""
    return tensor_from_fn(3, lambda i, j, k: 1 - (i + j + k) + i * j + i * k + j * k)


def xor_tensor() -> Tensor:
    """Rank-3 parity tensor: 1 exactly when one leg is the XOR of the others."""
    return tensor_from_fn(
        3,
        lambda q, r, s: 1 - (q + r + s) + 2 * (q * r + q * s + s * r) - 4 * q * r * s,
    )


def hadamard() -> Tensor:
    return tensor_from_fn(2, lambda i, j: SQRT_HALF * (-1) ** (i * j))


def t_vector(k: int) -> Tensor:
    """The unnormalised vector (1, i**k); period 4 in k."""
    return Tensor(1, (1, I_POWERS[k % 4]))


def plus_covector() -> Tensor:
    return Tensor(1, (1, 1))


def ket_zero() -> Tensor:
    return Tensor(1, (1, 0))


def ket_one() -> Tensor:
    return Tensor(1, (0, 1))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"generator self-check failed: {what}")


def cup() -> Tensor:
    """Rank-2 index-raiser with entries 1 at (0,0) and (1,1).

    Built from the generators: the copy tensor with the all-ones vector
    contracted into its input leg, checked against the direct definition.
    """
    built = contract_pair(copy_tensor(), (0,), Tensor(1, (1, 1)), (0,))
    direct = Tensor(2, (1, 0, 0, 1))
    _require(max_abs_diff(built, direct) == 0.0, "cup from copy tensor")
    return built


def cap() -> Tensor:
    """Covariant counterpart of cup(); identical entries."""
    return cup()


def identity_map() -> Tensor:
    """The identity operator, legs ordered (out, in)."""
    return Tensor(2, (1, 0, 0, 1))


def pointwise_product(u: Tensor, v: Tensor) -> Tensor:
    """Entrywise product of two vectors, realised through the copy tensor."""
    if u.rank != 1 or v.rank != 1:
        raise ValueError(f"pointwise_product needs rank-1 inputs, got {u.rank}, {v.rank}")
    half = contract_pair(copy_tensor(), (1,), u, (0,))
    built = contract_pair(half, (1,), v, (0,))
    direct = Tensor(1, (u.data[0] * v.data[0], u.data[1] * v.data[1]))
    _require(max_abs_diff(built, direct) == 0.0, "pointwise product via copy tensor")
    return built


_BY_NAME = {
    "copy": copy_tensor,
    "xor": xor_tensor,
    "hadamard": hadamard,
    "plus_covector": plus_covector,
    "ket0": ket_zero,
    "ket1": ket_one,
    "cup": cup,
    "cap": cap,
}


def by_name(name: str) -> Tensor:
    """Look up a generator by name; 't0'..'t3' select the phase vectors."""
    if name in _BY_NAME:
        return _BY_NAME[name]()
    if len(name) == 2 and name[0] == "t" and name[1].isdigit():
        return t_vector(int(name[1]))
    raise ValueError(f"unknown generator {name!r}")
