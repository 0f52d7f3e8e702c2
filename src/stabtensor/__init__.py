"""stabtensor: tensor networks over the stabilizer generator set.

Builds circuits from five primitive tensors (copy, XOR, Hadamard, the
phase vectors (1, i**k) and the all-ones covector), contracts them, and
machine-checks the algebraic identities the construction rests on.
Independent dense and tableau simulators cross-check every result.
"""

from stabtensor.tensor import (
    DEFAULT_TOL,
    Tensor,
    TensorNetwork,
    contract_pair,
    equal_up_to_scalar,
    max_abs_diff,
    tensor_from_fn,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tensor",
    "TensorNetwork",
    "contract_pair",
    "equal_up_to_scalar",
    "kernel_backend",
    "max_abs_diff",
    "tensor_from_fn",
]


def kernel_backend() -> str:
    """The contraction kernels in use; numpy is the only backend."""
    return "numpy"
