import numpy as np

from stabtensor.tensor import Tensor


def to_np(t: Tensor) -> np.ndarray:
    return np.array(t.data, dtype=complex).reshape(t.shape)


def random_tensor(rng, rank: int) -> Tensor:
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << rank)]
    return Tensor(rank, data)
