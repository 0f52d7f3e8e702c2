import numpy as np
import pytest

from stabtensor import tensor
from stabtensor.tensor import Tensor


def to_np(t: Tensor) -> np.ndarray:
    return np.array(t.data, dtype=complex).reshape(t.shape)


def random_tensor(rng, rank: int) -> Tensor:
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << rank)]
    return Tensor(rank, data)


def observed_ranks(net, order=None) -> tuple[list[int], list[int]]:
    """Contract `net`; return the rank of each contract_pair result and the
    rank of every tensor the contraction built, both in the order built.
    A tensor is built by the public constructor or, for a contract_pair
    result, by the private one that wraps the kernel's output."""
    merged, built = [], []
    pair, init, wrap = tensor.contract_pair, Tensor.__init__, tensor._wrap_result

    def recording_pair(*args):
        out = pair(*args)
        merged.append(out.rank)
        return out

    def recording_init(self, rank, data):
        built.append(rank)
        init(self, rank, data)

    def recording_wrap(rank, arr):
        built.append(rank)
        return wrap(rank, arr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "contract_pair", recording_pair)
        mp.setattr(Tensor, "__init__", recording_init)
        mp.setattr(tensor, "_wrap_result", recording_wrap)
        net.contract(order)
    return merged, built


def assert_plan_is_observed(net, order=None) -> None:
    """Each plan step builds one tensor of the step's rank, in plan order,
    so the plan's peak is the largest rank the contraction builds."""
    steps = net.plan(order)
    merged, built = observed_ranks(net, order)
    assert built == [s.rank for s in steps]
    assert merged == [s.rank for s in steps if s.kind == "merge"]
