import numpy as np
import pytest

from stabtensor import tensor
from stabtensor.tensor import Tensor


def to_np(t: Tensor) -> np.ndarray:
    return np.array(t.data, dtype=complex).reshape(t.array.shape)


def random_tensor(rng, rank: int) -> Tensor:
    data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1 << rank)]
    return Tensor(rank, data)


def observed_ranks(net, order=None) -> tuple[list[int], list[int], list[int]]:
    """Contract `net`; return, each in order, the rank of every
    contract_pair result, of every tensor a step yields, and of every
    tensor the kernel built.

    A step's tensor is a contract_pair result, whether stored or built, or
    one made by the public constructor (trace, permute, unit).  The kernel
    builds a tensor only where contract_pair runs it: a stored product
    (`tensor.store_product`) builds none."""
    merged, built, kernel = [], [], []
    pair, init, wrap = tensor.contract_pair, Tensor.__init__, tensor._wrap_result

    def recording_pair(*args):
        out = pair(*args)
        merged.append(out.rank)
        built.append(out.rank)
        return out

    def recording_init(self, rank, data):
        built.append(rank)
        init(self, rank, data)

    def recording_wrap(rank, arr):
        kernel.append(rank)
        return wrap(rank, arr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "contract_pair", recording_pair)
        mp.setattr(Tensor, "__init__", recording_init)
        mp.setattr(tensor, "_wrap_result", recording_wrap)
        net.contract(order)
    return merged, built, kernel


def assert_plan_is_observed(net, order=None) -> None:
    """Each plan step yields one tensor of the step's rank, in plan order,
    each merge through contract_pair, and the kernel builds the merges no
    stored product answers, so nothing above the plan's peak."""
    steps = net.plan(order)
    merged, built, kernel = observed_ranks(net, order)
    assert built == [s.rank for s in steps]
    assert merged == [s.rank for s in steps if s.kind == "merge"]
    stored = tensor.stored_merges(list(net.nodes.values()), steps)
    merges = [s for s in steps if s.kind == "merge"]
    assert kernel == [s.rank for s, known in zip(merges, stored) if known is None]


@pytest.fixture()
def kernel_runs(monkeypatch) -> list[int]:
    """The rank of each tensor the kernel builds during the test; a stored
    product (`tensor.store_product`) builds none."""
    runs = []
    wrap = tensor._wrap_result

    def recording(rank, arr):
        runs.append(rank)
        return wrap(rank, arr)

    monkeypatch.setattr(tensor, "_wrap_result", recording)
    return runs
