"""Dense complex tensors over dimension-2 legs, and networks of them.

Layout convention, used everywhere in this package: a rank-r tensor holds
one read-only complex128 array of shape (2,)*r, and `Tensor.data` lists
the same 2**r entries flat in row-major leg order, the leftmost leg being
the most significant bit of the flat index.  A rank-0 tensor is a scalar.

Tensors and networks are immutable once constructed and safe to share
across threads.  Contraction of a single network is single-threaded;
disjoint networks may be contracted in parallel.
"""

from __future__ import annotations

import operator
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

Amplitude = complex

DEFAULT_TOL = 1e-10

# Largest tensor rank `contract_pair` will build: one 256 MiB complex128
# array, which stays under 2 GiB with the kernel's transposed copies.
MAX_RANK = 24


class RankBudgetError(ValueError):
    """A contraction would build a tensor of rank above MAX_RANK."""


class Tensor:
    """Immutable dense tensor; every leg has dimension 2."""

    __slots__ = ("_rank", "_array")

    def __init__(self, rank: int, data: Iterable[complex]):
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        if not isinstance(data, (np.ndarray, np.generic, list, tuple)):
            data = list(data)  # np.array would wrap an iterator as one object
        # Always a private copy: later writes by the caller cannot reach it.
        arr = np.array(data, dtype=np.complex128, order="C")
        if arr.size != 1 << rank:
            raise ValueError(
                f"rank-{rank} tensor needs {1 << rank} entries, got {arr.size}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"non-finite amplitude {arr[~finite][0].item()!r}")
        arr.flags.writeable = False
        self._rank = rank
        self._array = arr.reshape((2,) * rank)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def shape(self) -> tuple[int, ...]:
        return (2,) * self._rank

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only complex128 array of shape (2,)*rank."""
        return self._array

    @property
    def data(self) -> tuple[complex, ...]:
        """The entries flat in row-major leg order, as Python complex."""
        return tuple(self._array.reshape(-1).tolist())

    def __getitem__(self, idx) -> complex:
        if isinstance(idx, tuple):
            if len(idx) != self._rank:
                raise IndexError(f"expected {self._rank} indices, got {len(idx)}")
            flat = 0
            for bit in idx:
                if bit not in (0, 1):
                    raise IndexError(f"leg index must be 0 or 1, got {bit}")
                flat = (flat << 1) | bit
            return self._array.item(flat)
        if isinstance(idx, slice):
            return self.data[idx]
        return self._array.reshape(-1).item(operator.index(idx))

    def item(self) -> complex:
        if self._rank != 0:
            raise ValueError(f"item() on rank-{self._rank} tensor")
        return self._array.item()

    def scale(self, factor: complex) -> Tensor:
        return Tensor(self._rank, factor * self._array)

    def __repr__(self) -> str:
        if self._rank <= 2:
            return f"Tensor(rank={self._rank}, data={self.data!r})"
        return f"Tensor(rank={self._rank}, <{self._array.size} entries>)"


def tensor_from_fn(rank: int, fn: Callable[..., complex]) -> Tensor:
    """Build a tensor by evaluating fn on every index tuple over {0,1}."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    data = []
    for flat in range(1 << rank):
        idx = tuple((flat >> (rank - 1 - k)) & 1 for k in range(rank))
        data.append(complex(fn(*idx)))
    return Tensor(rank, data)


def _check_legs(legs: Sequence[int], rank: int, side: str) -> None:
    seen = set()
    for p in legs:
        if not 0 <= p < rank:
            raise ValueError(f"{side} leg {p} out of range for rank {rank}")
        if p in seen:
            raise ValueError(f"duplicate {side} leg {p}")
        seen.add(p)


def contract_pair(
    a: Tensor, legs_a: Sequence[int], b: Tensor, legs_b: Sequence[int]
) -> Tensor:
    """Contract paired legs of a and b (legs_a[t] sums against legs_b[t]).

    Surviving legs of a precede surviving legs of b, each group keeping its
    original order.  Zero pairs gives the outer product.  Raises
    RankBudgetError, before allocating, if the result's rank exceeds
    MAX_RANK.
    """
    if len(legs_a) != len(legs_b):
        raise ValueError(
            f"leg lists differ in length: {len(legs_a)} vs {len(legs_b)}"
        )
    _check_legs(legs_a, a.rank, "first")
    _check_legs(legs_b, b.rank, "second")
    free_a = [p for p in range(a.rank) if p not in legs_a]
    free_b = [p for p in range(b.rank) if p not in legs_b]
    out_rank = len(free_a) + len(free_b)
    if out_rank > MAX_RANK:
        raise RankBudgetError(
            f"contraction result has rank {out_rank}, above the budget {MAX_RANK}"
        )
    # np.tensordot's own steps, without its generic argument handling:
    # summed legs last in a and first in b, both flattened to 2-D, one dot.
    summed = 1 << len(legs_a)
    mat_a = a.array.transpose(free_a + list(legs_a)).reshape(-1, summed)
    mat_b = b.array.transpose(list(legs_b) + free_b).reshape(summed, -1)
    return Tensor(out_rank, np.dot(mat_a, mat_b))


def outer(a: Tensor, b: Tensor) -> Tensor:
    return contract_pair(a, (), b, ())


def permute_legs(a: Tensor, perm: Sequence[int]) -> Tensor:
    """Return the tensor with leg k of `a` moved to position perm[k]."""
    if sorted(perm) != list(range(a.rank)):
        raise ValueError(f"{list(perm)} is not a permutation of 0..{a.rank - 1}")
    source = [0] * a.rank
    for k, p in enumerate(perm):
        source[p] = k
    return Tensor(a.rank, a.array.transpose(source))


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    if a.rank != b.rank:
        raise ValueError(f"shape mismatch: rank {a.rank} vs {b.rank}")
    return float(np.abs(a.array - b.array).max())


def max_scaled_diff(a: Tensor, factor: complex, b: Tensor) -> float:
    if a.rank != b.rank:
        raise ValueError(f"shape mismatch: rank {a.rank} vs {b.rank}")
    return float(np.abs(a.array - factor * b.array).max())


def equal_up_to_scalar(a: Tensor, b: Tensor, tol: float = DEFAULT_TOL) -> complex | None:
    """Return lam with max|a - lam*b| <= tol, or None if no such scalar.

    lam is fixed by the largest-magnitude entry of b (first one on ties).
    Two all-zero tensors compare equal with lam = 1.
    """
    if a.rank != b.rank:
        raise ValueError(f"shape mismatch: rank {a.rank} vs {b.rank}")
    flat_b = b.array.reshape(-1)
    pivot = int(np.argmax(np.abs(flat_b)))
    if flat_b[pivot] == 0:
        if np.abs(a.array).max() <= tol:
            return 1 + 0j
        return None
    lam = a.array.item(pivot) / flat_b.item(pivot)
    if max_scaled_diff(a, lam, b) <= tol:
        return lam
    return None


class LegBinding(NamedTuple):
    """One bond: leg leg_a of node_a is summed against leg leg_b of node_b."""

    node_a: Hashable
    leg_a: int
    node_b: Hashable
    leg_b: int


def _as_binding(bond) -> LegBinding:
    if isinstance(bond, LegBinding):
        return bond
    if len(bond) == 4:
        return LegBinding(*bond)
    (na, la), (nb, lb) = bond
    return LegBinding(na, la, nb, lb)


class TensorNetwork:
    """Nodes, bonds between legs, and an ordered list of open legs.

    Every leg of every node must appear in exactly one bond or exactly one
    open-leg slot.  The open-leg order fixes the leg order of the
    contracted result.
    """

    def __init__(
        self,
        nodes: dict[Hashable, Tensor],
        bonds: Sequence,
        open_legs: Sequence[tuple[Hashable, int]],
    ):
        self.nodes = dict(nodes)
        self.bonds = tuple(_as_binding(b) for b in bonds)
        self.open_legs = tuple((n, int(l)) for n, l in open_legs)
        self._validate()

    def _validate(self) -> None:
        seen: set[tuple[Hashable, int]] = set()

        def claim(node, leg, what):
            if node not in self.nodes:
                raise ValueError(f"{what} references unknown node {node!r}")
            if not 0 <= leg < self.nodes[node].rank:
                raise ValueError(
                    f"{what} references leg {leg} of node {node!r} "
                    f"(rank {self.nodes[node].rank})"
                )
            key = (node, leg)
            if key in seen:
                raise ValueError(f"leg {key} used more than once")
            seen.add(key)

        for bond in self.bonds:
            claim(bond.node_a, bond.leg_a, "bond")
            claim(bond.node_b, bond.leg_b, "bond")
        for node, leg in self.open_legs:
            claim(node, leg, "open leg")
        for node, tensor in self.nodes.items():
            for leg in range(tensor.rank):
                if (node, leg) not in seen:
                    raise ValueError(f"dangling leg ({node!r}, {leg})")

    def contract(self, order: Sequence[int] | None = None) -> Tensor:
        """Contract every bond and return the open legs in declared order.

        Bonds are taken in declared order, or in `order` (a permutation of
        bond indices) when given.  A bond between two clusters merges them
        over every bond they share in one `contract_pair` call, so a bond
        left inside one cluster is a node bonded to itself, and is traced.
        Compiled circuits declare their bonds in gate order, which bounds
        the peak intermediate rank by the circuit width n: at most
        max(n + 1, 4) for a state and 2n for an operator.  The result is
        order-independent up to floating-point rounding.
        """
        if order is None:
            order = range(len(self.bonds))
        elif sorted(order) != list(range(len(self.bonds))):
            raise ValueError("order must be a permutation of the bond indices")

        # Every live leg -> the leg it is bonded to (None for an open leg).
        # Summed legs are dropped.
        partner: dict[tuple[Hashable, int], tuple[Hashable, int] | None]
        partner = dict.fromkeys(self.open_legs)
        for bond in self.bonds:
            partner[bond.node_a, bond.leg_a] = (bond.node_b, bond.leg_b)
            partner[bond.node_b, bond.leg_b] = (bond.node_a, bond.leg_a)

        # cluster id -> (tensor, provenance of each leg as (node, leg)).  A
        # merged cluster keeps the smaller id, so ids ascend in first-seen
        # node order.  owner stays current only for nodes with live legs.
        tensors: dict[int, Tensor] = {}
        legmaps: dict[int, list[tuple[Hashable, int]]] = {}
        owner: dict[Hashable, int] = {}
        for cid, (node, tensor) in enumerate(self.nodes.items()):
            tensors[cid] = tensor
            legmaps[cid] = [(node, leg) for leg in range(tensor.rank)]
            owner[node] = cid

        for idx in order:
            bond = self.bonds[idx]
            ref_a, ref_b = (bond.node_a, bond.leg_a), (bond.node_b, bond.leg_b)
            if ref_a not in partner:
                continue  # summed when its two clusters merged
            ca, cb = owner[bond.node_a], owner[bond.node_b]
            legs_a = legmaps[ca]
            if ca == cb:
                traced = np.trace(
                    tensors[ca].array,
                    axis1=legs_a.index(ref_a),
                    axis2=legs_a.index(ref_b),
                )
                del partner[ref_a], partner[ref_b]
                tensors[ca] = Tensor(tensors[ca].rank - 2, traced)
                legmaps[ca] = [ref for ref in legs_a if ref in partner]
                continue
            pos_b = {ref: k for k, ref in enumerate(legmaps[cb])}
            shared_a, shared_b = zip(*(
                (k, pos_b[partner[ref]])
                for k, ref in enumerate(legs_a)
                if partner[ref] in pos_b
            ))
            for k in shared_a:
                del partner[partner.pop(legs_a[k])]
            merged = contract_pair(tensors[ca], shared_a, tensors[cb], shared_b)
            keep, gone = min(ca, cb), max(ca, cb)
            for node, _ in legmaps[gone]:
                owner[node] = keep
            legmaps[keep] = [ref for ref in legs_a + legmaps[cb] if ref in partner]
            tensors[keep] = merged
            del tensors[gone], legmaps[gone]

        # Outer-product the disconnected clusters in first-seen node order.
        result: Tensor | None = None
        result_legs: list[tuple[Hashable, int]] = []
        for cid, tensor in tensors.items():
            result = tensor if result is None else contract_pair(result, (), tensor, ())
            result_legs += legmaps[cid]
        if result is None:
            return Tensor(0, (1,))

        perm = [self.open_legs.index(ref) for ref in result_legs]
        return permute_legs(result, perm)
