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


def check_rank(rank: int, what: str) -> None:
    """Raise RankBudgetError if `what`, of rank `rank`, exceeds MAX_RANK."""
    if rank > MAX_RANK:
        raise RankBudgetError(f"{what} has rank {rank}; the rank budget is {MAX_RANK}")


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
    check_rank(out_rank, "contraction result")
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


class PlanStep(NamedTuple):
    """One step of a contraction plan; cluster k starts as the k-th node.

    merge: contract legs_a of cluster a with legs_b of cluster b (no legs
    for an outer product) into cluster min(a, b).  trace: sum leg legs_a[0]
    of cluster a against its leg legs_a[1].  permute: move leg k of
    cluster a to position legs_a[k], giving the result.  unit: the scalar
    1, the result of a network without nodes.  rank is the result's rank.
    """

    kind: str
    rank: int
    a: int = -1
    b: int = -1
    legs_a: tuple[int, ...] = ()
    legs_b: tuple[int, ...] = ()


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

    def plan(self, order: Sequence[int] | None = None) -> list[PlanStep]:
        """The steps `contract` runs, decided on leg positions alone.

        Bonds are taken in declared order, or in `order` (a permutation of
        bond indices) when given.  A bond between two clusters merges them
        over every bond they share in one step, so a bond left inside one
        cluster is a node bonded to itself, and is traced.  Clusters still
        apart at the end are outer-producted in first-seen node order, and
        the last step puts the open legs in declared order.  Raises
        RankBudgetError at the first step whose result rank would exceed
        MAX_RANK, before any tensor is touched.  Compiled circuits declare
        their bonds in gate order, which keeps the peak within
        max(n + 1, 4) for an n-wire state and 2n for an operator.
        """
        if order is None:
            order = range(len(self.bonds))
        elif sorted(order) != list(range(len(self.bonds))):
            raise ValueError("order must be a permutation of the bond indices")
        # The result has one leg per open leg, and so does the widest outer
        # product; a trace only shrinks its cluster.  Merges are checked below.
        check_rank(len(self.open_legs), "the network's result")

        steps: list[PlanStep] = []
        # Every live leg -> the leg it is bonded to (None for an open leg).
        # Summed legs are dropped.
        partner: dict[tuple[Hashable, int], tuple[Hashable, int] | None]
        partner = dict.fromkeys(self.open_legs)
        for bond in self.bonds:
            partner[bond.node_a, bond.leg_a] = (bond.node_b, bond.leg_b)
            partner[bond.node_b, bond.leg_b] = (bond.node_a, bond.leg_a)

        # cluster id -> provenance of each leg as (node, leg).  A merged
        # cluster keeps the smaller id, so ids ascend in first-seen node
        # order.  owner stays current only for nodes with live legs.
        legmaps: dict[int, list[tuple[Hashable, int]]] = {}
        owner: dict[Hashable, int] = {}
        for cid, (node, tensor) in enumerate(self.nodes.items()):
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
                del partner[ref_a], partner[ref_b]
                legmaps[ca] = [ref for ref in legs_a if ref in partner]
                axes = (legs_a.index(ref_a), legs_a.index(ref_b))
                steps.append(PlanStep("trace", len(legmaps[ca]), ca, legs_a=axes))
                continue
            # Every leg of cb bonded into ca, ordered by its partner's
            # position in ca.
            shared_a, shared_b = zip(*sorted(
                (legs_a.index(partner[ref]), k)
                for k, ref in enumerate(legmaps[cb])
                if partner[ref] is not None and owner[partner[ref][0]] == ca
            ))
            for k in shared_a:
                del partner[partner.pop(legs_a[k])]
            keep, gone = min(ca, cb), max(ca, cb)
            for node, _ in legmaps[gone]:
                owner[node] = keep
            merged = [ref for ref in legs_a + legmaps[cb] if ref in partner]
            check_rank(len(merged), "a merge in the contraction plan")
            del legmaps[gone]
            legmaps[keep] = merged
            steps.append(PlanStep("merge", len(merged), ca, cb, shared_a, shared_b))

        if not legmaps:
            return [PlanStep("unit", 0)]
        first, *rest = legmaps
        result_legs = legmaps[first]
        for cid in rest:
            result_legs += legmaps[cid]
            steps.append(PlanStep("merge", len(result_legs), first, cid))
        perm = tuple(self.open_legs.index(ref) for ref in result_legs)
        steps.append(PlanStep("permute", len(perm), first, legs_a=perm))
        return steps

    def contract(self, order: Sequence[int] | None = None) -> Tensor:
        """Run `plan(order)` and return the open legs in declared order.

        Nothing is contracted if the plan exceeds the rank budget.  The
        result is order-independent up to floating-point rounding.
        """
        *body, last = self.plan(order)
        tensors: list[Tensor | None] = list(self.nodes.values())
        for kind, rank, a, b, legs_a, legs_b in body:
            if kind == "merge":
                merged = contract_pair(tensors[a], legs_a, tensors[b], legs_b)
                tensors[max(a, b)] = None  # absorbed: released right away
                tensors[min(a, b)] = merged
            else:  # "trace"
                traced = np.trace(tensors[a].array, axis1=legs_a[0], axis2=legs_a[1])
                tensors[a] = Tensor(rank, traced)
        if last.kind == "unit":
            return Tensor(0, (1,))
        return permute_legs(tensors[last.a], last.legs_a)
