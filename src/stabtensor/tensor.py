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

import itertools
import math
import operator
from functools import partial
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

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
    """Immutable dense tensor; every leg has dimension 2.

    The constructor copies `data` into a new array, so later writes by the
    caller cannot reach the tensor.  Results of `contract_pair` skip that
    copy: the kernel's fresh output array is wrapped as it is, with the
    same finiteness check and read-only flag.  A non-finite entry is a
    ValueError naming the first one; the check costs one BLAS pass over
    the entries (see `_own`).
    """

    __slots__ = ("_rank", "_array")

    def __init__(self, rank: int, data: Iterable[complex]):
        rank = as_int(rank, "tensor rank")
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        if not isinstance(data, (np.ndarray, np.generic, list, tuple)):
            data = list(data)  # np.array would wrap an iterator as one object
        # Always a private copy: later writes by the caller cannot reach it.
        arr = np.array(data, dtype=np.complex128, order="C")
        if not is_table_size(arr.size, rank):
            raise ValueError(
                f"rank-{rank} tensor needs {table_size_text(rank)} entries, got {arr.size}"
            )
        _own(self, rank, arr)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only complex128 array of shape (2,)*rank."""
        return self._array

    @property
    def data(self) -> tuple[complex, ...]:
        """The entries flat in row-major leg order, as Python complex."""
        return tuple(self._array.reshape(-1).tolist())

    def scale(self, factor: complex) -> Tensor:
        return Tensor(self._rank, factor * self._array)

    def __repr__(self) -> str:
        if self._rank <= 2:
            return f"Tensor(rank={self._rank}, data={self.data!r})"
        return f"Tensor(rank={self._rank}, <{self._array.size} entries>)"


def _own(t: Tensor, rank: int, arr: np.ndarray) -> None:
    """Make `arr`, a C-ordered complex128 array of 2**rank entries, t's storage.

    Rejects non-finite entries, then marks `arr` read-only.  `arr` must be
    new: no other reference may write to it later.

    The check is one BLAS pass: the real part of vdot(arr, arr) sums the
    nonnegative terms re**2 + im**2, so a finite sum proves every entry
    finite.  Only a sum that is not finite runs the entrywise test, which
    names the first bad entry and accepts entries whose squares merely
    overflow.
    """
    if not math.isfinite(np.vdot(arr, arr).real):
        finite = np.isfinite(arr)
        if np.count_nonzero(finite) != arr.size:
            raise ValueError(f"non-finite amplitude {arr[~finite][0].item()!r}")
    arr.setflags(write=False)
    t._rank = rank
    t._array = arr.reshape((2,) * rank)


def _wrap_result(rank: int, arr: np.ndarray) -> Tensor:
    """The tensor over a kernel's fresh output `arr`, without a copy."""
    t = object.__new__(Tensor)
    _own(t, rank, arr)
    return t


def tensor_from_fn(rank: int, fn: Callable[..., complex]) -> Tensor:
    """Build a tensor by evaluating fn on every index tuple over {0,1}.

    A rank above the budget is refused (RankBudgetError) before fn is
    called at all, not after its 2**rank calls.
    """
    rank = as_int(rank, "tensor rank")
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    check_rank(rank, "a tensor_from_fn result")
    # product's order is row-major: the leftmost leg varies slowest.
    return Tensor(rank, [complex(fn(*idx)) for idx in itertools.product((0, 1), repeat=rank)])


def is_table_size(count: int, n: int) -> bool:
    """count == 2**n, without building 2**n when n exceeds count's width."""
    return n < count.bit_length() and count == 1 << n


def table_size_text(n: int) -> str:
    """2**n in decimal while it is short, else as the power itself."""
    return str(1 << n) if n < 64 else f"2**{n}"


def as_int(value, what: str) -> int:
    """`value` as the int `operator.index` makes of it, or a ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def as_tuple(value, what: str) -> tuple:
    """`value`'s items as a tuple, or a ValueError naming it."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not a sequence") from None


def _check_legs(legs: Sequence[int], rank: int, side: str) -> None:
    seen = set()
    for p in legs:
        if not 0 <= p < rank:
            raise ValueError(f"{side} leg {p} out of range for rank {rank}")
        if p in seen:
            raise ValueError(f"duplicate {side} leg {p}")
        seen.add(p)


# Products of constant tensors: (a, legs_a, b, legs_b) maps to
# contract_pair(a, legs_a, b, legs_b).  Tensor keeps object identity for
# == and hash, so a key matches only the very operands it holds.  Filled
# by `store_product` at import, and never grown after.
_PRODUCTS: dict[tuple, Tensor] = {}


def stored_product(
    a: Tensor, legs_a: tuple[int, ...], b: Tensor, legs_b: tuple[int, ...]
) -> Tensor | None:
    """The product stored for `contract_pair(a, legs_a, b, legs_b)`, or None.

    Legs must match as tuples; legs in a list are never stored."""
    try:
        return _PRODUCTS.get((a, legs_a, b, legs_b))
    except TypeError:  # unhashable legs
        return None


def store_product(
    a: Tensor, legs_a: tuple[int, ...], b: Tensor, legs_b: tuple[int, ...]
) -> Tensor:
    """Contract a with b and store the product for later calls to return.

    Called at import only; the table does not grow after that.
    """
    product = contract_pair(a, legs_a, b, legs_b)
    _PRODUCTS[(a, legs_a, b, legs_b)] = product
    return product


def stored_merges(
    tensors: Sequence[Tensor],
    steps: Sequence[PlanStep],
    merge: Callable[..., Tensor | None] = stored_product,
) -> list[Tensor | None]:
    """One entry per merge step of `steps`, a plan over the node tensors
    `tensors`: `merge(a, legs_a, b, legs_b)` where both clusters' tensors
    are known, else None.

    The clusters are `contract`'s own, walked by `_walk_clusters`.  A
    cluster is known while it is a node or the result of `merge`; a trace,
    or a merge that gives None, leaves it unknown.  With the default
    `merge`, None marks exactly the merges on which `contract_pair` runs
    the kernel.
    """
    results: list[Tensor | None] = []

    def known(a, legs_a, b, legs_b):
        results.append(None if a is None or b is None else merge(a, legs_a, b, legs_b))
        return results[-1]

    _walk_clusters(list(tensors), steps, known, lambda t, rank, axes: None)
    return results


def _walk_clusters(tensors: list, steps: Sequence[PlanStep], merge: Callable,
                   trace: Callable) -> None:
    """Run the merge and trace steps of `steps`, a plan, over `tensors`,
    each cluster's value, in place: a merge of clusters a and b puts
    `merge(tensors[a], legs_a, tensors[b], legs_b)` in the smaller of the
    two and releases the other; a trace of cluster a puts
    `trace(tensors[a], rank, axes)` there.  Other steps are skipped."""
    for kind, rank, a, b, legs_a, legs_b in steps:
        if kind == "merge":
            merged = merge(tensors[a], legs_a, tensors[b], legs_b)
            if a < b:
                tensors[a], tensors[b] = merged, None
            else:
                tensors[b], tensors[a] = merged, None
        elif kind == "trace":
            tensors[a] = trace(tensors[a], rank, legs_a)


def contract_pair(
    a: Tensor, legs_a: Sequence[int], b: Tensor, legs_b: Sequence[int]
) -> Tensor:
    """Contract paired legs of a and b (legs_a[t] sums against legs_b[t]).

    Surviving legs of a precede surviving legs of b, each group keeping its
    original order.  Zero pairs gives the outer product.  Raises
    RankBudgetError, before allocating, if the result's rank exceeds
    MAX_RANK.  The result wraps the kernel's own output array, uncopied.

    A call whose operands are the very tensors of a stored product (see
    `store_product`) returns that product and runs no kernel.

    A leg is anything `operator.index` accepts, used as that int; any
    other leg is a ValueError, stored operands or not (a float 0.0 matches
    the key of leg 0, so types are checked before the table is probed).
    An operand that is not a Tensor is a TypeError naming its side.
    """
    pairs = len(legs_a)
    if pairs != len(legs_b):
        raise ValueError(f"leg lists differ in length: {pairs} vs {len(legs_b)}")
    ints_a, ints_b = legs_a, legs_b
    for p in legs_a:
        if type(p) is not int:
            ints_a = [as_int(q, "first leg") for q in legs_a]
            break
    for p in legs_b:
        if type(p) is not int:
            ints_b = [as_int(q, "second leg") for q in legs_b]
            break
    known = stored_product(a, legs_a, b, legs_b)
    if known is not None:
        return known
    try:
        rank_a, rank_b = a._rank, b._rank
    except AttributeError:
        side, bad = ("first", a) if not isinstance(a, Tensor) else ("second", b)
        raise TypeError(f"{side} operand is a {type(bad).__name__}, not a Tensor") from None
    free_a = [p for p in range(rank_a) if p not in ints_a]
    free_b = [p for p in range(rank_b) if p not in ints_b]
    out_rank = len(free_a) + len(free_b)
    # Each side's free legs and legs number at least its rank, and exactly
    # its rank when its legs are distinct and in range, so the sums agree
    # only then; otherwise name the offending leg as the caller passed it.
    if out_rank + 2 * pairs != rank_a + rank_b:
        _check_legs(legs_a, rank_a, "first")
        _check_legs(legs_b, rank_b, "second")
    if out_rank > MAX_RANK:  # tested here: a call per merge costs
        check_rank(out_rank, "contraction result")
    # np.tensordot's own steps, without its generic argument handling:
    # summed legs last in a and first in b, both flattened to 2-D, one dot.
    summed = 1 << pairs
    mat_a = a._array.transpose((*free_a, *ints_a)).reshape(-1, summed)
    mat_b = b._array.transpose((*ints_b, *free_b)).reshape(summed, -1)
    return _wrap_result(out_rank, np.dot(mat_a, mat_b))


def _inverse(perm: Sequence[int]) -> list[int]:
    """The inverse of the permutation `perm` of 0..len(perm)-1."""
    source = [0] * len(perm)
    for k, p in enumerate(perm):
        source[p] = k
    return source


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    if a.rank != b.rank:
        raise ValueError(f"shape mismatch: rank {a.rank} vs {b.rank}")
    return float(np.abs(a.array - b.array).max())


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


# A PlanStep from a tuple of all six fields, without NamedTuple's
# per-call argument handling.
_new_step = partial(tuple.__new__, PlanStep)

# Partner markers of the leg numbering (`_number_legs`, `TensorNetwork.plan`);
# real partners are leg ids >= 0.
_OPEN, _SUMMED = -1, -2


def _number_legs(
    nodes: dict[Hashable, Tensor], bonds: Iterable, open_legs: Iterable
) -> tuple[list[tuple[int, ...]], list[int], list[int], list[tuple[int, int]], list[int]]:
    """Number the legs of a network, checking each claim on them as it is read.

    Leg k of the i-th node is the sum of the earlier nodes' ranks plus k.
    Returns `plan`'s start lists: each node's leg ids, as a tuple, and each
    leg's node index.  Then each leg's partner (the leg bonded to it, or
    _OPEN), each bond's two leg ids and the open legs' ids.  A claim that
    is not a plain int in range on a new leg goes to `_claim`; a leg left
    unclaimed is a ValueError.
    """
    span: dict[Hashable, tuple[int, int]] = {}
    total = 0
    try:
        for node, tensor in nodes.items():
            rank = tensor._rank
            span[node] = (total, rank)
            total += rank
    except AttributeError:
        raise TypeError(f"node {node!r} is a {type(tensor).__name__}, not a Tensor") from None
    ids = tuple(range(total))
    legs = [ids[first:first + rank] for first, rank in span.values()]
    owner = [cid for cid, node_legs in enumerate(legs) for _ in node_legs]
    partner: list[int | None] = [None] * total
    ends: list[tuple[int, int]] = []
    open_ids: list[int] = []
    for node_a, leg_a, node_b, leg_b in bonds:
        try:
            first_a, rank_a = span[node_a]
            first_b, rank_b = span[node_b]
        except (KeyError, TypeError):  # an unknown or unhashable node: no leg is in range
            first_a = rank_a = first_b = rank_b = 0
        if (type(leg_a) is not int or type(leg_b) is not int
                or not 0 <= leg_a < rank_a or not 0 <= leg_b < rank_b
                or partner[x := first_a + leg_a] is not None
                or partner[y := first_b + leg_b] is not None or x == y):
            x = _claim(span, partner, node_a, leg_a, "bond")
            y = _claim(span, partner, node_b, leg_b, "bond")  # after x is marked claimed
        partner[x], partner[y] = y, x
        ends.append((x, y))
    for node, leg in open_legs:
        try:
            first, rank = span[node]
        except (KeyError, TypeError):
            first = rank = 0
        if type(leg) is not int or not 0 <= leg < rank or partner[x := first + leg] is not None:
            x = _claim(span, partner, node, leg, "open leg")
        partner[x] = _OPEN
        open_ids.append(x)
    if 2 * len(ends) + len(open_ids) != total:  # each claim took a new leg
        x = partner.index(None)
        node = list(span)[owner[x]]
        raise ValueError(f"dangling leg ({node!r}, {x - span[node][0]})")
    return legs, owner, partner, ends, open_ids


def _claim(span: dict, partner: list, node: Hashable, leg, what: str) -> int:
    """The id of `leg` of `node`, claimed by `what` (a bond or an open leg)
    and marked in `_number_legs`'s `partner` (None while unclaimed), or a
    ValueError naming the fault.  `span` holds each node's first id and rank."""
    try:
        first, rank = span[node]
    except (KeyError, TypeError):  # a name that cannot be hashed is no node's
        raise ValueError(f"{what} references unknown node {node!r}") from None
    try:
        k = operator.index(leg)
    except TypeError:
        raise ValueError(
            f"{what} references leg {leg!r} of node {node!r}, which is not an integer"
        ) from None
    if not 0 <= k < rank:
        raise ValueError(f"{what} references leg {leg} of node {node!r} (rank {rank})")
    if partner[first + k] is not None:
        raise ValueError(f"leg {(node, leg)} used more than once")
    partner[first + k] = _OPEN
    return first + k


def _as_bond(bond) -> tuple[Hashable, int, Hashable, int]:
    try:
        node_a, leg_a, node_b, leg_b = bond
    except (TypeError, ValueError):
        raise ValueError(f"bond {bond!r} is not (node, leg, node, leg)") from None
    return node_a, leg_a, node_b, leg_b


def _open_leg(leg) -> tuple[Hashable, int]:
    try:
        node, k = leg
    except (TypeError, ValueError):
        raise ValueError(f"open leg {leg!r} is not a (node, leg) pair") from None
    return node, k


class TensorNetwork:
    """Nodes, bonds between legs, an ordered list of open legs, and a
    scalar.

    Each bond is stored as a plain (node, leg, node, leg) tuple: one given
    as a tuple of four fields is kept as it is, any other (a list, a tuple
    subclass) is converted.

    Every leg of every node must appear in exactly one bond or exactly one
    open-leg slot; a leg is anything `operator.index` accepts, used as that
    int.  The open-leg order fixes the leg order of the contracted result,
    and `scalar` (default 1) multiplies it, once, in the construction that
    puts the open legs in order; a network without nodes contracts to the
    scalar itself.  A compiled circuit carries its runs' global phase
    there.

    Legs are numbered once, when the network is built, by one walk that
    checks each claim as it reads it, bonds (side a, then b) before open
    legs: the first fault is a ValueError naming it, then the first leg
    left unclaimed.  Leg k of the i-th node gets the sum of the earlier
    nodes' ranks plus k.  The network keeps what `plan` starts from: each
    node's leg ids, each leg's node and partner, each bond's two leg ids
    and the open legs' ids.  Every `plan` call starts from shallow copies
    of these lists.  A node's leg ids are a tuple, which no call can write
    into, and which the garbage collector stops tracking, so networks kept
    alive cost it no per-node work.
    """

    def __init__(
        self,
        nodes: dict[Hashable, Tensor],
        bonds: Sequence,
        open_legs: Sequence[tuple[Hashable, int]],
        scalar: complex = 1,
    ):
        self.nodes = dict(nodes)
        self.scalar = scalar
        self.bonds = tuple([b if type(b) is tuple and len(b) == 4 else _as_bond(b) for b in bonds])
        self.open_legs = tuple([
            leg if type(leg) is tuple and len(leg) == 2 else _open_leg(leg) for leg in open_legs
        ])
        numbered = _number_legs(self.nodes, self.bonds, self.open_legs)
        self._legs, self._owner, self._partner, self._ends, self._open_ids = numbered

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
        their bonds block by block (a CN or one word for a run of
        single-wire gates), each block's internal bonds before the bond
        that attaches it to its wire: every block is merged on its own
        (`contract_pair` returns those merges stored), then joins the state
        in one merge per wire.  That keeps the peak within max(n + 1, 4) for
        an n-wire state and 2n for an operator.

        The walk runs on ints alone: the leg ids the network numbered when
        it was built (see `TensorNetwork`).  It starts from shallow copies
        of the network's lists, each node's leg ids a shared tuple, and
        gives every merged or traced cluster a new list.
        """
        if order is None:
            order = range(len(self.bonds))
        elif sorted(order := list(order)) != list(range(len(self.bonds))):
            raise ValueError("order must be a permutation of the bond indices")
        # The result has one leg per open leg, and so does the widest outer
        # product; a trace only shrinks its cluster.  Merges are checked below.
        check_rank(len(self.open_legs), "the network's result")

        # Cluster k starts as node k with its legs; a merged cluster keeps
        # the smaller id, so ids ascend in first-seen node order.  owner
        # maps each leg to its cluster and stays current for live legs.
        clusters: list[Sequence[int] | None] = self._legs.copy()
        owner = self._owner.copy()
        # Each leg's partner: the leg it is bonded to, _OPEN, or _SUMMED
        # once its bond has been contracted.
        partner = self._partner.copy()
        ends = self._ends

        steps: list[PlanStep] = []
        for idx in order:
            try:
                x, y = ends[idx]
            except TypeError:  # a float such as 0.0 passes the sorted() check
                raise ValueError("order must be a permutation of the bond indices") from None
            if partner[x] == _SUMMED:
                continue  # summed when its two clusters merged
            ca, cb = owner[x], owner[y]
            legs_a = clusters[ca]
            if ca == cb:
                partner[x] = partner[y] = _SUMMED
                axes = (legs_a.index(x), legs_a.index(y))
                legs_a = clusters[ca] = [z for z in legs_a if z != x and z != y]
                steps.append(_new_step(("trace", len(legs_a), ca, -1, axes, ())))
                continue
            legs_b = clusters[cb]
            for z in legs_b:
                if z != y and (p := partner[z]) >= 0 and owner[p] == ca:
                    # Several bonds join the clusters: every leg of cb
                    # bonded into ca, ordered by its partner's position in ca.
                    shared_a, shared_b = zip(*sorted([
                        (legs_a.index(p), k)
                        for k, z in enumerate(legs_b)
                        if (p := partner[z]) >= 0 and owner[p] == ca
                    ]))
                    for k in shared_b:
                        z = legs_b[k]
                        partner[partner[z]] = partner[z] = _SUMMED
                    merged = [z for z in (*legs_a, *legs_b) if partner[z] != _SUMMED]
                    break
            else:  # x-y is the only bond between the clusters
                partner[x] = partner[y] = _SUMMED
                ia, ib = legs_a.index(x), legs_b.index(y)
                shared_a, shared_b = (ia,), (ib,)
                merged = [*legs_a, *legs_b]
                del merged[len(legs_a) + ib], merged[ia]
            rank = len(merged)
            if rank > MAX_RANK:  # tested here: a call per merge costs
                check_rank(rank, "a merge in the contraction plan")
            if ca < cb:
                for z in legs_b:
                    owner[z] = ca
                clusters[ca], clusters[cb] = merged, None
            else:
                for z in legs_a:
                    owner[z] = cb
                clusters[cb], clusters[ca] = merged, None
            steps.append(_new_step(("merge", rank, ca, cb, shared_a, shared_b)))

        live = [cid for cid, legs in enumerate(clusters) if legs is not None]
        if not live:
            return [PlanStep("unit", 0)]
        first, *rest = live
        result_legs = clusters[first]
        for cid in rest:
            result_legs = [*result_legs, *clusters[cid]]
            steps.append(_new_step(("merge", len(result_legs), first, cid, (), ())))
        slot = {z: k for k, z in enumerate(self._open_ids)}
        perm = tuple(slot[z] for z in result_legs)
        steps.append(_new_step(("permute", len(perm), first, -1, perm, ())))
        return steps

    def contract(self, order: Sequence[int] | None = None) -> Tensor:
        """Run `plan(order)` and return the open legs in declared order,
        multiplied by the network's `scalar`.

        Nothing is contracted if the plan exceeds the rank budget.  The
        result is order-independent up to floating-point rounding.
        """
        steps = self.plan(order)
        tensors: list[Tensor | None] = list(self.nodes.values())
        _walk_clusters(tensors, steps, contract_pair, _trace)
        last = steps[-1]
        if last.kind == "unit":
            return Tensor(0, (self.scalar,))
        # The plan built the permutation, so it is not checked again; the
        # scalar joins the same construction, multiplied only when it is not 1.
        out = tensors[last.a].array.transpose(_inverse(last.legs_a))
        return Tensor(last.rank, out if self.scalar == 1 else self.scalar * out)


def _trace(t: Tensor, rank: int, axes: tuple[int, int]) -> Tensor:
    """`t` with leg axes[0] summed against leg axes[1]."""
    return Tensor(rank, np.trace(t.array, axis1=axes[0], axis2=axes[1]))
