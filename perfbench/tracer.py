"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each stabtensor layer from the
outside: every module of the package that holds a reference to a wrapped
function gets the wrapper instead (``circuit_state`` is bound in
``circuits``, ``cli`` and ``oracles``; ``contract_pair`` in ``tensor``,
``circuits``, ``generators``, ``relations`` and the package itself).  Methods are wrapped on their
class.  Nothing in the package itself is edited.

Each call inside an op becomes a span ``(name, start, end, parent, op,
counts)``.  Spans stay in memory until the pass ends and are written out
as JSON lines afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

# (module, attribute path) of every traced public function, by layer.
TRACED = (
    ("cli", "main"),
    ("circuits", "parse_circuit"),
    ("circuits", "compile_circuit"),
    ("circuits", "circuit_state"),
    ("tensor", "TensorNetwork.contract"),
    ("tensor", "contract_pair"),
    ("tensor", "permute_legs"),
    ("tensor", "Tensor.__init__"),
    ("oracles", "dense_simulate"),
    ("oracles", "tableau_simulate"),
    ("oracles", "pauli_expectation"),
    ("oracles", "crosscheck_circuit"),
    ("relations", "verify_relation"),
    ("relations", "verify_xor_in_hadamard_basis"),
    ("relations", "verify_xor_copies_plus_minus"),
    ("relations", "verify_clifford_recovery"),
    ("relations", "verify_cn_transcription"),
    ("boolfn", "verify_hadamard_column_indexing"),
)

# Spans of these names are summed into the relations.verify metrics.
VERIFY_SPANS = tuple(
    f"{mod}.{attr}" for mod, attr in TRACED if attr.startswith("verify_")
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict | None = None


def _contract_pair_counts(args, result):
    a, legs_a, b, legs_b = args
    ra, rb, k, out = a.rank, b.rank, len(legs_a), result.rank
    # The greedy contraction traces a leg pair within one cluster by
    # contracting it against the rank-2 Kronecker pair.
    trace = (
        rb == 2 and len(legs_b) == 2 and tuple(b.data) == (1, 0, 0, 1)
    )
    return {
        "flops": 1 << (ra + rb - k),
        "bytes": 16 * ((1 << ra) + (1 << rb) + (1 << out)),
        "rank": max(ra, rb, out),
        "trace": int(trace),
    }


def _compile_counts(args, result):
    return {"nodes": len(result.nodes), "bonds": len(result.bonds)}


def _tensor_counts(args, result):
    return {"entries": 1 << args[1]}


def _pauli_name(args):
    kind = "tableau" if type(args[0]).__name__ == "StabilizerTableau" else "dense"
    return f"oracles.pauli_expectation.{kind}"


COUNTERS = {
    "tensor.contract_pair": _contract_pair_counts,
    "circuits.compile_circuit": _compile_counts,
    # Tensor.__init__ is called as (self, rank, data): counts read the rank.
    "tensor.Tensor": _tensor_counts,
}


class Tracer:
    """Records spans for calls into stabtensor while an op is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded stabtensor module."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "stabtensor" or name.startswith("stabtensor."))
        ]
        for mod_name, path in TRACED:
            module = sys.modules.get(f"stabtensor.{mod_name}")
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                span_name = f"{mod_name}.{owner_name}" if attr == "__init__" \
                    else f"{mod_name}.{path}"
                self._set(owner, attr, self._wrap(span_name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        is_pauli = name == "oracles.pauli_expectation"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span_name = _pauli_name(args) if is_pauli else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(span_name, time.perf_counter(), 0.0, parent, tracer._op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return wrapper

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "counts": s.counts,
                }) + "\n")


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    return [
        (s.end - s.start) - covered(children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds (outermost spans of that name),
    self seconds, and the summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            row["busy_s"] += s.end - s.start
        for key, value in (s.counts or {}).items():
            if key == "rank":
                row["peak_rank"] = max(row.get("peak_rank", 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return out


PER_LAYER_UNITS = {
    "tensor.TensorNetwork.contract.self_s": "s",
    "tensor.contract_pair.calls": "count",
    "tensor.contract_pair.busy_s": "s",
    "tensor.contract_pair.flops": "flop",
    "tensor.contract_pair.bytes": "B",
    "tensor.contract_pair.peak_rank": "rank",
    "tensor.contract_pair.trace_calls": "count",
    "tensor.Tensor.calls": "count",
    "tensor.Tensor.busy_s": "s",
    "tensor.Tensor.entries": "count",
    "tensor.permute_legs.calls": "count",
    "tensor.permute_legs.busy_s": "s",
    "circuits.circuit_state.calls_per_op": "count/op",
    "circuits.compile_circuit.calls": "count",
    "circuits.compile_circuit.busy_s": "s",
    "circuits.compile_circuit.nodes": "count",
    "circuits.compile_circuit.bonds": "count",
    "circuits.parse_circuit.busy_s": "s",
    "oracles.dense_simulate.busy_s": "s",
    "oracles.tableau_simulate.busy_s": "s",
    "oracles.pauli_expectation.calls": "count",
    "oracles.pauli_expectation.dense_s": "s",
    "oracles.pauli_expectation.tableau_s": "s",
    "oracles.crosscheck_circuit.self_s": "s",
    "relations.verify.calls": "count",
    "relations.verify.busy_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass over `ops` ops.

    Times are seconds summed over the pass; counts are totals over the
    pass, except ``circuit_state.calls_per_op`` and ``peak_rank`` (the
    largest rank any ``contract_pair`` operand or result had).
    """
    summary = summarize(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    pair = "tensor.contract_pair"
    pauli = "oracles.pauli_expectation"
    return {
        "tensor.TensorNetwork.contract.self_s": get("tensor.TensorNetwork.contract", "self_s"),
        f"{pair}.calls": get(pair, "calls"),
        f"{pair}.busy_s": get(pair, "busy_s"),
        f"{pair}.flops": get(pair, "flops"),
        f"{pair}.bytes": get(pair, "bytes"),
        f"{pair}.peak_rank": get(pair, "peak_rank"),
        f"{pair}.trace_calls": get(pair, "trace"),
        "tensor.Tensor.calls": get("tensor.Tensor", "calls"),
        "tensor.Tensor.busy_s": get("tensor.Tensor", "busy_s"),
        "tensor.Tensor.entries": get("tensor.Tensor", "entries"),
        "tensor.permute_legs.calls": get("tensor.permute_legs", "calls"),
        "tensor.permute_legs.busy_s": get("tensor.permute_legs", "busy_s"),
        "circuits.circuit_state.calls_per_op": get("circuits.circuit_state", "calls") / ops,
        "circuits.compile_circuit.calls": get("circuits.compile_circuit", "calls"),
        "circuits.compile_circuit.busy_s": get("circuits.compile_circuit", "busy_s"),
        "circuits.compile_circuit.nodes": get("circuits.compile_circuit", "nodes"),
        "circuits.compile_circuit.bonds": get("circuits.compile_circuit", "bonds"),
        "circuits.parse_circuit.busy_s": get("circuits.parse_circuit", "busy_s"),
        "oracles.dense_simulate.busy_s": get("oracles.dense_simulate", "busy_s"),
        "oracles.tableau_simulate.busy_s": get("oracles.tableau_simulate", "busy_s"),
        f"{pauli}.calls": get(f"{pauli}.dense", "calls") + get(f"{pauli}.tableau", "calls"),
        f"{pauli}.dense_s": get(f"{pauli}.dense", "busy_s"),
        f"{pauli}.tableau_s": get(f"{pauli}.tableau", "busy_s"),
        "oracles.crosscheck_circuit.self_s": get("oracles.crosscheck_circuit", "self_s"),
        "relations.verify.calls": sum(get(n, "calls") for n in VERIFY_SPANS),
        "relations.verify.busy_s": sum(get(n, "busy_s") for n in VERIFY_SPANS),
        "cli.main.self_s": get("cli.main", "self_s"),
    }


def is_count(metric: str) -> bool:
    """Counts must repeat exactly between traced passes; times need not."""
    return not metric.endswith("_s") and not metric.startswith("trace.")
