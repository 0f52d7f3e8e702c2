"""Reversibility analysis of n-bit truth tables and linear Boolean forms.

`delta_entropy` transcribes the entropy difference as an input-indexed
sum: each input contributes the probability mass of its own output value
under the push-forward of the uniform distribution.  This literal form
vanishes on every permutation but also on some non-bijective tables (and
can go negative for n >= 3), so `output_entropy_gap` is provided as the
separately named diagnostic that is zero exactly on bijections.

The linear forms on n bits and the points they are evaluated at are both
n-bit strings, so all their polarities are one table, the character table
of GF(2)**n: `polarity_table(n)[x, c]` is (-1)**(c . x), one integer
matrix product of the 2**n x n point matrix with its transpose.  Column c
is the polarity vector of `linear_forms(n)[c]`, and the Hadamard column
check compares the n-fold Hadamard power with that table in one compare.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from stabtensor import generators as gen
from stabtensor.relations import RelationReport, compare
from stabtensor.tensor import DEFAULT_TOL, Tensor, TensorNetwork, as_int, as_tuple


def _is_table_size(count: int, n: int) -> bool:
    """count == 2**n, without building 2**n when n exceeds count's width."""
    return n < count.bit_length() and count == 1 << n


def _table_size_text(n: int) -> str:
    """2**n in decimal while it is short, else as the power itself."""
    return str(1 << n) if n < 64 else f"2**{n}"


@dataclass(frozen=True)
class TruthTable:
    """Total function on n-bit strings; outputs[i] is g(y_i) as an integer,
    with inputs enumerated in lexicographic order (y_0 = 00...0)."""

    n: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        n = as_int(self.n, "truth table n")
        if n < 1:
            raise ValueError("truth table needs n >= 1")
        outputs = as_tuple(self.outputs, "truth table outputs")
        if not _is_table_size(len(outputs), n):
            raise ValueError(f"expected {_table_size_text(n)} outputs, got {len(outputs)}")
        outputs = tuple([as_int(v, "output") for v in outputs])
        for v in outputs:
            if not 0 <= v < 1 << n:
                raise ValueError(f"output {v} is not an {n}-bit value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "outputs", outputs)

    def preimage_counts(self) -> Counter:
        return Counter(self.outputs)


def parse_truth_table(text: str) -> TruthTable:
    """Parse the `bits n` header plus 2**n `input output` rows.

    Rows must appear in strict lexicographic input order.  n is ASCII
    decimal digits only.
    """
    n: int | None = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if (fields[0] != "bits" or len(fields) != 2
                    or not (fields[1].isascii() and fields[1].isdigit())):
                raise ValueError(f"line {lineno}: expected `bits n` header")
            n = int(fields[1])
            if n < 1:
                raise ValueError(f"line {lineno}: bits must be >= 1")
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected `input_bits output_bits`")
        inp, out = fields
        if len(inp) != n or set(inp) - {"0", "1"}:
            raise ValueError(f"line {lineno}: bad input bits {inp!r}")
        if len(out) != n or set(out) - {"0", "1"}:
            raise ValueError(f"line {lineno}: bad output bits {out!r}")
        if int(inp, 2) != len(rows):
            raise ValueError(
                f"line {lineno}: inputs must be in lexicographic order "
                f"(expected {len(rows):0{n}b}, got {inp})"
            )
        rows.append(int(out, 2))
    if n is None:
        raise ValueError("missing `bits n` header")
    if not _is_table_size(len(rows), n):
        raise ValueError(f"expected {_table_size_text(n)} rows, got {len(rows)}")
    return TruthTable(n, tuple(rows))


def delta_entropy(table: TruthTable) -> float:
    """Input-indexed entropy difference, in bits.

    First sum: over inputs i, P{g(y_i)} log2 P{g(y_i)} with P the
    push-forward mass (preimage count * 2**-n).  Second sum: the same
    expression for the uniform input distribution, which equals -n.
    """
    n = table.n
    size = 1 << n
    counts = table.preimage_counts()
    first = 0.0
    for v in table.outputs:
        p = counts[v] / size
        first += p * math.log2(p)
    second = 0.0
    p_in = 1.0 / size
    for _ in range(size):
        second += p_in * math.log2(p_in)
    return first - second


def output_entropy_gap(table: TruthTable) -> float:
    """Diagnostic: n minus the Shannon entropy of the output distribution.

    Non-negative, and zero exactly when the table is a bijection.  Sums
    over distinct output values, with 0*log(0) taken as 0.
    """
    n = table.n
    size = 1 << n
    gap = float(n)
    for count in table.preimage_counts().values():
        p = count / size
        gap += p * math.log2(p)
    return gap


def is_reversible(table: TruthTable) -> bool:
    return sorted(table.outputs) == list(range(1 << table.n))


@dataclass(frozen=True)
class BooleanLinearForm:
    """c0 xor (c . x mod 2); c0 = 1 makes the form affine."""

    c: str
    c0: int = 0

    def __post_init__(self):
        if not isinstance(self.c, str) or set(self.c) - {"0", "1"} or not self.c:
            raise ValueError(f"coefficients {self.c!r} must be a nonempty bit string")
        c0 = as_int(self.c0, "c0")
        if c0 not in (0, 1):
            raise ValueError(f"c0 must be 0 or 1, got {c0}")
        object.__setattr__(self, "c0", c0)

    @property
    def n(self) -> int:
        return len(self.c)


def _as_bits(n) -> int:
    """A bit count `n` by the integer rule, at least 1."""
    n = as_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def polarity_table(n: int) -> np.ndarray:
    """The 2**n x 2**n integer array with entry [x, c] = (-1)**(c . x).

    Points and coefficients are the same n-bit strings, the rows of the
    2**n x n point matrix (row x is x's bits, most significant first), so
    c . x for all of them is one product of that matrix with its
    transpose; column c is the polarity vector of `linear_forms(n)[c]`.
    """
    n = _as_bits(n)
    points = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1 - 2 * ((points @ points.T) & 1)


def hadamard_power(n: int) -> Tensor:
    """n-fold tensor power of the Hadamard matrix, legs (rows..., cols...)."""
    n = _as_bits(n)
    nodes = {k: gen.hadamard() for k in range(n)}
    rows_then_cols = [(k, leg) for leg in (0, 1) for k in range(n)]
    return TensorNetwork(nodes, [], rows_then_cols).contract()


def verify_hadamard_column_indexing(n: int, tol: float = DEFAULT_TOL) -> RelationReport:
    """Columns of the n-fold Hadamard power against the 2**n linear forms.

    Column c must equal 2**(-n/2) times the polarity vector of the linear
    form with coefficients c, column c of `polarity_table(n)`.  All columns
    are compared at once, so a fitted scalar has to serve every column.
    """
    n = as_int(n, "n")
    if not 1 <= n <= 6:
        raise ValueError(f"n must be in 1..6, got {n}")
    expected = Tensor(2 * n, 2.0 ** (-n / 2.0) * polarity_table(n))
    return compare(f"hadamard-column-indexing-n{n}", hadamard_power(n), expected, tol)


def linear_forms(n: int) -> list[BooleanLinearForm]:
    """All 2**n linear (c0 = 0) forms on n bits."""
    n = _as_bits(n)
    return [BooleanLinearForm(f"{c:0{n}b}", 0) for c in range(1 << n)]
