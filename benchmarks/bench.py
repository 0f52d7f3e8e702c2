"""Fixed-grid benchmark of the contraction engine, written as one JSON file.

    python3 benchmarks/bench.py OUT.json

Run from the root of a checkout; stabtensor is imported from its ``src``.
Uses the standard library and numpy only, and one BLAS thread.

Each circuit row times ``compile_circuit``, ``TensorNetwork.plan`` and
``TensorNetwork.contract`` (which runs its own plan) separately, and reads
from the plan its merges, its kernel merges (the merges that run the
kernel: not those that return a stored block product, see
``tensor.stored_product``), its peak rank and its FLOPs.  A merge into
rank r over k leg pairs had operands whose ranks sum to r + 2k, so it
costs 2**(r + k) complex multiply-adds, the figure perfbench reports as
``tensor.contract_pair.flops``, stored or not; traces and the final
permutation are not counted.  The batch row compiles, plans and contracts
``BATCH_SIZE`` seeded circuits shaped like perfbench's contract-ordered
workload (10-12 wires, depth 30-50, from |0...0>), and builds each
compiled network once more on its own (``network_us``, the walk that
numbers and checks the legs), each phase timed over the whole batch
after a garbage collection, and reports microseconds per circuit for
each phase (a field ending in ``_us``) with the merges and kernel merges
per circuit: on circuits this small the time is the fixed cost of each
node and merge, which a single-circuit row cannot resolve.  The relation-suite row times
``stabtensor verify``'s reports, all of them (``suite_s``) and each group of
``cli.report_groups`` on its own (``families_s``, ``hadamard_basis_s``,
``clifford_s``, ``columns_s``, ``cn_s``), and sums the same plan figures
over every network the suite contracts.  The CLI rows time one whole ``cli.main``
call, records format, with stdout captured: ``simulate`` on
``samples/bell.circ``, with and without ``--crosscheck``, on a 20-wire GHZ
file, on the 12x400 circuit of the dense oracle row and on a seeded 12x30
circuit, perfbench simulate-wide's widest shape (each file written once,
outside the timer), and ``verify``.
The oracle rows time each oracle on its own: ``dense_simulate`` on a
12-wire circuit, one batched ``pauli_expectations`` call on its state
(the crosscheck's 44 strings), ``tableau_simulate`` on a 1000-wire,
4000-gate circuit, and one batched call on that tableau (20 products
of stabilizer rows, so every value is +-1: no string takes the shortcut
to 0 of one that anticommutes with a stabilizer).
The parse rows time ``parse_circuit`` over the texts of seeded circuit
files (``parse_s``, all of a row's files): ``parse-11x40``, 300 files of
perfbench contract-ordered's middle shape, and ``parse-8x100000``, one
file too deep for the whole-circuit network to stay small.  Each reports
its ops, the distinct op objects its parsed circuits hold
(``distinct_ops``: equal op lines of one file share one ``GateApp``), and
the bytes per op those circuits hold (``bytes_per_op``), traced by
``tracemalloc`` in a pass of its own, before and outside the timing.

Rows are timed in ``REPEATS`` interleaved rounds, each round timing every
row once, so a slow phase of a shared host lands on every row alike rather
than on the rows it happens to overlap.  Each timing field (a name ending
in ``_s`` or ``_us``) holds the median over the rounds, and
``<field>_range`` its [min, max].  The ``env`` block records, besides the
interpreter and host, ``src_code_lines``: the lines of ``src`` that hold a
token outside comments and docstrings (``code_lines``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tokenize
import tracemalloc
from functools import partial
from pathlib import Path

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from stabtensor import cli, oracles, tensor  # noqa: E402
from stabtensor.circuits import Circuit, GateApp, compile_circuit, parse_circuit  # noqa: E402
from stabtensor.tensor import DEFAULT_TOL, TensorNetwork  # noqa: E402

REPEATS = 5

# (width, depth, seeds) of the random Clifford circuits, all from |0...0>.
RANDOM_GRID = (
    (6, 50, (0, 1, 2)),
    (8, 100, (0, 1, 2)),
    (12, 400, (0, 1, 2)),
    (16, 400, (0, 1, 2)),
    (20, 400, (0,)),
)
LADDER_WIDTH = 14
# (width, depth) of the dense oracle's circuit, and the tableau rows' width
# and string count.
DENSE_CIRCUIT = (12, 400)
# Wires of the GHZ file the simulate row prints, 2**20 amplitude lines.
GHZ_WIDTH = 20
# (width, depth) of the simulate row of perfbench simulate-wide's widest
# shape: its sparse state's 2**12 lines cost more to print than to contract.
WIDE_CIRCUIT = (12, 30)
TABLEAU_WIDTH = 1000
TABLEAU_STRINGS = 20
# Circuits in the batch row, their widths and depths (inclusive), and seed.
BATCH_SIZE = 300
BATCH_WIDTHS = (10, 12)
BATCH_DEPTHS = (30, 50)
BATCH_SEED = 11
# (width, depth, files) of the parse rows' seeded circuit files, and their seed.
PARSE_GRID = ((11, 40, 300), (8, 100_000, 1))
PARSE_SEED = 30


def plan_figures(net: TensorNetwork, steps) -> dict:
    """Merges, kernel merges, peak rank and merge FLOPs of `steps`, a plan
    of `net`.  A merge whose operands are those of a stored product
    (`tensor.stored_product`) returns it without running the kernel; every
    other merge is a kernel merge (`tensor.stored_merges`)."""
    merges = [s for s in steps if s.kind == "merge"]
    stored = tensor.stored_merges(list(net.nodes.values()), steps)
    return {"merges": len(merges), "kernel_merges": stored.count(None),
            "peak_rank": max(s.rank for s in steps),
            "flops": sum(1 << (s.rank + len(s.legs_a)) for s in merges)}


def timed(fn) -> tuple[float, object]:
    """Seconds one call of fn takes, and its result."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def circuit_row(name: str, circuit: Circuit) -> dict:
    compile_s, net = timed(lambda: compile_circuit(circuit))
    plan_s, steps = timed(net.plan)
    contract_s, _ = timed(net.contract)
    return {
        "name": name,
        "width": circuit.width,
        "depth": len(circuit.ops),
        "compile_s": compile_s,
        "plan_s": plan_s,
        "contract_s": contract_s,
        **plan_figures(net, steps),
    }


def batch_circuits(count: int, seed: int) -> list[Circuit]:
    """`count` seeded random Clifford circuits from |0...0>, each of a
    random width in BATCH_WIDTHS and depth in BATCH_DEPTHS."""
    rng = random.Random(seed)
    return [oracles.random_clifford_circuit(rng.randint(*BATCH_WIDTHS),
                                            rng.randint(*BATCH_DEPTHS),
                                            rng.randrange(1 << 31))
            for _ in range(count)]


def batch_row(name: str, circuits: list[Circuit]) -> dict:
    """Microseconds per circuit of compile, network construction (the
    compiled nodes, bonds, open legs and scalar built into a
    `TensorNetwork` again: the numbering walk that checks every leg claim),
    plan and contract (which runs its own plan), each phase timed over the
    whole batch, and the merges and kernel merges per circuit.  The garbage
    collector runs before each phase, so that no phase pays for a
    collection of what the phases before it left."""
    count = len(circuits)

    def phase(fn):
        gc.collect()
        return timed(fn)

    compile_s, nets = phase(lambda: [compile_circuit(c) for c in circuits])
    network_s, _ = phase(lambda: [TensorNetwork(net.nodes, net.bonds, net.open_legs, net.scalar)
                                  for net in nets])
    plan_s, plans = phase(lambda: [net.plan() for net in nets])
    contract_s, _ = phase(lambda: [net.contract() for net in nets])
    figures = [plan_figures(net, steps) for net, steps in zip(nets, plans)]
    return {
        "name": name,
        "circuits": count,
        "compile_us": 1e6 * compile_s / count,
        "network_us": 1e6 * network_s / count,
        "plan_us": 1e6 * plan_s / count,
        "contract_us": 1e6 * contract_s / count,
        "merges": sum(f["merges"] for f in figures) / count,
        "kernel_merges": sum(f["kernel_merges"] for f in figures) / count,
    }


def cn_ladder(width: int) -> Circuit:
    """H on every wire, then CN from each wire to the next."""
    ops = [GateApp("H", (w,)) for w in range(width)]
    ops += [GateApp("CN", (w, w + 1)) for w in range(width - 1)]
    return Circuit(width, tuple(ops), "0" * width)


def ghz(width: int) -> Circuit:
    """H on wire 0, then CN from each wire to the next."""
    ops = [GateApp("H", (0,))] + [GateApp("CN", (w, w + 1)) for w in range(width - 1)]
    return Circuit(width, tuple(ops), "0" * width)


def circuit_text(circuit: Circuit) -> str:
    """`circuit` as the text of a circuit file."""
    lines = [f"wires {circuit.width}", f"input {circuit.input}"]
    lines += [" ".join([op.gate, *map(str, op.wires)]) for op in circuit.ops]
    return "\n".join(lines) + "\n"


def circuit_file(path: Path, circuit: Circuit) -> str:
    """Write `circuit` as a circuit file at `path`; return the path."""
    path.write_text(circuit_text(circuit), encoding="utf-8")
    return str(path)


def parse_texts(width: int, depth: int, count: int, seed: int) -> list[str]:
    """The texts of `count` seeded random Clifford circuit files."""
    rng = random.Random(seed)
    return [circuit_text(oracles.random_clifford_circuit(width, depth, rng.randrange(1 << 31)))
            for _ in range(count)]


def parse_figures(texts: list[str]) -> dict:
    """The ops of `texts` parsed, the distinct op objects the parsed
    circuits hold, and the bytes per op they hold: the memory traced
    between the start of a parse of every text and a garbage collection
    after it, with the circuits kept."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = [parse_circuit(text) for text in texts]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ops = sum(len(c.ops) for c in parsed)
    return {"ops": ops, "distinct_ops": len({id(op) for c in parsed for op in c.ops}),
            "bytes_per_op": held / ops}


def parse_row(name: str, texts: list[str], **figures) -> dict:
    """Seconds to parse every text of `texts`, after the row's fixed figures."""
    parse_s, _ = timed(lambda: [parse_circuit(text) for text in texts])
    return {"name": name, "files": len(texts), **figures, "parse_s": parse_s}


def relation_suite_row() -> dict:
    suite_s, reports = timed(lambda: cli.verification_reports(DEFAULT_TOL))
    group_s = {f"{name}_s": timed(group)[0]
               for name, group in cli.report_groups(DEFAULT_TOL).items()}
    figures = {"merges": 0, "kernel_merges": 0, "peak_rank": 0, "flops": 0}
    networks = 0
    plan = TensorNetwork.plan

    def recording_plan(self, order=None):
        nonlocal networks
        steps = plan(self, order)
        networks += 1
        one = plan_figures(self, steps)
        for key in ("merges", "kernel_merges", "flops"):
            figures[key] += one[key]
        figures["peak_rank"] = max(figures["peak_rank"], one["peak_rank"])
        return steps

    TensorNetwork.plan = recording_plan
    try:
        cli.verification_reports(DEFAULT_TOL)
    finally:
        TensorNetwork.plan = plan
    return {"name": "relation-suite", "suite_s": suite_s, **group_s, "reports": len(reports),
            "networks": networks, **figures}


def cli_row(name: str, argv: list[str]) -> dict:
    """Seconds per `cli.main(argv)` call, its output captured unprinted."""
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    call_s, code = timed(call)
    if code != 0:
        raise RuntimeError(f"cli.main({argv}) exited {code}")
    return {"name": name, "call_s": call_s}


def oracle_row(name: str, call, **figures) -> dict:
    """Seconds one call of an oracle takes, after the row's fixed figures."""
    call_s, _ = timed(call)
    return {"name": name, **figures, "call_s": call_s}


def stabilizer_products(tab: oracles.StabilizerTableau, count: int, seed: int) -> list[str]:
    """`count` strings, each the product of a seeded random subset of the
    tableau's stabilizer rows, so each has expectation +1 or -1."""
    sx, sz, _ = tab.stabilizer_rows()
    strings = []
    for subset in np.random.default_rng(seed).random((count, tab.n)) < 0.5:
        codes = 2 * (sx[subset].sum(axis=0) & 1) + (sz[subset].sum(axis=0) & 1)
        strings.append("".join("IZXY"[c] for c in codes))
    return strings


def oracle_calls() -> list:
    """The oracle rows, their inputs built once, outside the timer."""
    width, depth = DENSE_CIRCUIT
    circuit = oracles.random_clifford_circuit(width, depth, 0)
    state = oracles.dense_simulate(circuit)
    paulis = oracles.crosscheck_paulis(width)
    wide_depth = 4 * TABLEAU_WIDTH
    wide = oracles.random_clifford_circuit(TABLEAU_WIDTH, wide_depth, 0)
    tab = oracles.tableau_simulate(wide)
    products = stabilizer_products(tab, TABLEAU_STRINGS, 0)
    return [
        partial(oracle_row, f"dense-simulate-{width}x{depth}",
                partial(oracles.dense_simulate, circuit), width=width, depth=depth),
        partial(oracle_row, f"expect-dense-{width}",
                partial(oracles.pauli_expectations, state, paulis),
                width=width, paulis=len(paulis)),
        partial(oracle_row, f"tableau-simulate-{TABLEAU_WIDTH}",
                partial(oracles.tableau_simulate, wide),
                width=TABLEAU_WIDTH, depth=wide_depth),
        partial(oracle_row, f"expect-tableau-{TABLEAU_WIDTH}",
                partial(oracles.pauli_expectations, tab, products),
                width=TABLEAU_WIDTH, paulis=len(products)),
    ]


# Tokens that are no code of their own: layout, comments and line ends.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The lines of the Python file `path` that hold a token outside
    comments and docstrings.  A docstring here is any string that is a
    statement of its own; a token spanning lines counts each of them."""
    lines: set[int] = set()
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    for k, tok in enumerate(tokens):
        if tok.type in _NOT_CODE:
            continue
        if (tok.type == tokenize.STRING
                and tokens[k - 1].type in (tokenize.ENCODING, tokenize.NEWLINE,
                                           tokenize.INDENT, tokenize.DEDENT)
                and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repeats": REPEATS,
        "src_code_lines": sum(map(code_lines, sorted((ROOT / "src").rglob("*.py")))),
    }


def row_calls(workdir: Path) -> list:
    """One zero-argument call per row; each times its row once.  The simulate
    rows' circuit files are written to `workdir` here, before any timing."""
    calls = []
    for width, depth, seeds in RANDOM_GRID:
        for seed in seeds:
            circuit = oracles.random_clifford_circuit(width, depth, seed)
            calls.append(partial(circuit_row, f"random-{width}x{depth}-s{seed}", circuit))
    calls.append(partial(circuit_row, f"cn-ladder-{LADDER_WIDTH}", cn_ladder(LADDER_WIDTH)))
    calls.append(partial(batch_row, f"batch-{BATCH_SIZE}-s{BATCH_SEED}",
                         batch_circuits(BATCH_SIZE, BATCH_SEED)))
    calls.append(relation_suite_row)
    for width, depth, count in PARSE_GRID:
        texts = parse_texts(width, depth, count, PARSE_SEED)
        calls.append(partial(parse_row, f"parse-{width}x{depth}", texts, **parse_figures(texts)))
    bell = str(ROOT / "samples" / "bell.circ")
    calls.append(partial(cli_row, "cli-simulate-bell", ["--format", "records", "simulate", bell]))
    calls.append(partial(cli_row, "cli-crosscheck-bell",
                         ["--format", "records", "simulate", bell, "--crosscheck"]))
    files = [(f"ghz{GHZ_WIDTH}", ghz(GHZ_WIDTH))]
    for width, depth in (DENSE_CIRCUIT, WIDE_CIRCUIT):
        files.append((f"{width}x{depth}", oracles.random_clifford_circuit(width, depth, 0)))
    for name, circuit in files:
        path = circuit_file(workdir / f"{name}.circ", circuit)
        calls.append(partial(cli_row, f"cli-simulate-{name}",
                             ["--format", "records", "simulate", path]))
    calls.append(partial(cli_row, "cli-verify", ["--format", "records", "verify"]))
    return calls + oracle_calls()


def summarize(runs: list[dict]) -> dict:
    """One row from its rounds: each timing field's median and [min, max];
    every other field as the first round gave it."""
    row = {}
    for key, value in runs[0].items():
        if key.endswith(("_s", "_us")):
            times = sorted(run[key] for run in runs)
            row[key] = statistics.median(times)
            row[f"{key}_range"] = [times[0], times[-1]]
        else:
            row[key] = value
    return row


def interleaved(calls) -> list[dict]:
    """REPEATS rounds, each calling every row once in order; one summary per row."""
    runs = [[] for _ in calls]
    for _ in range(REPEATS):
        for row_runs, call in zip(runs, calls):
            row_runs.append(call())
    return [summarize(row_runs) for row_runs in runs]


def _text(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ",".join(map(_text, value)) + "]"
    return str(value)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 benchmarks/bench.py OUT.json", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        result = {"env": environment(), "rows": interleaved(row_calls(Path(workdir)))}
    for row in result["rows"]:
        print(" ".join(f"{k}={_text(v)}" for k, v in row.items()))
    Path(argv[0]).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
