"""Mutation check: does tier-1 catch each of a list of known faults?

    python3 benchmarks/mutants.py

Runs every mutant in ``MUTANTS``.  A mutant is one exact edit of one file:
(id, file, old text, new text).  For each, the checkout's ``src``,
``tests``, ``samples`` and ``benchmarks`` and its ``pyproject.toml`` are
copied to a temporary directory, the edit is made there, and tier-1 runs on the copy with
``-x -q``, so the checkout itself is never edited.  This tool's own test,
which runs mutants, is left out of the copy's run.  One line per mutant:

    mutant id=ID status=killed|survived|stale|error first_failure=TEST seconds=S

``killed``: pytest reported a failed test (exit code 1), and first_failure
names it (``path::name``).  ``survived``: every test passed.  ``stale``:
the old text does not occur exactly once in the file, so the edit no
longer describes the code; no tests run.  ``error``: pytest ended any
other way (a test file that fails to collect, say because the edit breaks
an import; interrupted, internal error, usage error, no tests collected),
so the run says nothing about whether a test sees the mutant.  For the
last three, first_failure is ``-``.

First a control runs: the first mutant's file copied without an edit
(id ``unmutated``), which must survive; if it does not, the copy itself is
broken, and no mutant runs.  The exit status is 0 only if the control
survived and every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "samples", "benchmarks", "pyproject.toml")
OWN_TEST = "tests/test_mutants.py"


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str


MUTANTS = [
    # The CN block (circuits.CN_BLOCK).
    Mutant("cn-wires-swapped", "src/stabtensor/circuits.py",
           "((0, 0, 0, 1), (1, 1, 1, 0)))",
           "((1, 1, 1, 0), (0, 0, 0, 1)))"),
    # The step table (circuits._STEP_NODES) and the word search's N step.
    Mutant("not-constant-on-xor-leg-1", "src/stabtensor/circuits.py",
           '"N": ("xor", "ket1", 2, 1, 0),', '"N": ("xor", "ket1", 1, 2, 0),'),
    Mutant("phase-on-copy-leg-1", "src/stabtensor/circuits.py",
           '("copy", f"t{k}", 0, 2, 1)', '("copy", f"t{k}", 1, 2, 0)'),
    # N taken as X Z, its first row's sign flipped: the 192 elements are
    # the same, so the module still imports, but every N step is wrong.
    Mutant("not-step-first-row-negated", "src/stabtensor/circuits.py",
           "return c, d, a, b, h", "return -c, -d, a, b, h"),
    # The phases omega**g a run leaves beside its class word (circuits._SCALARS).
    Mutant("omega-powers-conjugated", "src/stabtensor/circuits.py",
           "(e, complex(a) * gen.SQRT_HALF ** h)",
           "(e, complex(a).conjugate() * gen.SQRT_HALF ** h)"),
    # The run products (circuits._RUN_AFTER).
    Mutant("run-product-composed-backwards", "src/stabtensor/circuits.py",
           "_followed_by(e, f) for e in", "_followed_by(f, e) for e in"),
    # The run ends (circuits.compile_circuit): a CN ends the runs on both
    # wires, and every run's phase joins the network's, a run of the
    # identity class too.
    Mutant("cn-leaves-target-run-open", "src/stabtensor/circuits.py",
           "if op is None else op.wires:", "if op is None else op.wires[:1]:"),
    Mutant("identity-class-phase-dropped", "src/stabtensor/circuits.py",
           "            phase += PHASE[e]\n            if WORD_BLOCKS[e]:\n",
           "            if WORD_BLOCKS[e]:\n                phase += PHASE[e]\n"),
    # The start table (circuits._START): a state's first run on a wire is
    # swapped with its ket for a pair that makes the same state, phase
    # included.
    Mutant("start-entry-wrong-bit", "src/stabtensor/circuits.py",
           "first.setdefault(_column(e, bit), (e, bit))",
           'first.setdefault(_column(e, bit), (e, "0"))'),
    Mutant("start-phase-dropped", "src/stabtensor/circuits.py",
           "first.setdefault(_column(e, bit), (e, bit))",
           "first.setdefault(_column(e, bit), (CLASS[e], bit))"),
    # The parse's table of built ops (circuits.parse_circuit), keyed by the
    # stripped line: keyed by gate name, every op of a gate is its first.
    Mutant("parse-shares-by-gate-name", "src/stabtensor/circuits.py",
           '            op = built.get(line)\n'
           '            if op is None:\n'
           '                gate = _GATE_NAMES.get(head)\n'
           '                if gate is None:\n'
           '                    raise CircuitParseError(f"unknown gate {head!r}")\n'
           '                if not all(w.isascii() and w.isdigit() for w in fields[1:]):\n'
           '                    raise CircuitParseError(f"bad wire list in {line!r}")\n'
           '                wires = tuple(map(int, fields[1:]))\n'
           '                op = GateApp(gate, shared_wires.setdefault(wires, wires))\n'
           '                _check_wires(wires, width)\n'
           '                built[line] = op\n',
           '            op = built.get(head)\n'
           '            if op is None:\n'
           '                gate = _GATE_NAMES.get(head)\n'
           '                if gate is None:\n'
           '                    raise CircuitParseError(f"unknown gate {head!r}")\n'
           '                if not all(w.isascii() and w.isdigit() for w in fields[1:]):\n'
           '                    raise CircuitParseError(f"bad wire list in {line!r}")\n'
           '                wires = tuple(map(int, fields[1:]))\n'
           '                op = GateApp(gate, shared_wires.setdefault(wires, wires))\n'
           '                _check_wires(wires, width)\n'
           '                built[head] = op\n'),
    # The parse's range and input checks (circuits.parse_circuit): made on
    # the line that holds the fault, and against the whole width.
    Mutant("parse-wire-range-unchecked", "src/stabtensor/circuits.py",
           "                _check_wires(wires, width)\n", ""),
    Mutant("parse-input-unchecked", "src/stabtensor/circuits.py",
           "                _check_input(input_bits, width)\n", ""),
    Mutant("wire-range-off-by-one", "src/stabtensor/circuits.py",
           "if not 0 <= w < width:", "if not 0 <= w <= width:"),
    # The one tag table (circuits.generator_tensors) every diagram reads.
    Mutant("tag-table-ket0-is-ket1", "src/stabtensor/circuits.py",
           '"ket0": gen.ket_zero()', '"ket0": gen.ket_one()'),
    # The network's scalar (tensor.TensorNetwork), which carries that phase.
    Mutant("phase-dropped", "src/stabtensor/tensor.py",
           "        self.scalar = scalar\n", "        self.scalar = 1\n"),
    # The relation tables (relations.RELATIONS and relations.HADAMARD_BASIS).
    Mutant("unit-laws-xor-unit-ket1", "src/stabtensor/relations.py",
           '(("xor", "ket0", "copy", "plus")', '(("xor", "ket1", "copy", "plus")'),
    Mutant("copy-laws-right-side-ket0", "src/stabtensor/relations.py",
           '(("ket0", "ket0", "ket1", "ket1")', '(("ket0", "ket0", "ket0", "ket1")'),
    Mutant("xor-hadamard-conjugation-id-for-h", "src/stabtensor/relations.py",
           '(("copy", "H", "H", "H")', '(("copy", "H", "H", "id")'),
    # Only the phase-composition report reads this side: t1.t1 is t2, not t1.
    Mutant("phase-composition-right-side-t1", "src/stabtensor/relations.py",
           '(("t2", "plus"), ()', '(("t1", "plus"), ()'),
    # The self-test's corrupted copy (cli.report_groups) reaches both tables.
    Mutant("hadamard-basis-without-corrupted-copy", "src/stabtensor/cli.py",
           "verify_relation(rid, tol, delta)\n"
           "                                   for rid in relations.HADAMARD_BASIS",
           "verify_relation(rid, tol)\n"
           "                                   for rid in relations.HADAMARD_BASIS"),
    # The polarity table (boolfn.polarity_table) the Hadamard columns are
    # checked against: negated whole, and -1 wherever c . x is nonzero
    # rather than odd (wrong from n = 2, where c = x = 11 gives 2).
    Mutant("polarity-table-negated", "src/stabtensor/boolfn.py",
           "return 1 - 2 * ((points @ points.T) & 1)",
           "return 2 * ((points @ points.T) & 1) - 1"),
    Mutant("polarity-table-or-for-xor", "src/stabtensor/boolfn.py",
           "return 1 - 2 * ((points @ points.T) & 1)",
           "return 1 - 2 * ((points @ points.T) > 0)"),
    # The crosscheck (oracles.crosscheck_circuit): the worst Pauli string
    # counts, and the amplitudes are compared with no scalar fitted out.
    Mutant("crosscheck-min-for-max", "src/stabtensor/oracles.py",
           "float(np.max(deltas))", "float(np.min(deltas))"),
    Mutant("crosscheck-fits-scalar", "src/stabtensor/oracles.py",
           "    amp_delta = float(np.max(np.abs(net_state - dense.amplitudes)))\n"
           "    scalar_mag = float(np.linalg.norm(net_state))\n",
           "    amp_delta, scalar_mag = phase_fixed_delta(net_state, dense.amplitudes)\n"),
    # The oracles' signs: H's update of the tableau signs (the S branch
    # has the same sign line, so the swap that follows is part of the
    # text), each stabilizer row's sign in the tableau expectations, and
    # the i**(#Y) factor of a string on the dense state.
    Mutant("tableau-h-sign-dropped", "src/stabtensor/oracles.py",
           "            self.signs ^= x[a] & z[a]\n"
           "            x[a], z[a] = z[a], x[a]\n",
           "            x[a], z[a] = z[a], x[a]\n"),
    Mutant("tableau-row-sign-dropped", "src/stabtensor/oracles.py",
           "- (x3 & z3).bit_count()\n"
           "                      + 2 * (signs >> (n + k) & 1))",
           "- (x3 & z3).bit_count())"),
    Mutant("dense-y-factor-dropped", "src/stabtensor/oracles.py",
           "rows = _I_POWERS[(x & z).sum(axis=1) % 4][:, None] * signs * psi[j]",
           "rows = signs * psi[j]"),
    # The tableau expectations' product of stabilizer rows: the sign that
    # the order of X and Z across the two factors gives, and the rows a
    # string anticommutes with through its Z and Y letters.
    Mutant("tableau-product-order-term-dropped", "src/stabtensor/oracles.py",
           "+ 2 * (z1 & x2).bit_count() - (x3", "- (x3"),
    Mutant("tableau-anti-ignores-z-letters", "src/stabtensor/oracles.py",
           "                    anti ^= xcols[a]\n", ""),
    # Faults named in CHANGES.md.
    Mutant("tableau-cn-sign-dropped", "src/stabtensor/oracles.py",
           "            self.signs ^= x[c] & z[t] & ~(x[t] ^ z[c])\n", ""),
    Mutant("writer-signed-zeros-merged", "src/stabtensor/cli.py",
           "flat = state.array.reshape(-1).view(np.uint64)",
           "flat = (state.array.reshape(-1) + 0.0).view(np.uint64)"),
    # The writer's chunks (cli.TEXT_LINES): each chunk's index digits and
    # amplitude parts start where the chunk does, not at the state's start.
    Mutant("writer-chunk-index-not-advanced", "src/stabtensor/cli.py",
           "np.arange(start, start + count,", "np.arange(0, count,"),
    Mutant("writer-chunk-parts-not-advanced", "src/stabtensor/cli.py",
           "chunk = flat[2 * start:2 * (start + TEXT_LINES)]", "chunk = flat[:2 * TEXT_LINES]"),
    Mutant("walk-self-bond-test-dropped", "src/stabtensor/tensor.py",
           "is not None or x == y):", "is not None):"),
    Mutant("claim-mark-dropped", "src/stabtensor/tensor.py",
           "    partner[first + k] = _OPEN\n    return first + k",
           "    return first + k"),
    # Arguments read once (a one-shot iterator passes the order check and
    # must not be used up by it), and a tensor's rank under the integer rule.
    Mutant("plan-order-read-twice", "src/stabtensor/tensor.py",
           "sorted(order := list(order))", "sorted(order)"),
    Mutant("tensor-rank-not-an-int", "src/stabtensor/tensor.py",
           '        rank = as_int(rank, "tensor rank")\n', ""),
    # A bond kept as given only when it is a plain tuple of four fields.
    Mutant("bond-tuple-length-unchecked", "src/stabtensor/tensor.py",
           "type(b) is tuple and len(b) == 4 else", "type(b) is tuple else"),
    # Operands and Pauli strings of the wrong type are worded errors.
    Mutant("contract-operand-type-unworded", "src/stabtensor/tensor.py",
           "    try:\n        rank_a, rank_b = a._rank, b._rank\n    except AttributeError:\n",
           "    rank_a, rank_b = a._rank, b._rank\n    if False:\n"),
    Mutant("pauli-str-unchecked", "src/stabtensor/oracles.py",
           "if not isinstance(pauli, str) or len(pauli) != n", "if len(pauli) != n"),
    # Sizes under the integer rule: the phase vector's power, the polarity
    # table's bit count, the seeded circuit's depth, and the seeds.
    Mutant("t-vector-k-not-an-int", "src/stabtensor/generators.py",
           'as_int(k, "t_vector k") % 4', "k % 4"),
    Mutant("polarity-table-n-unchecked", "src/stabtensor/boolfn.py",
           '    n = _as_bits(n)\n    check_rank(2 * n, "a polarity table")\n',
           '    check_rank(2 * n, "a polarity table")\n'),
    Mutant("random-circuit-seed-not-an-int", "src/stabtensor/oracles.py",
           "    gates = fitting\n    rng = random.Random(as_int(seed, \"seed\"))\n",
           "    gates = fitting\n    rng = random.Random(seed)\n"),
    Mutant("crosscheck-paulis-seed-not-an-int", "src/stabtensor/oracles.py",
           '    rng = random.Random(as_int(seed, "seed"))\n    for _ in range(8):',
           "    rng = random.Random(seed)\n    for _ in range(8):"),
    # A polarity table past the rank budget is refused, and sizes are
    # compared and named without building 2**n (the n = 100000 rows kill
    # these before a 2**40 row would try to build 2**(2**40)).
    Mutant("polarity-table-size-unbounded", "src/stabtensor/boolfn.py",
           '    check_rank(2 * n, "a polarity table")\n', ""),
    Mutant("tensor-size-compared-by-power", "src/stabtensor/tensor.py",
           "if not is_table_size(arr.size, rank):\n            raise ValueError(\n"
           "                f\"rank-{rank} tensor needs {table_size_text(rank)} entries",
           "if arr.size != 1 << rank:\n            raise ValueError(\n"
           "                f\"rank-{rank} tensor needs {1 << rank} entries"),
    Mutant("random-circuit-negative-depth-allowed", "src/stabtensor/oracles.py",
           "    if depth < 0:\n", "    if depth < -1:\n"),
    # The one fitted scalar (relations.compare): never through lambda ~ 0,
    # fitted at the right side's largest entry, and its deviation scaled.
    Mutant("compare-zero-scalar-holds", "src/stabtensor/relations.py",
           "if dev <= tol and abs(lam) > tol:", "if dev <= tol:"),
    Mutant("compare-pivot-argmin", "src/stabtensor/relations.py",
           "pivot = int(np.argmax(np.abs(flat)))", "pivot = int(np.argmin(np.abs(flat)))"),
    Mutant("compare-deviation-unscaled", "src/stabtensor/relations.py",
           "np.abs(lhs.array - lam * rhs.array)", "np.abs(lhs.array - rhs.array)"),
    # The oracles' input checks, each made before any draw or oracle run.
    Mutant("crosscheck-state-type-unchecked", "src/stabtensor/oracles.py",
           "    if not isinstance(state, Tensor):\n", "    if False:\n"),
    Mutant("crosscheck-state-rank-unchecked", "src/stabtensor/oracles.py",
           "    if state.rank != circuit.width:\n", "    if False:\n"),
    Mutant("state-vector-width-not-an-int", "src/stabtensor/oracles.py",
           'n = as_int(self.n, "state width")', "n = self.n"),
    Mutant("state-vector-size-unchecked", "src/stabtensor/oracles.py",
           "if not is_table_size(np.size(self.amplitudes), n):", "if False:"),
    Mutant("state-vector-size-compared-by-power", "src/stabtensor/oracles.py",
           "if not is_table_size(np.size(self.amplitudes), n):\n"
           "            raise ValueError(f\"{n}-qubit state needs {table_size_text(n)} amplitudes",
           "if np.size(self.amplitudes) != 1 << n:\n"
           "            raise ValueError(f\"{n}-qubit state needs {1 << n} amplitudes"),
    Mutant("state-vector-not-frozen", "src/stabtensor/oracles.py",
           "@dataclass(frozen=True)\nclass StateVector:", "@dataclass\nclass StateVector:"),
    Mutant("tableau-width-not-an-int", "src/stabtensor/oracles.py",
           '        n = as_int(n, "tableau width")\n', ""),
    Mutant("random-circuit-gate-names-unchecked", "src/stabtensor/oracles.py",
           "        if not (isinstance(gate, str) and gate in GATE_ARITY):\n",
           "        if False:\n"),
    Mutant("random-circuit-no-fitting-gate-allowed", "src/stabtensor/oracles.py",
           "    if not fitting:\n", "    if False:\n"),
]


def verdict(returncode: int, output: str) -> tuple[str, str]:
    """The status of a pytest run with exit code `returncode` and stdout
    `output`, and its first failure: the first test the short summary names
    as failed or in error, or ``-``.  A summary line naming a file, not a
    test, is a collection error."""
    if returncode == 0:
        return "survived", "-"
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            failure = line.split()[1]
            if returncode == 1 and "::" in failure:
                return "killed", failure
            break
    return "error", "-"


def run_mutant(mutant: Mutant, tests: tuple[str, ...] = ()) -> str:
    """Apply `mutant` to a copy of the checkout, run tier-1 (or the test
    files `tests`) on it, and return the report line."""
    start = time.perf_counter()
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        status, failure = "stale", "-"
    else:
        with tempfile.TemporaryDirectory(prefix="stabtensor-mutant-") as tmp:
            for name in COPIED:
                source, target = ROOT / name, Path(tmp) / name
                if source.is_dir():
                    shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                        "__pycache__", ".hypothesis", ".pytest_cache"))
                else:
                    shutil.copy2(source, target)
            (Path(tmp) / mutant.file).write_text(
                text.replace(mutant.old, mutant.new), encoding="utf-8")
            args = list(tests) or [f"--ignore={OWN_TEST}"]
            # The copy's pyproject puts its own src on the path; a PYTHONPATH
            # naming the checkout's src must not shadow it.
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
                cwd=tmp, env=env, capture_output=True, text=True)
        status, failure = verdict(done.returncode, done.stdout)
    seconds = time.perf_counter() - start
    return (f"mutant id={mutant.id} status={status} first_failure={failure} "
            f"seconds={seconds:.1f}")


def main() -> int:
    first = MUTANTS[0]
    control = run_mutant(Mutant("unmutated", first.file, first.old, first.old))
    print(control, flush=True)
    if "status=survived" not in control:
        return 1
    lines = []
    for mutant in MUTANTS:
        lines.append(run_mutant(mutant))
        print(lines[-1], flush=True)
    return 1 if any("status=killed" not in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
