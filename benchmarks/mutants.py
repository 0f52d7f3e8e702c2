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
names it.  ``survived``: every test passed.  ``stale``: the old text does
not occur exactly once in the file, so the edit no longer describes the
code; no tests run.  ``error``: pytest ended any other way (interrupted,
internal error, usage error, no tests collected), so the run says nothing
about the mutant.  For the last three, first_failure is ``-``.

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
    # The gate table (circuits.GATE_BLOCKS).
    Mutant("cn-wires-swapped", "src/stabtensor/circuits.py",
           "((0, 0, 0, 1), (1, 1, 1, 0)))",
           "((1, 1, 1, 0), (0, 0, 0, 1)))"),
    Mutant("not-constant-on-xor-leg-1", "src/stabtensor/circuits.py",
           '(("xor", "one"), ((1, 0, 0, 2),), ((0, 1, 0, 0),))',
           '(("xor", "one"), ((1, 0, 0, 1),), ((0, 2, 0, 0),))'),
    Mutant("phase-on-copy-leg-1", "src/stabtensor/circuits.py",
           "inner.append((node + 1, 0, node, 0))\n            leg_in, leg_out = 2, 1",
           "inner.append((node + 1, 0, node, 1))\n            leg_in, leg_out = 2, 0"),
    # The relation table (relations.RELATIONS).
    Mutant("unit-laws-xor-unit-ket1", "src/stabtensor/relations.py",
           '(("xor", "ket0", "copy", "plus")', '(("xor", "ket1", "copy", "plus")'),
    Mutant("copy-laws-right-side-ket0", "src/stabtensor/relations.py",
           '(("ket0", "ket0", "ket1", "ket1")', '(("ket0", "ket0", "ket0", "ket1")'),
    # Faults named in CHANGES.md.
    Mutant("tableau-cn-sign-dropped", "src/stabtensor/oracles.py",
           "            self.r ^= (\n"
           "                self.x[:, c]\n"
           "                & self.z[:, t]\n"
           "                & (self.x[:, t] ^ self.z[:, c] ^ 1)\n"
           "            )\n",
           ""),
    Mutant("writer-signed-zeros-merged", "src/stabtensor/cli.py",
           "flat = state.array.reshape(-1).view(np.uint64)",
           "flat = (state.array.reshape(-1) + 0.0).view(np.uint64)"),
    Mutant("walk-self-bond-test-dropped", "src/stabtensor/tensor.py",
           "is not None or x == y):", "is not None):"),
    Mutant("claim-mark-dropped", "src/stabtensor/tensor.py",
           "    partner[first + k] = _OPEN\n    return first + k",
           "    return first + k"),
]


def first_failure(output: str) -> str:
    """The first test pytest's short summary names as failed or in error."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "-"


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
        status = {0: "survived", 1: "killed"}.get(done.returncode, "error")
        failure = first_failure(done.stdout) if status == "killed" else "-"
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
