"""benchmarks/mutants.py: a live mutant is killed, a stale one is named
stale, and a run that ends without a test result is an error, not a kill.

The full mutant run is not part of tier-1; it copies the checkout and runs
tier-1 once per mutant (see the tool's docstring).
"""

import importlib.util
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

REPORT = re.compile(
    r"^mutant id=(\S+) status=(killed|survived|stale|error) first_failure=(\S+) seconds=\d+\.\d$")


def test_every_listed_mutant_applies_to_this_checkout():
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.id


def test_a_live_mutant_is_killed_and_a_stale_one_is_named():
    (swapped,) = [m for m in mutants.MUTANTS if m.id == "cn-wires-swapped"]
    line = mutants.run_mutant(swapped, tests=("tests/test_relations.py",))
    assert REPORT.match(line).groups()[:2] == ("cn-wires-swapped", "killed")
    assert REPORT.match(line)[3].startswith("tests/test_relations.py::")
    line = mutants.run_mutant(swapped, tests=("tests/no_such_file.py",))
    assert REPORT.match(line).groups() == ("cn-wires-swapped", "error", "-")
    stale = mutants.Mutant("gone", swapped.file, "text that is not in the file", "")
    line = mutants.run_mutant(stale)
    assert REPORT.match(line).groups() == ("gone", "stale", "-")
    source = (mutants.ROOT / swapped.file).read_text(encoding="utf-8")
    assert swapped.old in source  # the checkout itself was not edited


def test_a_mutant_that_breaks_the_import_is_an_error_not_a_kill():
    (swapped,) = [m for m in mutants.MUTANTS if m.id == "cn-wires-swapped"]
    broken = mutants.Mutant("import-fails", swapped.file, swapped.old,
                            swapped.old + "\nraise KeyError(4)")
    line = mutants.run_mutant(broken, tests=("tests/test_relations.py",))
    assert REPORT.match(line).groups() == ("import-fails", "error", "-")


@pytest.mark.parametrize("returncode,output,want", [
    (0, "5 passed in 1.0s\n", ("survived", "-")),
    (1, "FAILED tests/test_a.py::test_b - assert 0\n", ("killed", "tests/test_a.py::test_b")),
    (1, "ERROR tests/test_a.py::test_b - fixture\n", ("killed", "tests/test_a.py::test_b")),
    (1, "ERROR tests/test_a.py - KeyError: 4\n", ("error", "-")),
    (1, "1 failed\n", ("error", "-")),
    (2, "FAILED tests/test_a.py::test_b - assert 0\n", ("error", "-")),
], ids=["passed", "failed-test", "test-in-error", "collection-error", "no-summary", "interrupted"])
def test_only_a_named_test_kills(returncode, output, want):
    assert mutants.verdict(returncode, "short test summary info\n" + output) == want
