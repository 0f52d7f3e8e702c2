"""The four benchmark workloads: inputs, the timed op, and its check.

Inputs come from the seed alone: ``oracles.random_clifford_circuit`` makes
the circuits and they are written out as circuit files, so the program
only ever sees those files.  Each op's output is checked after its timer
stops.

Importing this module imports stabtensor from the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from stabtensor import circuits, cli, oracles  # noqa: E402

# Case k of each width gets depth lo + (hi - lo + 1) * frac(k * GOLDEN), so
# any prefix of the cases spreads evenly over widths and depths and only
# the gates differ between seeds.
GOLDEN = (5 ** 0.5 - 1) / 2

# Largest deviation from the dense oracle after removing one global scalar.
AMP_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    index: int
    path: str | None = None
    circuit: object = None  # the generated Circuit, the check's reference
    parsed: object = None  # the program's parse of the file, for no-CLI ops


def circuit_text(c) -> str:
    lines = [f"wires {c.width}"]
    if c.input is not None:
        lines.append(f"input {c.input}")
    lines += [" ".join([op.gate, *map(str, op.wires)]) for op in c.ops]
    return "\n".join(lines) + "\n"


def run_cli(argv) -> tuple[int, str]:
    """Call ``cli.main`` in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def amp_records(text: str) -> list[complex]:
    """Amplitudes of a ``--format records`` simulate output, in index order."""
    amps = []
    for line in text.splitlines():
        if not line.startswith("amp "):
            continue
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        if int(fields["index"], 2) != len(amps):
            raise ValueError(f"amp record out of order: {line!r}")
        amps.append(complex(float(fields["re"]), float(fields["im"])))
    return amps


def state_mismatch(amps, circuit) -> str | None:
    """None when `amps` is the dense oracle's state up to one scalar."""
    if len(amps) != 1 << circuit.width:
        return f"{len(amps)} amplitudes for {circuit.width} wires"
    reference = oracles.dense_simulate(circuit).amplitudes
    delta, scale = oracles.phase_fixed_delta(np.asarray(amps, dtype=complex), reference)
    if scale == 0.0 or not delta <= AMP_TOL:
        return f"amplitude delta {delta!r} (scalar magnitude {scale!r})"
    return None


class Workload:
    """One workload: generates its cases from a seed, runs and checks ops."""

    name = ""
    why = ""
    widths: tuple[int, ...] = ()
    depths: tuple[int, int] = (0, 0)
    inputs = 0  # distinct circuits per seed; the timed loop cycles them
    trace_ops = 0  # ops in the fixed traced pass
    parse_inputs = False

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = self.make_cases()

    def make_cases(self) -> list[Case]:
        rng = random.Random(f"{self.name}:{self.seed}")
        folder = WORK / self.name
        folder.mkdir(parents=True, exist_ok=True)
        cases = []
        lo, hi = self.depths
        for i in range(self.inputs):
            width = self.widths[i % len(self.widths)]
            depth = lo + int((hi - lo + 1) * (i // len(self.widths) * GOLDEN % 1.0))
            circuit = oracles.random_clifford_circuit(width, depth, rng.randrange(1 << 31))
            path = folder / f"c{i:04d}.circ"
            path.write_text(circuit_text(circuit), encoding="utf-8")
            parsed = None
            if self.parse_inputs:
                parsed = circuits.parse_circuit(path.read_text(encoding="utf-8"))
            cases.append(Case(i, str(path), circuit, parsed))
        return cases

    def op(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, output) -> str | None:
        """None when the op's output is correct, else why it is not."""
        raise NotImplementedError


class CrosscheckNarrow(Workload):
    name = "crosscheck-narrow"
    why = ("simulate --crosscheck, 2-6 wires, depth 1-30: per-call overhead, "
           "both oracles and the doubled circuit_state call do real work")
    widths = (2, 3, 4, 5, 6)
    depths = (1, 30)
    inputs = 1000
    trace_ops = 100

    def op(self, case):
        return run_cli(["--format", "records", "simulate", case.path,
                        "--crosscheck", "--seed", str(case.index)])

    def check(self, case, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        if not lines or not lines[-1].endswith(" status=ok"):
            return "crosscheck status is not ok"
        return state_mismatch(amp_records(text), case.circuit)


class SimulateWide(Workload):
    name = "simulate-wide"
    why = ("simulate, 8-12 wires, depth 10-30, no oracles: the greedy "
           "planner and printing 2**width amp records dominate")
    widths = (8, 9, 10, 11, 12)
    depths = (10, 30)
    inputs = 1000
    trace_ops = 100

    def op(self, case):
        return run_cli(["--format", "records", "simulate", case.path])

    def check(self, case, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        return state_mismatch(amp_records(text), case.circuit)


class ContractOrdered(Workload):
    name = "contract-ordered"
    why = ("compile and contract in gate order, 10-12 wires, depth 30-50, "
           "no CLI: bypasses the planner, so kernels and Tensor construction dominate")
    widths = (10, 11, 12)
    depths = (30, 50)
    inputs = 1200
    trace_ops = 60
    parse_inputs = True

    def op(self, case):
        net = circuits.compile_circuit(case.parsed)
        return net.contract(order=list(range(len(net.bonds))))

    def check(self, case, output):
        return state_mismatch(list(output.data), case.circuit)


class VerifySuite(Workload):
    name = "verify-suite"
    why = ("verify: the relation suite's tiny tensors (rank <= 8); the only "
           "user of relations/boolfn, and where a large-tensor speed-up can cost")
    trace_ops = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference: str | None = None

    def make_cases(self):
        return [Case(0)]

    def op(self, case):
        return run_cli(["--format", "records", "verify"])

    def check(self, case, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        flagged = [line for line in text.splitlines()
                   if line.startswith("check=cn-contraction-vs-wired ")]
        if len(flagged) != 1 or not flagged[0].endswith(" expected=mismatch"):
            return "cn-contraction-vs-wired is not flagged expected=mismatch"
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "records differ from the first run"
        return None


WORKLOADS = {w.name: w for w in (CrosscheckNarrow, SimulateWide, ContractOrdered, VerifySuite)}
