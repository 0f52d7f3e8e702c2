"""CLI behaviour: subcommands, exit codes, deterministic records."""

import argparse
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stabtensor import boolfn, circuits, cli, oracles
from stabtensor.circuits import Circuit, circuit_state
from stabtensor.tensor import DEFAULT_TOL, MAX_RANK, Tensor

SRC = Path(__file__).resolve().parents[1] / "src"

BELL_FILE = "# bell pair\nwires 2\nH 0\nCN 0 1\n"
CNOT_TABLE = "bits 2\n00 00\n01 01\n10 11\n11 10\n"
AND_TABLE = "bits 2\n00 00\n01 00\n10 00\n11 01\n"


def _line_loop_output(fmt, state):
    """Reference for simulate's state output: one f-string per amplitude."""
    n = state.rank
    lines = []
    if fmt == "records":
        lines.append(f"state wires={n}")
        for k, amp in enumerate(state.data):
            lines.append(f"amp index={k:0{n}b} re={amp.real!r} im={amp.imag!r}")
    else:
        lines.append(f"output state on {n} wire(s):")
        for k, amp in enumerate(state.data):
            lines.append(f"  |{k:0{n}b}>  {amp.real:+.10f}{amp.imag:+.10f}j")
    return "".join(line + "\n" for line in lines)


def _assert_same_text(out, expected, note=None):
    """assert out == expected, reported by the first line that differs.

    pytest's own report of two unequal strings is a difflib diff, quadratic
    in the lines that differ: on simulate outputs of 2**11 lines that differ
    on every line it runs for minutes."""
    if out != expected:
        got, want = out.splitlines(), expected.splitlines()
        k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        pytest.fail(f"output of {len(got)} lines, expected {len(want)}; line {k + 1} is "
                    f"{got[k:k + 1]}, expected {want[k:k + 1]}; {note}", pytrace=False)


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _circuit_file(path, circuit):
    lines = [f"wires {circuit.width}", f"input {circuit.input}"]
    lines += [" ".join([op.gate, *map(str, op.wires)]) for op in circuit.ops]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _seeded_circuits():
    """Two circuits per width 1-12, with NOT, from zero and nonzero inputs."""
    rng = random.Random(5)
    gates = oracles.CLIFFORD_GATES + ("NOT",)
    for width in range(1, 13):
        for start in range(2):
            circ = oracles.random_clifford_circuit(
                width, rng.randrange(10, 60), rng.randrange(1 << 30), gates=gates)
            bits = format(start * rng.randrange(1, 1 << width), f"0{width}b")
            yield Circuit(width, circ.ops, bits)


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.fixture()
def bell_path(tmp_path):
    path = tmp_path / "bell.circ"
    path.write_text(BELL_FILE)
    return str(path)


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "hopf" in out
        assert "Fails" not in out.replace("Fails (expected, documented)", "")

    def test_loose_tolerance_still_passes(self):
        assert cli.main(["verify", "--tol", "1e-3"]) == 0

    def test_expected_mismatch_is_reported_but_not_fatal(self, capsys):
        assert cli.main(["--format", "records", "verify"]) == 0
        out = capsys.readouterr().out
        assert "check=cn-contraction-vs-wired status=Fails" in out
        assert "expected=mismatch" in out

    def test_injected_fault_fails_copy_laws(self, capsys):
        assert cli.main(["--format", "records", "verify", "--selftest-fault"]) == 1
        out = capsys.readouterr().out
        assert "check=copy-laws status=Fails" in out

    def test_injected_fault_fails_phase_composition(self, capsys):
        # The corrupted copy's entry 010 makes entry 0 of t1.t1 read 1 + i.
        assert cli.main(["--format", "records", "verify", "--selftest-fault"]) == 1
        out = capsys.readouterr().out
        assert "check=phase-composition status=Fails" in out

    def test_injected_fault_fails_both_hadamard_basis_laws(self, capsys):
        # Both laws' diagrams hold a copy node, so the corrupted copy reaches them.
        assert cli.main(["--format", "records", "verify", "--selftest-fault"]) == 1
        captured = capsys.readouterr()
        for rid in ("xor-hadamard-conjugation", "xor-copies-plus-minus"):
            assert f"check={rid} status=Fails lambda=- " in captured.out
        assert captured.err == "9 relation(s) failed\n"

    def test_records_are_byte_identical_across_runs(self, capsys):
        cli.main(["--format", "records", "verify"])
        first = capsys.readouterr().out
        cli.main(["--format", "records", "verify"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_tolerance_respected(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_TOL, "1e-6")
        assert cli.main(["verify"]) == 0
        monkeypatch.setenv(cli.ENV_TOL, "not-a-number")
        with pytest.raises(SystemExit) as err:
            cli.main(["verify"])
        assert err.value.code == 2


class TestSimulate:
    def test_bell_amplitudes(self, capsys, bell_path):
        assert cli.main(["--format", "records", "simulate", bell_path]) == 0
        out = capsys.readouterr().out
        assert "amp index=00 re=0.7071067811865475" in out
        assert "amp index=01 re=0.0" in out
        assert "amp index=11 re=0.7071067811865475" in out

    def test_basis_input(self, capsys, tmp_path):
        path = tmp_path / "cn.circ"
        path.write_text("wires 2\ninput 10\nCN 0 1\n")
        assert cli.main(["--format", "records", "simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "amp index=11 re=1.0" in out

    def test_crosscheck_ok(self, capsys, bell_path):
        assert cli.main(["simulate", bell_path, "--crosscheck"]) == 0
        assert "crosscheck status: ok" in capsys.readouterr().out

    def test_crosscheck_contracts_once(self, capsys, bell_path, monkeypatch):
        calls = []

        def counting(circuit):
            calls.append(circuit)
            return circuits.circuit_state(circuit)

        for module in (cli, oracles):
            monkeypatch.setattr(module, "circuit_state", counting)
        assert cli.main(["simulate", bell_path, "--crosscheck"]) == 0
        assert "crosscheck status: ok" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("factor", [1j, 3], ids=["times-i", "times-3"])
    def test_crosscheck_checks_the_printed_state(self, factor, capsys, bell_path, monkeypatch):
        # The amplitudes are compared as printed, with no scalar fitted
        # out, so a global phase or a norm is a fault.
        state = circuit_state(circuits.parse_circuit(BELL_FILE)).scale(factor)
        monkeypatch.setattr(cli, "circuit_state", lambda circuit: state)
        assert cli.main(["--format", "records", "simulate", bell_path, "--crosscheck"]) == 1
        *amps, record = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(amps) == _line_loop_output("records", state)
        fields = dict(field.split("=") for field in record.split()[1:])
        assert fields["status"] == "disagree"
        assert float(fields["amp_delta"]) == pytest.approx(abs(factor - 1) / 2 ** 0.5)
        assert float(fields["scalar_magnitude"]) == pytest.approx(abs(factor))
        assert float(fields["expectation_delta"]) <= 1e-12

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.circ"
        path.write_text("wires 2\nCN 0 0\n")
        assert cli.main(["simulate", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert cli.main(["simulate", "/nonexistent/file.circ"]) == 2

    # Numbers are ASCII decimal digits only; int() would take each of these.
    @pytest.mark.parametrize("text, message", [
        ("wires \u0663\nH \u0660\nCN \u0660 \u0662\n",
         "line 1: bad wires header 'wires \u0663'"),
        ("wires 3\nH \u0660\n", "line 2: bad wire list in 'H \u0660'"),
        ("wires 11\nH 1_0\n", "line 2: bad wire list in 'H 1_0'"),
        ("wires 4\nX +3\n", "line 2: bad wire list in 'X +3'"),
        ("wires \u00b2\nH 0\n", "line 1: bad wires header 'wires \u00b2'"),
    ], ids=["arabic-indic-header", "arabic-indic-wire", "underscore", "plus", "superscript"])
    def test_wire_numbers_are_ascii_digits(self, text, message, tmp_path, capsys):
        path = tmp_path / "digits.circ"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.circ"
        path.write_bytes(b"# \xff\xfe\nwires 1\nH 0\n")
        assert cli.main(["--format", "records", "simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["records", "human"])
    def test_byte_order_mark_is_dropped(self, fmt, tmp_path, capsys):
        plain, marked = tmp_path / "plain.circ", tmp_path / "bom.circ"
        plain.write_text(BELL_FILE, encoding="utf-8")
        marked.write_text(BELL_FILE, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for path in (plain, marked):
            assert cli.main(["--format", fmt, "simulate", str(path), "--crosscheck"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_non_utf8_file_after_byte_order_mark_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bom-latin.circ"
        path.write_bytes(b"\xef\xbb\xbfwires 1\n# \xff\nH 0\n")
        assert cli.main(["--format", "records", "simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["records", "human"])
    def test_output_matches_line_loop(self, fmt, tmp_path, capsys):
        negative_zeros = 0
        for k, circ in enumerate(_seeded_circuits()):
            path = _circuit_file(tmp_path / f"c{k}.circ", circ)
            assert cli.main(["--format", fmt, "simulate", path]) == 0
            out = capsys.readouterr().out
            _assert_same_text(out, _line_loop_output(fmt, circuit_state(circ)), circ)
            negative_zeros += out.count("=-0.0 ") + out.count("=-0.0\n")
        if fmt == "records":
            assert negative_zeros > 0

    @pytest.mark.parametrize("fmt", ["records", "human"])
    def test_signed_zeros_in_one_state(self, fmt, tmp_path, capsys, monkeypatch):
        amps = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0.5]
        state = Tensor(2, amps)
        monkeypatch.setattr(cli, "circuit_state", lambda circuit: state)
        path = tmp_path / "two.circ"
        path.write_text("wires 2\n")
        assert cli.main(["--format", fmt, "simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == _line_loop_output(fmt, state)
        if fmt == "records":
            assert "amp index=00 re=0.0 im=-0.0\n" in out
            assert "amp index=01 re=-0.0 im=0.0\n" in out
        else:
            assert "  |00>  +0.0000000000-0.0000000000j\n" in out

    # 2**12 lines in one chunk of up to 2**16, or in chunks of 2**10; 32
    # lines in chunks of 5.
    @pytest.mark.parametrize("lines,width,calls",
                             [(1 << 16, 12, 1), (cli.TEXT_LINES, 12, 4), (5, 5, 7)])
    def test_records_per_write(self, lines, width, calls, tmp_path, monkeypatch):
        circ = next(c for c in _seeded_circuits() if c.width == width and "1" in c.input)
        path = _circuit_file(tmp_path / "c.circ", circ)
        monkeypatch.setattr(cli, "TEXT_LINES", lines)
        out = _CountingOut()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["--format", "records", "simulate", path]) == 0
        assert out.calls == calls
        _assert_same_text(out.getvalue(), _line_loop_output("records", circuit_state(circ)))

    @pytest.mark.parametrize("fmt", ["records", "human"])
    def test_non_stabilizer_state_matches_line_loop(self, fmt, tmp_path, capsys, monkeypatch):
        rng = random.Random(9)
        parts = [rng.gauss(0, 1) * 10.0 ** rng.randint(-320, 300) for _ in range(512)]
        parts[:12] = [0.0, -0.0, 0.5, -1.0, 5e-324, -2.5e-310, 1e300,
                      -1.7976931348623157e308, 0.1, 1 / 3, -0.0, 0.0]
        rng.shuffle(parts)
        state = Tensor(8, [complex(re, im) for re, im in zip(parts[::2], parts[1::2])])
        lengths = {len(repr(p)) for p in parts}
        assert min(lengths) == 3 and max(lengths) > 20
        monkeypatch.setattr(cli, "circuit_state", lambda circuit: state)
        path = tmp_path / "eight.circ"
        path.write_text("wires 8\n")
        assert cli.main(["--format", fmt, "simulate", str(path)]) == 0
        assert capsys.readouterr().out == _line_loop_output(fmt, state)

    # (TEXT_LINES or None for the default, writes) on a 6-wire state, 64
    # lines: one chunk; 16 chunks of 4; 21 chunks of 3 and a last one of 1.
    @pytest.mark.parametrize("fmt,text_lines,calls", [
        pytest.param(fmt, text_lines, calls, id=f"{fmt}{name}")
        for text_lines, calls, name in [(None, 1, ""), (4, 16, "-text4"), (3, 22, "-text3")]
        for fmt in ("records", "human")])
    def test_small_blocks_carry_high_index_bits(self, fmt, text_lines, calls,
                                                tmp_path, monkeypatch):
        circ = next(c for c in _seeded_circuits() if c.width == 6 and "1" in c.input)
        path = _circuit_file(tmp_path / "c.circ", circ)
        if text_lines is not None:
            monkeypatch.setattr(cli, "TEXT_LINES", text_lines)
        out = _CountingOut()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["--format", fmt, "simulate", path]) == 0
        assert out.calls == calls
        assert out.getvalue() == _line_loop_output(fmt, circuit_state(circ))

    def test_ghz17_crosses_the_default_block(self, tmp_path, monkeypatch):
        ops = "".join(f"CN {w} {w + 1}\n" for w in range(16))
        path = tmp_path / "ghz17.circ"
        path.write_text("wires 17\nH 0\n" + ops)
        out = _CountingOut()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["--format", "records", "simulate", str(path)]) == 0
        assert out.calls == 128 == (1 << 17) // cli.TEXT_LINES
        state = circuit_state(circuits.parse_circuit(path.read_text()))
        _assert_same_text(out.getvalue(), _line_loop_output("records", state))

    def test_closed_pipe_exits_1_without_a_traceback(self, tmp_path):
        # GHZ-17's 128 chunk writes hold far more than a pipe buffer, so
        # writes are still to come, or blocked, when the pipe closes.
        ops = "".join(f"CN {w} {w + 1}\n" for w in range(16))
        path = tmp_path / "ghz17.circ"
        path.write_text("wires 17\nH 0\n" + ops)
        proc = subprocess.Popen(
            [sys.executable, "-m", "stabtensor.cli", "--format", "records", "simulate",
             str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        assert proc.stdout.readline() == b"state wires=17\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=120), stderr) == (1, "")

    def test_width_above_rank_budget_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.circ"
        path.write_text("wires 28\nH 0\n")
        assert cli.main(["--format", "records", "simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"rank budget is {MAX_RANK}" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_huge_width_is_refused_at_once(self, tmp_path, capsys, monkeypatch):
        # Compiling 10**8 wires would exhaust memory: fail the test instead.
        monkeypatch.setattr(circuits, "compile_circuit", lambda circuit: pytest.fail("compiled"))
        path = tmp_path / "huge.circ"
        path.write_text("wires 100000000\nH 0\n")
        start = time.perf_counter()
        assert cli.main(["--format", "records", "simulate", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_plan_over_budget_exits_2(self, tmp_path, capsys):
        # 24 wires fit as a result; the CN ladder's plan peaks at rank 25.
        ops = [f"H {w}" for w in range(24)] + [f"CN {w} {w + 1}" for w in range(23)]
        path = tmp_path / "ladder.circ"
        path.write_text("\n".join(["wires 24", *ops]) + "\n")
        assert cli.main(["--format", "records", "simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "rank 25; the rank budget is 24" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_crosscheck_beyond_dense_limit_exits_2(self, tmp_path, capsys):
        width = oracles.MAX_DENSE_WIDTH + 1
        path = tmp_path / "wide.circ"
        path.write_text(f"wires {width}\nH 0\n")
        assert cli.main(["simulate", str(path), "--crosscheck"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


class TestEntropy:
    def test_cnot_table(self, capsys, tmp_path):
        path = tmp_path / "cnot.tab"
        path.write_text(CNOT_TABLE)
        assert cli.main(["--format", "records", "entropy", str(path)]) == 0
        out = capsys.readouterr().out
        assert "delta_entropy=0.0" in out
        assert "reversible=yes" in out

    def test_and_table(self, capsys, tmp_path):
        path = tmp_path / "and.tab"
        path.write_text(AND_TABLE)
        assert cli.main(["entropy", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.566166" in out
        assert "no" in out

    def test_histogram_printed(self, capsys, tmp_path):
        path = tmp_path / "and.tab"
        path.write_text(AND_TABLE)
        cli.main(["--format", "records", "entropy", str(path)])
        out = capsys.readouterr().out
        assert "preimage value=00 count=3" in out
        assert "preimage value=01 count=1" in out

    def test_missing_row_exits_2(self, tmp_path):
        path = tmp_path / "short.tab"
        path.write_text("bits 2\n00 00\n01 01\n10 10\n")
        assert cli.main(["entropy", str(path)]) == 2

    def test_superscript_bits_header_exits_2(self, tmp_path, capsys):
        # '\u00b2' passes str.isdigit() but is no number int() reads.
        path = tmp_path / "square.tab"
        path.write_text("bits \u00b2\n0 0\n1 1\n", encoding="utf-8")
        assert cli.main(["entropy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 1: expected `bits n` header\n"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.tab"
        path.write_bytes(b"# \xff\n" + CNOT_TABLE.encode())
        assert cli.main(["--format", "records", "entropy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "cnot.tab"
        path.write_text(CNOT_TABLE, encoding="utf-8-sig")
        assert cli.main(["--format", "records", "entropy", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "reversible=yes" in captured.out

    def test_huge_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.tab"
        path.write_text("bits 100000\n")
        assert cli.main(["entropy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: expected 2**100000 rows, got 0\n"

    def test_huge_header_under_memory_cap_exits_2(self, tmp_path):
        # 2**40000000000 would take 5 GB: the child caps its own address
        # space, so building it fails at once instead of filling memory.
        path = tmp_path / "huge.tab"
        path.write_text("bits 40000000000\n")
        code = (
            "import resource, sys\n"
            "from stabtensor import cli\n"
            "cap = 2 << 30\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    cap = min(cap, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "sys.exit(cli.main(['entropy', sys.argv[1]]))\n"
        )
        env = _child_env()
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == "parse error: expected 2**40000000000 rows, got 0\n"


def test_input_files_are_closed(tmp_path, bell_path):
    table = tmp_path / "cnot.tab"
    table.write_text(CNOT_TABLE)
    env = _child_env()
    for argv in (["simulate", bell_path], ["entropy", str(table)]):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "stabtensor.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


class TestPolarity:
    def test_n2(self, capsys):
        assert cli.main(["--format", "records", "polarity", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "form c=11 c0=0 polarity=1,-1,-1,1" in out
        assert "check=hadamard-column-indexing-n2 status=ExactHold" in out

    def test_out_of_range(self):
        assert cli.main(["polarity", "--n", "9"]) == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_records_match_the_per_form_loop(self, n, capsys):
        # Reference: one form at a time, each entry (-1)**(c . x) from its bits.
        want = ""
        for c in range(1 << n):
            bits = f"{c:0{n}b}"
            entries = ",".join(
                str((-1) ** sum(int(a) * int(b) for a, b in zip(bits, f"{x:0{n}b}")))
                for x in range(1 << n)
            )
            want += f"form c={bits} c0=0 polarity={entries}\n"
        want += boolfn.verify_hadamard_column_indexing(n).record() + "\n"
        assert cli.main(["--format", "records", "polarity", "--n", str(n)]) == 0
        assert capsys.readouterr().out == want



class TestTolerance:
    COMMANDS = {
        "verify": ["verify"],
        "polarity": ["polarity", "--n", "2"],
        "crosscheck": ["simulate", "{bell}", "--crosscheck"],
    }

    @staticmethod
    def _exits_2(argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        out, errtext = capsys.readouterr()
        assert out == ""
        assert errtext.count("\n") == 1 and errtext.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_invalid_option_exits_2(self, command, tol, bell_path, capsys):
        argv = [a.format(bell=bell_path) for a in self.COMMANDS[command]]
        self._exits_2(argv + ["--tol", tol], capsys)

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_environment_value_exits_2(self, tol, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_TOL, tol)
        self._exits_2(["verify"], capsys)

    def test_zero_is_valid(self, monkeypatch, capsys):
        assert cli.main(["polarity", "--n", "2", "--tol", "0"]) == 0
        monkeypatch.setenv(cli.ENV_TOL, "0")
        assert cli.main(["polarity", "--n", "2"]) == 0


class TestParserReuse:
    """main parses every call with one parser; no call leaks into the next."""

    def test_crosscheck_does_not_carry_over(self, bell_path, capsys):
        assert cli.main(["simulate", bell_path, "--crosscheck", "--seed", "5"]) == 0
        assert "crosscheck status: ok" in capsys.readouterr().out
        assert cli.main(["simulate", bell_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("output state on 2 wire(s):\n")
        assert "crosscheck" not in out

    def test_format_and_tolerance_do_not_carry_over(self, monkeypatch, capsys):
        monkeypatch.delenv(cli.ENV_TOL, raising=False)
        tols = []
        reports = cli.verification_reports

        def recording_reports(tol, inject_fault=False):
            tols.append(tol)
            return reports(tol, inject_fault)

        monkeypatch.setattr(cli, "verification_reports", recording_reports)
        assert cli.main(["--format", "records", "verify", "--tol", "1e-3"]) == 0
        assert capsys.readouterr().out.startswith("check=")
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "check=" not in out and out.startswith("associativity ")
        assert tols == [1e-3, DEFAULT_TOL]

    @pytest.mark.parametrize("bad", [
        ["simulate"], ["verify", "--tol", "x"], ["--format", "json", "verify"], [],
    ], ids=["missing-file", "bad-tol", "bad-format", "no-command"])
    def test_usage_error_then_success(self, bad, bell_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(bad)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert cli.main(["--format", "records", "simulate", bell_path]) == 0
        assert capsys.readouterr().out.startswith("state wires=2\namp index=00 ")

    def test_main_builds_no_parser(self, bell_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def recording_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
        assert cli.main(["simulate", bell_path]) == 0
        assert cli.main(["polarity", "--n", "1"]) == 0
        assert cli.main(["--format", "records", "simulate", bell_path]) == 0
        capsys.readouterr()
        assert built == []
