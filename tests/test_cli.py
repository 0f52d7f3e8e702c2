"""CLI behaviour: subcommands, exit codes, deterministic records."""

import pytest

from stabtensor import cli, oracles

BELL_FILE = "# bell pair\nwires 2\nH 0\nCN 0 1\n"
CNOT_TABLE = "bits 2\n00 00\n01 01\n10 11\n11 10\n"
AND_TABLE = "bits 2\n00 00\n01 00\n10 00\n11 01\n"


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

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.circ"
        path.write_text("wires 2\nCN 0 0\n")
        assert cli.main(["simulate", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert cli.main(["simulate", "/nonexistent/file.circ"]) == 2

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


class TestPolarity:
    def test_n2(self, capsys):
        assert cli.main(["--format", "records", "polarity", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "form c=11 c0=0 polarity=1,-1,-1,1" in out
        assert "check=hadamard-column-indexing-n2 status=ExactHold" in out

    def test_out_of_range(self):
        assert cli.main(["polarity", "--n", "9"]) == 2

