"""Command-line interface: verify, simulate, entropy, polarity.

Exit codes: 0 success, 1 verification failure, 2 input error; also 1,
with nothing on stderr, when the reader closes stdout before all output is
written (say `stabtensor simulate F | head -1`).  Structured
output (`--format records`) is line-delimited with stable field order so
runs can be diffed byte-for-byte.

The argument parser is built once, at import, and every `main` call parses
with it; `parse_args` keeps no state between calls, so each call starts
from the defaults.

`simulate` writes its 2**n amplitude lines in blocks of up to WRITE_BLOCK.
Each block is one byte matrix built in numpy, with each distinct amplitude
part (a real or imaginary bit pattern) formatted once, and goes out in one
`sys.stdout.write`; no Python code runs per amplitude.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable

import numpy as np

from stabtensor import boolfn, oracles, relations
from stabtensor.circuits import circuit_state, parse_circuit
from stabtensor.generators import copy_tensor
from stabtensor.tensor import DEFAULT_TOL, RankBudgetError, Tensor

ENV_TOL = "STABTENSOR_TOL"

# Amplitude lines per stdout write: a state of up to 16 wires goes out in
# one call, and the text of a wider one is never held whole.
WRITE_BLOCK = 1 << 16

# The eight digits of each byte value, most significant first, as ASCII.
_BYTE_DIGITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) + ord("0")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _resolve_tol(arg_tol: float | None) -> float:
    """--tol, else $STABTENSOR_TOL, else DEFAULT_TOL; must be finite and >= 0."""
    tol, source = arg_tol, "--tol"
    if tol is None:
        env, source = os.environ.get(ENV_TOL), ENV_TOL
        if not env:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            print(f"error: bad {ENV_TOL} value {env!r}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT_ERROR) from None
    if not 0 <= tol < math.inf:
        print(f"error: {source} must be finite and >= 0, got {tol!r}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    return tol


def _corrupted_copy_tensor() -> Tensor:
    # Test hook: one flipped entry must be caught by the copy laws.
    data = list(copy_tensor().data)
    data[0b010] = 1.0
    return Tensor(3, data)


def verification_reports(tol: float, inject_fault: bool = False):
    delta = _corrupted_copy_tensor() if inject_fault else None
    reports = [
        relations.verify_relation(rid, tol=tol, copy=delta)
        for rid in relations.RELATION_FAMILIES
    ]
    reports.append(relations.verify_xor_in_hadamard_basis(tol=tol))
    reports.append(relations.verify_xor_copies_plus_minus(tol=tol))
    reports.extend(relations.verify_clifford_recovery(tol=tol))
    for n in range(1, 5):
        reports.append(boolfn.verify_hadamard_column_indexing(n, tol=tol))
    reports.extend(relations.verify_cn_transcription(tol=tol))
    return reports


def _print_reports(reports, fmt: str) -> None:
    if fmt == "records":
        for rep in reports:
            print(rep.record())
        return
    width = max(len(r.relation_id) for r in reports)
    for rep in reports:
        status = rep.status.value
        if rep.expected_mismatch and not rep.holds:
            status += " (expected, documented)"
        lam = "-" if rep.scalar is None else f"{rep.scalar:.6g}"
        print(f"{rep.relation_id:<{width}}  {status:<32} "
              f"lambda={lam:<12} deviation={rep.max_deviation:.3e}")


def cmd_verify(args) -> int:
    tol = _resolve_tol(args.tol)
    reports = verification_reports(tol, inject_fault=args.selftest_fault)
    _print_reports(reports, args.format)
    bad = [r for r in reports if not r.holds and not r.expected_mismatch]
    if bad:
        print(f"{len(bad)} relation(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _write_amplitudes(head: str, state: Tensor, line: str,
                      fmt: Callable[[float], str]) -> None:
    """Write `head`, then `line.format(k, fmt(re), fmt(im))` for every
    amplitude re + im*j of `state`, k as an MSB-first bit string, to stdout.

    Each block of up to WRITE_BLOCK lines goes out in one write.  A
    stabilizer state has few distinct amplitude parts, so a block sorts the
    bit patterns of its real and imaginary parts together (0.0 and -0.0
    stay apart) and calls `fmt` once per distinct one.  The block's text is
    one byte matrix, a row per line: `line` with the index digits and both
    parts filled in, each part NUL-padded to the widest; the NULs are
    dropped before the write.
    """
    n = state.rank
    lead, before, between, _ = line.split("{}")
    flat = state.array.reshape(-1).view(np.uint64)  # re, im, re, im, ...
    for start in range(0, flat.size // 2, WRITE_BLOCK):
        block = flat[2 * start:2 * (start + WRITE_BLOCK)]
        size = block.size // 2
        ordered = block.copy()
        ordered.sort(kind="stable")  # timsort: fast on runs of zeros
        first = np.empty(block.size, bool)  # first of its run of equal parts
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        texts = np.array(list(map(fmt, distinct.view(np.float64).tolist())), "S")
        width = texts.itemsize
        row = line.format("\0" * n, "\0" * width, "\0" * width).encode()
        lines = np.frombuffer(bytearray(row) * size, np.uint8).reshape(size, -1)
        # big-endian bytes of each index; MAX_RANK keeps n below 32 bits
        index = np.arange(start, start + size, dtype=">u4").view(np.uint8)
        digits = _BYTE_DIGITS.take(index, axis=0).reshape(size, 32)
        lines[:, len(lead):len(lead) + n] = digits[:, 32 - n:]
        re_at = len(lead) + n + len(before)
        im_at = re_at + width + len(between)
        parts = texts.take(distinct.searchsorted(block)).view(np.uint8).reshape(size, 2, width)
        lines[:, re_at:re_at + width] = parts[:, 0]
        lines[:, im_at:im_at + width] = parts[:, 1]
        text = lines.reshape(-1)
        sys.stdout.write(head + text[text != 0].tobytes().decode())
        head = ""


def _load(path: str, parse):
    """parse(the UTF-8 text of `path`, less any leading byte-order mark), or
    None after one error line on stderr."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    try:
        return parse(text)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None


def cmd_simulate(args) -> int:
    tol = _resolve_tol(args.tol)
    circuit = _load(args.circuit, parse_circuit)
    if circuit is None:
        return EXIT_INPUT_ERROR
    if args.crosscheck and circuit.width > oracles.MAX_DENSE_WIDTH:
        print(f"error: --crosscheck needs the dense oracle, which is limited "
              f"to {oracles.MAX_DENSE_WIDTH} wires; the circuit has "
              f"{circuit.width}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        state = circuit_state(circuit)
    except RankBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    n = circuit.width
    if args.format == "records":
        _write_amplitudes(f"state wires={n}\n", state, "amp index={} re={} im={}\n", repr)
    else:
        _write_amplitudes(f"output state on {n} wire(s):\n", state, "  |{}>  {}{}j\n",
                          "{:+.10f}".format)
    if not args.crosscheck:
        return EXIT_OK
    result = oracles.crosscheck_circuit(circuit, seed=args.seed)
    ok = result.ok(tol)
    if args.format == "records":
        print(f"crosscheck amp_delta={result.amplitude_delta!r} "
              f"scalar_magnitude={result.scalar_magnitude!r} "
              f"expectation_delta={result.expectation_delta!r} "
              f"paulis={result.paulis_checked} "
              f"status={'ok' if ok else 'disagree'}")
    else:
        print(f"crosscheck vs dense oracle: max amplitude delta "
              f"{result.amplitude_delta:.3e} (scalar magnitude "
              f"{result.scalar_magnitude:.6f})")
        print(f"crosscheck vs tableau oracle: max expectation delta "
              f"{result.expectation_delta:.3e} over {result.paulis_checked} "
              f"Pauli strings")
        print(f"crosscheck status: {'ok' if ok else 'DISAGREE'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_entropy(args) -> int:
    table = _load(args.table, boolfn.parse_truth_table)
    if table is None:
        return EXIT_INPUT_ERROR
    ds = boolfn.delta_entropy(table)
    gap = boolfn.output_entropy_gap(table)
    reversible = boolfn.is_reversible(table)
    hist = sorted(table.preimage_counts().items())
    if args.format == "records":
        print(f"bits={table.n}")
        print(f"delta_entropy={ds!r}")
        print(f"reversible={'yes' if reversible else 'no'}")
        print(f"output_entropy_gap={gap!r}")
        for value, count in hist:
            print(f"preimage value={value:0{table.n}b} count={count}")
    else:
        print(f"bits: {table.n}")
        print(f"delta entropy (input-indexed sum): {ds:.6f} bits")
        print(f"reversible (outputs form a permutation): "
              f"{'yes' if reversible else 'no'}")
        print(f"output entropy gap (zero iff reversible): {gap:.6f} bits")
        print("preimage counts:")
        for value, count in hist:
            print(f"  {value:0{table.n}b}: {count}")
    print("note: delta_entropy transcribes the input-indexed sum, which is "
          "zero on every permutation but not only on permutations; "
          "output_entropy_gap is the bijectivity witness")
    return EXIT_OK


def cmd_polarity(args) -> int:
    tol = _resolve_tol(args.tol)
    if not 1 <= args.n <= 6:
        print("error: --n must be in 1..6", file=sys.stderr)
        return EXIT_INPUT_ERROR
    forms = boolfn.linear_forms(args.n)
    if args.format == "records":
        for form in forms:
            vec = boolfn.polarity_vector(form)
            entries = ",".join(str(int(v.real)) for v in vec.data)
            print(f"form c={form.c} c0={form.c0} polarity={entries}")
    else:
        print(f"{len(forms)} linear forms on {args.n} bit(s):")
        for form in forms:
            vec = boolfn.polarity_vector(form)
            entries = " ".join(f"{int(v.real):+d}" for v in vec.data)
            print(f"  c={form.c}  ({entries})")
    report = boolfn.verify_hadamard_column_indexing(args.n, tol=tol)
    print(report.record())
    return EXIT_OK if report.holds else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabtensor",
        description="verify generator identities and simulate stabilizer "
        "circuits by tensor-network contraction",
    )
    parser.add_argument(
        "--format", choices=("human", "records"), default="human",
        help="human table or line-delimited records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full relation suite")
    p_verify.add_argument("--tol", type=float, default=None,
                          help=f"tolerance (default {ENV_TOL} or {DEFAULT_TOL})")
    p_verify.add_argument("--selftest-fault", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="contract a circuit file")
    p_sim.add_argument("circuit", help="circuit file (`wires N`, one op per line)")
    p_sim.add_argument("--crosscheck", action="store_true",
                       help="also compare against the dense and tableau oracles")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="seed for the crosscheck Pauli sample")
    p_sim.add_argument("--tol", type=float, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ent = sub.add_parser("entropy", help="reversibility analysis of a truth table")
    p_ent.add_argument("table", help="truth-table file (`bits n` plus rows)")
    p_ent.set_defaults(func=cmd_entropy)

    p_pol = sub.add_parser("polarity", help="linear forms and Hadamard columns")
    p_pol.add_argument("--n", type=int, required=True, help="number of bits (1..6)")
    p_pol.add_argument("--tol", type=float, default=None)
    p_pol.set_defaults(func=cmd_polarity)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device, so that
        # the flush at exit cannot raise again, and exit 1 in silence.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
