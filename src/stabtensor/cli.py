"""Command-line interface: verify, simulate, entropy, polarity.

Exit codes: 0 success, 1 verification failure, 2 input error; also 1,
with nothing on stderr, when the reader closes stdout before all output is
written (say `stabtensor simulate F | head -1`).  Structured
output (`--format records`) is line-delimited with stable field order so
runs can be diffed byte-for-byte.

The argument parser is built once, at import, and every `main` call parses
with it; `parse_args` keeps no state between calls, so each call starts
from the defaults.

`simulate` writes its 2**n amplitude lines in chunks of up to TEXT_LINES,
each in one `sys.stdout.write`; each distinct amplitude part (a real or
imaginary bit pattern) of a chunk is formatted once, and the chunk's text
is built in numpy in one byte matrix, with no Python code per amplitude.
Chunk-sized buffers are reused from the heap, where larger ones are mapped
fresh from the kernel on every call.
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

# Amplitude lines per stdout write: a state of up to 10 wires goes out in
# one call.  At 12 wires each of a chunk's buffers stays under about 80 KB,
# which malloc reuses from its heap; from 2**11 lines on, a 12-wire print
# took 20-50 fresh pages per call.
TEXT_LINES = 1 << 10

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


def report_groups(tol: float, inject_fault: bool = False) -> dict[str, Callable[[], list]]:
    """`verify`'s reports in their five groups, in order: each group's name
    and the zero-argument call that makes its reports."""
    delta = _corrupted_copy_tensor() if inject_fault else None
    return {
        "families": lambda: [relations.verify_relation(rid, tol, delta)
                             for rid in relations.RELATIONS],
        "hadamard_basis": lambda: [relations.verify_relation(rid, tol, delta)
                                   for rid in relations.HADAMARD_BASIS],
        "clifford": lambda: relations.verify_clifford_recovery(tol=tol),
        "columns": lambda: [boolfn.verify_hadamard_column_indexing(n, tol=tol)
                            for n in range(1, 5)],
        "cn": lambda: relations.verify_cn_transcription(tol=tol),
    }


def verification_reports(tol: float, inject_fault: bool = False):
    return [rep for group in report_groups(tol, inject_fault).values() for rep in group()]


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

    Each chunk of up to TEXT_LINES lines goes out in one write, the first
    with `head`.  A stabilizer state has few distinct amplitude parts, so a
    chunk sorts the bit patterns of its real and imaginary parts together
    (0.0 and -0.0 stay apart) and calls `fmt` once per distinct one.  Its
    text is built in a byte matrix, a row per line: `line` with each part
    NUL-padded to the widest, the index digits and both parts written over
    its rows, the NULs dropped.
    """
    n = state.rank
    lead, before, between, _ = line.split("{}")
    flat = state.array.reshape(-1).view(np.uint64)  # re, im, re, im, ...
    for start in range(0, flat.size // 2, TEXT_LINES):
        chunk = flat[2 * start:2 * (start + TEXT_LINES)]
        count = chunk.size // 2
        ordered = chunk.copy()
        ordered.sort()
        first = np.empty(chunk.size, bool)  # first of its run of equal parts
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        texts = np.array(list(map(fmt, distinct.view(np.float64).tolist())), "S")
        width = texts.itemsize
        row = line.format("\0" * n, "\0" * width, "\0" * width).encode()
        rows = np.frombuffer(bytearray(row) * count, np.uint8).reshape(count, -1)
        # big-endian bytes of each index; MAX_RANK keeps n below 32 bits
        index = np.arange(start, start + count, dtype=">u4").view(np.uint8)
        digits = _BYTE_DIGITS.take(index, axis=0).reshape(count, 32)
        rows[:, len(lead):len(lead) + n] = digits[:, 32 - n:]
        re_at = len(lead) + n + len(before)
        im_at = re_at + width + len(between)
        parts = texts.take(distinct.searchsorted(chunk)).view(np.uint8).reshape(count, 2, width)
        rows[:, re_at:re_at + width] = parts[:, 0]
        rows[:, im_at:im_at + width] = parts[:, 1]
        sys.stdout.write(head + rows[rows != 0].tobytes().decode())
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
    result = oracles.crosscheck_circuit(circuit, seed=args.seed, state=state)
    ok = result.ok(tol)
    if args.format == "records":
        print(f"crosscheck amp_delta={result.amplitude_delta!r} "
              f"scalar_magnitude={result.scalar_magnitude!r} "
              f"expectation_delta={result.expectation_delta!r} "
              f"paulis={result.paulis_checked} "
              f"status={'ok' if ok else 'disagree'}")
    else:
        print(f"crosscheck vs dense oracle: max amplitude delta "
              f"{result.amplitude_delta:.3e}, no scalar fitted (state norm "
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
    # Column c of the table is the polarity vector of the form c . x.
    columns = boolfn.polarity_table(args.n).T.tolist()
    if args.format == "records":
        for c, column in enumerate(columns):
            entries = ",".join(map(str, column))
            print(f"form c={c:0{args.n}b} c0=0 polarity={entries}")
    else:
        print(f"{len(columns)} linear forms on {args.n} bit(s):")
        for c, column in enumerate(columns):
            entries = " ".join(f"{v:+d}" for v in column)
            print(f"  c={c:0{args.n}b}  ({entries})")
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
