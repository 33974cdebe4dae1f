"""Command-line surface: construct, verify, export, and sweep feasibility.

Every constructing command writes its result to a file (JSON by default,
CSV on request) and prints a verification report as JSON on stdout. Exit
codes: 0 on success, 2 when the instance is mathematically infeasible (the
printed message names the violated criterion), 1 on I/O, parse, or usage
problems. Output files are written atomically, so a failed run leaves no
partial artifacts behind.

A command line that starts with a command name is parsed once, by that
command's own parser; help, usage errors and unknown commands keep the
text and exit codes of the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from gettext import gettext
from typing import Callable, Dict, List, Optional, Sequence, Union

from .construct import (
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    equal_norm_frame,
    naimark_complement,
    pnstc,
    pnstc_str,
    sfr,
)
from .errors import SpectralTetrisError
from .fusion import (
    FusionFrame,
    extend_to_tight,
    rff,
    sffr,
    uff,
    weighted_fusion,
)
from .json_io import (
    MAX_DIMENSION,
    _render,
    fusion_from_json,
    is_fusion_document,
    matrix_from_json,
    read_document,
    write_document,
)
from .sequences import untf_feasible
from .verify import FusionReport, VerificationReport, verify_frame, verify_fusion

#: The most cells feasibility-grid writes. The largest accepted grids,
#: --max-dim 1 --max-count 1000000 and --max-dim 1413 --max-count 1413,
#: took 1.6-2.0 s and 112 MB each for 14 MB of CSV (Python 3.11 on a
#: 2-core x86-64 host).
MAX_GRID_CELLS = 10**6

#: The widest document naimark completes. Its Parseval input's complement is
#: dense: the CLI run on a 1 x n document of entries sqrt(1/n) took 0.9 s
#: at n = 100, 1.9-2.6 s and 57 MB at n = 160, 6.0 s at n = 250 and 48-58 s
#: and 282 MB at n = 500, most of it in verify_frame's exact row-pair walk
#: and exact rank of the (n - 1) x n complement (Python 3.11 on a 2-core
#: x86-64 host). The library function naimark_complement itself is not
#: capped.
NAIMARK_MAX_WIDTH = 160

_RATIONAL_PATTERN = re.compile(r"([+-]?\d+)(?:/(\d+))?")


@functools.lru_cache(maxsize=1024)
def rational(text: str) -> Fraction:
    """Exact CLI rational: an integer or p/q. Floats are rejected outright.

    The text is parsed once: the pattern's groups are the numerator and
    denominator, and int() reads the same Unicode digits the pattern
    matches, numerator first, as Fraction(text.strip()) would. Value lists
    repeat a few tokens, so each token text is parsed once per process
    (Fractions are immutable; a bad token is not cached and raises again).
    """
    match = _RATIONAL_PATTERN.fullmatch(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q rational, got {text!r} (floats are not accepted)"
        )
    numerator, denominator = match.groups()
    numerator = int(numerator)
    if denominator is None:
        return Fraction(numerator)
    denominator = int(denominator)
    if not denominator:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
    return Fraction(numerator, denominator)


def _decimal(number: int) -> str:
    """str(number) at any length. A number too long for str() under the
    interpreter's int-to-str digit limit is split by a power of ten and its
    two halves are printed in turn; the limit itself is left as it is."""
    try:
        return str(number)
    except ValueError:
        if number < 0:
            return "-" + _decimal(-number)
        # about half its decimal digits: log10(2) is just over 3/10
        half = number.bit_length() * 3 // 20
        high, low = divmod(number, 10**half)
        return _decimal(high) + _decimal(low).zfill(half)


def _fraction_text(value: Fraction) -> str:
    """str(value) for a Fraction of any size."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _printable(report: Union[VerificationReport, FusionReport]) -> Dict[str, object]:
    """A report's fields in order, as JSON values: Fractions become "p/q"
    text, at any length, and tuples lists. No report nests a dataclass or a
    tuple in a tuple."""
    document: Dict[str, object] = {}
    for name, value in vars(report).items():
        if isinstance(value, tuple):
            value = [_fraction_text(item) if isinstance(item, Fraction) else item for item in value]
        elif isinstance(value, Fraction):
            value = _fraction_text(value)
        document[name] = value
    return document


def _complex_cell(value: complex) -> str:
    return "%.17g%+.17gj" % (value.real, value.imag)


def _matrix_csv(matrix: SynthesisMatrix) -> str:
    """The dense matrix as CSV, floats to 17 significant digits. Only the
    stored entries' cells are formatted; every other cell of to_dense is a
    zero, of one text."""
    values = matrix.to_dense().tolist()
    zero, cell = ("0+0j", _complex_cell) if matrix.is_complex else ("0", "%.17g".__mod__)
    lines = [[zero] * matrix.col_count for _ in range(matrix.row_count)]
    for i, j in matrix.entries:
        lines[i][j] = cell(values[i][j])
    return "\n".join(map(",".join, lines)) + "\n"


def _output_path(args: argparse.Namespace, extension: Optional[str] = None) -> str:
    if args.output:
        return args.output
    return f"{args.command}.{extension or args.format}"


def _emit(document: Dict[str, object]) -> int:
    """Print the report as indented JSON, the text json.dumps(indent=2) gives."""
    sys.stdout.write(_render(document) + "\n")
    return 0


def _write_output(args: argparse.Namespace, result: Union[SynthesisMatrix, FusionFrame]) -> str:
    """Write the result file atomically: lossless JSON, or CSV of the synthesis matrix."""
    path = _output_path(args)
    if args.format == "csv":
        matrix = result.generator if isinstance(result, FusionFrame) else result
        write_document(path, _matrix_csv(matrix))
    else:
        write_document(path, result)
    return path


def _requested(m: int, n: int) -> None:
    """Refuse, before anything is built, a shape whose document json_io's
    reader would refuse."""
    if m > MAX_DIMENSION or n > MAX_DIMENSION:
        raise ValueError(f"requested shape {m}x{n} exceeds the bound {MAX_DIMENSION} on m and n")


def _deliver_matrix(
    args: argparse.Namespace,
    matrix: SynthesisMatrix,
    expected_spectrum: Optional[Sequence] = None,
    expected_norms: Optional[Sequence] = None,
    **fields: object,
) -> int:
    report = verify_frame(matrix, expected_spectrum, expected_norms)
    return _emit({"output": _write_output(args, matrix), **fields, "report": _printable(report)})


def _deliver_fusion(
    args: argparse.Namespace, frame: FusionFrame, expected_spectrum: Optional[Sequence] = None
) -> int:
    report = verify_fusion(frame, expected_spectrum)
    return _emit({"output": _write_output(args, frame), "report": _printable(report)})


def _cmd_untf(args: argparse.Namespace, build: Callable[[int, int], SynthesisMatrix]) -> int:
    _requested(args.dim, args.count)
    matrix = build(args.dim, args.count)
    flat = [Fraction(args.count, args.dim)] * args.dim
    return _deliver_matrix(args, matrix, flat, [Fraction(1)] * args.count)


def _realized_order(matrix: SynthesisMatrix, spectrum: Sequence) -> List[Fraction]:
    """The requested eigenvalues, permuted the way the construction fed them.

    Searching constructions may realize the spectrum in a different row
    order (the multiset is unchanged); the verification report should not
    flag that as a mismatch.
    """
    return [spectrum[i] for i in matrix.meta["eigenvalue_order"]]


def _cmd_sfr(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), args.count)
    matrix = sfr(args.spectrum, args.count)
    return _deliver_matrix(
        args, matrix, _realized_order(matrix, args.spectrum), [Fraction(1)] * matrix.col_count
    )


def _cmd_pnstc(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), len(args.norms_squared))
    matrix = pnstc(args.norms_squared, args.spectrum)
    return _deliver_matrix(args, matrix, args.spectrum, args.norms_squared)


def _cmd_pnstc_str(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), len(args.norms_squared))
    matrix, swaps = pnstc_str(args.norms_squared, args.spectrum)
    return _deliver_matrix(args, matrix, args.spectrum, swaps=[list(swap) for swap in swaps])


def _cmd_equal_norm(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), args.count)
    matrix = equal_norm_frame(args.spectrum, args.count, args.budget)
    shared = sum(args.spectrum, Fraction(0)) / args.count
    realized = _realized_order(matrix, args.spectrum)
    return _deliver_matrix(args, matrix, realized, [shared] * args.count)


def _cmd_naimark(args: argparse.Namespace) -> int:
    matrix = matrix_from_json(read_document(args.input))
    if matrix.col_count > NAIMARK_MAX_WIDTH:
        raise ValueError(
            f"naimark takes documents of n <= {NAIMARK_MAX_WIDTH}, got n = {matrix.col_count}"
        )
    return _deliver_matrix(args, naimark_complement(matrix))


def _cmd_sffr(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), args.subspaces * args.subspace_dim)
    frame = sffr(args.spectrum, args.subspaces, args.subspace_dim)
    return _deliver_fusion(args, frame, args.spectrum)


def _cmd_rff(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), args.count)
    return _deliver_fusion(args, rff(args.spectrum, args.count), args.spectrum)


def _cmd_uff(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), sum(args.dims))
    return _deliver_fusion(args, uff(args.spectrum, args.dims), args.spectrum)


def _cmd_weighted_fusion(args: argparse.Namespace) -> int:
    _requested(len(args.spectrum), sum(args.dims))
    frame = weighted_fusion(args.weights_squared, args.dims, args.spectrum, args.budget)
    return _deliver_fusion(args, frame, args.spectrum)


def _cmd_extend_tight(args: argparse.Namespace) -> int:
    frame = fusion_from_json(read_document(args.input))
    _requested(len(args.spectrum), frame.generator.col_count)
    bound, total, complement = extend_to_tight(frame, args.spectrum)
    return _emit({
        "tight_bound": bound,
        "extended_count": total,
        "output": _write_output(args, complement),
        "report": _printable(verify_fusion(complement)),
    })


def _cmd_verify(args: argparse.Namespace) -> int:
    document = read_document(args.input)
    if is_fusion_document(document):
        report = verify_fusion(fusion_from_json(document), args.spectrum)
    else:
        report = verify_frame(matrix_from_json(document), args.spectrum, args.norms)
    return _emit({"report": _printable(report)})


def _cmd_feasibility_grid(args: argparse.Namespace) -> int:
    rows = max(0, min(args.max_dim, args.max_count))
    cells = rows * (args.max_count + 1) - rows * (rows + 1) // 2  # n runs from m to max_count
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"a grid of {cells} cells exceeds the bound {MAX_GRID_CELLS}")
    lines = ["m,n,feasible"]
    for m in range(1, rows + 1):
        for n in range(m, args.max_count + 1):
            lines.append(f"{m},{n},{'true' if untf_feasible(m, n) else 'false'}")
    path = _output_path(args, "csv")
    write_document(path, "\n".join(lines) + "\n")
    return _emit({"output": path, "cells": cells})


_HANDLERS = {
    "untf": functools.partial(_cmd_untf, build=construct_untf),
    "untf-dft": functools.partial(_cmd_untf, build=construct_untf_dft),
    "sfr": _cmd_sfr,
    "pnstc": _cmd_pnstc,
    "pnstc-str": _cmd_pnstc_str,
    "equal-norm": _cmd_equal_norm,
    "naimark": _cmd_naimark,
    "sffr": _cmd_sffr,
    "rff": _cmd_rff,
    "uff": _cmd_uff,
    "weighted-fusion": _cmd_weighted_fusion,
    "extend-tight": _cmd_extend_tight,
    "verify": _cmd_verify,
    "feasibility-grid": _cmd_feasibility_grid,
}


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", help="output file (default: <command>.<format>)")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json is lossless; csv holds floats to 17 significant digits",
    )


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged. Its command_parsers is the subparsers action's choices,
    {command name: that command's parser}."""
    parser = argparse.ArgumentParser(
        prog="spectral-tetris",
        description="Spectral Tetris constructions for frames and fusion frames.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = commands.choices

    for name, text in (
        ("untf", "sparse unit-norm tight frame"),
        ("untf-dft", "unit-norm tight frame via DFT blocks (reaches low redundancies)"),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--dim", type=int, required=True)
        sub.add_argument("--count", type=int, required=True)
        _add_output_options(sub)

    sfr_cmd = commands.add_parser("sfr", help="sparse unit-norm frame for a spectrum")
    sfr_cmd.add_argument("--spectrum", type=rational, nargs="+", required=True)
    sfr_cmd.add_argument("--count", type=int, required=True)
    _add_output_options(sfr_cmd)

    for name, text in (
        ("pnstc", "prescribed norms and spectrum, in the given orders"),
        ("pnstc-str", "prescribed norms and spectrum, reordering norms on demand"),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--norms-squared", type=rational, nargs="+", required=True)
        sub.add_argument("--spectrum", type=rational, nargs="+", required=True)
        _add_output_options(sub)

    equal_norm = commands.add_parser(
        "equal-norm", help="equal-norm frame for a spectrum, searching orderings"
    )
    equal_norm.add_argument("--spectrum", type=rational, nargs="+", required=True)
    equal_norm.add_argument("--count", type=int, required=True)
    equal_norm.add_argument("--budget", type=int)
    _add_output_options(equal_norm)

    naimark = commands.add_parser("naimark", help="Naimark complement of a Parseval frame")
    naimark.add_argument("--input", required=True)
    _add_output_options(naimark)

    sffr_cmd = commands.add_parser("sffr", help="fusion frame with equal-dimension subspaces")
    sffr_cmd.add_argument("--spectrum", type=rational, nargs="+", required=True)
    sffr_cmd.add_argument("--subspaces", type=int, required=True)
    sffr_cmd.add_argument("--subspace-dim", type=int, required=True)
    _add_output_options(sffr_cmd)

    rff_cmd = commands.add_parser("rff", help="reference fusion frame (first-fit buckets)")
    rff_cmd.add_argument("--spectrum", type=rational, nargs="+", required=True)
    rff_cmd.add_argument("--count", type=int, required=True)
    _add_output_options(rff_cmd)

    uff_cmd = commands.add_parser("uff", help="fusion frame with prescribed dimensions")
    uff_cmd.add_argument("--spectrum", type=rational, nargs="+", required=True)
    uff_cmd.add_argument("--dims", type=int, nargs="+", required=True)
    _add_output_options(uff_cmd)

    weighted = commands.add_parser("weighted-fusion", help="weighted fusion frame")
    weighted.add_argument("--weights-squared", type=rational, nargs="+", required=True)
    weighted.add_argument("--dims", type=int, nargs="+", required=True)
    weighted.add_argument("--spectrum", type=rational, nargs="+", required=True)
    weighted.add_argument("--budget", type=int)
    _add_output_options(weighted)

    extend = commands.add_parser(
        "extend-tight", help="extend a fusion frame to a tight one"
    )
    extend.add_argument("--input", required=True)
    extend.add_argument("--spectrum", type=rational, nargs="+", required=True)
    _add_output_options(extend)

    verify = commands.add_parser("verify", help="verify a frame or fusion frame file")
    verify.add_argument("--input", required=True)
    verify.add_argument("--spectrum", type=rational, nargs="*")
    verify.add_argument("--norms", type=rational, nargs="*")

    grid = commands.add_parser(
        "feasibility-grid", help="CSV sweep of unit-norm tight-frame feasibility"
    )
    grid.add_argument("--max-dim", type=int, required=True)
    grid.add_argument("--max-count", type=int, required=True)
    grid.add_argument("--output", help="output CSV (default: feasibility-grid.csv)")

    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The Namespace the top-level parse_args gives, parsing each token once.

    A line that starts with a command name goes straight to that command's
    parser, which the top-level parser would call on the same tokens after
    classifying and converting each of them itself. Tokens left over get
    the top-level error that parse_args gives them. Every other line (an
    empty one, help, an unknown command, a leading option) goes through
    parse_args itself.
    """
    parser = _build_parser()
    command = parser.command_parsers.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    args.command = argv[0]
    return args


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 1
    try:
        return _HANDLERS[args.command](args)
    except SpectralTetrisError as failure:
        print(f"{type(failure).__name__}: {failure}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
