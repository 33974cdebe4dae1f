"""Command-line surface: exit codes, reports, output files, formats."""

import argparse
import functools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    fusion_to_json,
    matrix_from_json,
    matrix_to_json,
    read_document,
    sffr,
    write_document,
)
import spectral_tetris
import spectral_tetris.cli as cli
from spectral_tetris.cli import run
from spectral_tetris.sequences import untf_feasible

import goldens


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured


# -- construction commands ----------------------------------------------------


def test_untf_command_writes_the_golden(tmp_path, capsys):
    target = tmp_path / "frame.json"
    code, captured = run_json(
        capsys, ["untf", "--dim", "4", "--count", "11", "--output", str(target)]
    )
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["output"] == str(target)
    report = payload["report"]
    assert report["is_tight"] is True
    assert report["tight_bound"] == "11/4"
    assert report["nonzero_count"] == 17
    assert report["optimal_sparsity_bound"] == 17
    assert report["spectrum_matches"] is True
    assert report["norms_match"] is True
    loaded = matrix_from_json(read_document(str(target)))
    assert dict(loaded.entries) == dict(construct_untf(4, 11).entries)


def test_untf_dft_command_reports_numerically(tmp_path, capsys):
    code, captured = run_json(
        capsys,
        ["untf-dft", "--dim", "4", "--count", "5", "--output", str(tmp_path / "dft.json")],
    )
    assert code == 0
    report = json.loads(captured.out)["report"]
    assert report["exact"] is False
    assert report["is_tight"] is True
    assert report["tight_bound"] == "5/4"
    assert report["row_square_sums"] == ["5/4"] * 4


def test_pnstc_command_matches_the_golden(tmp_path, capsys):
    target = tmp_path / "pnstc.json"
    code, captured = run_json(
        capsys,
        [
            "pnstc",
            "--norms-squared", "16", "1", "4", "3", "1", "2", "9", "4",
            "--spectrum", "18", "6", "2", "10", "4",
            "--output", str(target),
        ],
    )
    assert code == 0
    loaded = matrix_from_json(read_document(str(target)))
    assert dict(loaded.entries) == dict(goldens.PNSTC_5x8)
    report = json.loads(captured.out)["report"]
    assert report["spectrum_matches"] is True
    assert report["norms_match"] is True


def test_pnstc_str_reports_its_swaps(tmp_path, capsys):
    code, captured = run_json(
        capsys,
        [
            "pnstc-str",
            "--norms-squared", "3", "4", "3", "1", "4", "2",
            "--spectrum", "9", "8",
            "--output", str(tmp_path / "frame.json"),
        ],
    )
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["swaps"] == [[2, 3]]
    assert payload["report"]["spectrum_matches"] is True


def test_pnstc_str_stdout_keeps_its_keys_in_both_formats(tmp_path, capsys):
    for fmt in ("json", "csv"):
        target = tmp_path / f"frame.{fmt}"
        code, captured = run_json(
            capsys,
            [
                "pnstc-str",
                "--norms-squared", "3", "4", "3", "1", "4", "2",
                "--spectrum", "9", "8",
                "--output", str(target),
                "--format", fmt,
            ],
        )
        assert code == 0
        assert list(json.loads(captured.out)) == ["output", "swaps", "report"]
        assert target.exists()
    assert len(target.read_text().splitlines()) == 2


def test_sfr_report_follows_the_realized_row_order(tmp_path, capsys):
    # the input order dead-ends, so the rows come out permuted; the report
    # must compare against the realized order rather than cry mismatch
    code, captured = run_json(
        capsys,
        [
            "sfr",
            "--spectrum", "5/2", "1", "5/2",
            "--count", "6",
            "--output", str(tmp_path / "frame.json"),
        ],
    )
    assert code == 0
    report = json.loads(captured.out)["report"]
    assert report["spectrum_matches"] is True
    assert report["row_square_sums"] == ["5/2", "5/2", "1"]


def test_sfr_command_reports_a_blown_search_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_TETRIS_SEARCH_BUDGET", "1")
    target = tmp_path / "frame.json"
    code, captured = run_json(
        capsys,
        ["sfr", "--spectrum", "1/2", "1/2", "1", "--count", "2", "--output", str(target)],
    )
    assert code == 2
    assert captured.err.startswith("SearchBudgetExceeded:")
    assert not target.exists()


def test_equal_norm_command_verifies_shared_norms(tmp_path, capsys):
    code, captured = run_json(
        capsys,
        [
            "equal-norm",
            "--spectrum", "13/3", "10/3", "7/3",
            "--count", "10",
            "--output", str(tmp_path / "frame.json"),
        ],
    )
    assert code == 0
    report = json.loads(captured.out)["report"]
    assert report["spectrum_matches"] is True
    assert report["norms_match"] is True


def test_weighted_fusion_command_stays_exact(tmp_path, capsys):
    code, captured = run_json(
        capsys,
        [
            "weighted-fusion",
            "--weights-squared", "1", "1", "1", "1", "2", "2", "3", "3", "4",
            "--dims", "2", "2", "2", "2", "2", "2", "2", "2", "2",
            "--spectrum", "7", "7", "7", "7", "8",
            "--output", str(tmp_path / "weighted.json"),
        ],
    )
    assert code == 0
    report = json.loads(captured.out)["report"]
    assert report["exact"] is True
    assert report["spectrum_matches"] is True
    assert report["spectrum"] == ["7", "7", "7", "7", "8"]


def test_rff_command_is_exactly_tight(tmp_path, capsys):
    code, captured = run_json(
        capsys,
        [
            "rff",
            "--spectrum", "11/4", "11/4", "11/4", "11/4",
            "--count", "11",
            "--output", str(tmp_path / "rff.json"),
        ],
    )
    assert code == 0
    report = json.loads(captured.out)["report"]
    assert report["exact"] is True
    assert report["lower_bound"] == "11/4"
    assert report["upper_bound"] == "11/4"


def test_naimark_command_completes_a_parseval_frame(tmp_path, capsys):
    parseval = construct_untf(4, 11).scale(RadicalScalar.sqrt(Fraction(4, 11)))
    source = tmp_path / "parseval.json"
    write_document(str(source), matrix_to_json(parseval))
    target = tmp_path / "complement.json"
    code, captured = run_json(
        capsys, ["naimark", "--input", str(source), "--output", str(target)]
    )
    assert code == 0
    complement = matrix_from_json(read_document(str(target)))
    assert (complement.row_count, complement.col_count) == (7, 11)
    stacked = np.vstack([parseval.to_dense(), complement.to_dense()])
    assert np.max(np.abs(stacked @ stacked.T - np.eye(11))) < 1e-9


def test_extend_tight_writes_the_complement(tmp_path, capsys):
    source = tmp_path / "fusion.json"
    write_document(str(source), fusion_to_json(sffr(goldens.SFFR_SPECTRUM, 5, 2)))
    target = tmp_path / "complement.json"
    code, captured = run_json(
        capsys,
        [
            "extend-tight",
            "--input", str(source),
            "--spectrum", "13/3", "10/3", "7/3",
            "--output", str(target),
        ],
    )
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["tight_bound"] == 12
    assert payload["extended_count"] == 18
    assert payload["output"] == str(target)
    assert payload["report"]["is_frame"] is True
    assert target.exists()


# -- output handling ---------------------------------------------------------------


def test_default_output_name_tracks_the_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run_json(capsys, ["untf", "--dim", "4", "--count", "6"])
    assert code == 0
    assert json.loads(captured.out)["output"] == "untf.json"
    assert (tmp_path / "untf.json").exists()


def test_csv_export_round_trips_to_double_precision(tmp_path, capsys):
    target = tmp_path / "frame.csv"
    code, _ = run_json(
        capsys,
        ["untf", "--dim", "4", "--count", "11", "--format", "csv", "--output", str(target)],
    )
    assert code == 0
    dense = construct_untf(4, 11).to_dense()
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 4
    for i, line in enumerate(lines):
        cells = [float(cell) for cell in line.split(",")]
        assert len(cells) == 11
        for j, value in enumerate(cells):
            assert value == dense[i, j]  # 17 significant digits keep doubles exact


def test_fusion_csv_exports_the_generator(tmp_path, capsys):
    target = tmp_path / "uff.csv"
    code, _ = run_json(
        capsys,
        [
            "uff",
            "--spectrum", "11/4", "11/4", "11/4", "11/4",
            "--dims", "3", "3", "2", "1", "1", "1",
            "--format", "csv",
            "--output", str(target),
        ],
    )
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 4
    assert all(len(line.split(",")) == 11 for line in lines)


def test_feasibility_grid_matches_the_library(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, captured = run_json(
        capsys,
        ["feasibility-grid", "--max-dim", "3", "--max-count", "6", "--output", str(target)],
    )
    assert code == 0
    assert json.loads(captured.out)["cells"] == 15
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "m,n,feasible"
    assert len(lines) == 16
    for line in lines[1:]:
        m, n, flag = line.split(",")
        assert flag == ("true" if untf_feasible(int(m), int(n)) else "false")


# -- verify command ---------------------------------------------------------------


def test_verify_command_flags_a_tampered_file(tmp_path, capsys):
    document = matrix_to_json(construct_untf(4, 11))
    for entry in document["entries"]:
        if entry["row"] == 0 and entry["col"] == 2:
            entry["terms"] = [{"num": 1, "den": 1, "rad": 1}]
    target = tmp_path / "tampered.json"
    write_document(str(target), document)
    code, captured = run_json(capsys, ["verify", "--input", str(target)])
    assert code == 0  # a bad frame is a finding, not a tool failure
    report = json.loads(captured.out)["report"]
    assert report["rows_orthogonal"] is False
    assert report["is_tight"] is False


def test_verify_routes_fusion_documents(tmp_path, capsys):
    target = tmp_path / "fusion.json"
    write_document(str(target), fusion_to_json(sffr(goldens.SFFR_SPECTRUM, 5, 2)))
    code, captured = run_json(
        capsys,
        ["verify", "--input", str(target), "--spectrum", "13/3", "10/3", "7/3"],
    )
    assert code == 0
    report = json.loads(captured.out)["report"]
    assert report["subspace_dims"] == [2, 2, 2, 2, 2]
    assert report["spectrum_matches"] is True


def test_verify_checks_norms_when_given(tmp_path, capsys):
    target = tmp_path / "frame.json"
    write_document(str(target), matrix_to_json(construct_untf(4, 6)))
    code, captured = run_json(
        capsys,
        ["verify", "--input", str(target), "--norms"] + ["1"] * 6,
    )
    assert code == 0
    assert json.loads(captured.out)["report"]["norms_match"] is True


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def test_verify_prints_exact_sums_past_the_int_to_str_limit(tmp_path, capsys):
    """The square sum of a 1 x 1,000 row of 1/p over the first 1,000 primes
    has a denominator of about 7,900 digits, past the interpreter's default
    int-to-str limit of 4,300. The report prints it, byte for byte, as
    str() does with the limit lifted, and leaves the limit as it was."""
    primes = _primes(1000)
    row = SynthesisMatrix(
        1, 1000, {(0, j): RadicalScalar.from_rational(Fraction(1, p)) for j, p in enumerate(primes)}
    )
    target = tmp_path / "row.json"
    write_document(str(target), matrix_to_json(row))
    limit = sys.get_int_max_str_digits()
    code, captured = run_json(capsys, ["verify", "--input", str(target)])
    assert (code, captured.err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    report = spectral_tetris.verify_frame(row)
    sys.set_int_max_str_digits(0)
    try:
        printed = {
            name: [str(v) for v in value] if isinstance(value, tuple)
            else str(value) if isinstance(value, Fraction) else value
            for name, value in vars(report).items()
        }
        digits = len(str(report.row_square_sums[0].denominator))
    finally:
        sys.set_int_max_str_digits(limit)
    assert digits > 4300
    assert captured.out == json.dumps({"report": printed}, indent=2) + "\n"


def test_decimal_text_is_str_at_any_length():
    numbers = [0, 7, -7, 10**4299, 10**4300, -(10**4300) + 1, 3**40_000, -(7**20_000), 10**9000]
    limit = sys.get_int_max_str_digits()
    found = [cli._decimal(n) for n in numbers]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert found == [str(n) for n in numbers]
    finally:
        sys.set_int_max_str_digits(limit)


# -- exit codes --------------------------------------------------------------------


def test_infeasible_instance_exits_2_and_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "never.json"
    code = run(["untf", "--dim", "4", "--count", "5", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("Infeasible:")
    assert captured.out == ""
    assert not target.exists()


def test_output_into_a_missing_directory_exits_1_and_leaves_no_file(tmp_path, capsys):
    target = str(tmp_path / "missing" / "out")
    for argv in (
        ["untf", "--dim", "2", "--count", "5", "--output", target],
        ["untf", "--dim", "2", "--count", "5", "--output", target, "--format", "csv"],
        ["sffr", "--spectrum", "2", "2", "--subspaces", "2", "--subspace-dim", "2",
         "--output", target],
        ["feasibility-grid", "--max-dim", "2", "--max-count", "3", "--output", target],
    ):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_naimark_rejects_a_non_parseval_input(tmp_path, capsys):
    source = tmp_path / "untf.json"
    write_document(str(source), matrix_to_json(construct_untf(4, 11)))
    code = run(
        ["naimark", "--input", str(source), "--output", str(tmp_path / "out.json")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("NotParseval:")


def test_usage_problems_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    capsys.readouterr()
    assert run(["untf", "--dim", "four", "--count", "11"]) == 1
    capsys.readouterr()
    assert run(["sfr", "--spectrum", "2.5", "1.5", "--count", "4"]) == 1
    assert "floats are not accepted" in capsys.readouterr().err


# -- the rational argument type against the parser it replaced ------------------------

_PARENT_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?")


def _parent_rational(text: str) -> Fraction:
    """cli.rational as it was when it matched and then parsed with
    Fraction, verbatim bar its name and pattern name."""
    cleaned = text.strip()
    if not _PARENT_RATIONAL_PATTERN.fullmatch(cleaned):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q rational, got {text!r} (floats are not accepted)"
        )
    try:
        return Fraction(cleaned)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def _rational_outcome(parse, text):
    try:
        value = parse(text)
    except (argparse.ArgumentTypeError, ValueError) as failure:
        return type(failure), str(failure)
    return type(value), value


_DIGITS = st.text(st.sampled_from("0123456789\u0663\u06f7\u0966\u0967\u07c0\uff17"), max_size=5)
_PADDING = st.sampled_from(["", " ", "\t", "\n ", "\u3000", "\x0b", "\xa0"])


@st.composite
def rational_texts(draw):
    """Signs, leading zeros, surrounding whitespace, zero denominators,
    non-ASCII digits and float-looking text."""
    sign = draw(st.sampled_from(["", "+", "-", "+-", "\u2212"]))
    tail = draw(
        st.one_of(
            st.just(""),
            _DIGITS.map(lambda digits: "/" + digits),
            st.sampled_from(
                ["/0", "/00", "/-3", "/+3", ".5", ".", "e3", "E-2", "_0", " /2", "/2/3", "j"]
            ),
        )
    )
    return draw(_PADDING) + sign + draw(_DIGITS) + tail + draw(_PADDING)


@given(st.one_of(rational_texts(), st.text(max_size=8)))
@settings(max_examples=500, deadline=None)
def test_rational_parses_as_the_parent_did(text):
    outcome = _rational_outcome(cli.rational, text)
    assert outcome == _rational_outcome(_parent_rational, text)
    if outcome[0] is Fraction:
        assert outcome[1] == Fraction(text.strip())


def test_rational_error_messages():
    assert _rational_outcome(cli.rational, " 3/0 ") == (
        argparse.ArgumentTypeError, "zero denominator in ' 3/0 '"
    )
    assert _rational_outcome(cli.rational, "2.5") == (
        argparse.ArgumentTypeError,
        "expected an integer or p/q rational, got '2.5' (floats are not accepted)",
    )
    assert cli.rational(" -007/\u0664\u0662 ") == Fraction(-1, 6)


def test_a_repeated_token_parses_once_and_a_bad_one_fails_every_time(capsys):
    """rational is memoized per token text; exceptions are not cached, so a
    bad token raises the same ArgumentTypeError each time it appears."""
    cli.rational.cache_clear()
    assert [cli.rational("7/3") for _ in range(3)] == [Fraction(7, 3)] * 3
    assert cli.rational.cache_info().misses == 1
    expected = (
        argparse.ArgumentTypeError,
        "expected an integer or p/q rational, got '2.5' (floats are not accepted)",
    )
    assert [_rational_outcome(cli.rational, "2.5") for _ in range(2)] == [expected] * 2
    errors = []
    for _ in range(2):
        assert run(["sfr", "--spectrum", "2.5", "2.5", "--count", "4"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].endswith(f"argument --spectrum: {expected[1]}\n")


def test_equal_value_tokens_parse_to_one_object():
    """rational is memoized per token text, so a value list parses equal
    tokens to one Fraction object: the verifier reads their run once."""
    args = cli._parse(["verify", "--input", "frame.json", "--norms", "1", "1", "1", "--spectrum", "5/2"])
    assert args.norms == [Fraction(1)] * 3
    assert args.norms[0] is args.norms[1] is args.norms[2]
    assert args.spectrum == [Fraction(5, 2)]


def test_missing_input_exits_1(tmp_path, capsys):
    code = run(["verify", "--input", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "spectral-tetris" in capsys.readouterr().out


# -- search budget -----------------------------------------------------------------


def test_search_budget_env_is_honored(tmp_path, capsys, monkeypatch):
    argv = [
        "equal-norm",
        "--spectrum", "13/3", "10/3", "7/3",
        "--count", "10",
        "--output", str(tmp_path / "frame.json"),
    ]
    monkeypatch.setenv("SPECTRAL_TETRIS_SEARCH_BUDGET", "0")
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("SearchBudgetExceeded:")
    assert run(argv + ["--budget", "100000"]) == 0  # explicit flag beats the env
    capsys.readouterr()
    monkeypatch.delenv("SPECTRAL_TETRIS_SEARCH_BUDGET")
    assert run(argv) == 0
    capsys.readouterr()


def test_a_negative_budget_is_one_error_line_and_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPECTRAL_TETRIS_SEARCH_BUDGET", raising=False)
    target = tmp_path / "frame.json"
    argv = ["equal-norm", "--spectrum", "3", "2", "--count", "5", "--output", str(target)]
    assert run(argv + ["--budget", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: search budget must be a nonnegative integer, got -5\n"
    assert not target.exists()
    monkeypatch.setenv("SPECTRAL_TETRIS_SEARCH_BUDGET", "abc")
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: SPECTRAL_TETRIS_SEARCH_BUDGET='abc' is not an integer\n"
    assert not target.exists()


def test_weighted_fusion_budget_cut_exits_2(tmp_path, capsys):
    argv = [
        "weighted-fusion",
        "--weights-squared", *["1"] * 6,
        "--dims", "3", "3", "2", "1", "1", "1",
        "--spectrum", *["11/4"] * 4,
        "--budget", "1",
        "--output", str(tmp_path / "fusion.json"),
    ]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("SearchBudgetExceeded:")


# -- work per call -------------------------------------------------------------------


def test_csv_export_reads_the_complex_flag_a_bounded_number_of_times(tmp_path, monkeypatch):
    """The flag scans every nonzero, so reading it per cell made a CSV write
    cost M*N*nnz."""
    matrix = construct_untf(20, 55)
    reads = 0
    flag = SynthesisMatrix.is_complex

    def counting_flag(self):
        nonlocal reads
        reads += 1
        return flag.fget(self)

    monkeypatch.setattr(SynthesisMatrix, "is_complex", property(counting_flag))
    text = cli._matrix_csv(matrix)
    monkeypatch.undo()
    assert reads <= 2
    assert len(text.strip().split("\n")) == 20


_NUMPY_PROBE = """
import sys

import spectral_tetris
from spectral_tetris.cli import run

frame, dft, table = sys.argv[1:]
exact = [
    ["untf", "--dim", "4", "--count", "11", "--output", frame],
    ["verify", "--input", frame],
    ["pnstc", "--norms-squared", "2/3", "2/3", "5/6", "5/6", "5/3", "5/3",
     "--spectrum", "13/6", "13/6", "2"],
]
for argv in exact:
    assert run(argv) == 0, argv
assert "numpy" not in sys.modules, "an exact command loaded numpy"
assert run(["untf-dft", "--dim", "4", "--count", "5", "--output", dft]) == 0
assert run(["untf", "--dim", "4", "--count", "11", "--format", "csv", "--output", table]) == 0
assert "numpy" in sys.modules
"""


def test_exact_commands_do_not_load_numpy(tmp_path):
    """numpy is imported only where numbers are floats (DFT blocks, dense
    views, CSV export, Naimark, numeric fusion), so importing the package
    and running an exact command and its verification leave it unloaded.
    A fresh interpreter, because this one has numpy loaded already."""
    src = os.path.dirname(os.path.dirname(spectral_tetris.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    paths = [str(tmp_path / name) for name in ("u.json", "dft.json", "u.csv")]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *paths],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    dft = matrix_from_json(read_document(paths[1]))
    assert dft.is_complex
    with open(paths[2]) as handle:
        assert len(handle.read().strip().split("\n")) == 4


_LIBRARY_NUMPY_PROBE = """
import sys
from fractions import Fraction

from spectral_tetris import construct_untf, frame_operator, sffr, sparsity_report, verify_fusion

matrix = construct_untf(4, 11)
operator = frame_operator(matrix)
assert operator.exact and operator.diagonal() == (Fraction(11, 4),) * 4
assert sparsity_report(matrix, [Fraction(11, 4)] * 4)[0] == matrix.nonzero_count
report = verify_fusion(sffr([Fraction(5, 2)] * 4, 5, 2), [Fraction(5, 2)] * 4)
assert report.exact and report.spectrum_matches
assert "numpy" not in sys.modules, "an exact library route loaded numpy"
"""


def test_exact_library_routes_do_not_load_numpy():
    """frame_operator and sparsity_report on a real frame, and verify_fusion
    on an exact sffr frame, run on the exact route alone: a fresh
    interpreter that calls them still has no numpy."""
    src = os.path.dirname(os.path.dirname(spectral_tetris.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LIBRARY_NUMPY_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    """Help, parse errors and successful runs, interleaved, print and exit
    exactly as with a parser built for each call."""
    output = str(tmp_path / "u.json")
    argvs = [
        ["--help"],
        ["untf", "--dim", "4", "--count", "11", "--output", output],
        ["no-such-command"],
        ["untf", "--help"],
        ["sfr", "--spectrum", "2.5", "1.5", "--count", "4"],
        ["untf", "--dim", "4", "--count", "11", "--output", output],
        ["verify", "--input", output, "--spectrum", "11/4", "11/4", "11/4", "11/4"],
        ["untf", "--dim", "four", "--count", "11"],
        ["verify", "--input", output],
        [],
        ["--help"],
    ]

    def answers():
        seen = []
        for argv in argvs + argvs[::-1]:
            code = run(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen

    reused = answers()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert answers() == reused
    assert [code for code, _, _ in reused[: len(argvs)]] == [0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0]


# -- command-line dispatch against the top-level parse_args ---------------------------


def _top_level_run(argv):
    """cli.run as it was when every command line went through the
    top-level parser's parse_args, verbatim bar its name and the module
    prefixes."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code == 0 else 1
    try:
        return cli._HANDLERS[args.command](args)
    except spectral_tetris.SpectralTetrisError as failure:
        print(f"{type(failure).__name__}: {failure}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1


_UNTF = ["untf", "--dim", "4", "--count", "11"]

#: Every command, each kind of usage error, the token forms argparse treats
#: specially, the lines that only the top-level parser can answer, and each
#: command's help. The relative paths name files in the working directory
#: (see _dispatch_outcome).
_DISPATCH_ARGVS = [
    _UNTF,
    ["untf-dft", "--dim", "4", "--count", "5", "--output", "dft.json"],
    ["sfr", "--spectrum", "5/2", "1", "5/2", "--count", "6", "--format", "csv"],
    ["pnstc", "--norms-squared", "16", "1", "4", "3", "1", "2", "9", "4",
     "--spectrum", "18", "6", "2", "10", "4"],
    ["pnstc-str", "--norms-squared", "3", "4", "3", "1", "4", "2", "--spectrum", "9", "8",
     "--output", "str.json"],
    ["equal-norm", "--spectrum", "13/3", "10/3", "7/3", "--count", "10", "--budget", "1000"],
    ["naimark", "--input", "parseval.json", "--output", "complement.json"],
    ["sffr", "--spectrum", "13/3", "10/3", "7/3", "--subspaces", "5", "--subspace-dim", "2"],
    ["rff", "--spectrum", "11/4", "11/4", "11/4", "11/4", "--count", "11", "--output", "rff.csv",
     "--format", "csv"],
    ["uff", "--spectrum", "2", "2", "2", "--dims", "2", "2", "2"],
    ["weighted-fusion", "--weights-squared", "1", "1", "1", "1", "2", "2", "3", "3", "4",
     "--dims", "2", "2", "2", "2", "2", "2", "2", "2", "2", "--spectrum", "7", "7", "7", "7", "8"],
    ["extend-tight", "--input", "fusion.json", "--spectrum", "13/3", "10/3", "7/3"],
    ["verify", "--input", "frame.json", "--spectrum", "11/4", "11/4", "11/4", "11/4"],
    ["verify", "--input", "fusion.json", "--spectrum", "13/3", "10/3", "7/3"],
    ["feasibility-grid", "--max-dim", "3", "--max-count", "5"],
    # infeasible, the input order refused, a missing input file
    ["sfr", "--spectrum", "1/2", "1/2", "1", "--count", "2", "--output", "no.json"],
    ["pnstc", "--norms-squared", "3", "4", "3", "1", "4", "2", "--spectrum", "9", "8"],
    ["equal-norm", "--spectrum", "5/2", "1", "5/2", "--count", "6"],
    ["verify", "--input", "absent.json"],
    # usage errors: missing required, bad int, bad rational, bad choice
    ["untf", "--dim", "4"],
    ["untf", "--dim", "four", "--count", "11"],
    ["sfr", "--spectrum", "2.5", "1.5", "--count", "4"],
    ["sfr", "--spectrum", "3/0", "--count", "4"],
    _UNTF + ["--format", "xml"],
    # unknown options and extra positionals, alone and together
    _UNTF + ["--bogus"],
    _UNTF + ["extra"],
    _UNTF + ["extra", "--bogus=1", "more"],
    ["verify", "--input", "frame.json", "stray", "--spectrum", "11/4"],
    # a repeated option: the last one counts
    ["untf", "--dim", "5", "--dim", "4", "--count", "11", "--output", "twice.json"],
    # --x=y, abbreviations, an ambiguous abbreviation
    ["untf", "--dim=4", "--count=11", "--output=eq.json", "--format=csv"],
    ["pnstc", "--norms", "16", "1", "4", "3", "1", "2", "9", "4", "--spectrum", "18", "6", "2",
     "10", "4", "--output", "ab.json"],
    ["untf", "--di", "4", "--count", "11", "--output", "di.json"],
    ["weighted-fusion", "--weights-squared", "1", "--di", "2", "--spectrum", "1", "1"],
    ["sffr", "--sub", "2", "--spectrum", "2", "2"],
    # "--", negative-looking and empty value lists
    _UNTF + ["--", "extra"],
    ["untf", "--", "--dim", "4", "--count", "11"],
    ["sfr", "--spectrum", "-1/2", "--count", "4"],
    ["sfr", "--spectrum", "2", "-1/2", "--count", "4"],
    ["sfr", "--spectrum", "--count", "4"],
    ["verify", "--input", "frame.json", "--spectrum", "--norms"],
    ["verify", "--input", "frame.json", "--norms", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1"],
    # help after a command, and with errors around it
    ["untf", "-h"],
    ["verify", "--input", "frame.json", "--help"],
    ["untf", "--dim", "four", "-h"],
    ["feasibility-grid", "--he"],
    # the top-level parser's own lines
    [],
    ["--help"],
    ["-h", "untf"],
    ["no-such-command"],
    ["no-such-command", "--dim", "4"],
    ["--bogus"],
    ["--bogus", "untf", "--dim", "4", "--count", "11"],
    ["--", "untf", "--dim", "4", "--count", "11", "--output", "dash.json"],
    ["untf-"],
    ["UNTF", "--dim", "4", "--count", "11"],
] + [[name, "--help"] for name in cli._HANDLERS]


def _dispatch_outcome(run_line, argv, directory, capsys, monkeypatch):
    """Exit code, stdout, stderr and every file's bytes after one command
    line, run in a directory that holds a frame, a Parseval frame and a
    fusion frame document."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    frame = construct_untf(4, 11)
    write_document("frame.json", matrix_to_json(frame))
    write_document("parseval.json", matrix_to_json(frame.scale(RadicalScalar.sqrt(Fraction(4, 11)))))
    write_document("fusion.json", fusion_to_json(sffr(goldens.SFFR_SPECTRUM, 5, 2)))
    capsys.readouterr()
    code = run_line(list(argv))
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=" ".join)
def test_every_command_line_answers_as_the_top_level_parse_does(
    argv, tmp_path, capsys, monkeypatch
):
    """run gives the exit code, stdout, stderr and files of a run whose line
    went through the top-level parse_args, on every command and every kind
    of usage error."""
    expected = _dispatch_outcome(_top_level_run, argv, tmp_path / "top", capsys, monkeypatch)
    assert _dispatch_outcome(run, argv, tmp_path / "run", capsys, monkeypatch) == expected


def test_the_dispatch_table_runs_every_command():
    ran = {argv[0] for argv in _DISPATCH_ARGVS if argv and argv[1:] != ["--help"]}
    assert ran >= set(cli._HANDLERS)


def test_a_command_line_skips_the_top_level_parse(tmp_path, capsys, monkeypatch):
    """A line that starts with a command name is parsed by that command's
    parser alone: the top-level parser's parse_known_args is not called. A
    line it must answer itself still goes through it."""
    parser = cli._build_parser()
    calls = []
    parse_known_args = parser.parse_known_args

    def counted(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    output = str(tmp_path / "u.json")
    assert run(_UNTF + ["--output", output]) == 0
    assert run(["verify", "--input", output]) == 0
    assert run(["untf", "--dim", "four", "--count", "11"]) == 1
    assert calls == []
    assert run(_UNTF + ["extra"]) == 1
    assert calls == []
    assert capsys.readouterr().err.endswith("spectral-tetris: error: unrecognized arguments: extra\n")
    assert run(["--help"]) == 0
    assert run(["no-such-command"]) == 1
    assert len(calls) == 2


def test_verify_rejects_a_matrix_of_negative_dimension(tmp_path, capsys):
    """The m = -1 document once verified as a frame and exited 0."""
    source = tmp_path / "negative.json"
    write_document(str(source), {"m": -1, "n": 0, "complex": False, "entries": []})
    code = run(["verify", "--input", str(source)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: invalid matrix: negative dimension")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "naimark", "extend-tight"])
def test_a_declared_shape_above_the_bound_ends_in_one_error_line(tmp_path, capsys, command):
    """A 67-byte document declaring 10^9 x 10^9 once cost work and memory
    in proportion to that shape; now every command that reads a document
    refuses it before reading an entry."""
    source = tmp_path / "huge-shape.json"
    source.write_text('{"m": 1000000000, "n": 1000000000, "complex": false, "entries": []}')
    argv = [command, "--input", str(source)]
    if command != "verify":
        argv += ["--output", str(tmp_path / "out.json")]
    if command == "extend-tight":
        argv += ["--spectrum", "3"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: declared shape 1000000000x1000000000 exceeds the bound 100000 on m and n\n"
    )
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["huge-shape.json"]


ABOVE = str(cli.MAX_DIMENSION + 1)
MANY = ["3"] * (cli.MAX_DIMENSION + 1)


def _sffr_input(tmp_path):
    source = tmp_path / "sffr-in.json"
    write_document(str(source), fusion_to_json(sffr(goldens.SFFR_SPECTRUM, 5, 2)))
    return str(source)


REQUESTS_ABOVE_THE_BOUND = {
    "untf": (lambda tmp: ["untf", "--dim", "2", "--count", "100002"], "2x100002"),
    "untf-dft": (lambda tmp: ["untf-dft", "--dim", ABOVE, "--count", ABOVE], f"{ABOVE}x{ABOVE}"),
    "sfr": (lambda tmp: ["sfr", "--spectrum", "3", "--count", ABOVE], f"1x{ABOVE}"),
    "pnstc": (lambda tmp: ["pnstc", "--norms-squared", *MANY, "--spectrum", "6"], f"1x{ABOVE}"),
    "pnstc-str": (
        lambda tmp: ["pnstc-str", "--norms-squared", "1", "--spectrum", *MANY],
        f"{ABOVE}x1",
    ),
    "equal-norm": (lambda tmp: ["equal-norm", "--spectrum", *MANY, "--count", "4"], f"{ABOVE}x4"),
    "sffr": (
        lambda tmp: ["sffr", "--spectrum", "3", "--subspaces", "1001", "--subspace-dim", "100"],
        "1x100100",
    ),
    "rff": (lambda tmp: ["rff", "--spectrum", "3", "--count", ABOVE], f"1x{ABOVE}"),
    "uff": (lambda tmp: ["uff", "--spectrum", "3", "--dims", "100000", "1"], f"1x{ABOVE}"),
    "weighted-fusion": (
        lambda tmp: [
            "weighted-fusion", "--weights-squared", "1", "--dims", ABOVE, "--spectrum", "3",
        ],
        f"1x{ABOVE}",
    ),
    "extend-tight": (
        lambda tmp: ["extend-tight", "--input", _sffr_input(tmp), "--spectrum", *MANY],
        f"{ABOVE}x10",
    ),
}


def _expect_one_error_line(tmp_path, capsys, argv, message):
    before = sorted(os.listdir(tmp_path))
    target = tmp_path / "out.json"
    assert run(argv + ["--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", sorted(REQUESTS_ABOVE_THE_BOUND))
def test_a_requested_shape_above_the_bound_is_refused_before_anything_is_built(
    tmp_path, capsys, monkeypatch, command
):
    """The CLI once wrote a 2 x 100002 untf file that its own verify refused."""
    build, shape = REQUESTS_ABOVE_THE_BOUND[command]
    argv = build(tmp_path)
    # nothing below the check may run: every builder is gone
    for name in ("construct_untf", "construct_untf_dft", "sfr", "pnstc", "pnstc_str",
                 "equal_norm_frame", "sffr", "rff", "uff", "weighted_fusion", "extend_to_tight"):
        monkeypatch.setattr(cli, name, None)
    monkeypatch.setitem(cli._HANDLERS, "untf", functools.partial(cli._cmd_untf, build=None))
    monkeypatch.setitem(cli._HANDLERS, "untf-dft", functools.partial(cli._cmd_untf, build=None))
    message = f"requested shape {shape} exceeds the bound 100000 on m and n"
    _expect_one_error_line(tmp_path, capsys, argv, message)


def test_every_construction_command_has_a_request_above_the_bound():
    constructions = set(cli._HANDLERS) - {"naimark", "verify", "feasibility-grid"}
    assert set(REQUESTS_ABOVE_THE_BOUND) == constructions


@pytest.mark.parametrize(
    "shape", [(1, cli.MAX_DIMENSION), (cli.MAX_DIMENSION, cli.MAX_DIMENSION)]
)
def test_a_requested_shape_within_the_bound_passes_the_check(shape):
    cli._requested(*shape)


def _one_entry_row(tmp_path, width):
    source = tmp_path / f"row{width}.json"
    entry = {"row": 0, "col": 0, "terms": [{"num": 1, "den": 1, "rad": 1}]}
    write_document(str(source), {"m": 1, "n": width, "complex": False, "entries": [entry]})
    return str(source)


def test_naimark_refuses_a_document_wider_than_its_bound(tmp_path, capsys):
    width = cli.NAIMARK_MAX_WIDTH + 1
    argv = ["naimark", "--input", _one_entry_row(tmp_path, width)]
    message = f"naimark takes documents of n <= {cli.NAIMARK_MAX_WIDTH}, got n = {width}"
    _expect_one_error_line(tmp_path, capsys, argv, message)


def test_naimark_completes_a_document_at_its_bound(tmp_path, capsys):
    target = tmp_path / "out.json"
    argv = ["naimark", "--input", _one_entry_row(tmp_path, cli.NAIMARK_MAX_WIDTH)]
    code, captured = run_json(capsys, argv + ["--output", str(target)])
    assert code == 0
    assert json.loads(captured.out)["report"]["is_frame"] is True
    assert read_document(str(target))["m"] == cli.NAIMARK_MAX_WIDTH - 1


@pytest.mark.parametrize(
    "max_dim, max_count, cells",
    [(1, 10**6 + 1, 10**6 + 1), (1415, 1415, 1001820), (10**12, 10**12, 500000000000500000000000)],
)
def test_feasibility_grid_refuses_a_grid_above_its_bound(
    tmp_path, capsys, max_dim, max_count, cells
):
    argv = ["feasibility-grid", "--max-dim", str(max_dim), "--max-count", str(max_count)]
    message = f"a grid of {cells} cells exceeds the bound {cli.MAX_GRID_CELLS}"
    _expect_one_error_line(tmp_path, capsys, argv, message)


@pytest.mark.parametrize(
    "max_dim, max_count", [(3, 6), (6, 3), (5, 5), (1, 1), (0, 4), (4, 0), (-2, 5), (10**12, 3)]
)
def test_feasibility_grid_counts_the_cells_it_writes(tmp_path, capsys, max_dim, max_count):
    """The count is computed before the grid is built; a tall grid over few
    counts walks only the rows that hold cells."""
    target = tmp_path / "grid.csv"
    argv = ["feasibility-grid", "--max-dim", str(max_dim), "--max-count", str(max_count)]
    code, captured = run_json(capsys, argv + ["--output", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert json.loads(captured.out)["cells"] == len(lines) - 1
    assert lines[1:] == [
        f"{m},{n},{'true' if untf_feasible(m, n) else 'false'}"
        for m in range(1, min(max_dim, 10**3) + 1)
        for n in range(m, max_count + 1)
    ]


# -- entries beyond the float range ------------------------------------------------


HUGE_MATRIX = {
    "m": 1,
    "n": 2,
    "complex": False,
    "entries": [
        {"row": 0, "col": 0, "terms": [{"num": 10**400, "den": 1, "rad": 1}]},
        {"row": 0, "col": 1, "terms": [{"num": 1, "den": 1, "rad": 1}]},
    ],
}


def _expect_float_range_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: entry (0, 0) is outside the float range")
    assert captured.out == ""


def test_naimark_refuses_an_entry_outside_the_float_range(tmp_path, capsys):
    source = tmp_path / "huge.json"
    write_document(str(source), HUGE_MATRIX)
    target = tmp_path / "out.json"
    _expect_float_range_error(capsys, ["naimark", "--input", str(source), "--output", str(target)])
    assert not target.exists()


def test_verify_refuses_a_fusion_entry_outside_the_float_range(tmp_path, capsys):
    """The one group of two columns shares row 0, so it is not orthogonal and
    the check takes the numeric route."""
    source = tmp_path / "huge-fusion.json"
    write_document(str(source), dict(HUGE_MATRIX, partition=[[0, 1]], weights_sq=[{"num": 1, "den": 1}]))
    _expect_float_range_error(capsys, ["verify", "--input", str(source)])
