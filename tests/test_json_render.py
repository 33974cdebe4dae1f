"""Indented JSON without the stdlib's pure-Python encoder.

json_io._render must give the text of json.dumps(value, indent=2), and
raise the same exception class, for every value json.dumps takes with its
default settings. Matrix and fusion files are rendered from the objects
themselves and must equal the indented dump of their documents. Every CLI
stdout report and .json file must read as the stdlib's indented text, and a
CLI run must not reach the stdlib's pure-Python encoder at all.
"""

import enum
import json
import os
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_tetris.json_io as json_io
from spectral_tetris import (
    FusionFrame,
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    fusion_to_json,
    matrix_to_json,
    rff,
    sffr,
    uff,
    weighted_fusion,
    write_document,
)
import spectral_tetris.cli as cli
from spectral_tetris.cli import run

import goldens
from _oracles import matrix_to_json_oracle
from test_verify_oracles import matrices_with_complex_columns, sparse_exact_matrices

MULTI_TERM = RadicalScalar.sqrt(2) + 1


class Colour(enum.IntEnum):
    RED = 1


class Ratio(float):
    def __repr__(self):
        return "not json"


# -- the renderer against json.dumps(indent=2) ------------------------------------------

TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('\x00\x1f\x7f"\\/\n\t é\U0001f600𐏿'),
    ),
    max_size=8,
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-5, 5).map(lambda value: Colour(1) if value == 1 else value),
    FLOATS,
    FLOATS.map(Ratio),
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(), FLOATS, st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=30,
)


def _outcome(function, value):
    """The text, or the class and message of the exception raised."""
    try:
        return function(value)
    except Exception as failure:  # noqa: BLE001 - the class is what is compared
        return type(failure), str(failure)


def _stdlib(value):
    return json.dumps(value, indent=2)


@given(VALUES)
@example(np.float64(1.5))
@example([np.float64(-0.0), {"x": np.float64("nan"), np.float64(2.5): np.float64("-inf")}])
@settings(max_examples=400, deadline=None)
def test_render_equals_indented_dumps(value):
    assert json_io._render(value) == _stdlib(value)


def _self_containing_list():
    loop = [1]
    loop.append(loop)
    return loop


def _self_containing_dict():
    loop = {"a": []}
    loop["a"].append(loop)
    return loop


@pytest.mark.parametrize(
    "value",
    [
        object(),
        F(1, 2),
        {1, 2},
        b"bytes",
        {"m": object()},
        [1, [2, {"x": F(3)}]],
        {(1, 2): 3},
        {"ok": 1, frozenset(): 2},
        {b"key": 1},
        _self_containing_list(),
        _self_containing_dict(),
        [[1, object()], _self_containing_list()],
        {(1, 2): _self_containing_list()},
        np.array([1, 2]),
        [1, np.array([1.0, 2.0])],
        {"a": np.array([[1, 2]])},
    ],
    ids=[
        "object", "fraction", "set", "bytes", "object-in-dict", "nested-fraction",
        "tuple-key", "frozenset-key", "bytes-key", "self-list", "self-dict", "first-error-wins",
        "key-before-value", "numpy-array", "numpy-array-in-list", "numpy-array-in-dict",
    ],
)
def test_render_raises_what_dumps_raises(value):
    expected = _outcome(_stdlib, value)
    assert isinstance(expected, tuple) and expected[0] in (TypeError, ValueError)
    assert _outcome(json_io._render, value) == expected


def test_render_shares_containers_that_do_not_contain_themselves():
    shared = [1, 2]
    value = {"a": shared, "b": [shared, shared], "c": (), "d": {}}
    assert json_io._render(value) == _stdlib(value)


def test_failed_render_leaves_no_file(tmp_path):
    target = tmp_path / "loop.json"
    with pytest.raises(ValueError):
        write_document(str(target), {"loop": _self_containing_list()})
    assert os.listdir(tmp_path) == []


# -- matrix and fusion files from the objects -------------------------------------------


def _matrix_file(tmp_path, matrix):
    target = tmp_path / "matrix.json"
    write_document(str(target), matrix)
    return target.read_text()


def _expected_matrix_text(matrix):
    return json.dumps(matrix_to_json_oracle(matrix), indent=2) + "\n"


@given(sparse_exact_matrices())
@settings(max_examples=150, deadline=None)
def test_matrix_text_equals_the_indented_document(matrix):
    assert json_io._matrix_text(matrix) == _expected_matrix_text(matrix)


@given(matrices_with_complex_columns())
@settings(max_examples=100, deadline=None)
def test_matrix_text_with_complex_columns_equals_the_indented_document(matrix):
    assert json_io._matrix_text(matrix) == _expected_matrix_text(matrix)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_untf(4, 11),
        lambda: construct_untf(4, 11).scale(MULTI_TERM),
        lambda: construct_untf_dft(5, 9).scale(RadicalScalar.sqrt(2)),
        lambda: SynthesisMatrix(0, 3, {}),
        lambda: SynthesisMatrix(3, 0, {}),
        lambda: SynthesisMatrix(0, 0, {}),
        lambda: SynthesisMatrix(2, 2, {(0, 0): MULTI_TERM, (1, 1): MULTI_TERM, (0, 1): -MULTI_TERM}),
    ],
    ids=["untf", "multi-term", "dft-scaled", "0x3", "3x0", "0x0", "shared-multi-term"],
)
def test_matrix_files_equal_the_indented_document(tmp_path, build):
    matrix = build()
    assert _matrix_file(tmp_path, matrix) == _expected_matrix_text(matrix)
    assert _matrix_file(tmp_path, matrix) == json.dumps(matrix_to_json(matrix), indent=2) + "\n"


def _dft_fusion():
    partition = ((0, 1), (2, 3), (4,))
    return FusionFrame(4, (F(1), F(3, 2), F(1)), (2, 2, 1), construct_untf_dft(4, 5), partition)


@pytest.mark.parametrize(
    "build",
    [
        lambda: sffr(goldens.SFFR_SPECTRUM, 5, 2),
        lambda: rff((F(3), F(3), F(2)), 8),
        lambda: uff((F(11, 4),) * 4, goldens.UFF_DIMS),
        lambda: weighted_fusion(
            goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
        ),
        _dft_fusion,
    ],
    ids=["sffr", "rff", "uff", "weighted", "dft"],
)
def test_fusion_files_equal_the_indented_document(tmp_path, build):
    frame = build()
    target = tmp_path / "fusion.json"
    write_document(str(target), frame)
    document = dict(
        matrix_to_json_oracle(frame.generator),
        partition=[list(group) for group in frame.partition],
        weights_sq=[{"num": w.numerator, "den": w.denominator} for w in frame.weights_squared],
    )
    assert document == fusion_to_json(frame)
    assert target.read_text() == json.dumps(document, indent=2) + "\n"


ROOT_2 = RadicalScalar.sqrt(2)


@pytest.mark.parametrize(
    "matrix",
    [
        SynthesisMatrix(2, 2, {(True, False): ROOT_2}),
        SynthesisMatrix(2, 2, {(np.int64(1), 0): ROOT_2}),
        SynthesisMatrix(np.int64(2), 2, {(0, 0): ROOT_2}),
        SynthesisMatrix(1, 1, {(0, 0): RadicalScalar([(np.int64(3), 1)])}),
    ],
    ids=["bool-index", "numpy-row", "numpy-m", "numpy-radicand"],
)
def test_matrix_text_of_odd_fields_is_that_of_its_document(matrix):
    """Fields other than exact ints are written, or refused, as json.dumps
    writes or refuses them in the document."""
    expected = _outcome(lambda m: json.dumps(matrix_to_json(m), indent=2) + "\n", matrix)
    assert _outcome(json_io._matrix_text, matrix) == expected


def test_a_float_row_is_refused_before_anything_is_written():
    """A float index has no __index__, so no matrix holding one is built
    and there is no text to write."""
    with pytest.raises(ValueError, match=r"^entry index \(1\.0, 1\) is not a pair of integers$"):
        SynthesisMatrix(2, 2, {(0, 0): ROOT_2, (1.0, 1): ROOT_2})


# -- every CLI subcommand --------------------------------------------------------------


def _parseval(tmp_path):
    path = tmp_path / "parseval.json"
    document = matrix_to_json(construct_untf(4, 11).scale(RadicalScalar.sqrt(F(4, 11))))
    path.write_text(json.dumps(document))
    return str(path)


def _sffr_file(tmp_path):
    path = tmp_path / "sffr-in.json"
    path.write_text(json.dumps(fusion_to_json(sffr(goldens.SFFR_SPECTRUM, 5, 2))))
    return str(path)


COMMANDS = {
    "untf": lambda tmp: ["untf", "--dim", "4", "--count", "11"],
    "untf-dft": lambda tmp: ["untf-dft", "--dim", "4", "--count", "5"],
    "sfr": lambda tmp: ["sfr", "--spectrum", "13/3", "10/3", "7/3", "--count", "10"],
    "pnstc": lambda tmp: [
        "pnstc", "--norms-squared", "16", "1", "4", "3", "1", "2", "9", "4",
        "--spectrum", "18", "6", "2", "10", "4",
    ],
    "pnstc-str": lambda tmp: [
        "pnstc-str", "--norms-squared", "3", "4", "3", "1", "4", "2", "--spectrum", "9", "8",
    ],
    "equal-norm": lambda tmp: ["equal-norm", "--spectrum", "7/2", "3", "5/2", "--count", "7"],
    "naimark": lambda tmp: ["naimark", "--input", _parseval(tmp)],
    "sffr": lambda tmp: [
        "sffr", "--spectrum", "13/3", "10/3", "7/3", "--subspaces", "5", "--subspace-dim", "2",
    ],
    "rff": lambda tmp: ["rff", "--spectrum", "3", "3", "2", "--count", "8"],
    "uff": lambda tmp: [
        "uff", "--spectrum", "11/4", "11/4", "11/4", "11/4", "--dims", "3", "3", "2", "1", "1", "1",
    ],
    "weighted-fusion": lambda tmp: [
        "weighted-fusion", "--weights-squared", "3/2", "1", "1", "3/2", "3/2", "3/2",
        "--dims", "1", "2", "3", "2", "1", "4", "--spectrum", *["17/7"] * 7, "--budget", "20000",
    ],
    "extend-tight": lambda tmp: [
        "extend-tight", "--input", _sffr_file(tmp), "--spectrum", "13/3", "10/3", "7/3",
    ],
    "verify": lambda tmp: ["verify", "--input", _parseval(tmp)],
    "feasibility-grid": lambda tmp: ["feasibility-grid", "--max-dim", "4", "--max-count", "6"],
}


def _assert_indented(text):
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_every_subcommand_is_covered():
    assert set(COMMANDS) == set(cli._HANDLERS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_reports_and_files_are_indented_json(tmp_path, capsys, name):
    argv = COMMANDS[name](tmp_path)
    if name != "verify":
        suffix = "csv" if name == "feasibility-grid" else "json"
        argv += ["--output", str(tmp_path / f"out.{suffix}")]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _assert_indented(captured.out)
    written = tmp_path / "out.json"
    assert written.exists() == (name not in ("verify", "feasibility-grid"))
    if written.exists():
        _assert_indented(written.read_text())


def test_cli_run_never_reaches_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    """A 40 x 1100 frame written as JSON and verified from its file, with the
    stdlib's pure-Python encoder (the one json.dumps(indent=...) runs on
    Python 3.10 to 3.12) made to raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was called")

    target = tmp_path / "big.json"
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert run(["untf", "--dim", "40", "--count", "1100", "--output", str(target)]) == 0
    assert run(["verify", "--input", str(target)]) == 0
    monkeypatch.undo()
    reports = capsys.readouterr().out
    assert reports.count('"is_frame": true') == 2
    assert target.read_text() == json.dumps(matrix_to_json(construct_untf(40, 1100)), indent=2) + "\n"


def test_delegated_leaves_never_reach_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    """Floats and keys other than strs are written as json's own compact
    text, and the untf-dft command writes complex entries; neither reaches
    the pure-Python encoder."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was called")

    document = {
        "floats": [1.5, -0.0, float("nan"), float("inf"), np.float64(0.1), Ratio(2.5)],
        "scalars": {1: 0.25, 2.5: -1e300, True: 5e-324, None: float("-inf"), False: 1, "s": 2.0},
    }
    target, dft = tmp_path / "floats.json", tmp_path / "dft.json"
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    write_document(str(target), document)
    assert run(["untf-dft", "--dim", "4", "--count", "5", "--output", str(dft)]) == 0
    monkeypatch.undo()
    assert target.read_text() == json.dumps(document, indent=2) + "\n"
    _assert_indented(capsys.readouterr().out)
    assert dft.read_text() == json.dumps(matrix_to_json(construct_untf_dft(4, 5)), indent=2) + "\n"
