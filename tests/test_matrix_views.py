"""A matrix that knows its columns: stored views and work per distinct entry.

SynthesisMatrix stores its complex flag and, from first use, its column
maps. Verification does its exact work once per distinct entry object and
the JSON encoder once per run of one entry object; the encoder, the dense
conversion and the CSV writer must still give exactly what the
entry-by-entry versions gave.
"""

import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings

import spectral_tetris.cli as cli
import spectral_tetris.construct as construct_module
import spectral_tetris.verify as verify_module
from spectral_tetris import (
    ComplexRadicalEntry,
    FusionFrame,
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    matrix_from_json,
    matrix_to_json,
    naimark_complement,
    pnstc,
    pnstc_str,
    sffr,
    sfr,
    uff,
    verify_frame,
    verify_fusion,
    weighted_fusion,
)
from spectral_tetris.construct import column_maps
from spectral_tetris.exact_numeric import ZERO, entry_abs_squared

import goldens
from _oracles import matrix_csv_oracle, matrix_to_json_oracle, to_dense_oracle
from test_verify_oracles import matrices_with_complex_columns, sparse_exact_matrices

ROOT_2 = RadicalScalar.sqrt(2)
MULTI_TERM = ROOT_2 + 1  # (1 + sqrt 2)^2 = 3 + 2 sqrt 2


def _round_trip(matrix):
    return matrix_from_json(json.loads(json.dumps(matrix_to_json(matrix))))


def _dft_fusion():
    matrix = construct_untf_dft(4, 5)
    partition = ((0, 1), (2, 3), (4,))
    return FusionFrame(4, (F(1),) * 3, (2, 2, 1), matrix, partition)


MATRICES = {
    "untf-4x11": lambda: construct_untf(4, 11),
    "untf-200x5500": lambda: construct_untf(200, 5500),
    "sfr-3x10": lambda: sfr((F(13, 3), F(10, 3), F(7, 3)), 10),
    "pnstc-5x8": lambda: pnstc((16, 1, 4, 3, 1, 2, 9, 4), (18, 6, 2, 10, 4)),
    "pnstc-non-square": lambda: pnstc((F(5, 6),) * 6 + (F(5, 3),) * 3, (F(10, 3),) * 3),
    "pnstc-str": lambda: pnstc_str((3, 4, 3, 1, 4, 2), (9, 8))[0],
    "multi-term-scale": lambda: construct_untf(4, 11).scale(MULTI_TERM),
    "sqrt-scale": lambda: pnstc((F(2, 3),) * 9, (2, 2, 2)).scale(ROOT_2),
    "dft-4x5": lambda: construct_untf_dft(4, 5),
    "dft-5x7": lambda: construct_untf_dft(5, 7),
    "dft-scale": lambda: construct_untf_dft(5, 9).scale(ROOT_2),
    "decoded-pnstc": lambda: _round_trip(pnstc((F(2, 3),) * 9, (2, 2, 2))),
    "decoded-dft": lambda: _round_trip(construct_untf_dft(4, 5)),
    "uff-generator": lambda: uff((F(11, 4),) * 4, goldens.UFF_DIMS).generator,
    "sffr-generator": lambda: sffr(goldens.SFFR_SPECTRUM, 5, 2).generator,
    "weighted-generator": lambda: weighted_fusion(
        goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
    ).generator,
    "naimark": lambda: naimark_complement(
        construct_untf(2, 4).scale(RadicalScalar.sqrt(F(1, 2)))
    ),
    "empty-3x0": lambda: SynthesisMatrix(3, 0, {}),
    "empty-0x3": lambda: SynthesisMatrix(0, 3, {}),
    "shared-and-unshared": lambda: SynthesisMatrix(
        2,
        3,
        {(0, 0): ROOT_2, (1, 0): ROOT_2, (0, 2): RadicalScalar.sqrt(2), (1, 1): -MULTI_TERM},
    ),
}


# -- the encoder, dense conversion and CSV writer against the parent's --------------


def _assert_parent_encoding(matrix):
    document = matrix_to_json(matrix)
    assert json.dumps(document) == json.dumps(matrix_to_json_oracle(matrix))
    # every entry gets its own dicts and lists, however often its value recurs
    entries = document["entries"]
    terms = [entry["terms"] for entry in entries]
    term_dicts = [term for listed in terms for term in listed]
    for objects in (entries, terms, term_dicts):
        assert len({id(item) for item in objects}) == len(objects)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_encoder_equals_the_parent_byte_for_byte(name):
    _assert_parent_encoding(MATRICES[name]())


@given(sparse_exact_matrices())
@settings(max_examples=150, deadline=None)
def test_encoder_equals_the_parent_on_sparse_exact_matrices(matrix):
    _assert_parent_encoding(matrix)


@given(matrices_with_complex_columns())
@settings(max_examples=100, deadline=None)
def test_encoder_equals_the_parent_with_complex_columns(matrix):
    _assert_parent_encoding(matrix)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_dense_form_and_csv_equal_the_parent(name):
    matrix = MATRICES[name]()
    dense, expected = matrix.to_dense(), to_dense_oracle(matrix)
    assert dense.dtype == expected.dtype and dense.shape == expected.shape
    assert np.array_equal(dense, expected)
    if matrix.row_count * matrix.col_count <= 20000:
        assert cli._matrix_csv(matrix) == matrix_csv_oracle(matrix)


# -- the stored views ---------------------------------------------------------------


def _fresh_columns(matrix):
    columns = [{} for _ in range(matrix.col_count)]
    for (row, col), value in matrix.entries.items():
        columns[col][row] = value
    return columns


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_stored_views_equal_fresh_ones(name):
    matrix = MATRICES[name]()
    flag = any(isinstance(value, ComplexRadicalEntry) for value in matrix.entries.values())
    assert matrix.is_complex is flag
    maps = column_maps(matrix)
    assert maps == _fresh_columns(matrix)
    assert column_maps(matrix) is maps  # built once, then served


@pytest.mark.parametrize(
    "name", ["pnstc-5x8", "multi-term-scale", "dft-4x5", "shared-and-unshared"]
)
def test_column_accessors_equal_their_definitions(name):
    """column, column_support and column_norm_squared read the stored maps;
    outside the matrix they still give a zero column, as the row scan did."""
    matrix = MATRICES[name]()
    m, n = matrix.row_count, matrix.col_count
    for col in [-1, n, n + 3] + list(range(n)):
        expected = tuple(matrix.entries.get((i, col), ZERO) for i in range(m))
        assert matrix.column(col) == expected
        assert matrix.column_support(col) == tuple(i for i in range(m) if expected[i])
        norm = ZERO
        for value in expected:
            if value:
                norm = norm + entry_abs_squared(value)
        assert matrix.column_norm_squared(col) == norm


def test_round_trip_keeps_the_flag_on_mixed_entries():
    matrix = MATRICES["dft-4x5"]()
    decoded = _round_trip(matrix)
    assert decoded.is_complex and matrix.is_complex
    assert not _round_trip(construct_untf(4, 11)).is_complex


# -- work per distinct entry ----------------------------------------------------------


def test_verify_squares_each_distinct_entry_once_and_builds_the_maps_once(monkeypatch):
    """The 200 x 5500 unit-norm tight frame: 5,700 nonzeros, a few hundred
    distinct entry objects. The previous verifier squared every nonzero,
    settled 5,700 accumulators and built the column maps twice. The square
    sums live in construct, so the counters wrap construct's helpers."""
    matrix = construct_untf(200, 5500)
    distinct = len({id(value) for value in matrix.entries.values()})
    assert matrix.nonzero_count > 10 * distinct
    counts = {"squared": 0, "settled": 0, "builds": 0}
    squared, settle, maps = (
        construct_module._squared_terms,
        construct_module._settle,
        verify_module.column_maps,
    )

    def counting_squared(value):
        counts["squared"] += 1
        return squared(value)

    def counting_settle(sums):
        counts["settled"] += 1
        return settle(sums)

    def counting_maps(target):
        counts["builds"] += target._columns is None
        return maps(target)

    monkeypatch.setattr(construct_module, "_squared_terms", counting_squared)
    monkeypatch.setattr(construct_module, "_settle", counting_settle)
    monkeypatch.setattr(verify_module, "column_maps", counting_maps)
    report = verify_frame(matrix, [F(55, 2)] * 200, [F(1)] * 5500)
    assert report.is_frame and report.spectrum_matches and report.norms_match
    assert 0 < counts["squared"] <= distinct
    assert 0 < counts["settled"] <= 8
    assert counts["builds"] == 1


class _CountedFraction(F):
    comparisons = 0

    def __eq__(self, other):
        _CountedFraction.comparisons += 1
        return super().__eq__(other)

    __hash__ = F.__hash__


def test_matches_compares_each_distinct_pair_of_objects_once():
    one, half = _CountedFraction(1), _CountedFraction(1, 2)
    actual = [one] * 3000 + [half] * 2000
    _CountedFraction.comparisons = 0
    assert verify_module._matches(actual, [F(1)] * 3000 + [F(1, 2)] * 2000)
    assert _CountedFraction.comparisons <= 2
    _CountedFraction.comparisons = 0
    assert verify_module._matches(actual, [F(1)] * 5000) is False
    assert _CountedFraction.comparisons <= 2


def test_complex_fusion_route_builds_the_dense_generator_once(monkeypatch):
    frame = _dft_fusion()
    builds = 0
    dense = SynthesisMatrix.to_dense

    def counting(matrix):
        nonlocal builds
        builds += 1
        return dense(matrix)

    monkeypatch.setattr(SynthesisMatrix, "to_dense", counting)
    report = verify_fusion(frame, (F(5, 4),) * 4)
    assert not report.exact and report.rows_orthogonal
    assert builds == 1


# -- expectations that are not Fractions -------------------------------------------------


def _irrational_rows():
    """Row sums 3 + 2 sqrt 2 and 1: the first is an irrational ExactSum."""
    return SynthesisMatrix(2, 2, {(0, 0): MULTI_TERM, (1, 1): RadicalScalar.from_rational(1)})


def test_radical_expectations_are_compared_exactly():
    matrix = _irrational_rows()
    exact_sum = RadicalScalar([(1, 3), (2, 2)])
    report = verify_frame(matrix, [exact_sum, 1], [exact_sum, F(1)])
    assert report.spectrum_matches is True and report.norms_match is True
    assert verify_frame(matrix, [exact_sum + 1, 1]).spectrum_matches is False
    assert verify_frame(matrix, [ROOT_2] * 2).spectrum_matches is False
    flat = construct_untf(4, 11)
    assert verify_frame(flat, [ROOT_2] * 4).spectrum_matches is False
    rational = RadicalScalar.from_rational(F(11, 4))
    assert verify_frame(flat, [rational] * 4).spectrum_matches is True
    assert verify_frame(flat, (v for v in [F(11, 4)] * 4)).spectrum_matches is True


@pytest.mark.parametrize(
    "expected, position",
    [
        ([None, None], 0),
        ([F(11, 4), None, F(11, 4), F(11, 4)], 1),
        ([F(11, 4)] * 3 + ["eleven"], 3),
        ([F(11, 4), 1j, F(11, 4), F(11, 4)], 1),
        ([float("nan")] * 4, 0),
        ([F(11, 4), float("inf")], 1),
        ([construct_untf(1, 1).entries[(0, 0)], ComplexRadicalEntry(ROOT_2, 1, 3)], 1),
    ],
)
def test_non_number_expectations_raise_value_error_naming_their_position(expected, position):
    flat = construct_untf(4, 11)
    message = f"at position {position} is not a number"
    with pytest.raises(ValueError, match=message):
        verify_frame(flat, expected)
    with pytest.raises(ValueError, match=message):
        verify_frame(flat, None, expected)
    exact = uff((F(11, 4),) * 4, goldens.UFF_DIMS)
    numeric = sffr((F(19, 2), 4, 4, F(5, 2)), 10, 2)
    for frame in (exact, numeric, _dft_fusion()):
        with pytest.raises(ValueError, match=message):
            verify_fusion(frame, expected)


def test_fusion_routes_accept_radical_expectations():
    exact = uff((F(11, 4),) * 4, goldens.UFF_DIMS)
    rational = RadicalScalar.from_rational(F(11, 4))
    report = verify_fusion(exact, [rational] * 4)
    assert report.exact and report.spectrum_matches is True
    assert verify_fusion(exact, [ROOT_2] * 4).spectrum_matches is False
    numeric = sffr((F(19, 2), 4, 4, F(5, 2)), 10, 2)
    plain = verify_fusion(numeric)
    assert not plain.exact
    # the numeric route compares within 1e-10 against the operator's eigenvalues
    spectrum = [RadicalScalar.from_rational(F(value)) for value in plain.spectrum]
    assert verify_fusion(numeric, spectrum).spectrum_matches is True
    assert verify_fusion(numeric, [ROOT_2] * 4).spectrum_matches is False
    assert verify_fusion(_dft_fusion(), [rational] * 4).spectrum_matches is False
