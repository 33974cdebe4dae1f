"""A matrix that knows its columns: stored views and work per distinct entry.

SynthesisMatrix stores its complex flag and, from first use, its column
maps. Verification does its exact work once per distinct entry object and
the JSON encoder once per run of one entry object; the encoder, the dense
conversion and the CSV writer must still give exactly what the
entry-by-entry versions gave.
"""

import json
import random
import re
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
    frame_operator,
    matrix_from_json,
    matrix_to_json,
    naimark_complement,
    pnstc,
    pnstc_str,
    sffr,
    sfr,
    sparsity_report,
    uff,
    verify_frame,
    verify_fusion,
    weighted_fusion,
)
from spectral_tetris.construct import column_maps
from spectral_tetris.exact_numeric import ZERO, entry_abs_squared

import goldens
from _oracles import (
    matrix_csv_oracle,
    matrix_to_json_oracle,
    row_gram_oracle,
    sweep_pairs_oracle,
    to_dense_oracle,
)
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


@given(sparse_exact_matrices())
@settings(max_examples=150, deadline=None)
def test_csv_equals_the_parent_on_sparse_exact_matrices(matrix):
    """The CSV writer formats only the stored cells; every cell's text is
    still the parent's, entries that round to a zero float included."""
    assert cli._matrix_csv(matrix) == matrix_csv_oracle(matrix)


@given(matrices_with_complex_columns())
@settings(max_examples=100, deadline=None)
def test_csv_equals_the_parent_with_complex_columns(matrix):
    assert cli._matrix_csv(matrix) == matrix_csv_oracle(matrix)


@pytest.mark.parametrize("value", [F(1, 10**400), F(-1, 10**400), F(-3, 7)])
def test_csv_of_a_tiny_or_negative_entry_equals_the_parent(value):
    matrix = SynthesisMatrix(2, 3, {(0, 1): RadicalScalar.from_rational(value)})
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
    settled 5,700 accumulators and built the column maps twice. The sweep
    lives in construct, so the counters wrap its handles: _entry_terms
    reads one entry, _exact_sum settles one sum, and column_maps is looked
    up by both modules. The route past the unit bound (the bound at 0, each
    form keeping its terms' own Fractions) is counted too."""
    counts = {}
    squared, settle, maps = (
        construct_module._entry_terms,
        construct_module._exact_sum,
        construct_module.column_maps,
    )

    def counting_squared(value):
        counts["squared"] += 1
        return squared(value)

    def counting_settle(*args):
        counts["settled"] += 1
        return settle(*args)

    def counting_maps(target):
        counts["builds"] += target._columns is None
        return maps(target)

    monkeypatch.setattr(construct_module, "_entry_terms", counting_squared)
    monkeypatch.setattr(construct_module, "_exact_sum", counting_settle)
    monkeypatch.setattr(construct_module, "column_maps", counting_maps)
    monkeypatch.setattr(verify_module, "column_maps", counting_maps)
    for bits in (construct_module._UNIT_BITS, 0):
        monkeypatch.setattr(construct_module, "_UNIT_BITS", bits)
        matrix = construct_untf(200, 5500)
        distinct = len({id(value) for value in matrix.entries.values()})
        assert matrix.nonzero_count > 10 * distinct
        counts.update(squared=0, settled=0, builds=0)
        report = verify_frame(matrix, [F(55, 2)] * 200, [F(1)] * 5500)
        assert report.is_frame and report.spectrum_matches and report.norms_match
        assert 0 < counts["squared"] <= distinct
        assert 0 < counts["settled"] <= 8
        assert counts["builds"] == 1


class _CountedForms(dict):
    """Sweep.forms that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_a_dense_column_reads_each_rows_form_once():
    """The Naimark complement of a 1 x 12 Parseval row, whose every column
    meets all 11 rows, and a random matrix with columns of one to four
    rows: Sweep.pairs reads a row's form once per column it shares with
    another row, |supp| reads, not one per row pair (|supp|^2 - |supp|),
    and its accumulators equal those of every pair formed in turn."""
    parseval = construct_untf(1, 12).scale(RadicalScalar.sqrt(F(1, 12)))
    rng = random.Random(7)
    values = (ROOT_2, MULTI_TERM, RadicalScalar.from_rational(F(-2, 3)), RadicalScalar.sqrt(F(5, 6)))
    mixed = SynthesisMatrix(
        6,
        30,
        {
            (row, col): rng.choice(values)
            for col in range(30)
            for row in rng.sample(range(6), col % 4 + 1)
        },
    )
    for matrix in (naimark_complement(parseval), mixed):
        sweep = construct_module.Sweep(matrix)
        forms = sweep.forms = _CountedForms(sweep.forms)
        pairs = sweep.pairs
        sizes = [len(column) for column in column_maps(matrix)]
        assert forms.reads == sum(size for size in sizes if size > 1)
        assert pairs == sweep_pairs_oracle(construct_module.Sweep(matrix))
    assert sizes.count(1) and sizes.count(2) and sizes.count(4)


def _settled_by(monkeypatch, call):
    """call()'s result and the accumulators it handed to construct._exact_sum,
    each as its items."""
    settled = []
    settle = construct_module._exact_sum

    def counting_settle(sums, scale):
        settled.append(tuple(sums.items()))
        return settle(sums, scale)

    monkeypatch.setattr(construct_module, "_exact_sum", counting_settle)
    result = call()
    monkeypatch.undo()
    return result, settled


def test_row_readers_settle_exactly_the_row_accumulators(monkeypatch):
    """Rows of square sums 3, 9 and 16 on disjoint supports, and six
    columns of squared norms 1, 2, 4, 5, 6 and 10: every square sum is an
    accumulator of its own and no two rows meet. frame_operator and
    sparsity_report read the rows only, so each settles M = 3
    accumulators, not the M + N = 9 of both halves."""
    squares = {(0, 0): 1, (0, 1): 2, (1, 2): 4, (1, 3): 5, (2, 4): 6, (2, 5): 10}
    matrix = SynthesisMatrix(3, 6, {key: RadicalScalar.sqrt(v) for key, v in squares.items()})
    operator, settled = _settled_by(monkeypatch, lambda: frame_operator(matrix))
    assert len(settled) == 3
    assert operator.entries == row_gram_oracle(matrix)
    assert operator.diagonal() == (3, 9, 16)
    report, settled = _settled_by(monkeypatch, lambda: sparsity_report(matrix, [16, 9, 3]))
    assert len(settled) == 3
    assert report == (6, 6, True)


def test_row_readers_leave_the_column_accumulators_of_untf_unsettled(monkeypatch):
    """untf(8, 400): frame_operator settles the distinct row accumulators
    and its row pairs', sparsity_report the distinct row accumulators
    alone; neither settles one of the 400 column accumulators."""
    matrix = construct_untf(8, 400)
    rows, cols, row_parts, col_parts = construct_module.Sweep(matrix)._squares
    assert not row_parts and not col_parts
    row_keys = {((1, s),) for s in rows}
    col_keys = {((1, s),) for s in cols} - row_keys
    assert col_keys
    operator, settled = _settled_by(monkeypatch, lambda: frame_operator(matrix))
    assert row_keys <= set(settled) and not col_keys & set(settled)
    assert operator.entries == row_gram_oracle(matrix)
    report, settled = _settled_by(monkeypatch, lambda: sparsity_report(matrix, [F(50)] * 8))
    assert sorted(settled) == sorted(row_keys)
    assert report[2]


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


class _CountedInt(int):
    """An int that counts the reads of its numerator; Fraction(value) reads it once."""

    reads = 0

    @property
    def numerator(self):
        _CountedInt.reads += 1
        return int(self)


def test_expectation_objects_convert_once_and_meet_the_sweeps_ints(monkeypatch):
    """untf(8, 400) against eight copies of one int 50 and 400 of one int 1:
    each distinct object becomes one Fraction, not one per position, and the
    converted expectations meet the sweep's ints, so no settled sum is
    compared (verify._matches is never reached)."""
    matrix = construct_untf(8, 400)
    fifty, one = _CountedInt(50), _CountedInt(1)
    settled = []
    matches = verify_module._matches

    def counting(actual, expected):
        settled.append(expected)
        return matches(actual, expected)

    monkeypatch.setattr(verify_module, "_matches", counting)
    _CountedInt.reads = 0
    report = verify_frame(matrix, [fifty] * 8, [one] * 400)
    assert report.spectrum_matches is True and report.norms_match is True
    assert _CountedInt.reads == 2
    wrong = verify_frame(matrix, [fifty] * 7 + [49], [one] * 399 + [F(1, 2)])
    assert wrong.spectrum_matches is False and wrong.norms_match is False
    assert verify_frame(matrix, range(50, 58)).spectrum_matches is False
    assert not settled
    # an irrational expectation compares the settled sums
    assert verify_frame(matrix, [50] * 7 + [ROOT_2]).spectrum_matches is False
    assert len(settled) == 1


@pytest.mark.parametrize(
    "expected, position",
    [([1, 2, "x", None, "x"], 2), ([F(11, 4), "x", 3, "x"], 1), ([1] * 3 + [None] * 2, 3)],
)
def test_a_repeated_non_number_is_named_at_its_first_position(expected, position):
    message = f"expected value {expected[position]!r} at position {position} is not a number"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_frame(construct_untf(4, 11), expected)


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
