"""Support-driven exact checks against the all-pairs oracles, and their work bound.

The verifier multiplies only entries that share a column or a row. These
tests compare it with the dense definitions on random sparse exact matrices
that carry planted cancelling 2x2 pairs, three-row column supports, empty
columns and empty rows, and count how many exact products it forms.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_tetris.construct as construct_module
import spectral_tetris.verify as verify_module
from spectral_tetris import (
    DftPathStuck,
    FusionFrame,
    ComplexRadicalEntry,
    RadicalScalar,
    SpectralTetrisError,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    equal_norm_frame,
    frame_operator,
    orthogonality_distance,
    pnstc,
    rff,
    sffr,
    sparsity_report,
    uff,
    verify_frame,
    verify_fusion,
    weighted_fusion,
)
from spectral_tetris.construct import column_maps
from spectral_tetris.fusion import group_flags

import goldens
from _oracles import (
    complex_orthogonality_distance_oracle,
    exact_rank_oracle,
    fusion_group_flags_oracle,
    orthogonality_distance_oracle,
    row_gram_oracle,
    rows_orthogonal_oracle,
    sparsity_report_oracle,
    verify_frame_oracle,
    verify_fusion_oracle,
)

VALUES = [
    RadicalScalar.from_rational(1),
    RadicalScalar.from_rational(-1),
    RadicalScalar.from_rational(Fraction(1, 2)),
    RadicalScalar.sqrt(2),
    -RadicalScalar.sqrt(2),
    RadicalScalar.sqrt(Fraction(1, 2)),
    RadicalScalar.sqrt(Fraction(3, 8)),
    RadicalScalar.sqrt(6) - 1,
]
values = st.sampled_from(VALUES)


@st.composite
def sparse_exact_matrices(draw, min_cols=0):
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=min_cols, max_value=10))
    entries = {}
    if rows:
        for j in range(cols):
            # support sizes 0 (an empty column) to 3 (a three-row support)
            size = draw(st.integers(min_value=0, max_value=min(3, rows)))
            support = draw(
                st.lists(
                    st.integers(min_value=0, max_value=rows - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
            for i in support:
                entries[(i, j)] = draw(values)
    if rows >= 2 and cols >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            # columns (x, y) and t*(y, -x) on rows p, q cancel exactly
            p, q = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
            j, k = draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=2, unique=True))
            x, y, t = draw(values), draw(values), draw(values)
            entries = {key: value for key, value in entries.items() if key[1] not in (j, k)}
            entries.update({(p, j): x, (q, j): y, (p, k): y * t, (q, k): -(x * t)})
    return SynthesisMatrix(rows, cols, entries)


@given(sparse_exact_matrices())
@settings(max_examples=300, deadline=None)
def test_orthogonality_distance_matches_all_pairs(matrix):
    assert orthogonality_distance(matrix) == orthogonality_distance_oracle(matrix)


@given(sparse_exact_matrices())
@settings(max_examples=200, deadline=None)
def test_frame_operator_entries_match_all_pairs(matrix):
    operator = frame_operator(matrix)
    assert operator.exact
    assert operator.entries == row_gram_oracle(matrix)
    assert {type(value) for row in operator.entries for value in row} <= {RadicalScalar}


@given(sparse_exact_matrices())
@settings(max_examples=200, deadline=None)
def test_frame_report_matches_all_pairs(matrix):
    report = verify_frame(matrix)
    assert report.rows_orthogonal == rows_orthogonal_oracle(matrix)
    assert report.orthogonality_distance == orthogonality_distance_oracle(matrix)
    if matrix.row_count and not report.rows_orthogonal:
        assert report.is_frame == (exact_rank_oracle(matrix) == matrix.row_count)


@given(sparse_exact_matrices(min_cols=1), st.data())
@settings(max_examples=200, deadline=None)
def test_fusion_group_flags_match_all_pairs(matrix, data):
    count = matrix.col_count
    order = data.draw(st.permutations(range(count)))
    cuts = data.draw(st.sets(st.integers(1, count - 1)) if count > 1 else st.just(set()))
    bounds = [0] + sorted(cuts) + [count]
    partition = tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))
    weights = []
    for group in partition:
        # the first column's squared norm, when rational, so groups can be consistent
        column = matrix.column(group[0])
        norm = sum((value * value for value in column), RadicalScalar())
        weights.append(norm.rational_part() if norm and norm.is_rational() else Fraction(1))
    frame = FusionFrame(
        m=matrix.row_count,
        weights_squared=tuple(weights),
        dims=tuple(len(group) for group in partition),
        generator=matrix,
        partition=partition,
    )
    report = verify_fusion(frame)
    expected = fusion_group_flags_oracle(frame)
    if report.exact:
        assert expected == (True, True)
        assert rows_orthogonal_oracle(matrix)
    else:
        assert (report.groups_orthogonal, report.weights_consistent) == expected
        assert report.rows_orthogonal == rows_orthogonal_oracle(matrix)


@pytest.mark.parametrize("dimension, count", [(3, 4), (4, 5), (4, 7), (5, 7), (6, 11)])
def test_complex_orthogonality_distance_matches_the_double_loop(dimension, count):
    try:
        matrix = construct_untf_dft(dimension, count)
    except DftPathStuck:
        pytest.skip("no DFT block fits")
    assert orthogonality_distance(matrix) == complex_orthogonality_distance_oracle(matrix)


@pytest.mark.parametrize(
    "matrix",
    [construct_untf(4, 11), construct_untf(5, 13), pnstc((Fraction(2, 3),) * 9, (2, 2, 2))],
)
def test_constructed_frames_match_all_pairs(matrix):
    assert orthogonality_distance(matrix) == orthogonality_distance_oracle(matrix)
    assert frame_operator(matrix).entries == row_gram_oracle(matrix)


@pytest.mark.parametrize("count", [800, 803])  # 803 adds 2x2 blocks between the rows
def test_verify_frame_work_grows_with_the_columns(monkeypatch, count):
    """Exact inner products and products stay within c*N on an 8 x N frame.

    The all-pairs definition forms N^2/2 column and M^2/2 row inner products;
    counting calls is deterministic where a wall-clock bound would not be.
    Each row pair and each column pair that shares two or more rows is one
    cancellation decision (verify._cancels) on an integer accumulator.
    """
    matrix = construct_untf(8, count)
    inner_calls = 0
    products = 0
    cancels = verify_module._cancels
    multiply = RadicalScalar.__mul__

    def counting_inner(sums):
        nonlocal inner_calls
        inner_calls += 1
        return cancels(sums)

    def counting_multiply(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(verify_module, "_cancels", counting_inner)
    monkeypatch.setattr(RadicalScalar, "__mul__", counting_multiply)
    report = verify_frame(matrix)
    monkeypatch.undo()
    assert report.is_tight and report.exact
    assert inner_calls <= count
    assert products <= 3 * count


@pytest.mark.parametrize(
    "build",
    [
        lambda: pnstc(
            [Fraction(2, 3)] * 2 + [Fraction(5, 6)] * 2 + [Fraction(5, 3)] * 2,
            [Fraction(13, 6)] * 2 + [Fraction(2)],
        ),
        lambda: equal_norm_frame([3, 2, 2], 5),
        lambda: equal_norm_frame([Fraction(7, 2), 3, Fraction(5, 2)], 7),
    ],
)
def test_verify_frame_makes_no_radical_product_on_irrational_blocks(monkeypatch, build):
    """Every entry of these frames is one term c*sqrt(r) and their 2x2
    blocks are irrational; rows and columns that share a block are decided
    on integer accumulators, so verify_frame forms no RadicalScalar product."""
    matrix = build()
    assert matrix.nonzero_count > matrix.col_count  # at least one 2x2 block
    assert any(radicand > 1 for value in matrix.entries.values() for radicand, _ in value.terms)
    products = 0
    multiply = RadicalScalar.__mul__

    def counting_multiply(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(RadicalScalar, "__mul__", counting_multiply)
    report = verify_frame(matrix)
    monkeypatch.undo()
    assert report.is_frame and report.rows_orthogonal and report.exact
    assert report.orthogonality_distance == orthogonality_distance_oracle(matrix)
    assert report == verify_frame_oracle(matrix)
    assert products == 0


@given(sparse_exact_matrices(min_cols=1), st.data())
@settings(max_examples=200, deadline=None)
def test_group_flags_match_all_pairs(matrix, data):
    count = matrix.col_count
    order = data.draw(st.permutations(range(count)))
    cuts = data.draw(st.sets(st.integers(1, count - 1)) if count > 1 else st.just(set()))
    bounds = [0] + sorted(cuts) + [count]
    partition = tuple(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))
    weight = data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3)]))
    frame = FusionFrame(
        m=matrix.row_count,
        weights_squared=(weight,) * len(partition),
        dims=tuple(len(group) for group in partition),
        generator=matrix,
        partition=partition,
    )
    _, col_norms = construct_module._square_sums(matrix)
    flags = [group_flags(column_maps(matrix), group, weight, col_norms) for group in partition]
    assert (all(o for o, _ in flags), all(c for _, c in flags)) == fusion_group_flags_oracle(frame)


# -- verify_fusion against the parent's verifier ------------------------------------

F = Fraction


def _dealt(frame, seed):
    """The same generator, weights and group sizes, with the columns dealt to
    the groups at random; on a real generator this forces the numeric route."""
    columns = [col for group in frame.partition for col in group]
    random.Random(seed).shuffle(columns)
    partition, start = [], 0
    for group in frame.partition:
        partition.append(tuple(sorted(columns[start : start + len(group)])))
        start += len(group)
    return FusionFrame(
        frame.m, frame.weights_squared, frame.dims, frame.generator, tuple(partition)
    )


def _dft_groups(dim, count, size, weight=F(1)):
    """The DFT-block unit-norm tight frame, its columns grouped in runs of size
    with one squared weight; a weight other than 1 leaves them inconsistent."""
    matrix = construct_untf_dft(dim, count)
    partition = tuple(tuple(range(a, min(a + size, count))) for a in range(0, count, size))
    return FusionFrame(
        dim, (weight,) * len(partition), tuple(map(len, partition)), matrix, partition
    ), (F(count, dim),) * dim


FUSION_FRAMES = {
    "sffr": lambda: (sffr(goldens.SFFR_SPECTRUM, 5, 2), goldens.SFFR_SPECTRUM),
    "sffr-integer": lambda: (sffr((4, 3, 3, 2), 6, 2), (4, 3, 3, 2)),
    # floor(19/2) > D - 3: the round-robin groups are not orthogonal
    "sffr-numeric": lambda: (
        sffr((F(19, 2), 4, 4, F(5, 2)), 10, 2),
        (F(19, 2), 4, 4, F(5, 2)),
    ),
    "rff-flat": lambda: (rff((F(11, 4),) * 4, 11), (F(11, 4),) * 4),
    "rff-mixed": lambda: (rff(goldens.RFF_MIXED_SPECTRUM, 10), goldens.RFF_MIXED_SPECTRUM),
    "uff": lambda: (uff((F(11, 4),) * 4, goldens.UFF_DIMS), (F(11, 4),) * 4),
    "uff-chain": lambda: (uff((F(7, 2),) * 4, (3, 3, 3, 3, 2)), (F(7, 2),) * 4),
    "weighted": lambda: (
        weighted_fusion(
            goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
        ),
        goldens.WEIGHTED_SPECTRUM,
    ),
    "weighted-search": lambda: (
        weighted_fusion((1,) * 6, goldens.UFF_DIMS, (F(11, 4),) * 4),
        (F(11, 4),) * 4,
    ),
    "weighted-half": lambda: (
        weighted_fusion((F(1, 2),) * 3, (4, 4, 4), (F(3, 2),) * 4),
        (F(3, 2),) * 4,
    ),
    "dft-singletons": lambda: _dft_groups(4, 5, 1),
    "dft-pairs": lambda: _dft_groups(4, 5, 2),
    "dft-pairs-5x7": lambda: _dft_groups(5, 7, 2),
    "dft-pairs-4x11": lambda: _dft_groups(4, 11, 2),
    "dft-pairs-weight-2": lambda: _dft_groups(4, 5, 2, F(2)),
}


@pytest.mark.parametrize("name", sorted(FUSION_FRAMES))
def test_fusion_report_equals_the_parent_verifier(name):
    frame, spectrum = FUSION_FRAMES[name]()
    wrong = (spectrum[0] + 1,) + tuple(spectrum[1:])
    expectations = [None, spectrum, tuple(reversed(spectrum)), wrong, spectrum[:-1]]
    for case in [frame] + [_dealt(frame, seed) for seed in range(4)]:
        for expected in expectations:
            assert verify_fusion(case, expected) == verify_fusion_oracle(case, expected)


def test_dealt_groups_take_the_numeric_route_on_a_real_generator():
    frame, _ = FUSION_FRAMES["rff-flat"]()
    reports = [verify_fusion(_dealt(frame, seed)) for seed in range(4)]
    assert verify_fusion(frame).exact
    assert not any(report.exact for report in reports)
    assert not all(report.groups_orthogonal for report in reports)


# -- expected sequences in verify_frame -----------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: pnstc((F(1, 2),) * 4 + (1,) * 6, (3, F(5, 2), F(5, 2))),
        lambda: construct_untf_dft(4, 5),
    ],
    ids=["pnstc", "dft"],
)
def test_frame_expectations_are_exact_in_order_and_length_checked(build):
    matrix = build()
    report = verify_frame(matrix)
    rows, cols = report.row_square_sums, report.column_square_norms
    assert report.spectrum_matches is None and report.norms_match is None

    def flags(spectrum, norms):
        checked = verify_frame(matrix, spectrum, norms)
        return checked.spectrum_matches, checked.norms_match

    assert flags(rows, cols) == (True, True)
    assert flags(rows[:-1], cols[:-1]) == (False, False)
    assert flags(rows + (1,), cols + (1,)) == (False, False)
    assert flags(rows[:-1] + (rows[-1] + 1,), cols[:-1] + (cols[-1] + 1,)) == (False, False)
    assert flags((rows[0] + 1,) + rows[1:], None) == (False, None)
    assert flags(None, (cols[0] + 1,) + cols[1:]) == (None, False)
    if len(set(rows)) > 1:
        assert flags(tuple(reversed(rows)), None) == (False, None)


def test_sparsity_report_bound_equals_the_frame_report_bound():
    for matrix, spectrum in [
        (pnstc((F(1, 2),) * 4 + (1,) * 6, (3, F(5, 2), F(5, 2))), (F(5, 2), 3, F(5, 2))),
        (construct_untf(4, 11), (F(11, 4),) * 4),
        (construct_untf_dft(4, 5), (F(5, 4),) * 4),
    ]:
        report = verify_frame(matrix)
        count, bound, optimal = sparsity_report(matrix, spectrum)
        assert (count, bound) == (report.nonzero_count, report.optimal_sparsity_bound)
        assert optimal == (count == bound)


# -- square sums against the parent's RadicalScalar sums -----------------------------


def assert_same_report(report, oracle):
    """Equal field by field, and every value of the same type: a Fraction
    stays a Fraction and a float a float."""
    assert type(report) is type(oracle)
    for field in dataclasses.fields(report):
        value, want = getattr(report, field.name), getattr(oracle, field.name)
        assert value == want, field.name
        assert type(value) is type(want), field.name
        if isinstance(want, tuple):
            assert [type(v) for v in value] == [type(v) for v in want], field.name


def _expectations(sums):
    """None, the sums themselves, a shortened, a lengthened and a bumped copy."""
    if any(isinstance(value, float) for value in sums):
        sums = tuple(Fraction(value) for value in sums)  # equal to no irrational sum
    bumped = (sums[0] + 1,) + sums[1:] if sums else (1,)
    return [None, sums, sums[:-1], sums + (1,), bumped]


def _check_against_the_parent(matrix):
    plain = verify_frame_oracle(matrix)
    for spectrum in _expectations(plain.row_square_sums):
        for norms in _expectations(plain.column_square_norms)[:3]:
            assert_same_report(
                verify_frame(matrix, spectrum, norms), verify_frame_oracle(matrix, spectrum, norms)
            )
    for spectrum in _expectations(plain.row_square_sums)[1:]:
        assert _outcome(sparsity_report, matrix, spectrum) == _outcome(
            sparsity_report_oracle, matrix, spectrum
        )


def _outcome(function, *args):
    """The result, or the class and message of the error raised."""
    try:
        return function(*args)
    except (SpectralTetrisError, ValueError) as failure:
        return type(failure), str(failure)


@given(sparse_exact_matrices())
@settings(max_examples=300, deadline=None)
def test_frame_report_and_sparsity_equal_the_parent(matrix):
    _check_against_the_parent(matrix)


POSITIVE = [value for value in VALUES if float(value) > 0]


@st.composite
def matrices_with_complex_columns(draw):
    """A sparse exact matrix with some columns replaced by DFT-style complex
    columns: moduli from the exact values, phases of order 3 to 8."""
    matrix = draw(sparse_exact_matrices(min_cols=1))
    entries = dict(matrix.entries)
    if matrix.row_count:
        for j in draw(st.sets(st.integers(0, matrix.col_count - 1), min_size=1)):
            entries = {key: value for key, value in entries.items() if key[1] != j}
            order = draw(st.integers(3, 8))
            for i in draw(st.sets(st.integers(0, matrix.row_count - 1), min_size=1)):
                exponent = draw(st.integers(0, order - 1))
                entries[(i, j)] = ComplexRadicalEntry.make(
                    draw(st.sampled_from(POSITIVE)), exponent, order
                )
    return SynthesisMatrix(matrix.row_count, matrix.col_count, entries)


@given(matrices_with_complex_columns())
@settings(max_examples=150, deadline=None)
def test_frame_report_with_complex_columns_equals_the_parent(matrix):
    _check_against_the_parent(matrix)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_untf_dft(4, 5),
        lambda: construct_untf_dft(5, 7),
        lambda: construct_untf(4, 11),
        lambda: pnstc((F(1, 2),) * 4 + (1,) * 6, (3, F(5, 2), F(5, 2))),
        lambda: pnstc((F(2, 3),) * 9, (2, 2, 2)),
        lambda: pnstc((F(5, 6),) * 6 + (F(5, 3),) * 3, (F(10, 3), F(10, 3), F(10, 3))),
    ],
)
def test_constructed_frame_reports_equal_the_parent(build):
    _check_against_the_parent(build())


@given(sparse_exact_matrices(min_cols=1), st.data())
@settings(max_examples=200, deadline=None)
def test_exact_fusion_reports_equal_the_parent(matrix, data):
    """Groups of columns with rational norms, the first column's norm as the
    squared weight; wherever the parent verifier takes the exact route the
    report is the same, and the route is the same everywhere."""
    count = matrix.col_count
    cuts = data.draw(st.sets(st.integers(1, count - 1)) if count > 1 else st.just(set()))
    bounds = [0] + sorted(cuts) + [count]
    partition = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    weights = []
    for group in partition:
        norm = sum((value * value for value in matrix.column(group[0])), RadicalScalar())
        weights.append(norm.rational_part() if norm and norm.is_rational() else Fraction(1))
    frame = FusionFrame(
        m=matrix.row_count,
        weights_squared=tuple(weights),
        dims=tuple(len(group) for group in partition),
        generator=matrix,
        partition=partition,
    )
    oracle = verify_fusion_oracle(frame)
    report = verify_fusion(frame)
    assert report.exact == oracle.exact
    if oracle.exact:
        for expected in [None, oracle.spectrum, tuple(reversed(oracle.spectrum))]:
            assert_same_report(verify_fusion(frame, expected), verify_fusion_oracle(frame, expected))


def _count_square_work(monkeypatch, matrix):
    """Calls of entry_abs_squared and RadicalScalar.__mul__ made by the square
    sums (construct._squared_terms looks entry_abs_squared up in construct)."""
    calls = {"abs_squared": 0, "mul": 0}
    abs_squared = construct_module.entry_abs_squared
    multiply = RadicalScalar.__mul__

    def counting_abs_squared(value):
        calls["abs_squared"] += 1
        return abs_squared(value)

    def counting_multiply(self, other):
        calls["mul"] += 1
        return multiply(self, other)

    monkeypatch.setattr(construct_module, "entry_abs_squared", counting_abs_squared)
    monkeypatch.setattr(RadicalScalar, "__mul__", counting_multiply)
    rows, cols = verify_module._square_sums(matrix)
    monkeypatch.undo()
    return calls, rows, cols


@pytest.mark.parametrize("count", [800, 803])
def test_square_sums_form_no_exact_products_on_untf(monkeypatch, count):
    calls, rows, cols = _count_square_work(monkeypatch, construct_untf(8, count))
    assert calls == {"abs_squared": 0, "mul": 0}
    assert rows == [Fraction(count, 8)] * 8 and cols == [Fraction(1)] * count


def test_square_sums_form_no_exact_products_on_non_square_norms(monkeypatch):
    norms = (F(2, 3),) * 6 + (F(5, 6),) * 12 + (F(5, 3),) * 6
    spectrum = (F(6),) * 4
    matrix = pnstc(norms, spectrum)
    assert any(radicand > 1 for value in matrix.entries.values() for radicand, _ in value.terms)
    calls, rows, cols = _count_square_work(monkeypatch, matrix)
    assert calls == {"abs_squared": 0, "mul": 0}
    assert rows == list(spectrum) and cols == list(norms)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_untf(8, 800),
        lambda: construct_untf(8, 803),
        lambda: pnstc((F(2, 3),) * 6 + (F(5, 6),) * 12 + (F(5, 3),) * 6, (F(6),) * 4),
    ],
    ids=["untf-8x800", "untf-8x803", "pnstc-non-square-norms"],
)
def test_frame_operator_forms_no_exact_products(monkeypatch, build):
    """The diagonal comes from the integer square sums and each off-diagonal
    entry from its row pair's integer accumulator, settled once; the result
    is still the all-pairs Gram, entry for entry, in RadicalScalars."""
    matrix = build()
    products = 0
    multiply = RadicalScalar.__mul__

    def counting_multiply(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(RadicalScalar, "__mul__", counting_multiply)
    operator = frame_operator(matrix)
    monkeypatch.undo()
    assert products == 0
    assert operator.exact and operator.is_diagonal()
    assert operator.entries == row_gram_oracle(matrix)
    assert {type(value) for row in operator.entries for value in row} == {RadicalScalar}


def test_irrational_square_sums_stay_exact():
    """(sqrt(6) - 1)^2 = 7 - 2 sqrt(6) sums exactly, cancels against
    (sqrt(6) + 1)^2 in a row, and reports as a float only where irrational."""
    root6 = RadicalScalar.sqrt(6)
    matrix = SynthesisMatrix(2, 2, {(0, 0): root6 - 1, (0, 1): root6 + 1, (1, 1): root6 - 1})
    rows, cols = verify_module._square_sums(matrix)
    assert rows == [Fraction(14), RadicalScalar([(1, 7), (6, -2)])]
    assert type(rows[0]) is Fraction
    assert cols == [RadicalScalar([(1, 7), (6, -2)]), RadicalScalar([(1, 14)])]
    assert type(cols[1]) is Fraction
    assert_same_report(verify_frame(matrix, (14, 1)), verify_frame_oracle(matrix, (14, 1)))
