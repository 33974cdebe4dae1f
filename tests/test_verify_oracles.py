"""Support-driven exact checks against the all-pairs oracles, and their work bound.

The verifier multiplies only entries that share a column or a row. These
tests compare it with the dense definitions on random sparse exact matrices
that carry planted cancelling 2x2 pairs, three-row column supports, empty
columns and empty rows, and count how many exact products it forms.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_tetris.verify as verify_module
from spectral_tetris import (
    DftPathStuck,
    FusionFrame,
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
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
    """
    matrix = construct_untf(8, count)
    inner_calls = 0
    products = 0
    sparse_inner = verify_module.sparse_inner
    multiply = RadicalScalar.__mul__

    def counting_inner(a, b):
        nonlocal inner_calls
        inner_calls += 1
        return sparse_inner(a, b)

    def counting_multiply(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(verify_module, "sparse_inner", counting_inner)
    monkeypatch.setattr(RadicalScalar, "__mul__", counting_multiply)
    report = verify_frame(matrix)
    monkeypatch.undo()
    assert report.is_tight and report.exact
    assert inner_calls <= count
    assert products <= 3 * count


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
    flags = [group_flags(column_maps(matrix), group, weight) for group in partition]
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
