"""Support-driven exact checks against the all-pairs oracles, and their work bound.

The verifier multiplies only entries that share a column or a row. These
tests compare it with the dense definitions on random sparse exact matrices
that carry planted cancelling 2x2 pairs, three-row column supports, empty
columns and empty rows, and count how many exact products it forms.
"""

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
    verify_frame,
    verify_fusion,
)

from _oracles import (
    complex_orthogonality_distance_oracle,
    exact_rank_oracle,
    fusion_group_flags_oracle,
    orthogonality_distance_oracle,
    row_gram_oracle,
    rows_orthogonal_oracle,
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
