"""Verification engine: reports, frame operators, sparsity, fusion routes."""

from fractions import Fraction

import pytest

from spectral_tetris import (
    FusionFrame,
    RadicalScalar,
    SpectrumMismatch,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    frame_operator,
    orthogonality_distance,
    sffr,
    sparsity_report,
    uff,
    verify_frame,
    verify_fusion,
    weighted_fusion,
)
from spectral_tetris.exact_numeric import ComplexRadicalEntry

import goldens
from goldens import ONE, rat, sq

NUMERIC_TOLERANCE = 1e-9


def alt_4x9():
    return SynthesisMatrix(4, 9, dict(goldens.ALT_4x9))


# -- frame reports ---------------------------------------------------------------


def test_verify_frame_full_golden_report():
    matrix = construct_untf(4, 11)
    report = verify_frame(
        matrix,
        expected_spectrum=(Fraction(11, 4),) * 4,
        expected_norms=(1,) * 11,
    )
    assert report.is_frame
    assert report.rows_orthogonal
    assert report.is_tight
    assert report.exact
    assert report.tight_bound == Fraction(11, 4)
    assert report.row_square_sums == (Fraction(11, 4),) * 4
    assert report.column_square_norms == (Fraction(1),) * 11
    assert report.nonzero_count == 17
    assert report.optimal_sparsity_bound == 17
    assert report.orthogonality_distance == 5
    assert report.spectrum_matches
    assert report.norms_match


def test_verify_frame_flags_wrong_expectations():
    matrix = construct_untf(4, 11)
    report = verify_frame(matrix, expected_spectrum=(3,) * 4, expected_norms=(1,) * 10)
    assert report.spectrum_matches is False
    assert report.norms_match is False  # length mismatch alone must fail
    silent = verify_frame(matrix)
    assert silent.spectrum_matches is None
    assert silent.norms_match is None


def test_verify_frame_detects_a_perturbed_entry():
    entries = dict(goldens.UNTF_4x11)
    entries[(1, 2)] = ONE  # was sqrt(5/8); rows 0 and 1 now collide
    report = verify_frame(SynthesisMatrix(4, 11, entries))
    assert not report.rows_orthogonal
    assert not report.is_tight
    assert report.tight_bound is None
    assert report.exact


def test_verify_frame_needs_every_radicand_to_cancel():
    # rows 0 and 1 meet in 1 - 1 + sqrt(2) - sqrt(3): the rational parts
    # cancel, the sqrt(2) and sqrt(3) parts do not, and their numerators
    # (1 and -1) would cancel if they were added across radicands; columns
    # 0 and 3 meet in 1 - sqrt(3) the same way
    root2, root3 = RadicalScalar.sqrt(2), RadicalScalar.sqrt(3)
    entries = {(0, 0): ONE, (1, 0): ONE, (0, 1): ONE, (1, 1): -ONE}
    entries.update({(0, 2): ONE, (1, 2): root2, (0, 3): ONE, (1, 3): -root3})
    report = verify_frame(SynthesisMatrix(2, 4, entries))
    assert not report.rows_orthogonal
    assert report.is_frame  # from the exact rank
    assert report.orthogonality_distance == 4
    assert report.exact


def test_verify_frame_rank_fallback_for_oblique_rows():
    # rows overlap yet still span, so the frame flag must come from rank
    matrix = SynthesisMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    report = verify_frame(matrix)
    assert not report.rows_orthogonal
    assert report.is_frame
    assert not report.is_tight
    assert report.row_square_sums == (Fraction(2), Fraction(1))


def test_verify_frame_empty_matrix_is_vacuously_tight():
    report = verify_frame(SynthesisMatrix(0, 0, {}))
    assert report.is_frame
    assert report.rows_orthogonal
    assert report.is_tight
    assert report.tight_bound is None
    assert report.orthogonality_distance == 0
    assert report.optimal_sparsity_bound == 0


def test_verify_frame_zero_rows_are_not_a_frame():
    matrix = SynthesisMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE})
    report = verify_frame(matrix)
    assert report.rows_orthogonal  # an all-zero row is orthogonal to anything
    assert not report.is_frame
    assert not report.is_tight  # row sums 2 and 0 differ


def test_verify_frame_dft_report_keeps_exact_sums():
    matrix = construct_untf_dft(4, 5)
    report = verify_frame(matrix, expected_spectrum=(Fraction(5, 4),) * 4)
    assert not report.exact
    assert report.rows_orthogonal
    assert report.is_tight
    assert report.tight_bound == Fraction(5, 4)
    assert report.row_square_sums == (Fraction(5, 4),) * 4
    assert report.column_square_norms == (Fraction(1),) * 5
    assert report.spectrum_matches
    assert report.is_frame


# -- frame operator ----------------------------------------------------------------


def test_frame_operator_diagonal_on_the_golden():
    operator = frame_operator(construct_untf(4, 11))
    assert operator.exact
    assert operator.is_diagonal()
    assert operator.diagonal() == (Fraction(11, 4),) * 4


def test_frame_operator_off_diagonal_reports_none():
    matrix = SynthesisMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE, (1, 1): ONE})
    operator = frame_operator(matrix)
    assert operator.exact
    assert not operator.is_diagonal()
    assert operator.diagonal() is None
    assert operator.entries[0][1] == RadicalScalar.from_rational(1)


def test_frame_operator_complex_path_is_numeric():
    operator = frame_operator(construct_untf_dft(4, 5))
    assert not operator.exact
    assert operator.is_diagonal()
    diagonal = operator.diagonal()
    assert all(abs(value - 1.25) < NUMERIC_TOLERANCE for value in diagonal)


def _oblique_complex():
    """Rows (1, i) and (1, 1): complex, with row inner product 1 + i."""
    i = ComplexRadicalEntry.make(ONE, 1, 4)
    return SynthesisMatrix(2, 2, {(0, 0): ONE, (0, 1): i, (1, 0): ONE, (1, 1): ONE})


def test_frame_operator_complex_off_diagonal_reports_none():
    operator = frame_operator(_oblique_complex())
    assert not operator.exact
    assert not operator.is_diagonal()
    assert operator.diagonal() is None
    assert abs(operator.entries[0][1] - (1 + 1j)) < NUMERIC_TOLERANCE


def test_verify_frame_reads_one_dense_form_of_a_complex_matrix(monkeypatch):
    """Row Gram, rank and column distance all come from one to_dense()."""
    calls = []
    to_dense = SynthesisMatrix.to_dense

    def counted(matrix):
        calls.append(matrix)
        return to_dense(matrix)

    monkeypatch.setattr(SynthesisMatrix, "to_dense", counted)
    report = verify_frame(_oblique_complex())
    assert len(calls) == 1
    assert not report.exact and not report.rows_orthogonal and not report.is_tight
    assert report.is_frame  # rank 2 by numpy
    assert report.orthogonality_distance == 2  # columns (1, 1) and (i, 1) meet
    calls.clear()
    assert verify_frame(construct_untf_dft(4, 5)).is_tight
    assert len(calls) == 1


# -- orthogonality distance ----------------------------------------------------------


def test_orthogonality_distance_small_cases():
    identity = SynthesisMatrix(2, 2, {(0, 0): ONE, (1, 1): ONE})
    assert orthogonality_distance(identity) == 1
    repeated = SynthesisMatrix(1, 3, {(0, j): ONE for j in range(3)})
    assert orthogonality_distance(repeated) == 3
    assert orthogonality_distance(SynthesisMatrix(0, 0, {})) == 0


def test_orthogonality_distance_of_the_hand_made_frame():
    # the alternative 4x9 frame pairs columns 1 and 6 through row 1, so its
    # distance exceeds the floor(N/M) + 3 guarantee of the staircase form
    assert orthogonality_distance(alt_4x9()) == 6


def test_orthogonality_distance_respects_cancellation():
    value = sq("1/2")
    matrix = SynthesisMatrix(
        2, 2, {(0, 0): value, (1, 0): value, (0, 1): value, (1, 1): -value}
    )
    assert orthogonality_distance(matrix) == 1  # adjacent columns cancel exactly


# -- sparsity reports ------------------------------------------------------------------


def test_sparsity_report_golden_and_fixtures():
    assert sparsity_report(construct_untf(4, 11), (Fraction(11, 4),) * 4) == (17, 17, True)
    assert sparsity_report(construct_untf(4, 9), (Fraction(9, 4),) * 4) == (15, 15, True)
    assert sparsity_report(alt_4x9(), (Fraction(9, 4),) * 4) == (15, 15, True)


def test_sparsity_report_accepts_permuted_spectrum():
    matrix = construct_untf(4, 11)
    count, bound, optimal = sparsity_report(matrix, (Fraction(11, 4),) * 4)
    assert (count, bound, optimal) == (17, 17, True)


def test_sparsity_report_rejects_wrong_spectrum():
    matrix = construct_untf(4, 11)
    with pytest.raises(SpectrumMismatch):
        sparsity_report(matrix, (3,) * 4)
    with pytest.raises(SpectrumMismatch):
        sparsity_report(matrix, (Fraction(11, 4),) * 3)


def test_sparsity_bound_none_for_nonpositive_rows():
    matrix = SynthesisMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE})
    report = verify_frame(matrix)
    assert report.optimal_sparsity_bound is None  # a zero row has no bound


# -- fusion reports ----------------------------------------------------------------------


def test_verify_fusion_exact_route_on_uff():
    frame = uff((Fraction(11, 4),) * 4, (3, 3, 2, 1, 1, 1))
    report = verify_fusion(frame, (Fraction(11, 4),) * 4)
    assert report.exact
    assert report.rows_orthogonal
    assert report.groups_orthogonal
    assert report.weights_consistent
    assert report.spectrum == (Fraction(11, 4),) * 4
    assert report.lower_bound == report.upper_bound == Fraction(11, 4)
    assert report.spectrum_matches


def test_verify_fusion_numeric_route_on_the_walkthrough():
    # the round-robin groups are oblique, so the report drops to floats but
    # the fusion operator still carries the requested spectrum
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    report = verify_fusion(frame, goldens.SFFR_SPECTRUM)
    assert not report.exact
    assert report.rows_orthogonal
    assert not report.groups_orthogonal
    assert report.weights_consistent
    assert report.subspace_dims == (2,) * 5
    assert report.is_frame
    assert report.spectrum_matches
    expected = sorted((float(rat(v)) for v in goldens.SFFR_SPECTRUM), reverse=True)
    assert all(
        abs(seen - want) < NUMERIC_TOLERANCE
        for seen, want in zip(report.spectrum, expected)
    )
    assert abs(sum(report.spectrum) - 10.0) < NUMERIC_TOLERANCE


def test_verify_fusion_complex_generator():
    matrix = construct_untf_dft(4, 5)
    frame = FusionFrame(
        4, (Fraction(1),) * 5, (1,) * 5, matrix, tuple((j,) for j in range(5))
    )
    report = verify_fusion(frame, (Fraction(5, 4),) * 4)
    assert not report.exact
    assert report.rows_orthogonal
    assert report.groups_orthogonal
    assert report.weights_consistent
    assert report.subspace_dims == (1, 1, 1, 1, 1)
    assert report.spectrum_matches
    assert report.is_frame


def test_verify_fusion_flags_inconsistent_weights():
    frame = uff((Fraction(11, 4),) * 4, (3, 3, 2, 1, 1, 1))
    relabeled = FusionFrame(
        frame.m,
        (Fraction(2),) + (Fraction(1),) * 5,
        frame.dims,
        frame.generator,
        frame.partition,
    )
    report = verify_fusion(relabeled)
    assert not report.weights_consistent
    assert report.spectrum_matches is None


def test_verify_fusion_spectrum_check_is_order_free_numerically():
    # numeric-route comparison sorts both sides before matching
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    shuffled = (goldens.SFFR_SPECTRUM[2], goldens.SFFR_SPECTRUM[0], goldens.SFFR_SPECTRUM[1])
    assert verify_fusion(frame, shuffled).spectrum_matches


def test_verify_fusion_exact_spectrum_check_is_in_row_order():
    frame = weighted_fusion(
        goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
    )
    assert verify_fusion(frame, goldens.WEIGHTED_SPECTRUM).spectrum_matches
    backwards = tuple(reversed(goldens.WEIGHTED_SPECTRUM))
    assert verify_fusion(frame, backwards).spectrum_matches is False


class _ComplexFlagReads:
    """Reads of SynthesisMatrix.is_complex, a scan over every nonzero."""

    def __init__(self, monkeypatch):
        self.reads = 0
        flag = SynthesisMatrix.is_complex

        def counting(matrix):
            self.reads += 1
            return flag.fget(matrix)

        monkeypatch.setattr(SynthesisMatrix, "is_complex", property(counting))


def test_verify_reads_the_complex_flag_once_per_check(monkeypatch):
    """verify_frame read the flag three times and verify_fusion twice."""
    matrix = construct_untf(20, 55)
    frame = uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS)
    flag = _ComplexFlagReads(monkeypatch)
    report = verify_frame(matrix)
    frame_reads, flag.reads = flag.reads, 0
    fusion_report = verify_fusion(frame)
    monkeypatch.undo()
    assert report.exact and report.is_tight
    assert fusion_report.exact
    assert frame_reads <= 2
    assert flag.reads == 1


# -- values beyond the float range -------------------------------------------------


def test_verify_frame_refuses_values_outside_the_float_range():
    # (10**400 + sqrt 2)^2 is irrational, so the report needs its float
    irrational = SynthesisMatrix(1, 2, {(0, 0): RadicalScalar([(1, 10**400), (2, 1)]), (0, 1): ONE})
    with pytest.raises(ValueError, match="row 0 square sum is outside the float range"):
        verify_frame(irrational)
    huge = ComplexRadicalEntry.make(RadicalScalar.from_rational(10**400), 1, 4)
    complex_matrix = SynthesisMatrix(1, 2, {(0, 0): huge, (0, 1): ONE})
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is outside the float range"):
        verify_frame(complex_matrix)


def test_verify_fusion_numeric_route_refuses_weights_and_expectations_outside_the_float_range():
    # columns 0 and 1 share row 0, so the one group is not orthogonal
    generator = SynthesisMatrix(2, 3, {(0, 0): ONE, (0, 1): ONE, (1, 2): ONE})
    heavy = FusionFrame(2, (Fraction(10**400), Fraction(1)), (2, 1), generator, ((0, 1), (2,)))
    with pytest.raises(ValueError, match="squared weight 0 is outside the float range"):
        verify_fusion(heavy)
    light = FusionFrame(2, (Fraction(1), Fraction(1)), (2, 1), generator, ((0, 1), (2,)))
    assert not verify_fusion(light).exact
    with pytest.raises(ValueError, match="expected value at position 1 is outside the float range"):
        verify_fusion(light, (Fraction(2), Fraction(10**400)))
