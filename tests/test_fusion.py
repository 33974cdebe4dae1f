"""Fusion-frame constructions: bucketing, swap balancing, weights, complements."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spectral_tetris
import spectral_tetris.fusion as fusion_module
from spectral_tetris import (
    ChainPartition,
    FusionFrame,
    Infeasible,
    NoExtension,
    NotApplicable,
    NotSTReady,
    OutOfRange,
    RadicalScalar,
    SearchBudgetExceeded,
    SpectralTetrisError,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    entry_abs_squared,
    extend_to_tight,
    maximal_chains,
    naimark_complement_fusion,
    rff,
    sffr,
    spatial_complement_bounds,
    tight_uff_feasible,
    uff,
    verify_fusion,
    weighted_fusion,
)

import goldens
from goldens import assert_matches, rat
from _oracles import assert_constructor_accepts

FUSION_TOLERANCE = 1e-10


def two_column_identity():
    return SynthesisMatrix(2, 2, {(0, 0): goldens.ONE, (1, 1): goldens.ONE})


def row_square_sums(matrix):
    """Exact rational row square sums of a real matrix."""
    acc = {}
    for (i, _j), value in matrix.entries.items():
        term = entry_abs_squared(value)
        acc[i] = acc[i] + term if i in acc else term
    return [acc[i].rational_part() for i in range(matrix.row_count)]


# -- container validation ------------------------------------------------------


def test_fusion_frame_validates_structure():
    generator = two_column_identity()
    with pytest.raises(ValueError, match="align"):
        FusionFrame(2, (rat(1),), (1, 1), generator, ((0,), (1,)))
    with pytest.raises(ValueError, match="dimension"):
        FusionFrame(2, (rat(1), rat(1)), (2, 1), generator, ((0,), (1,)))
    with pytest.raises(ValueError, match="two subspaces"):
        FusionFrame(2, (rat(1), rat(1)), (1, 1), generator, ((0,), (0,)))
    with pytest.raises(ValueError, match="outside"):
        FusionFrame(2, (rat(1), rat(1)), (1, 1), generator, ((0,), (5,)))
    with pytest.raises(ValueError, match="cover"):
        FusionFrame(2, (rat(1),), (1,), generator, ((0,),))
    with pytest.raises(ValueError, match="positive"):
        FusionFrame(2, (rat(0), rat(1)), (1, 1), generator, ((0,), (1,)))
    frame = FusionFrame(2, (rat(1), rat(1)), (1, 1), generator, ((0,), (1,)))
    assert frame.subspace_count == 2


def test_fusion_frame_ambient_dimension_is_the_generators_row_count():
    # an m of 5 over a 2-row generator verified as an exact frame of
    # spectrum (1, 1)
    generator = two_column_identity()
    for m in (5, 1, 0):
        with pytest.raises(ValueError, match=f"ambient dimension {m} differs"):
            FusionFrame(m, (rat(1), rat(1)), (1, 1), generator, ((0,), (1,)))


# -- maximal chains -------------------------------------------------------------


def test_maximal_chains_of_the_full_staircase():
    chains = maximal_chains(construct_untf(4, 11), range(11))
    assert chains.chains == (tuple(range(11)),)


def test_maximal_chains_of_a_support_disjoint_group():
    chains = maximal_chains(construct_untf(4, 11), (0, 4, 7, 10))
    assert chains.chains == ((0,), (4,), (7,), (10,))


def test_maximal_chains_mixed_selection():
    # columns 0,2,3,4 connect through rows 0 and 1; column 7 sits alone in row 2
    chains = maximal_chains(construct_untf(4, 11), (0, 2, 3, 4, 7))
    assert chains.chains == ((0, 2, 3, 4), (7,))


@pytest.mark.parametrize(
    "pool, culprit",
    [([-1, 10], "-1"), ([11], "11"), ([None], "None"), ([0, 2.0], "2.0"), (["3"], "'3'")],
)
def test_maximal_chains_refuse_a_column_outside_the_matrix(pool, culprit):
    """Column -1 once passed as a second name of column 10, 11 raised
    IndexError and None TypeError; each is now a ValueError naming it."""
    message = rf"column {re.escape(culprit)} is not an integer in \[0, 11\)"
    with pytest.raises(ValueError, match=message):
        maximal_chains(construct_untf(4, 11), pool)


def test_maximal_chains_read_columns_through_index():
    chains = maximal_chains(construct_untf(4, 11), [True, 2, np.int64(3), 10])
    assert chains.chains == ((1, 2, 3), (10,))
    assert all(type(col) is int for chain in chains.chains for col in chain)


# -- sffr -----------------------------------------------------------------------


def test_sffr_golden_partition_and_advisories():
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    assert frame.partition == goldens.SFFR_PARTITION
    assert frame.dims == (2,) * 5
    assert frame.weights_squared == (rat(1),) * 5
    assert_matches(frame.generator, goldens.SFR_3x10)
    # this spectrum misses the stronger floor condition and its round-robin
    # groups are not orthogonal; both are advisory, not fatal
    assert frame.meta["floor_condition"] is False
    assert frame.meta["groups_orthogonal"] is False


def test_sffr_preconditions():
    with pytest.raises(Infeasible, match="non-increasing"):
        sffr((rat(2), rat(3)), 5, 1)
    with pytest.raises(Infeasible, match="exceeds"):
        sffr((6, 4), 5, 2)
    with pytest.raises(Infeasible, match="below 2"):
        sffr((2, 1), 2, 2)
    with pytest.raises(Infeasible, match="total"):
        sffr((2, 2), 3, 2)
    with pytest.raises(ValueError):
        sffr((2, 2), 0, 2)


def test_sffr_orthogonal_case_verifies_exactly():
    # integer spectrum: every group picks up one copy of each coordinate
    # vector, so the exact route applies and confirms tightness at 4
    frame = sffr((4, 4), 4, 2)
    report = verify_fusion(frame, (4, 4))
    assert report.exact
    assert report.groups_orthogonal
    assert report.is_frame
    assert report.spectrum_matches
    assert report.lower_bound == report.upper_bound == 4


# -- rff ------------------------------------------------------------------------


def test_rff_flat_golden():
    frame = rff((Fraction(11, 4),) * 4, 11)
    assert frame.partition == goldens.RFF_FLAT4_PARTITION
    assert frame.dims == (4, 2, 2, 2, 1)
    assert frame.meta["bucket_count"] == 5


def test_rff_mixed_spectrum_golden():
    frame = rff(goldens.RFF_MIXED_SPECTRUM, 10)
    assert frame.partition == goldens.RFF_MIXED_PARTITION
    assert frame.dims == (3, 3, 1, 1, 1, 1)
    assert_matches(frame.generator, goldens.RFF_MIXED_GENERATOR)


def test_rff_descending_spectrum_golden():
    frame = rff(goldens.SFR_SPECTRUM, 10)
    assert frame.partition == goldens.RFF_DESC_PARTITION
    assert frame.dims == (3, 2, 2, 1, 1, 1)


def test_rff_buckets_are_support_disjoint():
    frame = rff(goldens.SFR_SPECTRUM, 10)
    for group in frame.partition:
        chains = maximal_chains(frame.generator, group)
        assert chains.chains == tuple((col,) for col in group)


def test_rff_propagates_construction_failure():
    # row 0 wants 3/2: one singleton leaves 1/2 and no partner for a block
    with pytest.raises(NotSTReady):
        rff((Fraction(3, 2), Fraction(1, 2)), 2)
    with pytest.raises(ValueError):
        rff((2, 2), 0)


# -- uff ------------------------------------------------------------------------


def test_uff_golden_run():
    frame = uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS)
    assert frame.partition == goldens.UFF_PARTITION
    assert frame.dims == goldens.UFF_DIMS
    assert frame.meta["deficit_history"] == goldens.UFF_DEFICITS


def test_uff_deficits_drop_by_two():
    frame = uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS)
    history = frame.meta["deficit_history"]
    assert all(later == earlier - 2 for earlier, later in zip(history, history[1:]))
    assert history[-1] == 0


def test_uff_groups_stay_orthogonal_bases():
    frame = uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS)
    report = verify_fusion(frame, (Fraction(11, 4),) * 4)
    assert report.exact
    assert report.groups_orthogonal
    assert report.subspace_dims == goldens.UFF_DIMS
    assert report.is_frame


def test_uff_negative_example_is_infeasible():
    with pytest.raises(Infeasible, match="majorize"):
        uff((Fraction(11, 6),) * 6, (4, 2, 2, 2, 1))


def test_uff_total_mismatch():
    with pytest.raises(Infeasible, match="total"):
        uff((2, 2), (1, 1, 1))


def test_uff_identity_when_reference_already_fits():
    reference = rff((Fraction(11, 4),) * 4, 11)
    frame = uff((Fraction(11, 4),) * 4, (4, 2, 2, 2, 1))
    assert frame.partition == reference.partition
    assert frame.meta["deficit_history"] == (0,)


def test_tight_uff_feasibility_calls():
    assert tight_uff_feasible(4, 11, (3, 3, 2, 1, 1, 1))
    assert tight_uff_feasible(4, 11, (4, 2, 2, 2, 1))
    assert not tight_uff_feasible(4, 11, (5, 2, 2, 1, 1))
    with pytest.raises(OutOfRange):
        tight_uff_feasible(4, 7, (4, 3))
    with pytest.raises(ValueError, match="sum"):
        tight_uff_feasible(4, 8, (4, 3))
    with pytest.raises(ValueError, match="positive"):
        tight_uff_feasible(4, 8, (5, 4, -1))
    with pytest.raises(ValueError, match="non-increasing"):
        tight_uff_feasible(4, 8, (3, 5))


# -- weighted fusion --------------------------------------------------------------


def test_weighted_fusion_golden_5x18():
    frame = weighted_fusion(
        goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
    )
    assert_matches(frame.generator, goldens.WEIGHTED_5x18)
    assert frame.partition == goldens.WEIGHTED_PARTITION
    assert frame.meta["ordering"] == "round-robin"


def test_weighted_fusion_verifies_exactly():
    frame = weighted_fusion(
        goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
    )
    report = verify_fusion(frame, goldens.WEIGHTED_SPECTRUM)
    assert report.exact
    assert report.groups_orthogonal
    assert report.weights_consistent
    assert report.spectrum == tuple(rat(v) for v in goldens.WEIGHTED_SPECTRUM)
    assert report.spectrum_matches


def test_weighted_fusion_falls_back_to_search():
    # unit weights with dims (3,3,2,1,1,1): round-robin tags columns 6 and 9
    # into the same subspace although their supports overlap, so the tagged
    # search has to find the grouping instead
    frame = weighted_fusion((1,) * 6, goldens.UFF_DIMS, (Fraction(11, 4),) * 4)
    assert frame.meta["ordering"] == "search"
    assert frame.dims == goldens.UFF_DIMS
    report = verify_fusion(frame, (Fraction(11, 4),) * 4)
    assert report.exact
    assert report.groups_orthogonal
    assert report.spectrum_matches


def test_weighted_fusion_input_validation():
    with pytest.raises(ValueError, match="align"):
        weighted_fusion((1, 1), (1,), (2,))
    with pytest.raises(ValueError, match="positive"):
        weighted_fusion((1, 0), (1, 1), (1,))
    with pytest.raises(ValueError, match="positive"):
        weighted_fusion((1, 1), (1, 0), (2,))
    with pytest.raises(Infeasible, match="total"):
        weighted_fusion((1, 1), (1, 1), (3,))


def test_counts_and_dims_must_be_integers():
    """Dims, counts and dimensions are read through __index__; 2.9 was
    truncated to a dimension of 2."""
    flat = (Fraction(11, 4),) * 4
    for call, name, value in (
        (lambda: weighted_fusion((1, 1), (2.9, 2.9), (2, 2)), "dims entry", "2.9"),
        (lambda: uff(flat, (3, 3, 2, 1, 1, 1.5)), "dims entry", "1.5"),
        (lambda: tight_uff_feasible(4, 11, (3, 3.0, 2, 1, 1, 1)), "dims entry", "3.0"),
        (lambda: tight_uff_feasible(4.0, 11, (3, 3, 2, 1, 1, 1)), "dimension", "4.0"),
        (lambda: sffr((Fraction(3, 2),) * 2, 3.0, 1), "subspace_count", "3.0"),
        (lambda: sffr((Fraction(3, 2),) * 2, 3, 0), "subspace_dim", "0"),
        (lambda: rff(flat, 11.0), "count", "11.0"),
        (lambda: FusionFrame(2, (1, 1), (1, 1.0), construct_untf(2, 2), ((0,), (1,))),
         "dims entry", "1.0"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {value}$"):
            call()
    with pytest.raises(ValueError, match="^dimension sequence must be nonempty$"):
        uff(flat, [])


def test_weights_refuse_non_numbers_and_infinities():
    with pytest.raises(ValueError, match=r"^squared weight None at position 0 is not a finite number$"):
        weighted_fusion((None, 1), (1, 1), (2,))
    with pytest.raises(ValueError, match=r"^squared weight inf at position 1 is not a finite number$"):
        weighted_fusion((1, float("inf")), (1, 1), (2,))
    with pytest.raises(ValueError, match="^squared weights must be positive$"):
        weighted_fusion((1, -1), (1, 1), (2,))


def test_weighted_fusion_no_ordering_works():
    # norms 4 and 9 against (6, 7): 4 alone strands a weight of 2 and the
    # pair (9, 4) straddles every row weight, so both orders dead-end
    with pytest.raises(Infeasible, match="ordering"):
        weighted_fusion((4, 9), (1, 1), (6, 7))


# -- extension to tight ------------------------------------------------------------


def test_extend_to_tight_golden():
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    bound, total, complement = extend_to_tight(frame, goldens.SFFR_SPECTRUM)
    assert bound == 12
    assert total == 18
    assert complement is not None
    assert complement.subspace_count == 13
    assert complement.dims == (2,) * 13
    assert complement.weights_squared == (rat(1),) * 13
    # row m of the complement carries the residual weight bound - lambda_m
    sums = row_square_sums(complement.generator)
    assert sums == [12 - rat(v) for v in goldens.SFFR_SPECTRUM]
    assert complement.meta["tight_bound"] == 12
    assert complement.generator.meta["rows_reversed"] is True


def test_fusion_generators_pass_the_public_checks():
    """Every generator here is built without the constructor's checks
    (through pnstc or extend_to_tight's row flip), so each must still pass
    them."""
    base = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    frames = [
        base,
        rff((Fraction(11, 4),) * 4, 11),
        rff(goldens.RFF_MIXED_SPECTRUM, 10),
        uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS),
        weighted_fusion(
            goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
        ),
        extend_to_tight(base, goldens.SFFR_SPECTRUM)[2],
    ]
    for frame in frames:
        assert_constructor_accepts(frame.generator)


def test_extend_to_tight_stacked_spectrum_is_flat():
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    bound, _total, complement = extend_to_tight(frame, goldens.SFFR_SPECTRUM)
    combined = row_square_sums(frame.generator)
    for row, value in enumerate(row_square_sums(complement.generator)):
        combined[row] += value
    assert combined == [bound] * frame.m


def test_extend_to_tight_input_checks():
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    with pytest.raises(ValueError, match="length"):
        extend_to_tight(frame, (4, 3))
    with pytest.raises(ValueError, match="non-increasing"):
        extend_to_tight(frame, tuple(reversed(goldens.SFFR_SPECTRUM)))
    with pytest.raises(ValueError, match="satisfy"):
        extend_to_tight(frame, (6, 4, 2))
    ragged = FusionFrame(
        frame.m,
        (rat(1),) * 4,
        (3, 3, 2, 2),
        frame.generator,
        ((0, 5, 1), (6, 2, 7), (3, 8), (4, 9)),
    )
    with pytest.raises(ValueError, match="equal"):
        extend_to_tight(ragged, goldens.SFFR_SPECTRUM)


def test_extend_to_tight_rejects_wide_subspace_dim():
    frame = FusionFrame(2, (rat(1),), (2,), two_column_identity(), ((0, 1),))
    with pytest.raises(ValueError, match="smaller"):
        extend_to_tight(frame, (2, 2))


# -- complements --------------------------------------------------------------------


def test_spatial_complement_bounds():
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    feasible, lower, upper = spatial_complement_bounds(frame, rat("7/3"), rat("13/3"))
    assert feasible  # 13/3 stays below the total weight 5
    assert lower == rat("2/3")
    assert upper == rat("8/3")


def test_spatial_complement_of_an_orthonormal_basis_degenerates():
    frame = FusionFrame(
        2, (rat(1), rat(1)), (1, 1), two_column_identity(), ((0,), (1,))
    )
    feasible, lower, _upper = spatial_complement_bounds(frame, rat(1), rat(2))
    assert not feasible  # upper bound reaches the total squared weight
    assert lower == 0


def test_naimark_complement_fusion_preserves_dims_and_flips_weights():
    base = sffr((4, 4), 4, 2)
    parseval = FusionFrame(
        base.m,
        (Fraction(1, 4),) * 4,
        base.dims,
        base.generator.scale(RadicalScalar.sqrt(Fraction(1, 4))),
        base.partition,
    )
    complement = naimark_complement_fusion(parseval)
    assert_constructor_accepts(parseval.generator)
    assert_constructor_accepts(complement.generator)
    assert complement.dims == parseval.dims
    assert complement.partition == parseval.partition
    assert complement.weights_squared == (Fraction(3, 4),) * 4
    assert complement.m == 8 - 2
    stacked = np.vstack(
        [parseval.generator.to_dense(), complement.generator.to_dense()]
    )
    assert np.max(np.abs(stacked @ stacked.T - np.eye(8))) < FUSION_TOLERANCE


def test_naimark_complement_fusion_weight_domain():
    base = sffr((4, 4), 4, 2)
    with pytest.raises(NotApplicable, match="outside"):
        naimark_complement_fusion(base)  # unit weights sit on the boundary


def test_naimark_complement_fusion_requires_parseval():
    base = sffr((4, 4), 4, 2)
    shrunk = FusionFrame(
        base.m,
        (Fraction(1, 2),) * 4,
        base.dims,
        base.generator,
        base.partition,
    )
    with pytest.raises(NotApplicable, match="Parseval"):
        naimark_complement_fusion(shrunk)


def test_weighted_fusion_budget_cut_is_not_infeasible():
    # round-robin fails here, so the tagged search runs and is cut at once
    with pytest.raises(SearchBudgetExceeded, match="search budget"):
        weighted_fusion((1,) * 6, goldens.UFF_DIMS, (Fraction(11, 4),) * 4, budget=1)
    # a later cut has read two rows past the first
    with pytest.raises(SearchBudgetExceeded, match=r"search budget \(5 states\)$") as cut:
        weighted_fusion((1,) * 6, goldens.UFF_DIMS, (Fraction(11, 4),) * 4, budget=5)
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (5, 5, 2)


def test_weighted_fusion_search_runs_past_the_recursion_limit():
    # the round-robin order fails, and the tagged search feeds 1125 columns
    # one stack level each: deeper than Python's default recursion limit
    spectrum = (Fraction(5, 2),) * 450
    frame = weighted_fusion((1,) * 4, (450, 225, 225, 225), spectrum, 10**5)
    assert frame.meta["ordering"] == "search"
    report = verify_fusion(frame, spectrum)
    assert report.exact and report.spectrum_matches
    assert report.groups_orthogonal and report.weights_consistent


# uff((7/2,) * 4, (3, 3, 3, 3, 2)) moves a maximal chain in one of its rounds
UFF_CHAIN_CASE = ((Fraction(7, 2),) * 4, (3, 3, 3, 3, 2))


def test_uff_broken_invariant_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(fusion_module, "maximal_chains", lambda *_: ChainPartition(()))
    with pytest.raises(SpectralTetrisError, match="no chain with a one-element imbalance"):
        uff(*UFF_CHAIN_CASE)


def test_uff_invariant_survives_python_optimize():
    # -O strips assert statements; the invariant must still raise
    code = (
        "from fractions import Fraction\n"
        "import spectral_tetris.fusion as fusion\n"
        "from spectral_tetris import ChainPartition, SpectralTetrisError\n"
        "fusion.maximal_chains = lambda *_: ChainPartition(())\n"
        "try:\n"
        "    fusion.uff((Fraction(7, 2),) * 4, (3, 3, 3, 3, 2))\n"
        "except SpectralTetrisError as failure:\n"
        "    print(type(failure).__name__, failure)\n"
    )
    source = str(Path(spectral_tetris.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=source + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == (
        "SpectralTetrisError uff: no chain with a one-element imbalance"
    )


# -- entries beyond the float range ------------------------------------------------


def _huge_fusion(weight):
    """One group of two columns sharing row 0, one entry 10**400: the group is
    not orthogonal, so verify_fusion takes the numeric route."""
    generator = SynthesisMatrix(
        1, 2, {(0, 0): RadicalScalar.from_rational(10**400), (0, 1): goldens.ONE}
    )
    return FusionFrame(1, (weight,), (2,), generator, ((0, 1),))


def test_verify_fusion_numeric_route_refuses_an_entry_outside_the_float_range():
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is outside the float range"):
        verify_fusion(_huge_fusion(Fraction(1)))


def test_naimark_complement_fusion_refuses_an_entry_outside_the_float_range():
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is outside the float range"):
        naimark_complement_fusion(_huge_fusion(Fraction(1, 2)))


def test_extend_to_tight_raises_at_the_scan_cap(monkeypatch):
    """The golden's bound is 12, five steps past the scan's start of 7, so
    a cap of one candidate ends the scan before it."""
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    monkeypatch.setattr(fusion_module, "_EXTENSION_SCAN_CAP", 1)
    with pytest.raises(NoExtension, match=r"^no qualifying tight bound in \[7, 8\)$"):
        extend_to_tight(frame, goldens.SFFR_SPECTRUM)


def test_naimark_complement_fusion_refuses_a_complex_generator():
    """A DFT frame scaled to Parseval passes the Gram check, and is then
    refused as complex by the completion step."""
    generator = construct_untf_dft(4, 5).scale(RadicalScalar.sqrt(Fraction(4, 5)))
    assert generator.is_complex
    partition = tuple((j,) for j in range(5))
    frame = FusionFrame(4, (Fraction(1, 2),) * 5, (1,) * 5, generator, partition)
    with pytest.raises(ValueError, match="real") as refused:
        naimark_complement_fusion(frame)
    assert type(refused.value) is ValueError


def test_verify_fusion_compares_float_weights_to_the_column_sums():
    """Float squared weights are compared to the exact column square sums
    as they are, not on the sweep's ints."""
    flat = construct_untf(2, 4)
    partition = tuple((j,) for j in range(4))
    consistent = verify_fusion(FusionFrame(2, (1.0,) * 4, (1,) * 4, flat, partition))
    assert consistent.weights_consistent
    off = verify_fusion(FusionFrame(2, (1.5,) * 4, (1,) * 4, flat, partition))
    assert not off.weights_consistent


def test_spatial_complement_bounds_refuse_non_numbers():
    frame = sffr(goldens.SFFR_SPECTRUM, 5, 2)
    with pytest.raises(ValueError, match=r"^fusion bound None at position 0 is not a finite number$"):
        spatial_complement_bounds(frame, None, 1)
    with pytest.raises(ValueError, match=r"^fusion bound inf at position 1 is not a finite number$"):
        spatial_complement_bounds(frame, 1, float("inf"))
