"""Construction routes: greedy fills, re-ordering, DFT blocks, Naimark."""

import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    ComplexRadicalEntry,
    DftPathStuck,
    Infeasible,
    NotParseval,
    NotSTReady,
    RadicalScalar,
    ReorderFailed,
    SearchBudgetExceeded,
    SpectralTetrisError,
    SynthesisMatrix,
    Underdetermined,
    ZERO,
    construct_untf,
    construct_untf_dft,
    entry_abs_squared,
    equal_norm_frame,
    matrix_from_json,
    matrix_to_json,
    naimark_complement,
    pnstc,
    pnstc_str,
    sfr,
    untf_feasible,
)
from spectral_tetris import construct

import goldens
from goldens import assert_matches
from _oracles import assert_constructor_accepts, pnstc_oracle, pnstc_str_oracle

NAIMARK_TOLERANCE = 1e-10
DFT_TOLERANCE = 1e-12


def exact_row_sums(matrix):
    acc = [RadicalScalar() for _ in range(matrix.row_count)]
    for (i, _j), value in matrix.entries.items():
        acc[i] = acc[i] + entry_abs_squared(value)
    return [value.rational_part() for value in acc]


# -- flat-spectrum unit-norm tight frames -------------------------------------


def test_untf_4x11_golden():
    assert_matches(construct_untf(4, 11), goldens.UNTF_4x11)


def test_untf_4x6_golden():
    assert_matches(construct_untf(4, 6), goldens.UNTF_4x6)


def test_untf_4x9_golden():
    assert_matches(construct_untf(4, 9), goldens.UNTF_4x9)


def test_untf_meta():
    matrix = construct_untf(4, 11)
    assert matrix.meta["algorithm"] == "untf"
    assert matrix.meta["eigenvalue"] == Fraction(11, 4)
    assert matrix.nonzero_count == 17
    assert not matrix.is_complex


def test_untf_infeasible_names_the_ratio():
    with pytest.raises(Infeasible, match="5/4"):
        construct_untf(4, 5)


def test_untf_underdetermined_and_bad_input():
    with pytest.raises(Underdetermined):
        construct_untf(3, 2)
    with pytest.raises(ValueError):
        construct_untf(0, 1)


def test_counts_and_dimensions_must_be_integers():
    spectrum = (Fraction(5, 2),) * 2
    for call, name, value in (
        (lambda: construct_untf(2.0, 5), "dimension", "2.0"),
        (lambda: construct_untf_dft(4, 5.0), "count", "5.0"),
        (lambda: sfr(spectrum, 5.0), "count", "5.0"),
        (lambda: equal_norm_frame(spectrum, 3.0), "count", "3.0"),
        (lambda: construct_untf_dft(0, 1), "dimension", "0"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {value}$"):
            call()
    with pytest.raises(ValueError, match=r"^search budget '9' is not an integer$"):
        equal_norm_frame(spectrum, 5, "9")
    assert construct_untf(np.int64(4), np.int64(11)).col_count == 11


def test_spectra_and_norms_refuse_non_numbers_and_infinities():
    inf = float("inf")
    with pytest.raises(ValueError, match=r"^eigenvalue inf at position 0 is not a finite number$"):
        sfr([inf], 1)
    with pytest.raises(ValueError, match=r"^squared norm inf at position 0 is not a finite number$"):
        pnstc([inf], [1])
    with pytest.raises(ValueError, match=r"^eigenvalue None at position 0 is not a finite number$"):
        sfr([None], 1)


def test_untf_dft_underdetermined():
    with pytest.raises(Underdetermined, match=r"^3 vectors cannot span a space of dimension 5$"):
        construct_untf_dft(5, 3)


def test_untf_matches_pnstc_on_unit_norms():
    # same greedy, reached through the general prescribed-norms entry point
    flat = (Fraction(11, 4),) * 4
    assert_matches(pnstc((1,) * 11, flat), goldens.UNTF_4x11)


@pytest.mark.parametrize("dim", range(1, 6))
def test_untf_small_sweep_invariants(dim):
    for count in range(dim, 3 * dim + 1):
        if not (count >= dim and untf_feasible(dim, count)):
            continue
        matrix = construct_untf(dim, count)
        assert exact_row_sums(matrix) == [Fraction(count, dim)] * dim
        for col in range(count):
            assert matrix.column_norm_squared(col) == 1


# -- prescribed norms ----------------------------------------------------------


def test_pnstc_golden_5x8():
    assert_matches(pnstc(goldens.PNSTC_NORMS, goldens.PNSTC_SPECTRUM), goldens.PNSTC_5x8)


def test_pnstc_takes_orders_as_given():
    with pytest.raises(NotSTReady) as failure:
        pnstc((4, 4, 9, 1), (8, 6, 4))
    assert failure.value.step is not None


def test_pnstc_total_mismatch():
    with pytest.raises(NotSTReady):
        pnstc((1, 1), (3,))


def test_pnstc_spill_overshoot():
    with pytest.raises(NotSTReady, match="overshoot"):
        pnstc((2, 6, 6, 1, 1), (3, 4, 9))


def test_pnstc_missing_partner():
    with pytest.raises(NotSTReady, match="partner"):
        pnstc((2, 3), (3, 2))


def test_pnstc_str_golden_with_one_swap():
    matrix, swaps = pnstc_str(goldens.STR_NORMS, goldens.STR_SPECTRUM)
    assert swaps == goldens.STR_SWAPS
    assert_matches(matrix, goldens.STR_2x6)
    assert matrix.meta["swaps"] == goldens.STR_SWAPS


def test_pnstc_str_swaps_replay_through_pnstc():
    matrix, swaps = pnstc_str(goldens.STR_NORMS, goldens.STR_SPECTRUM)
    replayed = list(goldens.STR_NORMS)
    for i, j in swaps:
        replayed[i], replayed[j] = replayed[j], replayed[i]
    assert_matches(pnstc(replayed, goldens.STR_SPECTRUM), dict(matrix.entries))


def test_pnstc_str_ready_input_is_untouched():
    matrix, swaps = pnstc_str(goldens.PNSTC_NORMS, goldens.PNSTC_SPECTRUM)
    assert swaps == ()
    assert_matches(matrix, goldens.PNSTC_5x8)


def test_pnstc_str_failures():
    with pytest.raises(ReorderFailed):
        pnstc_str((3,), (2,))  # totals differ
    with pytest.raises(ReorderFailed, match="last norm"):
        pnstc_str((5, 1), (4, 2))
    with pytest.raises(ReorderFailed, match="overshoot"):
        pnstc_str((2, 6, 6, 1, 1), (3, 4, 9))


# -- one fill behind pnstc, pnstc_str and construct_untf ------------------------

FILL_PALETTE = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def outcome(build, *args):
    """Everything a construction returns, or the class, message and step of
    the SpectralTetrisError it raises; any other exception escapes the test."""
    try:
        result = build(*args)
    except SpectralTetrisError as failure:
        return type(failure), str(failure), getattr(failure, "step", None)
    matrix, swaps = result if isinstance(result, tuple) else (result, None)
    return matrix.row_count, matrix.col_count, matrix.entries, matrix.meta, swaps


def assert_fill_matches_the_oracles(norms, spectrum):
    assert outcome(pnstc, norms, spectrum) == outcome(pnstc_oracle, norms, spectrum)
    assert outcome(pnstc_str, norms, spectrum) == outcome(pnstc_str_oracle, norms, spectrum)


def test_fill_matches_the_oracles_on_every_small_equal_total_input():
    spectra = defaultdict(list)
    for rows in range(1, 4):
        for spectrum in itertools.product(FILL_PALETTE, repeat=rows):
            spectra[sum(spectrum)].append(spectrum)
    checked = 0
    for count in range(1, 6):
        for norms in itertools.product(FILL_PALETTE, repeat=count):
            for spectrum in spectra[sum(norms)]:
                assert_fill_matches_the_oracles(norms, spectrum)
                checked += 1
    assert checked == 22591


@st.composite
def equal_total_inputs(draw):
    """Norms and a spectrum with the same total, cut partly at norm boundaries."""
    norms = draw(
        st.lists(
            st.fractions(min_value="1/6", max_value=4, max_denominator=6),
            min_size=1,
            max_size=14,
        )
    )
    total = sum(norms)
    boundaries = list(itertools.accumulate(norms))[:-1]
    anywhere = st.fractions(min_value=0, max_value=1, max_denominator=12).map(
        lambda share: share * total
    )
    cut = st.one_of(st.sampled_from(boundaries), anywhere) if boundaries else anywhere
    points = sorted({c for c in draw(st.lists(cut, max_size=7)) if 0 < c < total})
    edges = [Fraction(0), *points, total]
    return norms, [high - low for low, high in zip(edges, edges[1:])]


@given(equal_total_inputs())
@settings(max_examples=200, deadline=None)
def test_fill_matches_the_oracles_on_larger_inputs(case):
    assert_fill_matches_the_oracles(*case)


def test_untf_matches_the_oracle_on_unit_norms():
    for m in range(1, 16):
        for n in range(m, 4 * m + 1):
            expected = outcome(pnstc_oracle, (1,) * n, (Fraction(n, m),) * m)
            got = outcome(construct_untf, m, n)
            if expected[0] is NotSTReady:
                ratio = Fraction(n, m)
                reduced = f"{ratio.numerator}/{ratio.denominator}"
                label = reduced if reduced == f"{n}/{m}" else f"{n}/{m} = {reduced}"
                message = (
                    f"no sparse unit-norm tight frame of {n} vectors in dimension {m}: "
                    f"eigenvalue {label} is neither an integer >= 2 nor of the form "
                    f"(2L-1)/L ({expected[1]})"
                )
                assert got == (Infeasible, message, None)
                assert not untf_feasible(m, n)
            else:
                meta = {"algorithm": "untf", "eigenvalue": Fraction(n, m)}
                assert got == (*expected[:3], meta, None)


# -- 2-sparse frames for a prescribed spectrum ---------------------------------


def test_sfr_golden_3x10():
    matrix = sfr(goldens.SFR_SPECTRUM, goldens.SFR_COUNT)
    assert_matches(matrix, goldens.SFR_3x10)
    assert matrix.meta["partition"] == (4, 7, 10)
    assert matrix.meta["eigenvalue_order"] == (0, 1, 2)


def test_certified_builds_record_the_same_meta_in_the_same_order():
    assert list(sfr((Fraction(5, 2), 1, Fraction(3, 2)), 5).meta.items()) == [
        ("algorithm", "sfr"),
        ("steps", 4),
        ("eigenvalue_order", (0, 2, 1)),
        ("partition", (2, 4, 5)),
    ]
    assert list(equal_norm_frame((3,) * 4, 6).meta.items()) == [
        ("algorithm", "equal_norm"),
        ("steps", 4),
        ("eigenvalue_order", (0, 1, 2, 3)),
        ("partition", (1, 3, 4, 6)),
    ]


def test_sfr_permutes_when_the_given_order_jams():
    spectrum = (Fraction(5, 2), 1, Fraction(3, 2))
    matrix = sfr(spectrum, 5)
    order = matrix.meta["eigenvalue_order"]
    assert order != (0, 1, 2)
    expected = [Fraction(spectrum[i]) for i in order]
    assert exact_row_sums(matrix) == expected


def test_sfr_failures():
    from spectral_tetris import SumMismatch

    with pytest.raises(SumMismatch):
        sfr((1, 1), 3)
    with pytest.raises(Infeasible):
        # every order puts a fractional prefix right before a 1-column jump
        sfr((Fraction(1, 2), Fraction(1, 2), 1), 2)
    with pytest.raises(ValueError):
        sfr((1, 1), 0)


def test_certified_builds_pass_the_public_checks():
    """sfr and equal_norm_frame build through pnstc, which skips the
    constructor's checks: every frame they return must still pass them."""
    built = [
        sfr(goldens.SFR_SPECTRUM, goldens.SFR_COUNT),
        sfr((Fraction(5, 2), 1, Fraction(3, 2)), 5),
        equal_norm_frame((8, 6, 4), 9),
        equal_norm_frame((3,) * 400, 1200),
    ]
    for m in range(1, 6):
        for n in range(m, 3 * m + 2):
            for build in (sfr, equal_norm_frame):
                try:
                    built.append(build((Fraction(n, m),) * m, n))
                except Infeasible:
                    pass
    assert len(built) > 20
    for matrix in built:
        assert_constructor_accepts(matrix)


# -- equal-norm frames ----------------------------------------------------------


def test_equal_norm_flat_case_reduces_to_untf():
    matrix = equal_norm_frame((Fraction(11, 4),) * 4, 11)
    assert_matches(matrix, goldens.UNTF_4x11)
    assert matrix.meta["algorithm"] == "equal_norm"


def test_equal_norm_integer_spectrum():
    matrix = equal_norm_frame((8, 6, 4), 9)
    assert sorted(exact_row_sums(matrix)) == [4, 6, 8]
    for col in range(9):
        assert matrix.column_norm_squared(col) == 2


def test_equal_norm_requires_sorted_spectrum():
    with pytest.raises(ValueError):
        equal_norm_frame((4, 6, 8), 9)


def test_equal_norm_infeasible_count():
    # four vectors of squared norm 7 against the flat 28/3 spectrum: the
    # second norm neither fits the remaining 7/3 nor blocks without
    # overshooting the next row, in every feeding order
    with pytest.raises(Infeasible):
        equal_norm_frame((Fraction(28, 3),) * 3, 4)


def test_equal_norm_budget_cutoff():
    with pytest.raises(SearchBudgetExceeded):
        equal_norm_frame((3, 1), 2, budget=0)


def test_equal_norm_search_depth_is_not_bounded_by_the_call_stack():
    # the readiness search goes one level deeper per fed norm; 1200 norms
    # used to overflow the interpreter's recursion limit
    matrix = equal_norm_frame((3,) * 400, 1200)
    assert matrix.col_count == 1200
    assert sorted(exact_row_sums(matrix)) == [3] * 400


# -- DFT route -------------------------------------------------------------------


def test_untf_dft_4x5_golden():
    assert_matches(construct_untf_dft(4, 5), goldens.DFT_4x5)


def test_untf_dft_meta_traces_steps():
    matrix = construct_untf_dft(4, 5)
    assert matrix.meta["algorithm"] == "untf_dft"
    assert any(step[0].startswith("block") for step in matrix.meta["steps"])
    assert matrix.is_complex


def test_untf_dft_stays_real_when_two_by_two_blocks_suffice():
    matrix = construct_untf_dft(4, 11)
    assert not matrix.is_complex
    assert exact_row_sums(matrix) == [Fraction(11, 4)] * 4


def test_untf_dft_underdetermined():
    with pytest.raises(Underdetermined):
        construct_untf_dft(3, 2)


@pytest.mark.parametrize("dim,count", [(1, 1), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8)])
def test_untf_dft_covers_ratios_below_two(dim, count):
    matrix = construct_untf_dft(dim, count)
    for col in range(count):
        assert matrix.column_norm_squared(col) == 1  # exact even for complex entries
    dense = matrix.to_dense()
    gram = dense @ dense.conj().T
    target = np.eye(dim) * (count / dim)
    assert np.max(np.abs(gram - target)) < DFT_TOLERANCE


def test_untf_dft_greedy_can_jam():
    # smallest-J greedy paints row 2 into a corner at (7, 9); the failure
    # carries the step trace instead of being masked
    with pytest.raises(DftPathStuck) as failure:
        construct_untf_dft(7, 9)
    assert failure.value.steps


def test_untf_dft_builds_only_what_the_constructor_accepts():
    """The DFT fill builds unchecked; every fill that completes for
    2 <= m <= 12 and m < n < 2m, real and complex shapes both, passes the
    constructor's check with the same complex flag."""
    flags = []
    for dim in range(2, 13):
        for count in range(dim + 1, 2 * dim):
            try:
                matrix = construct_untf_dft(dim, count)
            except DftPathStuck:
                continue
            assert_constructor_accepts(matrix)
            flags.append(matrix.is_complex)
    assert len(flags) > 20 and set(flags) == {False, True}


# -- Naimark complement -----------------------------------------------------------


def parseval_untf(dim, count):
    return construct_untf(dim, count).scale(RadicalScalar.sqrt(Fraction(dim, count)))


def test_naimark_complement_stacks_to_an_orthogonal_basis():
    parseval = parseval_untf(4, 6)
    complement = naimark_complement(parseval)
    assert (complement.row_count, complement.col_count) == (2, 6)
    stacked = np.vstack([parseval.to_dense(), complement.to_dense()])
    assert np.max(np.abs(stacked @ stacked.T - np.eye(6))) < NAIMARK_TOLERANCE


def test_naimark_complement_entries_are_dyadic_snapshots():
    complement = naimark_complement(parseval_untf(4, 6))
    assert complement.meta["exact"] is False
    assert all(value.is_rational() for value in complement.entries.values())


def test_naimark_requires_parseval():
    with pytest.raises(NotParseval):
        naimark_complement(construct_untf(4, 6))  # tight but not Parseval


def test_naimark_rejects_complex_input():
    with pytest.raises(ValueError):
        naimark_complement(construct_untf_dft(4, 5))


def test_naimark_square_input_has_empty_complement():
    square = SynthesisMatrix(
        2, 2, {(0, 0): goldens.ONE, (1, 1): goldens.ONE}
    )
    complement = naimark_complement(square)
    assert complement.row_count == 0
    assert complement.entries == {}


def test_naimark_tall_input_refused():
    tall = SynthesisMatrix(2, 1, {(0, 0): goldens.ONE})
    with pytest.raises(NotParseval):
        naimark_complement(tall)


@given(st.integers(1, 4), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_naimark_random_parseval_frames(dim, extra):
    count = 2 * dim + extra
    parseval = parseval_untf(dim, count)
    complement = naimark_complement(parseval)
    stacked = np.vstack([parseval.to_dense(), complement.to_dense()])
    assert np.max(np.abs(stacked @ stacked.T - np.eye(count))) < NAIMARK_TOLERANCE
    norms = np.sum(stacked ** 2, axis=0)
    assert np.max(np.abs(norms - 1.0)) < NAIMARK_TOLERANCE


# -- matrix container behaviour ----------------------------------------------------


def test_synthesis_matrix_rejects_stored_zeros_and_bad_indices():
    with pytest.raises(ValueError):
        SynthesisMatrix(1, 1, {(0, 0): RadicalScalar()})
    with pytest.raises(ValueError):
        SynthesisMatrix(1, 1, {(0, 1): goldens.ONE})


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 0): Fraction(1, 2)},
        {(0, 0): 1},
        {(0.0, 0): goldens.ONE},
        {(0, 0): ComplexRadicalEntry(ZERO, 1, 3)},
        {(0, 0): ComplexRadicalEntry(Fraction(1, 2), 1, 3)},
    ],
    ids=["fraction-entry", "int-entry", "float-index", "zero-modulus", "fraction-modulus"],
)
def test_synthesis_matrix_refuses_entries_the_checks_cannot_read(entries):
    """Each of these was once built, and verify_frame or write_document
    then failed on it, or wrote a document the decoder refuses."""
    with pytest.raises(ValueError):
        SynthesisMatrix(1, 1, entries)


@pytest.mark.parametrize(
    "exponent, order",
    [(1.0, 3), (1, 3.0), (1, True)],
    ids=["float-exponent", "float-order", "bool-order"],
)
def test_synthesis_matrix_refuses_a_phase_of_non_integer_fields(exponent, order):
    """A float exponent was once built, verified as a frame and written as
    "omega_num": 1.0, which the decoder refuses. The constructor now reads
    its fields through __index__, so such an entry is made by setting the
    fields of a canonical one."""
    entry = ComplexRadicalEntry(goldens.ONE, 1, 3)
    entry.root_exponent, entry.root_order = exponent, order
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) has a phase of non-integer fields: "):
        SynthesisMatrix(1, 1, {(0, 0): entry})


@pytest.mark.parametrize(
    "exponent, order",
    [(2, 6), (3, 9), (0, 3), (0, 1), (1, 2), (3, 4 * 3)],
    ids=["2/6", "3/9", "0/3", "0/1", "1/2", "3/12"],
)
def test_synthesis_matrix_refuses_a_phase_that_is_not_canonical(exponent, order):
    """Only the phases ComplexRadicalEntry.make gives are stored: any other
    would be read back from its document as a different entry."""
    entry = ComplexRadicalEntry(goldens.ONE, exponent, order)
    assert entry != ComplexRadicalEntry.make(goldens.ONE, exponent, order)
    with pytest.raises(
        ValueError,
        match=rf"^entry \(0, 0\) has phase {exponent}/{order}, not a root of unity of order "
        r"at least 3 in lowest terms$",
    ):
        SynthesisMatrix(1, 1, {(0, 0): entry})


def test_synthesis_matrix_keeps_every_canonical_phase_through_json():
    """Every phase the constructor accepts round-trips to an equal entry."""
    for order in range(3, 13):
        for exponent in range(order):
            entry = ComplexRadicalEntry.make(goldens.ONE, exponent, order)
            if not isinstance(entry, ComplexRadicalEntry):
                continue
            matrix = SynthesisMatrix(1, 1, {(0, 0): entry})
            assert matrix_from_json(matrix_to_json(matrix)).entries == {(0, 0): entry}


def test_synthesis_matrix_refuses_a_shape_or_key_that_is_not_integers():
    with pytest.raises(ValueError, match=r"^shape 2\.0x2 is not a pair of integers$"):
        SynthesisMatrix(2.0, 2, {})
    with pytest.raises(ValueError, match=r"^entry key 0 is not a \(row, col\) pair$"):
        SynthesisMatrix(1, 1, {0: goldens.ONE})
    with pytest.raises(ValueError, match=r"^entry key \(0, 0, 0\) is not a \(row, col\) pair$"):
        SynthesisMatrix(1, 1, {(0, 0, 0): goldens.ONE})


def test_column_accessors():
    matrix = construct_untf(4, 11)
    assert matrix.column_support(2) == (0, 1)
    assert matrix.column_support(10) == (3,)
    assert matrix.entry(0, 4) == RadicalScalar()
    column = matrix.column(2)
    assert column[0] == goldens.sq("3/8") and column[1] == goldens.sq("5/8")


def test_scale_rejects_zero_and_rescales_complex_entries():
    matrix = construct_untf_dft(4, 5)
    with pytest.raises(ValueError):
        matrix.scale(RadicalScalar())
    scaled = matrix.scale(RadicalScalar.from_rational(2))
    assert scaled.column_norm_squared(0) == 4


@pytest.mark.parametrize("factor", [0.5, "x", None, 1j, [2]])
def test_scale_refuses_a_factor_that_is_not_an_exact_real(factor):
    matrix = construct_untf(3, 7)
    with pytest.raises(ValueError) as caught:
        matrix.scale(factor)
    assert str(caught.value) == f"scale factor {factor!r} is not an exact real"
    # ints and Fractions scale as their RadicalScalars do; zero keeps its message
    assert matrix.scale(2).entries == matrix.scale(RadicalScalar.from_rational(2)).entries
    half = matrix.scale(Fraction(1, 2)).entries
    assert half == matrix.scale(RadicalScalar.from_rational(Fraction(1, 2))).entries
    with pytest.raises(ValueError, match="^scaling by zero would empty the matrix$"):
        matrix.scale(0)


def test_synthesis_matrix_rejects_negative_dimensions():
    for rows, cols in ((-1, 0), (2, -3), (-1, -1)):
        with pytest.raises(ValueError, match="negative dimension"):
            SynthesisMatrix(rows, cols, {})


# -- entries beyond the float range ------------------------------------------------


def _huge(value):
    return SynthesisMatrix(1, 2, {(0, 0): value, (0, 1): goldens.ONE})


def test_to_dense_names_an_entry_outside_the_float_range():
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is outside the float range"):
        _huge(RadicalScalar.from_rational(10**400)).to_dense()
    # each term fits a float, but their sum does not
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is outside the float range"):
        _huge(RadicalScalar([(1, 10**308), (2, 10**308)])).to_dense()
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is outside the float range"):
        _huge(RadicalScalar.from_rational(Fraction(1, 10**400)).inverse()).to_dense()


def test_to_dense_converts_each_distinct_entry_once(monkeypatch):
    # a shared entry object is converted at its first position only, and a
    # shared entry outside the float range is named at its first position
    calls = []
    convert = construct.to_float

    def counted(value):
        calls.append(value)
        return convert(value)

    monkeypatch.setattr(construct, "to_float", counted)
    half = RadicalScalar.from_rational(Fraction(1, 2))
    root = RadicalScalar.sqrt(Fraction(1, 2))
    matrix = SynthesisMatrix(2, 3, {(0, 0): half, (0, 1): root, (1, 1): half, (1, 2): root})
    dense = matrix.to_dense()
    assert dense.tolist() == [[0.5, float(root), 0.0], [0.0, 0.5, float(root)]]
    assert sorted(map(id, calls)) == sorted((id(half), id(root)))
    huge = RadicalScalar.from_rational(10**400)
    shared = SynthesisMatrix(2, 2, {(0, 1): goldens.ONE, (1, 0): huge, (1, 1): huge})
    with pytest.raises(ValueError, match=r"^entry \(1, 0\) is outside the float range$"):
        shared.to_dense()


def test_naimark_complement_refuses_an_entry_outside_the_float_range():
    with pytest.raises(ValueError, match="outside the float range"):
        naimark_complement(_huge(RadicalScalar.from_rational(10**400)))
