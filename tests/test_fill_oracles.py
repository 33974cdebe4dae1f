"""The Spectral Tetris fill in integer units against the Fraction fill it replaced.

construct._greedy_fill runs on the norms and eigenvalues scaled once to
integers in a common unit; fraction_greedy_fill_oracle is the previous fill,
which compared and subtracted Fractions. Scaling by a positive integer keeps
every comparison, so the two must agree on everything: the entries, the
steps and the swaps of a fill that completes, and the kind, step and quoted
facts of one that stops. The wrappers must raise the same classes and
messages as the verbatim former constructions. construct_untf, which feeds
the fill the flat spectrum's units in closed form, must give what it gave
when it scaled N unit norms and the fill carried them beside their units.
"""

import itertools
from fractions import Fraction

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from _oracles import (
    assert_constructor_accepts,
    construct_untf_oracle,
    fraction_greedy_fill_oracle,
    pnstc_oracle,
    pnstc_str_oracle,
)
from spectral_tetris import construct_untf, pnstc, pnstc_str
from spectral_tetris.construct import _FILL_WORDING, _greedy_fill, _Stuck
from spectral_tetris.errors import Infeasible, SpectralTetrisError
from spectral_tetris.sequences import integer_units

# denominators 2-30 draw coprime pairs (7 and 11, 13 and 30, ...) as often
# as shared ones, so the common unit ranges from 2 to well past 10^6
RATIONALS = st.builds(Fraction, st.integers(1, 60), st.integers(2, 30))


@st.composite
def fill_inputs(draw):
    """Norms repeating a few mixed-denominator values, and a spectrum cut
    from their total at norm boundaries and at arbitrary points; sometimes
    the last eigenvalue is moved, so the totals differ."""
    palette = draw(st.lists(RATIONALS, min_size=1, max_size=4))
    norms = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=12))
    total = sum(norms)
    boundaries = list(itertools.accumulate(norms))[:-1]
    share = st.integers(2, 30).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))
    )
    anywhere = share.map(lambda s: s * total)
    cut = st.one_of(st.sampled_from(boundaries), anywhere) if boundaries else anywhere
    points = sorted({c for c in draw(st.lists(cut, max_size=8)) if 0 < c < total})
    edges = [Fraction(0), *points, total]
    spectrum = [high - low for low, high in zip(edges, edges[1:])]
    if draw(st.integers(0, 9)) == 0:
        moved = spectrum[-1] + draw(RATIONALS) * draw(st.sampled_from((-1, 1)))
        if moved > 0:
            spectrum[-1] = moved
    return norms, spectrum


def integer_fill(norms, spectrum, swap_on_straddle):
    unit, units, eig_units = integer_units(norms, spectrum)
    return _greedy_fill(units, eig_units, unit, swap_on_straddle)


def fill_outcome(fill, norms, spectrum, swap_on_straddle):
    """The entries, steps and swaps, or the kind, step and typed facts of the stop."""
    try:
        return fill(norms, spectrum, swap_on_straddle)
    except _Stuck as stuck:
        kind, step, facts = stuck.args
        return kind, step, {name: (type(value), value) for name, value in facts.items()}


def stop_kind(case, swap_on_straddle):
    norms, spectrum = case
    if sum(norms) != sum(spectrum):
        return "mismatch"
    outcome = fill_outcome(fraction_greedy_fill_oracle, norms, spectrum, swap_on_straddle)
    return outcome[0] if isinstance(outcome[0], str) else "complete"


def outcome(build, *args):
    """Everything a construction returns, or the class, message and step of
    the SpectralTetrisError it raises; any other exception escapes the test.
    A matrix must also pass the checks of the public constructor."""
    try:
        result = build(*args)
    except SpectralTetrisError as failure:
        return type(failure), str(failure), getattr(failure, "step", None)
    matrix, swaps = result if isinstance(result, tuple) else (result, None)
    assert_constructor_accepts(matrix)
    return matrix.row_count, matrix.col_count, matrix.entries, matrix.meta, swaps


@given(fill_inputs())
@settings(max_examples=400, deadline=None)
def test_integer_fill_equals_the_fraction_fill(case):
    norms, spectrum = case
    assert outcome(pnstc, norms, spectrum) == outcome(pnstc_oracle, norms, spectrum)
    assert outcome(pnstc_str, norms, spectrum) == outcome(pnstc_str_oracle, norms, spectrum)
    if sum(norms) != sum(spectrum):
        return
    for swap_on_straddle in (False, True):
        assert fill_outcome(integer_fill, norms, spectrum, swap_on_straddle) == fill_outcome(
            fraction_greedy_fill_oracle, norms, spectrum, swap_on_straddle
        )


def test_the_sweep_reaches_every_ending_in_both_swap_modes():
    """The inputs above complete, and stop at each kind the fill knows (a
    straddle stops only a fill that may not swap)."""
    quick = settings(max_examples=5000, database=None, deadline=None, phases=[Phase.generate])
    endings = {
        False: ("complete", "partner", "straddle", "overshoot", "mismatch"),
        True: ("complete", "partner", "overshoot"),
    }
    for swap_on_straddle, kinds in endings.items():
        for kind in kinds:

            def reached(case):
                return stop_kind(case, swap_on_straddle) == kind

            find(fill_inputs(), reached, settings=quick)


def untf_expected(dimension, count):
    """construct_untf as it was: the Fraction fill on unit norms and the
    flat spectrum, its stop quoted inside the Infeasible message."""
    eigenvalue = Fraction(count, dimension)
    try:
        entries, _, _ = fraction_greedy_fill_oracle(
            (Fraction(1),) * count, (eigenvalue,) * dimension, False
        )
    except _Stuck as stuck:
        kind, _, facts = stuck.args
        reduced = f"{eigenvalue.numerator}/{eigenvalue.denominator}"
        label = reduced if reduced == f"{count}/{dimension}" else f"{count}/{dimension} = {reduced}"
        message = (
            f"no sparse unit-norm tight frame of {count} vectors in dimension "
            f"{dimension}: eigenvalue {label} is neither an integer "
            f">= 2 nor of the form (2L-1)/L ({_FILL_WORDING[kind].format(**facts)})"
        )
        return Infeasible, message, None
    meta = {"algorithm": "untf", "eigenvalue": eigenvalue}
    return dimension, count, entries, meta, None


@given(st.integers(1, 30), st.integers(0, 90))
@settings(max_examples=200, deadline=None)
def test_untf_equals_the_fraction_fill(dimension, extra):
    count = dimension + extra
    assert outcome(construct_untf, dimension, count) == untf_expected(dimension, count)


def test_untf_equals_the_fill_that_carried_the_norms():
    """Every 1 <= M <= 30 and M <= N <= 4M: the same entries and meta as
    the former construct_untf, or the same Infeasible text."""
    kinds = set()
    for dimension in range(1, 31):
        for count in range(dimension, 4 * dimension + 1):
            got = outcome(construct_untf, dimension, count)
            assert got == outcome(construct_untf_oracle, dimension, count), (dimension, count)
            kinds.add(got[0] if got[0] is Infeasible else "frame")
    assert kinds == {Infeasible, "frame"}
