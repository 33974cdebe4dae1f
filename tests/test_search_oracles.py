"""The pruned readiness searches against the searches that tried every order.

Both readiness searches skip the eigenvalue orders that share a failing
prefix, and sfr_feasible also skips prefixes whose used values admit no
completion. None of that may change an answer: on every multiset of up to
seven eigenvalues over small palettes, each certificate must equal the one
the former searches (kept verbatim in _oracles) give, field by field, and
st_ready_search must never spend more feed-search states than they did.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from spectral_tetris import SearchBudgetExceeded, SumMismatch, sfr_feasible, st_ready_search
from spectral_tetris import sequences

import _oracles
from _oracles import sfr_feasible_oracle, st_ready_search_oracle

PALETTES = (
    (F(1, 2), F(5, 4), F(3, 2), F(2)),
    # inside (1, 3/2): every unit-norm order fails, most of them late
    (F(11, 10), F(6, 5), F(13, 10), F(7, 5)),
)
SMALL_BUDGET = 2_000
LARGE_BUDGET = 10**6


def _multisets(palette):
    for size in range(1, 8):
        yield from itertools.combinations_with_replacement(palette, size)


def _orderings(spectrum):
    """The multiset ascending, descending and in one seeded shuffle."""
    shuffled = list(spectrum)
    random.Random(len(spectrum)).shuffle(shuffled)
    return {tuple(spectrum), tuple(reversed(spectrum)), tuple(shuffled)}


def _mixed_norms(total):
    """3/2 and 1/2, then unit norms, then the fractional rest: same total."""
    if total < 2:
        return None
    rest = total - 2
    units = math.floor(rest)
    return [F(3, 2), F(1, 2)] + [F(1)] * units + ([rest - units] if rest != units else [])


class _StateCount:
    """Feed-search states spent, read off each search class's run()."""

    def __init__(self, monkeypatch, cls):
        self.states = 0
        run = cls.run

        def counted(search):
            try:
                return run(search)
            finally:
                self.states += search.states

        monkeypatch.setattr(cls, "run", counted)


def _outcome(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded:
        return SearchBudgetExceeded


def test_st_ready_search_matches_the_full_walk_exhaustively(monkeypatch):
    pruned = _StateCount(monkeypatch, sequences._FeedSearch)
    full = _StateCount(monkeypatch, _oracles.FeedSearchOracle)
    cut = 0
    # mixed norms on the first palette only: on the second the full walk
    # takes 18 s to settle them
    cases = [(order, [F(1)] * int(sum(spectrum))) for palette in PALETTES
             for spectrum in _multisets(palette) if sum(spectrum).denominator == 1
             for order in _orderings(spectrum)]
    cases += [(spectrum, _mixed_norms(sum(spectrum))) for spectrum in _multisets(PALETTES[0])
              if sum(spectrum) >= 2]
    for spectrum, norms in cases:
        pruned.states = full.states = 0
        found = _outcome(st_ready_search, norms, spectrum, SMALL_BUDGET)
        expected = _outcome(st_ready_search_oracle, norms, spectrum, SMALL_BUDGET)
        if expected is not SearchBudgetExceeded:
            assert pruned.states <= full.states, (norms, spectrum)
        else:
            cut += 1
            if found is SearchBudgetExceeded:
                found = st_ready_search(norms, spectrum, LARGE_BUDGET)
            expected = st_ready_search_oracle(norms, spectrum, LARGE_BUDGET)
        assert found is not SearchBudgetExceeded, (norms, spectrum)
        if expected is None:
            assert found is None, (norms, spectrum)
        else:
            assert found.eigenvalue_order == expected.eigenvalue_order
            assert found.norm_order == expected.norm_order
            assert found.partition == expected.partition
    assert len(cases) > 300
    assert cut > 0  # the full walk ran out of states at least once


def test_sfr_feasible_matches_the_full_walk_exhaustively():
    compared = infeasible = 0
    for multiset in itertools.chain.from_iterable(map(_multisets, PALETTES)):
        total = sum(multiset)
        if total.denominator != 1:
            with pytest.raises(SumMismatch):
                sfr_feasible(multiset, math.ceil(total))
            continue
        for spectrum in _orderings(multiset):
            found = sfr_feasible(spectrum, total.numerator)
            expected = sfr_feasible_oracle(spectrum, total.numerator)
            if expected is None:
                infeasible += 1
                assert found is None, spectrum
            else:
                assert found.eigenvalue_order == expected.eigenvalue_order, spectrum
                assert found.partition == expected.partition, spectrum
            compared += 1
    assert compared > 300
    assert infeasible > 50


def test_sfr_feasible_remembers_no_prefix_its_own_order_broke():
    # (3/2, 1/2) breaks the floor rule as a prefix, but (1/2, 3/2) with the
    # same values passes and completes with 2: the walk must not mark those
    # used values dead when the first order fails
    cert = sfr_feasible((F(3, 2), F(1, 2), F(2)), 4)
    assert cert.eigenvalue_order == (1, 0, 2)
    assert cert == sfr_feasible_oracle((F(3, 2), F(1, 2), F(2)), 4)
