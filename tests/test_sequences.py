"""Feasibility layer: majorization, readiness, block counts, floor conditions."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    Infeasible,
    InvalidPartition,
    OutOfRange,
    RadicalScalar,
    SearchBudgetExceeded,
    SumMismatch,
    SynthesisMatrix,
    Underdetermined,
    majorizes,
    maximal_block_number,
    search_budget,
    sfr,
    sfr_feasible,
    st_ready_check,
    st_ready_search,
    pnstc_sufficient,
    tight_sufficient,
    untf_feasible,
    untf_floor_condition,
)
from spectral_tetris import sequences
from spectral_tetris.construct import Sweep
from spectral_tetris.sequences import (
    DEFAULT_SEARCH_BUDGET,
    SEARCH_BUDGET_ENV,
    _distinct_value_orders,
    _minimal_zero_sum_parts,
    _mu_greedy,
    as_norms_squared,
    as_spectrum,
    integer_units,
)

from _oracles import (
    distinct_value_orders_oracle,
    mu_greedy_oracle,
    mu_oracle,
    mu_subset_dp_oracle,
    st_ready_oracle,
    st_ready_search_oracle,
)

# Wall-clock bound for the tests that pin down work which used to be
# factorial or unbounded; the regressions ran for seconds to minutes.
WALL_BOUND_S = 5.0

small_values = st.sampled_from(
    [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(3)]
)


def test_validators_reject_empty_and_nonpositive():
    with pytest.raises(ValueError):
        as_spectrum(())
    with pytest.raises(ValueError):
        as_spectrum((1, 0))
    with pytest.raises(ValueError):
        as_norms_squared((-1,))
    assert as_spectrum(("5/2", 1)) == (Fraction(5, 2), Fraction(1))


# -- majorization -----------------------------------------------------------


def test_majorizes_known_pairs():
    assert majorizes((18, 10, 6, 4, 2), (16, 9, 4, 4, 3, 2, 1, 1))
    assert majorizes((3,), (1, 1, 1))
    assert not majorizes((2, 2), (3, 1))
    assert not majorizes((2,), (1,))  # totals differ


def test_majorizes_ignores_input_order():
    assert majorizes((4, 2, 6), (3, 3, 3, 3))
    assert majorizes((2, 6, 4), (3, 3, 3, 3))


@given(st.lists(small_values, min_size=1, max_size=6))
def test_majorizes_is_reflexive(values):
    assert majorizes(values, values)


@given(st.lists(small_values, min_size=2, max_size=6), st.data())
def test_averaging_two_entries_is_majorized(values, data):
    i = data.draw(st.integers(0, len(values) - 1))
    j = data.draw(st.integers(0, len(values) - 1))
    if i == j:
        return
    mean = (values[i] + values[j]) / 2
    smoothed = list(values)
    smoothed[i] = smoothed[j] = mean
    assert majorizes(values, smoothed)


# -- readiness check and search ---------------------------------------------


def test_st_ready_check_accepts_the_working_order():
    norms = (16, 1, 4, 3, 1, 2, 9, 4)
    spectrum = (18, 6, 2, 10, 4)
    assert st_ready_check(norms, spectrum, (2, 4, 5, 7, 8))


def test_st_ready_check_rejects_a_short_jump():
    # the first cut sits strictly inside row 0's weight, so the next cut
    # must land at least two norms further on to leave room for the block
    norms = (16, 1, 4, 3, 1, 2, 9, 4)
    spectrum = (18, 6, 2, 10, 4)
    assert not st_ready_check(norms, spectrum, (2, 3, 5, 7, 8))


def test_st_ready_check_rejects_an_oversized_norm_everywhere():
    # 9 exceeds every row weight, so no cut placement can work
    bad = (4, 4, 9, 1)
    for cuts in itertools.combinations(range(4), 2):
        assert not st_ready_check(bad, (8, 6, 4), cuts + (4,))


def test_st_ready_check_single_row_reduces_to_totals():
    assert st_ready_check((1, 2), (3,), (2,))
    assert not st_ready_check((1, 1), (3,), (2,))


def test_st_ready_check_rejects_a_gap_larger_than_the_next_norm():
    # row 0 (weight 3/2) ends half a unit past the first norm, so the block
    # bridging it needs the norm after next to be at least 1/2
    assert st_ready_check((1, 1, Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2),) * 2, (1, 4))
    assert not st_ready_check((1, 1, Fraction(1, 4), Fraction(3, 4)), (Fraction(3, 2),) * 2, (1, 4))


def test_st_ready_check_partition_validation():
    with pytest.raises(InvalidPartition):
        st_ready_check((1, 1), (1, 1), (1, 1))  # not strictly increasing
    with pytest.raises(InvalidPartition):
        st_ready_check((1, 1), (1, 1), (0, 1))  # endpoint is not N
    with pytest.raises(InvalidPartition):
        st_ready_check((1, 1), (1, 1), (2,))  # wrong length
    with pytest.raises(InvalidPartition):
        st_ready_check((1, 1), (1, 1), (0.0, 2))  # not integers


def test_st_ready_search_finds_a_certificate_for_the_mixed_multiset():
    norms = (3, 4, 3, 1, 4, 2)
    eigs = (9, 8)
    cert = st_ready_search(norms, eigs)
    assert cert is not None
    assert sorted(cert.norm_order) == [0, 1, 2, 3, 4, 5]
    assert sorted(cert.eigenvalue_order) == [0, 1]
    permuted_norms = tuple(Fraction(norms[i]) for i in cert.norm_order)
    permuted_eigs = tuple(Fraction(eigs[i]) for i in cert.eigenvalue_order)
    assert st_ready_check(permuted_norms, permuted_eigs, cert.partition)


def test_st_ready_search_never_leaves_a_row_without_its_own_column():
    # With norms (3/2, 3/2, 3/2) and eigenvalues ordered (3/2, 1, 2), a
    # two-column block can mechanically drain the middle row, but that row
    # would own no column and the partition would repeat a cut. The search
    # must skip that ordering and certify (1, 2, 3/2) instead.
    norms = (Fraction(3, 2),) * 3
    eigs = (Fraction(2), Fraction(3, 2), Fraction(1))
    cert = st_ready_search(norms, eigs)
    assert cert is not None
    assert all(a < b for a, b in zip(cert.partition, cert.partition[1:]))
    permuted_norms = tuple(norms[i] for i in cert.norm_order)
    permuted_eigs = tuple(eigs[i] for i in cert.eigenvalue_order)
    assert st_ready_check(permuted_norms, permuted_eigs, cert.partition)


def test_st_ready_search_rejects_an_oversized_norm():
    # a squared norm of 9 can neither sit in a row (every eigenvalue is
    # smaller) nor open a block (its spill would exceed the next row)
    assert st_ready_search((4, 4, 9, 1), (8, 6, 4)) is None
    assert not st_ready_oracle((4, 4, 9, 1), (8, 6, 4))


def test_st_ready_search_negative_despite_majorization():
    norms = (9, 9, 9, 1)
    spectrum = (Fraction(28, 3),) * 3
    assert majorizes(spectrum, norms)
    assert st_ready_search(norms, spectrum) is None
    assert not st_ready_oracle(norms, spectrum)


def test_st_ready_search_total_mismatch_is_none():
    assert st_ready_search((1, 1), (3,)) is None


def test_st_ready_search_budget_cutoff(monkeypatch):
    with pytest.raises(SearchBudgetExceeded):
        st_ready_search((1, 1, 1, 1), (2, 2), budget=0)
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "0")
    with pytest.raises(SearchBudgetExceeded):
        st_ready_search((1, 1, 1, 1), (2, 2))
    # an explicit argument wins over the environment
    assert st_ready_search((1, 1, 1, 1), (2, 2), budget=10_000) is not None


def _feed_search_states(monkeypatch):
    """The states of each feed search run, in run order."""
    states = []
    run = sequences._FillSearch.run

    def counted(search):
        try:
            return run(search)
        finally:
            states.append(search.states)

    monkeypatch.setattr(sequences._FillSearch, "run", counted)
    return states


def test_a_cut_on_a_later_order_quotes_the_callers_budget(monkeypatch):
    # with two squared norms each eigenvalue order gets a feed search: two
    # orders fail at 6 states each, so the third runs on the 2 states left;
    # the cut used to quote that remainder ("exceeded 2 states")
    states = _feed_search_states(monkeypatch)
    spectrum = [Fraction(v) for v in ("7/5", "6/5", "13/10", "11/10", "5/4", "3/4")]
    norms = [Fraction(3, 2), Fraction(1, 2)] + [1] * 5
    with pytest.raises(SearchBudgetExceeded, match=r"^readiness search exceeded 14 states$") as cut:
        st_ready_search(norms, spectrum, budget=14)
    assert states == [6, 6, 3]
    # states and budget are the caller's, reach that of the order that cut
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (14, 14, 1)
    # with one squared norm the floor-rule walk runs no feed search: it
    # enters 7/5, then fails four prefixes of two eigenvalues in turn, and
    # cuts on entering the fifth
    states.clear()
    with pytest.raises(SearchBudgetExceeded, match=r"^readiness search exceeded 5 states$") as cut:
        st_ready_search([1] * 7, spectrum, budget=5)
    assert states == []
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (5, 5, 1)


def test_a_cut_says_what_it_spent_against_which_budget():
    # one squared norm, so the floor-rule walk cuts: one state per prefix
    # it enters, reach the deepest eigenvalue index it tested. (1/2) and
    # (1/2, 2) are tested, and the walk cuts on entering (1/2, 2, 1/2)
    spectrum = (Fraction(1, 2), 2, Fraction(1, 2))
    with pytest.raises(SearchBudgetExceeded, match=r"^readiness search exceeded 2 states$") as cut:
        st_ready_search([1] * 3, spectrum, budget=2)
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (2, 2, 1)
    # the flat order of (2, 2) is ready on its second prefix
    with pytest.raises(SearchBudgetExceeded, match=r"^readiness search exceeded 1 states$") as cut:
        st_ready_search([1] * 4, [2, 2], budget=1)
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (1, 1, 0)
    assert st_ready_search([1] * 4, [2, 2], budget=2).partition == (2, 4)
    # two squared norms, so the generator walk cuts
    norms = [Fraction(3, 2), Fraction(1, 2), 1, 1, 1]
    with pytest.raises(SearchBudgetExceeded, match=r"^readiness search exceeded 4 states$") as cut:
        st_ready_search(norms, [Fraction(5, 2), Fraction(3, 2), 1], budget=4)
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (4, 4, 2)
    assert SearchBudgetExceeded("bare").states is None


def test_a_walk_that_ends_on_its_budget_answers(monkeypatch):
    states = _feed_search_states(monkeypatch)
    # a flat spectrum has one order, and the floor rule fails on its second
    # prefix: the walk is over, so spending the whole budget is no cut
    assert st_ready_search([Fraction(3, 2)] * 4, [2] * 3, budget=2) is None
    with pytest.raises(SearchBudgetExceeded, match=r"exceeded 1 states$"):
        st_ready_search([Fraction(3, 2)] * 4, [2] * 3, budget=1)
    # (1/2, 2, 1/2) takes six prefixes: (1/2), (1/2, 2), the failing
    # (1/2, 2, 1/2) and (1/2, 1/2), then (2) and the failing (2, 1/2); at
    # any budget below six a prefix is still to try, so the walk cuts
    spectrum = (Fraction(1, 2), 2, Fraction(1, 2))
    for budget in range(6):
        with pytest.raises(SearchBudgetExceeded, match=rf"exceeded {budget} states$"):
            st_ready_search([1] * 3, spectrum, budget=budget)
    assert st_ready_search([1] * 3, spectrum, budget=6) is None
    assert st_ready_search([1] * 3, spectrum, budget=7) is None
    # one squared norm runs no feed search
    assert states == []


def test_search_budget_resolution(monkeypatch):
    monkeypatch.delenv(SEARCH_BUDGET_ENV, raising=False)
    assert search_budget() == DEFAULT_SEARCH_BUDGET
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "123")
    assert search_budget() == 123
    assert search_budget(7) == 7


def test_distinct_orders_match_the_permutation_walk():
    # every multiset of at most 7 values drawn from 4, sorted and shuffled
    rng = random.Random(7)
    for size in range(1, 8):
        for multiset in itertools.combinations_with_replacement(range(1, 5), size):
            shuffled = list(multiset)
            rng.shuffle(shuffled)
            for values in (multiset, tuple(shuffled)):
                assert list(_distinct_value_orders(values)) == distinct_value_orders_oracle(values)


def test_flat_search_spends_one_order_not_m_factorial(monkeypatch):
    # a flat spectrum has one value order; walking all 10! index orders to
    # find it took 55 s at budget 1000. With one squared norm the floor-rule
    # walk tests two prefixes of it and yields no order
    assert st_ready_search([1] * 13, [Fraction(13, 10)] * 10, budget=2) is None
    with pytest.raises(SearchBudgetExceeded):
        st_ready_search([1] * 13, [Fraction(13, 10)] * 10, budget=1)
    yielded = []

    def counting(*args, **kwargs):
        for item in _distinct_value_orders(*args, **kwargs):
            yielded.append(item)
            yield item

    monkeypatch.setattr(sequences, "_distinct_value_orders", counting)
    assert st_ready_search([1] * 13, [Fraction(13, 10)] * 10, budget=1000) is None
    assert yielded == []
    # with two squared norms the one order gets one feed search
    norms = [Fraction(3, 2), Fraction(1, 2)] + [1] * 11
    assert st_ready_search(norms, [Fraction(13, 10)] * 10, budget=1000) is None
    assert len(yielded) == 1


def _walk_sending(values, depth):
    """The orders the walk yields when depth is sent in after each one."""
    walk = _distinct_value_orders(values)
    out = []
    try:
        item = next(walk)
        while True:
            out.append(item)
            item = walk.send(depth)
    except StopIteration:
        return out


def test_walk_skips_exactly_the_orders_sharing_the_sent_prefix():
    # same multisets as the permutation-walk test, every depth from 0 to M
    rng = random.Random(7)
    for size in range(1, 8):
        for multiset in itertools.combinations_with_replacement(range(1, 5), size):
            shuffled = list(multiset)
            rng.shuffle(shuffled)
            for values in (multiset, tuple(shuffled)):
                every = distinct_value_orders_oracle(values)
                for depth in range(size + 1):
                    seen = set()
                    kept = []
                    for perm, order in every:
                        if order[:depth] not in seen:
                            seen.add(order[:depth])
                            kept.append((perm, order))
                    assert _walk_sending(values, depth) == kept


def test_narrow_search_spends_one_order_per_failing_prefix(monkeypatch):
    # M = 8 with 6 distinct values inside (1, 3/2): 6,720 distinct orders,
    # each failing after reading two eigenvalues; the full walk ran out of
    # its 1,000 states before settling
    spectrum = [Fraction(v) for v in ("21/20", "11/10", "23/20", "6/5", "13/10", "7/5", "7/5", "7/5")]
    with pytest.raises(SearchBudgetExceeded):
        st_ready_search_oracle([1] * 10, spectrum, budget=1000)
    searches = []
    run = sequences._FillSearch.run

    def counted(search):
        searches.append(search)
        return run(search)

    monkeypatch.setattr(sequences._FillSearch, "run", counted)
    assert st_ready_search([1] * 10, spectrum, budget=1000) is None
    assert len(searches) <= 8 * 7


@given(
    st.lists(small_values, min_size=1, max_size=5),
    st.lists(small_values, min_size=1, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_search_agrees_with_oracle_on_tiny_instances(norms, spectrum):
    found = st_ready_search(norms, spectrum)
    assert (found is not None) == st_ready_oracle(norms, spectrum)
    if found is not None:
        permuted_norms = tuple(Fraction(norms[i]) for i in found.norm_order)
        permuted_eigs = tuple(Fraction(spectrum[i]) for i in found.eigenvalue_order)
        assert st_ready_check(permuted_norms, permuted_eigs, found.partition)


# -- maximal block number ----------------------------------------------------


def test_block_number_flat_and_integer_spectra():
    assert maximal_block_number((Fraction(11, 4),) * 4).mu == 1
    assert maximal_block_number((18, 6, 2, 10, 4)).mu == 5
    assert maximal_block_number((Fraction(3, 2),) * 4).mu == 2
    assert maximal_block_number((Fraction(28, 3),) * 3).mu == 1


def test_block_number_greedy_counterexample_is_handled_exactly():
    # two disjoint triples {4,2,3}/9 sum to 1 each, but the lexicographically
    # first integer triple {4,4,1}/9 poisons the rest; the exact route must
    # not fall for it
    ninth = [Fraction(k, 9) for k in (4, 4, 1, 2, 3, 2, 3)]
    result = maximal_block_number(ninth)
    assert result.mu == 2 == mu_oracle(ninth)
    assert not result.heuristic
    assert _integer_prefixes(ninth, _greedy(ninth)) == 1


def _greedy(spectrum):
    """The bounded greedy fallback's order, on the spectrum's residues in its unit."""
    unit, scaled = integer_units(as_spectrum(spectrum))
    return _mu_greedy([value % unit for value in scaled], unit)


def test_block_number_permutation_achieves_the_count():
    spectrum = (Fraction(5, 2), Fraction(3, 2), Fraction(7, 3), Fraction(2, 3), 4)
    result = maximal_block_number(spectrum)
    assert not result.heuristic
    assert sorted(result.permutation) == list(range(5))
    running = Fraction(0)
    count = 0
    for index in result.permutation:
        running += Fraction(spectrum[index])
        if running.denominator == 1:
            count += 1
    assert count == result.mu == mu_oracle(spectrum)


def test_block_number_goes_heuristic_past_the_dp_cap():
    result = maximal_block_number((1,) * 9)
    assert not result.heuristic
    assert result.mu == 9
    # forty distinct residues k/101: too many minimal zero-sum parts
    spectrum = [2 + Fraction(k, 101) for k in range(1, 41)]
    result = maximal_block_number(spectrum)
    assert result.heuristic
    assert sorted(result.permutation) == list(range(40))
    assert _integer_prefixes(spectrum, result.permutation) == result.mu


def _integer_prefixes(spectrum, permutation):
    running = Fraction(0)
    count = 0
    for index in permutation:
        running += Fraction(spectrum[index])
        if running.denominator == 1:
            count += 1
    return count


def _assert_exact_block_number(spectrum):
    result = maximal_block_number(spectrum)
    assert not result.heuristic
    assert result.mu == mu_subset_dp_oracle(spectrum)[0]
    assert sorted(result.permutation) == list(range(len(spectrum)))
    assert _integer_prefixes(spectrum, result.permutation) == result.mu


RESIDUES = [Fraction(k, d) for k, d in ((0, 1), (1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6))]


def test_block_number_residue_dp_matches_subset_dp_exhaustively():
    for size in range(1, 7):
        for parts in itertools.combinations_with_replacement(RESIDUES, size):
            _assert_exact_block_number([1 + r for r in parts])


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from(RESIDUES + [Fraction(2, 5), Fraction(3, 7)])),
        min_size=7,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_block_number_residue_dp_matches_subset_dp_for_larger_m(terms):
    _assert_exact_block_number([whole + r for whole, r in terms])


def _swept_block_count(spectrum):
    """The verifier's route to mu: a diagonal matrix whose rows square-sum to
    the spectrum, its sweep's integer row sums handed to _block_count."""
    eigs = as_spectrum(spectrum)
    entries = {(i, i): RadicalScalar.sqrt(value) for i, value in enumerate(eigs)}
    matrix = SynthesisMatrix(len(eigs), len(eigs), entries)
    return sequences._block_count(*Sweep(matrix).row_units)


def test_swept_block_count_equals_the_public_one_exhaustively():
    for size in range(1, 6):
        for parts in itertools.combinations_with_replacement(RESIDUES, size):
            spectrum = [1 + r for r in parts]
            assert _swept_block_count(spectrum) == maximal_block_number(spectrum)


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from(RESIDUES + [Fraction(2, 5), Fraction(3, 7)])),
        min_size=7,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_swept_block_count_equals_the_public_one_for_larger_m(terms):
    spectrum = [whole + r for whole, r in terms]
    result = _swept_block_count(spectrum)
    assert result == maximal_block_number(spectrum)
    assert result.mu == mu_subset_dp_oracle(spectrum)[0]


@given(
    st.lists(
        st.fractions(min_value="1/3", max_value=3, max_denominator=3), min_size=1, max_size=5
    )
)
@settings(max_examples=60, deadline=None)
def test_swept_block_count_matches_the_oracle(spectrum):
    result = _swept_block_count(spectrum)
    assert result == maximal_block_number(spectrum)
    assert result.mu == mu_oracle(spectrum)


def test_swept_block_count_equals_the_public_one_on_hostile_spectra():
    """The CI's three hostile residue spectra, heuristic flag and permutation too."""
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    for spectrum in (
        [2 + Fraction(1, p) for p in primes],
        [2 + Fraction(k, 97) for k in range(1, 49)],
        [2 + Fraction(k, 101) for k in range(1, 41)],
    ):
        assert _swept_block_count(spectrum) == maximal_block_number(spectrum)


def test_part_enumeration_weighs_its_work_by_the_residue_words():
    """The same classes scaled by 2^200 find the same parts. Word-sized
    residues count one unit per node and per subset sum, as they always
    have; the 4-word residues count 4 for each, and 3 more for each class a
    node scans for a child."""
    ints, counts, scale = [2, 3, 4, 6, 8, 9], (3, 2, 2, 2, 1, 2), 2**200
    works, wide_works = [], []
    for low in range(len(ints)):
        found, work = _minimal_zero_sum_parts(low, ints, counts, 12, 0)
        wide = [a * scale for a in ints]
        found_wide, work_wide = _minimal_zero_sum_parts(low, wide, counts, 12 * scale, 0)
        assert found_wide == found
        works.append(work)
        wide_works.append(work_wide)
    assert works == [300, 72, 60, 18, 12, 5]
    scans = [111, 41, 20, 7, 4, 2]  # classes scanned from each low
    assert wide_works == [4 * work + 3 * scan for work, scan in zip(works, scans)]


def test_many_small_classes_stay_exact_near_the_work_cap():
    """2 + k/60 for k = 1..44: 44 classes mod 60 whose exact count works
    close to _MU_WORK_CAP. Word-sized residues pay nothing for the classes
    a node scans, so the count stays exact."""
    result = maximal_block_number([2 + Fraction(k, 60) for k in range(1, 45)])
    assert (result.mu, result.heuristic) == (16, False)


def _counting_greedy_tries(monkeypatch):
    """Count the bounded index greedy's tries through sequences.islice, a
    name no other module reads."""
    tried = []

    def counting(iterable, stop):
        for item in itertools.islice(iterable, stop):
            tried.append(item)
            yield item

    monkeypatch.setattr(sequences, "islice", counting)
    return tried


def test_block_number_of_long_residues_stops_early(monkeypatch):
    """1/p^2 over the first 1,000 primes: one 22.5-kbit unit. Counted per
    unit, the exact walk once held sets of such residues until 10^6 units
    (2 s) and the greedy then tried 50,000 parts. The residues sum to less
    than one unit, so the residue-sum bound settles mu = 0 exactly, with no
    part walk and no greedy try."""
    primes = []
    n = 2
    while len(primes) < 1000:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    spectrum = [Fraction(1, p * p) for p in primes]
    tried = _counting_greedy_tries(monkeypatch)
    walks = []
    monkeypatch.setattr(sequences, "_minimal_zero_sum_parts", lambda *args: walks.append(args))
    start = time.perf_counter()
    result = maximal_block_number(spectrum)
    assert time.perf_counter() - start < WALL_BOUND_S
    assert result.mu == 0 and not result.heuristic
    assert sorted(result.permutation) == list(range(1000))
    assert tried == [] and walks == []


def test_block_number_greedy_budget_is_weighted_by_the_residue_words(monkeypatch):
    """2 + k/97 for k = 1..48 and one 2 + 1/(2^127 - 1): a 134-bit unit,
    three machine words. The residue-sum bound (12) is not met before the
    part walk passes the cap, so the bounded greedy answers, and it tries at
    most a third of its 50,000 parts. It finds 3 parts, and what it leaves
    over holds a fourth integer prefix (every eigenvalue but the last), so
    mu, read off the permutation, is 4."""
    spectrum = [2 + Fraction(k, 97) for k in range(1, 49)] + [2 + Fraction(1, 2**127 - 1)]
    unit, _scaled = integer_units(as_spectrum(spectrum))
    assert sequences._words(unit) == 3
    tried = _counting_greedy_tries(monkeypatch)
    result = maximal_block_number(spectrum)
    assert (result.mu, result.heuristic) == (4, True)
    assert _integer_prefixes(spectrum, result.permutation) == result.mu
    assert sorted(result.permutation) == list(range(49))
    assert 0 < len(tried) <= sequences._MU_GREEDY_COMBINATIONS // 3


def test_minimal_zero_sum_parts_are_exactly_the_minimal_ones():
    # residues in twelfths: every sub-multiset within the counts whose
    # lowest class is low, sums to an integer and has no proper nonempty
    # integer-sum sub-multiset, each listed once
    ints = [2, 3, 4, 6, 8, 9]
    counts = (3, 2, 2, 2, 1, 2)
    for low in range(len(ints)):
        expected = []
        for vector in itertools.product(*(range(c + 1) for c in counts)):
            if any(vector[:low]) or not vector[low] or sum(v * a for v, a in zip(vector, ints)) % 12:
                continue
            subs = itertools.product(*(range(v + 1) for v in vector))
            if all(
                not any(sub) or sub == vector or sum(u * a for u, a in zip(sub, ints)) % 12
                for sub in subs
            ):
                expected.append(vector)
        found, _work = _minimal_zero_sum_parts(low, ints, counts, 12, 0)
        assert sorted(found) == sorted(expected)
        assert len(found) == len(set(found))


def test_block_number_flat_spectrum_collapses_to_floor():
    start = time.perf_counter()
    result = maximal_block_number([Fraction(5, 3)] * 1500)
    assert time.perf_counter() - start < WALL_BOUND_S
    assert result.mu == 500
    assert not result.heuristic


def test_block_number_hostile_residues_end_flagged_and_bounded():
    """The greedy fallback sums int residues mod the unit; it tries the same
    combinations in the same order as the greedy that summed Fractions."""
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    for spectrum in (
        [2 + Fraction(1, p) for p in primes],
        [2 + Fraction(k, 97) for k in range(1, 49)],
        [2 + Fraction(k, 101) for k in range(1, 41)],
    ):
        start = time.perf_counter()
        result = maximal_block_number(spectrum)
        assert time.perf_counter() - start < WALL_BOUND_S
        assert result.heuristic
        assert _integer_prefixes(spectrum, result.permutation) == result.mu
        assert (result.mu, result.permutation) == mu_greedy_oracle(spectrum)


def test_block_number_pairs_complementary_residues_exactly():
    """k/97 and (97 - k)/97 for every k: 48 pairs, no DP left. Without the
    pairing this spectrum passed the work cap and went to the greedy."""
    spectrum = [2 + Fraction(k, 97) for k in range(1, 97)]
    start = time.perf_counter()
    result = maximal_block_number(spectrum)
    assert time.perf_counter() - start < WALL_BOUND_S
    assert not result.heuristic
    assert result.mu == 48
    assert _integer_prefixes(spectrum, result.permutation) == 48


@st.composite
def _planted_spectra(draw):
    """Up to 10 eigenvalues from planted groups: a residue p/q with its
    complement 1 - p/q, a run of halves, or a residue with no partner
    planted."""
    spectrum = []
    while len(spectrum) < 10 and (not spectrum or draw(st.booleans())):
        q = draw(st.integers(2, 12))
        p = draw(st.integers(1, q - 1))
        whole = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(["pair", "halves", "lone"]))
        if kind == "pair":
            spectrum += [whole + Fraction(p, q), draw(st.integers(0, 3)) + Fraction(q - p, q)]
        elif kind == "halves":
            spectrum += [whole + Fraction(1, 2)] * draw(st.integers(1, 4))
        else:
            spectrum.append(whole + Fraction(p, q))
    return draw(st.permutations(spectrum[:10]))


@given(_planted_spectra())
@settings(max_examples=80, deadline=None)
def test_block_number_with_planted_complements_matches_subset_dp(spectrum):
    _assert_exact_block_number(spectrum)


def test_block_number_forms_no_fraction_arithmetic_after_validation(monkeypatch):
    """An M = 20 spectrum of the bench's wide shape (integers 2-4 plus 0,
    1/2, 1/3 or 1/4, and a last eigenvalue that makes the total an integer)
    runs on int residues alone: no Fraction sum, difference or comparison."""
    rng = random.Random(20)
    fractional = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    spectrum = [rng.randint(2, 4) + rng.choice(fractional) for _ in range(19)]
    total = sum(spectrum)
    spectrum.append(rng.randint(2, 3) + (math.ceil(total) - total))
    eigs = as_spectrum(sorted(spectrum, reverse=True))
    expected = maximal_block_number(eigs)
    calls = []
    arithmetic = ("__add__", "__radd__", "__sub__", "__rsub__")
    for name in arithmetic + ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        method = getattr(Fraction, name)

        def counting(self, other, name=name, method=method):
            calls.append(name)
            return method(self, other)

        monkeypatch.setattr(Fraction, name, counting)
    result = maximal_block_number(eigs)
    monkeypatch.undo()
    assert calls == []
    assert result == expected and not result.heuristic
    assert _integer_prefixes(eigs, result.permutation) == result.mu


def test_block_number_coprime_shapes_hold_one_part():
    # every fractional part c/M with gcd(c, M) = 1: only all M together
    # sum to an integer
    for m in (11, 12, 13, 14):
        for c in range(1, m):
            if Fraction(c, m).denominator != m:
                continue
            spectrum = [2 + i % 3 + Fraction(c, m) for i in range(m)]
            result = maximal_block_number(spectrum)
            assert result.mu == 1
            assert not result.heuristic


@given(st.lists(st.fractions(min_value="1/3", max_value=3, max_denominator=3), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_block_number_matches_oracle(spectrum):
    result = maximal_block_number(spectrum)
    assert not result.heuristic
    assert result.mu == mu_oracle(spectrum)


# -- unit-norm tight frame feasibility ---------------------------------------


def test_untf_feasible_table():
    expected = {
        (4, 5): False,
        (4, 6): True,
        (4, 7): True,
        (4, 8): True,
        (3, 4): False,
        (3, 5): True,
        (5, 8): False,
        (5, 9): True,
        (1, 1): True,
        (1, 2): True,
    }
    for (dim, count), feasible in expected.items():
        assert untf_feasible(dim, count) is feasible, (dim, count)


def test_untf_feasible_input_errors():
    with pytest.raises(Underdetermined):
        untf_feasible(3, 2)
    with pytest.raises(ValueError):
        untf_feasible(0, 1)


def test_counts_and_dimensions_must_be_integers():
    """A count or dimension is read through __index__: a float or a
    Fraction is refused with a ValueError naming the argument."""
    spectrum = (Fraction(5, 2),) * 2
    for call, name in (
        (lambda: untf_feasible(2.0, 5), "dimension"),
        (lambda: untf_feasible(Fraction(2), 4), "dimension"),
        (lambda: untf_floor_condition(3, 4.0), "count"),
        (lambda: sfr_feasible(spectrum, 5.0), "count"),
        (lambda: tight_sufficient((2, 1), 1.0), "dimension"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got "):
            call()
    with pytest.raises(ValueError, match=r"^count must be a positive integer, got 0$"):
        sfr_feasible(spectrum, 0)
    import numpy as np

    assert untf_feasible(np.int64(2), np.int64(5))
    assert sfr_feasible(spectrum, np.int64(5)) is not None


def test_a_search_budget_must_be_an_integer():
    assert search_budget(True) == 1
    with pytest.raises(ValueError, match=r"^search budget '9' is not an integer$"):
        search_budget("9")
    with pytest.raises(ValueError, match=r"^search budget 9\.0 is not an integer$"):
        st_ready_search((1, 2), (3,), 9.0)


def test_spectra_and_norms_refuse_non_numbers_and_infinities():
    """None, an infinity and a NaN end in ValueError naming the position,
    not in the TypeError or OverflowError of Fraction."""
    inf, nan = float("inf"), float("nan")
    with pytest.raises(ValueError, match=r"^eigenvalue inf at position 0 is not a finite number$"):
        sfr_feasible([inf], 1)
    with pytest.raises(ValueError, match=r"^eigenvalue None at position 1 is not a finite number$"):
        as_spectrum([1, None])
    with pytest.raises(ValueError, match=r"^eigenvalue nan at position 0 is not a finite number$"):
        maximal_block_number([nan])
    with pytest.raises(ValueError, match=r"^squared norm -inf at position 2 is not a finite number$"):
        as_norms_squared([1, 2, -inf])
    with pytest.raises(ValueError, match=r"^eigenvalue None at position 0 is not a finite number$"):
        st_ready_search([1], [None])
    with pytest.raises(ValueError, match=r"^squared norm 'x' at position 0 is not a finite number$"):
        st_ready_check(["x"], [1], [1])
    # a generator is read once, whether its values convert or not
    assert as_spectrum(Fraction(k, 2) for k in (1, 3)) == (Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ValueError, match=r"^eigenvalue None at position 1 is not a finite number$"):
        as_spectrum(v for v in (1, None))


def test_floor_condition_band_and_values():
    assert untf_floor_condition(4, 7)
    assert not untf_floor_condition(4, 5)
    with pytest.raises(OutOfRange):
        untf_floor_condition(4, 4)
    with pytest.raises(OutOfRange):
        untf_floor_condition(4, 8)


# -- 2-sparse frames with prescribed spectrum --------------------------------


def test_sfr_feasible_golden_partition():
    cert = sfr_feasible((Fraction(13, 3), Fraction(10, 3), Fraction(7, 3)), 10)
    assert cert is not None
    assert cert.partition == (4, 7, 10)
    assert cert.eigenvalue_order == (0, 1, 2)


def test_sfr_feasible_sum_mismatch():
    with pytest.raises(SumMismatch):
        sfr_feasible((1, 1), 3)


def test_sfr_feasible_none_when_every_order_jams():
    assert sfr_feasible((Fraction(1, 2), Fraction(1, 2), 1), 2) is None


def test_sfr_feasible_checks_the_jump_to_the_last_cut():
    # the given order's only cut sits at floor(3/2) = 1 after a fractional
    # prefix, one short of the jump to N = 2; the reverse order works
    cert = sfr_feasible((Fraction(3, 2), Fraction(1, 2)), 2)
    assert cert.eigenvalue_order == (1, 0)
    assert cert.partition == (0, 2)


# 20 distinct eigenvalues inside (1, 3/2), and 11 distinct values over 22
# vectors: no order is ready, and walking every distinct order (the former
# search) did not end within 20 s on the latter
HOSTILE_SPECTRA = (
    ([1 + Fraction(k, 50) for k in range(3, 23)], 25),
    ([Fraction(v) for v in "1271/970 7/3 1087/970 489/194 197/97 294/97 592/485 3 196/97 195/97 "
      "4079/2910".split()], 22),
)


@pytest.mark.parametrize("spectrum, count", HOSTILE_SPECTRA)
def test_sfr_feasible_settles_hostile_spectra_in_bounded_time(spectrum, count):
    start = time.perf_counter()
    assert sfr_feasible(spectrum, count) is None
    with pytest.raises(Infeasible):
        sfr(spectrum, count)
    assert time.perf_counter() - start < WALL_BOUND_S


def test_st_ready_search_settles_twenty_distinct_narrow_eigenvalues():
    spectrum, count = HOSTILE_SPECTRA[0]
    start = time.perf_counter()
    assert st_ready_search([1] * count, spectrum, budget=1000) is None
    assert time.perf_counter() - start < WALL_BOUND_S


def test_sfr_feasible_raises_past_the_search_budget(monkeypatch):
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "1")
    with pytest.raises(SearchBudgetExceeded) as cut:
        sfr_feasible((Fraction(1, 2), Fraction(1, 2), 1), 2)
    # the order walk reads no rows
    assert (cut.value.states, cut.value.budget, cut.value.reach) == (1, 1, None)
    with pytest.raises(SearchBudgetExceeded):
        sfr(*HOSTILE_SPECTRA[1])
    # the identity order of two eigenvalues needs two states
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "2")
    assert sfr_feasible((2, 2), 4).eigenvalue_order == (0, 1)


def test_sfr_feasible_long_identity_order():
    start = time.perf_counter()
    cert = sfr_feasible([2] * 1500, 3000)
    assert time.perf_counter() - start < WALL_BOUND_S
    assert cert.eigenvalue_order == tuple(range(1500))
    assert cert.partition == tuple(range(2, 3001, 2))


# -- sufficient conditions ----------------------------------------------------


def test_pnstc_sufficient_accepts_the_reordering_example():
    assert pnstc_sufficient((1, 2, 3, 3, 4, 4), (8, 9))


def test_pnstc_sufficient_is_one_sided():
    # ready (place 9+1 then 9+1), yet the largest-pair test fails
    norms = (1, 1, 9, 9)
    assert not pnstc_sufficient(norms, (10, 10))
    assert st_ready_search(norms, (10, 10)) is not None


def test_pnstc_sufficient_requires_sorted_inputs():
    with pytest.raises(ValueError):
        pnstc_sufficient((2, 1), (3,))
    with pytest.raises(ValueError):
        pnstc_sufficient((1, 2), (3, 2))


def test_pnstc_sufficient_short_or_mismatched_sequences():
    assert not pnstc_sufficient((5,), (5,))  # fewer than 2M norms
    assert not pnstc_sufficient((1, 2), (1, 1))  # totals differ


def test_tight_sufficient():
    assert tight_sufficient((4, 4, 3, 3, 2, 2), 2)
    assert not tight_sufficient((4, 4, 3, 3, 2, 2), 3)
    assert tight_sufficient((5,), 1)
    with pytest.raises(ValueError):
        tight_sufficient((1, 2), 2)
    with pytest.raises(ValueError):
        tight_sufficient((2, 1), 0)


def test_a_negative_search_budget_is_refused(monkeypatch):
    monkeypatch.delenv(SEARCH_BUDGET_ENV, raising=False)
    with pytest.raises(ValueError, match=r"^search budget must be a nonnegative integer, got -5$"):
        st_ready_search([1, 2], [3], -5)
    with pytest.raises(ValueError, match=r"^search budget must be a nonnegative integer, got -1$"):
        search_budget(-1)
    # 0 stays a budget: the search cuts on its first state
    assert search_budget(0) == 0
    with pytest.raises(SearchBudgetExceeded):
        st_ready_search([1, 2], [3], 0)


def test_a_negative_search_budget_in_the_environment_is_refused(monkeypatch):
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "-5")
    message = rf"^{SEARCH_BUDGET_ENV} must be a nonnegative integer, got -5$"
    with pytest.raises(ValueError, match=message):
        search_budget()
    with pytest.raises(ValueError, match=message):
        sfr_feasible([Fraction(5, 2), Fraction(5, 2)], 5)
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "0")
    assert search_budget() == 0


def test_a_search_budget_in_the_environment_must_be_an_integer(monkeypatch):
    monkeypatch.setenv(SEARCH_BUDGET_ENV, "abc")
    message = rf"^{SEARCH_BUDGET_ENV}='abc' is not an integer$"
    with pytest.raises(ValueError, match=message):
        search_budget()
    with pytest.raises(ValueError, match=message):
        st_ready_search([1, 2], [3])
    # an argument overrides the environment, as it always has
    assert search_budget(4) == 4


def test_majorizes_refuses_non_numbers_and_infinities():
    with pytest.raises(ValueError, match=r"^dominant value None at position 0 is not a finite number$"):
        majorizes([None], [1])
    with pytest.raises(ValueError, match=r"^dominant value inf at position 1 is not a finite number$"):
        majorizes([1, float("inf")], [1])
    with pytest.raises(ValueError, match=r"^dominated value 'x' at position 0 is not a finite number$"):
        majorizes([1], ["x"])
    assert majorizes([2, 0.5], [Fraction(5, 4), Fraction(5, 4)])


def test_block_number_dp_deeper_than_the_recursion_limit(monkeypatch):
    """3,000 eigenvalues 2 + 2/7 and one 2 + 4/7 leave two residue classes
    that do not pair off. The class greedy finds 428 parts, short of the
    residue-sum bound 857, so the DP runs about 3,000 states deep, past the
    interpreter's recursion limit; the answer stays exact. 3,000 of 2 + 1/7
    and one 2 + 2/7 meet their bound (428) by the greedy alone."""
    calls = []
    original = sequences._residue_dp

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(sequences, "_residue_dp", counting)
    spectrum = [2 + Fraction(2, 7)] * 3000 + [2 + Fraction(4, 7)]
    result = maximal_block_number(spectrum)
    assert (result.mu, result.heuristic) == (428, False)
    assert _integer_prefixes(spectrum, result.permutation) == 428
    assert calls == [(3000, 1)]
    spectrum = [2 + Fraction(1, 7)] * 3000 + [2 + Fraction(2, 7)]
    result = maximal_block_number(spectrum)
    assert (result.mu, result.heuristic) == (428, False)
    assert _integer_prefixes(spectrum, result.permutation) == 428
    assert calls == [(3000, 1)]


def test_block_number_dp_states_pass_the_work_cap_before_the_parts(monkeypatch):
    """25 copies each of 2 + k/13, k = 1..4: the minimal parts through every
    class cost far below the cap, and the DP's 26^4 states would pass it.
    The residues sum to 250 units of 1/13, so mu <= 19, and the class
    greedy takes 19 parts: mu = 19, exact, with no DP."""
    spent = []

    def parts(*args):
        found, work = _minimal_zero_sum_parts(*args)
        spent.append(work)
        return found, work

    def no_dp(*args):
        raise AssertionError("the residue DP ran")

    monkeypatch.setattr(sequences, "_minimal_zero_sum_parts", parts)
    monkeypatch.setattr(sequences, "_residue_dp", no_dp)
    spectrum = [2 + Fraction(k, 13) for k in range(1, 5) for _ in range(25)]
    start = time.perf_counter()
    result = maximal_block_number(spectrum)
    assert time.perf_counter() - start < 0.5
    assert (result.mu, result.heuristic) == (19, False)
    assert _integer_prefixes(spectrum, result.permutation) == 19
    assert spent and max(spent) < sequences._MU_WORK_CAP // 100


def test_block_number_dp_passes_the_work_cap_when_the_greedy_falls_short(monkeypatch):
    """20 copies each of 2 + k/13, k = 7..10: the part walk is cheap and the
    class greedy takes 21 parts, short of the bound 26, so the DP runs and
    its own states pass the cap. The bounded index greedy's order reaches
    only 19 integer prefixes (16 parts it found and 3 more in what it left
    over), so the class greedy's 21 answer, flagged heuristic."""
    cut = []
    original = sequences._residue_dp

    def watching(*args):
        try:
            return original(*args)
        except sequences._MuWorkExceeded:
            cut.append(args[4])
            raise

    monkeypatch.setattr(sequences, "_residue_dp", watching)
    spectrum = [2 + Fraction(k, 13) for k in range(7, 11) for _ in range(20)]
    result = maximal_block_number(spectrum)
    assert (result.mu, result.heuristic) == (21, True)
    assert _integer_prefixes(spectrum, result.permutation) == 21
    assert sorted(result.permutation) == list(range(80))
    assert mu_greedy_oracle(spectrum)[0] == 19
    assert _integer_prefixes(spectrum, _greedy(spectrum)) == 19
    assert len(cut) == 1 and 0 < cut[0] < sequences._MU_WORK_CAP // 100


def test_bench_shaped_row_sums_settle_without_the_dp(monkeypatch):
    """Row sums in twelfths with residues 0 x3, 3 x5, 4 x4, 6 and 11 (M =
    14): three integer rows, no complementary pair, and the residue-sum
    bound min(48 // 12, 11 // 3) = 3 is met by the class greedy's {3, 3, 6},
    {4, 4, 4} and {3, 3, 3, 4, 11}. So mu = 6 with no residue DP."""
    calls = []
    monkeypatch.setattr(sequences, "_residue_dp", lambda *args: calls.append(args))
    residues = [0] * 3 + [3] * 5 + [4] * 4 + [6, 11]
    scaled = [24 + r for r in residues]
    result = sequences._block_count(12, scaled)
    assert (result.mu, result.heuristic) == (6, False)
    assert calls == []
    spectrum = [Fraction(value, 12) for value in scaled]
    assert _integer_prefixes(spectrum, result.permutation) == 6


@st.composite
def _unpaired_spectra(draw):
    """Up to 10 eigenvalues whose fractional parts come from one denominator,
    so that several unpaired classes remain for the bound and the greedy."""
    q = draw(st.sampled_from([5, 7, 8, 9, 11, 12, 13]))
    numerators = st.integers(0, q - 1)
    terms = draw(st.lists(st.tuples(st.integers(1, 3), numerators), min_size=3, max_size=10))
    return [whole + Fraction(k, q) for whole, k in terms]


@given(_unpaired_spectra())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_class_greedy_and_residue_bound_enclose_the_block_number(spectrum):
    """greedy <= mu <= bound on what is left after the integers and pairs,
    and mu equals the subset DP oracle."""
    seen = []
    packing, greedy = sequences._zero_sum_packing, sequences._class_greedy

    def packing_spy(ints, counts, modulus, room):
        parts, exact = packing(ints, counts, modulus, room)
        seen.append(("packed", len(parts), room))
        return parts, exact

    def greedy_spy(parts, counts, room):
        chosen = greedy(parts, counts, room)
        seen.append(("greedy", len(chosen), room))
        return chosen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_zero_sum_packing", packing_spy)
        patch.setattr(sequences, "_class_greedy", greedy_spy)
        result = maximal_block_number(spectrum)
    assert not result.heuristic
    assert result.mu == mu_subset_dp_oracle(spectrum)[0]
    assert _integer_prefixes(spectrum, result.permutation) == result.mu
    (_, packed, room) = seen[-1]
    assert packed <= room
    for kind, taken, bound in seen[:-1]:
        assert kind == "greedy" and taken <= packed and bound == room


@pytest.mark.parametrize("cap", [30, 200, 2_000])
@given(spectrum=_unpaired_spectra())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_number_past_a_small_work_cap_is_its_permutations_count(cap, spectrum):
    """With the work cap forced low, the part walk or the DP passes it and
    the heuristic paths answer: mu is still its permutation's count of
    integer prefixes, and never more than the subset DP oracle's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_MU_WORK_CAP", cap)
        result = maximal_block_number(spectrum)
    assert sorted(result.permutation) == list(range(len(spectrum)))
    assert _integer_prefixes(spectrum, result.permutation) == result.mu
    assert result.mu <= mu_subset_dp_oracle(spectrum)[0]
