"""The pruned readiness searches against the searches that tried every order.

Both readiness searches skip the eigenvalue orders that share a failing
prefix, and sfr_feasible also skips prefixes whose used values admit no
completion. None of that may change an answer: on every multiset of up to
seven eigenvalues over small palettes, each certificate must equal the one
the former searches (kept verbatim in _oracles) give, field by field, and
st_ready_search must never spend more feed-search states than they did.
Nor may running the feed search on integers in one common unit: on random
norms and spectra over mixed denominators, st_ready_search must give the
certificate, states and cut of the search whose states held Fractions.
Nor may deciding readiness with one squared norm by the floor rule: it
must give the certificate or None of the generator walk, and both it and
sfr_feasible the first ready order and partition of a walk over every
index permutation. That walk charges one state per prefix it enters
(floor_walk_oracle counts them), and at every budget below what a walk
needs the answer is a cut, never None. Nor may reading a multi-norm
certificate's partition off prefix sums: it must equal the replay of the
fill's moves over the feed that it replaced. Nor may st_ready_check reading
the partition by that definition, nor the maximal block number's residue
DP running its states as drive() visits: each must answer as its former
version, kept verbatim in _oracles.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    Infeasible,
    InvalidPartition,
    SearchBudgetExceeded,
    SumMismatch,
    equal_norm_frame,
    maximal_block_number,
    sfr_feasible,
    st_ready_check,
    st_ready_search,
)
from spectral_tetris import sequences
from spectral_tetris.sequences import STReadyCertificate, as_norms_squared, as_spectrum

import _oracles
from _oracles import (
    feed_partition_replay_oracle,
    first_ready_order_oracle,
    floor_walk_oracle,
    fraction_st_ready_search_oracle,
    sfr_feasible_oracle,
    st_ready_search_oracle,
)

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
    pruned = _StateCount(monkeypatch, sequences._FillSearch)
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


def test_sfr_feasible_and_unit_norm_readiness_are_one_decision():
    """A unit-norm frame is buildable exactly when the unit norms are ready,
    and both searches find the same order and partition."""
    certificates = 0
    for multiset in itertools.chain.from_iterable(map(_multisets, PALETTES)):
        total = sum(multiset)
        if total.denominator != 1:
            continue
        for spectrum in _orderings(multiset):
            found = sfr_feasible(spectrum, total.numerator)
            ready = st_ready_search([1] * total.numerator, spectrum, LARGE_BUDGET)
            if found is None:
                assert ready is None, spectrum
            else:
                certificates += 1
                assert (found.eigenvalue_order, found.partition) == (
                    ready.eigenvalue_order,
                    ready.partition,
                ), spectrum
    assert certificates > 50


def test_sfr_feasible_remembers_no_prefix_its_own_order_broke():
    # (3/2, 1/2) breaks the floor rule as a prefix, but (1/2, 3/2) with the
    # same values passes and completes with 2: the walk must not mark those
    # used values dead when the first order fails
    cert = sfr_feasible((F(3, 2), F(1, 2), F(2)), 4)
    assert cert.eigenvalue_order == (1, 0, 2)
    assert cert == sfr_feasible_oracle((F(3, 2), F(1, 2), F(2)), 4)


@st.composite
def mixed_denominator_inputs(draw):
    """Norms over 1 to 3 denominators in 2..30 (coprime ones included) and a
    spectrum of the same total: sums of consecutive norms in a random order,
    then sometimes a rational of another denominator moved between two
    eigenvalues; or equal norms of any count on such a spectrum."""
    denominators = draw(st.lists(st.integers(2, 30), min_size=1, max_size=3))
    size = draw(st.integers(2, 9))
    norms = [
        F(draw(st.integers(1, 3 * d)), d)
        for d in draw(st.lists(st.sampled_from(denominators), min_size=size, max_size=size))
    ]
    fed = draw(st.permutations(norms))
    bounds = [0] + [i for i in range(1, size) if draw(st.booleans())] + [size]
    spectrum = [sum(fed[a:b]) for a, b in zip(bounds, bounds[1:])]
    if len(spectrum) > 1 and draw(st.booleans()):
        giver, taker = draw(st.permutations(range(len(spectrum))))[:2]
        shift = F(draw(st.integers(1, 30)), draw(st.integers(2, 30)))
        if shift < spectrum[giver]:
            spectrum[giver] -= shift
            spectrum[taker] += shift
    if draw(st.booleans()):
        count = draw(st.integers(1, 10))
        norms = [sum(spectrum) / count] * count
    budget = draw(st.one_of(st.integers(1, 60), st.just(2_000)))
    return norms, draw(st.permutations(spectrum)), budget


def _answer(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded as cut:
        return str(cut)


@given(mixed_denominator_inputs())
@settings(max_examples=500, deadline=None)
def test_st_ready_search_equals_the_fraction_search_at_random(case):
    _assert_as_the_fraction_search(*case)


def _assert_as_the_fraction_search(norms, spectrum, budget):
    with pytest.MonkeyPatch.context() as patch:
        ints = _StateCount(patch, sequences._FillSearch)
        fractions = _StateCount(patch, _oracles.FractionFeedSearchOracle)
        found = _answer(st_ready_search, norms, spectrum, budget)
        expected = _answer(fraction_st_ready_search_oracle, norms, spectrum, budget)
    if len(set(norms)) == 1:
        # one squared norm: the floor-rule walk runs no feed search and
        # charges one state per eigenvalue prefix it enters
        order, depths = floor_walk_oracle(spectrum, norms[0])
        assert ints.states == 0
        if budget < len(depths):
            assert found == f"readiness search exceeded {budget} states"
        elif order is None:
            assert found is None
        else:
            assert found.eigenvalue_order == order
            assert found.norm_order == tuple(range(len(norms)))
        if not isinstance(expected, str) and not isinstance(found, str):
            assert found == expected
    elif isinstance(expected, str) and found is None:
        # the one change: a walk that ended on the budget's last state was
        # reported as a cut
        assert fractions.states == ints.states == budget
    elif isinstance(expected, str):
        # the cut now quotes the caller's budget, not what an order had left
        assert found == f"readiness search exceeded {budget} states"
        assert ints.states == budget + 1
    else:
        assert found == expected
        assert ints.states == fractions.states


# norms of the single-norm sweep, and a third palette over thirds, sixths,
# quarters and fifths
SINGLE_NORMS = (F(1), F(1, 2), F(2, 3), F(3, 2))
MIXED_PALETTES = PALETTES + ((F(2, 3), F(5, 6), F(7, 4), F(9, 5)),)


def _single_norm_cases():
    """(spectrum, norm, column count) over every multiset of up to six
    eigenvalues of MIXED_PALETTES, in three orders, and each of
    SINGLE_NORMS that divides the total a whole number of times."""
    for palette in MIXED_PALETTES:
        for spectrum in itertools.chain.from_iterable(map(_orderings, _multisets(palette))):
            if len(spectrum) > 6:
                continue
            for norm in SINGLE_NORMS:
                count = sum(spectrum) / norm
                if count.denominator == 1:
                    yield spectrum, norm, count.numerator


def _generator_walk(norms, spectrum):
    """Multi-norm st_ready_search's route run on these norms whatever their
    number: each distinct eigenvalue order gets a _FillSearch run by drive(),
    and a failed one skips the orders sharing the prefix it read."""
    _, units, eigs = sequences.integer_units(as_norms_squared(norms), as_spectrum(spectrum))
    values = tuple(dict.fromkeys(units))
    walk = sequences._distinct_value_orders(eigs)
    skip = None
    while True:
        try:
            perm, permuted = walk.send(skip)
        except StopIteration:
            return None
        search = sequences._FillSearch(
            permuted, values, [units.count(v) for v in values], None, LARGE_BUDGET, "cut",
            bridge_empty_rows=False,
        )
        if sequences.drive(search._fill(0, permuted[0])):
            feed = [values[tag] for tag in search.order]
            return STReadyCertificate(
                norm_order=sequences._assign_indices(units, feed),
                eigenvalue_order=perm,
                partition=sequences._feed_partition(permuted, feed),
            )
        skip = search.reach + 1


def test_single_norm_readiness_is_the_generator_walk():
    """With one squared norm st_ready_search decides readiness by the floor
    rule. On every multiset of up to six eigenvalues over mixed-denominator
    palettes, in three orders, with squared norms 1, 1/2, 2/3 and 3/2, it
    must give the certificate or None of the generic fill search walked by
    drive(), and at budgets 1, 3 and 2,000 the answer or cut the walk's
    charge implies, with the Fraction search's certificate where that
    search settles."""
    compared = found = 0
    for spectrum, norm, count in _single_norm_cases():
        norms = [norm] * count
        expected = _generator_walk(norms, spectrum)
        assert st_ready_search(norms, spectrum, LARGE_BUDGET) == expected, (spectrum, norm)
        compared += 1
        found += expected is not None
        for budget in (1, 3, SMALL_BUDGET):
            _assert_as_the_fraction_search(norms, spectrum, budget)
    assert compared > 300 and found > 100, (compared, found)


def test_single_norm_searches_return_the_first_ready_permutation():
    """sfr_feasible, and st_ready_search with one squared norm, return the
    order and partition of the first index permutation, in lexicographic
    order, on which the columns are ready."""
    compared = found = 0
    for spectrum, norm, count in _single_norm_cases():
        expected = first_ready_order_oracle(norm, count, spectrum)
        certificate = st_ready_search([norm] * count, spectrum, LARGE_BUDGET)
        if expected is None:
            assert certificate is None, (spectrum, norm)
        else:
            assert (certificate.eigenvalue_order, certificate.partition) == expected
            found += 1
        if norm == 1:
            unit_norm = sfr_feasible(spectrum, count)
            if expected is None:
                assert unit_norm is None, spectrum
            else:
                assert (unit_norm.eigenvalue_order, unit_norm.partition) == expected
        compared += 1
    assert compared > 300 and found > 100, (compared, found)


def _cut_or_answer(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded as cut:
        return cut


def test_every_budget_below_what_a_walk_needs_cuts(monkeypatch):
    """At every budget below the states a walk needs the answer is a cut
    quoting that budget, never None, and at that many states the walk
    answers. The floor-rule walks need the prefixes floor_walk_oracle
    enters, and a single-norm cut reaches the deepest index tested; the
    multi-norm walk needs the states its feed searches spend."""
    walks = 0
    for spectrum, norm, count in _single_norm_cases():
        _, depths = floor_walk_oracle(spectrum, norm)
        needed = len(depths)
        norms = [norm] * count
        answer = st_ready_search(norms, spectrum, needed)
        for budget in range(needed):
            cut = _cut_or_answer(st_ready_search, norms, spectrum, budget)
            assert isinstance(cut, SearchBudgetExceeded), (spectrum, norm, budget)
            assert str(cut) == f"readiness search exceeded {budget} states"
            assert (cut.states, cut.budget, cut.reach) == (
                budget, budget, max(depths[:budget], default=0)
            )
        if norm == 1:
            for budget in range(needed + 1):
                monkeypatch.setenv(sequences.SEARCH_BUDGET_ENV, str(budget))
                found = _cut_or_answer(sfr_feasible, spectrum, count)
                if budget < needed:
                    assert isinstance(found, SearchBudgetExceeded), (spectrum, budget)
                    assert str(found) == f"eigenvalue order walk exceeded {budget} states"
                    assert (found.states, found.budget, found.reach) == (budget, budget, None)
                else:
                    assert (found is None) == (answer is None), spectrum
            monkeypatch.delenv(sequences.SEARCH_BUDGET_ENV)
        walks += 1
    for spectrum in itertools.chain.from_iterable(map(_multisets, PALETTES[:1])):
        norms = _mixed_norms(sum(spectrum))
        if norms is None or len(spectrum) > 5:
            continue
        with pytest.MonkeyPatch.context() as patch:
            spent = _StateCount(patch, sequences._FillSearch)
            answer = st_ready_search(norms, spectrum, LARGE_BUDGET)
        for budget in range(spent.states):
            cut = _cut_or_answer(st_ready_search, norms, spectrum, budget)
            assert isinstance(cut, SearchBudgetExceeded), (spectrum, budget)
            assert (str(cut), cut.states, cut.budget) == (
                f"readiness search exceeded {budget} states", budget, budget
            )
        assert st_ready_search(norms, spectrum, spent.states) == answer
        walks += 1
    assert walks > 400, walks


def test_the_mixed_denominator_equal_norm_case_spends_its_states(monkeypatch):
    """The equal-norm case CI runs: its squared norm is 1, so the floor-rule
    walk decides it, Infeasible, on 901 states (the fill searches spent
    25,072), and no feed search runs."""
    ints = _StateCount(monkeypatch, sequences._FillSearch)
    spectrum = [F(v) for v in "13/7 1824/1001 23/13 19/11 12/7 11/7 17/11 20/13 16/11".split()]
    assert len(floor_walk_oracle(spectrum, 1)[1]) == 901
    with pytest.raises(Infeasible):
        equal_norm_frame(spectrum, 15, budget=901)
    with pytest.raises(SearchBudgetExceeded, match=r"^readiness search exceeded 900 states$"):
        equal_norm_frame(spectrum, 15, budget=900)
    assert ints.states == 0


def test_the_hostile_sfr_spectrum_is_infeasible_as_an_equal_norm_frame():
    """The CI's hostile sfr spectrum, sorted descending, as an equal-norm
    frame of 22 columns: the fill searches ran out of 10^7 states on it;
    the floor-rule walk settles it Infeasible on 6,184."""
    spectrum = sorted(
        (F(v) for v in "1271/970 7/3 1087/970 489/194 197/97 294/97 592/485 3 196/97 "
         "195/97 4079/2910".split()),
        reverse=True,
    )
    assert len(floor_walk_oracle(spectrum, 1)[1]) == 6_184
    with pytest.raises(Infeasible):
        equal_norm_frame(spectrum, 22, budget=6_184)
    with pytest.raises(SearchBudgetExceeded):
        equal_norm_frame(spectrum, 22, budget=6_183)


def _consecutive_sum_case(rng):
    """Norms over 1 to 3 denominators in 2..12 and a spectrum of the same
    total: sums of consecutive norms in a shuffled feed, and in two cases of
    three a rational moved between two eigenvalues, so that rows end inside
    a column and the fill needs blocks. The spectrum comes shuffled."""
    denominators = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
    norms = [F(rng.randint(1, 3 * d), d) for d in rng.choices(denominators, k=rng.randint(2, 9))]
    fed = rng.sample(norms, len(norms))
    bounds = [0] + sorted(rng.sample(range(1, len(fed)), rng.randint(0, len(fed) - 1))) + [len(fed)]
    spectrum = [sum(fed[a:b]) for a, b in zip(bounds, bounds[1:])]
    if len(spectrum) > 1 and rng.random() < 2 / 3:
        giver, taker = rng.sample(range(len(spectrum)), 2)
        shift = F(rng.randint(1, 12), rng.randint(2, 12))
        if shift < spectrum[giver]:
            spectrum[giver] -= shift
            spectrum[taker] += shift
    return norms, rng.sample(spectrum, len(spectrum))


def test_multi_norm_partitions_equal_the_replayed_fill():
    """A multi-norm certificate's partition is read off prefix sums: n_k is
    the most fed columns whose squared norms sum to at most the first k
    eigenvalues. On 1,000 seeded certificates of two or more distinct
    squared norms it must equal the former replay of the fill's moves, and
    st_ready_check must accept it; the sweep must reach rows that end
    inside a column, where the replay counts a block after the cut."""
    rng = random.Random(20141)
    certificates = inside = 0
    for _ in range(4_000):
        norms, spectrum = _consecutive_sum_case(rng)
        if len(set(norms)) < 2:
            continue
        certificate = _outcome(st_ready_search, norms, spectrum, SMALL_BUDGET)
        if certificate is None or certificate is SearchBudgetExceeded:
            continue
        eigs = [spectrum[i] for i in certificate.eigenvalue_order]
        feed = [norms[i] for i in certificate.norm_order]
        assert certificate.partition == feed_partition_replay_oracle(eigs, feed), (norms, spectrum)
        assert st_ready_check(feed, eigs, certificate.partition), (norms, spectrum)
        fed = list(itertools.accumulate(feed, initial=0))
        rows = itertools.accumulate(eigs)
        inside += any(fed[n] != prefix for n, prefix in zip(certificate.partition, rows))
        certificates += 1
        if certificates == 1_000:
            break
    assert certificates == 1_000 and inside > 200, (certificates, inside)


def _check_outcome(check, norms, spectrum, partition):
    try:
        return check(norms, spectrum, partition)
    except InvalidPartition as refusal:
        return InvalidPartition, str(refusal)


def _partitions(rng, norms, eigs):
    """The readiness partition by its definition (the largest n whose first
    n norms sum to at most the first k eigenvalues, found by scanning), one
    entry of it moved by one, a random strictly increasing one ending at N
    and a malformed one."""
    fed = list(itertools.accumulate(norms, initial=0))
    defined = [
        max(n for n, total in enumerate(fed) if total <= prefix)
        for prefix in itertools.accumulate(eigs)
    ]
    yield tuple(defined)
    k = rng.randrange(len(defined))
    yield tuple(defined[:k] + [defined[k] + rng.choice((-1, 1))] + defined[k + 1 :])
    yield (*sorted(rng.sample(range(len(norms)), len(eigs) - 1)), len(norms))
    yield rng.choice((
        tuple(reversed(defined)),
        (*defined, len(norms)),
        (*defined[:-1], len(norms) + 1),
        (-1, *defined[1:]),
        tuple(map(float, defined)),
    ))


def test_st_ready_check_equals_the_prefix_inequalities():
    """st_ready_check requires the partition by its definition and then the
    strict-gap rule. On 2,000 and more seeded (norms, spectrum, partition)
    triples, in the orders a certificate gives and in shuffled ones, it
    must answer as the former check that tested the prefix inequalities
    itself, and refuse the same malformed partitions with the same
    message; the sweep must accept partitions with and without a strict
    gap, and reject off-by-one ones."""
    rng = random.Random(28)
    triples = accepted = gapped = off_by_one = refused = 0
    for _ in range(700):
        norms, spectrum = _consecutive_sum_case(rng)
        orders = [(norms, spectrum)]
        certificate = _outcome(st_ready_search, norms, spectrum, SMALL_BUDGET)
        if certificate is not None and certificate is not SearchBudgetExceeded:
            orders.append((
                [norms[i] for i in certificate.norm_order],
                [spectrum[i] for i in certificate.eigenvalue_order],
            ))
        for feed, eigs in orders:
            for index, partition in enumerate(_partitions(rng, feed, eigs)):
                got = _check_outcome(st_ready_check, feed, eigs, partition)
                want = _check_outcome(_oracles.st_ready_check_oracle, feed, eigs, partition)
                assert got == want, (feed, eigs, partition)
                triples += 1
                refused += type(got) is tuple
                off_by_one += index == 1 and got is False
                if got is True:
                    accepted += 1
                    rows = itertools.accumulate(eigs[:-1])
                    fed = list(itertools.accumulate(feed, initial=0))
                    gapped += any(fed[n] != prefix for n, prefix in zip(partition, rows))
    assert triples >= 2_000 and refused > 200 and off_by_one > 200, (triples, refused, off_by_one)
    assert accepted > 300 and 100 < gapped < accepted, (accepted, gapped)


def _residue_dp_outcome(dp, ints, counts, modulus):
    try:
        return dp(list(ints), counts, modulus)
    except sequences._MuWorkExceeded:
        return sequences._MuWorkExceeded


def _residue_inputs(monkeypatch, spectrum):
    """The (classes, counts, modulus) that maximal_block_number hands its
    residue DP for the spectrum."""
    seen = []
    original = sequences._residue_dp

    def spy(ints, counts, modulus):
        seen.append((tuple(ints), counts, modulus))
        return original(ints, counts, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(sequences, "_residue_dp", spy)
        maximal_block_number(spectrum)
    return seen


def test_residue_dp_equals_the_stack_machine(monkeypatch):
    """The residue DP of the maximal block number runs its states as visits
    of drive(). On 1,000 seeded inputs, those maximal_block_number hands it
    for random spectra and random class counts mod small moduli, with the
    work cap as it is and cut to 400 units, it must give the best table of
    the former DP, which kept its own stack, or raise _MuWorkExceeded as
    it did; likewise on the CI's three hostile spectra, on 44 eigenvalues
    2 + k/60 and on a DP some 3,000 states deep."""
    rng = random.Random(1428)
    cases = []
    while len(cases) < 500:
        denominators = rng.sample(range(2, 16), rng.randint(1, 3))
        size = rng.randint(2, 14)
        spectrum = [F(rng.randint(1, 5 * d), d) for d in rng.choices(denominators, k=size)]
        cases += _residue_inputs(monkeypatch, spectrum)
    while len(cases) < 1_000:
        modulus = rng.randint(2, 30)
        ints = tuple(sorted(rng.sample(range(1, modulus), rng.randint(1, min(4, modulus - 1)))))
        cases.append((ints, tuple(rng.randint(1, 6) for _ in ints), modulus))
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    named = [
        [2 + F(1, p) for p in primes],
        [2 + F(k, 97) for k in range(1, 49)],
        [2 + F(k, 101) for k in range(1, 41)],
        [2 + F(k, 60) for k in range(1, 45)],
        [2 + F(1, 7)] * 3_000 + [2 + F(2, 7)],
    ]
    for spectrum in named:
        cases += _residue_inputs(monkeypatch, spectrum)
    assert len(cases) >= 1_000 + len(named)
    tally = {}
    for index, (ints, counts, modulus) in enumerate(cases):
        cap = 400 if index % 3 == 2 and index < 1_000 else sequences._MU_WORK_CAP
        with monkeypatch.context() as patch:
            patch.setattr(sequences, "_MU_WORK_CAP", cap)
            patch.setattr(_oracles, "_MU_WORK_CAP", cap)
            got = _residue_dp_outcome(sequences._residue_dp, ints, counts, modulus)
            want = _residue_dp_outcome(_oracles.residue_dp_stack_oracle, ints, counts, modulus)
        assert got == want, (ints, counts, modulus, cap)
        outcome = "cut" if got is sequences._MuWorkExceeded else "exact"
        tally[outcome] = tally.get(outcome, 0) + 1
    assert tally["cut"] > 50 and tally["exact"] > 600, tally


def test_a_final_residue_dp_runs_no_drive(monkeypatch):
    """A final state, one with at most one nonempty class, is recorded
    where it is met: a final root runs no drive() and no visit, and a root
    with two classes runs drive() once, its table still the stack
    machine's."""
    calls = []
    original = sequences.drive

    def counting(root):
        calls.append(root)
        return original(root)

    monkeypatch.setattr(sequences, "drive", counting)
    assert sequences._residue_dp([1, 2], (3, 0), 7) == {(3, 0): (0, None, None)}
    assert sequences._residue_dp([2], (7,), 7) == {(7,): (1, (7,), None)}
    assert sequences._residue_dp([1, 2], (0, 0), 7) == {(0, 0): (0, None, None)}
    assert calls == []
    got = sequences._residue_dp([1, 2], (3, 2), 7)
    assert len(calls) == 1
    assert got == _oracles.residue_dp_stack_oracle([1, 2], (3, 2), 7)
