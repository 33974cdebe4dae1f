"""The tagged fusion search and the fusion layer's work on support incidence.

weighted_fusion's tagged search is the readiness fill search
(sequences._FillSearch) with one tag per subspace. It decides whether a
column fits its subspace from row sets alone and memoizes failed states.
Neither may change an answer: on every small input, in a random sweep and on
the weighted_fusion goldens, wherever the search that compared columns by
exact inner products and kept no memo (verbatim in _oracles) settles, the
result and move order must equal its own, in no more states; where both are
cut, the cut messages must be equal; and where only that search is cut, the
answer must equal the one it gives on a larger budget. It runs on weights
and eigenvalues scaled to integers in one common unit, so the comparison is
repeated over mixed denominators. A seeded sweep of random fusion profiles
must settle within 20,000 states each, which the search without the memo
did not. The rest bounds the exact work the fusion layer does, by counting
calls: inner products, blocks built, radical products and square sums
settled.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_tetris.blocks as blocks_module
import spectral_tetris.construct as construct_module
import spectral_tetris.fusion as fusion_module
import spectral_tetris.sequences as sequences_module
from spectral_tetris import (
    Infeasible,
    RadicalScalar,
    column_maps,
    construct_untf,
    sffr,
    verify_fusion,
    weighted_fusion,
)
from spectral_tetris.errors import SearchBudgetExceeded
from spectral_tetris.sequences import _FillSearch, integer_units

import goldens
from _oracles import TaggedSearchOracle

WEIGHTS = (F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(5, 2))
SMALL_BUDGET = 100
LARGE_BUDGET = 2_000
# where only the oracle is cut, the budget its answer is read at
ORACLE_BUDGET = 10**5


def _shown(run):
    """What a run shows: its frame's shape, entries and partition, none or
    its cut message."""
    try:
        result = run()
    except SearchBudgetExceeded as cut:
        return ("cut", str(cut))
    except Infeasible:
        return ("none",)
    if result is None:
        return ("none",)
    matrix, partition = result
    return ("frame", matrix.row_count, matrix.col_count, matrix.entries, partition)


def _outcome(weights, dims, spectrum, budget):
    """weighted_fusion's tagged search, the round-robin order refused so
    that it runs: what it shows, its states and its move order."""
    searches = []
    run = _FillSearch.run
    build = fusion_module._tagged_pnstc

    def recorded(search):
        searches.append(search)
        return run(search)

    def frame():
        found = weighted_fusion(weights, dims, spectrum, budget)
        return found.generator, found.partition

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_FillSearch, "run", recorded)
        # the first build is the round-robin order's
        patch.setattr(
            fusion_module, "_tagged_pnstc", lambda order, eigs: build(order, eigs) if searches else None
        )
        shown = _shown(frame)
    (search,) = searches
    return shown, search.states, [(F(weights[tag]), tag) for tag in search.order]


def _oracle_outcome(weights, dims, spectrum, budget):
    search = TaggedSearchOracle(tuple(weights), tuple(dims), tuple(spectrum), budget)
    return _shown(search.run), search.states, list(search.order)


def _assert_same_search(weights, dims, spectrum, budget):
    """The search's outcome against the oracle's; returns both."""
    outcome = _outcome(weights, dims, spectrum, budget)
    expected = _oracle_outcome(weights, dims, spectrum, budget)
    (shown, states, order), (oracle_shown, oracle_states, oracle_order) = outcome, expected
    if oracle_shown[0] != "cut":
        assert (shown, order) == (oracle_shown, oracle_order)
        assert states <= oracle_states
    elif shown[0] == "cut":
        assert shown == oracle_shown
    else:
        settled, _states, settled_order = _oracle_outcome(weights, dims, spectrum, ORACLE_BUDGET)
        assert (shown, order) == (settled, settled_order)
    return outcome, expected


def _round_robin(weights, dims):
    return [w for layer in range(max(dims)) for w, d in zip(weights, dims) if layer < d]


def _spectra(weights, dims):
    """Flat spectra over 1 to 4 rows, and the round-robin norms summed in
    consecutive chunks of 2 and of 3."""
    total = sum(w * d for w, d in zip(weights, dims))
    spectra = {(total / rows,) * rows for rows in range(1, 5)}
    norms = _round_robin(weights, dims)
    for size in (2, 3):
        spectra.add(tuple(sum(norms[i : i + size]) for i in range(0, len(norms), size)))
    return sorted(spectra)


def _small_inputs():
    """Every multiset of 1 to 3 (weight, dim) tags, dims up to 3, with each
    of its spectra. Tag order only fixes the order ties are tried in; the
    random sweep below draws tags in any order."""
    tags = list(itertools.product(WEIGHTS, range(1, 4)))
    for count in range(1, 4):
        for chosen in itertools.combinations_with_replacement(tags, count):
            weights = tuple(w for w, _d in chosen)
            dims = tuple(d for _w, d in chosen)
            for spectrum in _spectra(weights, dims):
                yield weights, dims, spectrum


def test_tagged_search_equals_the_inner_product_search_exhaustively():
    settled = 0
    for weights, dims, spectrum in _small_inputs():
        outcome, expected = _assert_same_search(weights, dims, spectrum, LARGE_BUDGET)
        # the budget is read only once the states pass it, so a run that
        # stays within SMALL_BUDGET states is the same run at that budget
        if max(outcome[1], expected[1]) > SMALL_BUDGET:
            outcome, expected = _assert_same_search(weights, dims, spectrum, SMALL_BUDGET)
            settled += expected[0][0] == "cut" != outcome[0][0]
    # the small budget cuts the oracle on 13 of these and the memo settles
    # them, so those answers are compared at ORACLE_BUDGET; cuts of both
    # are compared in the random sweeps and on the goldens
    assert settled == 13


@st.composite
def tagged_inputs(draw):
    count = draw(st.integers(1, 4))
    palette = WEIGHTS + (F(1, 3), F(4, 3), F(3))
    weights = draw(st.lists(st.sampled_from(palette), min_size=count, max_size=count))
    dims = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
    norms = draw(st.permutations(_round_robin(weights, dims)))
    if draw(st.booleans()):
        rows = draw(st.integers(1, len(norms)))
        spectrum = (sum(norms) / rows,) * rows
    else:
        cuts = draw(st.sets(st.integers(1, len(norms) - 1))) if len(norms) > 1 else set()
        bounds = [0] + sorted(cuts) + [len(norms)]
        spectrum = tuple(sum(norms[a:b]) for a, b in zip(bounds, bounds[1:]))
    return weights, dims, spectrum, draw(st.integers(1, 3_000))


@given(tagged_inputs())
@settings(max_examples=300, deadline=None)
def test_tagged_search_equals_the_inner_product_search_at_random(case):
    _assert_same_search(*case)


@st.composite
def mixed_denominator_tagged_inputs(draw):
    """Like tagged_inputs, with weights over denominators 2..30 (coprime ones
    included) and sometimes a rational of another denominator moved between
    two eigenvalues."""
    count = draw(st.integers(1, 4))
    denominators = draw(st.lists(st.integers(2, 30), min_size=count, max_size=count))
    weights = [F(draw(st.integers(1, 3 * d)), d) for d in denominators]
    dims = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
    norms = draw(st.permutations(_round_robin(weights, dims)))
    bounds = [0] + [i for i in range(1, len(norms)) if draw(st.booleans())] + [len(norms)]
    spectrum = [sum(norms[a:b]) for a, b in zip(bounds, bounds[1:])]
    if len(spectrum) > 1 and draw(st.booleans()):
        giver, taker = draw(st.permutations(range(len(spectrum))))[:2]
        shift = F(draw(st.integers(1, 30)), draw(st.integers(2, 30)))
        if shift < spectrum[giver]:
            spectrum[giver] -= shift
            spectrum[taker] += shift
    return weights, dims, spectrum, draw(st.one_of(st.integers(1, 60), st.just(3_000)))


@given(mixed_denominator_tagged_inputs())
@settings(max_examples=300, deadline=None)
def test_tagged_search_equals_the_inner_product_search_over_mixed_denominators(case):
    _assert_same_search(*case)


GOLDEN_SEARCHES = [
    # round-robin succeeds on the 5 x 18 golden; the search must agree on it
    (
        goldens.WEIGHTED_WEIGHTS_SQ,
        goldens.WEIGHTED_DIMS,
        goldens.WEIGHTED_SPECTRUM,
        LARGE_BUDGET,
    ),
    # the fallback golden, and the same input cut at once
    ((1,) * 6, goldens.UFF_DIMS, (F(11, 4),) * 4, LARGE_BUDGET),
    ((1,) * 6, goldens.UFF_DIMS, (F(11, 4),) * 4, 1),
    # no ordering works
    ((4, 9), (1, 1), (6, 7), LARGE_BUDGET),
    # 1125 columns, deeper than the recursion limit
    ((1,) * 4, (450, 225, 225, 225), (F(5, 2),) * 450, 10**5),
]


def test_tagged_search_equals_the_inner_product_search_on_the_goldens():
    for weights, dims, spectrum, budget in GOLDEN_SEARCHES:
        _assert_same_search(
            tuple(F(w) for w in weights), dims, tuple(F(v) for v in spectrum), budget
        )


def _tagged_search(weights, dims, spectrum, bridge_empty_rows):
    """The fill search with one tag per subspace, as weighted_fusion sets it up."""
    _, units, eigs = integer_units(weights, spectrum)
    return _FillSearch(
        eigs, units, list(dims), [set() for _ in dims], 10**4, "cut",
        bridge_empty_rows=bridge_empty_rows,
    )


def test_the_bridging_rule_is_the_feed_searchs_alone():
    """Row 1 owns no column when the first weight fills row 0, and the only
    frame bridges out of it with a block of the two 3/2 weights. A feed
    search may not make that move (its partition must strictly increase);
    the tagged search must."""
    weights, dims, spectrum = (F(1), F(3, 2), F(3, 2)), (1, 1, 1), (F(1), F(1), F(2))
    search = _tagged_search(weights, dims, spectrum, bridge_empty_rows=True)
    assert search.run()
    assert search.order == [0, 1, 2]
    assert not _tagged_search(weights, dims, spectrum, bridge_empty_rows=False).run()
    shown, _states, order = _outcome(weights, dims, spectrum, LARGE_BUDGET)
    assert shown[0] == "frame"
    assert order == [(weights[t], t) for t in range(3)]


def _fusion_profiles():
    """1,547 seeded random profiles: 3 to 7 subspaces, squared weights from
    {1/2, 2/3, 1, 5/4, 3/2}, dimensions 1 to 4, a flat spectrum over 2 to 8
    rows."""
    rng = random.Random(1547)
    palette = (F(1, 2), F(2, 3), F(1), F(5, 4), F(3, 2))
    for _ in range(1547):
        count = rng.randint(3, 7)
        weights = tuple(rng.choice(palette) for _ in range(count))
        dims = tuple(rng.randint(1, 4) for _ in range(count))
        rows = rng.randint(2, 8)
        total = sum(w * d for w, d in zip(weights, dims))
        yield weights, dims, (total / rows,) * rows


def test_random_fusion_profiles_settle_within_the_budget():
    """Without the failed-state memo the tagged search ran out of its
    20,000 states on 156 of these profiles."""
    seen = {"round-robin": 0, "search": 0, "none": 0}
    for weights, dims, spectrum in _fusion_profiles():
        try:
            frame = weighted_fusion(weights, dims, spectrum, 20_000)
        except Infeasible:
            seen["none"] += 1
        else:
            seen[frame.meta["ordering"]] += 1
    assert all(seen.values()), seen


class _InnerProducts:
    """Calls through fusion._columns_cancel, the fusion layer's column-pair check."""

    def __init__(self, monkeypatch):
        self.calls = 0
        cancel = fusion_module._columns_cancel

        def counting(a, b):
            self.calls += 1
            return cancel(a, b)

        monkeypatch.setattr(fusion_module, "_columns_cancel", counting)


def test_fusion_work_grows_with_the_columns(monkeypatch):
    """All-pairs checks formed 883,806 inner products building this frame;
    pairs that share a row number O(N)."""
    dims = (450, 225, 225, 225)
    spectrum = (F(5, 2),) * 450
    count = sum(dims)
    inner = _InnerProducts(monkeypatch)
    frame = weighted_fusion((1,) * 4, dims, spectrum, 10**5)
    built, inner.calls = inner.calls, 0
    report = verify_fusion(frame, spectrum)
    monkeypatch.undo()
    assert frame.meta["ordering"] == "search"
    assert report.exact and report.groups_orthogonal and report.weights_consistent
    assert built <= 2 * count
    assert inner.calls <= 2 * count


def test_tagged_search_builds_no_block(monkeypatch):
    """The search reads each candidate block's rows from block_a_hat_support;
    building the block instead took 2,242 block_a_hat calls here. Only the
    final matrix is built. Every 2x2 block is built by blocks._block_from_units."""
    built = []
    # the modules that look the block kernel up by name
    for module in (blocks_module, construct_module, fusion_module, sequences_module):
        if hasattr(module, "_block_from_units"):
            original = module._block_from_units

            def counting(*args, _original=original):
                built.append(args)
                return _original(*args)

            monkeypatch.setattr(module, "_block_from_units", counting)
    before_build = []
    tagged_pnstc = fusion_module._tagged_pnstc

    def building(order, spectrum):
        before_build.append(len(built))
        return tagged_pnstc(order, spectrum)

    monkeypatch.setattr(fusion_module, "_tagged_pnstc", building)
    outcome, _states, _order = _outcome((F(1),) * 4, (450, 225, 225, 225), (F(5, 2),) * 450, 10**5)
    assert outcome[0] == "frame"
    assert before_build == [0]
    assert built  # the final matrix's blocks went through the counter


def _count_group_work(monkeypatch, matrix, groups, weight):
    """Run the one construct._square_sums sweep over the matrix, then
    group_flags on each group with its column half; return the flags, the
    products made (RadicalScalar products and integer products through
    construct._product_terms alike) and the accumulators handed to _settle
    and the entries handed to _squared_terms, first by the sweep and then
    per group_flags call."""
    products = 0
    settled, squared = [[]], [[]]
    multiply = RadicalScalar.__mul__
    product_terms = construct_module._product_terms
    settle, square = construct_module._settle, construct_module._squared_terms

    def counting_multiply(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    def counting_product_terms(x, y):
        nonlocal products
        products += 1
        return product_terms(x, y)

    def counting_settle(sums):
        settled[-1].append(sums)
        return settle(sums)

    def counting_square(value):
        squared[-1].append(value)
        return square(value)

    monkeypatch.setattr(RadicalScalar, "__mul__", counting_multiply)
    monkeypatch.setattr(construct_module, "_product_terms", counting_product_terms)
    monkeypatch.setattr(construct_module, "_settle", counting_settle)
    monkeypatch.setattr(construct_module, "_squared_terms", counting_square)
    columns = column_maps(matrix)
    _, col_norms = construct_module._square_sums(matrix)
    flags = []
    for group in groups:
        settled.append([])
        squared.append([])
        flags.append(fusion_module.group_flags(columns, group, weight, col_norms))
    monkeypatch.undo()
    return flags, products, settled, squared


def _single_term(matrix):
    return all(len(value.terms) == 1 for value in matrix.entries.values())


def test_group_flags_square_without_products_and_settle_each_accumulator_once(monkeypatch):
    """The CI's 1,125-column weighted_fusion frame and a 500-column sffr:
    every entry is one term, so the squared norms need no radical product,
    and the groups are orthogonal, so no pair shares a row."""
    weighted = weighted_fusion((1,) * 4, (450, 225, 225, 225), (F(5, 2),) * 450, 10**5)
    flat = sffr((F(5, 2),) * 200, 10, 50)
    assert flat.meta["groups_orthogonal"]
    for frame in (weighted, flat):
        matrix = frame.generator
        assert _single_term(matrix)
        flags, products, settled, squared = _count_group_work(
            monkeypatch, matrix, frame.partition, F(1)
        )
        assert flags == [(True, True)] * len(frame.partition)
        assert products == 0
        # the sweep squares each distinct entry object once and settles each
        # distinct accumulator once; group_flags squares and settles nothing
        (sweep_sums, *group_sums), (sweep_values, *group_values) = settled, squared
        assert group_sums == [[]] * len(frame.partition) == group_values
        assert 0 < len(sweep_sums) == len(set(sweep_sums)) <= matrix.row_count + matrix.col_count
        distinct = {id(value) for value in matrix.entries.values()}
        assert 0 < len(sweep_values) == len(set(map(id, sweep_values))) <= len(distinct)
        # the unit columns hold a handful of distinct square sums, not one per column
        assert len(sweep_sums) <= 4 * len(frame.partition)


def test_group_flags_refuse_columns_that_share_one_row_without_products(monkeypatch):
    """Columns 0 and 1 of the 3 x 9 frame are singletons in row 0; columns
    2 and 3 of the 4 x 11 frame are one 2x2 block and share two rows, so
    their inner product takes one integer product per shared row and no
    RadicalScalar product."""
    singletons = construct_untf(3, 9)
    flags, products, _, _ = _count_group_work(monkeypatch, singletons, [(0, 1), (0, 3)], F(1))
    assert flags == [(False, True), (True, True)]
    assert products == 0
    block = construct_untf(4, 11)
    flags, products, _, _ = _count_group_work(monkeypatch, block, [(2, 3)], F(1))
    assert flags == [(False, True)]
    assert products == 2
