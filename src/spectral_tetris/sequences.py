"""Feasibility layer: majorization, Spectral-Tetris-readiness, block counts.

Everything here works on exact rationals (eigenvalues, squared norms), so
every predicate is decided exactly. Construction itself lives elsewhere;
this module answers "can the greedy construction possibly work, and in
which order" before any matrix entry is computed. One order walk,
_distinct_value_orders, offers the distinct eigenvalue orders to every
readiness search. With one squared norm a, the fill on eigenvalues l is
the unit-norm fill on l / a, so sfr_feasible and a single-norm
st_ready_search are one decision: the floor rule, which the walk tests on
each eigenvalue prefix as it enters it. With several norms, st_ready_search
runs one fill search, _FillSearch, per order the walk yields, with one tag
per distinct squared norm; fusion.weighted_fusion runs it with one tag per
subspace and the rows its columns use. Failed fill states are memoized.
Readiness needs only sums and comparisons, never a square root, so each
search first scales its values to integers in one common unit
(integer_units) and runs every state on Python ints. A certificate's
partition is read by its definition, off prefix sums: n_k is the largest n
whose first n fed norms sum to at most the first k eigenvalues
(_feed_partition bisects the feed's prefix sums), and _floors is its closed
form for one norm; st_ready_check requires a given partition to be that
one and then checks the strict-gap rule. The maximal block number runs on
the same integers, mod the unit. Both depth-first searches, the fill
search and the block number's residue DP, run their states as generator
visits on one explicit stack, drive(), so neither depends on the
recursion limit. _pairwise is the one balanced fold, for the lcm of many
denominators here and for the square sums of construct.Sweep.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Generator, Iterable, List, NamedTuple, Optional
from typing import Sequence, Set, Tuple

from .blocks import block_a_hat_support
from .errors import (
    InvalidPartition,
    OutOfRange,
    SearchBudgetExceeded,
    SumMismatch,
    Underdetermined,
)
from .exact_numeric import _positive_int, _rationals, _read

Spectrum = Tuple[Fraction, ...]
NormSequence = Tuple[Fraction, ...]

DEFAULT_SEARCH_BUDGET = 10_000_000
SEARCH_BUDGET_ENV = "SPECTRAL_TETRIS_SEARCH_BUDGET"


def search_budget(budget: Optional[int] = None) -> int:
    """Resolve the permutation-search state cap (argument, then env, then
    default). ValueError for an argument without __index__, an environment
    value that is not an integer, or a negative cap; 0 is a cap that cuts
    on the first state."""
    if budget is not None:
        if not hasattr(budget, "__index__"):
            raise ValueError(f"search budget {budget!r} is not an integer")
        cap, name = operator.index(budget), "search budget"
    else:
        raw = os.environ.get(SEARCH_BUDGET_ENV)
        if not raw:
            return DEFAULT_SEARCH_BUDGET
        try:
            cap, name = int(raw), SEARCH_BUDGET_ENV
        except ValueError:
            raise ValueError(f"{SEARCH_BUDGET_ENV}={raw!r} is not an integer") from None
    if cap < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {cap}")
    return cap


def _positive_rationals(values: Sequence, what: str, empty: str) -> Tuple[Fraction, ...]:
    out = _rationals(values, what)
    if not out:
        raise ValueError(empty)
    if min(_read(out, operator.attrgetter("numerator"), "")) <= 0:  # each run once
        raise ValueError(f"{what}s must be positive")
    return out


def as_spectrum(values: Sequence) -> Spectrum:
    """Validate and normalize a sequence of eigenvalues (positive rationals)."""
    return _positive_rationals(values, "eigenvalue", "spectrum must be nonempty")


def as_norms_squared(values: Sequence) -> NormSequence:
    """Validate and normalize a sequence of squared vector norms (positive rationals)."""
    return _positive_rationals(values, "squared norm", "norm sequence must be nonempty")


@dataclass(frozen=True)
class STReadyCertificate:
    """Witness that permuted norms and eigenvalues satisfy the readiness partition.

    norm_order and eigenvalue_order are 0-based indices into the caller's
    sequences; partition holds the counts n_1 < ... < n_M = N.
    """

    norm_order: Tuple[int, ...]
    eigenvalue_order: Tuple[int, ...]
    partition: Tuple[int, ...]


def _pairwise(combine: Callable[..., object], values: Iterable) -> object:
    """combine(*values), for an associative and commutative combine that
    takes any number of values (math.lcm, a sum). Up to eight values it is
    one call; more are combined in pairs, level by level, so k coprime
    denominators cost a balanced tree of lcms or sums instead of k against
    one ever longer result."""
    level = list(values)
    while len(level) > 8:
        level = [combine(*level[i : i + 2]) for i in range(0, len(level), 2)]
    return combine(*level)


def _lcm(denominators: Iterable[int]) -> int:
    """The lcm of the denominators, each distinct one taken once."""
    return _pairwise(math.lcm, set(denominators))


def integer_units(*groups: Sequence[Fraction]) -> Tuple[object, ...]:
    """The unit, the lcm of all the values' denominators, followed by each
    group as integers in that unit: every value times the unit.

    Scaling by a positive integer keeps every <, <= and == between sums of
    the values, so a search or fill decided by such comparisons makes the
    same moves in the same order on the integers, at int speed; an integer
    k stands for Fraction(k, unit). Each group is read once, and each run of
    one object (exact_numeric._read) has its denominator read and its value
    scaled once.
    """
    ratio = operator.attrgetter("denominator", "numerator")  # the denominator read first
    ratios = [_read(group, ratio, "{value!r} is not a rational") for group in groups]
    unit = _lcm(map(operator.itemgetter(0), itertools.chain.from_iterable(ratios)))
    return (unit, *(tuple(_read(group, lambda r: r[1] * (unit // r[0]), "")) for group in ratios))


def majorizes(dominant: Sequence, dominated: Sequence) -> bool:
    """True when `dominant` majorizes `dominated` (sorted prefix sums dominate, totals equal).

    Sequences are sorted non-increasing internally and the shorter one is
    zero-padded, so the check is permutation-invariant.
    """
    a = sorted(_rationals(dominant, "dominant value"), reverse=True)
    b = sorted(_rationals(dominated, "dominated value"), reverse=True)
    size = max(len(a), len(b))
    a += [Fraction(0)] * (size - len(a))
    b += [Fraction(0)] * (size - len(b))
    pa = pb = Fraction(0)
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pb > pa:
            return False
    return pa == pb


def st_ready_check(
    norms_squared: Sequence, spectrum: Sequence, partition: Sequence[int]
) -> bool:
    """Decide whether the given orderings satisfy the readiness conditions.

    The partition must be integers 0 <= n_1 < n_2 < ... < n_M = N; anything
    else raises InvalidPartition. It must then be the readiness partition
    of the orderings, by its definition (_feed_partition): n_k is the
    largest n with prefix_a(n) <= prefix_l(k). And for k < M, when that
    inequality is strict, n_{k+1} - n_k >= 2 and the (n_k+2)-nd squared
    norm is at least the strict gap.
    """
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    n_count, m_count = len(norms), len(eigs)
    part = tuple(partition)
    if len(part) != m_count or any(not isinstance(p, int) for p in part):
        raise InvalidPartition(f"partition {part} must be {m_count} integers")
    if any(part[i] >= part[i + 1] for i in range(m_count - 1)):
        raise InvalidPartition(f"partition {part} is not strictly increasing")
    if part[0] < 0 or part[-1] != n_count:
        raise InvalidPartition(f"partition {part} must lie in [0, {n_count}] and end at {n_count}")

    if sum(norms) != sum(eigs) or part != _feed_partition(eigs, norms):
        return False
    fed = list(itertools.accumulate(norms, initial=0))
    for k, prefix in enumerate(itertools.accumulate(eigs[:-1])):
        n_k = part[k]
        gap = prefix - fed[n_k]
        if gap and (part[k + 1] - n_k < 2 or norms[n_k + 1] < gap):
            return False
    return True


def _distinct_value_orders(
    values: Sequence, unit: int = 0, budget: Optional[int] = None, cut: str = "",
    reach: bool = False,
):
    """Every distinct value order once, with its smallest index permutation.

    Yields (index permutation, permuted values) in lexicographic order of the
    permutations, identity first; each permutation takes equal values in
    index order, so it is the lexicographically smallest one giving its value
    order. That is the sequence a walk over all M! index permutations that
    skips repeated value orders would give, without walking them: a
    depth-first walk with an explicit stack offers, at each position, only
    the lowest unused index of each value, so no two branches give the same
    value order and the walk from one yield to the next costs O(M^2) steps.
    A depth d sent in after an order skips every remaining order that
    shares its first d values; the orders not skipped come in the same
    order.

    With a unit, the walk decides the floor rule of sfr_feasible (and so
    readiness with one squared norm) on int values in that unit; its
    callers take only the first order it yields, the first whose every
    prefix passes, and so close it there. Each prefix is tested as the walk
    enters it: its cut, prefix // unit, must exceed the cut before it, by at
    least 2 when the prefix before it was fractional (prefix % unit != 0).
    So the value that extends a prefix with remainder
    r must be at least unit if r is 0, else 2 * unit - r; the first value
    is free. A prefix that fails is left with every order through it, as a
    sent depth would leave it. Past a passing prefix the rule depends only
    on the prefix sum and the values left, that is on the used-value
    counts, so a passing prefix whose children all ran out is remembered
    dead and any prefix with its counts is left on entering.
    Entering more than `budget` prefixes raises SearchBudgetExceeded(cut)
    with states and budget set to budget and, when `reach` is true, reach
    set to the deepest index tested.
    """
    m_count = len(values)
    ids: Dict[object, int] = {}
    value_ids = [ids.setdefault(v, len(ids)) for v in values]
    # pools[k]: the indices holding value k, ascending, then the sentinel M
    pools: List[List[int]] = [[] for _ in ids]
    for index, k in enumerate(value_ids):
        pools[k].append(index)
    for pool in pools:
        pool.append(m_count)
    taken = [0] * len(pools)
    dead: Set[Tuple[int, ...]] = set()
    perm: List[int] = []
    index = nodes = deepest = total = 0
    while True:
        # the lowest index >= index that is the lowest unused one of its value
        while index < m_count and pools[value_ids[index]][taken[value_ids[index]]] != index:
            index += 1
        if index == m_count:
            # every child of the node at the end of perm is done
            if unit and perm:
                dead.add(tuple(taken))
        else:
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchBudgetExceeded(
                    cut, states=budget, budget=budget, reach=deepest if reach else None
                )
            value = values[index]
            if unit:
                deepest = max(deepest, len(perm))
                rest = total % unit
                if perm and value < (2 * unit - rest if rest else unit):
                    # the floor rule fails on this prefix: on to its next sibling
                    index += 1
                    continue
            perm.append(index)
            taken[value_ids[index]] += 1
            total += value
            # a prefix whose used values are dead is left below
            if not (unit and tuple(taken) in dead):
                if len(perm) < m_count:
                    index = 0
                    continue
                depth = yield tuple(perm), tuple(values[i] for i in perm)
                if depth is not None:
                    for i in perm[depth:]:
                        taken[value_ids[i]] -= 1
                        total -= values[i]
                    del perm[depth:]
        if not perm:
            return
        last = perm.pop()
        taken[value_ids[last]] -= 1
        total -= values[last]
        index = last + 1


def drive(root: Generator) -> object:
    """Run a depth-first search whose visits are generators, on an explicit stack.

    A visit yields the generator of each child it tries, is sent that
    child's return value, and returns its own; drive returns the root's.
    """
    stack = [root]
    outcome = None
    while stack:
        try:
            child = stack[-1].send(outcome)
        except StopIteration as finished:
            stack.pop()
            outcome = finished.value
            continue
        stack.append(child)
        outcome = None
    return outcome


class _FillSearch:
    """Depth-first search over the order in which tagged columns feed the fill.

    st_ready_search with several squared norms feeds one tag per distinct
    norm, weighted_fusion one tag per subspace (one tag and no row sets is
    the floor rule, which _distinct_value_orders decides without a fill).
    Tag t has units[t], its squared norm as an int in the unit of eigs (see
    integer_units), left[t] columns still to feed and, when rows is given,
    rows[t], the rows of its fed columns; a column joins its tag only when
    its rows avoid the tag's (the fusion module says why that is exact). A
    state is (row, weight left in the row, tags). A
    singleton feeds a column of unit <= weight; a 2x2 block feeds one above
    the weight with a partner at least the weight, spilling the excess into
    the next row. With bridge_empty_rows false no block leaves a row that
    owns no column (a readiness partition strictly increases). order lists
    each fed column's tag; reach is the largest eigenvalue index read, so a
    failed search fails alike on any order sharing eigs[:reach + 1]. Entering
    more than limit states raises SearchBudgetExceeded(cut), with states and
    budget set to budget (the caller's whole cap, default limit) and the
    reach at the cut. Visits are generators run by drive(), one stack entry
    per column.

    Failed states are memoized on (row, weight, sorted multiset of (unit,
    left, row in rows) over the tags with columns left): rows below `row`
    are never read again, and on entering a state no tag holds row + 1, so a
    tag's rows matter only through `row` and tags alike in all three are
    interchangeable. For row > 0, weight == eigs[row] exactly when the row
    owns no column (each column placed in a row lowers its weight), so the
    bridging rule needs no flag in the key. Without
    row sets the tags are distinct norms, so the vector left is the key.
    Candidates merge only on equal (unit, left, rows): a tag paired with
    itself in a block is not interchangeable with a fresh tag of its
    signature. Only tags of equal unit can merge, so distinct units skip it.
    """

    def __init__(
        self, eigs: Tuple[int, ...], units: Sequence[int], left: List[int],
        rows: Optional[List[Set[int]]], limit: int, cut: str, *, bridge_empty_rows: bool,
        budget: Optional[int] = None,
    ):
        self.eigs = eigs
        self.units = units
        self.left = left
        self.rows = rows
        self.limit = limit
        self.cut = cut
        self.budget = limit if budget is None else budget
        self.bridge_empty_rows = bridge_empty_rows
        self.merge = len(set(units)) < len(units)
        self.states = 0
        self.reach = 0
        self.failed: set = set()
        self.order: List[int] = []

    def run(self) -> bool:
        return drive(self._fill(0, self.eigs[0]))

    def _cut(self) -> SearchBudgetExceeded:
        return SearchBudgetExceeded(
            self.cut, states=self.budget, budget=self.budget, reach=self.reach
        )

    def _tags(self) -> List[int]:
        if not self.merge:
            return [tag for tag, count in enumerate(self.left) if count]
        picked: Dict[Tuple[int, int, FrozenSet[int]], int] = {}
        for tag, count in enumerate(self.left):
            if count:
                picked.setdefault((self.units[tag], count, frozenset(self.rows[tag])), tag)
        return list(picked.values())

    def _key(self, row: int, weight: int) -> Tuple:
        units, left, rows = self.units, self.left, self.rows
        if rows is None:
            return (row, weight, tuple(left))
        tags = ((units[t], count, row in rows[t]) for t, count in enumerate(left) if count)
        return (row, weight, tuple(sorted(tags)))

    def _fill(self, row: int, weight: int) -> Generator:
        self.states += 1
        if self.states > self.limit:
            raise self._cut()
        eigs = self.eigs
        if weight == 0:
            if row + 1 == len(eigs):
                return not any(self.left)
            self.reach = max(self.reach, row + 1)
            return (yield self._fill(row + 1, eigs[row + 1]))
        key = self._key(row, weight)
        if key in self.failed:
            return False
        units, left, rows, order = self.units, self.left, self.rows, self.order
        tags = self._tags()
        for tag in tags:
            a = units[tag]
            if a > weight or (rows is not None and row in rows[tag]):
                continue
            left[tag] -= 1
            order.append(tag)
            if rows is not None:
                rows[tag].add(row)
            if (yield self._fill(row, weight - a)):
                return True
            if rows is not None:
                rows[tag].discard(row)
            order.pop()
            left[tag] += 1
        if row + 1 < len(eigs) and (self.bridge_empty_rows or row == 0 or weight != eigs[row]):
            after = eigs[row + 1]
            for tag in tags:
                a = units[tag]
                if a <= weight:
                    continue
                left[tag] -= 1
                partners = [b for b in self._tags() if units[b] >= weight]
                if partners:
                    self.reach = max(self.reach, row + 1)
                for partner in partners:
                    b = units[partner]
                    spill = a + b - weight
                    if spill > after:
                        continue
                    if rows is not None:
                        first_rows, second_rows = block_a_hat_support(weight, a, b)
                        first = {row + i for i in first_rows}
                        second = {row + i for i in second_rows}
                        if not rows[tag].isdisjoint(first):
                            continue
                        rows[tag] |= first
                        if not rows[partner].isdisjoint(second):
                            rows[tag] -= first
                            continue
                        rows[partner] |= second
                    left[partner] -= 1
                    order += (tag, partner)
                    if (yield self._fill(row + 1, after - spill)):
                        return True
                    del order[-2:]
                    left[partner] += 1
                    if rows is not None:
                        rows[partner] -= second
                        rows[tag] -= first
                left[tag] += 1
        self.failed.add(key)
        return False


def st_ready_search(
    norms_squared: Sequence, spectrum: Sequence, budget: Optional[int] = None
) -> Optional[STReadyCertificate]:
    """Find orderings of norms and eigenvalues that are Spectral Tetris ready.

    Returns a certificate (index permutations plus partition), or None when
    no ordering works, including when the totals differ. Raises
    SearchBudgetExceeded when the state cap is hit before the question is
    settled, which is deliberately distinct from None. Both walks below run
    on integer_units of the inputs and find the first ready order of
    _distinct_value_orders' sequence.

    With one distinct squared norm a the fill on the eigenvalues is the
    unit-norm fill on eigenvalues / a, so readiness is sfr_feasible's floor
    rule in the unit a: the order walk tests each eigenvalue prefix as it
    enters it, and each prefix it enters is one state of the budget. The
    norm order is the identity and the partition the floors. With several
    norms each distinct eigenvalue order gets one feed search, whose feed
    gives the norm order and, off its prefix sums, the partition; when one
    fails, the walk skips every order sharing the eigenvalue prefix that
    search read, so those orders spend no states. The feed searches share
    the budget: one that finds none left cuts on its first state, so a walk
    that ends with the budget spent answers None.
    """
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    cap = search_budget(budget)
    _, units, eig_units = integer_units(norms, eigs)
    if sum(units) != sum(eig_units):
        return None
    counts: Dict[int, int] = {}
    for v in units:
        counts[v] = counts.get(v, 0) + 1
    values = tuple(counts)
    cut = f"readiness search exceeded {cap} states"
    if len(values) == 1:
        for perm, permuted in _distinct_value_orders(eig_units, values[0], cap, cut, reach=True):
            return STReadyCertificate(
                norm_order=tuple(range(len(units))),
                eigenvalue_order=perm,
                partition=_floors(permuted, values[0]),
            )
        return None
    states_used = 0
    walk = _distinct_value_orders(eig_units)
    skip = None
    while True:
        try:
            perm, permuted = walk.send(skip)
        except StopIteration:
            return None
        search = _FillSearch(
            permuted, values, list(counts.values()), None, cap - states_used, cut,
            bridge_empty_rows=False, budget=cap,
        )
        if search.run():
            feed = [values[tag] for tag in search.order]
            return STReadyCertificate(
                norm_order=_assign_indices(units, feed),
                eigenvalue_order=perm,
                partition=_feed_partition(permuted, feed),
            )
        states_used += search.states
        skip = search.reach + 1


def _floors(eigs: Sequence[int], unit: int) -> Tuple[int, ...]:
    """The floors of the prefix sums of eigenvalues in the given unit: the
    partition of an order that passes the floor rule."""
    return tuple(prefix // unit for prefix in itertools.accumulate(eigs))


def _feed_partition(eigs: Sequence[int], feed: Sequence[int]) -> Tuple[int, ...]:
    """The partition of a complete feed, by its definition: n_k is the
    largest n whose first n fed norms sum to at most the first k
    eigenvalues. _floors is its closed form for one norm."""
    fed = list(itertools.accumulate(feed, initial=0))
    return tuple(bisect.bisect_right(fed, prefix) - 1 for prefix in itertools.accumulate(eigs))


def _assign_indices(original: Sequence, feed: Sequence) -> Tuple[int, ...]:
    """Map a value feed back to original indices, taking equal values in index order."""
    pools: Dict[object, List[int]] = {}
    for idx in range(len(original) - 1, -1, -1):
        pools.setdefault(original[idx], []).append(idx)
    return tuple(pools[v].pop() for v in feed)


class BlockCount(NamedTuple):
    mu: int
    permutation: Tuple[int, ...]
    heuristic: bool


# Cap on the work of the exact maximal block number: DP states times the
# part candidates tried at each, plus the nodes and subset sums of the part
# enumeration, each unit weighted by the machine words of the residues
# (_words). Past it the bounded greedy answers, flagged heuristic.
_MU_WORK_CAP = 1_000_000
# The greedy fallback tries parts of at most this many eigenvalues and at
# most _MU_GREEDY_COMBINATIONS candidate parts in all, each weighted by
# _words as well.
_MU_GREEDY_PART_SIZE = 8
_MU_GREEDY_COMBINATIONS = 50_000


def maximal_block_number(spectrum: Sequence) -> BlockCount:
    """Maximum number of integer partial sums achievable by permuting the spectrum.

    Equivalently the largest number of disjoint sub-multisets with integer
    sums; the returned permutation lists those parts consecutively (any
    non-integer remainder last). Only the fractional parts matter, so the
    count runs on integer residues: each eigenvalue in the common unit of
    integer_units, mod that unit.

    Two eigenvalues a, b whose residues sum to 0 mod the unit (r and
    unit - r, or two of unit/2) can always be one part. Take an optimal
    packing: if a and b lie in different parts A and B, then {a, b} and
    A | B - {a, b} also sum to integers, and the second is not empty since
    neither a nor b is an integer; if they share a part with other members,
    {a, b} splits off and the count grows; if one is left over, {a, b}
    replaces the part of the other; both left over would add a part. So
    some optimal packing holds the pair, and pairing off complementary
    classes greedily is exact. What remains is exact for any M by dynamic
    programming over how many eigenvalues of each residue remain (see
    _mu_residue). Only a remainder whose DP would exceed a fixed work cap,
    which takes many distinct fractional parts, falls back to a greedy
    extraction of smallest integer-sum parts, bounded in the combinations it
    tries; that result is flagged heuristic. Greedy is not exact in general:
    it can merge elements of two genuine parts with a stray element and
    destroy both.
    """
    return _block_count(*integer_units(as_spectrum(spectrum)))


def _block_count(unit: int, scaled: Sequence[int]) -> BlockCount:
    """maximal_block_number of the eigenvalues Fraction(k, unit) for k in
    scaled: positive ints in a common unit, as integer_units gives them.
    The verifier passes its integer row sums here, so they are neither
    validated nor scaled a second time."""
    residues = [value % unit for value in scaled]
    exact = _mu_residue(residues, unit)
    if exact is not None:
        return BlockCount(mu=exact[0], permutation=exact[1], heuristic=False)
    mu, order = _mu_greedy(residues, unit)
    return BlockCount(mu=mu, permutation=order, heuristic=True)


def _words(modulus: int) -> int:
    """64-bit machine words of a residue mod modulus (at least 1): the
    weight of one unit of mu's work, whose sums and residues are that long."""
    return max(1, -(-modulus.bit_length() // 64))


class _MuWorkExceeded(Exception):
    """Internal: the exact block count ran past _MU_WORK_CAP."""


# How many members of each residue class (a multiset of fractional parts).
_Counts = Tuple[int, ...]


def _mu_residue(residues: Sequence[int], unit: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Exact (mu, permutation) from residues mod unit; None past the cap.

    Each residue-0 (integer) eigenvalue is a part of its own. The others are
    grouped into classes by residue, and complementary classes are paired
    off first: r with unit - r as long as both have members, and unit/2
    with itself. By the exchange argument of maximal_block_number some
    optimal packing holds every such pair, so this is exact. Afterwards no
    class has a partner left, every remaining minimal part has three or
    more members, and _residue_dp works on the smaller counts. A state there
    is the vector of how many members of each class remain. A state with
    one nonempty class r holds floor(count/q) parts, q = unit/gcd(r, unit).
    Otherwise take the lowest nonempty class: in an optimal choice one of
    its members is either left over, or lies in a part that can be taken
    minimal (a part with a proper integer-sum subpart splits into two). So
    the state's value is the best of leaving one member and closing one
    minimal zero-sum part through it.
    """
    classes: Dict[int, List[int]] = {}
    for index, residue in enumerate(residues):
        classes.setdefault(residue, []).append(index)
    order = classes.pop(0, [])
    mu = len(order)
    for residue, group in classes.items():
        partner = classes.get(unit - residue)
        if partner is not None:  # a class met again as a partner has none left to pair
            pairs = len(group) // 2 if partner is group else min(len(group), len(partner))
            for _ in range(pairs):
                order += (group.pop(), partner.pop())
            mu += pairs
    kept = sorted(residue for residue, group in classes.items() if group)
    members = [classes[residue] for residue in kept]
    counts = tuple(map(len, members))
    try:
        best = _residue_dp(kept, counts, unit)
    except _MuWorkExceeded:
        return None
    taken = [0] * len(counts)
    state: Optional[_Counts] = counts
    while state is not None:
        _, part, state = best[state]
        for k, size in enumerate(part or ()):
            order.extend(members[k][taken[k]:taken[k] + size])
            taken[k] += size
    placed = set(order)
    order.extend(i for i in range(len(residues)) if i not in placed)
    return mu + best[counts][0], tuple(order)


def _residue_dp(
    ints: List[int], counts: _Counts, modulus: int
) -> Dict[_Counts, Tuple[int, Optional[_Counts], Optional[_Counts]]]:
    """best[state] = (parts, part closed here or None, next state) per reached state.

    Classes are the residues ints[k] mod modulus, ascending and nonzero. A
    part of None with a next state leaves one member of the lowest class
    over. A final state, one with at most one nonempty class, closes all
    its parts at once, as one run of whole parts, and has no next state;
    its entry is recorded where the state is first met, so it costs no
    visit and a final root runs no drive(). Every other state is one visit
    run by drive(): it charges its work, tries leaving one member first and
    then each candidate part, visits each child not yet in best, and keeps
    the first move of the highest value. Raises _MuWorkExceeded past
    _MU_WORK_CAP.
    """
    width = len(ints)
    weight = _words(modulus)
    work = 0
    parts_through: Dict[int, List[_Counts]] = {}
    best: Dict[_Counts, Tuple[int, Optional[_Counts], Optional[_Counts]]] = {}

    def lowest(state: _Counts) -> Optional[int]:
        """The state's lowest nonempty class, or None once a final state's
        entry is recorded."""
        low = 0
        while low < width and not state[low]:
            low += 1
        if low < width and any(state[low + 1 :]):
            return low
        size = modulus // math.gcd(ints[low], modulus) if low < width else 0
        parts = state[low] // size if size else 0
        run = state[:low] + (parts * size,) + state[low + 1 :] if parts else None
        best[state] = (parts, run, None)
        return None

    def visit(state: _Counts, low: int) -> Generator:
        nonlocal work
        if low not in parts_through:
            parts_through[low], work = _minimal_zero_sum_parts(low, ints, counts, modulus, work)
        candidates = parts_through[low]
        work += (1 + len(candidates)) * weight
        if work > _MU_WORK_CAP:
            raise _MuWorkExceeded
        moves = [(None, state[:low] + (state[low] - 1,) + state[low + 1 :])]
        for part in candidates:
            child = tuple(map(operator.sub, state, part))
            if min(child) >= 0:
                moves.append((part, child))
        top = None
        for part, child in moves:
            if child not in best:
                child_low = lowest(child)
                if child_low is not None:
                    yield visit(child, child_low)
            value = best[child][0] + (part is not None)
            if top is None or value > top[0]:
                top = (value, part, child)
        best[state] = top

    low = lowest(counts)
    if low is not None:
        drive(visit(counts, low))
    return best


def _minimal_zero_sum_parts(
    low: int, ints: List[int], counts: _Counts, modulus: int, work: int
) -> Tuple[List[_Counts], int]:
    """Count vectors of the minimal zero-sum multisets whose lowest class is
    low, and the work after the walk: the given work plus, per node, one
    unit for the node and one per subset sum it holds, each weighted by the
    residues' _words, and, past one word, _words - 1 per class it scans for
    a child, so word-sized residues count as they always have.

    Classes are residues ints[k]/modulus with at most counts[k] members. A
    multiset is minimal zero-sum exactly when dropping one member of its
    highest class leaves a zero-sum-free multiset T (no nonempty
    sub-multiset sums to 0 mod modulus) and that member is -sum(T). So walk
    the zero-sum-free T, classes non-decreasing from low, keeping the set
    of their nonempty subset sums, and close each T once. Raises
    _MuWorkExceeded once the work passes _MU_WORK_CAP.
    """
    size = len(ints)
    weight = _words(modulus)
    class_of = {a: k for k, a in enumerate(ints)}
    found: List[_Counts] = []
    start = tuple(int(k == low) for k in range(size))
    stack = [(start, low, ints[low], {ints[low]})]
    while stack:
        used, last, total, sums = stack.pop()
        work += (1 + len(sums)) * weight + (size - last) * (weight - 1)
        if work > _MU_WORK_CAP:
            raise _MuWorkExceeded
        closing = class_of.get(-total % modulus)
        if closing is not None and closing >= last and used[closing] < counts[closing]:
            found.append(used[:closing] + (used[closing] + 1,) + used[closing + 1:])
        for k in range(last, size):
            a = ints[k]
            if used[k] == counts[k] or -a % modulus in sums:
                continue
            grown = used[:k] + (used[k] + 1,) + used[k + 1:]
            grown_sums = {(s + a) % modulus for s in sums}
            grown_sums |= sums
            grown_sums.add(a)
            stack.append((grown, k, (total + a) % modulus, grown_sums))
    return found, work


def _mu_greedy(residues: Sequence[int], unit: int) -> Tuple[int, Tuple[int, ...]]:
    """Repeatedly extract a smallest integer-sum part; heuristic and bounded.

    A part sums to an integer when its residues sum to 0 mod unit. Parts
    have at most _MU_GREEDY_PART_SIZE members, and once
    _MU_GREEDY_COMBINATIONS candidate parts, each weighted by the residues'
    _words, have been tried the rest is left over.
    """
    remaining = list(range(len(residues)))
    order: List[int] = []
    mu = 0
    weight = _words(unit)
    budget = _MU_GREEDY_COMBINATIONS // weight
    tries = 0
    while remaining:
        part = None
        sizes = range(1, min(len(remaining), _MU_GREEDY_PART_SIZE) + 1)
        combos = itertools.chain.from_iterable(itertools.combinations(remaining, n) for n in sizes)
        for combo in itertools.islice(combos, budget - tries):
            tries += 1
            if not sum(map(residues.__getitem__, combo)) % unit:
                part = combo
                break
        if part is None:
            break
        mu += 1
        order.extend(part)
        remaining = [i for i in remaining if i not in part]
    order.extend(remaining)
    return mu, tuple(order)


def untf_feasible(dimension: int, count: int) -> bool:
    """Whether the greedy can build a unit-norm tight frame of `count` vectors.

    The reduced ratio count/dimension must be at least 2 or of the form
    (2L-1)/L. Fewer vectors than dimensions raises Underdetermined.
    """
    dimension = _positive_int(dimension, "dimension")
    count = _positive_int(count, "count")
    if count < dimension:
        raise Underdetermined(f"{count} vectors cannot span dimension {dimension}")
    ratio = Fraction(count, dimension)
    if ratio >= 2:
        return True
    return ratio.numerator == 2 * ratio.denominator - 1


def untf_floor_condition(dimension: int, count: int) -> bool:
    """Floor characterization of unit-norm tight frame feasibility for M < N < 2M.

    Checks floor(k*ratio) <= (k+1)*ratio - 2 for every k < M with k*ratio
    not an integer; outside the open band (M, 2M) the hypothesis fails and
    OutOfRange is raised.
    """
    dimension = _positive_int(dimension, "dimension")
    count = _positive_int(count, "count")
    if not dimension < count < 2 * dimension:
        raise OutOfRange(
            f"floor condition requires {dimension} < count < {2 * dimension}, got {count}"
        )
    ratio = Fraction(count, dimension)
    for k in range(1, dimension):
        partial = k * ratio
        if partial.denominator == 1:
            continue
        if math.floor(partial) > (k + 1) * ratio - 2:
            return False
    return True


class SfrCertificate(NamedTuple):
    partition: Tuple[int, ...]
    eigenvalue_order: Tuple[int, ...]


def sfr_feasible(spectrum: Sequence, count: int) -> Optional[SfrCertificate]:
    """Partition witnessing that a unit-norm frame with this spectrum is buildable.

    For some permutation of the eigenvalues, the floors n_k of the eigenvalue
    prefix sums must be strictly increasing, with a jump of at least 2
    whenever the prefix sum is fractional. Eigenvalues not summing to the
    vector count raises SumMismatch; no qualifying permutation returns None.

    The floor rule is decided by _distinct_value_orders on integer_units of
    the eigenvalues: it walks the distinct orders in st_ready_search's
    sequence, tests each prefix as it enters it, leaves a failing prefix
    with every order through it, and leaves used values already found to
    admit no completion; the first order whose every prefix passes is
    returned. Each prefix entered is one state: entering more than
    search_budget() raises SearchBudgetExceeded, never None.
    """
    eigs = as_spectrum(spectrum)
    count = _positive_int(count, "count")
    unit, eig_units = integer_units(eigs)
    if sum(eig_units) != count * unit:
        raise SumMismatch(f"eigenvalues sum to {sum(eigs)}, need {count}")
    cap = search_budget()
    cut = f"eigenvalue order walk exceeded {cap} states"
    for perm, permuted in _distinct_value_orders(eig_units, unit, cap, cut):
        return SfrCertificate(partition=_floors(permuted, unit), eigenvalue_order=perm)
    return None


def pnstc_sufficient(norms_squared: Sequence, spectrum: Sequence) -> bool:
    """Easily-checked sufficient condition for readiness of non-decreasing sequences.

    Requires equal totals and a_{N-2L}^2 + a_{N-2L-1}^2 <= lambda_{M-L} for
    L = 0..M-1 (1-based). Both inputs must be given non-decreasing (ValueError
    otherwise); missing indices (fewer than 2M norms) simply report False.
    """
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    if list(norms) != sorted(norms) or list(eigs) != sorted(eigs):
        raise ValueError("sequences must be non-decreasing")
    if sum(norms) != sum(eigs):
        return False
    n_count, m_count = len(norms), len(eigs)
    for level in range(m_count):
        hi = n_count - 2 * level - 1
        lo = hi - 1
        if lo < 0:
            return False
        if norms[hi] + norms[lo] > eigs[m_count - level - 1]:
            return False
    return True


def tight_sufficient(norms_squared: Sequence, dimension: int) -> bool:
    """Largest-two-norms test for tight-frame construction with these norms.

    With norms sorted non-increasing, checks a_1^2 + a_2^2 <= (sum of squares)/M.
    Fewer than two vectors is vacuously fine.
    """
    norms = as_norms_squared(norms_squared)
    dimension = _positive_int(dimension, "dimension")
    if list(norms) != sorted(norms, reverse=True):
        raise ValueError("sequences must be non-increasing")
    if len(norms) < 2:
        return True
    bound = Fraction(sum(norms), dimension)
    return norms[0] + norms[1] <= bound
