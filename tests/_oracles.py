"""Brute-force reference implementations the library must agree with.

These are deliberately written from the definitions alone, with no shared
code or shortcuts from the package: readiness enumerates every ordering and
every partition (with one squared norm, every permutation with its one
possible partition), the block number enumerates every permutation (or, for
somewhat larger M, every sub-multiset), the distinct eigenvalue orders come
from walking every index permutation, and the verification oracles form
every row and column inner product of the dense matrix (they use the
package's exact arithmetic, nothing of its verifier). The exceptions are the
Spectral Tetris fill and the fusion verifier: their oracles are the
package's former code, kept as it was, and so are the readiness searches
that tried every distinct eigenvalue order in full, the frame verifier and
sparsity report that summed squares in RadicalScalar arithmetic (their
orthogonality and rank checks replaced by the dense oracles), the
JSON entry decoder that re-split every radicand, the tagged fusion search
that compared columns by exact inner products, the pruned readiness search
whose states held Fractions, the Spectral Tetris fill that compared and
subtracted Fractions, the JSON encoder, dense conversion and CSV writer
that worked entry by entry, the Naimark complement that converted every
completion entry through two Fractions, and the certificate partition that
replayed the fill's moves over a feed, st_ready_check as it tested the
prefix inequalities itself, the maximal block number's residue DP as a
stack machine of its own, the integer fill that took singleton roots and
stuck facts from the caller's Fraction norms with the construct_untf that
fed it N unit norms, the chain partition that walked a pool incidence
of its own, and the sweep parts that sorted every column's rows, settled
every sum through a sorted term list and compared every expectation as a
settled value, and the value readers that kept a repeat memo of their own
(a second walk to name a non-number, two passes over each group, dicts
keyed by object id) before the run-aware reader. floor_walk_oracle is a model of
the floor-rule order walk as a recursion, for the states it charges.
Slow on purpose; tests keep the sizes small.
"""

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, FrozenSet, Generator, List, Optional, Sequence, Set, Tuple

import numpy as np

from spectral_tetris import (
    Block,
    BlockDomain,
    ChainPartition,
    FusionFrame,
    InvalidPartition,
    NoSuchBlock,
    NotSTReady,
    RadicalScalar,
    ReorderFailed,
    SearchBudgetExceeded,
    SumMismatch,
    SynthesisMatrix,
    pnstc,
)
from spectral_tetris.blocks import _block_from_units
import spectral_tetris.construct as construct_module
from spectral_tetris.construct import (
    _FILL_WORDING,
    Accumulator,
    ExactSum,
    Form,
    _Stuck,
    _add_product,
    _vanishes,
    column_maps,
)
from spectral_tetris.errors import (
    Infeasible,
    NotParseval,
    SpectralTetrisError,
    SpectrumMismatch,
    Underdetermined,
)
from spectral_tetris.exact_numeric import (
    ZERO,
    ComplexRadicalEntry,
    MatrixEntry,
    RationalLike,
    _positive_int,
    entry_abs_squared,
    entry_to_complex,
    to_float,
)
from spectral_tetris.json_io import _fraction_field, _int_field
from spectral_tetris.sequences import (
    SfrCertificate,
    Spectrum,
    STReadyCertificate,
    _Counts,
    _MU_GREEDY_COMBINATIONS,
    _MU_WORK_CAP,
    _MuWorkExceeded,
    _assign_indices,
    _distinct_value_orders,
    _lcm,
    _minimal_zero_sum_parts,
    _words,
    as_norms_squared,
    as_spectrum,
    drive,
    integer_units,
    maximal_block_number,
    search_budget,
)
from spectral_tetris.verify import (
    FUSION_TOLERANCE,
    FusionReport,
    SquareSum,
    VerificationReport,
)

Key = Tuple[int, int]

COMPLEX_TOLERANCE = 1e-12


def st_ready_oracle(norms_squared, spectrum) -> bool:
    """Exhaustive readiness check straight from the partition condition.

    Some ordering of the squared norms and of the eigenvalues must admit
    indices 0 <= n_1 < ... < n_M = N with, for every k < M,
    prefix_a(n_k) <= prefix_l(k) < prefix_a(n_k + 1), and whenever the left
    inequality is strict, a jump n_{k+1} - n_k >= 2 and the squared norm at
    position n_k + 2 (1-based) at least the gap.
    """
    norms = tuple(Fraction(v) for v in norms_squared)
    eigs = tuple(Fraction(v) for v in spectrum)
    if sum(norms) != sum(eigs):
        return False
    n_count, m_count = len(norms), len(eigs)
    if m_count == 1:
        return True
    cut_choices = list(itertools.combinations(range(n_count), m_count - 1))
    eig_orders = set(itertools.permutations(eigs))
    for norm_order in set(itertools.permutations(norms)):
        a_prefix = [Fraction(0)]
        for value in norm_order:
            a_prefix.append(a_prefix[-1] + value)
        for eig_order in eig_orders:
            l_prefix = list(itertools.accumulate(eig_order))
            for cuts in cut_choices:
                part = cuts + (n_count,)
                ok = True
                for k in range(m_count - 1):
                    n_k = part[k]
                    l_k = l_prefix[k]
                    if not (a_prefix[n_k] <= l_k < a_prefix[n_k + 1]):
                        ok = False
                        break
                    if a_prefix[n_k] < l_k:
                        if part[k + 1] - n_k < 2:
                            ok = False
                            break
                        if norm_order[n_k + 1] < l_k - a_prefix[n_k]:
                            ok = False
                            break
                if ok:
                    return True
    return False


def mu_oracle(spectrum) -> int:
    """Maximum number of integer partial sums over all permutations."""
    eigs = tuple(Fraction(v) for v in spectrum)
    best = 0
    for perm in set(itertools.permutations(eigs)):
        count = 0
        total = Fraction(0)
        for value in perm:
            total += value
            if total.denominator == 1:
                count += 1
        if count > best:
            best = count
    return best


def mu_subset_dp_oracle(spectrum):
    """(mu, permutation) by dynamic programming over all 2^M sub-multisets.

    best[mask] is the most disjoint integer-sum parts inside the index set
    mask, trying every integer-sum sub-mask as one of them; the permutation
    lists the chosen parts consecutively and the remainder last.
    """
    eigs = tuple(Fraction(v) for v in spectrum)
    m_count = len(eigs)
    full = (1 << m_count) - 1
    integer_masks = [
        mask
        for mask in range(1, full + 1)
        if sum(eigs[i] for i in range(m_count) if mask >> i & 1).denominator == 1
    ]
    best = [0] * (full + 1)
    pick = [0] * (full + 1)
    for mask in range(1, full + 1):
        for part in integer_masks:
            if part & ~mask:
                continue
            candidate = 1 + best[mask ^ part]
            if candidate > best[mask]:
                best[mask] = candidate
                pick[mask] = part
    order = []
    mask = full
    while best[mask]:
        part = pick[mask]
        order.extend(i for i in range(m_count) if part >> i & 1)
        mask ^= part
    order.extend(i for i in range(m_count) if mask >> i & 1)
    return best[full], tuple(order)


def mu_greedy_oracle(spectrum):
    """(mu, permutation) of the bounded greedy fallback, summing Fractions.

    Repeatedly takes the first combination, smallest size first, whose
    eigenvalues sum to an integer; once _MU_GREEDY_COMBINATIONS combinations
    have been tried in all, the rest is left over. mu is the number of the
    permutation's prefixes that sum to an integer.
    """
    eigs = tuple(Fraction(v) for v in spectrum)
    remaining = list(range(len(eigs)))
    order = []
    tries = 0
    while remaining:
        part = None
        sizes = range(1, len(remaining) + 1)
        combos = itertools.chain.from_iterable(itertools.combinations(remaining, n) for n in sizes)
        for combo in itertools.islice(combos, _MU_GREEDY_COMBINATIONS - tries):
            tries += 1
            if sum(eigs[i] for i in combo).denominator == 1:
                part = combo
                break
        if part is None:
            break
        order.extend(part)
        remaining = [i for i in remaining if i not in part]
    order.extend(remaining)
    prefixes = itertools.accumulate(eigs[i] for i in order)
    return sum(total.denominator == 1 for total in prefixes), tuple(order)


def distinct_value_orders_oracle(values):
    """(index permutation, value order) for each new value order met while
    walking all index permutations in lexicographic order."""
    seen = set()
    out = []
    for perm in itertools.permutations(range(len(values))):
        key = tuple(values[i] for i in perm)
        if key not in seen:
            seen.add(key)
            out.append((perm, key))
    return out


def first_ready_order_oracle(norm, count, spectrum):
    """(index permutation, partition) of the first index permutation, in
    lexicographic order, on which `count` columns of squared norm `norm` are
    ready, or None; walks every permutation.

    With one norm a, prefix_a(n) = n * a, so prefix_a(n_k) <= prefix_l(k) <
    prefix_a(n_k + 1) leaves one partition, n_k = floor(prefix_l(k) / a);
    the rest of the partition condition is checked as st_ready_oracle
    checks it.
    """
    a = Fraction(norm)
    eigs = tuple(Fraction(v) for v in spectrum)
    if sum(eigs) != count * a:
        return None
    m_count = len(eigs)
    for perm in itertools.permutations(range(m_count)):
        l_prefix = list(itertools.accumulate(eigs[i] for i in perm))
        part = tuple(math.floor(total / a) for total in l_prefix[:-1]) + (count,)
        ok = all(part[k] < part[k + 1] for k in range(m_count - 1))
        for k in range(m_count - 1):
            gap = l_prefix[k] - part[k] * a
            if gap and (part[k + 1] - part[k] < 2 or a < gap):
                ok = False
        if ok:
            return perm, part
    return None


def floor_walk_oracle(spectrum, norm):
    """The floor-rule order walk of one squared norm, as a recursion over
    Fractions: (the first index permutation whose every prefix passes, or
    None, and the depth, 0-based, of each prefix the walk entered, in turn).

    At each position the walk offers the lowest unused index of each value,
    ascending, and each offer enters one prefix. A prefix passes when the
    floor of its sum over the norm exceeds that of the prefix before it, by
    at least 2 when that one was fractional. A passing prefix whose every
    child failed marks its multiset of used values dead, and a later prefix
    with a dead multiset is entered and left.
    """
    eigs = [Fraction(v) / Fraction(norm) for v in spectrum]
    unused = list(range(len(eigs)))
    perm: List[int] = []
    depths: List[int] = []
    dead = set()

    def walk(prefix):
        offers = sorted({eigs[i]: i for i in reversed(unused)}.values())
        for i in offers:
            depths.append(len(perm))
            total = prefix + eigs[i]
            gap = 1 if prefix.denominator == 1 else 2
            if perm and math.floor(total) - math.floor(prefix) < gap:
                continue
            perm.append(i)
            unused.remove(i)
            used = tuple(sorted(Counter(eigs[j] for j in perm).items()))
            if used not in dead:
                if not unused or walk(total):
                    return True
                dead.add(used)
            perm.pop()
            unused.append(i)
            unused.sort()
        return False

    return (tuple(perm) if walk(Fraction(0)) else None), depths


# -- verification: all row pairs and all column pairs of the dense matrix --------


def _dot(u, v):
    total = RadicalScalar()
    for x, y in zip(u, v):
        total = total + x * y
    return total


def _dense_rows(matrix):
    return [
        [matrix.entry(i, j) for j in range(matrix.col_count)] for i in range(matrix.row_count)
    ]


def _dense_columns(matrix):
    return [
        [matrix.entry(i, j) for i in range(matrix.row_count)] for j in range(matrix.col_count)
    ]


def sparse_inner(a: Dict[int, MatrixEntry], b: Dict[int, MatrixEntry]) -> RadicalScalar:
    """Exact inner product of two sparse real vectors: the package's former
    helper, which the former fusion code below calls."""
    if len(b) < len(a):
        a, b = b, a
    total = ZERO
    for index, value in a.items():
        other = b.get(index)
        if other is not None:
            total = total + value * other
    return total


def row_gram_oracle(matrix):
    """Exact AA^T of a real matrix, every entry a full row inner product."""
    rows = _dense_rows(matrix)
    return tuple(tuple(_dot(p, q) for q in rows) for p in rows)


def rows_orthogonal_oracle(matrix) -> bool:
    gram = row_gram_oracle(matrix)
    return all(
        not gram[p][q] for p in range(len(gram)) for q in range(len(gram)) if p != q
    )


def orthogonality_distance_oracle(matrix) -> int:
    """Largest k - j + 1 over column pairs j <= k with a nonzero exact inner product."""
    columns = _dense_columns(matrix)
    distance = 0
    for j in range(len(columns)):
        for k in range(j, len(columns)):
            if _dot(columns[j], columns[k]):
                distance = max(distance, k - j + 1)
    return distance


def complex_rows_orthogonal_oracle(matrix) -> bool:
    """Every off-diagonal entry of the float Gram AA* within 1e-12."""
    dense = matrix.to_dense()
    gram = dense @ dense.conj().T
    return all(
        abs(gram[p, q]) <= COMPLEX_TOLERANCE
        for p in range(matrix.row_count)
        for q in range(matrix.row_count)
        if p != q
    )


def complex_orthogonality_distance_oracle(matrix) -> int:
    """The same over the float Gram |A*A| with the strict 1e-12 threshold."""
    dense = matrix.to_dense()
    gram = np.abs(dense.conj().T @ dense)
    distance = 0
    for j in range(matrix.col_count):
        for k in range(j, matrix.col_count):
            if gram[j, k] > COMPLEX_TOLERANCE:
                distance = max(distance, k - j + 1)
    return distance


def exact_rank_oracle(matrix) -> int:
    """Row rank by dense Gaussian elimination over the radical field."""
    rows = [row for row in _dense_rows(matrix) if any(row)]
    rank = 0
    for col in range(matrix.col_count):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        inverse = pivot[col].inverse()
        for index, row in enumerate(rows):
            scale = row[col] * inverse
            rows[index] = [value - scale * p for value, p in zip(row, pivot)]
        rows = [row for row in rows if any(row)]
    return rank


def fusion_group_flags_oracle(frame):
    """(groups_orthogonal, weights_consistent) of a real fusion frame."""
    columns = _dense_columns(frame.generator)
    orthogonal = all(
        not _dot(columns[a], columns[b])
        for group in frame.partition
        for a, b in itertools.combinations(group, 2)
    )
    consistent = all(
        _dot(columns[col], columns[col]) == weight
        for group, weight in zip(frame.partition, frame.weights_squared)
        for col in group
    )
    return orthogonal, consistent


# -- the three copies of the Spectral Tetris fill the package had ---------------
# pnstc, pnstc_str and block_a_hat below are the package's former code, kept
# verbatim bar their names and docstrings; construct_untf was the same loop
# on unit norms, so its reference is pnstc_oracle((1,) * n, (n/m,) * m). They
# are the reference for the one fill that replaced the three loops: same
# entries, meta, swaps, error class, message and step.


def block_a_hat_oracle(x: RationalLike, a1_squared: RationalLike, a2_squared: RationalLike) -> Block:
    x = Fraction(x)
    a1 = Fraction(a1_squared)
    a2 = Fraction(a2_squared)
    if x <= 0:
        raise NoSuchBlock(f"row weight {x} must be positive")
    if a1 + a2 < x:
        raise NoSuchBlock(f"squared norms {a1}, {a2} sum below row weight {x}")
    if not ((a1 >= x and a2 >= x) or (a1 <= x and a2 <= x)):
        raise NoSuchBlock(
            f"squared norms {a1}, {a2} straddle the row weight {x}"
        )
    y = a1 + a2 - x
    if y == x:
        # both squared norms equal x here, so the symmetric block has the
        # right column norms
        half = RadicalScalar.sqrt(x / 2)
        return Block(rows=((half, half), (half, -half)))
    denom = x - y
    return Block(
        rows=(
            (
                RadicalScalar.sqrt(x * (a1 - y) / denom),
                RadicalScalar.sqrt(x * (x - a1) / denom),
            ),
            (
                RadicalScalar.sqrt(y * (x - a1) / denom),
                -RadicalScalar.sqrt(y * (a1 - y) / denom),
            ),
        )
    )


def _place_block(entries, block, row, col):
    for i, block_row in enumerate(block.rows):
        for j, value in enumerate(block_row):
            if value:
                entries[(row + i, col + j)] = value


def pnstc_oracle(norms_squared: Sequence, spectrum: Sequence) -> SynthesisMatrix:
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    if sum(norms) != sum(eigs):
        raise NotSTReady(
            f"total squared norm {sum(norms)} differs from spectrum total {sum(eigs)}"
        )
    entries: Dict[Key, MatrixEntry] = {}
    remaining: List[Fraction] = list(eigs)
    col = 0
    step = 0
    for row in range(len(eigs)):
        while remaining[row] > 0:
            if col >= len(norms):
                raise NotSTReady(
                    f"row {row} still needs weight {remaining[row]} with no norms left",
                    step=step,
                )
            a = norms[col]
            if remaining[row] >= a:
                entries[(row, col)] = RadicalScalar.sqrt(a)
                remaining[row] -= a
                col += 1
            else:
                if col + 1 >= len(norms):
                    raise NotSTReady(
                        f"norm {a} exceeds remaining weight {remaining[row]} of row {row} "
                        "and has no partner for a block",
                        step=step,
                    )
                b = norms[col + 1]
                try:
                    block = block_a_hat_oracle(remaining[row], a, b)
                except NoSuchBlock as exc:
                    raise NotSTReady(
                        f"no 2x2 block for row weight {remaining[row]} with squared norms "
                        f"{a}, {b}: {exc}",
                        step=step,
                    ) from exc
                spill = a + b - remaining[row]
                if row + 1 >= len(eigs):
                    raise NotSTReady(
                        f"block would spill weight {spill} past the last row", step=step
                    )
                if spill > remaining[row + 1]:
                    raise NotSTReady(
                        f"block spill {spill} overshoots row {row + 1}, "
                        f"which can absorb only {remaining[row + 1]}",
                        step=step,
                    )
                _place_block(entries, block, row, col)
                remaining[row + 1] -= spill
                remaining[row] = 0
                col += 2
            step += 1
    if col < len(norms):
        raise NotSTReady(
            f"{len(norms) - col} norms left over after the last row was filled", step=step
        )
    return SynthesisMatrix(
        len(eigs), len(norms), entries, meta={"algorithm": "pnstc", "steps": step}
    )


def pnstc_str_oracle(
    norms_squared: Sequence, spectrum: Sequence
) -> Tuple[SynthesisMatrix, Tuple[Tuple[int, int], ...]]:
    norms = list(as_norms_squared(norms_squared))
    eigs = as_spectrum(spectrum)
    if sum(norms) != sum(eigs):
        raise ReorderFailed(
            f"re-ordering preserves the total squared norm, but {sum(norms)} != {sum(eigs)}"
        )
    entries: Dict[Key, MatrixEntry] = {}
    swaps: List[Tuple[int, int]] = []
    remaining: List[Fraction] = list(eigs)
    col = 0
    for row in range(len(eigs)):
        while remaining[row] > 0:
            if col >= len(norms):
                raise ReorderFailed(
                    f"row {row} still needs weight {remaining[row]} with no norms left"
                )
            a = norms[col]
            if remaining[row] >= a:
                entries[(row, col)] = RadicalScalar.sqrt(a)
                remaining[row] -= a
                col += 1
                continue
            if col + 1 >= len(norms):
                raise ReorderFailed(
                    f"last norm {a} exceeds remaining weight {remaining[row]} of row {row}"
                )
            b = norms[col + 1]
            if remaining[row] > b:
                # the block cannot exist; after the swap the smaller norm
                # fits as a singleton, so the loop always advances
                norms[col], norms[col + 1] = b, a
                swaps.append((col, col + 1))
                continue
            block = block_a_hat_oracle(remaining[row], a, b)
            spill = a + b - remaining[row]
            if row + 1 >= len(eigs):
                raise ReorderFailed(f"block would spill weight {spill} past the last row")
            if spill > remaining[row + 1]:
                raise ReorderFailed(
                    f"block spill {spill} overshoots row {row + 1}; "
                    "swapping adjacent norms cannot reduce it"
                )
            _place_block(entries, block, row, col)
            remaining[row + 1] -= spill
            remaining[row] = 0
            col += 2
    if col < len(norms):
        raise ReorderFailed(f"{len(norms) - col} norms left over after the last row")
    matrix = SynthesisMatrix(
        len(eigs),
        len(norms),
        entries,
        meta={"algorithm": "pnstc_str", "swaps": tuple(swaps)},
    )
    return matrix, tuple(swaps)


# -- the fusion verifier the package had -----------------------------------------
# verify_fusion and its numeric group checks below are the package's former
# code, kept verbatim bar their names and docstrings; the row check beside them
# sums each row pair's inner product with sparse_inner. The report type is the
# package's; the square sums and sparse_inner are this file's. They are the
# reference for the verifier whose row, group and match checks are shared with
# the fusion constructions, and whose numeric route takes one SVD per group.


def _rows_exactly_orthogonal_oracle(columns) -> bool:
    """Every pair of distinct rows has a zero exact inner product, each one
    summed by sparse_inner over the two rows' {column: entry} maps (the
    package's former row Gram took the same products per shared column)."""
    rows: Dict[int, Dict[int, MatrixEntry]] = {}
    for col, column in enumerate(columns):
        for row, value in column.items():
            rows.setdefault(row, {})[col] = value
    return not any(
        sparse_inner(rows[p], rows[q]) for p, q in itertools.combinations(sorted(rows), 2)
    )


def numeric_group_checks_oracle(
    dense: np.ndarray, reference: FusionFrame
) -> Tuple[bool, bool, List[int]]:
    orthogonal = True
    consistent = True
    dims: List[int] = []
    for group, weight_squared in zip(reference.partition, reference.weights_squared):
        block = dense[:, list(group)]
        gram = block.conj().T @ block
        off = gram - np.diag(np.diag(gram))
        if off.size and np.max(np.abs(off)) > FUSION_TOLERANCE:
            orthogonal = False
        if np.max(np.abs(np.diag(gram) - float(weight_squared))) > FUSION_TOLERANCE:
            consistent = False
        singular = np.linalg.svd(block, compute_uv=False)
        cutoff = FUSION_TOLERANCE * max(1.0, singular[0] if singular.size else 0.0)
        dims.append(int(np.sum(singular > cutoff)))
    return orthogonal, consistent, dims


def verify_fusion_oracle(
    reference: FusionFrame, expected_spectrum: Optional[Sequence] = None
) -> FusionReport:
    generator = reference.generator
    m = generator.row_count
    real = not generator.is_complex

    rows_orthogonal = groups_orthogonal = weights_consistent = False
    if real:
        columns = column_maps(generator)
        rows_orthogonal = _rows_exactly_orthogonal_oracle(columns)
        groups_orthogonal = True
        weights_consistent = True
        for group, weight_squared in zip(reference.partition, reference.weights_squared):
            for a in range(len(group)):
                if sparse_inner(columns[group[a]], columns[group[a]]) != weight_squared:
                    weights_consistent = False
                for b in range(a + 1, len(group)):
                    if sparse_inner(columns[group[a]], columns[group[b]]):
                        groups_orthogonal = False

    row_sums, _ = _square_sums(generator)
    exact_route = (
        real
        and rows_orthogonal
        and groups_orthogonal
        and weights_consistent
        and all(v.is_rational() for v in row_sums)
    )

    if exact_route:
        spectrum = tuple(v.rational_part() for v in row_sums)
        spectrum_matches: Optional[bool] = None
        if expected_spectrum is not None:
            expected = list(expected_spectrum)
            spectrum_matches = len(expected) == m and all(
                spectrum[i] == Fraction(expected[i]) for i in range(m)
            )
        return FusionReport(
            is_frame=all(value > 0 for value in spectrum),
            rows_orthogonal=True,
            groups_orthogonal=True,
            weights_consistent=True,
            subspace_dims=reference.dims,
            spectrum=spectrum,
            lower_bound=min(spectrum) if spectrum else None,
            upper_bound=max(spectrum) if spectrum else None,
            exact=True,
            spectrum_matches=spectrum_matches,
        )

    dense = generator.to_dense()
    numeric_orthogonal, numeric_consistent, dims = numeric_group_checks_oracle(dense, reference)
    if not real:
        gram = dense @ dense.conj().T
        off = gram - np.diag(np.diag(gram))
        rows_orthogonal = bool(off.size == 0 or np.max(np.abs(off)) <= FUSION_TOLERANCE)
        groups_orthogonal = numeric_orthogonal
        weights_consistent = numeric_consistent

    operator = np.zeros((m, m), dtype=dense.dtype)
    for group, weight_squared in zip(reference.partition, reference.weights_squared):
        block = dense[:, list(group)]
        u, singular, _ = np.linalg.svd(block, full_matrices=False)
        cutoff = FUSION_TOLERANCE * max(1.0, singular[0] if singular.size else 0.0)
        basis = u[:, singular > cutoff]
        operator = operator + float(weight_squared) * (basis @ basis.conj().T)
    eigenvalues = np.linalg.eigvalsh(operator)[::-1] if m else np.zeros(0)
    spectrum = tuple(float(value) for value in eigenvalues)

    spectrum_matches = None
    if expected_spectrum is not None:
        expected = sorted((float(Fraction(v)) for v in expected_spectrum), reverse=True)
        spectrum_matches = len(expected) == len(spectrum) and all(
            abs(expected[i] - spectrum[i]) <= FUSION_TOLERANCE for i in range(len(expected))
        )

    return FusionReport(
        is_frame=bool(m and spectrum[-1] > FUSION_TOLERANCE),
        rows_orthogonal=rows_orthogonal,
        groups_orthogonal=groups_orthogonal,
        weights_consistent=weights_consistent,
        subspace_dims=tuple(dims),
        spectrum=spectrum,
        lower_bound=spectrum[-1] if spectrum else None,
        upper_bound=spectrum[0] if spectrum else None,
        exact=False,
        spectrum_matches=spectrum_matches,
    )


# -- the readiness searches before the order walk was pruned ------------------------
# st_ready_search (with its feed search), sfr_feasible and its floor check as
# they were when every distinct eigenvalue order was tried in full, verbatim
# bar their names and docstrings; the order walk, drive(), the budget, the
# certificate types and the index assignment are the package's (the walk,
# sent nothing, is pinned to distinct_value_orders_oracle).


class FeedSearchOracle:
    def __init__(self, eigs: Tuple[Fraction, ...], counts: Dict[Fraction, int], budget: int):
        self.eigs = eigs
        self.counts = counts
        self.budget = budget
        self.states = 0
        self.failed: set = set()
        self.feed: List[Fraction] = []
        self.partition: List[int] = []

    def _key(self, row: int, weight: Fraction):
        return (row, weight, tuple(sorted((v, c) for v, c in self.counts.items() if c)))

    def run(self) -> bool:
        return drive(self._fill(0, self.eigs[0]))

    def _fill(self, row: int, weight: Fraction):
        self.states += 1
        if self.states > self.budget:
            raise SearchBudgetExceeded(
                f"readiness search exceeded {self.budget} states"
            )
        if weight == 0:
            self.partition.append(len(self.feed))
            if row + 1 == len(self.eigs):
                return not any(self.counts.values())
            if (yield self._fill(row + 1, self.eigs[row + 1])):
                return True
            self.partition.pop()
            return False
        if weight < 0:
            return False
        key = self._key(row, weight)
        if key in self.failed:
            return False
        values = [v for v, c in self.counts.items() if c]
        for a in values:
            if a <= weight:
                self.counts[a] -= 1
                self.feed.append(a)
                if (yield self._fill(row, weight - a)):
                    return True
                self.feed.pop()
                self.counts[a] += 1
        if row + 1 < len(self.eigs) and not (
            # Bridging out of a row that owns no column of its own would
            # repeat the previous cut; partitions must strictly increase.
            self.partition
            and self.partition[-1] == len(self.feed)
        ):
            before = len(self.feed)
            for a in values:
                if a <= weight:
                    continue
                self.counts[a] -= 1
                partners = [b for b, c in self.counts.items() if c and b >= weight]
                for b in partners:
                    spill = a + b - weight
                    if spill > self.eigs[row + 1]:
                        continue
                    self.counts[b] -= 1
                    self.feed.extend((a, b))
                    self.partition.append(before)
                    if (yield self._fill(row + 1, self.eigs[row + 1] - spill)):
                        return True
                    self.partition.pop()
                    del self.feed[-2:]
                    self.counts[b] += 1
                self.counts[a] += 1
        self.failed.add(key)
        return False


def st_ready_search_oracle(
    norms_squared: Sequence, spectrum: Sequence, budget: Optional[int] = None
) -> Optional[STReadyCertificate]:
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    if sum(norms) != sum(eigs):
        return None
    cap = search_budget(budget)
    states_used = 0
    for perm, permuted in _distinct_value_orders(eigs):
        counts: Dict[Fraction, int] = {}
        for v in norms:
            counts[v] = counts.get(v, 0) + 1
        search = FeedSearchOracle(permuted, counts, cap - states_used)
        if search.run():
            norm_order = _assign_indices(norms, search.feed)
            return STReadyCertificate(
                norm_order=norm_order,
                eigenvalue_order=perm,
                partition=tuple(search.partition),
            )
        states_used += search.states
        if states_used >= cap:
            raise SearchBudgetExceeded(f"readiness search exceeded {cap} states")
    return None


def sfr_feasible_oracle(spectrum: Sequence, count: int) -> Optional[SfrCertificate]:
    eigs = as_spectrum(spectrum)
    total = sum(eigs)
    if total != count:
        raise SumMismatch(f"eigenvalues sum to {total}, need {count}")
    for perm, permuted in _distinct_value_orders(eigs):
        partition = floor_partition_oracle(permuted, count)
        if partition is not None:
            return SfrCertificate(partition=partition, eigenvalue_order=perm)
    return None


def floor_partition_oracle(eigs: Spectrum, count: int) -> Optional[Tuple[int, ...]]:
    partition: List[int] = []
    prefix = Fraction(0)
    gap = 1
    for value in eigs[:-1]:
        prefix += value
        cut = prefix.numerator // prefix.denominator
        if partition and cut - partition[-1] < gap:
            return None
        partition.append(cut)
        gap = 1 if cut == prefix else 2
    if partition and count - partition[-1] < gap:
        return None
    partition.append(count)
    return tuple(partition)


# -- square sums in RadicalScalar arithmetic ----------------------------------------
# _square_sums, _report_values, _matches, _sparsity_bound, verify_frame and
# sparsity_report as they were when every nonzero's square was an exact
# product added into RadicalScalar sums, verbatim bar names, except that the
# row orthogonality, rank and orthogonality distance checks are the dense
# all-pairs oracles above (float Gram ones on the complex path), not the
# package's. verify_fusion_oracle above reads _square_sums from here.


def _square_sums(matrix: SynthesisMatrix) -> Tuple[List[RadicalScalar], List[RadicalScalar]]:
    """Exact row and column square sums in one sweep (exact on both paths)."""
    rows = [ZERO] * matrix.row_count
    cols = [ZERO] * matrix.col_count
    for (i, j), value in matrix.entries.items():
        squared = entry_abs_squared(value)
        rows[i] = rows[i] + squared
        cols[j] = cols[j] + squared
    return rows, cols


def report_values_oracle(values: Sequence[RadicalScalar]) -> Tuple[SquareSum, ...]:
    if all(v.is_rational() for v in values):
        return tuple(v.rational_part() for v in values)
    return tuple(float(v) for v in values)


def matches_oracle(actual: Sequence, expected: Optional[Sequence]) -> Optional[bool]:
    """None without an expectation, else whether actual equals it exactly,
    entry by entry in order and with the same length."""
    if expected is None:
        return None
    expected = list(expected)
    return len(expected) == len(actual) and all(
        value == Fraction(want) for value, want in zip(actual, expected)
    )


def sparsity_bound_oracle(row_sums: Sequence[RadicalScalar], col_count: int) -> Optional[int]:
    if not row_sums:
        return 0
    if any(not value.is_rational() or value.rational_part() <= 0 for value in row_sums):
        return None
    mu = maximal_block_number([value.rational_part() for value in row_sums]).mu
    return col_count + 2 * (len(row_sums) - mu)


def verify_frame_oracle(
    matrix: SynthesisMatrix,
    expected_spectrum: Optional[Sequence] = None,
    expected_norms: Optional[Sequence] = None,
) -> VerificationReport:
    """Full report on a synthesis matrix. Never raises; see the report fields.

    Expected values, when given, are compared exactly (square sums are exact
    rationals even on the complex path) and in order: row m against
    expected_spectrum[m], column n against expected_norms[n].
    """
    m, n = matrix.row_count, matrix.col_count
    exact = not matrix.is_complex
    row_sums, col_norms = _square_sums(matrix)

    if exact:
        rows_orthogonal = rows_orthogonal_oracle(matrix)
        distance = orthogonality_distance_oracle(matrix)
    else:
        rows_orthogonal = complex_rows_orthogonal_oracle(matrix)
        distance = complex_orthogonality_distance_oracle(matrix)

    is_tight = rows_orthogonal and all(value == row_sums[0] for value in row_sums[1:])
    tight_bound: Optional[SquareSum] = None
    if is_tight and m > 0:
        tight_bound = report_values_oracle(row_sums[:1])[0]

    if rows_orthogonal:
        is_frame = all(bool(value) for value in row_sums)
    elif exact:
        is_frame = exact_rank_oracle(matrix) == m
    else:
        is_frame = int(np.linalg.matrix_rank(matrix.to_dense())) == m

    return VerificationReport(
        is_frame=is_frame,
        rows_orthogonal=rows_orthogonal,
        row_square_sums=report_values_oracle(row_sums),
        column_square_norms=report_values_oracle(col_norms),
        is_tight=is_tight,
        tight_bound=tight_bound,
        nonzero_count=matrix.nonzero_count,
        optimal_sparsity_bound=sparsity_bound_oracle(row_sums, n),
        orthogonality_distance=distance,
        exact=exact,
        spectrum_matches=matches_oracle(row_sums, expected_spectrum),
        norms_match=matches_oracle(col_norms, expected_norms),
    )


def sparsity_report_oracle(matrix: SynthesisMatrix, spectrum: Sequence) -> Tuple[int, int, bool]:
    """(nonzero count, optimal bound N + 2(M - mu), whether they coincide).

    The spectrum must equal the multiset of exact row square sums, else
    SpectrumMismatch: the sparsity bound is only meaningful for a matrix
    that actually carries that spectrum on its rows.
    """
    eigs = as_spectrum(spectrum)
    row_sums, _ = _square_sums(matrix)
    sums = [v.rational_part() for v in row_sums if v.is_rational()]
    if len(sums) != len(row_sums) or sorted(sums) != sorted(eigs):
        raise SpectrumMismatch("row square sums do not match the stated spectrum")
    bound = sparsity_bound_oracle(row_sums, matrix.col_count)
    count = matrix.nonzero_count
    return count, bound, count == bound


# -- the checking constructor as the judge of unchecked builds ----------------------


def assert_constructor_accepts(matrix: SynthesisMatrix) -> None:
    """The public constructor, which checks the shape and every entry,
    accepts the matrix's entries and finds the same complex flag: the guard
    on every producer that builds through SynthesisMatrix._unchecked."""
    rebuilt = SynthesisMatrix(matrix.row_count, matrix.col_count, dict(matrix.entries))
    assert rebuilt.is_complex == matrix.is_complex


# -- the JSON entry decoder that split every radicand -------------------------------
# json_io._entry_from_json verbatim bar its name; the field readers are the
# package's.


def entry_from_json_oracle(document) -> Tuple[int, int, MatrixEntry]:
    if not isinstance(document, dict):
        raise ValueError(f"entry must be an object, got {document!r}")
    row = _int_field(document.get("row"), "entry.row")
    col = _int_field(document.get("col"), "entry.col")
    terms = document.get("terms")
    if not isinstance(terms, list):
        raise ValueError(f"entry ({row}, {col}) needs a list of terms")
    pairs = []
    for term in terms:
        if not isinstance(term, dict):
            raise ValueError(f"entry ({row}, {col}) has a malformed term {term!r}")
        coefficient = _fraction_field(term, f"entry ({row}, {col}) term")
        radicand = _int_field(term.get("rad"), f"entry ({row}, {col}) term.rad")
        pairs.append((radicand, coefficient))
    try:
        modulus = RadicalScalar(pairs)
        if "omega_num" in document or "omega_den" in document:
            exponent = _int_field(document.get("omega_num"), "entry.omega_num")
            order = _int_field(document.get("omega_den"), "entry.omega_den")
            value: MatrixEntry = ComplexRadicalEntry.make(modulus, exponent, order)
        else:
            value = modulus
    except (SpectralTetrisError, ValueError, TypeError) as failure:
        raise ValueError(f"entry ({row}, {col}) is invalid: {failure}") from failure
    if not value:
        raise ValueError(f"entry ({row}, {col}) encodes an explicit zero")
    return row, col, value


# -- the tagged fusion search before it kept one row set per tag -----------------
# _TaggedSearch (comparing each new column with its tag's placed columns by
# exact inner products), the _tagged_pnstc it finishes with and the all-pairs
# group_flags, verbatim bar their names and docstrings and the blocks built by
# fraction_block_a_hat_oracle below; pnstc and drive are the package's, and
# sparse_inner is the package's former helper (above).

ColumnMap = Dict[int, MatrixEntry]


def group_flags_oracle(
    columns: Sequence[ColumnMap], group: Sequence[int], weight_squared: Fraction
) -> Tuple[bool, bool]:
    orthogonal = not any(
        sparse_inner(columns[a], columns[b]) for a, b in itertools.combinations(group, 2)
    )
    consistent = all(sparse_inner(columns[c], columns[c]) == weight_squared for c in group)
    return orthogonal, consistent



def tagged_pnstc_oracle(
    order: Sequence[Tuple[Fraction, int]], spectrum: Tuple[Fraction, ...]
) -> Optional[Tuple[SynthesisMatrix, Tuple[Tuple[int, ...], ...]]]:
    norms = tuple(w for w, _tag in order)
    try:
        matrix = pnstc(norms, spectrum)
    except NotSTReady:
        return None
    tags = sorted({tag for _w, tag in order})
    grouped: Dict[int, List[int]] = {tag: [] for tag in tags}
    for col, (_w, tag) in enumerate(order):
        grouped[tag].append(col)
    columns = column_maps(matrix)
    weights = {tag: w for w, tag in order}
    if not all(all(group_flags_oracle(columns, grouped[tag], weights[tag])) for tag in tags):
        return None
    return matrix, tuple(tuple(grouped[tag]) for tag in tags)



class TaggedSearchOracle:
    def __init__(
        self,
        weights: Tuple[Fraction, ...],
        dims: Tuple[int, ...],
        spectrum: Tuple[Fraction, ...],
        budget: int,
    ):
        self.weights = weights
        self.dims = dims
        self.spectrum = spectrum
        self.budget = budget
        self.states = 0
        self.remaining = list(dims)
        self.placed: Dict[int, List[ColumnMap]] = {i: [] for i in range(len(dims))}
        self.order: List[Tuple[Fraction, int]] = []

    def _fits(self, tag: int, column: ColumnMap) -> bool:
        for existing in self.placed[tag]:
            if sparse_inner(existing, column):
                return False
        return True

    def _candidate_tags(self) -> List[int]:
        picked: List[int] = []
        seen: Set[Tuple[Fraction, int, FrozenSet[int]]] = set()
        for tag in range(len(self.dims)):
            if not self.remaining[tag]:
                continue
            rows: Set[int] = set()
            for column in self.placed[tag]:
                rows |= set(column)
            key = (self.weights[tag], self.remaining[tag], frozenset(rows))
            if key in seen:
                continue
            seen.add(key)
            picked.append(tag)
        return picked

    def run(self) -> Optional[Tuple[SynthesisMatrix, Tuple[Tuple[int, ...], ...]]]:
        if drive(self._fill(0, self.spectrum[0])):
            return tagged_pnstc_oracle(tuple(self.order), self.spectrum)
        return None

    def _fill(self, row: int, weight: Fraction) -> Generator:
        self.states += 1
        if self.states > self.budget:
            raise SearchBudgetExceeded(
                f"no qualifying weight ordering found within the search budget "
                f"({self.budget} states)"
            )
        if weight == 0:
            if row + 1 == len(self.spectrum):
                return not any(self.remaining)
            return (yield self._fill(row + 1, self.spectrum[row + 1]))
        if weight < 0:
            return False
        for tag in self._candidate_tags():
            a = self.weights[tag]
            if a > weight:
                continue
            column = {row: RadicalScalar.sqrt(a)}
            if not self._fits(tag, column):
                continue
            self.remaining[tag] -= 1
            self.placed[tag].append(column)
            self.order.append((a, tag))
            if (yield self._fill(row, weight - a)):
                return True
            self.order.pop()
            self.placed[tag].pop()
            self.remaining[tag] += 1
        if row + 1 < len(self.spectrum):
            for tag in self._candidate_tags():
                a = self.weights[tag]
                if a <= weight:
                    continue
                self.remaining[tag] -= 1
                for partner in self._candidate_tags():
                    b = self.weights[partner]
                    if b < weight or (partner == tag and self.remaining[tag] < 1):
                        continue
                    spill = a + b - weight
                    if spill > self.spectrum[row + 1]:
                        continue
                    block = fraction_block_a_hat_oracle(weight, a, b)
                    first = {
                        row + i: block.rows[i][0] for i in range(2) if block.rows[i][0]
                    }
                    second = {
                        row + i: block.rows[i][1] for i in range(2) if block.rows[i][1]
                    }
                    if not self._fits(tag, first):
                        continue
                    self.placed[tag].append(first)
                    self.remaining[partner] -= 1
                    if self._fits(partner, second):
                        self.placed[partner].append(second)
                        self.order.extend(((a, tag), (b, partner)))
                        if (yield self._fill(row + 1, self.spectrum[row + 1] - spill)):
                            return True
                        del self.order[-2:]
                        self.placed[partner].pop()
                    self.remaining[partner] += 1
                    self.placed[tag].pop()
                self.remaining[tag] += 1
        return False


# -- the readiness search before it ran in integer units ---------------------------
# st_ready_search and its feed search as they were when every state held
# Fractions, verbatim bar their names and docstrings; the pruned order walk,
# drive(), the budget, the certificate type and the index assignment are the
# package's.


class FractionFeedSearchOracle:
    def __init__(self, eigs: Tuple[Fraction, ...], counts: Dict[Fraction, int], budget: int):
        self.eigs = eigs
        self.counts = counts
        self.budget = budget
        self.states = 0
        self.reach = 0
        self.failed: set = set()
        self.feed: List[Fraction] = []
        self.partition: List[int] = []

    def _key(self, row: int, weight: Fraction):
        return (row, weight, tuple(sorted((v, c) for v, c in self.counts.items() if c)))

    def run(self) -> bool:
        return drive(self._fill(0, self.eigs[0]))

    def _next_eig(self, row: int) -> Fraction:
        self.reach = max(self.reach, row + 1)
        return self.eigs[row + 1]

    def _fill(self, row: int, weight: Fraction):
        self.states += 1
        if self.states > self.budget:
            raise SearchBudgetExceeded(
                f"readiness search exceeded {self.budget} states"
            )
        if weight == 0:
            self.partition.append(len(self.feed))
            if row + 1 == len(self.eigs):
                return not any(self.counts.values())
            if (yield self._fill(row + 1, self._next_eig(row))):
                return True
            self.partition.pop()
            return False
        if weight < 0:
            return False
        key = self._key(row, weight)
        if key in self.failed:
            return False
        values = [v for v, c in self.counts.items() if c]
        for a in values:
            if a <= weight:
                self.counts[a] -= 1
                self.feed.append(a)
                if (yield self._fill(row, weight - a)):
                    return True
                self.feed.pop()
                self.counts[a] += 1
        if row + 1 < len(self.eigs) and not (
            # Bridging out of a row that owns no column of its own would
            # repeat the previous cut; partitions must strictly increase.
            self.partition
            and self.partition[-1] == len(self.feed)
        ):
            before = len(self.feed)
            for a in values:
                if a <= weight:
                    continue
                self.counts[a] -= 1
                partners = [b for b, c in self.counts.items() if c and b >= weight]
                for b in partners:
                    spill = a + b - weight
                    if spill > self._next_eig(row):
                        continue
                    self.counts[b] -= 1
                    self.feed.extend((a, b))
                    self.partition.append(before)
                    if (yield self._fill(row + 1, self._next_eig(row) - spill)):
                        return True
                    self.partition.pop()
                    del self.feed[-2:]
                    self.counts[b] += 1
                self.counts[a] += 1
        self.failed.add(key)
        return False


def fraction_st_ready_search_oracle(
    norms_squared: Sequence, spectrum: Sequence, budget: Optional[int] = None
) -> Optional[STReadyCertificate]:
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    if sum(norms) != sum(eigs):
        return None
    cap = search_budget(budget)
    states_used = 0
    walk = _distinct_value_orders(eigs)
    skip = None
    while True:
        try:
            perm, permuted = walk.send(skip)
        except StopIteration:
            return None
        counts: Dict[Fraction, int] = {}
        for v in norms:
            counts[v] = counts.get(v, 0) + 1
        search = FractionFeedSearchOracle(permuted, counts, cap - states_used)
        if search.run():
            norm_order = _assign_indices(norms, search.feed)
            return STReadyCertificate(
                norm_order=norm_order,
                eigenvalue_order=perm,
                partition=tuple(search.partition),
            )
        states_used += search.states
        if states_used >= cap:
            raise SearchBudgetExceeded(f"readiness search exceeded {cap} states")
        skip = search.reach + 1


# -- the 2x2 blocks before they were built from integers ----------------------------
# blocks.block_a, blocks._require_block and blocks.block_a_hat as they were when
# every entry was RadicalScalar.sqrt of a Fraction formula, verbatim bar their
# names and docstrings. They are the reference for blocks._block_from_units,
# and the Fraction fill below and TaggedSearchOracle build their blocks with them.


def fraction_block_a_oracle(x: RationalLike) -> Block:
    x = Fraction(x)
    if not 0 <= x <= 2:
        raise BlockDomain(f"block parameter {x} outside [0, 2]")
    top = RadicalScalar.sqrt(x / 2)
    bottom = RadicalScalar.sqrt(1 - x / 2)
    return Block(rows=((top, top), (bottom, -bottom)))


def _fraction_require_block(x, a1_squared, a2_squared) -> None:
    if x <= 0:
        raise NoSuchBlock(f"row weight {x} must be positive")
    if a1_squared + a2_squared < x:
        raise NoSuchBlock(f"squared norms {a1_squared}, {a2_squared} sum below row weight {x}")
    if not (
        (a1_squared >= x and a2_squared >= x) or (a1_squared <= x and a2_squared <= x)
    ):
        raise NoSuchBlock(
            f"squared norms {a1_squared}, {a2_squared} straddle the row weight {x}"
        )


def fraction_block_a_hat_oracle(
    x: RationalLike, a1_squared: RationalLike, a2_squared: RationalLike
) -> Block:
    x = Fraction(x)
    a1 = Fraction(a1_squared)
    a2 = Fraction(a2_squared)
    _fraction_require_block(x, a1, a2)
    y = a1 + a2 - x
    if a1 == a2:
        top = RadicalScalar.sqrt(x / 2)
        bottom = RadicalScalar.sqrt(y / 2)
        return Block(rows=((top, top), (bottom, -bottom)))
    denom = x - y
    return Block(
        rows=(
            (
                RadicalScalar.sqrt(x * (a1 - y) / denom),
                RadicalScalar.sqrt(x * (x - a1) / denom),
            ),
            (
                RadicalScalar.sqrt(y * (x - a1) / denom),
                -RadicalScalar.sqrt(y * (a1 - y) / denom),
            ),
        )
    )


# -- the Spectral Tetris fill before it ran in integer units ------------------------
# construct._greedy_fill as it was when every comparison, subtraction and spill
# was a Fraction operation, verbatim bar its name and docstring, and its blocks
# built by fraction_block_a_hat_oracle; _Stuck and RadicalScalar are the
# package's, _place_block is the copy above.


def fraction_greedy_fill_oracle(
    norms: Sequence[Fraction], eigs: Sequence[Fraction], swap_on_straddle: bool
) -> Tuple[Dict[Key, MatrixEntry], int, Tuple[Tuple[int, int], ...]]:
    norms = list(norms)
    entries: Dict[Key, MatrixEntry] = {}
    swaps: List[Tuple[int, int]] = []
    remaining = list(eigs)
    last = root = None
    col = step = 0
    for row in range(len(remaining)):
        while remaining[row] > 0:
            weight = remaining[row]
            a = norms[col]
            if weight >= a:
                if a != last:
                    last, root = a, RadicalScalar.sqrt(a)
                entries[(row, col)] = root
                remaining[row] = weight - a
                col += 1
                step += 1
                continue
            if col + 1 == len(norms):
                raise _Stuck("partner", step, dict(norm=a, weight=weight, row=row))
            b = norms[col + 1]
            if weight > b:
                if not swap_on_straddle:
                    raise _Stuck("straddle", step, dict(norm=a, partner=b, weight=weight))
                norms[col], norms[col + 1] = b, a
                swaps.append((col, col + 1))
                continue
            spill = a + b - weight
            if spill > remaining[row + 1]:
                facts = dict(spill=spill, next_row=row + 1, room=remaining[row + 1])
                raise _Stuck("overshoot", step, facts)
            _place_block(entries, fraction_block_a_hat_oracle(weight, a, b), row, col)
            remaining[row + 1] -= spill
            remaining[row] = 0
            col += 2
            step += 1
    return entries, step, tuple(swaps)


# -- the encoder, dense conversion and CSV writer that worked entry by entry -------
# json_io.matrix_to_json with its two helpers, SynthesisMatrix.to_dense and
# cli._matrix_csv, verbatim bar their names and the CSV writer reading the
# dense form from the old conversion; SynthesisMatrix.rows and is_complex,
# entry_to_complex and to_float are the package's.


def _terms_to_json(value: RadicalScalar) -> List[Dict[str, int]]:
    return [
        {"num": coefficient.numerator, "den": coefficient.denominator, "rad": radicand}
        for radicand, coefficient in value.terms
    ]


def _entry_to_json(row: int, col: int, value: MatrixEntry) -> Dict[str, object]:
    document: Dict[str, object] = {"row": row, "col": col}
    if isinstance(value, ComplexRadicalEntry):
        document["terms"] = _terms_to_json(value.modulus)
        document["omega_num"] = value.root_exponent
        document["omega_den"] = value.root_order
    else:
        document["terms"] = _terms_to_json(value)
    return document


def matrix_to_json_oracle(matrix: SynthesisMatrix) -> Dict[str, object]:
    return {
        "m": matrix.row_count,
        "n": matrix.col_count,
        "complex": matrix.is_complex,
        "entries": [
            _entry_to_json(row, col, value) for row, col, value in matrix.rows()
        ],
    }


def to_dense_oracle(matrix: SynthesisMatrix) -> np.ndarray:
    if matrix.is_complex:
        dense = np.zeros((matrix.row_count, matrix.col_count), dtype=np.complex128)
        for (i, j), value in matrix.entries.items():
            dense[i, j] = entry_to_complex(value)
    else:
        dense = np.zeros((matrix.row_count, matrix.col_count), dtype=np.float64)
        for (i, j), value in matrix.entries.items():
            dense[i, j] = to_float(value)
    return dense


def matrix_csv_oracle(matrix: SynthesisMatrix) -> str:
    dense = to_dense_oracle(matrix)
    complex_entries = matrix.is_complex  # a scan of every nonzero: read it once
    lines: List[str] = []
    for i in range(matrix.row_count):
        cells = []
        for j in range(matrix.col_count):
            value = dense[i, j]
            if complex_entries:
                cells.append("%.17g%+.17gj" % (value.real, value.imag))
            else:
                cells.append("%.17g" % value)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- the Naimark complement that read the completion entry by entry -------------
# The package's former naimark_complement, verbatim bar its name and docstring.


def naimark_complement_oracle(parseval: SynthesisMatrix) -> SynthesisMatrix:
    if parseval.is_complex:
        raise ValueError("only real synthesis matrices can be complemented here")
    m, n = parseval.row_count, parseval.col_count
    if m > n:
        raise NotParseval(f"a {m}x{n} matrix with m > n cannot have orthonormal rows")
    dense = parseval.to_dense()
    gram = dense @ dense.T
    if m and np.max(np.abs(gram - np.eye(m))) > 1e-10:
        raise NotParseval(
            "rows are not orthonormal: max Gram deviation "
            f"{np.max(np.abs(gram - np.eye(m))):.3e} exceeds 1e-10"
        )
    if m == n:
        return SynthesisMatrix(0, n, {}, meta={"algorithm": "naimark", "exact": False})
    _, _, vh = np.linalg.svd(dense, full_matrices=True)
    completion = vh[m:]
    stacked = np.vstack([dense, completion])
    deviation = np.max(np.abs(stacked @ stacked.T - np.eye(n)))
    if deviation > 1e-10:
        raise NotParseval(
            f"completion self-check failed: stacked Gram deviates by {deviation:.3e}"
        )
    entries: Dict[Key, MatrixEntry] = {}
    for i in range(n - m):
        for j in range(n):
            value = completion[i, j]
            if value != 0.0:
                entries[(i, j)] = RadicalScalar.from_rational(Fraction(value))
    return SynthesisMatrix(
        n - m, n, entries, meta={"algorithm": "naimark", "exact": False}
    )


# -- the certificate partition that replayed the fill ------------------------------
# The package's former sequences._feed_partition, verbatim bar its name and
# docstring: the number of columns fed before each row's cut, a 2x2 block's
# two columns counted after it.


def feed_partition_replay_oracle(eigs: Sequence[int], feed: Sequence[int]) -> Tuple[int, ...]:
    partition: List[int] = []
    row, weight, fed = 0, eigs[0], 0
    while True:
        if weight == 0:
            partition.append(fed)
            row += 1
            if row == len(eigs):
                return tuple(partition)
            weight = eigs[row]
        elif feed[fed] <= weight:
            weight -= feed[fed]
            fed += 1
        else:
            partition.append(fed)
            row += 1
            weight = eigs[row] - (feed[fed] + feed[fed + 1] - weight)
            fed += 2


def st_ready_check_oracle(
    norms_squared: Sequence, spectrum: Sequence, partition: Sequence[int]
) -> bool:
    """Decide whether the given orderings satisfy the readiness conditions.

    The partition must be integers 0 <= n_1 < n_2 < ... < n_M = N; anything
    else raises InvalidPartition. The conditions checked, for k < M:
    prefix_a(n_k) <= prefix_l(k) < prefix_a(n_k + 1), and when the left
    inequality is strict, n_{k+1} - n_k >= 2 and the (n_k+2)-nd squared norm
    is at least the strict gap.
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

    if sum(norms) != sum(eigs):
        return False
    prefix_a = [Fraction(0)]
    for v in norms:
        prefix_a.append(prefix_a[-1] + v)
    prefix_l = Fraction(0)
    for k in range(m_count - 1):
        prefix_l += eigs[k]
        n_k = part[k]
        if not (prefix_a[n_k] <= prefix_l < prefix_a[n_k + 1]):
            return False
        if prefix_a[n_k] < prefix_l:
            if part[k + 1] - n_k < 2:
                return False
            if norms[n_k + 1] < prefix_l - prefix_a[n_k]:
                return False
    return True


def residue_dp_stack_oracle(
    ints: List[int], counts: _Counts, modulus: int
) -> Dict[_Counts, Tuple[int, Optional[_Counts], Optional[_Counts]]]:
    """best[state] = (parts, part closed here or None, next state) per reached state.

    Classes are the residues ints[k] mod modulus, ascending and nonzero. A
    part of None with a next state leaves one member of the lowest class
    over. A state with a single nonempty class closes all its parts at
    once, as one run of whole parts, and has no next state. Raises
    _MuWorkExceeded past _MU_WORK_CAP.
    """
    width = len(ints)
    weight = _words(modulus)
    work = 0
    parts_through: Dict[int, List[_Counts]] = {}
    best: Dict[_Counts, Tuple[int, Optional[_Counts], Optional[_Counts]]] = {}
    moves_of: Dict[_Counts, List[Tuple[Optional[_Counts], _Counts]]] = {}
    stack = [counts]
    while stack:
        state = stack[-1]
        if state in best:
            stack.pop()
            continue
        moves = moves_of.get(state)
        if moves is None:
            low = 0
            while low < width and not state[low]:
                low += 1
            if low == width or not any(state[low + 1 :]):
                size = modulus // math.gcd(ints[low], modulus) if low < width else 0
                parts = state[low] // size if size else 0
                run = state[:low] + (parts * size,) + state[low + 1 :] if parts else None
                best[state] = (parts, run, None)
                stack.pop()
                continue
            if low not in parts_through:
                parts_through[low], work = _minimal_zero_sum_parts(
                    low, ints, counts, modulus, work
                )
            candidates = parts_through[low]
            work += (1 + len(candidates)) * weight
            if work > _MU_WORK_CAP:
                raise _MuWorkExceeded
            moves = [(None, state[:low] + (state[low] - 1,) + state[low + 1 :])]
            for part in candidates:
                child = tuple(map(operator.sub, state, part))
                if min(child) >= 0:
                    moves.append((part, child))
            moves_of[state] = moves
            missing = [child for _, child in moves if child not in best]
            if missing:
                stack.extend(missing)
                continue
        top = None
        for part, child in moves:
            value = best[child][0] + (part is not None)
            if top is None or value > top[0]:
                top = (value, part, child)
        del moves_of[state]
        best[state] = top
        stack.pop()
    return best


# -- the integer fill that carried the caller's norms ---------------------------------
# construct._greedy_fill and construct_untf as they were when the fill took
# each singleton's root and quoted each stuck fact from a parallel list of the
# caller's Fraction norms, and construct_untf scaled a tuple of N unit norms
# to feed it, verbatim bar their names and docstrings; _place_block is the
# copy above, the rest is the package's.


def greedy_fill_norms_oracle(
    norms: Sequence[Fraction],
    units: Sequence[int],
    eig_units: Sequence[int],
    unit: int,
    swap_on_straddle: bool,
) -> Tuple[Dict[Key, MatrixEntry], int, Tuple[Tuple[int, int], ...]]:
    norms = list(norms)
    units = list(units)
    remaining = list(eig_units)
    entries: Dict[Key, MatrixEntry] = {}
    swaps: List[Tuple[int, int]] = []
    last = root = None
    col = step = 0
    for row in range(len(remaining)):
        weight = remaining[row]
        while weight > 0:
            a = units[col]
            if weight >= a:
                if a != last:
                    last, root = a, RadicalScalar.sqrt(norms[col])
                entries[(row, col)] = root
                weight -= a
                col += 1
                step += 1
                continue
            if col + 1 == len(units):
                facts = dict(norm=norms[col], weight=Fraction(weight, unit), row=row)
                raise _Stuck("partner", step, facts)
            b = units[col + 1]
            if weight > b:
                if not swap_on_straddle:
                    facts = dict(
                        norm=norms[col], partner=norms[col + 1], weight=Fraction(weight, unit)
                    )
                    raise _Stuck("straddle", step, facts)
                units[col], units[col + 1] = b, a
                norms[col], norms[col + 1] = norms[col + 1], norms[col]
                swaps.append((col, col + 1))
                continue
            spill = a + b - weight
            if spill > remaining[row + 1]:
                facts = dict(
                    spill=Fraction(spill, unit),
                    next_row=row + 1,
                    room=Fraction(remaining[row + 1], unit),
                )
                raise _Stuck("overshoot", step, facts)
            _place_block(entries, _block_from_units(weight, a, b, unit), row, col)
            remaining[row + 1] -= spill
            weight = 0
            col += 2
            step += 1
    return entries, step, tuple(swaps)


def construct_untf_oracle(dimension: int, count: int) -> SynthesisMatrix:
    dimension = _positive_int(dimension, "dimension")
    count = _positive_int(count, "count")
    if count < dimension:
        raise Underdetermined(
            f"{count} vectors cannot span a space of dimension {dimension}"
        )
    eigenvalue = Fraction(count, dimension)
    norms = (Fraction(1),) * count
    unit, units, eig_units = integer_units(norms, (eigenvalue,) * dimension)

    # unit norms always have a partner and never straddle, so the only way
    # the fill can stop is a spill overshooting the next row
    try:
        entries, _, _ = greedy_fill_norms_oracle(
            norms, units, eig_units, unit, swap_on_straddle=False
        )
    except _Stuck as stuck:
        kind, _, facts = stuck.args
        reduced = f"{eigenvalue.numerator}/{eigenvalue.denominator}"
        label = reduced if reduced == f"{count}/{dimension}" else f"{count}/{dimension} = {reduced}"
        raise Infeasible(
            f"no sparse unit-norm tight frame of {count} vectors in dimension "
            f"{dimension}: eigenvalue {label} is neither an integer "
            f">= 2 nor of the form (2L-1)/L ({_FILL_WORDING[kind].format(**facts)})"
        ) from None
    meta = {"algorithm": "untf", "eigenvalue": eigenvalue}
    return SynthesisMatrix._unchecked(dimension, count, entries, False, meta)


# -- the chain partition that kept its own pool incidence ------------------------------
# fusion.maximal_chains as it was when it mapped each row to the pool's columns
# in it and walked each component with a stack, verbatim bar its name and
# docstring; column_maps and ChainPartition are the package's.


def maximal_chains_oracle(matrix: SynthesisMatrix, columns: Sequence[int]) -> ChainPartition:
    maps = column_maps(matrix)
    pool = sorted(set(columns))
    incidence: Dict[int, List[int]] = {}  # row -> the pool's columns in it
    for col in pool:
        for row in maps[col]:
            incidence.setdefault(row, []).append(col)
    unvisited = set(pool)
    chains: List[Tuple[int, ...]] = []
    for start in pool:
        if start not in unvisited:
            continue
        component = []
        stack = [start]
        unvisited.discard(start)
        while stack:
            col = stack.pop()
            component.append(col)
            for row in maps[col]:
                for neighbour in incidence[row]:
                    if neighbour in unvisited:
                        unvisited.discard(neighbour)
                        stack.append(neighbour)
        chains.append(tuple(sorted(component)))
    return ChainPartition(chains=tuple(chains))


# -- the sweep parts that sorted, settled and compared everything ----------------------
# construct.Sweep.forms, pairs and norms_equal, construct._entry_terms and
# _exact_sum, and verify._exact_expectation and _matches as they were when
# every column's rows were sorted and sliced, every sum was settled through
# a sorted term list and every expectation was converted at each position
# and compared settled; verbatim bar their names, docstrings and the module
# prefix on _UNIT_BITS, which tests patch. The Sweep methods take the sweep
# as self, so a test can set them on construct.Sweep.


def entry_terms_oracle(value: MatrixEntry) -> Tuple[Tuple[int, Fraction], ...]:
    return (value.modulus if isinstance(value, ComplexRadicalEntry) else value).terms


def sweep_forms_oracle(self) -> Dict[int, Form]:
    values = {id(value): value for value in self.matrix.entries.values()}
    terms = dict(zip(values, map(entry_terms_oracle, values.values())))
    self._square = square = {}
    unit = _lcm(c.denominator for parts in terms.values() for _, c in parts)
    if unit.bit_length() > construct_module._UNIT_BITS:
        self._past_cap = True
        return terms
    self.scale = unit * unit
    forms: Dict[int, Form] = {}
    for key, parts in terms.items():
        if len(parts) == 1:
            ((radicand, c),) = parts
            a = c.numerator * (unit // c.denominator)
            forms[key] = ((radicand, a),)
            square[key] = a * a * radicand
        else:
            forms[key] = tuple((r, c.numerator * (unit // c.denominator)) for r, c in parts)
    return forms


def sweep_pairs_oracle(self) -> Dict[Key, Accumulator]:
    forms = self.forms
    pairs: Dict[Key, Accumulator] = {}
    for column in column_maps(self.matrix):
        if len(column) < 2:
            continue  # a single row meets no other row here
        items = [(row, forms[id(value)]) for row, value in sorted(column.items())]
        for a, (p, x) in enumerate(items):
            for q, y in items[a + 1 :]:
                sums = pairs.get((p, q))
                if sums is None:
                    sums = pairs[(p, q)] = {}
                _add_product(sums, x, y)
    return pairs


def sweep_norms_equal_oracle(self, cols: Sequence[int], weight) -> bool:
    if not isinstance(weight, (int, Fraction)):
        return all(self.col_sums[col] == weight for col in cols)
    _, sums, _, parts = self._squares
    if parts and not all(_vanishes(parts.get(col, {})) for col in cols):
        return False
    # weight * scale, as an int when integral, so int sums compare as ints
    quotient, rest = divmod(weight.numerator * self.scale, weight.denominator)
    target = weight * self.scale if rest else quotient
    values = [sums[col] for col in cols]
    return values.count(target) == len(values)


def exact_sum_oracle(sums: Accumulator, scale: int) -> ExactSum:
    terms = sorted(
        (radicand, value if type(value) is Fraction else Fraction(value, scale))
        for radicand, value in sums.items()
        if value
    )
    if not terms:
        return Fraction(0)
    if terms[-1][0] == 1:
        return terms[0][1]
    # the radicands come from canonical values, so they are squarefree already
    return RadicalScalar._canonical(tuple(terms))


def exact_expectation_oracle(expected: Sequence) -> List[ExactSum]:
    exact = list(expected)
    if set(map(type, exact)) <= {Fraction, RadicalScalar}:
        return exact
    for position, want in enumerate(exact):
        if not isinstance(want, (Fraction, RadicalScalar)):
            try:
                exact[position] = Fraction(want)
            except (TypeError, ValueError, ArithmeticError) as failure:
                message = f"expected value {want!r} at position {position} is not a number"
                raise ValueError(message) from failure
    return exact


def matches_settled_oracle(
    actual: Sequence[ExactSum], expected: Optional[Sequence]
) -> Optional[bool]:
    if expected is None:
        return None
    expected = exact_expectation_oracle(expected)
    # both lists hold their objects, so each distinct pair is compared once
    pairs = dict(zip(zip(map(id, actual), map(id, expected)), zip(actual, expected)))
    return len(expected) == len(actual) and all(value == want for value, want in pairs.values())


# -- the per-layer repeat memos before the run-aware reader ----------------------------
# exact_numeric._rationals (a second walk to name a non-number), the
# sequences._positive_rationals around it, sequences.integer_units (two
# passes over each group, one step per position) and verify's
# _exact_expectation, _matches and _sums_match (each distinct object keyed
# by its id), as they were before exact_numeric._read; verbatim bar their
# names and the oracle names they call.


def rationals_oracle(values: Sequence, what: str) -> Tuple[Fraction, ...]:
    values = tuple(values)
    try:
        # Fraction(v) of a Fraction pays an ABC isinstance check; an exact
        # Fraction passes as it is, and every other value converts as before
        return tuple(v if type(v) is Fraction else Fraction(v) for v in values)
    except (TypeError, ValueError, ArithmeticError):
        # only a failed conversion walks the values again, to name the culprit
        for position, value in enumerate(values):
            try:
                Fraction(value)
            except (TypeError, ValueError, ArithmeticError) as failure:
                message = f"{what} {value!r} at position {position} is not a finite number"
                raise ValueError(message) from failure
        raise


def positive_rationals_oracle(values: Sequence, what: str, empty: str) -> Tuple[Fraction, ...]:
    out = rationals_oracle(values, what)
    if not out:
        raise ValueError(empty)
    if any(v.numerator <= 0 for v in out):
        raise ValueError(f"{what}s must be positive")
    return out


def integer_units_oracle(*groups: Sequence[Fraction]) -> Tuple[object, ...]:
    unit = _lcm(v.denominator for group in groups for v in group)
    scaled = (tuple(v.numerator * (unit // v.denominator) for v in group) for group in groups)
    return (unit, *scaled)


def exact_expectation_by_id_oracle(expected: Sequence) -> List[ExactSum]:
    exact = list(expected)
    if set(map(type, exact)) <= {Fraction, RadicalScalar}:
        return exact
    keys = list(map(id, exact))
    converted = {}
    for key, want in dict(zip(keys, exact)).items():
        if not isinstance(want, (Fraction, RadicalScalar)):
            try:
                converted[key] = Fraction(want)
            except (TypeError, ValueError, ArithmeticError) as failure:
                position = keys.index(key)
                message = f"expected value {want!r} at position {position} is not a number"
                raise ValueError(message) from failure
    return list(map(converted.get, keys, exact))


def matches_by_id_oracle(actual: Sequence[ExactSum], expected: Sequence[ExactSum]) -> bool:
    # both lists hold their objects, so each distinct pair is compared once
    pairs = dict(zip(zip(map(id, actual), map(id, expected)), zip(actual, expected)))
    return len(expected) == len(actual) and all(value == want for value, want in pairs.values())


def sums_match_by_id_oracle(sweep, columns: bool, expected: Optional[Sequence]) -> Optional[bool]:
    if expected is None:
        return None
    expected = exact_expectation_by_id_oracle(expected)
    sums = sweep.rational_sums(columns)
    if sums is not None and len(sums) == len(expected):
        keys = list(map(id, expected))
        targets = {}
        for key, want in dict(zip(keys, expected)).items():
            if isinstance(want, RadicalScalar):
                break
            targets[key] = sweep.scaled(want)
        else:
            return all(map(operator.eq, sums, map(targets.__getitem__, keys)))
    return matches_by_id_oracle(sweep.col_sums if columns else sweep.row_sums, expected)
