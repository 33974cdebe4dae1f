"""Fusion-frame layer on top of the sparse frame constructions.

A fusion frame here is a weighted family of subspaces, each handed over as
the span of a group of generator columns. Construction-side we only validate
structure (disjoint groups covering all columns, sizes matching the declared
dimensions); the mathematical claims (per-group orthogonality, spectrum) are
the verification engine's job, with advisory findings recorded in meta.
Columns that share no row are orthogonal, so group_flags checks only the
pairs that construct.row_columns puts in a common row, with the verifier's
column check (construct._columns_cancel, on integers). It squares nothing
itself: its callers hand it the column square sums of the one
construct._square_sums sweep per matrix, the sweep the verifier reads.

When the round-robin order fails, weighted_fusion runs the readiness fill
search (sequences._FillSearch) with one tag per subspace, each keeping the
set of rows its columns use. It runs on weights and eigenvalues scaled to
integers in one common unit, reads each block's rows from
blocks.block_a_hat_support (so it takes no square root) and memoizes failed
states; only the matrix it settles on is built, and checked, exactly. The
row sets decide orthogonality exactly. Each column is a singleton or one
column of a 2x2 block on consecutive rows, nonzero and real on its support,
so two columns sharing one row are not orthogonal. Only a block's own two
columns can share two rows (the search leaves a block's upper row for good),
and a block with orthogonal rows and four nonzero entries has orthogonal
columns only when both squared norms equal both row weights, which a > w
rules out. A tag's columns are thus pairwise support-disjoint, so undoing a
move just removes its rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .construct import (
    ExactSum,
    SynthesisMatrix,
    _columns_cancel,
    _naimark_completion,
    _square_sums,
    column_maps,
    pnstc,
    row_columns,
    sfr,
)
from .errors import (
    Infeasible,
    NoExtension,
    NotApplicable,
    NotSTReady,
    OutOfRange,
    SpectralTetrisError,
)
from .exact_numeric import MatrixEntry
from .sequences import _FillSearch, as_spectrum, integer_units, majorizes, search_budget

ColumnMap = Dict[int, MatrixEntry]


@dataclass
class FusionFrame:
    """Weighted subspace family presented by generator columns.

    partition[i] lists the 0-based generator columns spanning subspace i,
    which is declared to have dimension dims[i] and squared weight
    weights_squared[i]. meta carries construction notes and advisory flags.
    """

    m: int
    weights_squared: Tuple[Fraction, ...]
    dims: Tuple[int, ...]
    generator: SynthesisMatrix
    partition: Tuple[Tuple[int, ...], ...]
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (len(self.weights_squared) == len(self.dims) == len(self.partition)):
            raise ValueError("weights, dims and partition must align")
        if self.m != self.generator.row_count:
            raise ValueError(
                f"ambient dimension {self.m} differs from the generator's "
                f"{self.generator.row_count} rows"
            )
        seen: Set[int] = set()
        for group, dim in zip(self.partition, self.dims):
            if len(group) != dim or dim < 1:
                raise ValueError(f"group {group} does not match declared dimension {dim}")
            for col in group:
                if col in seen:
                    raise ValueError(f"column {col} assigned to two subspaces")
                if not 0 <= col < self.generator.col_count:
                    raise ValueError(f"column {col} outside the generator")
                seen.add(col)
        if len(seen) != self.generator.col_count:
            raise ValueError("partition must cover every generator column")
        if any(w <= 0 for w in self.weights_squared):
            raise ValueError("squared weights must be positive")

    @property
    def subspace_count(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class ChainPartition:
    """Maximal support-connected groups of columns."""

    chains: Tuple[Tuple[int, ...], ...]


def group_flags(
    columns: Sequence[ColumnMap],
    group: Sequence[int],
    weight_squared: Fraction,
    col_norms: Sequence[ExactSum],
) -> Tuple[bool, bool]:
    """(orthogonal, consistent), exactly: the group's real columns are
    pairwise orthogonal, and each has squared norm weight_squared. Both
    together make the group a tight frame for its span with bound
    weight_squared.

    Only pairs that share a row are checked, by construct._columns_cancel:
    a pair sharing exactly one row is not orthogonal, and a pair sharing
    more is decided on integer product accumulators, with no RadicalScalar
    product. The squared norms are read from col_norms, the column half of
    the caller's construct._square_sums sweep over the whole matrix.
    """
    pairs = dict.fromkeys(
        pair
        for cols in row_columns(columns, group).values()
        for pair in itertools.combinations(cols, 2)
    )
    orthogonal = all(_columns_cancel(columns[a], columns[b]) for a, b in pairs)
    consistent = all(col_norms[col] == weight_squared for col in group)
    return orthogonal, consistent


def maximal_chains(matrix: SynthesisMatrix, columns: Sequence[int]) -> ChainPartition:
    """Partition the given columns into maximal support-connected groups.

    Two columns are linked when their supports share a row; chains are the
    connected components of that graph, each sorted ascending, listed by
    their smallest member.
    """
    maps = column_maps(matrix)
    pool = sorted(set(columns))
    incidence = row_columns(maps, pool)
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


def sffr(spectrum: Sequence, subspace_count: int, subspace_dim: int) -> FusionFrame:
    """Unit-weighted fusion frame with equal dimensions via round-robin grouping.

    Builds the 2-sparse unit-norm frame for the spectrum and assigns column
    i + j*subspace_count to subspace i. The eigenvalue preconditions
    (subspace_count >= lambda_1 >= ... >= lambda_M >= 2, total = dim * count)
    are enforced; the stronger floor condition sufficient for orthogonal
    groups is only recorded in meta, as is the outcome of the per-group
    orthogonality re-check, because valid spectra exist where the grouping
    spans the right subspaces without the groups being orthogonal bases.
    """
    eigs = as_spectrum(spectrum)
    if subspace_count < 1 or subspace_dim < 1:
        raise ValueError("subspace count and dimension must be positive")
    if any(eigs[i] < eigs[i + 1] for i in range(len(eigs) - 1)):
        raise Infeasible("eigenvalues must be non-increasing")
    if eigs[0] > subspace_count:
        raise Infeasible(
            f"largest eigenvalue {eigs[0]} exceeds the subspace count {subspace_count}"
        )
    if eigs[-1] < 2:
        raise Infeasible(f"smallest eigenvalue {eigs[-1]} lies below 2")
    total = sum(eigs)
    if total != subspace_dim * subspace_count:
        raise Infeasible(
            f"eigenvalue total {total} differs from dim*count = "
            f"{subspace_dim * subspace_count}"
        )
    count = subspace_dim * subspace_count
    generator = sfr(eigs, count)
    partition = tuple(
        tuple(i + j * subspace_count for j in range(subspace_dim))
        for i in range(subspace_count)
    )
    floor_ok = True
    for value in eigs:
        if value.denominator != 1:
            floor_ok = math.floor(value) <= subspace_count - 3
            break
    columns = column_maps(generator)
    _, col_norms = _square_sums(generator)
    groups_orthogonal = all(
        all(group_flags(columns, group, Fraction(1), col_norms)) for group in partition
    )
    return FusionFrame(
        m=len(eigs),
        weights_squared=(Fraction(1),) * subspace_count,
        dims=(subspace_dim,) * subspace_count,
        generator=generator,
        partition=partition,
        meta={
            "algorithm": "sffr",
            "floor_condition": floor_ok,
            "groups_orthogonal": groups_orthogonal,
        },
    )


def rff(spectrum: Sequence, count: int) -> FusionFrame:
    """Reference fusion frame: support-disjoint first-fit over the unit frame.

    Runs the prescribed-norms construction with unit norms on the spectrum as
    given, creates as many buckets as the largest row support, and drops each
    column into the lowest-index bucket whose members' supports it avoids.
    Construction errors propagate.
    """
    eigs = as_spectrum(spectrum)
    if count < 1:
        raise ValueError(f"frame size {count} must be positive")
    generator = pnstc((Fraction(1),) * count, eigs)
    columns = column_maps(generator)
    bucket_count = max(len(cols) for cols in row_columns(columns, range(count)).values())
    buckets: List[List[int]] = [[] for _ in range(bucket_count)]
    supports: List[Set[int]] = [set() for _ in range(bucket_count)]
    for col in range(count):
        for bucket, support in zip(buckets, supports):
            if support.isdisjoint(columns[col]):
                bucket.append(col)
                support.update(columns[col])
                break
        else:
            raise Infeasible(
                f"column {col} conflicts with every one of the {bucket_count} buckets"
            )
    if any(not bucket for bucket in buckets):
        raise Infeasible("a reference bucket stayed empty")
    return FusionFrame(
        m=len(eigs),
        weights_squared=(Fraction(1),) * bucket_count,
        dims=tuple(len(b) for b in buckets),
        generator=generator,
        partition=tuple(tuple(b) for b in buckets),
        meta={"algorithm": "rff", "bucket_count": bucket_count},
    )


def _validate_dims(dims: Sequence[int]) -> Tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("dimension sequence must be nonempty")
    if any(d < 1 for d in out):
        raise ValueError("dimensions must be positive integers")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError("dimension sequence must be non-increasing")
    return out


def uff(spectrum: Sequence, dims: Sequence[int]) -> FusionFrame:
    """Unit-weighted fusion frame with prescribed dimensions via swap balancing.

    Starts from the reference fusion frame and repeatedly moves one column
    (or exchanges a maximal chain with a one-element imbalance) from a bucket
    above its target dimension into the highest-index deficient bucket. The
    total deficit drops by exactly 2 each round, and the history lands in
    meta. Raises Infeasible when the reference dimensions do not majorize the
    requested ones, and SpectralTetrisError naming the invariant should a
    round break one.
    """
    eigs = as_spectrum(spectrum)
    target = _validate_dims(dims)
    count = sum(target)
    if sum(eigs) != count:
        raise Infeasible(
            f"eigenvalue total {sum(eigs)} differs from requested dimension total {count}"
        )
    reference = rff(eigs, count)
    ordered = sorted(reference.partition, key=len, reverse=True)
    groups: List[Set[int]] = [set(g) for g in ordered]
    while len(groups) < len(target):
        groups.append(set())
    if len(groups) > len(target):
        raise Infeasible(
            f"reference frame needs {len(groups)} subspaces but only "
            f"{len(target)} dimensions were requested"
        )
    if not majorizes([len(g) for g in groups], target):
        raise Infeasible(
            f"reference dimensions {tuple(len(g) for g in groups)} do not majorize "
            f"the requested {target}"
        )
    columns = column_maps(reference.generator)
    deficit = sum(abs(len(g) - d) for g, d in zip(groups, target))
    history = [deficit]
    while deficit:
        over_or_under = [j for j in range(len(target)) if len(groups[j]) != target[j]]
        receiver = max(over_or_under)
        if len(groups[receiver]) >= target[receiver]:
            raise SpectralTetrisError("uff: the highest unbalanced bucket is not deficient")
        donors = [
            j for j in range(receiver) if len(groups[j]) > target[j]
        ]
        if not donors:
            raise SpectralTetrisError("uff: no donor bucket despite a positive deficit")
        donor = max(donors)
        receiver_rows = row_columns(columns, groups[receiver]).keys()
        detachable = [col for col in groups[donor] if receiver_rows.isdisjoint(columns[col])]
        if detachable:
            moved = max(detachable)
            groups[donor].discard(moved)
            groups[receiver].add(moved)
        else:
            chains = maximal_chains(
                reference.generator, sorted(groups[donor] | groups[receiver])
            )
            candidates = [
                chain
                for chain in chains.chains
                if len(set(chain) & groups[donor])
                == len(set(chain) & groups[receiver]) + 1
            ]
            if not candidates:
                raise SpectralTetrisError("uff: no chain with a one-element imbalance")
            chain = min(candidates, key=lambda c: c[0])
            donor_part = set(chain) & groups[donor]
            receiver_part = set(chain) & groups[receiver]
            groups[donor] = (groups[donor] - donor_part) | receiver_part
            groups[receiver] = (groups[receiver] - receiver_part) | donor_part
        new_deficit = sum(abs(len(g) - d) for g, d in zip(groups, target))
        if new_deficit != deficit - 2:
            raise SpectralTetrisError("uff: the deficit did not drop by exactly 2")
        deficit = new_deficit
        history.append(deficit)
    return FusionFrame(
        m=len(eigs),
        weights_squared=(Fraction(1),) * len(target),
        dims=target,
        generator=reference.generator,
        partition=tuple(tuple(sorted(g)) for g in groups),
        meta={"algorithm": "uff", "deficit_history": tuple(history)},
    )


def tight_uff_feasible(dimension: int, count: int, dims: Sequence[int]) -> bool:
    """Whether a unit-weighted tight fusion frame with these dimensions exists.

    Decided by the majorization test against the reference fusion frame of
    the flat spectrum count/dimension. Raises OutOfRange for count < 2*dimension
    (the characterization assumes redundancy at least 2) and ValueError when
    the dimensions do not sum to count.
    """
    if dimension < 1 or count < 1:
        raise ValueError("dimension and count must be positive")
    if count < 2 * dimension:
        raise OutOfRange(
            f"the characterization needs count >= 2*dimension; got {count} < {2 * dimension}"
        )
    target = _validate_dims(dims)
    if sum(target) != count:
        raise ValueError(f"dimensions sum to {sum(target)}, not {count}")
    flat = (Fraction(count, dimension),) * dimension
    reference = rff(flat, count)
    sizes = sorted((len(g) for g in reference.partition), reverse=True)
    return majorizes(sizes, target)


def _tagged_pnstc(
    order: Sequence[Tuple[Fraction, int]], spectrum: Tuple[Fraction, ...]
) -> Optional[Tuple[SynthesisMatrix, Tuple[Tuple[int, ...], ...]]]:
    """Run pnstc on a tagged norm order; regroup columns by tag and check each
    group exactly. Returns None when construction or a group check fails."""
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
    _, col_norms = _square_sums(matrix)
    weights = {tag: w for w, tag in order}
    if not all(all(group_flags(columns, grouped[tag], weights[tag], col_norms)) for tag in tags):
        return None
    return matrix, tuple(tuple(grouped[tag]) for tag in tags)


def weighted_fusion(
    weights_squared: Sequence,
    dims: Sequence[int],
    spectrum: Sequence,
    budget: Optional[int] = None,
) -> FusionFrame:
    """Fusion frame with prescribed squared weights, dimensions and spectrum.

    Feeds d_i copies of each squared weight to the prescribed-norms
    construction and groups the resulting columns by origin. The round-robin
    order (w_1..w_D, w_1..w_D, ...) is tried first; if it fails either the
    construction or a group's exact orthogonality check, a bounded search
    over tagged orders runs. Raises Infeasible when no ordering qualifies,
    SearchBudgetExceeded when the search hits its budget before settling it.
    """
    eigs = as_spectrum(spectrum)
    dims_t = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims_t):
        raise ValueError("dimensions must be positive integers")
    weights = tuple(Fraction(w) for w in weights_squared)
    if len(weights) != len(dims_t):
        raise ValueError("weights and dimensions must align")
    if any(w <= 0 for w in weights):
        raise ValueError("squared weights must be positive")
    total = sum(w * d for w, d in zip(weights, dims_t))
    if total != sum(eigs):
        raise Infeasible(
            f"weighted dimension total {total} differs from eigenvalue total {sum(eigs)}"
        )
    round_robin: List[Tuple[Fraction, int]] = []
    for layer in range(max(dims_t)):
        for tag, (weight, dim) in enumerate(zip(weights, dims_t)):
            if layer < dim:
                round_robin.append((weight, tag))
    outcome = _tagged_pnstc(tuple(round_robin), eigs)
    source = "round-robin"
    if outcome is None:
        cap = search_budget(budget)
        _, units, eig_units = integer_units(weights, eigs)
        search = _FillSearch(
            eig_units, units, list(dims_t), [set() for _ in dims_t], cap,
            f"no qualifying weight ordering found within the search budget ({cap} states)",
            bridge_empty_rows=True,
        )
        if search.run():
            outcome = _tagged_pnstc(tuple((weights[tag], tag) for tag in search.order), eigs)
        source = "search"
    if outcome is None:
        raise Infeasible(
            "no ordering of the weights produces the requested fusion frame: "
            "every feeding order fails the construction or a group orthogonality check"
        )
    matrix, partition = outcome
    matrix.meta.update(algorithm="weighted_fusion", ordering=source)
    return FusionFrame(
        m=len(eigs),
        weights_squared=weights,
        dims=dims_t,
        generator=matrix,
        partition=partition,
        meta={"algorithm": "weighted_fusion", "ordering": source},
    )


_EXTENSION_SCAN_CAP = 10_000


def extend_to_tight(
    ff: FusionFrame, spectrum: Sequence
) -> Tuple[int, int, Optional[FusionFrame]]:
    """Extend an equal-dimensional fusion frame to a tight one.

    Scans for the smallest integer A with lambda_1 + 2 <= A, A*M divisible
    into an integer total N0 = A*M/k, and A <= lambda_M + N0 - (D+3); the
    complement is the round-robin fusion frame on the reflected residual
    spectrum (A - lambda_m), with generator rows mapped back so row m carries
    weight A - lambda_m. Raises ValueError when the subspace dimension is not
    a common value below the ambient dimension, NoExtension when the scan cap
    is hit.
    """
    eigs = as_spectrum(spectrum)
    ambient = ff.m
    if len(eigs) != ambient:
        raise ValueError("spectrum length must match the ambient dimension")
    if any(eigs[i] < eigs[i + 1] for i in range(len(eigs) - 1)):
        raise ValueError("spectrum must be non-increasing")
    dims = set(ff.dims)
    if len(dims) != 1:
        raise ValueError("tight extension needs equal subspace dimensions")
    k = dims.pop()
    if k >= ambient:
        raise ValueError(
            f"subspace dimension {k} must be smaller than the ambient dimension {ambient}"
        )
    subspaces = ff.subspace_count
    if eigs[0] > subspaces or eigs[-1] < 2:
        raise ValueError(
            "eigenvalues must satisfy D >= lambda_1 >= ... >= lambda_M >= 2"
        )
    start = math.ceil(eigs[0] + 2)
    for bound in range(start, start + _EXTENSION_SCAN_CAP):
        if (bound * ambient) % k:
            continue
        total = bound * ambient // k
        if bound <= eigs[-1] + total - (subspaces + 3):
            break
    else:
        raise NoExtension(
            f"no qualifying tight bound in [{start}, {start + _EXTENSION_SCAN_CAP})"
        )
    extra = total - subspaces
    if extra == 0:
        return bound, total, None
    residual = tuple(bound - value for value in reversed(eigs))
    complement = sffr(residual, extra, k)
    flipped: Dict[Tuple[int, int], MatrixEntry] = {}
    for (row, col), value in complement.generator.entries.items():
        flipped[(ambient - 1 - row, col)] = value
    generator = SynthesisMatrix(
        ambient,
        complement.generator.col_count,
        flipped,
        meta=dict(complement.generator.meta),
    )
    generator.meta["rows_reversed"] = True
    result = FusionFrame(
        m=ambient,
        weights_squared=complement.weights_squared,
        dims=complement.dims,
        generator=generator,
        partition=complement.partition,
        meta=dict(complement.meta, algorithm="extend_to_tight", tight_bound=bound),
    )
    return bound, total, result


def spatial_complement_bounds(
    ff: FusionFrame, lower: Fraction, upper: Fraction
) -> Tuple[bool, Fraction, Fraction]:
    """Feasibility and optimal bounds of the spatial complement.

    Given the input's optimal fusion bounds, the complement family of
    orthogonal complements is a fusion frame exactly when the upper bound
    stays strictly below the total squared weight; its optimal bounds are the
    reflections (total - upper, total - lower).
    """
    lower = Fraction(lower)
    upper = Fraction(upper)
    total = sum(ff.weights_squared)
    return upper < total, total - upper, total - lower


def naimark_complement_fusion(ff: FusionFrame) -> FusionFrame:
    """Naimark complement of a Parseval fusion frame with weights inside (0,1).

    Complements the generator to an orthogonal basis of the big space and
    regroups the new rows' columns by the same partition: subspace i keeps
    its dimension and receives squared weight 1 - w_i^2. The completion step
    (one dense form, one Gram check, one SVD) is naimark_complement's. Raises
    NotApplicable when a weight leaves (0,1) or the generator is not Parseval
    at 1e-10, ValueError on a complex generator.
    """
    for weight in ff.weights_squared:
        if not 0 < weight < 1:
            raise NotApplicable(
                f"squared weight {weight} outside (0,1): the complement weight "
                "1 - w^2 would not be a valid fusion weight"
            )

    def refuse(deviation: float) -> NotApplicable:
        return NotApplicable(
            f"fusion frame is not Parseval: generator Gram deviates by {deviation:.3e}"
        )

    complement = _naimark_completion(ff.generator, refuse)
    weights = tuple(1 - w for w in ff.weights_squared)
    return FusionFrame(
        m=complement.row_count,
        weights_squared=weights,
        dims=ff.dims,
        generator=complement,
        partition=ff.partition,
        meta={"algorithm": "naimark_complement_fusion", "exact": False},
    )
