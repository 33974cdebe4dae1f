"""Independent verification of synthesis matrices and fusion frames.

Real matrices are judged in exact radical arithmetic with zero tolerance;
complex entries drop the checks to floating point (1e-12 for frames, 1e-10
for fusion operators) and flag the report exact=False. Neither report
raises on a mathematical failure: every discrepancy is a field.

Each property has one check: Sweep.rows_orthogonal (the row Gram of the
dense form with complex entries), _sums_match (exact, in order),
fusion.group_flags (shared with the fusion constructions) and _sparsity_bound.
All the integer work lives in construct.Sweep, one per matrix and call,
and this module only reads it; each part is computed on first read, so a
caller pays only for what it reads:

- row_sums and col_sums, the exact square sums from one pass over the
  nonzeros on ints over D^2 (D the lcm of the entries' denominators), each
  distinct sum settled once into a Fraction (a RadicalScalar when
  irrational). frame_operator and sparsity_report read the rows alone;
  verify_fusion reads the rows and hands the sweep to group_flags, which
  compares the column sums to the weights as ints, unsettled.
- rows_orthogonal, on the one walk over the row pairs that meet in a
  column: one {radicand: int} accumulator per pair, which must vanish.
  frame_operator takes its diagonal from the row sums and its entries off
  it from the same accumulators (pair_values), each distinct one settled
  once.
- incidence and columns_cancel, which decide column pairs on ints for
  orthogonality_distance and group_flags.
- row_units, the integer row sums in the unit that
  sequences.integer_units would give them, which _sparsity_bound hands to
  sequences._block_count, so mu neither validates nor rescales them.

The exact checks multiply only entries that share a column or a row, so
they cost the sum of |supp|^2 over the columns, not M^2 or N^2/2 pairs.

An expected spectrum or norm sequence is read once into exact numbers by
exact_numeric._read, each run of one object converted once (a
RadicalScalar stays as it is, the rest become Fractions). Against
rational square sums each run's Fraction is scaled once to the sweep's
scale D^2 (Sweep.scaled, through the same reader), and the sums are
compared as the sweep's ints, position by position, with no sum settled
for it. An irrational sum or a RadicalScalar expectation compares the
settled sums instead, once per run of one (sum, expectation) pair of
objects (_matches). Values leave for floats through the same reader,
which names the position of one outside the float range. Off the exact
route each fusion group takes one SVD; numpy is imported there, and on
the complex path, only.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .construct import ExactSum, Sweep, SynthesisMatrix, column_maps
from .errors import SpectrumMismatch
from .exact_numeric import MatrixEntry, RadicalScalar, ZERO, _read
from .fusion import FusionFrame, group_flags
from .sequences import _block_count, as_spectrum

if TYPE_CHECKING:
    import numpy as np

COMPLEX_TOLERANCE = 1e-12
FUSION_TOLERANCE = 1e-10

#: Square sums are Fractions whenever they are exactly rational (always the
#: case for construction outputs) and floats only for adversarial input.
SquareSum = Union[Fraction, float]

SparseVector = Dict[int, MatrixEntry]


def _to_float(value) -> float:
    """float(value); OverflowError when it is outside the float range."""
    number = float(value)
    if math.isinf(number):  # a sum of terms can overflow without raising
        raise OverflowError(number)
    return number


_OUTSIDE = " is outside the float range"


def _report_values(values: Sequence[ExactSum], label: str = "row") -> Tuple[SquareSum, ...]:
    if set(map(type, values)) <= {Fraction}:
        return tuple(values)
    return tuple(_read(values, _to_float, label + " {position} square sum" + _OUTSIDE))


def _off_diagonal(gram: np.ndarray) -> float:
    """The largest modulus off the diagonal of a square matrix (0 when empty)."""
    import numpy as np

    return float(np.max(np.abs(gram - np.diag(np.diag(gram))), initial=0.0))


def _exact(want) -> ExactSum:
    """An expected value as an exact number: a Fraction or RadicalScalar as it
    stands, anything else as a Fraction."""
    return want if isinstance(want, (Fraction, RadicalScalar)) else Fraction(want)


def _exact_expectation(expected: Sequence) -> List[ExactSum]:
    """Expected values as exact numbers (_exact), each run of one object
    converted once (exact_numeric._read); ValueError names the first
    position of a non-number."""
    exact = list(expected)
    if set(map(type, exact)) <= {Fraction, RadicalScalar}:
        return exact
    return _read(exact, _exact, "expected value {value!r} at position {position} is not a number")


def _matches(actual: Sequence[ExactSum], expected: Sequence[ExactSum]) -> bool:
    """Whether actual equals the exact expectation, entry by entry in order
    and with the same length. The run rule of exact_numeric._read, over the
    two lists: a (sum, expectation) pair is compared only where either list
    holds another object than at the position before."""
    changed = map(operator.is_not, actual[1:], actual), map(operator.is_not, expected[1:], expected)
    starts = itertools.chain((True,), map(operator.or_, *changed))
    pairs = itertools.compress(zip(actual, expected), starts)
    return len(expected) == len(actual) and all(value == want for value, want in pairs)


def _sums_match(sweep: Sweep, columns: bool, expected: Optional[Sequence]) -> Optional[bool]:
    """None without an expectation, else whether the sweep's column (else
    row) square sums equal it exactly, entry by entry in order and with the
    same length. Rational sums meet Fractions on the sweep's ints, each run
    of one expected object scaled once (Sweep.scaled through
    exact_numeric._read); an irrational sum or a RadicalScalar expectation
    sends the comparison to the settled sums (_matches)."""
    if expected is None:
        return None
    expected = _exact_expectation(expected)
    sums = sweep.rational_sums(columns)
    if sums is not None and len(sums) == len(expected):
        if not any(issubclass(kind, RadicalScalar) for kind in set(map(type, expected))):
            return sums == _read(expected, sweep.scaled, "")
    return _matches(sweep.col_sums if columns else sweep.row_sums, expected)


def _exact_rank(vectors: Sequence[SparseVector], length: int) -> int:
    """Rank of sparse vectors with indices below length, by Gaussian
    elimination over the radical field."""
    work = [dict(vector) for vector in vectors if vector]
    rank = 0
    for index in range(length):
        pivot_index = next((k for k, vector in enumerate(work) if index in vector), None)
        if pivot_index is None:
            continue
        pivot = work.pop(pivot_index)
        rank += 1
        inverse = pivot[index].inverse()
        for vector in work:
            factor = vector.get(index)
            if factor is None:
                continue
            scale = factor * inverse
            for j, value in pivot.items():
                updated = vector.get(j, ZERO) - scale * value
                if updated:
                    vector[j] = updated
                else:
                    vector.pop(j, None)
        work = [vector for vector in work if vector]
        if not work:
            break
    return rank


@dataclass(frozen=True)
class FrameOperator:
    """AA*, exact on the real path, numeric (exact=False) with complex entries."""

    entries: Tuple[Tuple[Union[RadicalScalar, complex], ...], ...]
    exact: bool

    def is_diagonal(self, tolerance: float = COMPLEX_TOLERANCE) -> bool:
        for p, row in enumerate(self.entries):
            for q, value in enumerate(row):
                if p == q:
                    continue
                if self.exact:
                    if value:
                        return False
                elif abs(value) > tolerance:
                    return False
        return True

    def diagonal(self, tolerance: float = COMPLEX_TOLERANCE) -> Optional[Tuple[SquareSum, ...]]:
        """The spectrum, or None: eigenvalues are only read off a diagonal."""
        if not self.is_diagonal(tolerance):
            return None
        values = tuple(row[p] for p, row in enumerate(self.entries))
        if self.exact:
            return _report_values(
                [value.rational_part() if value.is_rational() else value for value in values]
            )
        return tuple(value.real for value in values)


def _radical(value: ExactSum) -> RadicalScalar:
    """An exact sum as a RadicalScalar, the entry type of an exact FrameOperator."""
    return value if isinstance(value, RadicalScalar) else RadicalScalar.from_rational(value)


def frame_operator(matrix: SynthesisMatrix) -> FrameOperator:
    """Gram matrix of the rows; the frame operator in the chosen eigenbasis."""
    if matrix.is_complex:
        dense = matrix.to_dense()
        gram = dense @ dense.conj().T
        return FrameOperator(tuple(tuple(row) for row in gram.tolist()), exact=False)
    # the diagonal is the row square sums, the entries off it the settled
    # accumulators of the rows that meet; rows that share no column meet in ZERO
    m = matrix.row_count
    sweep = Sweep(matrix)
    gram = [[ZERO] * m for _ in range(m)]
    for p, value in enumerate(sweep.row_sums):
        gram[p][p] = _radical(value)
    for (p, q), value in sweep.pair_values().items():
        gram[p][q] = gram[q][p] = _radical(value)
    return FrameOperator(tuple(map(tuple, gram)), exact=True)


def orthogonality_distance(matrix: SynthesisMatrix) -> int:
    """Smallest d with every column pair at index distance >= d orthogonal.

    A nonzero column fails against itself at distance 0, so any nonzero
    matrix has d >= 1; the zero (or empty) matrix has d = 0.

    On the real path only columns that share a row can fail to be
    orthogonal, and two columns sharing exactly one row never are: their
    inner product is the product of two nonzero reals. So each row's
    columns are scanned from both ends for the widest pair that does not
    cancel, and products are taken, on integers (Sweep.columns_cancel),
    only for candidate pairs sharing two or more rows.
    """
    if matrix.is_complex:
        return _dense_distance(matrix.to_dense())
    return _real_distance(Sweep(matrix))


def _dense_distance(dense: np.ndarray) -> int:
    """orthogonality_distance of a dense complex matrix, from its column
    Gram within COMPLEX_TOLERANCE."""
    import numpy as np

    gram = np.abs(dense.conj().T @ dense)
    first, last = np.nonzero(np.triu(gram > COMPLEX_TOLERANCE))
    return int(np.max(last - first)) + 1 if first.size else 0


def _real_distance(sweep: Sweep) -> int:
    """orthogonality_distance of a real matrix, read from its sweep."""
    cancels: Dict[Tuple[int, int], bool] = {}

    def orthogonal(j: int, k: int) -> bool:
        if j == k:
            return False
        if (j, k) not in cancels:
            cancels[(j, k)] = sweep.columns_cancel(j, k)
        return cancels[(j, k)]

    distance = 0
    for cols in sweep.incidence.values():
        for a, j in enumerate(cols):
            if cols[-1] - j + 1 <= distance:
                break
            for b in range(len(cols) - 1, a - 1, -1):
                k = cols[b]
                if k - j + 1 <= distance:
                    break
                if not orthogonal(j, k):
                    distance = k - j + 1
                    break
    return distance


def _sparsity_bound(sweep: Sweep) -> Optional[int]:
    """N + 2(M - mu), mu counted on the sweep's integer row sums (None
    unless they are positive rationals)."""
    m, n = sweep.matrix.row_count, sweep.matrix.col_count
    if not m:
        return 0
    units = sweep.row_units
    if units is None:
        return None
    return n + 2 * (m - _block_count(*units).mu)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_frame; immutable, one field per checked property.

    spectrum_matches and norms_match stay None unless the corresponding
    expected sequence was passed in. optimal_sparsity_bound is None only
    when the row sums are not positive rationals, where no bound applies.
    """

    is_frame: bool
    rows_orthogonal: bool
    row_square_sums: Tuple[SquareSum, ...]
    column_square_norms: Tuple[SquareSum, ...]
    is_tight: bool
    tight_bound: Optional[SquareSum]
    nonzero_count: int
    optimal_sparsity_bound: Optional[int]
    orthogonality_distance: int
    exact: bool
    spectrum_matches: Optional[bool] = None
    norms_match: Optional[bool] = None


def verify_frame(
    matrix: SynthesisMatrix,
    expected_spectrum: Optional[Sequence] = None,
    expected_norms: Optional[Sequence] = None,
) -> VerificationReport:
    """Full report on a synthesis matrix; see the report fields.

    Expected values, when given, are compared exactly (square sums are exact
    even on the complex path; RadicalScalars meet irrational sums) and in
    order: row m against expected_spectrum[m], column n against
    expected_norms[n]. Raises only ValueError: for a non-number expectation,
    or for an irrational square sum or a complex entry outside the float range.
    """
    m = matrix.row_count
    exact = not matrix.is_complex
    sweep = Sweep(matrix)
    row_sums, col_norms = sweep.row_sums, sweep.col_sums
    if exact:
        rows_orthogonal = sweep.rows_orthogonal()
    else:  # the dense form serves every complex check
        dense = matrix.to_dense()
        rows_orthogonal = _off_diagonal(dense @ dense.conj().T) <= COMPLEX_TOLERANCE

    # equal sums are mostly one object, which needs no comparison
    first = row_sums[0] if m else None
    is_tight = rows_orthogonal and all(value is first or value == first for value in row_sums)
    tight_bound: Optional[SquareSum] = None
    if is_tight and m > 0:
        tight_bound = _report_values(row_sums[:1])[0]

    if rows_orthogonal:
        is_frame = all(bool(value) for value in row_sums)
    elif exact:
        is_frame = _exact_rank(column_maps(matrix), m) == m
    else:
        import numpy as np

        is_frame = int(np.linalg.matrix_rank(dense)) == m

    return VerificationReport(
        is_frame=is_frame,
        rows_orthogonal=rows_orthogonal,
        row_square_sums=_report_values(row_sums),
        column_square_norms=_report_values(col_norms, "column"),
        is_tight=is_tight,
        tight_bound=tight_bound,
        nonzero_count=matrix.nonzero_count,
        optimal_sparsity_bound=_sparsity_bound(sweep),
        orthogonality_distance=_real_distance(sweep) if exact else _dense_distance(dense),
        exact=exact,
        spectrum_matches=_sums_match(sweep, False, expected_spectrum),
        norms_match=_sums_match(sweep, True, expected_norms),
    )


def sparsity_report(matrix: SynthesisMatrix, spectrum: Sequence) -> Tuple[int, int, bool]:
    """(nonzero count, optimal bound N + 2(M - mu), whether they coincide).

    The spectrum must equal the multiset of exact row square sums, else
    SpectrumMismatch: the sparsity bound is only meaningful for a matrix
    that actually carries that spectrum on its rows.
    """
    eigs = as_spectrum(spectrum)
    sweep = Sweep(matrix)
    row_sums = sweep.row_sums
    sums = [v for v in row_sums if isinstance(v, Fraction)]
    if len(sums) != len(row_sums) or sorted(sums) != sorted(eigs):
        raise SpectrumMismatch("row square sums do not match the stated spectrum")
    bound = _sparsity_bound(sweep)
    count = matrix.nonzero_count
    return count, bound, count == bound


@dataclass(frozen=True)
class FusionReport:
    """Outcome of verify_fusion.

    On the exact route (real generator, rows orthogonal, every group
    orthogonal with squared norms equal to its squared weight) the spectrum
    is the exact row square sums in row order. Otherwise the fusion operator
    is assembled numerically from projections and the spectrum is its
    eigenvalues in non-increasing order, with exact=False.
    """

    is_frame: bool
    rows_orthogonal: bool
    groups_orthogonal: bool
    weights_consistent: bool
    subspace_dims: Tuple[int, ...]
    spectrum: Tuple[SquareSum, ...]
    lower_bound: Optional[SquareSum]
    upper_bound: Optional[SquareSum]
    exact: bool
    spectrum_matches: Optional[bool] = None


def verify_fusion(
    reference: FusionFrame, expected_spectrum: Optional[Sequence] = None
) -> FusionReport:
    """Full report on a fusion frame; see the report fields.

    The group flags are exact for a real generator. Off the exact route each
    group's reduced SVD gives both its dimension and its projection; with a
    complex generator the flags come from each group's Gram matrix at 1e-10.
    Raises only ValueError: for a non-number expected value and, on the
    numeric route, for a generator entry, squared weight or expected value
    outside the float range.
    """
    generator = reference.generator
    m = generator.row_count
    real = not generator.is_complex
    sweep = Sweep(generator)
    row_sums = sweep.row_sums
    groups_orthogonal = weights_consistent = True
    if real:
        rows_orthogonal = sweep.rows_orthogonal()
        groups_orthogonal, weights_consistent = group_flags(
            sweep, reference.partition, reference.weights_squared
        )
    else:  # the dense form serves every complex check
        dense = generator.to_dense()
        rows_orthogonal = _off_diagonal(dense @ dense.conj().T) <= FUSION_TOLERANCE

    exact = real and rows_orthogonal and groups_orthogonal and weights_consistent and all(
        isinstance(v, Fraction) for v in row_sums
    )
    if exact:
        spectrum = tuple(row_sums)
        is_frame = all(value > 0 for value in spectrum)
        lower, upper = (min(spectrum), max(spectrum)) if spectrum else (None, None)
        dims = reference.dims
        spectrum_matches = _sums_match(sweep, False, expected_spectrum)
    else:
        import numpy as np

        dense = generator.to_dense() if real else dense  # built above when complex
        operator = np.zeros((m, m), dtype=dense.dtype)
        numeric_dims: List[int] = []
        for index, (group, weight_squared) in enumerate(
            zip(reference.partition, reference.weights_squared)
        ):
            block = dense[:, list(group)]
            (weight,) = _read((weight_squared,), _to_float, f"squared weight {index}" + _OUTSIDE)
            if not real:
                gram = block.conj().T @ block
                groups_orthogonal &= _off_diagonal(gram) <= FUSION_TOLERANCE
                weights_consistent &= bool(np.abs(np.diag(gram) - weight).max() <= FUSION_TOLERANCE)
            u, singular, _ = np.linalg.svd(block, full_matrices=False)
            cutoff = FUSION_TOLERANCE * max(1.0, singular[0] if singular.size else 0.0)
            basis = u[:, singular > cutoff]
            numeric_dims.append(basis.shape[1])
            operator = operator + weight * (basis @ basis.conj().T)
        eigenvalues = np.linalg.eigvalsh(operator)[::-1] if m else np.zeros(0)
        spectrum = tuple(float(value) for value in eigenvalues)
        lower, upper = (spectrum[-1], spectrum[0]) if m else (None, None)
        is_frame = bool(m and lower > FUSION_TOLERANCE)
        dims = tuple(numeric_dims)
        spectrum_matches = None
        if expected_spectrum is not None:
            wants = _exact_expectation(expected_spectrum)
            refusal = "expected value at position {position}" + _OUTSIDE
            expected = sorted(_read(wants, _to_float, refusal), reverse=True)
            spectrum_matches = len(expected) == len(spectrum) and all(
                abs(want - value) <= FUSION_TOLERANCE for want, value in zip(expected, spectrum)
            )

    return FusionReport(
        is_frame=is_frame,
        rows_orthogonal=rows_orthogonal,
        groups_orthogonal=groups_orthogonal,
        weights_consistent=weights_consistent,
        subspace_dims=dims,
        spectrum=spectrum,
        lower_bound=lower,
        upper_bound=upper,
        exact=exact,
        spectrum_matches=spectrum_matches,
    )
