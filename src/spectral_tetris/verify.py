"""Independent verification of synthesis matrices and fusion frames.

Real matrices are judged in exact radical arithmetic with zero tolerance;
complex entries drop the checks to floating point (1e-12 for frames, 1e-10
for fusion operators) and flag the report exact=False. Neither report
raises on a mathematical failure: every discrepancy is a field.

Each property has one check: _rows_orthogonal, _matches (exact, in order),
fusion.group_flags (shared with the fusion constructions) and _sparsity_bound.
The exact ones multiply only entries that share a column or a row, so they
cost the sum of |supp|^2 over the columns, not M^2 or N^2/2 pairs. All the
integer work lives in construct, and this module only calls it:

- construct._square_sums is the one sweep for the row and column square
  sums. A one-term entry c*sqrt(r) squares to the rational c^2*r, whose
  integer numerator is added under its (radicand, denominator) key. Each
  entry object is squared once. The sweep returns the accumulators, and
  each caller settles only the half it reads, each distinct sum once
  (construct._settle_all), into a Fraction (a RadicalScalar when
  irrational): frame_operator and sparsity_report the rows alone.
  verify_fusion hands the column half to group_flags.
- construct._row_products is the one walk over the row pairs that meet in
  a column. It keeps one integer accumulator per pair; a product of two
  one-term entries is one item. _rows_orthogonal asks whether each one
  cancels (construct._cancels), with no RadicalScalar product.
  frame_operator takes its diagonal from the row square sums, and its
  entries off it from the same accumulators, each distinct one settled
  once (construct._settle_all, as for the square sums).
- construct._columns_cancel decides a column pair the same way, for
  orthogonality_distance and group_flags.

Each distinct (sum, expectation) pair is compared once. Products are formed
per support pair, as the fill makes new entry objects for every block and
a pair of them seldom meets twice. Off the exact route each fusion group
takes one SVD; numpy is imported there, and on the complex path, only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .construct import (
    ExactSum,
    SynthesisMatrix,
    _cancels,
    _columns_cancel,
    _row_products,
    _settle_all,
    _square_sums,
    column_maps,
    row_columns,
)
from .errors import SpectrumMismatch
from .exact_numeric import MatrixEntry, RadicalScalar, ZERO
from .fusion import FusionFrame, group_flags
from .sequences import as_spectrum, maximal_block_number

if TYPE_CHECKING:
    import numpy as np

COMPLEX_TOLERANCE = 1e-12
FUSION_TOLERANCE = 1e-10

#: Square sums are Fractions whenever they are exactly rational (always the
#: case for construction outputs) and floats only for adversarial input.
SquareSum = Union[Fraction, float]

SparseVector = Dict[int, MatrixEntry]


def _to_float(value, label: str) -> float:
    """float(value); ValueError names label when it is outside the float range."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if math.isinf(number):  # a sum of terms can overflow without raising
        raise ValueError(f"{label} is outside the float range")
    return number


def _report_values(values: Sequence[ExactSum], label: str = "row") -> Tuple[SquareSum, ...]:
    if set(map(type, values)) <= {Fraction}:
        return tuple(values)
    return tuple(_to_float(v, f"{label} {p} square sum") for p, v in enumerate(values))


def _off_diagonal(gram: np.ndarray) -> float:
    """The largest modulus off the diagonal of a square matrix (0 when empty)."""
    import numpy as np

    return float(np.max(np.abs(gram - np.diag(np.diag(gram))), initial=0.0))


def _rows_orthogonal(
    matrix: SynthesisMatrix, columns: Sequence[SparseVector], tolerance: float
) -> bool:
    """Whether every pair of distinct rows is orthogonal: exactly on the real
    path, within tolerance with complex entries. It reads the stored flag
    directly: its callers have read is_complex.

    Exactly, the rows are orthogonal when every meeting row pair's integer
    accumulator (construct._row_products) cancels.
    """
    if not matrix._complex:
        return all(map(_cancels, _row_products(columns).values()))
    dense = matrix.to_dense()
    return _off_diagonal(dense @ dense.conj().T) <= tolerance


def _exact_expectation(expected: Sequence) -> List[ExactSum]:
    """Expected values as exact numbers (RadicalScalars as they stand, the
    rest as Fractions); ValueError names the position of a non-number."""
    exact = list(expected)
    for position, want in enumerate(exact):
        if not isinstance(want, (Fraction, RadicalScalar)):
            try:
                exact[position] = Fraction(want)
            except (TypeError, ValueError, ArithmeticError) as failure:
                message = f"expected value {want!r} at position {position} is not a number"
                raise ValueError(message) from failure
    return exact


def _matches(actual: Sequence[ExactSum], expected: Optional[Sequence]) -> Optional[bool]:
    """None without an expectation, else whether actual equals it exactly,
    entry by entry in order and with the same length."""
    if expected is None:
        return None
    expected = _exact_expectation(expected)
    # both lists hold their objects, so each distinct pair is compared once
    pairs = dict(zip(zip(map(id, actual), map(id, expected)), zip(actual, expected)))
    return len(expected) == len(actual) and all(value == want for value, want in pairs.values())


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
    row_sums = _settle_all(_square_sums(matrix)[0])
    gram = [[ZERO] * m for _ in range(m)]
    for p, value in enumerate(row_sums):
        gram[p][p] = _radical(value)
    products = _row_products(column_maps(matrix))
    for (p, q), value in zip(products, _settle_all(products.values())):
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
    cancel, and products are taken, on integers (construct._columns_cancel),
    only for candidate pairs sharing two or more rows.
    """
    if matrix.is_complex:
        import numpy as np

        dense = matrix.to_dense()
        gram = np.abs(dense.conj().T @ dense)
        first, last = np.nonzero(np.triu(gram > COMPLEX_TOLERANCE))
        return int(np.max(last - first)) + 1 if first.size else 0
    columns = column_maps(matrix)
    cancels: Dict[Tuple[int, int], bool] = {}

    def orthogonal(j: int, k: int) -> bool:
        if j == k:
            return False
        if (j, k) not in cancels:
            cancels[(j, k)] = _columns_cancel(columns[j], columns[k])
        return cancels[(j, k)]

    distance = 0
    for cols in row_columns(columns, range(len(columns))).values():
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


def _sparsity_bound(row_sums: Sequence[ExactSum], col_count: int) -> Optional[int]:
    if not row_sums:
        return 0
    if any(not isinstance(value, Fraction) or value <= 0 for value in row_sums):
        return None
    mu = maximal_block_number(row_sums).mu
    return col_count + 2 * (len(row_sums) - mu)


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
    m, n = matrix.row_count, matrix.col_count
    exact = not matrix.is_complex
    row_sums, col_norms = map(_settle_all, _square_sums(matrix))

    columns = column_maps(matrix)
    rows_orthogonal = _rows_orthogonal(matrix, columns, COMPLEX_TOLERANCE)

    is_tight = rows_orthogonal and all(value == row_sums[0] for value in row_sums[1:])
    tight_bound: Optional[SquareSum] = None
    if is_tight and m > 0:
        tight_bound = _report_values(row_sums[:1])[0]

    if rows_orthogonal:
        is_frame = all(bool(value) for value in row_sums)
    elif exact:
        is_frame = _exact_rank(columns, m) == m
    else:
        import numpy as np

        is_frame = int(np.linalg.matrix_rank(matrix.to_dense())) == m

    return VerificationReport(
        is_frame=is_frame,
        rows_orthogonal=rows_orthogonal,
        row_square_sums=_report_values(row_sums),
        column_square_norms=_report_values(col_norms, "column"),
        is_tight=is_tight,
        tight_bound=tight_bound,
        nonzero_count=matrix.nonzero_count,
        optimal_sparsity_bound=_sparsity_bound(row_sums, n),
        orthogonality_distance=orthogonality_distance(matrix),
        exact=exact,
        spectrum_matches=_matches(row_sums, expected_spectrum),
        norms_match=_matches(col_norms, expected_norms),
    )


def sparsity_report(matrix: SynthesisMatrix, spectrum: Sequence) -> Tuple[int, int, bool]:
    """(nonzero count, optimal bound N + 2(M - mu), whether they coincide).

    The spectrum must equal the multiset of exact row square sums, else
    SpectrumMismatch: the sparsity bound is only meaningful for a matrix
    that actually carries that spectrum on its rows.
    """
    eigs = as_spectrum(spectrum)
    row_sums = _settle_all(_square_sums(matrix)[0])
    sums = [v for v in row_sums if isinstance(v, Fraction)]
    if len(sums) != len(row_sums) or sorted(sums) != sorted(eigs):
        raise SpectrumMismatch("row square sums do not match the stated spectrum")
    bound = _sparsity_bound(row_sums, matrix.col_count)
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
    columns = column_maps(generator)
    row_sums, col_norms = map(_settle_all, _square_sums(generator))
    groups_orthogonal = weights_consistent = True
    if real:
        rows_orthogonal = _rows_orthogonal(generator, columns, FUSION_TOLERANCE)
        for group, weight_squared in zip(reference.partition, reference.weights_squared):
            orthogonal, consistent = group_flags(columns, group, weight_squared, col_norms)
            groups_orthogonal &= orthogonal
            weights_consistent &= consistent
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
        spectrum_matches = _matches(spectrum, expected_spectrum)
    else:
        import numpy as np

        dense = generator.to_dense() if real else dense  # built above when complex
        operator = np.zeros((m, m), dtype=dense.dtype)
        numeric_dims: List[int] = []
        for index, (group, weight_squared) in enumerate(
            zip(reference.partition, reference.weights_squared)
        ):
            block = dense[:, list(group)]
            weight = _to_float(weight_squared, f"squared weight {index}")
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
            expected = sorted(
                (
                    _to_float(want, f"expected value at position {position}")
                    for position, want in enumerate(_exact_expectation(expected_spectrum))
                ),
                reverse=True,
            )
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
