"""Synthesis-matrix constructions.

All builders return a SynthesisMatrix: a sparse matrix whose columns are the
frame vectors written against the eigenbasis of the intended frame operator,
so row m must square-sum to the m-th eigenvalue and distinct rows must be
orthogonal. The real constructions carry exact radical entries; the DFT
route mixes in complex roots of unity.

pnstc, pnstc_str and construct_untf are thin wrappers over one Spectral
Tetris fill, _greedy_fill; sfr, equal_norm_frame and the fusion
constructions reach it through pnstc. The fill decides its moves by sums
and comparisons alone, so each wrapper scales the norms and eigenvalues
once to integers in a common unit (sequences.integer_units) and the fill
runs on ints; square roots are taken only for the entries it places, and
its 2x2 blocks are built from those ints by blocks._block_from_units.
construct_untf_dft keeps its own J x J fill. The verifier and the fusion
layer share two sparse views, column_maps and row_columns (the row
incidence), and this is the only module that builds or reads the integer
accumulators of the exact checks: (radicand, denominator) -> numerator
maps whose items sum to one exact value. In the Spectral Tetris fills
every column is a singleton or half of a 2x2 block of one-term radicals
c*sqrt(r), so each square sum and each inner product is such a map, built
with no RadicalScalar product. _squared_terms writes |entry|^2 and
_product_terms a product of two real entries as items; _cancels decides
on ints whether an accumulator is zero, and _settle (_settle_all for many,
each distinct one once) turns it into one exact value. On them stand the
one square-sum sweep, _square_sums, the one walk over the row pairs that
meet in a column, _row_products, and the column check _columns_cancel,
which the verifier and fusion.group_flags call. numpy is imported only
inside the numeric code (to_dense and the Naimark complement), so the
exact routes never load it. The Naimark complement is numeric: its
completion is read once, and each distinct float becomes one dyadic entry
shared by every position that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .blocks import Block, _block_from_units, dft_block
from .errors import (
    DftPathStuck,
    Infeasible,
    NotParseval,
    NotSTReady,
    ReorderFailed,
    Underdetermined,
)
from .exact_numeric import (
    ComplexRadicalEntry,
    MatrixEntry,
    ONE,
    RadicalScalar,
    ZERO,
    entry_abs_squared,
    entry_to_complex,
    to_float,
)
from .sequences import (
    SfrCertificate,
    STReadyCertificate,
    as_norms_squared,
    as_spectrum,
    integer_units,
    sfr_feasible,
    st_ready_search,
)

if TYPE_CHECKING:
    import numpy as np

Key = Tuple[int, int]


@dataclass
class SynthesisMatrix:
    """Sparse M x N synthesis matrix against the frame-operator eigenbasis.

    entries maps (row, col) to a nonzero exact entry; anything absent is
    zero. Views of it are stored (the complex flag, the column maps), so it
    must not change after construction. meta carries construction
    by-products (swap logs, step traces, certificates), never serialized.
    """

    row_count: int
    col_count: int
    entries: Dict[Key, MatrixEntry]
    basis_note: str = "frame-operator eigenbasis"
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.row_count < 0 or self.col_count < 0:
            raise ValueError(f"negative dimension in shape {self.row_count}x{self.col_count}")
        self._complex = False
        for (i, j), value in self.entries.items():
            if not (0 <= i < self.row_count and 0 <= j < self.col_count):
                raise ValueError(f"entry index ({i}, {j}) outside {self.row_count}x{self.col_count}")
            if not value:
                raise ValueError(f"stored zero entry at ({i}, {j})")
            if type(value) is ComplexRadicalEntry:  # an exact type test is the cheapest
                self._complex = True
        self._columns: Optional[List[Dict[int, MatrixEntry]]] = None

    def entry(self, row: int, col: int) -> MatrixEntry:
        return self.entries.get((row, col), ZERO)

    def _column(self, col: int) -> Dict[int, MatrixEntry]:
        """The stored {row: entry} map of a column; empty outside the matrix."""
        return column_maps(self)[col] if 0 <= col < self.col_count else {}

    def column(self, col: int) -> Tuple[MatrixEntry, ...]:
        found = self._column(col)
        return tuple(found.get(i, ZERO) for i in range(self.row_count))

    def column_support(self, col: int) -> Tuple[int, ...]:
        return tuple(sorted(self._column(col)))

    def column_norm_squared(self, col: int) -> RadicalScalar:
        return sum(map(entry_abs_squared, self._column(col).values()), ZERO)

    def rows(self) -> Iterator[Tuple[int, int, MatrixEntry]]:
        for (i, j), value in sorted(self.entries.items()):
            yield i, j, value

    @property
    def is_complex(self) -> bool:
        return self._complex

    @property
    def nonzero_count(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        """The matrix in floating point; ValueError names an entry too large for it."""
        import numpy as np

        convert, dtype = (entry_to_complex, np.complex128) if self._complex else (to_float, float)
        dense = np.zeros((self.row_count, self.col_count), dtype=dtype)
        try:
            for (i, j), value in self.entries.items():
                dense[i, j] = convert(value)
        except OverflowError:
            raise ValueError(f"entry ({i}, {j}) is outside the float range") from None
        if not np.isfinite(dense).all():  # a sum of terms can overflow without raising
            i, j = np.argwhere(~np.isfinite(dense))[0]
            raise ValueError(f"entry ({i}, {j}) is outside the float range")
        return dense

    def scale(self, factor: RadicalScalar) -> "SynthesisMatrix":
        """Multiply every entry by an exact nonnegative scalar."""
        if not factor:
            raise ValueError("scaling by zero would empty the matrix")
        # entries are immutable, so each distinct entry object is multiplied once
        products: Dict[int, MatrixEntry] = {}
        scaled: Dict[Key, MatrixEntry] = {}
        for key, value in self.entries.items():
            product = products.get(id(value))
            if product is None:
                if isinstance(value, ComplexRadicalEntry):
                    product = ComplexRadicalEntry.make(
                        value.modulus * factor, value.root_exponent, value.root_order
                    )
                else:
                    product = value * factor
                products[id(value)] = product
            scaled[key] = product
        return SynthesisMatrix(self.row_count, self.col_count, scaled, meta=dict(self.meta))


def column_maps(matrix: SynthesisMatrix) -> List[Dict[int, MatrixEntry]]:
    """Per-column {row: entry} views, built on first use and stored: never change them."""
    if matrix._columns is None:
        columns: List[Dict[int, MatrixEntry]] = [dict() for _ in range(matrix.col_count)]
        for (row, col), value in matrix.entries.items():
            columns[col][row] = value
        matrix._columns = columns
    return matrix._columns


def row_columns(
    columns: Sequence[Dict[int, MatrixEntry]], cols: Iterable[int]
) -> Dict[int, List[int]]:
    """{row: the given columns with a nonzero in that row, in the given order}."""
    rows: Dict[int, List[int]] = {}
    for col in cols:
        for row in columns[col]:
            rows.setdefault(row, []).append(col)
    return rows


#: (radicand, denominator) -> integer numerator: the sum of
#: numerator/denominator * sqrt(radicand) over the keys.
_Accumulator = Dict[Tuple[int, int], int]

#: |entry|^2 as an accumulator's items.
SquaredTerms = Tuple[Tuple[Tuple[int, int], int], ...]

#: An exact square sum: a Fraction when rational, else the canonical
#: RadicalScalar of its irrational value.
ExactSum = Union[Fraction, RadicalScalar]


def _squared_terms(value: MatrixEntry) -> SquaredTerms:
    """|value|^2 as accumulator terms. A single term c*sqrt(r) with c = p/q
    squares to the rational p*p*r/(q*q) without any exact product."""
    terms = value.terms if isinstance(value, RadicalScalar) else ()
    if len(terms) == 1:
        ((radicand, coefficient),) = terms
        denominator = coefficient.denominator
        return (((1, denominator * denominator), coefficient.numerator ** 2 * radicand),)
    return tuple(
        ((radicand, coefficient.denominator), coefficient.numerator)
        for radicand, coefficient in entry_abs_squared(value).terms
    )


def _product_terms(x: RadicalScalar, y: RadicalScalar) -> SquaredTerms:
    """x*y as accumulator terms, for real entries. Single terms c1*sqrt(r1)
    and c2*sqrt(r2) with c1 = p1/q1, c2 = p2/q2 and g = gcd(r1, r2) multiply
    to the one item p1*p2*g/(q1*q2) * sqrt((r1/g)*(r2/g)), whose radicand is
    squarefree again, without any exact product; other entries fall back to
    the terms of the exact product."""
    if len(x.terms) == 1 and len(y.terms) == 1:
        ((r1, c1),), ((r2, c2),) = x.terms, y.terms
        g = math.gcd(r1, r2)
        radicand = (r1 // g) * (r2 // g)
        return (((radicand, c1.denominator * c2.denominator), c1.numerator * c2.numerator * g),)
    return tuple(
        ((radicand, coefficient.denominator), coefficient.numerator)
        for radicand, coefficient in (x * y).terms
    )


def _per_radicand(sums: Iterable[Tuple[Tuple[int, int], int]]) -> Dict[int, Tuple[int, int]]:
    """{radicand: (numerator, denominator)} of an accumulator's items, each
    radicand's numerators and denominators summed on ints (not reduced)."""
    combined: Dict[int, Tuple[int, int]] = {}
    for (radicand, denominator), numerator in sums:
        if radicand in combined:
            total, common = combined[radicand]
            combined[radicand] = (total * denominator + numerator * common, common * denominator)
        else:
            combined[radicand] = (numerator, denominator)
    return combined


def _cancels(sums: _Accumulator) -> bool:
    """Whether an accumulator sums to zero: square roots of distinct
    squarefree radicands are linearly independent over the rationals, so
    exactly when every radicand's numerators cancel on their own."""
    return not any(total for total, _ in _per_radicand(sums.items()).values())


def _add_product(sums: _Accumulator, x: RadicalScalar, y: RadicalScalar) -> None:
    """Add the product of two real entries to an integer accumulator."""
    for item, numerator in _product_terms(x, y):
        sums[item] = sums.get(item, 0) + numerator


def _columns_cancel(a: Dict[int, MatrixEntry], b: Dict[int, MatrixEntry]) -> bool:
    """Whether two real sparse columns are orthogonal, decided on ints.

    Columns sharing no row are; columns sharing exactly one row are not,
    their inner product being one product of nonzero reals. Otherwise the
    products on the shared rows go into one accumulator, which must cancel.
    """
    shared = a.keys() & b.keys()
    if len(shared) == 1:
        return False
    sums: _Accumulator = {}
    for row in shared:
        _add_product(sums, a[row], b[row])
    return _cancels(sums)


def _row_products(columns: Sequence[Dict[int, MatrixEntry]]) -> Dict[Key, _Accumulator]:
    """{(p, q): the accumulator of rows p and q's inner product} for every
    pair of rows p < q that meet in a column of a real matrix.

    Rows p and q only meet in the columns whose support holds both, so this
    takes sum |supp|^2 products over the columns instead of M^2 row inner
    products. Row pairs that share no column are absent.
    """
    products: Dict[Key, _Accumulator] = {}
    for column in columns:
        if len(column) < 2:
            continue  # a single row meets no other row here
        items = sorted(column.items())
        for a, (p, x) in enumerate(items):
            for q, y in items[a + 1 :]:
                sums = products.get((p, q))
                if sums is None:
                    sums = products[(p, q)] = {}
                _add_product(sums, x, y)
    return products


def _settle(sums: SquaredTerms) -> ExactSum:
    """The exact value of an accumulator's items: one Fraction per radicand,
    its numerator and denominator summed on ints first."""
    terms = tuple(
        sorted(
            (radicand, Fraction(*ratio))
            for radicand, ratio in _per_radicand(sums).items()
            if ratio[0]
        )
    )
    if not terms:
        return Fraction(0)
    if terms[-1][0] == 1:
        return terms[0][1]
    # the radicands come from canonical values, so they are squarefree already
    return RadicalScalar._canonical(terms)


def _settle_all(accumulators: Iterable[_Accumulator]) -> List[ExactSum]:
    """The exact value of each accumulator, in order. Each distinct one is
    settled once, so equal sums are one object."""
    keys = [tuple(sums.items()) for sums in accumulators]
    settled = {key: _settle(key) for key in dict.fromkeys(keys)}
    return [settled[key] for key in keys]


def _square_sums(matrix: SynthesisMatrix) -> Tuple[List[ExactSum], List[ExactSum]]:
    """Exact row and column square sums in one sweep (exact on both paths).

    Each nonzero adds integer numerators to its row's and its column's
    accumulator. The terms are squared once per distinct entry object (the
    matrix keeps every entry alive, so ids are stable) and the accumulators
    are settled by _settle_all.
    """
    rows: List[_Accumulator] = [{} for _ in range(matrix.row_count)]
    cols: List[_Accumulator] = [{} for _ in range(matrix.col_count)]
    squared: Dict[int, SquaredTerms] = {}
    for (i, j), value in matrix.entries.items():
        terms = squared.get(id(value)) or squared.setdefault(id(value), _squared_terms(value))
        row, col = rows[i], cols[j]
        for key, numerator in terms:
            row[key] = row.get(key, 0) + numerator
            col[key] = col.get(key, 0) + numerator
    sums = _settle_all(rows + cols)
    return sums[: matrix.row_count], sums[matrix.row_count :]


def _place_block(entries: Dict[Key, MatrixEntry], block: Block, row: int, col: int) -> None:
    for i, block_row in enumerate(block.rows):
        for j, value in enumerate(block_row):
            if value:
                entries[(row + i, col + j)] = value


_FILL_WORDING = {
    "partner": "norm {norm} exceeds remaining weight {weight} of row {row} "
    "and has no partner for a block",
    "straddle": "no 2x2 block for row weight {weight} with squared norms {norm}, {partner}: "
    "squared norms {norm}, {partner} straddle the row weight {weight}",
    "overshoot": "block spill {spill} overshoots row {next_row}, "
    "which can absorb only {room}",
}

_REORDER_WORDING = {
    "partner": "last norm {norm} exceeds remaining weight {weight} of row {row}",
    "overshoot": "block spill {spill} overshoots row {next_row}; "
    "swapping adjacent norms cannot reduce it",
}


class _Stuck(Exception):
    """No move of _greedy_fill applies. args are (kind, step, facts): kind is
    "partner", "straddle" or "overshoot", step counts the placements made and
    facts hold the numbers the wrappers quote in their messages."""


def _greedy_fill(
    norms: Sequence[Fraction],
    units: Sequence[int],
    eig_units: Sequence[int],
    unit: int,
    swap_on_straddle: bool,
) -> Tuple[Dict[Key, MatrixEntry], int, Tuple[Tuple[int, int], ...]]:
    """The Spectral Tetris fill behind pnstc, pnstc_str and construct_untf.

    Places singletons sqrt(a) and 2x2 blocks A^(w, a, b) as pnstc
    describes; a pair straddling the row weight (b < w < a) is swapped as
    pnstc_str describes when swap_on_straddle is set, else the fill stops.
    Returns the entries, the number of placements and the swaps.

    units and eig_units are the norms and eigenvalues times unit
    (sequences.integer_units), so every move is decided on ints and is the
    move a Fraction fill would make. Singletons take sqrt of the caller's
    norms; blocks are built from the same ints (blocks._block_from_units),
    because the comparisons that chose a block have shown that it exists;
    the facts of a _Stuck get Fraction(k, unit) back.

    Callers check sum(norms) == sum(eigs) first. Then before every step
    sum(remaining[row:]) == sum(norms[col:]) and no remaining weight is
    negative: a singleton takes a from both sides, a block takes a + b from
    both (w from its row, the spill a + b - w from the next), and the
    overshoot check keeps the next row nonnegative. So while a row has
    weight a norm is left; a block never spills past the last row, whose
    weight covers every norm left; and no norm is left over once the last
    row is empty. No bounds check is needed: the fill can only stop for
    want of a partner, on a straddle or on an overshoot.
    """
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


def pnstc(norms_squared: Sequence, spectrum: Sequence) -> SynthesisMatrix:
    """Prescribed-norms greedy construction over a fixed feeding order.

    Consumes the squared norms left to right, filling spectrum rows top to
    bottom: a norm fitting inside the remaining row weight becomes a
    singleton column; otherwise the current and next norms form a 2x2 block
    whose excess spills into the following row. Orders are taken as given;
    callers wanting a working order run st_ready_search first. Raises
    NotSTReady (with the failing step index) when the given order does not
    admit the construction.
    """
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    unit, units, eig_units = integer_units(norms, eigs)
    if sum(units) != sum(eig_units):
        raise NotSTReady(
            f"total squared norm {sum(norms)} differs from spectrum total {sum(eigs)}"
        )
    try:
        entries, steps, _ = _greedy_fill(norms, units, eig_units, unit, swap_on_straddle=False)
    except _Stuck as stuck:
        kind, step, facts = stuck.args
        raise NotSTReady(_FILL_WORDING[kind].format(**facts), step=step) from None
    return SynthesisMatrix(
        len(eigs), len(norms), entries, meta={"algorithm": "pnstc", "steps": steps}
    )


def pnstc_str(
    norms_squared: Sequence, spectrum: Sequence
) -> Tuple[SynthesisMatrix, Tuple[Tuple[int, int], ...]]:
    """pnstc with systematic re-ordering of adjacent norms on block failure.

    Runs the same greedy loop; when the 2x2 block does not exist because the
    partner norm lies strictly below the remaining row weight, the two norms
    are swapped (the smaller one then fits as a singleton) and the step is
    retried. Returns the matrix together with the applied swaps as 0-based
    index pairs, in order; replaying them onto the input order yields an
    ordering on which plain pnstc reproduces the matrix. Raises
    ReorderFailed when swapping cannot unblock the construction.
    """
    norms = as_norms_squared(norms_squared)
    eigs = as_spectrum(spectrum)
    unit, units, eig_units = integer_units(norms, eigs)
    if sum(units) != sum(eig_units):
        raise ReorderFailed(
            f"re-ordering preserves the total squared norm, but {sum(norms)} != {sum(eigs)}"
        )
    try:
        entries, _, swaps = _greedy_fill(norms, units, eig_units, unit, swap_on_straddle=True)
    except _Stuck as stuck:
        kind, _, facts = stuck.args
        raise ReorderFailed(_REORDER_WORDING[kind].format(**facts)) from None
    meta = {"algorithm": "pnstc_str", "swaps": swaps}
    return SynthesisMatrix(len(eigs), len(norms), entries, meta=meta), swaps


def _certified_pnstc(
    norms: Sequence[Fraction],
    eigs: Sequence[Fraction],
    certificate: Union[STReadyCertificate, SfrCertificate],
    algorithm: str,
) -> SynthesisMatrix:
    """pnstc on the eigenvalues in the certificate's order, with the order
    and the partition recorded in meta under the given algorithm name."""
    matrix = pnstc(norms, tuple(eigs[i] for i in certificate.eigenvalue_order))
    matrix.meta.update(
        algorithm=algorithm,
        eigenvalue_order=certificate.eigenvalue_order,
        partition=certificate.partition,
    )
    return matrix


def sfr(spectrum: Sequence, count: int) -> SynthesisMatrix:
    """2-sparse unit-norm frame with the given spectrum, if any ordering works.

    Searches the distinct eigenvalue orderings for one whose floor partition
    certifies readiness, then runs pnstc with unit norms. Raises SumMismatch
    when the spectrum does not sum to count, Infeasible when no ordering
    admits the construction.
    """
    eigs = as_spectrum(spectrum)
    if count < 1:
        raise ValueError(f"frame size {count} must be positive")
    certificate = sfr_feasible(eigs, count)
    if certificate is None:
        raise Infeasible(
            f"no ordering of eigenvalues {tuple(eigs)} admits a 2-sparse unit-norm "
            f"frame of {count} vectors: every floor partition violates the spacing rules"
        )
    return _certified_pnstc((Fraction(1),) * count, eigs, certificate, "sfr")


def construct_untf(dimension: int, count: int) -> SynthesisMatrix:
    """Sparse unit-norm tight frame of count vectors in dimension dims.

    Greedy left-to-right fill of the flat spectrum N/M: weight-1 singletons
    while a full unit fits in the row, then one 2x2 block for the fractional
    rest. Raises Underdetermined for count < dimension and Infeasible (citing
    the failed eigenvalue criterion) when the fill cannot complete.
    """
    if dimension < 1 or count < 1:
        raise ValueError("dimension and count must be positive")
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
        entries, _, _ = _greedy_fill(norms, units, eig_units, unit, swap_on_straddle=False)
    except _Stuck as stuck:
        kind, _, facts = stuck.args
        reduced = f"{eigenvalue.numerator}/{eigenvalue.denominator}"
        label = reduced if reduced == f"{count}/{dimension}" else f"{count}/{dimension} = {reduced}"
        raise Infeasible(
            f"no sparse unit-norm tight frame of {count} vectors in dimension "
            f"{dimension}: eigenvalue {label} is neither an integer "
            f">= 2 nor of the form (2L-1)/L ({_FILL_WORDING[kind].format(**facts)})"
        ) from None
    return SynthesisMatrix(
        dimension, count, entries, meta={"algorithm": "untf", "eigenvalue": eigenvalue}
    )


def construct_untf_dft(dimension: int, count: int) -> SynthesisMatrix:
    """Unit-norm tight frame via square blocks of scaled roots of unity.

    Covers redundancies the 2x2 route cannot reach by spending a J x J block
    wherever a row's fractional remainder appears: the block's first row
    absorbs the entire remainder and each of the J-1 rows below pays an equal
    share of the rest. Singletons handle rows with remainder >= 2 or exactly
    1. Raises Underdetermined for count < dimension and DftPathStuck (with
    the step trace) when no block size fits.
    """
    if dimension < 1 or count < 1:
        raise ValueError("dimension and count must be positive")
    if count < dimension:
        raise Underdetermined(
            f"{count} vectors cannot span a space of dimension {dimension}"
        )
    eigenvalue = Fraction(count, dimension)
    entries: Dict[Key, MatrixEntry] = {}
    remaining: List[Fraction] = [eigenvalue] * dimension
    steps: List[Tuple[str, ...]] = []
    col = 0
    row = 0
    while col < count:
        if row >= dimension:
            raise DftPathStuck(
                f"columns {col}..{count - 1} remain but every row is exhausted",
                steps=tuple(steps),
            )
        rest = remaining[row]
        if rest == 0:
            row += 1
            continue
        if rest >= 2 or rest == 1:
            entries[(row, col)] = ONE
            remaining[row] -= 1
            steps.append(("singleton", f"row {row}", f"col {col}"))
            col += 1
            continue
        placed = False
        for size in range(2, dimension - row + 1):
            trailing = (size - rest) / Fraction(size - 1)
            if all(trailing <= remaining[row + i] for i in range(1, size)):
                block = dft_block(size, rest, trailing)
                _place_block(entries, block, row, col)
                for i in range(1, size):
                    remaining[row + i] -= trailing
                remaining[row] = 0
                steps.append((f"block J={size}", f"rows {row}..{row + size - 1}", f"col {col}"))
                col += size
                row += 1
                placed = True
                break
        if not placed:
            raise DftPathStuck(
                f"row {row} holds fractional weight {rest} but no block size "
                f"J <= {dimension - row} fits the rows below",
                steps=tuple(steps),
            )
    return SynthesisMatrix(
        dimension,
        count,
        entries,
        meta={"algorithm": "untf_dft", "eigenvalue": eigenvalue, "steps": tuple(steps)},
    )


def equal_norm_frame(
    spectrum: Sequence, count: int, budget: Optional[int] = None
) -> SynthesisMatrix:
    """Frame of count equal-norm vectors realizing the given spectrum.

    The common squared norm is forced to be (sum of eigenvalues)/count; the
    eigenvalue orderings are searched for a workable feeding order. Raises
    ValueError unless the spectrum is non-increasing, Infeasible when no
    ordering works for this count (a larger count may well work), and
    SearchBudgetExceeded when the search is cut off.
    """
    eigs = as_spectrum(spectrum)
    if any(eigs[i] < eigs[i + 1] for i in range(len(eigs) - 1)):
        raise ValueError("spectrum must be non-increasing")
    if count < 1:
        raise ValueError(f"frame size {count} must be positive")
    norm_squared = sum(eigs) / count
    norms = (norm_squared,) * count
    certificate = st_ready_search(norms, eigs, budget)
    if certificate is None:
        raise Infeasible(
            f"{count} vectors of squared norm {norm_squared} admit no Spectral-Tetris-ready "
            f"ordering for spectrum {tuple(eigs)}; a different count may work"
        )
    return _certified_pnstc(norms, eigs, certificate, "equal_norm")


_REAL_ONLY = "only real synthesis matrices can be complemented here"


def naimark_complement(parseval: SynthesisMatrix) -> SynthesisMatrix:
    """(N-M) x N completion of a Parseval frame to an orthogonal N x N matrix.

    The complement rows span the orthogonal complement of the input's row
    space (computed numerically; such completions are not radical-representable
    in general), so stacking input over output gives pairwise-orthogonal
    equal-norm columns. Entries are stored as exact dyadic rationals read off
    the floating-point completion, each float converted once. Raises
    NotParseval unless the input rows are orthonormal to within 1e-10,
    ValueError on complex input.
    """
    if parseval.is_complex:
        raise ValueError(_REAL_ONLY)
    m, n = parseval.row_count, parseval.col_count
    if m > n:
        raise NotParseval(f"a {m}x{n} matrix with m > n cannot have orthonormal rows")

    def refuse(deviation: float) -> NotParseval:
        return NotParseval(
            f"rows are not orthonormal: max Gram deviation {deviation:.3e} exceeds 1e-10"
        )

    return _naimark_completion(parseval, refuse)


def _naimark_completion(
    parseval: SynthesisMatrix, refuse: Callable[[float], Exception]
) -> SynthesisMatrix:
    """The completion step of both Naimark functions: one dense form and one
    Gram check, whose failure raises refuse(deviation); then ValueError on
    complex input, the SVD completion and its stacked self-check."""
    import numpy as np

    m, n = parseval.row_count, parseval.col_count
    dense = parseval.to_dense()
    gram = dense @ dense.conj().T
    deviation = np.max(np.abs(gram - np.eye(m))) if m else 0.0
    if deviation > 1e-10:
        raise refuse(deviation)
    if parseval.is_complex:
        raise ValueError(_REAL_ONLY)
    meta = {"algorithm": "naimark", "exact": False}
    if m == n:
        return SynthesisMatrix(0, n, {}, meta=meta)
    _, _, vh = np.linalg.svd(dense, full_matrices=True)
    completion = vh[m:]
    stacked = np.vstack([dense, completion])
    deviation = np.max(np.abs(stacked @ stacked.T - np.eye(n)))
    if deviation > 1e-10:
        raise NotParseval(
            f"completion self-check failed: stacked Gram deviates by {deviation:.3e}"
        )
    # each distinct nonzero float becomes one exact dyadic entry, shared by
    # every position that holds it (a completion repeats most of its values)
    entries: Dict[Key, MatrixEntry] = {}
    exact: Dict[float, RadicalScalar] = {}
    for i, row in enumerate(completion.tolist()):
        for j, value in enumerate(row):
            if value:
                entry = exact.get(value)
                if entry is None:
                    ratio = Fraction(*value.as_integer_ratio())
                    entry = exact[value] = RadicalScalar._canonical(((1, ratio),))
                entries[(i, j)] = entry
    return SynthesisMatrix(n - m, n, entries, meta=meta)
