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
once to integers in a common unit (sequences.integer_units, or the closed
form of the flat spectrum for construct_untf) and the fill runs on those
ints alone: every entry it places is a square root taken from them (a
singleton by exact_numeric._sqrt_ratio, a 2x2 block by
blocks._block_from_units), and every fact it quotes when stuck is one of
them over the unit.
construct_untf_dft keeps its own J x J fill. The fill's entries are
nonzero (a singleton is sqrt of a positive norm, and _place_block stores
only nonzero block entries) and inside the shape (every row and column it
writes it has just read from the eigenvalue and norm lists), so both
fills build through SynthesisMatrix._unchecked (see construct_untf_dft).

This is also the only module that computes the exact checks' sums, in one
Sweep per matrix that the verifier and the fusion layer read. It reads
each distinct entry object once into its form: its terms with every
coefficient an int over D, the lcm of the matrix's denominators. A
product of two forms is then an int over D^2 per radicand, so in one pass
each the Sweep yields the row and column square sums as ints, the row ->
columns incidence and one {radicand: int} accumulator per row pair that
meets in a column, and decides a column pair's inner product on ints; no
RadicalScalar product is formed. A Spectral Tetris column meets at most
two rows, so the row-pair walk takes a two-row column as one pair, put in
row order by one comparison, and sorts only wider columns. Each distinct
sum becomes one exact value (a Fraction s/D^2, a RadicalScalar when
irrational; a rational sum is one Fraction, with no term list) only when
a caller reads it, and each part is computed only when a caller reads
it; an expected value meets the rational sums on the ints, scaled once
to D^2, with nothing settled for it. Past
_UNIT_BITS, a bound on many coprime denominators that no bench or
construction matrix reaches, each form keeps its terms' own Fractions
instead, and the same code adds and settles them, bar the square sums,
whose Fractions are added in pairs. numpy is
imported only inside the numeric code (to_dense and the Naimark
complement), so the exact routes never load it. The Naimark complement is
numeric: its completion is read once, and each distinct float becomes one
dyadic entry shared by every position that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
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
    _positive_int,
    _sqrt_ratio,
    entry_abs_squared,
    entry_to_complex,
    to_float,
)
from .sequences import (
    SfrCertificate,
    STReadyCertificate,
    _lcm,
    _pairwise,
    as_norms_squared,
    as_spectrum,
    integer_units,
    sfr_feasible,
    st_ready_search,
)

if TYPE_CHECKING:
    import numpy as np

Key = Tuple[int, int]


def _check_phase(i: int, j: int, value: ComplexRadicalEntry) -> None:
    """Refuse a phase that ComplexRadicalEntry.make would not give: its
    exponent and order must be ints, the order at least 3 (orders 1 and 2
    are real) and the exponent in lowest terms. Any other phase would be
    written to a document the decoder refuses, or one it reads back as a
    different entry."""
    exponent, order = value.root_exponent, value.root_order
    if not (type(exponent) is int and type(order) is int):
        raise ValueError(f"entry ({i}, {j}) has a phase of non-integer fields: {value!r}")
    if order < 3 or math.gcd(exponent, order) != 1:
        raise ValueError(
            f"entry ({i}, {j}) has phase {exponent}/{order}, not a root of unity "
            "of order at least 3 in lowest terms"
        )


@dataclass
class SynthesisMatrix:
    """Sparse M x N synthesis matrix against the frame-operator eigenbasis.

    entries maps (row, col) to a nonzero exact entry; anything absent is
    zero. Views of it are stored (the complex flag, the column maps), so it
    must not change after construction. meta carries construction
    by-products (swap logs, step traces, certificates), never serialized.

    The constructor is the one complete check, raising ValueError unless
    the shape and indices are integers, each index inside the shape, and
    each entry a nonzero RadicalScalar or ComplexRadicalEntry of RadicalScalar
    modulus and canonical phase (_check_phase). Producers whose entries are
    valid by construction pass them to _unchecked with the complex flag
    they know: both fills (see the module
    docstring); scale, whose nonzero factor keeps each entry nonzero at
    its key; the Naimark completion, which stores only the nonzero floats
    of its (N - M) x N completion; fusion.extend_to_tight, which reverses
    the rows of a generator already built; and json_io.matrix_from_json,
    whose one pass makes each check once per entry.
    """

    row_count: int
    col_count: int
    entries: Dict[Key, MatrixEntry]
    basis_note: str = "frame-operator eigenbasis"
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        m, n = self.row_count, self.col_count
        if not (hasattr(m, "__index__") and hasattr(n, "__index__")):
            raise ValueError(f"shape {m!r}x{n!r} is not a pair of integers")
        if m < 0 or n < 0:
            raise ValueError(f"negative dimension in shape {m}x{n}")
        self._complex = False
        for key, value in self.entries.items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise ValueError(f"entry key {key!r} is not a (row, col) pair") from None
            if not (hasattr(i, "__index__") and hasattr(j, "__index__")):
                raise ValueError(f"entry index ({i!r}, {j!r}) is not a pair of integers")
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry index ({i}, {j}) outside {m}x{n}")
            # an exact type test is the cheapest
            modulus = value.modulus if type(value) is ComplexRadicalEntry else value
            if not isinstance(modulus, RadicalScalar):
                raise ValueError(
                    f"entry ({i}, {j}) is neither a RadicalScalar nor a "
                    f"ComplexRadicalEntry of RadicalScalar modulus: {value!r}"
                )
            if not value:
                raise ValueError(f"stored zero entry at ({i}, {j})")
            if modulus is not value:
                _check_phase(i, j, value)
                self._complex = True
        self._columns: Optional[List[Dict[int, MatrixEntry]]] = None

    @classmethod
    def _unchecked(
        cls,
        row_count: int,
        col_count: int,
        entries: Dict[Key, MatrixEntry],
        is_complex: bool,
        meta: Dict[str, object],
    ) -> "SynthesisMatrix":
        """Wrap entries already known to be nonzero and inside the shape,
        with the complex flag the caller knows, unchecked."""
        matrix = object.__new__(cls)
        matrix.row_count, matrix.col_count, matrix.entries = row_count, col_count, entries
        matrix.basis_note, matrix.meta = cls.basis_note, meta
        matrix._complex, matrix._columns = is_complex, None
        return matrix

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
        # entries are immutable, so each distinct entry object is converted
        # once, at its first position
        numbers: Dict[int, object] = {}
        try:
            for (i, j), value in self.entries.items():
                number = numbers.get(id(value))
                if number is None:
                    number = numbers[id(value)] = convert(value)
                dense[i, j] = number
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
        meta = dict(self.meta)
        # keys and shape are this matrix's, and a nonzero factor times a
        # nonzero entry is nonzero
        is_complex = any(type(product) is ComplexRadicalEntry for product in products.values())
        return SynthesisMatrix._unchecked(self.row_count, self.col_count, scaled, is_complex, meta)


def column_maps(matrix: SynthesisMatrix) -> List[Dict[int, MatrixEntry]]:
    """Per-column {row: entry} views, built on first use and stored: never change them."""
    if matrix._columns is None:
        columns: List[Dict[int, MatrixEntry]] = [dict() for _ in range(matrix.col_count)]
        for (row, col), value in matrix.entries.items():
            columns[col][row] = value
        matrix._columns = columns
    return matrix._columns


#: An exact square sum or inner product: a Fraction when rational, else the
#: canonical RadicalScalar of its irrational value.
ExactSum = Union[Fraction, RadicalScalar]

#: An entry's (radicand, coefficient) terms, each coefficient an int over
#: the sweep's unit D, or the term's own Fraction past _UNIT_BITS.
Form = Tuple[Tuple[int, Union[int, Fraction]], ...]

#: radicand -> coefficient over the sweep's scale (D^2, or 1 for Fraction
#: coefficients): the sum of coefficient/scale * sqrt(radicand) over the items.
Accumulator = Dict[int, Union[int, Fraction]]

#: The most bits the common unit D may have. Many coprime denominators
#: make D the product of them all and every int over D^2 twice that long:
#: one D over the 8,000 x 8,000 diagonal of 1/p for distinct primes p would
#: be 112 kbit. Past the bound the forms keep Fraction coefficients, whose
#: denominators grow only with the terms that meet in one sum. On rows,
#: diagonals and dense 40 x k blocks of 1/p and sqrt(1/p) over the first k
#: primes, ints over D were the faster up to 1.5 kbit on all three (by 1.2x
#: to 1.8x at 1,500 bits), and Fractions from about 1.8 kbit on diagonals
#: and 2.6 kbit on rows and dense blocks (Python 3.11, 2-core x86-64
#: host). Every Spectral Tetris and bench matrix has a unit of at most 5
#: bits, the Naimark complement of a 1 x 160 Parseval row one of 59.
_UNIT_BITS = 1536


def _entry_terms(value: MatrixEntry) -> Tuple[Tuple[int, Fraction], ...]:
    """The canonical terms of a real entry, or of a complex entry's modulus."""
    return (value.modulus if type(value) is ComplexRadicalEntry else value)._terms


def _add_product(sums: Accumulator, x: Form, y: Form) -> None:
    """Add the product of two forms to an accumulator. Terms c1*sqrt(r1) and
    c2*sqrt(r2) with g = gcd(r1, r2) multiply to c1*c2*g * sqrt((r1/g)*(r2/g)),
    whose radicand is squarefree again; ints over D multiply to ints over
    D^2, so no RadicalScalar product is formed."""
    for r1, a1 in x:
        for r2, a2 in y:
            if r1 == r2:
                sums[1] = sums.get(1, 0) + a1 * a2 * r1
            else:
                g = math.gcd(r1, r2)
                radicand = (r1 // g) * (r2 // g)
                sums[radicand] = sums.get(radicand, 0) + a1 * a2 * g


def _vanishes(sums: Accumulator) -> bool:
    """Whether an accumulator sums to zero: square roots of distinct
    squarefree radicands are linearly independent over the rationals, so
    exactly when every coefficient is zero."""
    return not any(sums.values())


def _exact_sum(sums: Accumulator, scale: int) -> ExactSum:
    """The exact value of an accumulator: one Fraction per nonzero radicand.
    A rational sum {1: s}, every square sum of single-term entries, is the
    one Fraction s/scale."""
    if len(sums) == 1 and 1 in sums:
        value = sums[1]
        return value if type(value) is Fraction else Fraction(value, scale)
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


def _sum(*values: Union[int, Fraction]) -> Union[int, Fraction]:
    """The sum of the values (0 for none), the combine of _pairwise for
    square sums."""
    return sum(values)


class _part:
    """A Sweep part: computed on first read and stored on the sweep, like
    functools.cached_property but without its lock, which Python 3.11 takes
    on every first read (about 1 us, seven times in one verify_frame). A
    sweep belongs to one call, so no other thread reads it."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, sweep: Optional[Sweep], owner: Optional[type] = None):
        if sweep is None:
            return self
        value = sweep.__dict__[self.name] = self.compute(sweep)
        return value


class Sweep:
    """The exact checks of one matrix, on ints over one common unit.

    D is the lcm of the denominators of the entries' coefficients, and each
    distinct entry object is read once (_entry_terms) into its form: its
    terms with each coefficient an int over D. Every product of two forms is
    then an int over D^2 per radicand, so the row and column square sums,
    the inner products of the row pairs that meet in a column and those of
    column pairs are ints, and each distinct sum becomes one exact value
    (_exact_sum) only when a caller reads it. Past _UNIT_BITS the forms keep
    the terms' own Fractions with scale 1, and every part runs the same
    code on them, bar the square sums (_pairwise_squares).

    Each part is computed on first use and kept, so a caller pays only for
    what it reads: forms, the square sums (_squares, settled as row_sums
    and col_sums), row_units for the block count, pairs (the row pairs'
    accumulators), incidence (row -> columns) and columns_cancel.
    rational_sums and scaled compare the square sums with expected values
    on the ints, unsettled (verify's expectations, norms_equal). The
    matrix keeps every entry alive, so the ids stay valid; a complex
    entry's form is its modulus's, which serves the square sums only.
    """

    def __init__(self, matrix: SynthesisMatrix):
        self.matrix = matrix
        self.scale = 1
        self._past_cap = False

    @_part
    def forms(self) -> Dict[int, Form]:
        """{id(entry): form} over the distinct entry objects; sets scale to
        D^2 and _square to the square of each one-term form (an int over
        scale). Each entry's canonical terms are read once (_entry_terms)
        and a one-term form's coefficient in one call. Past _UNIT_BITS each
        form is its entry's own terms, scale stays 1 and _square empty."""
        values = {id(value): value for value in self.matrix.entries.values()}
        terms = dict(zip(values, map(_entry_terms, values.values())))
        self._square = square = {}
        unit = _lcm(c.denominator for parts in terms.values() for _, c in parts)
        if unit.bit_length() > _UNIT_BITS:
            self._past_cap = True
            return terms
        self.scale = unit * unit
        forms: Dict[int, Form] = {}
        for key, parts in terms.items():
            if len(parts) == 1:
                ((radicand, c),) = parts
                numerator, denominator = c.as_integer_ratio()
                a = numerator * (unit // denominator)
                forms[key] = ((radicand, a),)
                square[key] = a * a * radicand
            else:
                forms[key] = tuple((r, c.numerator * (unit // c.denominator)) for r, c in parts)
        return forms

    @_part
    def _squares(self) -> Tuple[list, list, Dict[int, Accumulator], Dict[int, Accumulator]]:
        """Row and column square sums in one pass over the nonzeros: their
        rational parts as ints over scale, and the irrational parts, which
        only multi-term entries have, as {row or column: accumulator}. The
        forms that have no square in _square yet are squared here. Past
        _UNIT_BITS the Fraction squares are added in pairs (_pairwise_squares)."""
        matrix, forms = self.matrix, self.forms
        rational = self._square
        irrational: Dict[int, Accumulator] = {}
        for key, form in forms.items():
            if key not in rational:
                sums: Accumulator = {}
                _add_product(sums, form, form)
                rational[key] = sums.pop(1, 0)
                if not _vanishes(sums):
                    irrational[key] = sums
        if self._past_cap:
            return self._pairwise_squares(rational, irrational)
        rows, cols = [0] * matrix.row_count, [0] * matrix.col_count
        for (i, j), value in matrix.entries.items():
            square = rational[id(value)]
            rows[i] += square
            cols[j] += square
        row_parts: Dict[int, Accumulator] = {}
        col_parts: Dict[int, Accumulator] = {}
        if irrational:
            for (i, j), value in matrix.entries.items():
                for radicand, part in irrational.get(id(value), {}).items():
                    for target in (row_parts.setdefault(i, {}), col_parts.setdefault(j, {})):
                        target[radicand] = target.get(radicand, 0) + part
        return rows, cols, row_parts, col_parts

    def _pairwise_squares(
        self, rational: Dict[int, Fraction], irrational: Dict[int, Accumulator]
    ) -> Tuple[list, list, Dict[int, Accumulator], Dict[int, Accumulator]]:
        """_squares past _UNIT_BITS: each row's and column's squares, and
        each of their radicands' irrational parts, gathered and then added
        in pairs (sequences._pairwise). The values, and the order of the
        radicands, are those of adding them in turn."""
        matrix = self.matrix
        row_terms: List[list] = [[] for _ in range(matrix.row_count)]
        col_terms: List[list] = [[] for _ in range(matrix.col_count)]
        row_parts: Dict[int, Dict[int, list]] = {}
        col_parts: Dict[int, Dict[int, list]] = {}
        for (i, j), value in matrix.entries.items():
            square = rational[id(value)]
            row_terms[i].append(square)
            col_terms[j].append(square)
            for radicand, part in irrational.get(id(value), {}).items():
                for target in (row_parts.setdefault(i, {}), col_parts.setdefault(j, {})):
                    target.setdefault(radicand, []).append(part)

        def settle(parts: Dict[int, Dict[int, list]]) -> Dict[int, Accumulator]:
            return {
                index: {radicand: _pairwise(_sum, terms) for radicand, terms in sums.items()}
                for index, sums in parts.items()
            }

        rows = [_pairwise(_sum, terms) for terms in row_terms]
        cols = [_pairwise(_sum, terms) for terms in col_terms]
        return rows, cols, settle(row_parts), settle(col_parts)

    def _settled(self, sums: list, parts: Dict[int, Accumulator]) -> List[ExactSum]:
        """The exact value of each square sum, each distinct one settled once,
        so equal sums are one object."""
        if not parts:
            settled = {s: _exact_sum({1: s}, self.scale) for s in dict.fromkeys(sums)}
            return list(map(settled.__getitem__, sums))
        keys = [((1, s), *parts.get(index, {}).items()) for index, s in enumerate(sums)]
        exact = {key: _exact_sum(dict(key), self.scale) for key in dict.fromkeys(keys)}
        return list(map(exact.__getitem__, keys))

    @_part
    def row_sums(self) -> List[ExactSum]:
        """The exact row square sums, in row order."""
        rows, _, row_parts, _ = self._squares
        return self._settled(rows, row_parts)

    @_part
    def col_sums(self) -> List[ExactSum]:
        """The exact column square sums, in column order."""
        _, cols, _, col_parts = self._squares
        return self._settled(cols, col_parts)

    def rational_sums(self, columns: bool) -> Optional[list]:
        """The column (else row) square sums over scale, unsettled, or None
        when one of them is irrational."""
        rows, cols, row_parts, col_parts = self._squares
        sums, parts = (cols, col_parts) if columns else (rows, row_parts)
        return sums if all(map(_vanishes, parts.values())) else None

    @_part
    def row_units(self) -> Optional[Tuple[int, List[int]]]:
        """The row square sums as sequences.integer_units gives them, (unit,
        each sum times unit), or None unless every one is a positive
        rational. Over D^2 no Fraction is formed: with g = gcd(D^2, sums),
        the lcm of the reduced denominators is D^2/g and each sum is s/g.
        Sums over scale 1 go through integer_units itself."""
        rows = self.rational_sums(False)
        if rows is None or any(s <= 0 for s in rows):
            return None
        if self.scale == 1:
            return integer_units(rows)
        common = math.gcd(self.scale, *rows)
        return self.scale // common, [s // common for s in rows]

    @_part
    def pairs(self) -> Dict[Key, Accumulator]:
        """{(p, q): the accumulator of rows p and q's inner product} for every
        pair of rows p < q that meet in a column of a real matrix.

        Rows p and q only meet in the columns whose support holds both, so
        this takes sum |supp|^2 products over the columns instead of M^2 row
        inner products. Row pairs that share no column are absent. A column
        of two rows, the widest a Spectral Tetris frame has, is one pair, put
        in row order by one comparison; a wider column reads each row's form
        once into a list sorted by row and pairs that list.
        """
        forms = self.forms
        pairs: Dict[Key, Accumulator] = {}
        for column in column_maps(self.matrix):
            if len(column) < 2:
                continue  # a single row meets no other row here
            if len(column) == 2:  # half of a 2x2 block: one pair, in row order
                (p, x), (q, y) = column.items()
                x, y = forms[id(x)], forms[id(y)]
                meets = (((p, x), (q, y)),) if p < q else (((q, y), (p, x)),)
            else:
                rows = sorted([(row, forms[id(value)]) for row, value in column.items()])
                meets = combinations(rows, 2)
            for (p, x), (q, y) in meets:
                sums = pairs.get((p, q))
                if sums is None:
                    sums = pairs[(p, q)] = {}
                _add_product(sums, x, y)
        return pairs

    def rows_orthogonal(self) -> bool:
        """Whether every pair of distinct rows of a real matrix is orthogonal."""
        return all(map(_vanishes, self.pairs.values()))

    def pair_values(self) -> Dict[Key, ExactSum]:
        """The exact inner product of each row pair in pairs, each distinct
        accumulator settled once."""
        keys = {pair: tuple(sums.items()) for pair, sums in self.pairs.items()}
        exact = {key: _exact_sum(dict(key), self.scale) for key in dict.fromkeys(keys.values())}
        return {pair: exact[key] for pair, key in keys.items()}

    @_part
    def incidence(self) -> Dict[int, List[int]]:
        """{row: the columns with a nonzero in that row, in increasing order}."""
        rows: Dict[int, List[int]] = {}
        for col, column in enumerate(column_maps(self.matrix)):
            for row in column:
                if row in rows:
                    rows[row].append(col)
                else:
                    rows[row] = [col]
        return rows

    def columns_cancel(self, j: int, k: int) -> bool:
        """Whether real columns j and k are orthogonal.

        Columns sharing no row are; columns sharing exactly one row are not,
        their inner product being one product of nonzero reals. Otherwise the
        products on the shared rows go into one accumulator, which must cancel.
        """
        columns, forms = column_maps(self.matrix), self.forms
        a, b = columns[j], columns[k]
        shared = a.keys() & b.keys()
        if len(shared) == 1:
            return False
        sums: Accumulator = {}
        for row in shared:
            _add_product(sums, forms[id(a[row])], forms[id(b[row])])
        return _vanishes(sums)

    def scaled(self, value: Union[int, Fraction]) -> Union[int, Fraction]:
        """What a square sum over scale must be to equal value: value * scale
        when that is an int, else value itself, which no int equals and a
        Fraction sum past _UNIT_BITS (scale 1) meets as it is."""
        numerator, denominator = value.as_integer_ratio()
        quotient, rest = divmod(numerator * self.scale, denominator)
        return value if rest else quotient

    def norms_equal(self, cols: Sequence[int], weight) -> bool:
        """Whether each of the given columns has squared norm weight, decided
        on the ints over scale for an int or Fraction weight."""
        if not isinstance(weight, (int, Fraction)):
            return all(self.col_sums[col] == weight for col in cols)
        _, sums, _, parts = self._squares
        if parts and not all(_vanishes(parts.get(col, {})) for col in cols):
            return False
        target = self.scaled(weight)
        values = [sums[col] for col in cols]
        return values.count(target) == len(values)


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
    units: Sequence[int], eig_units: Sequence[int], unit: int, swap_on_straddle: bool
) -> Tuple[Dict[Key, MatrixEntry], int, Tuple[Tuple[int, int], ...]]:
    """The Spectral Tetris fill behind pnstc, pnstc_str and construct_untf.

    Places singletons sqrt(a) and 2x2 blocks A^(w, a, b) as pnstc
    describes; a pair straddling the row weight (b < w < a) is swapped as
    pnstc_str describes when swap_on_straddle is set, else the fill stops.
    Returns the entries, the number of placements and the swaps.

    units and eig_units are the norms and eigenvalues times unit
    (sequences.integer_units), so every move is decided on ints and is the
    move a Fraction fill would make. Every entry and every stuck fact comes
    from those ints too: a singleton is sqrt(a/unit) (_sqrt_ratio, taken
    once per run of equal norms), a block is built by
    blocks._block_from_units, because the comparisons that chose it have
    shown that it exists, and the facts of a _Stuck are Fraction(k, unit).

    Callers check sum(units) == sum(eig_units) first. Then before every
    step sum(remaining[row:]) == sum(units[col:]) and no remaining weight is
    negative: a singleton takes a from both sides, a block takes a + b from
    both (w from its row, the spill a + b - w from the next), and the
    overshoot check keeps the next row nonnegative. So while a row has
    weight a norm is left; a block never spills past the last row, whose
    weight covers every norm left; and no norm is left over once the last
    row is empty. No bounds check is needed: the fill can only stop for
    want of a partner, on a straddle or on an overshoot.
    """
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
                    last, root = a, _sqrt_ratio(a, unit)
                entries[(row, col)] = root
                weight -= a
                col += 1
                step += 1
                continue
            if col + 1 == len(units):
                facts = dict(norm=Fraction(a, unit), weight=Fraction(weight, unit), row=row)
                raise _Stuck("partner", step, facts)
            b = units[col + 1]
            if weight > b:
                if not swap_on_straddle:
                    facts = dict(
                        norm=Fraction(a, unit),
                        partner=Fraction(b, unit),
                        weight=Fraction(weight, unit),
                    )
                    raise _Stuck("straddle", step, facts)
                units[col], units[col + 1] = b, a
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
        entries, steps, _ = _greedy_fill(units, eig_units, unit, swap_on_straddle=False)
    except _Stuck as stuck:
        kind, step, facts = stuck.args
        raise NotSTReady(_FILL_WORDING[kind].format(**facts), step=step) from None
    meta = {"algorithm": "pnstc", "steps": steps}
    return SynthesisMatrix._unchecked(len(eigs), len(norms), entries, False, meta)


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
        entries, _, swaps = _greedy_fill(units, eig_units, unit, swap_on_straddle=True)
    except _Stuck as stuck:
        kind, _, facts = stuck.args
        raise ReorderFailed(_REORDER_WORDING[kind].format(**facts)) from None
    meta = {"algorithm": "pnstc_str", "swaps": swaps}
    return SynthesisMatrix._unchecked(len(eigs), len(norms), entries, False, meta), swaps


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
    count = _positive_int(count, "count")
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
    dimension = _positive_int(dimension, "dimension")
    count = _positive_int(count, "count")
    if count < dimension:
        raise Underdetermined(
            f"{count} vectors cannot span a space of dimension {dimension}"
        )
    eigenvalue = Fraction(count, dimension)
    # in the unit of the reduced N/M every norm is that unit and every row
    # its numerator, as integer_units would give them. Unit norms always
    # have a partner and never straddle, so the only way the fill can stop
    # is a spill overshooting the next row
    unit, row = eigenvalue.denominator, eigenvalue.numerator
    try:
        entries, _, _ = _greedy_fill([unit] * count, [row] * dimension, unit, swap_on_straddle=False)
    except _Stuck as stuck:
        kind, _, facts = stuck.args
        reduced = f"{row}/{unit}"
        label = reduced if reduced == f"{count}/{dimension}" else f"{count}/{dimension} = {reduced}"
        raise Infeasible(
            f"no sparse unit-norm tight frame of {count} vectors in dimension "
            f"{dimension}: eigenvalue {label} is neither an integer "
            f">= 2 nor of the form (2L-1)/L ({_FILL_WORDING[kind].format(**facts)})"
        ) from None
    meta = {"algorithm": "untf", "eigenvalue": eigenvalue}
    return SynthesisMatrix._unchecked(dimension, count, entries, False, meta)


def construct_untf_dft(dimension: int, count: int) -> SynthesisMatrix:
    """Unit-norm tight frame via square blocks of scaled roots of unity.

    Covers redundancies the 2x2 route cannot reach by spending a J x J block
    wherever a row's fractional remainder appears: the block's first row
    absorbs the entire remainder and each of the J-1 rows below pays an equal
    share of the rest. Singletons handle rows with remainder >= 2 or exactly
    1. Raises Underdetermined for count < dimension and DftPathStuck (with
    the step trace) when no block size fits.

    The weight left in the rows is count - col (a J x J block takes rest +
    (J-1)*trailing = J), so rows remain while columns do and J <= count -
    col; rest > 0 and trailing > 0 make every entry nonzero. So the matrix
    is built unchecked, complex exactly when some block has J >= 3.
    """
    dimension = _positive_int(dimension, "dimension")
    count = _positive_int(count, "count")
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
    is_complex = False
    while col < count:
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
        for size in range(2, dimension - row + 1):
            trailing = (size - rest) / Fraction(size - 1)
            if all(trailing <= remaining[row + i] for i in range(1, size)):
                break
        else:
            raise DftPathStuck(
                f"row {row} holds fractional weight {rest} but no block size "
                f"J <= {dimension - row} fits the rows below",
                steps=tuple(steps),
            )
        _place_block(entries, dft_block(size, rest, trailing), row, col)
        for i in range(1, size):
            remaining[row + i] -= trailing
        remaining[row] = 0
        steps.append((f"block J={size}", f"rows {row}..{row + size - 1}", f"col {col}"))
        is_complex = is_complex or size > 2
        col += size
        row += 1
    meta = {"algorithm": "untf_dft", "eigenvalue": eigenvalue, "steps": tuple(steps)}
    return SynthesisMatrix._unchecked(dimension, count, entries, is_complex, meta)


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
    count = _positive_int(count, "count")
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
        return SynthesisMatrix._unchecked(0, n, {}, False, meta)
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
    return SynthesisMatrix._unchecked(n - m, n, entries, False, meta)
