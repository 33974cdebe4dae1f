"""Building blocks: the 2x2 real blocks and the J x J DFT blocks.

A block is a tiny dense matrix whose columns later become consecutive frame
vectors and whose rows overlap two (or J) consecutive rows of the synthesis
matrix. Each constructor enforces the exact existence conditions and returns
entries in exact arithmetic. Every 2x2 block (block_a, block_a_hat and the
blocks of construct's Spectral Tetris fill) comes from one kernel,
_block_from_units: it takes the row weight and the two squared norms as
integers in a common unit, so the fill passes the ints it already decides
its moves on, and takes each entry's square root from ints with one gcd.
block_a_hat_support reads which entries of a 2x2 block are nonzero from
comparisons alone, for searches that need only a block's shape.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Tuple

from .errors import BlockDomain, NoSuchBlock
from .exact_numeric import (
    ComplexRadicalEntry,
    MatrixEntry,
    RadicalScalar,
    RationalLike,
    _rationals,
    _sqrt_ratio,
)


@dataclass(frozen=True)
class Block:
    """Dense block of exact entries, row-major."""

    rows: Tuple[Tuple[MatrixEntry, ...], ...]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def col_count(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> MatrixEntry:
        return self.rows[i][j]


def block_a(x: RationalLike) -> Block:
    """Unit-norm two-column block leaving weight x in the upper row.

    [[sqrt(x/2),   sqrt(x/2)  ],
     [sqrt(1-x/2), -sqrt(1-x/2)]]

    Requires 0 <= x <= 2; the columns are unit norm, the rows orthogonal,
    and the lower row receives weight 2 - x. It is block_a_hat(x, 1, 1),
    extended to the endpoints: x = 0 gives a zero upper row, x = 2 a zero
    lower row.
    """
    (x,) = _rationals((x,), "block parameter")
    if not 0 <= x <= 2:
        raise BlockDomain(f"block parameter {x} outside [0, 2]")
    unit = x.denominator
    return _block_from_units(x.numerator, unit, unit, unit)


def _require_block(x, a1_squared, a2_squared) -> None:
    """Raise NoSuchBlock unless a block with row weight x and these squared norms exists."""
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


def block_a_hat(x: RationalLike, a1_squared: RationalLike, a2_squared: RationalLike) -> Block:
    """Two-column block with prescribed squared column norms a1^2, a2^2.

    Exists exactly when a1^2 + a2^2 >= x > 0 and the two squared norms lie on
    the same side of x (both >= or both <=); otherwise NoSuchBlock is raised.
    The upper row receives weight x and the lower row y = a1^2 + a2^2 - x.
    The three values are scaled to integers over the lcm of their
    denominators and built by _block_from_units.
    """
    (x,) = _rationals((x,), "row weight")
    a1, a2 = _rationals((a1_squared, a2_squared), "squared norm")
    _require_block(x, a1, a2)
    unit = math.lcm(x.denominator, a1.denominator, a2.denominator)
    return _block_from_units(
        x.numerator * (unit // x.denominator),
        a1.numerator * (unit // a1.denominator),
        a2.numerator * (unit // a2.denominator),
        unit,
    )


def _block_from_units(x: int, a1: int, a2: int, unit: int) -> Block:
    """The 2x2 block for row weight x/unit and squared norms a1/unit, a2/unit.

    With y = a1 + a2 - x and D = x - y the entries are

        [[sqrt(x(a1 - y)/D),  sqrt(x(x - a1)/D)],
         [sqrt(y(x - a1)/D), -sqrt(y(a1 - y)/D)]]

    in units of 1/unit, each taken as sqrt(p/q) on ints by _sqrt_ratio (when
    a1 > x, D and both numerators are negative, so the signs of p/q are
    normalized there). When a1 = a2 the formula reduces exactly to the
    symmetric block [[sqrt(x/2), sqrt(x/2)], [sqrt(y/2), -sqrt(y/2)]] at two
    square roots, not four; y = x, where D vanishes, forces a1 = a2 = x.
    Unchecked: the caller has decided that the block exists (_require_block),
    or block_a allows x = 0 or y = 0 with a1 = a2.
    """
    y = a1 + a2 - x
    if a1 == a2:
        top = _sqrt_ratio(x, 2 * unit)
        bottom = _sqrt_ratio(y, 2 * unit)
        return Block(rows=((top, top), (bottom, -bottom)))
    denom = (x - y) * unit
    return Block(
        rows=(
            (_sqrt_ratio(x * (a1 - y), denom), _sqrt_ratio(x * (x - a1), denom)),
            (_sqrt_ratio(y * (x - a1), denom), -_sqrt_ratio(y * (a1 - y), denom)),
        )
    )


def block_a_hat_support(
    x: RationalLike, a1_squared: RationalLike, a2_squared: RationalLike
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Row offsets (0 upper, 1 lower) of each column's nonzero entries in block_a_hat.

    Decided by comparisons alone, with no square root: with y = a1^2 + a2^2 - x,
    equal norms give both columns {0}, or {0, 1} when y != 0; otherwise
    column 0 covers row 0 iff a2^2 != x and row 1 iff y != 0 and a1^2 != x,
    and column 1 covers row 0 iff a1^2 != x and row 1 iff y != 0 and
    a2^2 != x. Raises NoSuchBlock exactly when block_a_hat does. Scaling x,
    a1^2 and a2^2 by one positive factor scales y alike and keeps every
    comparison, so the answer is the same in any common unit: callers may
    pass the three values as integers over a shared denominator.
    """
    _require_block(x, a1_squared, a2_squared)
    y = a1_squared + a2_squared - x
    if a1_squared == a2_squared:
        rows = (0,) if y == 0 else (0, 1)
        return rows, rows
    first = (a2_squared != x, y != 0 and a1_squared != x)
    second = (a1_squared != x, y != 0 and a2_squared != x)
    return (
        tuple(i for i, nonzero in enumerate(first) if nonzero),
        tuple(i for i, nonzero in enumerate(second) if nonzero),
    )


def dft_block(
    size: int, first_row_weight: RationalLike, trailing_row_weight: RationalLike
) -> Block:
    """J x J block of scaled roots of unity with unit-norm columns.

    Row 0 entries have squared modulus first_row_weight/J; each of the J-1
    trailing rows has per-entry squared modulus trailing_row_weight/J; the
    (i, j) entry carries phase omega_J^(i*j). Unit columns force
    first_row_weight + (J-1)*trailing_row_weight = J; anything else raises
    BlockDomain. Order-2 phases collapse to signed real entries, so J = 2
    blocks are real. The size is read through __index__: ValueError names
    one that is not an integer.
    """
    if not hasattr(size, "__index__"):
        raise ValueError(f"block size {size!r} is not an integer")
    size = operator.index(size)
    if size < 1:
        raise BlockDomain(f"block size {size} must be positive")
    first, trailing = _rationals((first_row_weight, trailing_row_weight), "row weight")
    if first < 0 or (size > 1 and trailing < 0):
        raise BlockDomain("row weights must be nonnegative")
    if first + (size - 1) * trailing != size:
        raise BlockDomain(
            f"weights {first} + {size - 1}*{trailing} != {size}: columns would not be unit norm"
        )
    rows = []
    for i in range(size):
        weight = first if i == 0 else trailing
        modulus = RadicalScalar.sqrt(weight / size)
        row = tuple(
            ComplexRadicalEntry.make(modulus, i * j, size) for j in range(size)
        )
        rows.append(row)
    return Block(rows=tuple(rows))
