"""Building blocks: the 2x2 real blocks and the J x J DFT blocks.

A block is a tiny dense matrix whose columns later become consecutive frame
vectors and whose rows overlap two (or J) consecutive rows of the synthesis
matrix. Each constructor enforces the exact existence conditions and returns
entries in exact arithmetic; block_a_hat_support reads which entries of a
2x2 block are nonzero from comparisons alone, for searches that need only a
block's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import BlockDomain, NoSuchBlock
from .exact_numeric import (
    ComplexRadicalEntry,
    MatrixEntry,
    RadicalScalar,
    RationalLike,
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
    and the lower row receives weight 2 - x.
    """
    x = Fraction(x)
    if not 0 <= x <= 2:
        raise BlockDomain(f"block parameter {x} outside [0, 2]")
    top = RadicalScalar.sqrt(x / 2)
    bottom = RadicalScalar.sqrt(1 - x / 2)
    return Block(rows=((top, top), (bottom, -bottom)))


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
    When a1^2 = a2^2 the formula reduces exactly to the symmetric block
    [[sqrt(x/2), sqrt(x/2)], [sqrt(y/2), -sqrt(y/2)]] at two square roots, not
    four. y = x, where its denominator x - y vanishes, forces a1^2 = a2^2 = x.
    """
    x = Fraction(x)
    a1 = Fraction(a1_squared)
    a2 = Fraction(a2_squared)
    _require_block(x, a1, a2)
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
    blocks are real.
    """
    if size < 1:
        raise BlockDomain(f"block size {size} must be positive")
    first = Fraction(first_row_weight)
    trailing = Fraction(trailing_row_weight)
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
