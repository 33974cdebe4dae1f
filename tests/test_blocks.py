"""The 2x2 and J x J building blocks: existence conditions and exact identities."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    BlockDomain,
    NoSuchBlock,
    ZERO,
    block_a,
    block_a_hat,
    dft_block,
    entry_abs_squared,
    entry_to_complex,
)

from spectral_tetris.blocks import _block_from_units, block_a_hat_support

from _oracles import block_a_hat_oracle, fraction_block_a_hat_oracle, fraction_block_a_oracle

NUMERIC_TOLERANCE = 1e-12

unit_interval_fractions = st.fractions(min_value=0, max_value=2, max_denominator=12)


def exact_row_square_sum(block, i):
    total = ZERO
    for value in block.rows[i]:
        total = total + entry_abs_squared(value)
    return total


def exact_column_square_sum(block, j):
    total = ZERO
    for i in range(block.row_count):
        total = total + entry_abs_squared(block.entry(i, j))
    return total


def test_block_a_shape_and_values():
    block = block_a(Fraction(1, 4))
    assert block.row_count == block.col_count == 2
    assert entry_abs_squared(block.entry(0, 0)) == Fraction(1, 8)
    assert entry_abs_squared(block.entry(1, 0)) == Fraction(7, 8)
    assert block.entry(1, 1) == -block.entry(1, 0)


def test_block_a_endpoints_degenerate_cleanly():
    assert block_a(0).rows[0] == (ZERO, ZERO)
    assert block_a(2).rows[1] == (ZERO, ZERO)


def test_block_a_domain():
    with pytest.raises(BlockDomain):
        block_a(Fraction(-1, 2))
    with pytest.raises(BlockDomain):
        block_a(Fraction(5, 2))


@given(unit_interval_fractions)
def test_block_a_exact_identities(x):
    block = block_a(x)
    assert exact_column_square_sum(block, 0) == 1
    assert exact_column_square_sum(block, 1) == 1
    assert exact_row_square_sum(block, 0) == x
    assert exact_row_square_sum(block, 1) == 2 - x
    inner = block.entry(0, 0) * block.entry(1, 0) + block.entry(0, 1) * block.entry(1, 1)
    assert inner == ZERO


def _support_or_none(x, a1_squared, a2_squared):
    try:
        return block_a_hat_support(x, a1_squared, a2_squared)
    except NoSuchBlock:
        return None


def test_block_a_hat_support_is_the_nonzero_pattern_in_any_unit():
    sixths = [Fraction(k, 6) for k in range(25)]
    built = 0
    for x, a1, a2 in itertools.product(sixths, repeat=3):
        try:
            block = block_a_hat(x, a1, a2)
        except NoSuchBlock:
            expected = None
        else:
            built += 1
            expected = tuple(
                tuple(i for i in range(2) if block.rows[i][j]) for j in range(2)
            )
        assert _support_or_none(x, a1, a2) == expected, (x, a1, a2)
        assert _support_or_none(7 * x, 7 * a1, 7 * a2) == expected, (x, a1, a2)
        unit = math.lcm(x.denominator, a1.denominator, a2.denominator)
        scaled = [v.numerator * (unit // v.denominator) for v in (x, a1, a2)]
        assert _support_or_none(*scaled) == expected, (x, a1, a2)
    assert built == 7800


def _rows_or_refusal(build, *args):
    try:
        return build(*args).rows
    except (BlockDomain, NoSuchBlock) as refusal:
        return type(refusal), str(refusal)


def test_blocks_from_integers_equal_the_fraction_formulas():
    """block_a_hat and block_a build through blocks._block_from_units, on
    ints in the lcm unit of their arguments. The Fraction formulas they
    replaced (verbatim in _oracles) give the same entries and refuse the
    same inputs with the same error; the kernel called directly with the
    lcm-unit ints builds the same block."""
    sixths = [Fraction(k, 6) for k in range(25)]
    built = 0
    for x, a1, a2 in itertools.product(sixths, repeat=3):
        expected = _rows_or_refusal(fraction_block_a_hat_oracle, x, a1, a2)
        assert _rows_or_refusal(block_a_hat, x, a1, a2) == expected, (x, a1, a2)
        if isinstance(expected[0], type):
            continue
        built += 1
        unit = math.lcm(x.denominator, a1.denominator, a2.denominator)
        scaled = [v.numerator * (unit // v.denominator) for v in (x, a1, a2)]
        assert _block_from_units(*scaled, unit).rows == expected, (x, a1, a2)
    assert built == 7800
    for x in [Fraction(-1, 6)] + sixths:
        expected = _rows_or_refusal(fraction_block_a_oracle, x)
        assert _rows_or_refusal(block_a, x) == expected, x
        if not isinstance(expected[0], type):
            unit = x.denominator
            assert _block_from_units(x.numerator, unit, unit, unit).rows == expected, x


def test_block_a_hat_reproduces_a_worked_step():
    # one unit of row weight left, next squared norms 4 and 3
    block = block_a_hat(1, 4, 3)
    assert entry_abs_squared(block.entry(0, 0)) == Fraction(2, 5)
    assert entry_abs_squared(block.entry(0, 1)) == Fraction(3, 5)
    assert entry_abs_squared(block.entry(1, 0)) == Fraction(18, 5)
    assert entry_abs_squared(block.entry(1, 1)) == Fraction(12, 5)
    assert float(block.entry(1, 1)) < 0


def test_block_a_hat_symmetric_degeneration():
    # both row weights equal forces both squared norms equal to x
    block = block_a_hat(1, 1, 1)
    assert exact_row_square_sum(block, 0) == 1
    assert exact_row_square_sum(block, 1) == 1
    assert block.entry(0, 0) == block.entry(0, 1) == block.entry(1, 0)
    assert block.entry(1, 1) == -block.entry(0, 0)


def test_block_a_hat_existence_conditions():
    with pytest.raises(NoSuchBlock):
        block_a_hat(2, 1, 3)  # squared norms straddle the row weight
    with pytest.raises(NoSuchBlock):
        block_a_hat(3, 1, 1)  # total squared norm below the row weight
    with pytest.raises(NoSuchBlock):
        block_a_hat(0, 1, 1)
    with pytest.raises(NoSuchBlock):
        block_a_hat(Fraction(-1, 2), 1, 1)


def test_block_a_hat_names_each_refusal():
    with pytest.raises(NoSuchBlock, match=r"^squared norms 1, 1 sum below row weight 3$"):
        block_a_hat(3, 1, 1)
    with pytest.raises(NoSuchBlock, match=r"^squared norms 1, 3 straddle the row weight 2$"):
        block_a_hat(2, 1, 3)
    with pytest.raises(NoSuchBlock, match=r"^row weight 0 must be positive$"):
        block_a_hat(0, 1, 1)


@given(
    st.fractions(min_value="1/4", max_value=3, max_denominator=8),
    st.fractions(min_value=0, max_value=4, max_denominator=8),
    st.fractions(min_value=0, max_value=4, max_denominator=8),
)
@settings(max_examples=120, deadline=None)
def test_block_a_hat_exact_identities(x, a1, a2):
    same_side = (a1 >= x and a2 >= x) or (a1 <= x and a2 <= x)
    if not (a1 + a2 >= x and same_side):
        return
    block = block_a_hat(x, a1, a2)
    assert exact_column_square_sum(block, 0) == a1
    assert exact_column_square_sum(block, 1) == a2
    assert exact_row_square_sum(block, 0) == x
    assert exact_row_square_sum(block, 1) == a1 + a2 - x
    inner = block.entry(0, 0) * block.entry(1, 0) + block.entry(0, 1) * block.entry(1, 1)
    assert inner == ZERO


def test_block_a_hat_on_unit_norms_is_block_a():
    grid = {Fraction(k, d) for d in range(1, 13) for k in range(1, 2 * d + 1)}
    for x in sorted(grid):
        assert block_a_hat(x, 1, 1).rows == block_a(x).rows


@given(
    st.fractions(min_value="1/8", max_value=4, max_denominator=12),
    st.fractions(min_value="1/2", max_value=2, max_denominator=12),
)
@settings(max_examples=150, deadline=None)
def test_block_a_hat_with_equal_norms(x, ratio):
    # a = x * ratio lies below x for ratio < 1 and above it for ratio > 1;
    # a >= x/2 is the existence condition 2a >= x
    a = x * ratio
    block = block_a_hat(x, a, a)
    assert exact_column_square_sum(block, 0) == a
    assert exact_column_square_sum(block, 1) == a
    assert exact_row_square_sum(block, 0) == x
    assert exact_row_square_sum(block, 1) == 2 * a - x
    inner = block.entry(0, 0) * block.entry(1, 0) + block.entry(0, 1) * block.entry(1, 1)
    assert inner == ZERO
    assert block.rows == block_a_hat_oracle(x, a, a).rows


def test_dft_block_size_two_is_the_real_block():
    assert dft_block(2, Fraction(1, 2), Fraction(3, 2)).rows == block_a(Fraction(1, 2)).rows


def test_dft_block_singleton():
    block = dft_block(1, 1, 0)
    assert block.rows == ((block.entry(0, 0),),)
    assert entry_abs_squared(block.entry(0, 0)) == 1


def test_dft_block_three_matches_the_golden_tail():
    from goldens import DFT_4x5

    block = dft_block(3, Fraction(1, 2), Fraction(5, 4))
    for i in range(3):
        for j in range(3):
            assert block.entry(i, j) == DFT_4x5[(i + 1, j + 2)], (i, j)


def test_dft_block_weight_consistency_enforced():
    with pytest.raises(BlockDomain):
        dft_block(3, 2, 1)  # 2 + 2*1 != 3
    with pytest.raises(BlockDomain):
        dft_block(2, -1, 3)
    with pytest.raises(BlockDomain):
        dft_block(0, 1, 1)


def test_dft_block_reads_its_size_through_index():
    """A size that is not an integer ends in ValueError naming it, not in
    the TypeError of a comparison or of range; an integer size below one
    keeps its BlockDomain, and any __index__ integer is its int."""
    for size in (None, "3", 2.5):
        with pytest.raises(ValueError, match=rf"^block size {re.escape(repr(size))} is not an integer$"):
            dft_block(size, 1, 1)
    for size in (0, -1):
        with pytest.raises(BlockDomain, match=rf"^block size {size} must be positive$"):
            dft_block(size, 1, 1)
    assert dft_block(np.int64(3), Fraction(1, 2), Fraction(5, 4)) == dft_block(
        3, Fraction(1, 2), Fraction(5, 4)
    )


@pytest.mark.parametrize("size,first", [(2, Fraction(1, 2)), (3, Fraction(3, 4)), (4, Fraction(5, 3)), (5, 1)])
def test_dft_block_rows_orthogonal_numerically(size, first):
    trailing = Fraction(size - first, size - 1) if size > 1 else Fraction(0)
    block = dft_block(size, first, trailing)
    dense = np.array(
        [[entry_to_complex(block.entry(i, j)) for j in range(size)] for i in range(size)]
    )
    gram = dense @ dense.conj().T
    expected = np.diag([float(first)] + [float(trailing)] * (size - 1))
    assert np.max(np.abs(gram - expected)) < NUMERIC_TOLERANCE
    col_norms = np.sum(np.abs(dense) ** 2, axis=0)
    assert np.max(np.abs(col_norms - 1.0)) < NUMERIC_TOLERANCE


def test_block_arguments_refuse_non_numbers_and_infinities():
    """None and an infinity end in ValueError naming the argument, not in
    Fraction's TypeError or OverflowError; finite values out of range keep
    their BlockDomain and NoSuchBlock messages."""
    with pytest.raises(ValueError, match=r"^block parameter None at position 0 is not a finite number$"):
        block_a(None)
    with pytest.raises(ValueError, match=r"^block parameter inf at position 0 is not a finite number$"):
        block_a(math.inf)
    with pytest.raises(ValueError, match=r"^squared norm None at position 0 is not a finite number$"):
        block_a_hat(1, None, 1)
    with pytest.raises(ValueError, match=r"^row weight None at position 0 is not a finite number$"):
        block_a_hat(None, 1, 1)
    with pytest.raises(ValueError, match=r"^row weight None at position 0 is not a finite number$"):
        dft_block(3, None, 1)
    with pytest.raises(ValueError, match=r"^row weight inf at position 1 is not a finite number$"):
        dft_block(3, 1, math.inf)
    with pytest.raises(BlockDomain, match=r"^block parameter 3 outside \[0, 2\]$"):
        block_a(3)
    with pytest.raises(NoSuchBlock, match=r"^row weight 0 must be positive$"):
        block_a_hat(0, 1, 1)
    with pytest.raises(BlockDomain, match=r"^row weights must be nonnegative$"):
        dft_block(3, -1, 2)
