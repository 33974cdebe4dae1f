"""Exact radical arithmetic: canonical forms, field operations, complex entries."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    ComplexRadicalEntry,
    DomainError,
    ONE,
    RadicalScalar,
    ZERO,
    entry_abs_squared,
    entry_to_complex,
    to_float,
)
from spectral_tetris.exact_numeric import _prime_powers, _squarefree_split

FLOAT_TOLERANCE = 1e-9


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=9)
radicands = st.integers(min_value=1, max_value=30)
radical_scalars = st.lists(
    st.tuples(radicands, small_fractions), min_size=0, max_size=3
).map(RadicalScalar)


def test_sqrt_pulls_out_square_factors():
    assert RadicalScalar.sqrt(8).terms == ((2, Fraction(2)),)
    assert RadicalScalar.sqrt(Fraction(3, 8)).terms == ((6, Fraction(1, 4)),)
    assert RadicalScalar.sqrt(45).terms == ((5, Fraction(3)),)


def test_sqrt_of_perfect_square_is_rational():
    value = RadicalScalar.sqrt(Fraction(9, 4))
    assert value.is_rational()
    assert value.rational_part() == Fraction(3, 2)


def test_sqrt_zero_is_falsy_zero():
    assert RadicalScalar.sqrt(0) == ZERO
    assert not RadicalScalar.sqrt(0)


def test_sqrt_negative_refused():
    with pytest.raises(DomainError):
        RadicalScalar.sqrt(-1)


def test_constructor_rejects_nonpositive_radicand():
    with pytest.raises(DomainError):
        RadicalScalar([(0, Fraction(1))])
    with pytest.raises(DomainError):
        RadicalScalar([(-3, Fraction(1))])


def test_constructor_merges_equivalent_radicands():
    # sqrt(8) fed directly must land on the same canonical term as 2*sqrt(2)
    assert RadicalScalar([(8, 1)]) == RadicalScalar([(2, 2)])
    assert hash(RadicalScalar([(8, 1)])) == hash(RadicalScalar([(2, 2)]))


def test_cancellation_drops_terms():
    a = RadicalScalar.sqrt(2) + RadicalScalar.sqrt(3)
    assert (a - RadicalScalar.sqrt(3)).terms == RadicalScalar.sqrt(2).terms
    assert (a - a) == ZERO


def test_conjugate_product_is_rational():
    a = ONE + RadicalScalar.sqrt(2)
    b = ONE - RadicalScalar.sqrt(2)
    assert a * b == RadicalScalar.from_rational(-1)


def test_square_of_sum_expands():
    a = RadicalScalar.sqrt(2) + RadicalScalar.sqrt(3)
    expected = RadicalScalar.from_rational(5) + 2 * RadicalScalar.sqrt(6)
    assert a * a == expected


def test_rational_part_of_irrational_refused():
    with pytest.raises(DomainError):
        RadicalScalar.sqrt(2).rational_part()


def test_inverse_of_nested_sum():
    a = ONE + RadicalScalar.sqrt(2) + RadicalScalar.sqrt(3) + RadicalScalar.sqrt(6)
    assert a * a.inverse() == ONE


def test_inverse_of_zero_refused():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_both_directions():
    a = RadicalScalar.sqrt(5)
    assert (1 / a) * a == ONE
    assert a / a == ONE
    assert (a / 2) == RadicalScalar([(5, Fraction(1, 2))])


def test_float_value():
    value = RadicalScalar.sqrt(2) + Fraction(1, 3)
    assert abs(float(value) - (math.sqrt(2) + 1 / 3)) < FLOAT_TOLERANCE


def test_mixing_with_plain_rationals():
    assert RadicalScalar.sqrt(2) + 0 == RadicalScalar.sqrt(2)
    assert 3 * RadicalScalar.sqrt(2) == RadicalScalar([(2, 3)])
    assert RadicalScalar.from_rational(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        RadicalScalar.sqrt(2) + 0.5


@given(radical_scalars, radical_scalars, radical_scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(radical_scalars)
@settings(max_examples=40, deadline=None)
def test_nonzero_inverse_round_trips(a):
    if a:
        assert a * a.inverse() == ONE


@given(radical_scalars, radical_scalars)
def test_product_matches_float_arithmetic(a, b):
    exact = float(a * b)
    approx = float(a) * float(b)
    assert abs(exact - approx) <= FLOAT_TOLERANCE * (1 + abs(exact))


@given(radical_scalars, radical_scalars)
def test_equality_implies_equal_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_complex_entry_phase_reduction():
    m = RadicalScalar.sqrt(Fraction(5, 12))
    assert ComplexRadicalEntry.make(m, 2, 6) == ComplexRadicalEntry.make(m, 1, 3)
    assert ComplexRadicalEntry.make(m, 4, 3) == ComplexRadicalEntry.make(m, 1, 3)


def test_complex_entry_real_phases_collapse():
    m = RadicalScalar.sqrt(2)
    assert ComplexRadicalEntry.make(m, 0, 5) == m
    assert ComplexRadicalEntry.make(m, 5, 5) == m
    assert ComplexRadicalEntry.make(m, 3, 6) == -m
    assert ComplexRadicalEntry.make(ZERO, 1, 3) == ZERO


def test_complex_entry_rejects_bad_order():
    with pytest.raises(DomainError):
        ComplexRadicalEntry.make(ONE, 1, 0)
    with pytest.raises(DomainError):
        ComplexRadicalEntry(ONE, 1, -2)


def test_complex_entry_numeric_value():
    entry = ComplexRadicalEntry.make(ONE, 1, 3)
    expected = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(complex(entry) - expected) < FLOAT_TOLERANCE
    assert entry_to_complex(entry) == complex(entry)


def test_complex_entry_abs_squared_is_exact():
    entry = ComplexRadicalEntry.make(RadicalScalar.sqrt(Fraction(5, 12)), 2, 3)
    assert entry.abs_squared() == Fraction(5, 12)
    assert entry_abs_squared(entry) == Fraction(5, 12)
    assert entry_abs_squared(-RadicalScalar.sqrt(3)) == 3


def test_to_float_refuses_complex_entries():
    entry = ComplexRadicalEntry.make(ONE, 1, 3)
    with pytest.raises(DomainError):
        to_float(entry)
    assert to_float(RadicalScalar.sqrt(2)) == pytest.approx(math.sqrt(2))
    assert entry_to_complex(RadicalScalar.sqrt(2)) == complex(math.sqrt(2), 0.0)


def assert_canonical(value):
    radicands = [r for r, _ in value.terms]
    assert radicands == sorted(set(radicands))
    assert all(r >= 1 and all(r % (d * d) for d in range(2, math.isqrt(r) + 1)) for r in radicands)
    assert all(isinstance(c, Fraction) and c != 0 for _, c in value.terms)
    assert value == RadicalScalar(value.terms)


@given(radical_scalars, radical_scalars, small_fractions)
@settings(max_examples=80, deadline=None)
def test_arithmetic_results_keep_the_canonical_form(a, b, q):
    results = [a + b, a - b, a * b, -a, a + q, q - a, a * q, RadicalScalar.from_rational(q)]
    results += [RadicalScalar.sqrt(abs(q)), RadicalScalar.sqrt(abs(q) * 72)]
    if a:
        results.append(a.inverse())
    for value in results:
        assert_canonical(value)


def test_split_and_smallest_prime_match_sieves_below_20000():
    """For every n < 20,000: the split is n = s*s*r with s the largest
    integer whose square divides n, and the first prime of _prime_powers
    (the pivot prime of inverse) is the smallest divisor above 1. Both
    references are sieves, not trial division."""
    limit = 20_000
    largest_root = [1] * limit
    for root in range(2, math.isqrt(limit - 1) + 1):
        for n in range(root * root, limit, root * root):
            largest_root[n] = root
    smallest_prime = list(range(limit))
    for d in range(2, math.isqrt(limit - 1) + 1):
        for n in range(d * d, limit, d):
            smallest_prime[n] = min(smallest_prime[n], d)
    split = _squarefree_split.__wrapped__  # the function itself, not its cache
    assert split(0) == (0, 0)
    for n in range(1, limit):
        root = largest_root[n]
        assert split(n) == (root, n // (root * root)), n
        if n > 1:
            assert next(_prime_powers(n))[0] == smallest_prime[n], n
