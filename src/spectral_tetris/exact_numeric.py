"""Exact arithmetic for sums of rational multiples of square roots.

Every real entry of a synthesis matrix produced here has the form
c_1*sqrt(d_1) + ... + c_k*sqrt(d_k) with rational c_i and distinct
squarefree positive integers d_i.  That class is closed under addition
and multiplication, and (less obviously) under division, so Gram
products and matrix ranks can be checked with zero tolerance.

Canonical-term invariant: a RadicalScalar's terms are sorted by radicand,
every radicand is a squarefree positive integer appearing once, and no
coefficient is zero. The public constructor establishes it by splitting
every radicand, because its input is untrusted. The arithmetic keeps it
without re-splitting: negation, sums and the conjugation steps of inverse
only regroup radicands that are already squarefree, and for squarefree r1,
r2 with g = gcd(r1, r2) the product radicand (r1/g)*(r2/g) is squarefree
again. Those results are built by _collect, which merges equal radicands
and drops zero coefficients but never factors. sqrt splits p*q once and
wraps the single squarefree term directly. The split is memoized in a
bounded cache. The split and the pivot prime of inverse come from one
trial-division routine, _prime_powers. The JSON decoder memoizes whole
entries in a bounded cache keyed on their integer terms, so a document
builds each distinct entry once; terms that are already canonical
(radicands increasing, each squarefree by the cached split, coefficients
nonzero) are wrapped directly instead of passing through the constructor.

Complex entries only arise on the DFT path and are kept as a
nonnegative modulus together with a root of unity; no cyclotomic
arithmetic is attempted beyond phase canonicalization.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Tuple, Union

from .errors import DomainError

Rational = Fraction

RationalLike = Union[int, Fraction]


def _prime_powers(n: int) -> Iterator[Tuple[int, int]]:
    """(p, e) for each prime p dividing n >= 1, p**e exactly dividing n, in
    increasing p, by trial division by 2 and the odd numbers. The first pair
    costs only the divisions up to the smallest prime."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


@functools.lru_cache(maxsize=4096)
def _squarefree_split(n: int) -> Tuple[int, int]:
    """Return (s, r) with n = s*s*r and r squarefree, by trial division.

    Memoized with a fixed size: the same few radicands recur in every
    matrix and every decoded document.
    """
    if n < 0:
        raise DomainError(f"cannot split negative integer {n}")
    if n == 0:
        return 0, 0
    s, r = 1, 1
    for p, e in _prime_powers(n):
        s *= p ** (e // 2)
        if e % 2:
            r *= p
    return s, r


class RadicalScalar:
    """Immutable exact real: a finite sum of terms coefficient*sqrt(radicand).

    Radicands are distinct squarefree positive integers; radicand 1 holds the
    rational part; no stored coefficient is zero; the empty sum is 0.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Tuple[int, RationalLike]] = ()):
        combined: dict[int, Fraction] = {}
        for radicand, coeff in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if radicand < 1:
                raise DomainError(f"radicand {radicand} is not a positive integer")
            s, r = _squarefree_split(radicand)
            c = combined.get(r, Fraction(0)) + coeff * s
            if c:
                combined[r] = c
            else:
                combined.pop(r, None)
        self._terms = tuple(sorted(combined.items()))

    @classmethod
    def _canonical(cls, terms: Tuple[Tuple[int, Fraction], ...]) -> "RadicalScalar":
        """Wrap terms that already satisfy the canonical-term invariant, unchecked."""
        value = object.__new__(cls)
        value._terms = terms
        return value

    @classmethod
    def from_rational(cls, value: RationalLike) -> "RadicalScalar":
        value = Fraction(value)
        return cls._canonical(((1, value),) if value else ())

    @classmethod
    def sqrt(cls, value: RationalLike) -> "RadicalScalar":
        """Exact square root of a nonnegative rational."""
        value = Fraction(value)
        if value < 0:
            raise DomainError(f"square root of negative rational {value}")
        return _sqrt_ratio(value.numerator, value.denominator)

    @property
    def terms(self) -> Tuple[Tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, sorted by radicand."""
        return self._terms

    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self._terms)

    def rational_part(self) -> Fraction:
        """The rational value, if is_rational(); raises otherwise."""
        if not self.is_rational():
            raise DomainError(f"{self!r} is irrational")
        return self._terms[0][1] if self._terms else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, RadicalScalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == RadicalScalar.from_rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar._canonical(tuple((r, -c) for r, c in self._terms))

    def _coerce(self, other) -> "RadicalScalar":
        if isinstance(other, RadicalScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalScalar.from_rational(other)
        raise TypeError(f"cannot combine RadicalScalar with {type(other).__name__}")

    def __add__(self, other) -> "RadicalScalar":
        other = self._coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        return _collect(self._terms + other._terms)

    __radd__ = __add__

    def __sub__(self, other) -> "RadicalScalar":
        other = self._coerce(other)
        return _collect(self._terms + tuple((r, -c) for r, c in other._terms))

    def __rsub__(self, other) -> "RadicalScalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RadicalScalar":
        other = self._coerce(other)
        out = []
        for r1, c1 in self._terms:
            for r2, c2 in other._terms:
                g = math.gcd(r1, r2)
                # sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)), the product squarefree
                out.append(((r1 // g) * (r2 // g), c1 * c2 * g))
        return _collect(out)

    __rmul__ = __mul__

    def inverse(self) -> "RadicalScalar":
        """Exact multiplicative inverse.

        Rationalizes by conjugating over one prime at a time: split the sum as
        A + sqrt(p)*B with p dividing some radicand, multiply by A - sqrt(p)*B,
        and recurse on the (strictly simpler) denominator.  Square roots of
        distinct squarefree integers are linearly independent over the
        rationals, so a nonzero canonical form never conjugates to zero.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero RadicalScalar")
        if self.is_rational():
            return RadicalScalar.from_rational(1 / self._terms[0][1])
        # the smallest prime dividing any radicand > 1
        p = min(next(_prime_powers(r))[0] for r, _ in self._terms if r > 1)
        # dividing the radicands that p divides by p keeps them squarefree,
        # distinct and in order, so both halves are canonical as they stand
        plain = RadicalScalar._canonical(
            tuple((r, c) for r, c in self._terms if r % p != 0)
        )
        attached = RadicalScalar._canonical(
            tuple((r // p, c) for r, c in self._terms if r % p == 0)
        )
        conjugate = plain - RadicalScalar._canonical(((p, Fraction(1)),)) * attached
        denom = plain * plain - attached * attached * p
        return conjugate * denom.inverse()

    def __truediv__(self, other) -> "RadicalScalar":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "RadicalScalar":
        return self._coerce(other) * self.inverse()

    def __float__(self) -> float:
        return sum((float(c) * math.sqrt(r) for r, c in self._terms), 0.0)

    def __repr__(self) -> str:
        if not self._terms:
            return "RadicalScalar(0)"
        parts = []
        for r, c in self._terms:
            parts.append(str(c) if r == 1 else f"{c}*sqrt({r})")
        return f"RadicalScalar({' + '.join(parts)})"


def _collect(terms: Iterable[Tuple[int, Fraction]]) -> RadicalScalar:
    """Canonical sum of terms whose radicands are already squarefree.

    Equal radicands are merged and zero coefficients dropped; nothing is
    factored, so a radicand that is not squarefree would break the invariant.
    """
    combined: dict[int, Fraction] = {}
    for radicand, coeff in terms:
        if radicand in combined:
            combined[radicand] += coeff
        else:
            combined[radicand] = coeff
    return RadicalScalar._canonical(tuple(sorted(item for item in combined.items() if item[1])))


ZERO = RadicalScalar()
ONE = RadicalScalar.from_rational(1)


def _sqrt_ratio(numerator: int, denominator: int) -> RadicalScalar:
    """sqrt(numerator/denominator) for ints of a nonnegative, defined ratio.

    The signs are normalized and the ratio reduced by one gcd to p/q; then
    sqrt(p/q) = sqrt(p*q)/q, split by the memoized _squarefree_split. Unchecked:
    a negative ratio is the caller's error.
    """
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    if not numerator:
        return ZERO
    g = math.gcd(numerator, denominator)
    s, r = _squarefree_split((numerator // g) * (denominator // g))
    return RadicalScalar._canonical(((r, Fraction(s, denominator // g)),))


class ComplexRadicalEntry:
    """A DFT-path entry: nonnegative modulus times a root of unity.

    value = modulus * exp(2*pi*i * root_exponent / root_order), with the
    exponent reduced modulo the order and the fraction in lowest terms.
    Instances only exist for genuinely complex phases; construction collapses
    order 1 to +modulus and order 2 to -modulus, both plain RadicalScalars.
    """

    __slots__ = ("modulus", "root_exponent", "root_order")

    def __init__(self, modulus: RadicalScalar, root_exponent: int, root_order: int):
        if root_order < 1:
            raise DomainError(f"root order {root_order} must be positive")
        self.modulus = modulus
        self.root_exponent = root_exponent % root_order
        self.root_order = root_order

    @staticmethod
    def make(modulus: RadicalScalar, root_exponent: int, root_order: int):
        """Canonical entry: a RadicalScalar when the phase is real, else complex."""
        if root_order < 1:
            raise DomainError(f"root order {root_order} must be positive")
        if not modulus:
            return ZERO
        exponent = root_exponent % root_order
        g = math.gcd(exponent, root_order) if exponent else root_order
        exponent //= g
        order = root_order // g
        if order == 1:
            return modulus
        if order == 2:
            return -modulus
        return ComplexRadicalEntry(modulus, exponent, order)

    def __eq__(self, other) -> bool:
        if isinstance(other, ComplexRadicalEntry):
            return (
                self.modulus == other.modulus
                and self.root_exponent == other.root_exponent
                and self.root_order == other.root_order
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.modulus, self.root_exponent, self.root_order))

    def __complex__(self) -> complex:
        phase = 2.0 * math.pi * self.root_exponent / self.root_order
        return float(self.modulus) * complex(math.cos(phase), math.sin(phase))

    def abs_squared(self) -> RadicalScalar:
        return self.modulus * self.modulus

    def __repr__(self) -> str:
        return (
            f"ComplexRadicalEntry({self.modulus!r}, "
            f"{self.root_exponent}/{self.root_order})"
        )


MatrixEntry = Union[RadicalScalar, ComplexRadicalEntry]


def to_float(a: MatrixEntry) -> float:
    """Nearest float64 to an exact real entry (complex entries refuse)."""
    if isinstance(a, ComplexRadicalEntry):
        raise DomainError("entry is complex; use complex() instead")
    return float(a)


def entry_to_complex(a: MatrixEntry) -> complex:
    """Nearest complex128 to any matrix entry."""
    if isinstance(a, ComplexRadicalEntry):
        return complex(a)
    return complex(float(a), 0.0)


def entry_abs_squared(a: MatrixEntry) -> RadicalScalar:
    """Exact |a|^2 for either entry kind."""
    if isinstance(a, ComplexRadicalEntry):
        return a.abs_squared()
    return a * a
