"""Exact rational scalars and quadratic surds.

Every length-like quantity in the package is either a Fraction or a
SqrtRational (a rational multiple of one square root). Keeping the
radicand explicit lets an overlap length on a line whose direction has
no rational length be printed, compared and read back exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

_DEC_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
_FRAC_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")

# CPython's default cap on int-string digits; 10**e costs time and memory
# that grow with e, so a larger decimal exponent is refused up front
MAX_DECIMAL_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a decimal string into an exact Fraction.

    Decimal exponents are limited to |e| <= MAX_DECIMAL_EXPONENT.
    """
    s = text.strip()
    m = _FRAC_RE.match(s)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    m = _DEC_RE.match(s)
    if m:
        digits = (m.group(3) or "e0")[1:].lstrip("+-").lstrip("0") or "0"
        # the length test keeps int() off a huge digit string
        if len(digits) > 4 or int(digits) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent of magnitude above {MAX_DECIMAL_EXPONENT} "
                f"in {text!r}"
            )
        return Fraction(s)
    raise ValueError(f"not a rational literal: {text!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: integer or 'p/q' in lowest terms."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def exact_sqrt(value: Scalar) -> Fraction | None:
    """Square root of a nonnegative rational, if it is itself rational."""
    f = value if type(value) is Fraction else Fraction(value)
    n, d = f.numerator, f.denominator
    if n < 0:
        raise ValueError("negative radicand")
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# the square-root bounds are within 1/SQRT_SCALE of the root
SQRT_SCALE = 10**12


def sqrt_lower_bound(value: Scalar) -> Fraction:
    """Rational r with r <= sqrt(value), exact when sqrt(value) is rational."""
    f = Fraction(value)
    if f < 0:
        raise ValueError("negative radicand")
    root = exact_sqrt(f)
    if root is not None:
        return root
    # isqrt(n*d*S^2) / (d*S) <= sqrt(n/d), off by at most 1/(d*S)
    n, d = f.numerator, f.denominator
    return Fraction(math.isqrt(n * d * SQRT_SCALE**2), d * SQRT_SCALE)


def sqrt_upper_bound(value: Scalar) -> Fraction:
    """Rational r with r >= sqrt(value), exact when sqrt(value) is rational."""
    f = Fraction(value)
    if f < 0:
        raise ValueError("negative radicand")
    root = exact_sqrt(f)
    if root is not None:
        return root
    n, d = f.numerator, f.denominator
    return Fraction(math.isqrt(n * d * SQRT_SCALE**2) + 1, d * SQRT_SCALE)


@dataclass(frozen=True)
class SqrtRational:
    """Exact value coeff * sqrt(radicand) with rational coeff, radicand >= 0.

    Normalization folds a radicand that is a perfect square as a whole
    into the coefficient (radicand 1) and keeps any other radicand as
    given. Equality and hashing go by value, so 2*sqrt(8) and 4*sqrt(2)
    compare equal and hash alike, yet keep their own fields and print
    differently. Zero is always stored as (0, 0). The class carries no
    arithmetic: the library decides signs and magnitudes on integers and
    builds a SqrtRational only to print or return a value.
    """

    coeff: Fraction
    radicand: Fraction

    def __init__(self, coeff: Scalar, radicand: Scalar = 1) -> None:
        c = coeff if type(coeff) is Fraction else Fraction(coeff)
        r = radicand if type(radicand) is Fraction else Fraction(radicand)
        if r.numerator < 0:
            raise ValueError("negative radicand")
        if not c or not r:
            c, r = Fraction(0), Fraction(0)
        elif (root := exact_sqrt(r)) is not None:
            c, r = c * root, Fraction(1)
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "radicand", r)

    # (sign, signed square) identifies the value across representations
    def _key(self) -> tuple[int, Fraction]:
        s = (self.coeff > 0) - (self.coeff < 0)
        return s, s * self.coeff * self.coeff * (self.radicand or 1)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def is_rational(self) -> bool:
        return self.radicand <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def sign(self) -> int:
        n = self.coeff.numerator
        return (n > 0) - (n < 0)

    def __float__(self) -> float:
        return float(self.coeff) * math.sqrt(float(self.radicand or 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SqrtRational):
            # zero is (0, 0), so equal radicands compare by coefficient
            if self.radicand == other.radicand:
                return self.coeff == other.coeff
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self._key() == SqrtRational(other)._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("SqrtRational", *self._key()))

    def __repr__(self) -> str:
        if self.is_rational:
            return f"SqrtRational({format_rational(self.coeff)})"
        return (
            f"SqrtRational({format_rational(self.coeff)}"
            f"*sqrt({format_rational(self.radicand)}))"
        )
