"""Exact scalar layer: parsing, square-root brackets, quadratic surds."""

import math
import operator
import random
from fractions import Fraction

import pytest

from linkfold.rationals import (
    MAX_DECIMAL_EXPONENT,
    SqrtRational,
    exact_sqrt,
    format_rational,
    parse_rational,
    sqrt_lower_bound,
    sqrt_upper_bound,
)

F = Fraction


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational(" 7 / 2 ") == F(7, 2)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("-1.5e1") == F(-15)
    assert parse_rational("10") == F(10)


def test_parse_rational_rejects_garbage():
    for bad in ("1/0", "abc", "", "1/2/3", "0x10", "1.2.3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_exponent_cap():
    assert MAX_DECIMAL_EXPONENT == 4300
    assert parse_rational("1e4300") == 10**4300
    assert parse_rational("-2.5E-4300") == F(-25, 10**4301)
    assert parse_rational("3e+0004300") == 3 * 10**4300
    for bad in ("1e4301", "1e-4301", "1E+1000000", "2.5e00004301",
                "1e" + "9" * 10000):
        with pytest.raises(ValueError) as exc:
            parse_rational(bad)
        assert repr(bad) in str(exc.value)


def test_format_parse_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        f = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(f)) == f
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-6, 4)) == "-3/2"


def test_exact_sqrt():
    assert exact_sqrt(F(9, 4)) == F(3, 2)
    assert exact_sqrt(0) == 0
    assert exact_sqrt(F(2)) is None
    assert exact_sqrt(F(1, 3)) is None
    with pytest.raises(ValueError):
        exact_sqrt(F(-1))


def test_sqrt_bounds_bracket_exactly():
    # lower^2 <= v <= upper^2 is an exact certificate, no floats involved
    rng = random.Random(2)
    for _ in range(300):
        v = F(rng.randint(0, 10**6), rng.randint(1, 10**3))
        lo = sqrt_lower_bound(v)
        hi = sqrt_upper_bound(v)
        assert lo * lo <= v <= hi * hi
        assert hi - lo <= F(2, 10**12) * max(1, v.denominator)
    assert sqrt_lower_bound(F(9, 4)) == F(3, 2) == sqrt_upper_bound(F(9, 4))


def test_surd_normalization():
    a = SqrtRational(2, 8)
    b = SqrtRational(4, 2)
    assert a == b
    assert hash(a) == hash(b)
    z = SqrtRational(0, 7)
    assert z.is_zero and z.radicand == 0
    assert SqrtRational(3, 0).is_zero
    assert SqrtRational(5, F(9, 4)) == SqrtRational(F(15, 2))
    with pytest.raises(ValueError):
        SqrtRational(1, -2)


def test_surd_rational_detection():
    assert SqrtRational(F(3, 2)).is_rational
    assert SqrtRational(F(3, 2)).as_fraction() == F(3, 2)
    assert SqrtRational(2, 9).as_fraction() == 6
    irr = SqrtRational(1, 2)
    assert not irr.is_rational
    with pytest.raises(ValueError):
        irr.as_fraction()


def test_sqrt_rational_has_no_arithmetic():
    for name in ("__add__", "__sub__", "__neg__", "__abs__", "__mul__", "scale", "_normal"):
        assert not hasattr(SqrtRational, name), name
    r2 = SqrtRational(1, 2)
    for other in (r2, 1, F(3, 2)):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(r2, other)


def test_surd_equality_matches_float_oracle():
    rng = random.Random(3)
    pool = [
        SqrtRational(F(rng.randint(-20, 20), rng.randint(1, 5)),
                     rng.choice([1, 2, 3, 5, 7]))
        for _ in range(60)
    ]
    for a in pool:
        for b in pool:
            assert (a == b) == (abs(float(a) - float(b)) < 1e-9), (a, b)
            assert (a == b) == (a._key() == b._key())


def test_surd_mixed_comparisons():
    r2 = SqrtRational(1, 2)
    assert r2 != 1 and r2 != F(3, 2)
    assert SqrtRational(F(5, 2)) == F(5, 2)
    assert SqrtRational(-1, 2).sign() == -1
    assert SqrtRational(0).sign() == 0
    assert math.isclose(float(r2), math.sqrt(2))


def _random_coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:
        return rng.randint(-50, 50)
    if kind == 2:
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    return F(rng.randint(-10**400, 10**400), rng.randint(1, 10**400))


def _random_radicand(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(0, 30) ** 2  # square, D = 1
    if kind == 1:
        return F(rng.randint(1, 10**6) ** 2, rng.randint(1, 10**6) ** 2)
    if kind == 2:
        return F(rng.randint(0, 100))
    if kind == 3:
        return F(rng.randint(1, 10**6), rng.randint(1, 10**6))
    if kind == 4:
        return F(rng.randint(1, 10**400), rng.randint(1, 10**400))
    return F(rng.randint(1, 10**200) ** 2, rng.randint(1, 10**200) ** 2)


def test_surd_constructor_folds_whole_squares_only():
    # fields are Fractions; zero is (0, 0); a radicand that is a perfect
    # square as a whole folds into the coefficient, any other is kept
    rng = random.Random(5)
    folded = 0
    for _ in range(3000):
        c, r = _random_coeff(rng), F(_random_radicand(rng))
        v = SqrtRational(c, r)
        assert type(v.coeff) is type(v.radicand) is Fraction
        square = all(math.isqrt(k) ** 2 == k for k in (r.numerator, r.denominator))
        if not c or not r:
            assert (v.coeff, v.radicand) == (0, 0)
        elif square:
            folded += 1
            assert v.radicand == 1 and v.coeff**2 == c**2 * r and v.sign() * c > 0
        else:
            assert (v.coeff, v.radicand) == (c, r)
    assert 300 < folded < 2700


def test_surd_equality_and_hash_follow_the_key():
    rng = random.Random(6)
    pool = [SqrtRational(0), SqrtRational(2, 8), SqrtRational(4, 2),
            SqrtRational(-4, 2), SqrtRational(-2, 8), SqrtRational(6, 1),
            SqrtRational(2, 9), SqrtRational(F(1, 2), F(8, 9))]
    for _ in range(30):
        # a few radicands, so equal radicands and equal values with
        # other fields (c sqrt(k^2 r) against c k sqrt(r)) both occur
        r, k = rng.choice([1, 2, 3, 12, F(2, 9), F(5, 7)]), rng.randint(1, 3)
        c = F(rng.randint(-6, 6), rng.randint(1, 3))
        pool += [SqrtRational(c, r), SqrtRational(c, r * k * k), SqrtRational(c * k, r)]
    same_radicand = equal = 0
    for a in pool:
        for b in pool:
            assert (a == b) == (a._key() == b._key()), (a, b)
            assert (a != b) == (a._key() != b._key()), (a, b)
            if a == b:
                assert hash(a) == hash(b)
                equal += a.radicand != b.radicand
            same_radicand += a.radicand == b.radicand and a.coeff != b.coeff
            assert a.sign() == a._key()[0]
    assert equal > 50 and same_radicand > 500, (equal, same_radicand)
