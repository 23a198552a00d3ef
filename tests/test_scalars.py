from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from planar_holant.scalars import (MixedExtensionError, NegativeRadicandError,
                                   QuadExt, as_fraction, format_scalar,
                                   parse_scalar, sqrt_exact, to_float)


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))


def test_sqrt_perfect_square():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(0) == 0
    assert sqrt_exact(Fraction(49)) == 7


def test_sqrt_irrational():
    r = sqrt_exact(Fraction(8))
    assert isinstance(r, QuadExt)
    assert r * r == 8
    assert r.d == 2  # square-free part extracted


def test_sqrt_of_fraction():
    r = sqrt_exact(Fraction(2, 3))
    assert r * r == Fraction(2, 3)


def test_negative_radicand_rejected():
    with pytest.raises(NegativeRadicandError):
        sqrt_exact(Fraction(-1))


def test_mixed_extensions_rejected():
    with pytest.raises(MixedExtensionError):
        sqrt_exact(2) + sqrt_exact(3)


@given(rationals, rationals, rationals, rationals)
def test_field_axioms_in_extension(a, b, c, d):
    x = QuadExt(a, b, 5)
    y = QuadExt(c, d, 5)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y != 0:
        assert (x / y) * y == x


@given(rationals, rationals)
def test_ordering_matches_float(a, b):
    x = QuadExt(a, b, 7)
    if x != 0:
        assert (x > 0) == (to_float(x) > 0)


def test_pow():
    r = sqrt_exact(Fraction(5))
    assert r ** 4 == 25
    assert (1 + r) ** 2 == 6 + 2 * r


def test_serialization_roundtrip():
    for v in (Fraction(3, 7), Fraction(-2), QuadExt(Fraction(1, 2), Fraction(3), 5)):
        assert parse_scalar(format_scalar(v)) == v


@pytest.mark.parametrize("s", ["1/0", "-3/0", {"a": "1", "b": "2/0", "d": "2"}])
def test_zero_denominator_is_a_value_error(s):
    with pytest.raises(ValueError, match=r"^a scalar cannot have a zero "
                                         r"denominator: -?\d/0$"):
        parse_scalar(s)


def test_float_is_refused_and_decimal_text_is_exact():
    # a float has been through a binary double (json.loads of 1e-400 gives
    # 0.0); decimal text never has
    for x in (1e-400, 0.5, 2.0):
        with pytest.raises(ValueError, match=r"^a scalar cannot be a JSON float"):
            parse_scalar(x)
    with pytest.raises(ValueError, match="JSON float"):
        parse_scalar({"a": 0.5, "b": "1", "d": "2"})
    assert parse_scalar("1e-400") == Fraction(1, 10 ** 400)
    assert parse_scalar("0.1") == Fraction(1, 10)


def test_as_fraction():
    assert as_fraction(QuadExt(Fraction(2), Fraction(0), 3)) == 2
    with pytest.raises(ValueError):
        as_fraction(sqrt_exact(2))
