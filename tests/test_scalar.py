from fractions import Fraction

import pytest
from hypothesis import given

from gramcalc.errors import DivisionByZero, ParseError
from gramcalc.scalar import (
    GaussianRational,
    I,
    as_scalar,
    exact_sqrt,
    make_gaussian,
    parse_scalar,
    render_scalar,
    scalar_from_json,
    scalar_to_json,
)

from conftest import scalars


def test_zero_imaginary_collapses_to_fraction():
    value = make_gaussian(Fraction(3, 4), 0)
    assert isinstance(value, Fraction)
    assert value == Fraction(3, 4)
    # arithmetic that lands on the real axis collapses too
    assert I * I == Fraction(-1)
    assert isinstance(I * I, Fraction)
    assert (1 + I) * (1 - I) == 2


def test_gaussian_arithmetic():
    assert (1 + I) ** 2 == 2 * I
    assert (2 + I) * (2 - I) == 5
    assert (1 + I) / (1 - I) == I
    assert I ** 3 == -I
    assert I ** -1 == -I
    assert (make_gaussian(1, 2)).conjugate() == make_gaussian(1, -2)
    assert 1 / make_gaussian(0, 2) == make_gaussian(0, Fraction(-1, 2))


def test_mixed_comparisons():
    assert make_gaussian(2, 1) != 2
    assert make_gaussian(2, 1) - I == 2
    assert hash(make_gaussian(1, 2)) == hash(make_gaussian(1, 2))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        make_gaussian(1, 1) / 0


def test_render_parse_roundtrip():
    for value in (Fraction(3, 4), Fraction(-2), make_gaussian(1, 2),
                  make_gaussian(Fraction(-1, 2), Fraction(3, 7)), make_gaussian(0, -1)):
        assert parse_scalar(render_scalar(value)) == value


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("not-a-number")


@pytest.mark.parametrize("read", [parse_scalar, as_scalar])
@pytest.mark.parametrize("text", ["1e5", " 2E-3 ", "1e300000"])
def test_exponent_notation_is_a_parse_error(read, text):
    # as in the JSON readers: "1e300000" would build a 996,579-bit int first
    with pytest.raises(ParseError, match="exponent notation"):
        read(text)


def test_rational_literals_still_read():
    assert [parse_scalar(t) for t in ("3/4", " 0.5 ", "-2")] == [Fraction(3, 4), Fraction(1, 2), -2]


@pytest.mark.parametrize("read", [parse_scalar, as_scalar])
@pytest.mark.parametrize("text", ["(1+1/0*i)", "(1/0+2*i)", " (0/0-1*i) "])
def test_zero_denominator_in_a_gaussian_literal_is_a_parse_error(read, text):
    with pytest.raises(ParseError, match="bad scalar"):
        read(text)


def test_json_roundtrip():
    for value in (Fraction(5, 3), make_gaussian(1, -2)):
        assert scalar_from_json(scalar_to_json(value)) == value
    assert scalar_to_json(Fraction(2)) == "2"
    assert scalar_to_json(make_gaussian(0, 1)) == {"re": "0", "im": "1"}


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-4)) is None


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_inverses(a):
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a if isinstance(a, Fraction) else a.inverse()) == 1


def test_gaussian_rational_refuses_zero_imaginary_part():
    # a real value is a Fraction (make_gaussian); a GaussianRational equal to
    # 2 would compare unequal to 2
    with pytest.raises(ValueError):
        GaussianRational(Fraction(2), Fraction(0))
    assert make_gaussian(2, 0) == 2


def test_gaussian_subtraction_and_division():
    a, b = make_gaussian(1, 2), make_gaussian(Fraction(-3, 4), 5)
    assert a - b == make_gaussian(Fraction(7, 4), -3)
    assert a - a == 0 and isinstance(a - a, Fraction)
    assert 3 - a == make_gaussian(2, -2)
    assert a - 1 == make_gaussian(0, 2)
    assert a / b * b == a
    assert a / a == 1 and isinstance(a / a, Fraction)
    assert a / Fraction(1, 2) == make_gaussian(2, 4)
    with pytest.raises(DivisionByZero):
        a / 0


@pytest.mark.parametrize(
    "payload",
    [True, False, 1.5, None, "1/0", "abc", {"re": "1"}, {"im": "1"}, {"re": True, "im": "1"}, {"re": "1", "im": "1/0"},
     "1e10000000", "2E3"],
)
def test_scalar_from_json_refuses_what_to_json_never_writes(payload):
    with pytest.raises(ParseError):
        scalar_from_json(payload)
