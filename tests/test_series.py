from fractions import Fraction

import pytest

from gramcalc.errors import InvalidRadicalWitness, NonUnitConstantTerm, ParseError
from gramcalc.families import family_poly, grammar
from gramcalc.laurent import LaurentPoly, parse_poly
from gramcalc.scalar import make_gaussian
from gramcalc.series import (
    RadicalPoint,
    TruncSeries,
    closed_form_series,
    compare_series,
    compose_poly_series,
    elementary_series,
)

X = LaurentPoly.variable("x")


def _scalars(series):
    return [c.constant_value() for c in series.coeffs]


def test_cos_coefficients():
    assert _scalars(elementary_series("cos", 4)) == [1, 0, -1, 0, 1]


def test_tan_tangent_numbers():
    assert _scalars(elementary_series("tan", 5)) == [0, 1, 0, 2, 0, 16]


def test_sec_secant_numbers():
    assert _scalars(elementary_series("sec", 6)) == [1, 0, 1, 0, 5, 0, 61]


def test_exp_with_polynomial_scale():
    series = elementary_series("exp", 2, parse_poly("y - x"))
    assert series.coeffs[0] == LaurentPoly.const(1)
    assert series.coeffs[1] == parse_poly("y - x")
    assert series.coeffs[2] == parse_poly("y - x") * parse_poly("y - x")


def test_log1p():
    series = elementary_series("log1p", 5)
    assert _scalars(series) == [0, 1, -1, 2, -6, 24]
    # log(e^t) = t
    exp_less_one = elementary_series("exp", 5) - TruncSeries.constant(1, 5)
    shifted = (TruncSeries.constant(1, 5) + exp_less_one).log()
    assert _scalars(shifted) == [0, 1, 0, 0, 0, 0]


def test_reciprocal_pair():
    product = elementary_series("cos", 8) * elementary_series("sec", 8)
    assert compare_series(product, TruncSeries.constant(1, 8)) == (True, None)


def test_division_matches_tan():
    quotient = elementary_series("sin", 8) / elementary_series("cos", 8)
    assert compare_series(quotient, elementary_series("tan", 8)) == (True, None)


def test_pythagorean_identities():
    n = 16
    sin, cos = elementary_series("sin", n), elementary_series("cos", n)
    sinh, cosh = elementary_series("sinh", n), elementary_series("cosh", n)
    one = TruncSeries.constant(1, n)
    assert compare_series(sin * sin + cos * cos, one) == (True, None)
    assert compare_series(cosh * cosh - sinh * sinh, one) == (True, None)
    assert compare_series(cos * elementary_series("sec", n), one) == (True, None)


def test_tan_derivative_seed_fact():
    tan = elementary_series("tan", 9)
    lhs = tan.d_dt()
    tan8 = tan.truncate(8)
    rhs = TruncSeries.constant(1, 8) + tan8 * tan8
    assert compare_series(lhs, rhs) == (True, None)


def test_exp_log_inverse():
    s = TruncSeries([LaurentPoly.const(1), parse_poly("x"), parse_poly("x^2 - 3"),
                     parse_poly("x + 1"), LaurentPoly.const(Fraction(2, 7))])
    assert compare_series(s.log().exp(), s) == (True, None)
    assert compare_series(s.integrate().d_dt(), s) == (True, None)


def test_log_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries([parse_poly("x"), parse_poly("x")]).log()
    with pytest.raises(NonUnitConstantTerm):
        TruncSeries([LaurentPoly.zero(), X]) / TruncSeries([LaurentPoly.zero(), X])


def test_division_by_a_gaussian_constant_term():
    c = make_gaussian(1, 2)
    b = TruncSeries([LaurentPoly.const(c), X, LaurentPoly.const(3)])
    a = TruncSeries([X, LaurentPoly.const(1), X * X])
    quotient = a / b
    assert quotient.coeffs[0] == X / c
    assert compare_series(quotient * b, a) == (True, None)


def test_pq_log_relation():
    order = 8
    gen_q = TruncSeries([family_poly("deriv_Q", n) for n in range(order + 1)])
    logged = gen_q.log()
    assert logged.coeffs[0].is_zero()
    for n in range(1, order + 1):
        assert logged.coeffs[n] == family_poly("deriv_P", n - 1)
    # differentiation recovers the tangent-family series
    gen_p = TruncSeries([family_poly("deriv_P", n) for n in range(order)])
    assert compare_series(logged.d_dt(), gen_p) == (True, None)


def test_compose_identity_polynomial():
    s = elementary_series("sin", 6)
    assert compare_series(compose_poly_series(X, s), s) == (True, None)


def test_compose_square_of_t():
    t_series = TruncSeries([LaurentPoly.zero(), LaurentPoly.const(1)] + [LaurentPoly.zero()] * 4)
    squared = compose_poly_series(X * X, t_series)
    assert _scalars(squared) == [0, 0, 2, 0, 0, 0]


def test_compose_ma_identity_instance():
    e = elementary_series("tan", 9) + elementary_series("sec", 9)
    lhs = compose_poly_series(family_poly("deriv_P", 1), e.truncate(8))
    rhs = e.d_dt() * 2
    assert compare_series(lhs, rhs) == (True, None)


def test_compose_rejects_multivariate():
    with pytest.raises(ValueError):
        compose_poly_series(parse_poly("x*y"), elementary_series("sin", 3))
    with pytest.raises(ValueError):
        compose_poly_series(parse_poly("x^-1"), elementary_series("sin", 3))


def test_compare_series_reports_index():
    sin, cos = elementary_series("sin", 5), elementary_series("cos", 5)
    assert compare_series(sin, sin) == (True, None)
    assert compare_series(cos, sin) == (False, 0)
    with pytest.raises(ValueError):
        compare_series(sin, elementary_series("sin", 4))


def test_gessel_closed_form():
    series = closed_form_series("gessel_L", 6)
    expected = family_poly("left_peak_uni", 6).evaluate({"x": Fraction(3, 4)})
    assert series.coeffs[6].constant_value() == expected


def test_bivariate_closed_form():
    series = closed_form_series("bivariate_L", 5)
    expected = family_poly("left_peak_biv", 5).evaluate({"x": 3, "y": 5})
    assert series.coeffs[5].constant_value() == expected
    assert expected == 3 * 5 ** 5 + 58 * 27 * 125 + 61 * 243 * 5


def test_hoffman_q_closed_form():
    series = closed_form_series("hoffman_Q", 4)
    assert series.coeffs[4] == parse_poly("5 + 28*x^2 + 24*x^4")


def test_hoffman_p_closed_form():
    series = closed_form_series("hoffman_P", 6)
    for n in range(7):
        assert series.coeffs[n] == family_poly("deriv_P", n)


def test_eulerian_closed_form():
    series = closed_form_series("eulerian_egf", 7)
    for n in range(8):
        assert series.coeffs[n] == family_poly("eulerian_biv", n)


def test_gen_vs_closed_form():
    g = grammar("eulerian")
    gen = g.gen_coeffs(LaurentPoly.variable("y", ("x", "y")), 8)
    closed = closed_form_series("eulerian_egf", 8)
    assert compare_series(gen, closed) == (True, None)


def test_radical_point_witness_validation():
    point = RadicalPoint(values={"x": Fraction(3, 4)}, witnesses={"1-x": Fraction(1, 2)})
    assert point.root("1-x", Fraction(1, 4)) == Fraction(1, 2)
    bad = RadicalPoint(values={"x": Fraction(3, 4)}, witnesses={"1-x": Fraction(1, 3)})
    with pytest.raises(InvalidRadicalWitness):
        bad.root("1-x", Fraction(1, 4))
    with pytest.raises(InvalidRadicalWitness):
        closed_form_series("gessel_L", 4, RadicalPoint(values={"x": Fraction(1, 3)}))


def test_series_json_roundtrip():
    series = closed_form_series("hoffman_P", 4)
    assert TruncSeries.from_json(series.to_json()) == series


_X_JSON = X.to_json()


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"order": 0}, id="no-coeffs"),
        pytest.param({"coeffs": [_X_JSON]}, id="no-order"),
        pytest.param({"order": 0, "coeffs": 3}, id="coeffs-not-a-list"),
        pytest.param({"order": "0", "coeffs": [_X_JSON]}, id="order-not-an-integer"),
        pytest.param([_X_JSON], id="list-payload"),
        pytest.param({"order": 5, "coeffs": [_X_JSON]}, id="order-above-the-coefficients"),
        pytest.param({"order": 0, "coeffs": [_X_JSON, _X_JSON]}, id="order-below-the-coefficients"),
        pytest.param({"order": -1, "coeffs": []}, id="no-coefficients"),
    ],
)
def test_series_from_json_refuses_malformed_payloads(payload):
    with pytest.raises(ParseError):
        TruncSeries.from_json(payload)
