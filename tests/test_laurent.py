import sys
import time
from fractions import Fraction

import pytest

from gramcalc.errors import (
    DivisionByZero,
    ExponentOverflow,
    InsufficientClearing,
    NonInvertibleSubstitution,
    ParseError,
)
from gramcalc.laurent import (
    _PRIMES,
    LaurentPoly,
    RationalFunction,
    parse_poly,
    substitute_rational,
)
from gramcalc.scalar import make_gaussian

X = LaurentPoly.variable("x")
Y = LaurentPoly.variable("y")


def test_binomial_square():
    assert (X + Y) * (X + Y) == parse_poly("x^2 + 2*x*y + y^2")


def test_additive_identity():
    f = parse_poly("3*x^2 - y + 7")
    assert f + LaurentPoly.zero() == f


def test_descent_step():
    # multiplying the two seeds gives the n=2 bivariate descent polynomial
    assert (X * Y) * (X + Y) == parse_poly("x^2*y + x*y^2")


def test_partial_derivative_power_rule():
    assert parse_poly("x^2*y").partial_derivative("x") == parse_poly("2*x*y")
    assert parse_poly("x^-1").partial_derivative("x") == parse_poly("-1*x^-2")


def test_partial_derivative_table_row():
    p5 = parse_poly("16 + 136*x^2 + 240*x^4 + 120*x^6")
    assert p5.partial_derivative("x") == parse_poly("272*x + 960*x^3 + 720*x^5")


def test_substitute_binary_tree_to_descent():
    d2 = parse_poly("2*u*v")
    image = d2.substitute({"u": X * Y, "v": parse_poly("1/2*x + 1/2*y")})
    assert image == parse_poly("x*y^2 + x^2*y")


def test_substitute_identity_map():
    f = parse_poly("x^2*y^-1 + 3")
    assert f.substitute({"x": X, "y": Y}) == f
    assert f.substitute({}) == f


def test_substitute_negative_exponent_needs_monomial():
    with pytest.raises(NonInvertibleSubstitution):
        parse_poly("x^-1").substitute({"x": X + Y})
    # a monomial image is fine
    assert parse_poly("x^-1").substitute({"x": 2 * Y}) == parse_poly("1/2*y^-1")


def test_substitute_rational_clearing():
    value = RationalFunction(parse_poly("4*x"), parse_poly("1 + 2*x + x^2"))
    one_plus_x = parse_poly("1 + x")
    l2 = parse_poly("1 + x")
    assert substitute_rational(l2, "x", value, 2, clear=one_plus_x) == parse_poly(
        "1 + 6*x + x^2"
    )
    m2 = LaurentPoly.const(2, ("x",))
    assert substitute_rational(m2, "x", value, 1, clear=one_plus_x) == parse_poly(
        "2 + 2*x"
    )


def test_substitute_rational_insufficient_clearing():
    value = RationalFunction(parse_poly("4*x"), parse_poly("1 + 2*x + x^2"))
    with pytest.raises(InsufficientClearing):
        substitute_rational(parse_poly("1 + x"), "x", value, 1, clear=parse_poly("1 + x"))


def test_evaluate_gaussian():
    a3 = parse_poly("x + 4*x^2 + x^3")
    assert a3.evaluate({"x": make_gaussian(0, 1)}) == Fraction(-4)


def test_evaluate_all_ones_is_coefficient_sum():
    f = parse_poly("3*x^2*y^-1 - 5*x + 7")
    assert f.evaluate({"x": 1, "y": 1}) == 5


def test_evaluate_p4_at_one():
    p4 = parse_poly("16*x + 40*x^3 + 24*x^5")
    assert p4.evaluate({"x": 1}) == 80


def test_evaluate_zero_negative_exponent():
    with pytest.raises(DivisionByZero):
        parse_poly("x^-1").evaluate({"x": 0})


def test_render_canonical_order():
    assert parse_poly("x*y^2 + x^2*y").render() == "x^2*y + x*y^2"
    assert parse_poly("2 + 8*x^2 + 6*x^4").render() == "6*x^4 + 8*x^2 + 2"
    assert LaurentPoly.zero().render() == "0"


def test_parse_laurent_monomial():
    p = parse_poly("x^-1")
    assert p.min_degree_in("x") == -1
    assert p * X == LaurentPoly.const(1)


def test_json_schema_instance():
    two_uv = parse_poly("2*u*v")
    assert two_uv.to_json() == {
        "vars": ["u", "v"],
        "terms": [{"coeff": "2", "exps": [1, 1]}],
    }
    assert LaurentPoly.from_json(two_uv.to_json()) == two_uv


def test_json_gaussian_coefficient():
    poly = LaurentPoly(("x",), {(1,): make_gaussian(1, -2)})
    payload = poly.to_json()
    assert payload["terms"][0]["coeff"] == {"re": "1", "im": "-2"}
    assert LaurentPoly.from_json(payload) == poly


@pytest.mark.parametrize(
    "payload",
    [
        {"vars": ["x"], "terms": [{"coeff": "1", "exps": [1.5]}]},
        {"vars": ["x"], "terms": [{"coeff": "1", "exps": [True]}]},
        {"vars": ["x"], "terms": [{"coeff": "1", "exps": ["1"]}]},
        {"terms": [{"coeff": "1", "exps": [1]}]},
        {"vars": ["x"]},
        {"vars": ["x"], "terms": [{"coeff": "1"}]},
        {"vars": ["x"], "terms": [{"exps": [1]}]},
        {"vars": ["x"], "terms": [{"coeff": "1/0", "exps": [1]}]},
        {"vars": ["x"], "terms": [{"coeff": "1", "exps": [1, 2]}]},
        {"vars": ["x"], "terms": [{"coeff": "1", "exps": []}]},
        5,
        {"vars": ["x", "x"], "terms": []},
        {"vars": [["x"]], "terms": []},
        {"vars": [1], "terms": [{"coeff": "1", "exps": [1]}]},
    ],
)
def test_from_json_refuses_malformed_payloads(payload):
    with pytest.raises(ParseError):
        LaurentPoly.from_json(payload)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x + + y")
    assert info.value.position == 4


@pytest.mark.parametrize(
    "text, position",
    [
        ("x^²", 2),  # a digit that str.isdigit accepts and int() does not
        ("²*x", 0),
        ("x + 1²", 5),
        ("(1/0+1*i)*x", 0),
        ("x + (1+1/0*i)", 4),
        ("x + (3)", 4),  # a malformed parenthesised factor, at its own position
        ("x*((1+1*i))", 2),
        ("y - (1+2*i", 4),
    ],
)
def test_malformed_text_raises_parse_error(text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert info.value.position == position


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int() digit limit")
def test_digit_string_longer_than_int_reads_is_a_parse_error():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for text, position in ((digits, 0), (f"x + 2/{digits}", 4), (f"x^{digits}", 0), (f"({digits}+1*i)", 0)):
        with pytest.raises(ParseError, match="digits") as info:
            parse_poly(text)
        assert info.value.position == position


def test_parse_keeps_table_and_stored_order():
    # names in order of first appearance, x^0 and cancelled terms included
    p = parse_poly("0*q + x^0*w^-1*w + a - a")
    assert p.vars == ("q", "x", "w", "a") and p == LaurentPoly.const(1)
    # a monomial that cancels and returns goes last, as with one + per term
    p = parse_poly("x - x + 2*y + x - 1/2*y")
    assert p.vars == ("x", "y") and p.den == 2
    assert list(p.nums.items()) == [((0, 1), 3), ((1, 0), 2)]
    assert parse_poly("(1+2*i)*x*(0-1*i)*3/4 + y").terms == {
        (1, 0): make_gaussian(Fraction(3, 2), Fraction(-3, 4)),
        (0, 1): Fraction(1),
    }


def test_division_by_a_gaussian_scalar_or_monomial():
    c = make_gaussian(1, 2)
    p = parse_poly("(3+4*i)*x^2 + y")
    assert (p / c).terms == {(2, 0): make_gaussian(Fraction(11, 5), Fraction(-2, 5)),
                             (0, 1): make_gaussian(Fraction(1, 5), Fraction(-2, 5))}
    assert p / c * c == p
    m = parse_poly("(1+2*i)*x^2*y^-1")
    assert m.monomial_inverse().render() == "(1/5-2/5*i)*x^-2*y"
    assert m * m.monomial_inverse() == LaurentPoly.const(1)
    assert (m ** -2) * m * m == LaurentPoly.const(1)


def test_parse_signs_and_fractions():
    assert parse_poly("-x + 1") == LaurentPoly.const(1) - X
    assert parse_poly("3/4*x - 1/2") == Fraction(3, 4) * X - Fraction(1, 2)
    assert parse_poly("(0+1*i)*x") == LaurentPoly(("x",), {(1,): make_gaussian(0, 1)})


def test_exact_divide():
    product = parse_poly("x^2 - y^2")
    assert product.exact_divide(X - Y) == X + Y
    assert product.exact_divide(X + Y) == X - Y
    with pytest.raises(InsufficientClearing):
        product.exact_divide(X + LaurentPoly.const(1))
    # Laurent content handled
    assert parse_poly("x^-1 + 1").exact_divide(parse_poly("1 + x")) == parse_poly("x^-1")
    with pytest.raises(DivisionByZero):
        X.exact_divide(LaurentPoly.zero())


def test_exact_divide_term_out_of_range_is_a_remainder():
    # the quotient x^(2^20-1) passes the low-bound check, but its product
    # with the divisor's x leaves the field range
    with pytest.raises(InsufficientClearing):
        parse_poly(f"x^{2**20 - 1}*y^3 + 1").exact_divide(parse_poly("y^3 + x"))


def test_inexact_division_is_refused_without_growing_the_remainder():
    # the exact walk alone takes 65,536 steps here, the k-th coefficient
    # about 3^k, which took seconds; mod p the coefficients stay word-size
    start = time.perf_counter()
    with pytest.raises(InsufficientClearing):
        parse_poly("x^-65536 + 1").exact_divide(parse_poly("x + 3"))
    assert time.perf_counter() - start < 1


def test_inexact_gaussian_division_is_refused_mod_p():
    # i goes to a square root of -1 mod each prime, so a Gaussian division
    # walks mod p first as well; the exact walk alone took about 8 s here
    divisor = parse_poly("(2+1*i)*x + 3")
    start = time.perf_counter()
    with pytest.raises(InsufficientClearing):
        parse_poly("(2+1*i)*x^-4096 + (2+1*i)").exact_divide(divisor)
    assert time.perf_counter() - start < 1
    quotient = parse_poly("x^2 - (1+1*i)*x + 1/3")
    assert (divisor * quotient).exact_divide(divisor) == quotient
    assert (divisor * quotient).exact_divide(quotient) == divisor


def test_exact_divide_past_the_walk_mod_p():
    p, q = _PRIMES
    # numerators that vanish mod p: x^2 - p^2 is x^2 there, and x - p is x
    assert parse_poly(f"x^2 - {p * p}").exact_divide(parse_poly(f"x - {p}")) == parse_poly(f"x + {p}")
    # a leading coefficient divisible by p: the walk goes mod q
    divisor = parse_poly(f"{p}*x + 1")
    assert (divisor * parse_poly("x - 2")).exact_divide(divisor) == parse_poly("x - 2")
    # divisible by both: no walk mod a prime
    divisor = parse_poly(f"{p * q}*x + 1")
    assert (divisor * parse_poly("x + 5")).exact_divide(divisor) == parse_poly("x + 5")
    with pytest.raises(InsufficientClearing):
        parse_poly("x^2 + 1").exact_divide(divisor)


def test_mixed_table_arithmetic():
    a = LaurentPoly.variable("a")
    assert (X + a).vars == ("x", "a")
    assert X + a == a + X


def test_restricted_reorders_and_refuses_live_drop():
    poly = parse_poly("3*x^2*y + y^-1", ("x", "y", "a"))
    moved = poly.restricted(("y", "x"))
    assert moved.vars == ("y", "x")
    assert moved.terms == {(1, 2): Fraction(3), (-1, 0): Fraction(1)}
    assert moved == poly
    with pytest.raises(ValueError, match="cannot drop live variable 'x'"):
        poly.restricted(("y",))


def test_collect_rejects_vectors_that_do_not_match_the_table():
    with pytest.raises(ValueError, match="does not match table"):
        parse_poly("x + 1").collect(lambda e: (e[0], 2), ("x",))


def test_parse_rejects_dropped_variable_with_only_negative_exponents():
    # x's largest exponent is 0, but x^-1 still needs x in the table
    with pytest.raises(ParseError, match="unexpected variables \\['x'\\]"):
        parse_poly("x^-1 + 1", ("y",))
    assert parse_poly("x^0*y + 1", ("y",)) == Y + 1


def test_rational_function_equality():
    half = RationalFunction(X, 2 * X * Y)
    also_half = RationalFunction(LaurentPoly.const(1), 2 * Y)
    assert half == also_half
    with pytest.raises(DivisionByZero):
        RationalFunction(X, LaurentPoly.zero())


def test_rational_function_is_unhashable():
    # equal by cross-multiplication, with no canonical form a hash could read
    assert RationalFunction(X, LaurentPoly.const(1)) == RationalFunction(2 * X, LaurentPoly.const(2))
    with pytest.raises(TypeError):
        {RationalFunction(X, LaurentPoly.const(1))}


@pytest.mark.parametrize(
    "scalar, variables",
    [(3, ()), (Fraction(-2, 3), ("x", "y")), (0, ()), (0, ("x",)), (make_gaussian(1, 2), ("x",))],
)
def test_constant_hashes_as_its_scalar(scalar, variables):
    poly = LaurentPoly.const(scalar, variables)
    assert poly == scalar and hash(poly) == hash(scalar)
    assert len({poly, scalar}) == 1


# -- the packed store: tuple-key views and the exponent range ---------------------

_F = parse_poly("3*x^2*y^-1 - y + 1/2*x*z + 7")
_G = parse_poly("y^2 - x^-1*z + 2")
_I = make_gaussian(0, 1)

# (vars, den, nums items) as the tuple-key store held them, insertion order included
_STORED_ORDER = [
    (
        _F * _G,
        ("x", "y", "z"),
        2,
        [((2, 1, 0), 6), ((1, -1, 1), -6), ((2, -1, 0), 12), ((0, 3, 0), -2), ((-1, 1, 1), 2),
         ((0, 1, 0), -4), ((1, 2, 1), 1), ((0, 0, 2), -1), ((1, 0, 1), 2), ((0, 2, 0), 14),
         ((-1, 0, 1), -14), ((0, 0, 0), 28)],
    ),
    (
        _F + _G,
        ("x", "y", "z"),
        2,
        [((2, -1, 0), 6), ((0, 1, 0), -2), ((1, 0, 1), 1), ((0, 0, 0), 18), ((0, 2, 0), 2),
         ((-1, 0, 1), -2)],
    ),
    (-_G, ("y", "x", "z"), 1, [((2, 0, 0), -1), ((0, -1, 1), 1), ((0, 0, 0), -2)]),
    (
        (_F * _G).partial_derivative("x"),
        ("x", "y", "z"),
        2,
        [((1, 1, 0), 12), ((0, -1, 1), -6), ((1, -1, 0), 24), ((-2, 1, 1), -2), ((0, 2, 1), 1),
         ((0, 0, 1), 2), ((-2, 0, 1), 14)],
    ),
    (
        _F.substitute({"x": parse_poly("x + y")}),
        ("x", "y", "z"),
        2,
        [((2, -1, 0), 6), ((1, 0, 0), 12), ((0, 1, 0), 4), ((1, 0, 1), 1), ((0, 1, 1), 1),
         ((0, 0, 0), 14)],
    ),
    (
        (_F * _G).exact_divide(_G),
        ("x", "y", "z"),
        2,
        [((1, 0, 1), 1), ((2, -1, 0), 6), ((0, 1, 0), -2), ((0, 0, 0), 14)],
    ),
    (
        (_F * _G).restricted(("z", "y", "x")),
        ("z", "y", "x"),
        2,
        [((0, 1, 2), 6), ((1, -1, 1), -6), ((0, -1, 2), 12), ((0, 3, 0), -2), ((1, 1, -1), 2),
         ((0, 1, 0), -4), ((1, 2, 1), 1), ((2, 0, 0), -1), ((1, 0, 1), 2), ((0, 2, 0), 14),
         ((1, 0, -1), -14), ((0, 0, 0), 28)],
    ),
    (
        (X + _I) * (X * Y - 2 * _I),
        ("x", "y"),
        1,
        [((2, 1), (1, 0)), ((1, 0), (0, -2)), ((1, 1), (0, 1)), ((0, 0), (2, 0))],
    ),
    (
        (_F * _G).collect(lambda e: (e[0] + e[1],), ("t",)),
        ("t",),
        2,
        [((3,), 5), ((0,), 23), ((1,), 10), ((2,), 14), ((-1,), -14)],
    ),
]


@pytest.mark.parametrize("poly, variables, den, items", _STORED_ORDER)
def test_views_keep_the_stored_key_order(poly, variables, den, items):
    assert (poly.vars, poly.den, list(poly.nums.items())) == (variables, den, items)
    assert list(poly.terms) == [exps for exps, _ in items]
    with pytest.raises(TypeError):
        poly.nums[items[0][0]] = 1


_LIMIT = 2**20


def test_exponents_at_the_range_ends_are_stored_exactly():
    edge = LaurentPoly(("x", "y"), {(_LIMIT - 1, -_LIMIT): 1, (-_LIMIT, _LIMIT - 1): 2})
    assert dict(edge.nums) == {(_LIMIT - 1, -_LIMIT): 1, (-_LIMIT, _LIMIT - 1): 2}
    half = parse_poly(f"x^{_LIMIT // 2}*y^-{_LIMIT // 2}")
    product = half * parse_poly(f"x^{_LIMIT // 2 - 1}*y^-{_LIMIT // 2}")
    assert dict(product.nums) == {(_LIMIT - 1, -_LIMIT): 1}
    assert edge.degree_in("x") == _LIMIT - 1 and edge.min_degree_in("y") == -_LIMIT
    assert edge.coefficient({"x": _LIMIT}) == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: LaurentPoly(("x",), {(_LIMIT,): 1}),
        lambda: LaurentPoly(("x", "y"), {(0, -_LIMIT - 1): 1}),
        lambda: parse_poly("x^2000000"),
        lambda: parse_poly("x^1000000") ** 2,
        lambda: parse_poly(f"x^{_LIMIT - 1}*y") * parse_poly("x + 1"),
        lambda: parse_poly(f"y^-{_LIMIT}") * parse_poly("x*y^-1"),
        lambda: parse_poly(f"x^-{_LIMIT}").partial_derivative("x"),
        lambda: parse_poly(f"x^-{_LIMIT}").monomial_inverse(),
        lambda: parse_poly(f"x^-{_LIMIT}").exact_divide(X),
        lambda: X.collect(lambda e: (e[0] + _LIMIT,), ("x",)),
    ],
)
def test_exponent_outside_the_field_range_raises(make):
    with pytest.raises(ExponentOverflow, match="outside"):
        make()
