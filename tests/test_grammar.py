import pytest

from gramcalc.errors import ExtensionConflict, ParseError
from gramcalc.families import (
    eulerian_grammar,
    binary_tree_grammar,
    peak_grammar,
    tangent_secant_grammar,
)
from gramcalc.grammar import Grammar, parse_grammar, verify_transformation
from gramcalc.laurent import LaurentPoly, parse_poly

X = LaurentPoly.variable("x", ("x", "y"))
Y = LaurentPoly.variable("y", ("x", "y"))


def test_derive_seed():
    assert eulerian_grammar().derive(Y) == parse_poly("x*y")


def test_derive_constant_is_zero():
    assert eulerian_grammar().derive(LaurentPoly.const(7, ("x", "y"))).is_zero()


def test_derive_reciprocal_seed():
    g = tangent_secant_grammar()
    a_inv = LaurentPoly.monomial(("a", "x"), (-1, 0))
    assert g.derive(a_inv) == LaurentPoly.monomial(("a", "x"), (-1, 1), -1)


def test_derive_n_tables():
    assert eulerian_grammar().derive_n(Y, 4) == parse_poly(
        "x*y^4 + 11*x^2*y^3 + 11*x^3*y^2 + x^4*y"
    )
    g = binary_tree_grammar()
    v = LaurentPoly.variable("v", ("u", "v"))
    assert g.derive_n(v, 6) == parse_poly("32*u*v^5 + 416*u^2*v^3 + 272*u^3*v")
    assert g.derive_n(v, 0) == v


def test_gen_coeffs_ratio_seed():
    g = eulerian_grammar()
    seed = LaurentPoly.monomial(("x", "y"), (1, -1))
    series = g.gen_coeffs(seed, 3)
    for k in range(4):
        assert series.coeffs[k] == seed * (Y - X) ** k


def test_gen_coeffs_constant_seed():
    series = eulerian_grammar().gen_coeffs(LaurentPoly.const(1, ("x", "y")), 3)
    assert series.coeffs[0] == LaurentPoly.const(1)
    assert all(c.is_zero() for c in series.coeffs[1:])


def test_gen_coeffs_inverse_pattern():
    g = tangent_secant_grammar()
    a_inv = LaurentPoly.monomial(("a", "x"), (-1, 0))
    series = g.gen_coeffs(a_inv, 4)
    rendered = [c.render() for c in series.coeffs]
    assert rendered == ["a^-1", "-a^-1*x", "-a^-1", "a^-1*x", "a^-1"]


def test_leibniz_order_zero():
    g = eulerian_grammar()
    assert g.leibniz_expand(X, Y, 0) == X * Y


def test_leibniz_product_rule_step():
    assert eulerian_grammar().leibniz_expand(X, Y, 1) == parse_poly(
        "x^2*y + x*y^2"
    )


def test_leibniz_matches_iterated_derivative():
    g = peak_grammar()
    assert g.leibniz_expand(X, X, 2) == g.derive_n(X * X, 2)


def test_verify_transformation_true():
    ok, witness = verify_transformation(
        eulerian_grammar(),
        {"u": X * Y, "v": parse_poly("1/2*x + 1/2*y")},
        binary_tree_grammar(),
    )
    assert ok and witness is None


def test_verify_transformation_identity():
    g = eulerian_grammar()
    ok, _ = verify_transformation(g, {"x": X, "y": Y}, g)
    assert ok


def test_verify_transformation_false_witness():
    bad_target = parse_grammar("u -> u*v\nv -> u")
    ok, witness = verify_transformation(
        eulerian_grammar(),
        {"u": X * Y, "v": parse_poly("1/2*x + 1/2*y")},
        bad_target,
    )
    assert not ok
    var, lhs, rhs = witness
    assert var == "u"
    assert lhs == parse_poly("x^2*y + x*y^2")
    assert rhs == parse_poly("1/2*x^2*y + 1/2*x*y^2")


def test_extend_sqrt_rule():
    ext = eulerian_grammar().extend_sqrt("z", X * Y)
    assert ext.rules["z"] == parse_poly("1/2*x*z + 1/2*y*z")
    assert ext.sqrt_var == "z"


def test_extend_sqrt_constant_radicand():
    ext = eulerian_grammar().extend_sqrt("z", LaurentPoly.const(4, ("x", "y")))
    assert ext.rules["z"].is_zero()


def test_sqrt_reduction():
    ext = eulerian_grammar().extend_sqrt("z", X * Y)
    z3 = LaurentPoly.monomial(("x", "y", "z"), (0, 0, 3))
    assert ext.reduce(z3) == LaurentPoly.monomial(("x", "y", "z"), (1, 1, 1))
    z_minus_1 = LaurentPoly.monomial(("x", "y", "z"), (0, 0, -1))
    assert ext.reduce(z_minus_1) == LaurentPoly.monomial(("x", "y", "z"), (-1, -1, 1))


def test_sqrt_derivative_consistency():
    ext = eulerian_grammar().extend_sqrt("z", X * Y)
    z2 = LaurentPoly.monomial(("x", "y", "z"), (0, 0, 2))
    assert ext.derive(z2) == ext.derive(X * Y)


def test_extend_sqrt_conflicts():
    ext = eulerian_grammar().extend_sqrt("z", X * Y)
    with pytest.raises(ExtensionConflict):
        ext.extend_sqrt("w", X)
    with pytest.raises(ExtensionConflict):
        eulerian_grammar().extend_sqrt("x", X)


def test_square_root_transformation():
    # adjoining z with z^2 = xy turns the descent grammar into the peak grammar
    ext = eulerian_grammar().extend_sqrt("z", X * Y)
    target = parse_grammar("p -> p*q\nq -> p^2")
    ok, witness = verify_transformation(
        ext,
        {"p": LaurentPoly.variable("z"), "q": parse_poly("1/2*x + 1/2*y")},
        target,
    )
    assert ok, witness


def test_grammar_text_roundtrip():
    g = peak_grammar()
    text = g.to_text()
    assert text == "x -> x*y\ny -> x^2"
    assert parse_grammar(text) == g
    ext = eulerian_grammar().extend_sqrt("z", X * Y)
    again = parse_grammar(ext.to_text())
    assert again == ext


def test_grammar_json_roundtrip():
    for g in (eulerian_grammar(), tangent_secant_grammar(),
              eulerian_grammar().extend_sqrt("z", X * Y)):
        assert Grammar.from_json(g.to_json()) == g


def test_parse_grammar_errors():
    with pytest.raises(ParseError):
        parse_grammar("x => x*y")
    with pytest.raises(ParseError):
        parse_grammar("x -> x*y\nx -> y")


def test_parse_grammar_reads_a_sqrt_prefixed_variable_as_a_rule():
    g = parse_grammar("sqrtx -> x*y\ny -> 1")
    assert g.vars == ("sqrtx", "y", "x") and g.sqrt_var is None
    assert g.rules["sqrtx"] == parse_poly("x*y")
    ext = parse_grammar("sqrtz -> 1\nsqrt z^2 = sqrtz")
    assert ext.sqrt_var == "z" and ext.sqrt_radicand == parse_poly("sqrtz")


@pytest.mark.parametrize("line", ["sqrt ^2 = x", "sqrt a b^2 = x", "sqrt 2^2 = x"])
def test_parse_grammar_rejects_a_sqrt_variable_that_is_not_a_name(line):
    # such a variable would write a rule line that parse_grammar cannot read back
    with pytest.raises(ParseError, match="^line 2: bad variable name"):
        parse_grammar("x -> x\n" + line)


def test_parse_grammar_names_the_line_of_a_bad_right_hand_side():
    with pytest.raises(ParseError, match="^line 2: expected a Gaussian literal") as info:
        parse_grammar("x -> y\ny -> (3)")
    assert info.value.position == 5  # the '(' in the stripped line 'y -> (3)'
    with pytest.raises(ParseError, match="^line 1: expected exponent digits"):
        parse_grammar("x -> x^²")
    with pytest.raises(ParseError, match="^line 2: expected a factor"):
        parse_grammar("x -> y\nsqrt z^2 = x + *")


def test_parse_grammar_reports_an_extension_it_cannot_take_as_a_parse_error():
    with pytest.raises(ParseError, match="^line 2: rule x -> z uses unknown variable 'z'"):
        parse_grammar("x -> z\nsqrt z^2 = x")
    with pytest.raises(ParseError, match="^line 1: "):
        parse_grammar("sqrt z^2 = 0")


def test_unruled_variables_are_constants():
    g = Grammar(("x", "c"), {"x": parse_poly("x*c", ("x", "c"))})
    assert g.derive(LaurentPoly.variable("c", ("x", "c"))).is_zero()
    assert g.derive(LaurentPoly.variable("x", ("x", "c"))) == parse_poly("x*c")
