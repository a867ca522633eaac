"""Property suites: ring axioms, calculus rules, family invariants.

Runnable standalone: pytest tests/test_properties.py
"""

import time
import tracemalloc
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, lcm
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramcalc.families import (
    beta_expansion,
    eulerian_grammar,
    family_poly,
    gamma_expansion,
    peak_grammar,
)
from gramcalc.errors import DivisionByZero, GramcalcError, InsufficientClearing, NonInvertibleSubstitution
from gramcalc.grammar import Grammar, parse_grammar
from gramcalc.identities import _CAYLEY, _ONE_PLUS_X, _PETERSEN, run_identity
from gramcalc.laurent import (
    LaurentPoly,
    RationalFunction,
    _LIMIT,
    _cleared,
    _is_pair,
    _normal_form,
    _pairs,
    binomial_convolution,
    parse_poly,
    substitute_rational,
    sum_of_products,
)
from gramcalc.scalar import GaussianRational, as_scalar, make_gaussian
from gramcalc.series import TruncSeries, compare_series, elementary_series

from conftest import laurent_polys, plain_polys, poly_strategy, rationals, scalars

SETTINGS = settings(max_examples=60, deadline=None)


# -- ring axioms ----------------------------------------------------------------


@SETTINGS
@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@SETTINGS
@given(laurent_polys)
def test_additive_group(f):
    assert f + (-f) == LaurentPoly.zero()
    assert f * LaurentPoly.const(1) == f
    assert (f * LaurentPoly.zero(("x", "y"))).is_zero()


# -- the multiplication kernel against the generic double loop --------------------


def _reference_mul(f, g):
    """Generic per-term scalar arithmetic over the aligned tables: the reference for __mul__."""
    if f.vars == g.vars:
        variables, a, b = f.vars, f.terms, g.terms
    else:
        variables = tuple(list(f.vars) + [v for v in g.vars if v not in f.vars])
        a, b = (_reference_reindex(p, variables) for p in (f, g))
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return LaurentPoly(variables, out)


def _reference_reindex(poly, variables):
    index = {v: i for i, v in enumerate(variables)}
    out = {}
    for exps, coeff in poly.terms.items():
        new = [0] * len(variables)
        for v, e in zip(poly.vars, exps):
            new[index[v]] = e
        out[tuple(new)] = coeff
    return out


_COEFFS = {
    "int": st.integers(min_value=-9, max_value=9).map(Fraction),
    "rational": rationals,
    "gaussian": scalars,
}
_KINDS = st.sampled_from(sorted(_COEFFS))
_TABLES = st.sampled_from([("x", "y"), ("y", "x"), ("y", "z"), ("z",)])


@st.composite
def _kernel_operands(draw):
    # each operand draws its own coefficient kind, so int x Gaussian occurs too
    f = draw(poly_strategy(("x", "y"), max_terms=6, coeffs=_COEFFS[draw(_KINDS)]))
    g = draw(poly_strategy(draw(_TABLES), max_terms=6, coeffs=_COEFFS[draw(_KINDS)]))
    return f, g


def _assert_clean(poly):
    assert all(type(c) in (Fraction, GaussianRational) and c != 0 for c in poly.terms.values())


@settings(max_examples=200, deadline=None)
@given(_kernel_operands())
def test_mul_matches_reference(operands):
    f, g = operands
    for a, b in ((f, g), (f + g, f - g), (f, f * g), (g, -g)):
        product = a * b
        expected = _reference_mul(a, b)
        assert product.vars == expected.vars
        assert product.terms == expected.terms
        _assert_clean(product)


@SETTINGS
@given(_kernel_operands())
def test_kernel_results_hold_scalars(operands):
    f, g = operands
    results = [f + g, f - g, -f, f * g, 3 * f, f * Fraction(1, 2), f**2]
    results += [(f * g).partial_derivative("x"), f.partial_derivative("y")]
    for result in results:
        _assert_clean(result)


def test_mul_cancelling_terms():
    x, y = LaurentPoly.variable("x", ("x", "y")), LaurentPoly.variable("y", ("x", "y"))
    half = Fraction(1, 2)
    product = (x + half * y) * (x - half * y)
    assert product.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1, 4)}
    assert ((x + y) * (x - y) - x * x + y * y).is_zero()


_FRACTIONAL = rationals.filter(lambda q: q.denominator > 1)
_GAUSSIAN = st.builds(make_gaussian, _FRACTIONAL, _FRACTIONAL)


@st.composite
def _gaussian_operands(draw):
    # every coefficient Gaussian, real and imaginary parts both non-integer
    f = draw(poly_strategy(("x", "y"), max_terms=6, coeffs=_GAUSSIAN))
    g = draw(poly_strategy(draw(_TABLES), max_terms=6, coeffs=_GAUSSIAN))
    return f, g


def _conjugate(poly):
    return LaurentPoly(
        poly.vars,
        {e: c.conjugate() if isinstance(c, GaussianRational) else c for e, c in poly.terms.items()},
    )


@settings(max_examples=200, deadline=None)
@given(_gaussian_operands())
def test_gaussian_mul_matches_reference(operands):
    f, g = operands
    for a, b in ((f, g), (f + g, f - g), (f, f * g)):
        product = a * b
        expected = _reference_mul(a, b)
        assert product.vars == expected.vars
        assert product.terms == expected.terms
        _assert_clean(product)
    # f times its conjugate has real coefficients, held as plain Fractions
    norm = f * _conjugate(f)
    assert norm.terms == _reference_mul(f, _conjugate(f)).terms
    assert all(type(c) is Fraction for c in norm.terms.values())


def test_gaussian_mul_cancelling_imaginary_parts():
    x = LaurentPoly.variable("x")
    i = make_gaussian(0, 1)
    product = (x + i) * (x - i)
    assert product.terms == {(2,): Fraction(1), (0,): Fraction(1)}
    assert all(type(c) is Fraction for c in product.terms.values())
    a = make_gaussian(Fraction(1, 2), Fraction(1, 3))
    product = (x + a) * (x + a.conjugate())
    assert product.terms == {(2,): Fraction(1), (1,): Fraction(1), (0,): Fraction(13, 36)}
    assert all(type(c) is Fraction for c in product.terms.values())
    # the x term cancels outright and is dropped
    assert ((x + a) * (x - a)).terms == {(2,): Fraction(1), (0,): -a * a}


# -- sum_of_products against the chained sum of reference products ---------------------

_SUM_TABLES = st.sampled_from([("x", "y"), ("y", "x"), ("y", "z"), ("z",), ()])
_WEIGHTS = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5), rationals, scalars)


@st.composite
def _sum_operand(draw):
    table = draw(_SUM_TABLES)
    return draw(poly_strategy(table, max_terms=4, coeffs=_COEFFS[draw(_KINDS)]))


@st.composite
def _sum_cases(draw):
    triples = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a = draw(_sum_operand())
        b = a if draw(st.booleans()) else draw(_sum_operand())  # a shared operand too
        triples.append((draw(_WEIGHTS), a, b))
    return draw(_SUM_TABLES), triples


def _scaled(w, poly):
    return LaurentPoly(poly.vars, {e: w * c for e, c in poly.terms.items()})


def _assert_canonical(poly):
    for c in poly.terms.values():
        assert (type(c) is Fraction and c != 0) or (type(c) is GaussianRational and c.im != 0)


@settings(max_examples=200, deadline=None)
@given(_sum_cases())
def test_sum_of_products_matches_chained_sum(case):
    variables, triples = case
    expected = LaurentPoly.zero(variables)
    for w, a, b in triples:
        expected = expected + _scaled(w, _reference_mul(a, b))
    result = sum_of_products(triples, variables)
    assert result.vars == expected.vars
    assert result.terms == expected.terms
    _assert_canonical(result)
    if not triples:
        assert result.vars == variables and not result.terms


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), *[st.lists(_sum_operand(), min_size=n + 1, max_size=n + 1)] * 2)
))
def test_binomial_convolution_matches_explicit_sum(case):
    n, a, b = case
    for left, right in ((a, b), (a, a)):
        expected = LaurentPoly.zero()
        for k in range(n + 1):
            expected = expected + _scaled(comb(n, k), _reference_mul(left[k], right[n - k]))
        result = binomial_convolution(left, right, n)
        assert result.vars == expected.vars
        assert result.terms == expected.terms
        _assert_canonical(result)


# -- the packed kernel against the tuple-key kernel it replaced ---------------------


def _tuple_key_nums(poly, variables):
    """poly's numerators keyed by exponent vectors over `variables`."""
    index = {v: i for i, v in enumerate(variables)}
    out = {}
    for exps, n in poly.nums.items():
        new = [0] * len(variables)
        for v, e in zip(poly.vars, exps):
            new[index[v]] = e
        out[tuple(new)] = n
    return out


def _tuple_key_sum_of_products(triples, variables):
    """sum_of_products on exponent-tuple keys: (table, den, nums), the product
    loop as it was before keys were packed."""
    table = tuple(dict.fromkeys(chain(variables, *(p.vars for _, a, b in triples for p in (a, b)))))
    live = []
    pair = False
    for w, a, b in triples:
        (wd, wn), nums_a, nums_b = _cleared(as_scalar(w)), _tuple_key_nums(a, table), _tuple_key_nums(b, table)
        if wn and nums_a and nums_b:
            live.append((wd * a.den * b.den, wn, nums_a, nums_b))
            pair = pair or type(wn) is tuple or _is_pair(nums_a) or _is_pair(nums_b)
    den = lcm(*[d for d, _, _, _ in live])
    if not pair:
        acc = {}
        for d, wn, nums_a, nums_b in live:
            scale = wn * (den // d)
            for ea, na in nums_a.items():
                na *= scale
                for eb, nb in nums_b.items():
                    key = tuple(map(add, ea, eb))
                    acc[key] = acc.get(key, 0) + na * nb
        return (table, *_normal_form(den, acc))
    sums = {}
    for d, wn, nums_a, nums_b in live:
        scale = den // d
        wr, wi = wn if type(wn) is tuple else (wn, 0)
        for ea, (ra, ia) in _pairs(nums_a).items():
            ra, ia = (ra * wr - ia * wi) * scale, (ra * wi + ia * wr) * scale
            for eb, (rb, ib) in _pairs(nums_b).items():
                key = tuple(map(add, ea, eb))
                old = sums.get(key)
                if old is None:
                    sums[key] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    old[0] += ra * rb - ia * ib
                    old[1] += ra * ib + ia * rb
    return (table, *_normal_form(den, sums))


_PACKED_TABLES = st.permutations(("x", "y", "z", "w")).flatmap(
    lambda order: st.integers(min_value=0, max_value=4).map(lambda k: order[:k])
)
# small exponents, and exponents whose sums reach the ends of the packed range
_EXPONENT_RANGES = st.sampled_from([(-3, 4), (-(2**19), 2**19 - 1)])


@st.composite
def _packed_operand(draw, tables=_PACKED_TABLES):
    low, high = draw(_EXPONENT_RANGES)
    coeffs = _COEFFS[draw(_KINDS)]
    return draw(poly_strategy(draw(tables), low, high, max_terms=4, coeffs=coeffs))


@st.composite
def _packed_cases(draw):
    variables = draw(_PACKED_TABLES)
    # operands over the case's own table too, which the kernel takes as they are
    tables = st.one_of(_PACKED_TABLES, st.just(variables))
    triples = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a = draw(_packed_operand(tables))
        b = a if draw(st.booleans()) else draw(_packed_operand(tables))
        triples.append((draw(_WEIGHTS), a, b))  # int weights among them
    return variables, triples


@settings(max_examples=300, deadline=None)
@given(_packed_cases())
def test_packed_kernel_matches_tuple_key_kernel(case):
    variables, triples = case
    table, den, nums = _tuple_key_sum_of_products(triples, variables)
    result = sum_of_products(triples, variables)
    assert result.vars == table
    assert (result.den, list(result.nums.items())) == (den, list(nums.items()))
    assert list(result.terms) == list(nums)


@st.composite
def _same_table_operands(draw):
    table = draw(_PACKED_TABLES)
    a = draw(poly_strategy(table, max_terms=5, coeffs=_COEFFS[draw(_KINDS)]))
    b = a if draw(st.booleans()) else draw(poly_strategy(table, max_terms=5, coeffs=_COEFFS[draw(_KINDS)]))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_same_table_operands())
def test_same_table_product_is_the_one_triple_sum(operands):
    a, b = operands
    product, total = a * b, sum_of_products([(1, a, b)], a.vars)
    assert product.vars == total.vars == a.vars
    assert (product.den, list(product.nums.items())) == (total.den, list(total.nums.items()))


# -- substitute against the per-term reference -------------------------------------------


def _reference_substitute(f, mapping):
    """Per term: const(coeff) times cached image powers, added to the running result."""
    images = {}
    for var in f.vars:
        if var in mapping:
            img = mapping[var]
            images[var] = img if isinstance(img, LaurentPoly) else LaurentPoly.const(img)
        else:
            images[var] = LaurentPoly.variable(var)
    for var in f.vars:
        if f.min_degree_in(var) < 0 and not images[var].is_monomial():
            raise NonInvertibleSubstitution(var)
    result = LaurentPoly.zero()
    power_cache = {}
    for exps, coeff in f.terms.items():
        term = LaurentPoly.const(coeff)
        for var, e in zip(f.vars, exps):
            if e == 0:
                continue
            if (var, e) not in power_cache:
                power_cache[var, e] = images[var] ** e
            term = term * power_cache[var, e]
        result = result + term
    return result


_IMAGE_TABLES = st.sampled_from([("x",), ("y",), ("x", "y"), ("y", "z"), ("z", "u")])


@st.composite
def _image(draw):
    kind = draw(st.sampled_from(["unmapped", "constant", "variable", "monomial", "poly"]))
    coeffs = _COEFFS[draw(_KINDS)]
    if kind == "constant":
        return draw(coeffs)
    table = draw(_IMAGE_TABLES)
    if kind == "variable":
        return LaurentPoly.variable(draw(st.sampled_from(table)), table)
    if kind == "monomial":
        exps = draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * len(table)))
        return LaurentPoly.monomial(table, exps, draw(coeffs.filter(bool)))
    if kind == "poly":
        return draw(poly_strategy(table, min_exp=-1, max_exp=2, max_terms=3, coeffs=coeffs))
    return None


@st.composite
def _substitutions(draw):
    f = draw(poly_strategy(("x", "y"), min_exp=-2, max_exp=3, max_terms=5, coeffs=_COEFFS[draw(_KINDS)]))
    mapping = {var: img for var in ("x", "y") if (img := draw(_image())) is not None}
    return f, mapping


@settings(max_examples=300, deadline=None)
@given(_substitutions())
def test_substitute_matches_reference(case):
    f, mapping = case
    try:
        expected = _reference_substitute(f, mapping)
    except NonInvertibleSubstitution:
        with pytest.raises(NonInvertibleSubstitution):
            f.substitute(mapping)
        return
    result = f.substitute(mapping)
    assert result.vars == expected.vars
    assert result.terms == expected.terms
    _assert_clean(result)


# -- substitute_rational against per-k powers ------------------------------------------


def _reference_substitute_rational(f, var, value, clear_power, clear=None):
    """Each N^k and D^(degree-k) computed on its own by repeated squaring."""
    clear = value.denominator if clear is None else clear
    degree = f.degree_in(var) if var in f.vars else 0
    num = LaurentPoly.zero()
    idx = f.vars.index(var) if var in f.vars else None
    rest_vars = tuple(v for v in f.vars if v != var)
    by_power = {}
    for exps, coeff in f.terms.items():
        k = exps[idx] if idx is not None else 0
        rest_exps = tuple(e for i, e in enumerate(exps) if i != idx)
        part = LaurentPoly(rest_vars, {rest_exps: coeff})
        by_power[k] = by_power.get(k, LaurentPoly.zero(rest_vars)) + part
    for k, part in by_power.items():
        num = num + part * value.numerator ** k * value.denominator ** (degree - k)
    cleared = clear ** clear_power * num
    return cleared.exact_divide(value.denominator ** degree)


@pytest.mark.parametrize("n", range(0, 13))
def test_substitute_rational_matches_reference(n):
    cases = [
        (family_poly("eulerian_uni", n), _CAYLEY, n + 1, None),
        (family_poly("left_peak_uni", n), _PETERSEN, n, _ONE_PLUS_X),
    ]
    if n >= 1:
        cases.append((family_poly("interior_peak_uni", n), _PETERSEN, n - 1, _ONE_PLUS_X))
    for f, value, power, clear in cases:
        result = substitute_rational(f, "x", value, power, clear=clear)
        expected = _reference_substitute_rational(f, "x", value, power, clear=clear)
        assert result.vars == expected.vars
        assert result.terms == expected.terms


# values whose denominator D is clear^m for m = 1, 2, 3 with clear 1 + x,
# x - i or D itself, clears of D's degree in x whose power is not D, and
# denominators of x-degree 0 and -1, which always divide
_X_MINUS_I = _CAYLEY.denominator
_RATIONAL_VALUES = [
    _PETERSEN,  # 4x / (1 + x)^2
    _CAYLEY,  # (x + i) / (x - i)
    RationalFunction(parse_poly("1 - x"), _ONE_PLUS_X),
    RationalFunction(parse_poly("x"), _ONE_PLUS_X * _ONE_PLUS_X * _ONE_PLUS_X),
    RationalFunction(parse_poly("x*y - 1"), _X_MINUS_I * _X_MINUS_I),
    RationalFunction(parse_poly("x + 2"), LaurentPoly.const(1)),
    RationalFunction(parse_poly("1 + y"), parse_poly("x^-1")),
]
_CLEARS = [None, _ONE_PLUS_X, parse_poly("1 + 2*x"), _X_MINUS_I, parse_poly("2 + 2*x")]


def _spy(method):
    """LaurentPoly.method, counting its calls while it runs as before."""
    return mock.patch.object(LaurentPoly, method, autospec=True, side_effect=getattr(LaurentPoly, method))


def _cancels(value, clear, power, degree):
    """(whether D == clear^m, m >= 1 and power >= m * degree, m), m = D's x-degree over clear's."""
    clear = value.denominator if clear is None else clear
    m = value.denominator.degree_in("x") // max(clear.degree_in("x"), 1)
    return m >= 1 and power >= m * degree and clear ** m == value.denominator, m


@st.composite
def _rational_substitutions(draw):
    """f over (x, y) with x-exponents 0..3, a value, a clearing choice, and a
    clearing power drawn on both sides of m * degree."""
    exps = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=-2, max_value=3))
    coeffs = _COEFFS[draw(st.sampled_from(["rational", "gaussian"]))]
    terms = draw(st.dictionaries(exps, coeffs.filter(bool), max_size=6))
    f = LaurentPoly(("x", "y"), terms)
    value = draw(st.sampled_from(_RATIONAL_VALUES))
    clear = draw(st.sampled_from(_CLEARS))
    _, m = _cancels(value, clear, 0, 0)
    power = max(0, max(m, 1) * f.degree_in("x") + draw(st.integers(min_value=-3, max_value=3)))
    return f, value, power, clear


@settings(max_examples=300, deadline=None)
@given(_rational_substitutions())
def test_substitute_rational_with_remaining_variables(case):
    f, value, power, clear = case
    try:
        expected = _reference_substitute_rational(f, "x", value, power, clear=clear)
    except GramcalcError as exc:
        with pytest.raises(type(exc)):
            substitute_rational(f, "x", value, power, clear=clear)
        return
    with _spy("exact_divide") as spy:
        result = substitute_rational(f, "x", value, power, clear=clear)
    assert result.vars == expected.vars
    assert result.terms == expected.terms
    # the division runs exactly when the clearing does not cancel D^degree
    assert spy.called != _cancels(value, clear, power, f.degree_in("x"))[0]


def test_rational_substitutions_in_the_catalog_do_not_divide():
    names = ("petersen", "stembridge", "p_eulerian_complex")
    for name in names:  # the chains and power tables warm
        assert run_identity(name, 12).passed
    with _spy("exact_divide") as divide, _spy("__pow__") as power:
        for name in names:
            assert run_identity(name, 12).passed
    assert (divide.call_count, power.call_count) == (0, 0)


# -- evaluate against the per-term scalar loop ----------------------------------------


def _reference_evaluate(f, point):
    """Per term: its scalar coefficient times base ** e per variable, in table
    order, the first zero base with e > 0 dropping the term."""
    values = {v: as_scalar(c) for v, c in point.items()}
    total = Fraction(0)
    for exps, coeff in f.terms.items():
        term = coeff
        for var, e in zip(f.vars, exps):
            if e == 0:
                continue
            if var not in values:
                raise ValueError(f"no value given for variable {var!r}")
            base = values[var]
            if base == 0:
                if e < 0:
                    raise DivisionByZero(f"{var} = 0 raised to negative exponent {e}")
                term = Fraction(0)
                break
            term = term * base ** e
        total = total + term
    return total


def _outcome(evaluate, f, point):
    """(value, its type) or (exception class, message)."""
    try:
        value = evaluate(f, point)
    except (ValueError, DivisionByZero) as exc:
        return type(exc), str(exc)
    return value, type(value)


# a missing value, 0, or a nonzero rational or Gaussian one
_POINT_VALUES = st.one_of(st.none(), st.just(0), scalars.filter(bool))


@st.composite
def _evaluations(draw):
    table = draw(st.sampled_from([("x",), ("x", "y"), ("y", "x", "z")]))
    f = draw(poly_strategy(table, min_exp=-3, max_exp=4, max_terms=6, coeffs=_COEFFS[draw(_KINDS)]))
    values = draw(st.tuples(*[_POINT_VALUES] * 4))
    return f, {v: c for v, c in zip(("x", "y", "z", "w"), values) if c is not None}


@settings(max_examples=400, deadline=None)
@given(_evaluations())
def test_evaluate_matches_reference(case):
    f, point = case
    assert _outcome(LaurentPoly.evaluate, f, point) == _outcome(_reference_evaluate, f, point)


def test_evaluate_builds_powers_only_for_the_exponents_that_occur():
    cases = [
        # first, as a guard: a table over every exponent up to 20000 takes 80 MB
        # of powers of 3; over every exponent up to 2^20, the cases below would
        # need about 60 GB
        ("x^20000", 3),
        (f"x^{_LIMIT - 1}", 2),
        (f"x^{_LIMIT - 1}", make_gaussian(1, -1)),
        (f"x^-{_LIMIT}", -2),
        (f"x^-{_LIMIT}", make_gaussian(-1, 1)),
        (f"3*x^{_LIMIT - 1} - x^-{_LIMIT}", 1),
    ]
    for text, value in cases:
        f, point = parse_poly(text), {"x": value}
        tracemalloc.start()
        try:
            f.evaluate(point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the value itself takes at most 2^20 bits, 128 KB
        assert peak < 4 << 20, (text, peak)
        assert _outcome(LaurentPoly.evaluate, f, point) == _outcome(_reference_evaluate, f, point)


# -- the stored form: integer numerators over one denominator -----------------------


def _assert_stored(poly):
    """den > 0, gcd(den, every numerator part) == 1, no zero numerator, and
    the (re, im) pair form only when some im != 0; .terms reads the same."""
    den, nums = poly.den, poly.nums
    assert type(den) is int and den > 0
    if any(type(n) is tuple for n in nums.values()):
        assert all(type(re) is int and type(im) is int for re, im in nums.values())
        assert all(n != (0, 0) for n in nums.values())
        assert any(im for _, im in nums.values())
        parts = [p for n in nums.values() for p in n]
    else:
        assert all(type(n) is int and n != 0 for n in nums.values())
        parts = list(nums.values())
    assert gcd(den, *parts) == 1
    view = {
        e: make_gaussian(Fraction(n[0], den), Fraction(n[1], den))
        if type(n) is tuple
        else Fraction(n, den)
        for e, n in nums.items()
    }
    assert list(poly.terms.items()) == list(view.items())


@settings(max_examples=150, deadline=None)
@given(_kernel_operands(), _WEIGHTS)
def test_results_are_in_stored_form(operands, w):
    f, g = operands
    results = [f, g, f + g, f - g, -g, f * g, g * g, sum_of_products([(w, f, g), (1, g, g)])]
    results += [(f * g).partial_derivative("x"), f.partial_derivative("y")]
    if g.is_monomial() or f.min_degree_in("x") >= 0:
        results.append(f.substitute({"x": g}))
    if g:
        results += [(f * g).exact_divide(g)]
    for result in results:
        _assert_stored(result)


@SETTINGS
@given(_kernel_operands())
def test_equality_and_hash_agree_across_routes(operands):
    f, g = operands
    for poly in (f, f * g, f + g, f.partial_derivative("x")):
        rebuilt = LaurentPoly(poly.vars, dict(poly.terms))
        assert (rebuilt.den, rebuilt.nums) == (poly.den, poly.nums)
        assert rebuilt == poly and hash(rebuilt) == hash(poly)
        reordered = poly.restricted(tuple(reversed(poly.vars)))
        assert reordered == poly and hash(reordered) == hash(poly)
        if poly:
            assert poly * 2 != poly and poly * Fraction(1, 2) != poly


def test_equal_values_store_equal_forms():
    x = LaurentPoly.variable("x")
    half_x = LaurentPoly(("x",), {(1,): Fraction(2, 4)})
    for other in (x * Fraction(1, 2), (x * 3) * LaurentPoly.const(Fraction(1, 6)), x / 2):
        assert (other.den, other.nums) == (2, {(1,): 1})
        assert other == half_x and hash(other) == hash(half_x)
    assert half_x != x and LaurentPoly.const(Fraction(1, 2)) != LaurentPoly.const(1)
    # a Gaussian product whose imaginary parts cancel stores ints
    i = make_gaussian(0, 1)
    product = (x + i) * (x - i)
    assert (product.den, product.nums) == (1, {(2,): 1, (0,): 1})
    assert product == parse_poly("x^2 + 1") and hash(product) == hash(parse_poly("x^2 + 1"))
    gaussian = (x + i / 2) * 2
    assert (gaussian.den, gaussian.nums) == (1, {(1,): (2, 0), (0,): (0, 1)})


def _reference_exact_divide(f, g):
    """Leading-term long division on Fraction/GaussianRational scalars."""
    if f.is_zero():
        return LaurentPoly.zero(f.vars)
    if f.vars == g.vars:
        variables, a, b = f.vars, dict(f.terms), dict(g.terms)
    else:
        variables = tuple(list(f.vars) + [v for v in g.vars if v not in f.vars])
        a, b = (_reference_reindex(p, variables) for p in (f, g))
    shift_a = tuple(map(min, zip(*a)))
    shift_b = tuple(map(min, zip(*b)))
    num = {tuple(e - s for e, s in zip(exps, shift_a)): c for exps, c in a.items()}
    den = {tuple(e - s for e, s in zip(exps, shift_b)): c for exps, c in b.items()}

    def order(exps):
        return (-sum(exps), tuple(-e for e in exps))

    lead_den = min(den, key=order)
    quotient = {}
    rem = dict(num)
    while rem:
        lead = min(rem, key=order)
        q_exps = tuple(x - y for x, y in zip(lead, lead_den))
        if any(e < 0 for e in q_exps):
            raise InsufficientClearing("not exactly divisible")
        q_coeff = rem[lead] / den[lead_den]
        quotient[q_exps] = q_coeff
        for exps, coeff in den.items():
            key = tuple(x + y for x, y in zip(q_exps, exps))
            value = rem.get(key, Fraction(0)) - q_coeff * coeff
            if value == 0:
                rem.pop(key, None)
            else:
                rem[key] = value
    shift = tuple(sa - sb for sa, sb in zip(shift_a, shift_b))
    return LaurentPoly(
        variables, {tuple(e + s for e, s in zip(exps, shift)): c for exps, c in quotient.items()}
    )


_NON_UNIT = st.sampled_from(
    [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(2, 7)]
    + [make_gaussian(re, im) for re, im in ((2, 1), (1, 1), (Fraction(1, 2), -3), (0, 2))]
)


@st.composite
def _divisors(draw):
    """A nonzero divisor times a Laurent monomial with a non-unit coefficient."""
    table = draw(_TABLES)
    g = draw(poly_strategy(table, max_terms=4, coeffs=_COEFFS[draw(_KINDS)]).filter(bool))
    exps = draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * len(table)))
    return g * LaurentPoly.monomial(table, exps, draw(_NON_UNIT))


@settings(max_examples=200, deadline=None)
@given(_kernel_operands(), _divisors())
def test_exact_divide_inverts_products(operands, g):
    f, h = operands
    for dividend in (f, f + h, f * h):
        quotient = (dividend * g).exact_divide(g)
        assert quotient == dividend
        _assert_stored(quotient)


@settings(max_examples=200, deadline=None)
@given(_kernel_operands(), _divisors())
def test_exact_divide_matches_fraction_reference(operands, g):
    f, h = operands
    for dividend in (f * g, f * g + h, h, f * g * g, g):
        try:
            expected = _reference_exact_divide(dividend, g)
        except InsufficientClearing:
            with pytest.raises(InsufficientClearing):
                dividend.exact_divide(g)
            continue
        result = dividend.exact_divide(g)
        assert result.vars == expected.vars
        assert list(result.terms.items()) == list(expected.terms.items())


def test_exact_divide_scales_by_the_leading_coefficient():
    # the product's numerators lose the divisor's integer content to the
    # normalising gcd, so the divisor's leading numerator does not divide theirs
    x = LaurentPoly.variable("x")
    i = make_gaussian(0, 1)
    for f, g in (
        (x / 2 + Fraction(1, 3), 2 * x + 4),
        (x / 2 + Fraction(1, 3), (2 + 2 * i) * x + 2),
        (x * x / 3 + i * x / 2 + 1, (2 + i) * 6 * x - 6 * i),
        (x / 2 + i / 3, (1 + i) * x + 1 + i),
    ):
        quotient = (f * g).exact_divide(g)
        assert quotient == f and quotient.terms == f.terms
        _assert_stored(quotient)
    with pytest.raises(InsufficientClearing):
        (x * x + 1).exact_divide(2 * x + 1)


# -- substitution is a homomorphism ---------------------------------------------

_images = st.fixed_dictionaries(
    {
        "x": plain_polys,
        "y": plain_polys,
    }
)


@SETTINGS
@given(plain_polys, plain_polys, _images)
def test_substitute_homomorphism(f, g, images):
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


@SETTINGS
@given(laurent_polys, laurent_polys)
def test_derivative_product_rule(f, g):
    lhs = (f * g).partial_derivative("x")
    rhs = f * g.partial_derivative("x") + f.partial_derivative("x") * g
    assert lhs == rhs


_points = st.fixed_dictionaries(
    {
        "x": st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4),
        "y": st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4),
    }
)


@SETTINGS
@given(plain_polys, _images, _points)
def test_evaluate_commutes_with_substitute(f, images, point):
    direct = f.substitute(images).evaluate(point)
    via_images = f.evaluate({v: img.evaluate(point) for v, img in images.items()})
    assert direct == via_images


# -- codec round trips -----------------------------------------------------------


@SETTINGS
@given(laurent_polys)
def test_render_parse_roundtrip(f):
    from gramcalc.laurent import parse_poly as parse

    assert parse(f.render()) == f


@SETTINGS
@given(laurent_polys)
def test_json_roundtrip(f):
    assert LaurentPoly.from_json(f.to_json()) == f


@SETTINGS
@given(laurent_polys, laurent_polys)
def test_render_injective(f, g):
    if f != g:
        assert f.render() != g.render() or f.vars != g.vars


# -- grammar calculus -------------------------------------------------------------


@SETTINGS
@given(laurent_polys, laurent_polys, rationals, rationals)
def test_derive_linearity(f, g, a, b):
    grammar = eulerian_grammar()
    assert grammar.derive(a * f + b * g) == a * grammar.derive(f) + b * grammar.derive(g)


@SETTINGS
@given(laurent_polys, laurent_polys)
def test_derive_product_rule(f, g):
    grammar = peak_grammar()
    assert grammar.derive(f * g) == f * grammar.derive(g) + grammar.derive(f) * g


@settings(max_examples=20, deadline=None)
@given(plain_polys, plain_polys, st.integers(min_value=0, max_value=8))
def test_leibniz_random_pairs(f, g, n):
    grammar = eulerian_grammar()
    assert grammar.leibniz_expand(f, g, n) == grammar.derive_n(f * g, n)


@settings(max_examples=20, deadline=None)
@given(plain_polys, plain_polys, st.integers(min_value=0, max_value=8))
def test_gen_multiplicativity(f, g, order):
    grammar = peak_grammar()
    lhs = grammar.gen_coeffs(f * g, order)
    rhs = grammar.gen_coeffs(f, order) * grammar.gen_coeffs(g, order)
    assert compare_series(lhs, rhs) == (True, None)


def test_constant_detection():
    # composite constant of the tangent/secant grammar
    from gramcalc.families import tangent_secant_grammar

    grammar = tangent_secant_grammar()
    composite = parse_poly("1 + x^2") * LaurentPoly.monomial(("a", "x"), (-2, 0))
    assert grammar.derive(composite).is_zero()


# -- family invariants -------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_homogeneity(n):
    for name in ("eulerian_biv", "left_peak_biv", "interior_peak_biv", "lr_peak_biv"):
        poly = family_poly(name, n)
        assert {sum(exps) for exps in poly.terms} == {n + 1}, name
    # binary-tree polynomials are homogeneous once u counts double
    dumont = family_poly("dumont", n)
    assert {2 * a + b for a, b in dumont.terms} == {n + 1}


@pytest.mark.parametrize("n", range(1, 11))
def test_palindromicity(n):
    table = {}
    for exps, coeff in family_poly("eulerian_uni", n).terms.items():
        table[exps[0]] = coeff
    for k in range(1, n + 1):
        assert table.get(k) == table.get(n + 1 - k)


@pytest.mark.parametrize("n", range(0, 11))
def test_parity(n):
    p = family_poly("deriv_P", n)
    assert all(exps[-1] % 2 == (n + 1) % 2 for exps in p.terms)
    q = family_poly("deriv_Q", n)
    assert all(exps[-1] % 2 == n % 2 for exps in q.terms)


@pytest.mark.parametrize("n", range(1, 11))
def test_sum_rules(n):
    ones = {"x": 1, "y": 1}
    for name in ("eulerian_biv", "left_peak_biv", "interior_peak_biv", "lr_peak_biv"):
        assert family_poly(name, n).evaluate(ones) == factorial(n), name


@pytest.mark.parametrize("n", range(1, 13))
def test_gamma_beta_nonnegative(n):
    assert all(v >= 0 for v in gamma_expansion(n).entries.values())
    assert all(v >= 0 for v in beta_expansion("P", n).entries.values())
    assert all(v >= 0 for v in beta_expansion("Q", n).entries.values())


def test_cross_family_shift():
    for n in range(1, 11):
        assert family_poly("lr_peak_biv", n) == family_poly("interior_peak_biv", n)


# -- series trig identities to order 16 ----------------------------------------------


def test_trig_identities_order_16():
    n = 16
    sin, cos = elementary_series("sin", n), elementary_series("cos", n)
    sinh, cosh = elementary_series("sinh", n), elementary_series("cosh", n)
    sec, tan = elementary_series("sec", n), elementary_series("tan", n)
    one = TruncSeries.constant(1, n)
    assert compare_series(sin * sin + cos * cos, one) == (True, None)
    assert compare_series(cosh * cosh - sinh * sinh, one) == (True, None)
    assert compare_series(sec * cos, one) == (True, None)
    assert compare_series(tan * cos, sin) == (True, None)


# -- readers: every input is read or refused with a GramcalcError, in time ------------

# exponents at and just past the ends of the field range [-2^20, 2^20), and small ones
_EXPONENTS = st.sampled_from([-_LIMIT - 1, -_LIMIT, -_LIMIT + 1, -2, -1, 0, 1, 2, 3, _LIMIT - 2, _LIMIT - 1, _LIMIT])
_NAMES = st.sampled_from(["x", "y", "z", "a"])
_TEXT_COEFFS = st.sampled_from(["1", "3", "2/3", "(1+2*i)", "0", "1/0"])


@st.composite
def _poly_texts(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [draw(_TEXT_COEFFS)] if draw(st.booleans()) else []
        factors += [f"{draw(_NAMES)}^{draw(_EXPONENTS)}" for _ in range(draw(st.integers(0, 2)))]
        terms.append("*".join(factors) or "1")
    return " + ".join(terms)


_TEXT_NOISE = st.text(alphabet="xyz0123456789^-+*/() i=>sqrt\n", max_size=30)
_GRAMMAR_TEXTS = st.builds(
    lambda rules, sqrt: "\n".join([f"{v} -> {rhs}" for v, rhs in rules.items()] + sqrt),
    st.dictionaries(_NAMES, _poly_texts(), max_size=2),
    # a sqrt line whose radicand spans the field range, or noise
    st.lists(st.one_of(_poly_texts().map(lambda r: f"sqrt w^2 = {r}"), _TEXT_NOISE), max_size=1),
)
# rational strings, among them exponent notation that Fraction would expand
_JSON_RATIONALS = st.sampled_from(["1", "-2/4", "0", "1/0", "1.5", "1e10000000", "(1+2*i)"])
_POLY_JSON = st.fixed_dictionaries({
    "vars": st.lists(_NAMES | st.integers(0, 1), max_size=3),
    "terms": st.lists(st.fixed_dictionaries({
        "coeff": st.one_of(
            _JSON_RATIONALS,
            st.fixed_dictionaries({"re": _JSON_RATIONALS, "im": _JSON_RATIONALS}),
            st.integers(-3, 3),
            st.none(),
        ),
        "exps": st.lists(_EXPONENTS, max_size=3),
    }), max_size=3),
})
_JSON_NOISE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _EXPONENTS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["vars", "terms", "coeff", "exps", "rules", "sqrt", "var", "radicand", "x"]), inner, max_size=4),
    max_leaves=8,
)
_GRAMMAR_JSON = st.fixed_dictionaries(
    {"vars": st.lists(_NAMES | st.integers(0, 1), max_size=3), "rules": st.dictionaries(_NAMES, _POLY_JSON, max_size=2)},
    optional={"sqrt": st.fixed_dictionaries({"var": _NAMES, "radicand": _POLY_JSON})},
)
_READS = st.one_of(
    st.tuples(st.just(parse_poly), st.one_of(_poly_texts(), _TEXT_NOISE)),
    st.tuples(st.just(parse_grammar), st.one_of(_GRAMMAR_TEXTS, _TEXT_NOISE)),
    st.tuples(st.just(LaurentPoly.from_json), st.one_of(_POLY_JSON, _JSON_NOISE)),
    st.tuples(st.just(Grammar.from_json), st.one_of(_GRAMMAR_JSON, _JSON_NOISE)),
)
# a division walk across the whole field range takes about 2^20 steps mod p:
# seconds, where the exact walk alone, its coefficients growing, took minutes
_READ_SECONDS = 10


@settings(max_examples=150, deadline=None)
@given(_READS)
@example((parse_grammar, f"x -> x^{1 - _LIMIT} + 1\nsqrt w^2 = x + 3"))
@example((parse_grammar, f"x -> 1\nsqrt w^2 = x^{1 - _LIMIT} + x^{_LIMIT - 1}"))
@example((LaurentPoly.from_json, {"vars": ["x"], "terms": [{"coeff": "1e10000000", "exps": [1]}]}))
def test_readers_return_or_refuse_in_time(read):
    reader, value = read
    start = time.perf_counter()
    try:
        repr(reader(value))  # what is read renders
    except GramcalcError:
        pass
    assert time.perf_counter() - start < _READ_SECONDS, (reader.__qualname__, value)
