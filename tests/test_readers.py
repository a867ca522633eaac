"""Term readers on the stored numerators.

`LaurentPoly.collect`, `LaurentPoly.by_power`, `LaurentPoly.at_one` and the
readers built on them (`families._peaks`, `families._at_one`,
`families._over_a`, `identities._uni_table`, `Grammar.reduce`,
`series.compose_poly_series`) are compared with term-by-term references,
copies of their earlier versions which summed the `.terms` view or went
through `substitute` and `exact_divide`, and must leave their argument
without that view.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramcalc.errors import ExtensionConflict
from gramcalc.families import _FAMILIES, _member
from gramcalc.grammar import Grammar
from gramcalc.identities import _uni_table
from gramcalc.laurent import LaurentPoly, Powers, parse_poly, sum_of_products
from gramcalc.series import TruncSeries, compose_poly_series, elementary_series

from conftest import poly_strategy, scalars

SETTINGS = settings(max_examples=100, deadline=None)
XYZ = ("x", "y", "z")
_ONE = LaurentPoly.const(1)


def _fresh(poly):
    """An equal polynomial whose `.terms` view has not been built."""
    return LaurentPoly(poly.vars, dict(poly.terms))


def _stored(poly):
    return poly.vars, poly.den, list(poly.nums.items())


def _reference_project(poly, n, lowest):
    terms = {}
    for exps, coeff in poly.terms.items():
        by_var = dict(zip(poly.vars, exps))
        a, b = by_var.get("x", 0), by_var.get("y", 0)
        if a < lowest or (a - lowest) % 2 or b != n + 1 - a:
            raise ValueError(f"x^{a}y^{b} is off the pattern")
        k = (a - lowest) // 2
        terms[(k,)] = terms.get((k,), Fraction(0)) + coeff
    return LaurentPoly(("x",), terms)


def _reference_uni_table(poly):
    table = {}
    for exps, coeff in poly.terms.items():
        degree = 0
        for e in exps:
            if e:
                degree = e
        table[degree] = table.get(degree, Fraction(0)) + coeff
    return table


def _reference_reduce(grammar, f):
    if grammar.sqrt_var is None or grammar.sqrt_var not in f.vars:
        return f
    z = grammar.sqrt_var
    idx = f.vars.index(z)
    radicand = Powers(grammar.sqrt_radicand)
    triples = []
    for exps, coeff in f.terms.items():
        e = exps[idx]
        q, r = divmod(e, 2)
        try:
            factor = _ONE if q == 0 else radicand[q]
        except Exception as exc:
            raise ExtensionConflict(f"cannot reduce {z}^{e}: radicand not invertible") from exc
        base = exps[:idx] + (r,) + exps[idx + 1 :]
        triples.append((coeff, LaurentPoly.monomial(f.vars, base), factor))
    return sum_of_products(triples, f.vars)


def _reference_compose(poly, inner):
    (var,) = poly.live_vars()
    idx = poly.vars.index(var)
    by_power = {}
    for exps, coeff in poly.terms.items():
        by_power[exps[idx]] = by_power.get(exps[idx], Fraction(0)) + coeff
    powers = [TruncSeries.constant(1, inner.order)]
    for _ in range(max(by_power)):
        powers.append(powers[-1] * inner)
    weights = sorted(by_power.items())
    return TruncSeries(
        [
            sum_of_products((c, powers[k].coeffs[m], _ONE) for k, c in weights)
            for m in range(inner.order + 1)
        ]
    )


@SETTINGS
@given(poly_strategy(XYZ, coeffs=scalars, max_terms=8), st.sampled_from(["sum", "drop", "swap"]))
def test_collect_matches_summed_terms(f, how):
    keys = {
        "sum": lambda exps: (exps[0] + exps[1],),
        "drop": lambda exps: None if exps[2] < 0 else (exps[0] % 2,),
        "swap": lambda exps: (exps[1], exps[0]),
    }
    key = keys[how]
    variables = ("y", "x") if how == "swap" else ("x",)
    terms = {}
    for exps, coeff in f.terms.items():
        new = key(exps)
        if new is not None:
            terms[new] = terms.get(new, Fraction(0)) + coeff
    assert _stored(_fresh(f).collect(key, variables)) == _stored(LaurentPoly(variables, terms))


def _reference_by_power(poly, var):
    if var not in poly.vars:
        return {0: poly} if poly else {}
    idx = poly.vars.index(var)
    rest = poly.vars[:idx] + poly.vars[idx + 1 :]
    groups = {}
    for exps, coeff in poly.terms.items():
        groups.setdefault(exps[idx], {})[exps[:idx] + exps[idx + 1 :]] = coeff
    return {e: LaurentPoly(rest, terms) for e, terms in groups.items()}


@SETTINGS
@given(
    st.one_of(
        poly_strategy(XYZ, min_exp=-3, max_exp=4, coeffs=scalars, max_terms=8),
        poly_strategy(("x",), min_exp=-3, max_exp=4, coeffs=scalars, max_terms=6),
    ),
    st.sampled_from(["x", "y", "z", "w"]),
)
def test_by_power_matches_per_term_reference(f, var):
    fresh = _fresh(f)
    table = fresh.by_power(var)
    expected = _reference_by_power(f, var)
    assert [(e, _stored(c)) for e, c in table.items()] == [
        (e, _stored(c)) for e, c in expected.items()
    ]
    assert not hasattr(fresh, "_terms")


@SETTINGS
@given(poly_strategy(XYZ, min_exp=-3, max_exp=4, coeffs=scalars, max_terms=8), st.sampled_from(XYZ))
def test_at_one_matches_substitute(f, var):
    # the table too: the other variables that occur, in the order the terms reach them
    fresh = _fresh(f)
    assert _stored(fresh.at_one(var)) == _stored(f.substitute({var: _ONE}))
    assert not hasattr(fresh, "_terms")


# the read rows' earlier routes, kept as references
_READ_ROUTES = {
    "eulerian_uni": lambda poly: poly.substitute({"y": _ONE}),
    "andre_uni": lambda poly: poly.substitute({"v": _ONE}),
    "deriv_Q": lambda poly: poly.exact_divide(LaurentPoly.variable("a")).restricted(("x",)),
    "planted_forest": lambda poly: poly.exact_divide(LaurentPoly.variable("a")).restricted(("v", "u")),
}


def test_key_map_reads_match_substitution_and_division_routes():
    rows = {
        name: row for name, row in _FAMILIES.items()
        if callable(row[1]) and row[1].__qualname__.split(".")[0] in ("_at_one", "_over_a")
    }
    assert set(rows) == set(_READ_ROUTES)
    for name, (source, read) in rows.items():
        for n in range(13):
            member = _member(source, n)
            assert _stored(read(_fresh(member), n)) == _stored(_READ_ROUTES[name](member)), (name, n)
    # at n = 0 the descent and 0-1-2 tree reads are constants over no variable
    assert _member("eulerian_uni", 0).vars == _member("andre_uni", 0).vars == ()


@pytest.mark.parametrize("text", ["x", "a^2*x", "a*x + x", "a^-1*x", "a*x + a^2", "x^2 + a^3"])
@pytest.mark.parametrize("family", ["deriv_Q", "planted_forest"])
def test_over_a_refuses_what_the_division_route_refuses(family, text):
    source, read = _FAMILIES[family]
    member = parse_poly(text, ("a", "x", "v", "u"))
    with pytest.raises(ValueError) as route:
        _READ_ROUTES[family](member)
    with pytest.raises(route.type):
        read(member, 1)


@pytest.mark.parametrize(
    "family, lowest",
    [  # ids: the peak chain read (seeded at x or y), the pattern, its lowest x-exponent
        pytest.param("left_peak_uni", 1, id="peak_x-a left-peak-1"),
        pytest.param("interior_peak_uni", 2, id="peak_y-an interior-peak-2"),
        pytest.param("lr_peak_uni", 0, id="peak_y-a left-right-peak-0"),
    ],
)
def test_project_matches_reference(family, lowest):
    source, read = _FAMILIES[family]
    for n in range(1, 13):
        member = _member(source, n)
        expected = _reference_project(member, n, lowest)
        fresh = _fresh(member)
        assert _stored(read(fresh, n)) == _stored(expected)
        assert not hasattr(fresh, "_terms")
        with pytest.raises(ValueError, match="pattern"):
            read(member * LaurentPoly.variable("x"), n)  # every term off the pattern


@SETTINGS
@given(poly_strategy(("x",), min_exp=0, max_exp=9, coeffs=scalars, max_terms=6))
def test_uni_table_matches_reference(f):
    fresh = _fresh(f)
    assert str(_uni_table(fresh)) == str(_reference_uni_table(f))
    assert not hasattr(fresh, "_terms")


_GRAMMAR = Grammar(XYZ, {"x": parse_poly("x*y", XYZ), "y": parse_poly("x*y", XYZ)})


@SETTINGS
@given(
    poly_strategy(XYZ, min_exp=-2, max_exp=5, coeffs=scalars, max_terms=8),
    st.sampled_from(["x*y", "2*x^2", "x + y", "1/3*x - y^2"]),
)
def test_reduce_matches_per_term_reference(f, radicand):
    grammar = Grammar(
        XYZ, _GRAMMAR.rules, sqrt_var="z", sqrt_radicand=parse_poly(radicand, ("x", "y"))
    )
    try:
        expected = _reference_reduce(grammar, f)
    except ExtensionConflict as exc:
        with pytest.raises(ExtensionConflict) as raised:
            grammar.reduce(_fresh(f))
        assert str(raised.value) == str(exc)
        return
    fresh = _fresh(f)
    reduced = grammar.reduce(fresh)
    assert reduced.vars == expected.vars and reduced == expected
    assert not hasattr(fresh, "_terms")


@SETTINGS
@given(
    poly_strategy(("x",), min_exp=0, max_exp=4, coeffs=scalars, max_terms=5),
    st.sampled_from([("x",), ("y", "x"), ("x", "y")]),
    st.sampled_from(["tan", "sin", "exp"]),
)
def test_compose_poly_series_matches_reference(f, variables, name):
    if not f.live_vars():
        return
    poly = f.restricted(variables)
    inner = elementary_series(name, 6)
    expected = _reference_compose(poly, inner)
    fresh = _fresh(poly)
    assert compose_poly_series(fresh, inner).to_json() == expected.to_json()
    assert not hasattr(fresh, "_terms")
