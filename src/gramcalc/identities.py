"""A registry of named, mechanically checkable identities.

Every entry verifies one classical statement about the catalogued families by
exact computation over a finite range, reporting pass/fail with a witness
(the first disagreement in the check's own order, and both sides) on failure.
An entry is data: a declared range and a generator of (n, lhs, rhs) pairs,
which one loop compares.  All family values flow through a provider object
so tests can inject corrupted families and watch the dependent identities
fail.

Statements whose commonly printed forms carry misprints are checked in the
corrected form recorded in gramcalc.errata.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .errors import GramcalcError, InvalidPoint, UnknownIdentity
from .families import (
    beta_from_poly,
    eulerian_grammar,
    family_number,
    family_poly,
    gamma_from_poly,
    leaf_split_grammar,
    peak_grammar,
    recurrence_poly,
    tangent_secant_grammar,
)
from .grammar import verify_transformation
from .laurent import (
    LaurentPoly,
    Powers,
    RationalFunction,
    binomial_convolution,
    parse_poly,
    substitute_rational,
    sum_of_products,
)
from .scalar import GaussianRational, Scalar, make_gaussian
from .series import (
    RADICAL_CLOSED_FORMS,
    RadicalPoint,
    TruncSeries,
    closed_form_series,
    compose_poly_series,
    elementary_series,
)
from . import structures

DEFAULT_MAX_N = 12
DEFAULT_ORACLE_MAX_N = 8


class GrammarFamilies:
    """Default provider: every family value comes from the grammar route."""

    def poly(self, name: str, n: int) -> LaurentPoly:
        return family_poly(name, n)

    def number(self, name: str, n: int) -> int:
        return family_number(name, n, poly=self.poly)


class CheckContext(NamedTuple):
    max_n: int
    oracle_max_n: int
    provider: GrammarFamilies
    points: Mapping[str, Fraction] = MappingProxyType({})

    def oracle_cap(self) -> int:
        return min(self.max_n, self.oracle_max_n)

    def point(self, var: str, default: Fraction) -> Fraction:
        return Fraction(self.points.get(var, default))

    @contextmanager
    def point_setup(self, *variables: str):
        """Setup derived from the point alone.  If it fails at a point the user
        gave, that is an input error (InvalidPoint), not an identity failure."""
        try:
            yield
        except (GramcalcError, ZeroDivisionError) as exc:
            given = [f"{v}={self.points[v]}" for v in variables if v in self.points]
            if not given:
                raise
            raise InvalidPoint(
                f"invalid point {','.join(given)}: {type(exc).__name__}: {exc}"
            ) from exc

    def chain(self, name: str, top: int) -> List[LaurentPoly]:
        """Members 0..top of one family, fetched in order."""
        return [self.provider.poly(name, k) for k in range(top + 1)]


class IdentityReport(NamedTuple):
    name: str
    lo: int
    hi: int
    status: str
    witness: Optional[dict]
    millis: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "range": [self.lo, self.hi],
            "status": self.status,
            "millis": self.millis,
        }
        if self.witness is not None:
            payload["witness"] = self.witness
        return payload


Pairs = Iterable[Tuple[int, object, object]]


def _render(value) -> str:
    if isinstance(value, LaurentPoly):
        return value.render()
    return str(value)


def _mismatch(pairs: Pairs) -> Optional[dict]:
    """First disagreement among (n, lhs, rhs) triples, in the check's own order."""
    for n, lhs, rhs in pairs:
        if lhs != rhs:
            return {"n": n, "lhs": _render(lhs), "rhs": _render(rhs)}
    return None


def _uni_table(poly: LaurentPoly) -> Dict[int, Scalar]:
    """Univariate polynomial as exponent -> coefficient."""
    uni = poly.collect(lambda exps: (next((e for e in reversed(exps) if e), 0),), ("x",))
    return {k: uni.coefficient({"x": k}) for (k,) in uni.nums}


def _expand(table: Mapping[int, Scalar], basis, variables) -> LaurentPoly:
    """Sum of coeff * a * b over a {k: coeff} table, in table order, where
    basis(k) gives the factors (a, b)."""
    return sum_of_products(((coeff, *basis(k)) for k, coeff in table.items()), variables)


def _coeff_pairs(lhs: TruncSeries, rhs: TruncSeries, order: int) -> Pairs:
    return ((n, lhs.coeffs[n], rhs.coeffs[n]) for n in range(order + 1))


X = LaurentPoly.variable("x")
Y_OF_XY = LaurentPoly.variable("y", ("x", "y"))
X_OF_XY = LaurentPoly.variable("x", ("x", "y"))
_I = make_gaussian(0, 1)
_HALF_SUM = parse_poly("1/2*x + 1/2*y")
_HALF_DIFF = parse_poly("1/2*y - 1/2*x")
_X_SQUARED = parse_poly("x^2")
_ONE_PLUS_X = parse_poly("1 + x")
_ONE_MINUS_X = parse_poly("1 - x")
_ONE_PLUS_X2 = parse_poly("1 + x^2")
_TWO_X = parse_poly("2*x")
_PEAK_SUB = {"u": _X_SQUARED, "v": Y_OF_XY}
_PETERSEN = RationalFunction(parse_poly("4*x"), _ONE_PLUS_X * _ONE_PLUS_X)
_CAYLEY = RationalFunction(X + LaurentPoly.const(_I), X + LaurentPoly.const(-_I))


# -- range ends ---------------------------------------------------------------


def _upto(shift: int) -> Callable[[CheckContext], int]:
    return lambda ctx: ctx.max_n + shift


def _capped(cap: int) -> Callable[[CheckContext], int]:
    return lambda ctx: min(ctx.max_n, cap)


# -- shared check shapes ------------------------------------------------------


def _per_n(*sides):
    """For each n, every side(provider, n) gives one (lhs, rhs) pair, in order."""

    def pairs(ctx: CheckContext, lo: int, hi: int):
        for n in range(lo, hi + 1):
            for side in sides:
                yield (n, *side(ctx.provider, n))

    return pairs


def _vs_oracle(*names, extra=None):
    """Each family member against its exhaustive count; `extra(ctx, n, member)`
    adds one more pair per member."""

    def pairs(ctx: CheckContext, lo: int, hi: int):
        for n in range(lo, hi + 1):
            for name in names:
                member = ctx.provider.poly(name, n)
                yield n, member, structures.family_poly_oracle(
                    name, n, bound=ctx.oracle_max_n
                )
                if extra is not None:
                    yield (n, *extra(ctx, n, member))

    return pairs


def _steps(*steps, lead=None):
    """Binomial-convolution steps: target_{n+1} = factor * sum_k C(n,k) a_k b_{n-k}.

    Each step is (target, a, b, factor), with factor None for 1.  The a/b
    chains are built to max_n in order of first use, then `lead()` gives an
    optional leading pair.
    """

    def pairs(ctx: CheckContext, lo: int, hi: int):
        chains = {}
        for _, a, b, _ in steps:
            for name in (a, b):
                if name not in chains:
                    chains[name] = ctx.chain(name, ctx.max_n)
        if lead is not None:
            yield lead()
        for n in range(lo, hi + 1):
            for target, a, b, factor in steps:
                lhs = ctx.provider.poly(target, n + 1)
                conv = binomial_convolution(chains[a], chains[b], n)
                yield n, lhs, conv if factor is None else factor * conv

    return pairs


# -- bespoke checks -------------------------------------------------------------
# Each yields (n, lhs, rhs) for a declared range lo..hi.


def _eulerian_egf(ctx: CheckContext, lo: int, hi: int):
    series = closed_form_series("eulerian_egf", hi)
    for n in range(lo, hi + 1):
        yield n, series.coeffs[n], ctx.provider.poly("eulerian_biv", n)


def _carlitz_scoville(ctx: CheckContext, lo: int, hi: int):
    gen = TruncSeries(
        [LaurentPoly.zero()]
        + [ctx.provider.poly("eulerian_biv", n) for n in range(1, hi + 1)]
    )
    exp_x = elementary_series("exp", hi, X_OF_XY)
    exp_y = elementary_series("exp", hi, Y_OF_XY)
    lhs = gen * (exp_y * X_OF_XY - exp_x * Y_OF_XY)
    yield from _coeff_pairs(lhs, (exp_x - exp_y) * (X_OF_XY * Y_OF_XY), hi)


def _gamma_expansion(ctx: CheckContext, lo: int, hi: int):
    xy, x_plus_y = Powers(X_OF_XY * Y_OF_XY), Powers(X_OF_XY + Y_OF_XY)
    for n in range(lo, hi + 1):
        poly = ctx.provider.poly("eulerian_biv", n)
        entries = gamma_from_poly(poly, n)
        if any(v < 0 for v in entries.values()):
            yield n, f"negative entry in {entries}", "nonnegative entries"
            continue
        rebuilt = _expand(entries, lambda k: (xy[k], x_plus_y[n + 1 - 2 * k]), ("x", "y"))
        yield n, rebuilt, poly


def _euler_complex(ctx: CheckContext, lo: int, hi: int):
    one_plus_i = make_gaussian(1, 1)
    for n in range(lo, hi + 1):
        value = ctx.provider.poly("eulerian_uni", n).evaluate({"x": _I})
        # descent-indexed convention: divide the y=1 specialization by x=i
        quotient = (value / _I) / one_plus_i ** (n - 1)
        yield n, quotient, Fraction(ctx.provider.number("euler", n))
        if isinstance(quotient, GaussianRational):
            yield n, f"imaginary residue {quotient.im}", "0"


def _mw_shift(ctx: CheckContext, lo: int, hi: int):
    poly = ctx.provider.poly
    for n in range(lo, hi + 1):
        m_table = _uni_table(poly("interior_peak_uni", n))
        w_table = _uni_table(poly("lr_peak_uni", n))
        shifted = {k + 1: v for k, v in m_table.items()}
        yield n, str(dict(sorted(shifted.items()))), str(dict(sorted(w_table.items())))
        yield n, poly("lr_peak_uni", n), X * poly("interior_peak_uni", n)
        yield n, poly("lr_peak_biv", n), poly("interior_peak_biv", n)


def _left_peak_convolution(ctx: CheckContext, lo: int, hi: int):
    chain = ctx.chain("left_peak_biv", ctx.max_n)
    for n in range(lo, hi + 1):
        lhs = ctx.provider.poly("dumont", n + 1).substitute(_PEAK_SUB)
        yield n, lhs, binomial_convolution(chain, chain, n)


def _l_squared_egf(ctx: CheckContext, lo: int, hi: int):
    x0 = ctx.point("x", Fraction(3))
    y0 = ctx.point("y", Fraction(5))
    with ctx.point_setup("x", "y"):
        point = RadicalPoint(values={"x": x0, "y": y0})
        s = point.root("y^2-x^2", y0 * y0 - x0 * x0)
    xbar, ybar = y0 + s, y0 - s
    l_values = [member.evaluate({"x": x0, "y": y0}) for member in ctx.chain("left_peak_biv", hi)]
    for n in range(lo, hi + 1):
        lhs = ctx.provider.poly("eulerian_biv", n + 1).evaluate({"x": xbar, "y": ybar})
        yield n, lhs, sum(comb(n, k) * l_values[k] * l_values[n - k] for k in range(n + 1))


def _closed_form_at(series: str, family: str):
    """The closed form `series` expanded at its point (the given values over
    its defaults) equals the family there, member by member."""
    defaults = RADICAL_CLOSED_FORMS[series]

    def pairs(ctx: CheckContext, lo: int, hi: int):
        at = {var: ctx.point(var, default) for var, default in defaults.items()}
        with ctx.point_setup(*at):
            expanded = closed_form_series(series, hi, RadicalPoint(values=at))
        for n in range(lo, hi + 1):
            yield n, expanded.coeffs[n].constant_value(), ctx.provider.poly(family, n).evaluate(at)

    return pairs


def _david_barton_pde(ctx: CheckContext, lo: int, hi: int):
    two_x_one_minus_x = parse_poly("2*x - 2*x^2")
    poly = ctx.provider.poly
    for n in range(lo, hi + 1):
        l_n = poly("left_peak_uni", n)
        l_next = poly("left_peak_uni", n + 1)
        residue = (
            two_x_one_minus_x * l_n.partial_derivative("x") + n * (X * l_n) + l_n - l_next
        )
        yield n, residue, LaurentPoly.zero()
    yield 1, poly("interior_peak_uni", 1), LaurentPoly.const(1)
    for n in range(1, hi + 1):
        m_n = poly("interior_peak_uni", n)
        m_next = poly("interior_peak_uni", n + 1)
        yield n, m_next, two_x_one_minus_x * m_n.partial_derivative("x") + (
            n * X - X + 2
        ) * m_n


def _david_barton_closed(ctx: CheckContext, lo: int, hi: int):
    x0 = ctx.point("x", Fraction(9, 25))
    with ctx.point_setup("x"):
        point = RadicalPoint(values={"x": x0})
        s = point.root("x", x0)
        r = point.root("1-x", 1 - x0)
        ratio = s / (1 + r)
        cosh_a = (ratio + 1 / ratio) / 2
        sinh_a = (ratio - 1 / ratio) / 2
        cosh_z = cosh_a * elementary_series("cosh", hi, r) + sinh_a * elementary_series(
            "sinh", hi, r
        )
        one = TruncSeries.constant(1, hi)
        half: Fraction = Fraction(1, 2)
        inv_minus = one / (cosh_z - 1)
        inv_plus = one / (cosh_z + 1)
        lhs_left = (inv_minus + inv_plus) * half
        lhs_interior = (inv_minus - inv_plus) * half
        scale_left = s / (1 - x0)
        scale_interior = x0 / (1 - x0)
    at_x0 = {"x": x0}
    poly = ctx.provider.poly
    for n in range(lo, hi + 1):
        lhs = lhs_left.coeffs[n].constant_value()
        yield n, lhs, scale_left * poly("left_peak_uni", n + 1).evaluate(at_x0)
        lhs = lhs_interior.coeffs[n].constant_value()
        yield n, lhs, scale_interior * poly("interior_peak_uni", n + 1).evaluate(at_x0)


def _petersen(ctx: CheckContext, lo: int, hi: int):
    poly = ctx.provider.poly
    one_minus_x = Powers(_ONE_MINUS_X)
    eulerian: List[LaurentPoly] = []  # each member fetched once, at first use
    for n in range(lo, hi + 1):
        lhs = substitute_rational(
            poly("left_peak_uni", n), "x", _PETERSEN, n, clear=_ONE_PLUS_X
        )
        eulerian += [poly("eulerian_uni", k) for k in range(len(eulerian), n + 1)]
        rhs = sum_of_products(
            ((comb(n, k) * 2 ** k, one_minus_x[n - k], eulerian[k]) for k in range(n + 1)), ("x",)
        )
        yield n, lhs, rhs
    # bivariate route: multiply the half-sum powers through and compare
    xy, half_sum, half_diff = Powers(X_OF_XY * Y_OF_XY), Powers(_HALF_SUM), Powers(_HALF_DIFF)
    for n in range(lo, hi + 1):
        lhs = _expand(
            _uni_table(poly("left_peak_uni", n)),
            lambda k: (xy[k], half_sum[n - 2 * k]),
            ("x", "y"),
        )
        lhs = lhs * Y_OF_XY
        rhs = sum_of_products(
            ((comb(n, k), poly("eulerian_biv", k), half_diff[n - k]) for k in range(n + 1)),
            ("x", "y"),
        )
        yield n, lhs, rhs


def _ll_mm(ctx: CheckContext, lo: int, hi: int):
    l_biv = ctx.chain("left_peak_biv", ctx.max_n)
    m_biv = ctx.chain("interior_peak_biv", ctx.max_n)
    l_uni = ctx.chain("left_peak_uni", ctx.max_n)
    m_uni = ctx.chain("interior_peak_uni", ctx.max_n)
    for n in range(lo, hi + 1):
        yield n, binomial_convolution(l_biv, l_biv, n), binomial_convolution(m_biv, m_biv, n)
        yield n, binomial_convolution(l_uni, l_uni, n), X * binomial_convolution(m_uni, m_uni, n)


def _hoffman_egf(ctx: CheckContext, lo: int, hi: int):
    gen_p = TruncSeries(ctx.chain("deriv_P", hi))
    q_chain = ctx.chain("deriv_Q", hi)
    a = LaurentPoly.variable("a")
    gen_a = TruncSeries([a * q for q in q_chain])
    gen_q = TruncSeries(q_chain)
    cos = elementary_series("cos", hi)
    sin = elementary_series("sin", hi)
    tan = elementary_series("tan", hi)
    cos_minus_xsin = cos - sin * X
    one = TruncSeries.constant(1, hi)
    yield from _coeff_pairs(gen_p * (one - tan * X), TruncSeries.constant(X, hi) + tan, hi)
    yield from _coeff_pairs(gen_q * cos_minus_xsin, one, hi)
    yield from _coeff_pairs(gen_a * cos_minus_xsin, TruncSeries.constant(a, hi), hi)
    yield from _coeff_pairs(gen_p * cos_minus_xsin, cos * X + sin, hi)


def _inverse_pattern(ctx: CheckContext, lo: int, hi: int):
    a_inv = LaurentPoly.monomial(("a", "x"), (-1, 0))
    a_inv_x = LaurentPoly.monomial(("a", "x"), (-1, 1))
    chain = tangent_secant_grammar().derivative_chain(a_inv, hi)
    for m in range(lo, hi + 1):
        half, odd = divmod(m, 2)
        sign = Fraction(-1) ** (half + odd)
        yield m, chain[m], sign * (a_inv_x if odd else a_inv)


def _hoffman_conv(ctx: CheckContext, lo: int, hi: int):
    p_chain = ctx.chain("deriv_P", ctx.max_n)
    q_chain = ctx.chain("deriv_Q", ctx.max_n)
    for n in range(1, hi + 1):
        lhs = ctx.provider.poly("deriv_P", n + 1)
        yield n, lhs, binomial_convolution(p_chain, p_chain, n)
    for n in range(lo, hi + 1):
        lhs = ctx.provider.poly("deriv_Q", n + 1)
        yield n, lhs, binomial_convolution(p_chain, q_chain, n)


def _mfmy_conv(ctx: CheckContext, lo: int, hi: int):
    p_chain = ctx.chain("deriv_P", ctx.max_n)
    for n in range(lo, hi + 1):
        lhs = ctx.provider.poly("deriv_P", n + 2)
        yield n, lhs, 2 * binomial_convolution(p_chain, p_chain[1:], n)


def _pq_log(ctx: CheckContext, lo: int, hi: int):
    logged = TruncSeries(ctx.chain("deriv_Q", hi)).log()
    yield 0, logged.coeffs[0], LaurentPoly.zero()
    for n in range(1, hi + 1):
        yield n, logged.coeffs[n], ctx.provider.poly("deriv_P", n - 1)


def _beta_exp(ctx: CheckContext, lo: int, hi: int):
    poly = ctx.provider.poly
    x, one_plus_x2, two_x = Powers(X), Powers(_ONE_PLUS_X2), Powers(_TWO_X)
    for n in range(lo, hi + 1):
        q_n = poly("deriv_Q", n)
        l_table = _uni_table(poly("left_peak_uni", n))
        yield n, q_n, _expand(l_table, lambda k: (x[n - 2 * k], one_plus_x2[k]), ("x",))
    for n in range(1, hi + 1):
        extracted = sorted(beta_from_poly("Q", poly("deriv_Q", n), n).items())
        expected = sorted((k, int(v)) for k, v in _uni_table(poly("left_peak_uni", n)).items())
        yield n, str(extracted), str(expected)
    for n in range(1, hi + 1):
        p_n = poly("deriv_P", n)
        m_table = _uni_table(poly("interior_peak_uni", n))
        yield n, p_n, _expand(m_table, lambda k: (x[n - 2 * k - 1], one_plus_x2[k + 1]), ("x",))
    for n in range(1, ctx.oracle_cap() + 1):
        counts = structures.plane_leaf_counts(n, bound=ctx.oracle_max_n)
        rebuilt = _expand(counts, lambda k: (two_x[n + 1 - 2 * k], one_plus_x2[k]), ("x",))
        yield n, poly("deriv_P", n), rebuilt


def _beta_grammar(ctx: CheckContext, lo: int, hi: int):
    lifted = leaf_split_grammar()
    phi = {"x": X_OF_XY, "y": Y_OF_XY, "z": _X_SQUARED}
    ok, witness = verify_transformation(peak_grammar(), phi, lifted)
    if not ok:
        var, lhs, rhs = witness
        yield 0, f"{var}: {lhs.render()}", rhs.render()
    x3, y3, z3 = (LaurentPoly.variable(v, ("x", "y", "z")) for v in ("x", "y", "z"))
    lifted_chain = lifted.derivative_chain(x3, hi)
    y_powers, z_powers = Powers(y3), Powers(z3)
    for n in range(lo, hi + 1):
        expected = _expand(
            _uni_table(ctx.provider.poly("left_peak_uni", n)),
            lambda k: (x3 * y_powers[n - 2 * k], z_powers[k]),
            ("x", "y", "z"),
        )
        yield n, lifted_chain[n], expected


def _p_andre(ctx: CheckContext, lo: int, hi: int):
    half_u = (LaurentPoly.const(1) + _X_SQUARED) / 2
    inv_form = (LaurentPoly.monomial(("x",), (-2,)) + 1) / 2
    for n in range(lo, hi + 1):
        p_n = ctx.provider.poly("deriv_P", n)
        e_biv = ctx.provider.poly("andre_biv", n)
        yield n, 2 ** n * e_biv.substitute({"u": half_u, "v": X}), p_n
        e_uni = ctx.provider.poly("andre_uni", n)
        yield n, 2 ** n * (X ** (n + 1)) * e_uni.substitute({"u": inv_form}), p_n


def _ma_composition(ctx: CheckContext, lo: int, hi: int):
    order = 10
    full = elementary_series("tan", order + hi) + elementary_series("sec", order + hi)
    for n in range(lo, hi + 1):
        lhs = TruncSeries(full.coeffs[n : n + order + 1]) * Fraction(2 ** n)
        rhs = compose_poly_series(ctx.provider.poly("deriv_P", n), full.truncate(order))
        for m in range(order + 1):
            yield n, lhs.coeffs[m], rhs.coeffs[m]


def _springer(ctx: CheckContext, lo: int, hi: int):
    provider = ctx.provider
    for n in range(lo, hi + 1):
        springer = Fraction(provider.number("springer", n))
        yield n, springer, provider.poly("left_peak_uni", n).evaluate({"x": 2})
    for n in range(1, hi + 1):
        p_one = Fraction(provider.number("p_at_one", n))
        yield n, p_one, 2 * provider.poly("interior_peak_uni", n).evaluate({"x": 2})
        yield n, p_one, provider.poly("lr_peak_uni", n).evaluate({"x": 2})


def _springer_logconvex(ctx: CheckContext, lo: int, hi: int):
    values = [ctx.provider.number("springer", n) for n in range(hi + 2)]
    for n in range(lo, hi + 1):
        yield n, True, values[n] * values[n] <= values[n - 1] * values[n + 1]


def _tangent_secant(ctx: CheckContext, lo: int, hi: int):
    tan = elementary_series("tan", hi)
    sec = elementary_series("sec", hi)
    for n in range(lo, hi + 1):
        yield n, LaurentPoly.const(ctx.provider.number("tangent", n)), tan.coeffs[n]
        yield n, LaurentPoly.const(ctx.provider.number("secant", n)), sec.coeffs[n]


def _gen_multiplicative(ctx: CheckContext, lo: int, hi: int):
    a_ax = LaurentPoly.variable("a", ("a", "x"))
    x_ax = LaurentPoly.variable("x", ("a", "x"))
    for grammar, f, g in (
        (eulerian_grammar(), X_OF_XY, Y_OF_XY),
        (tangent_secant_grammar(), a_ax, x_ax),
    ):
        lhs = grammar.gen_coeffs(f * g, hi)
        yield from _coeff_pairs(lhs, grammar.gen_coeffs(f, hi) * grammar.gen_coeffs(g, hi), hi)


class IdentityEntry(NamedTuple):
    """A check: pairs(ctx, lo, hi) yields (n, lhs, rhs) over lo..hi(ctx).
    `points` names the variables it reads through ctx.point."""

    name: str
    description: str
    lo: int
    hi: Callable[[CheckContext], int]
    pairs: Callable[[CheckContext, int, int], Pairs]
    points: Tuple[str, ...] = ()


_MAX = _upto(0)
_ORACLE = CheckContext.oracle_cap
_GAMMA_SUB = {"u": X_OF_XY * Y_OF_XY, "v": _HALF_SUM}
_ANDRE_SUB = {"u": X_OF_XY * Y_OF_XY / 2, "v": _HALF_SUM}
_TWO_U = {"u": 2 * LaurentPoly.variable("u")}
_PQQ_SEED = _ONE_PLUS_X2 * LaurentPoly.monomial(("a", "x"), (-2, 0))

_ENTRIES = [
    IdentityEntry("andre_eulerian", "scaled 0-1-2-tree polynomials are the descent polynomials under xy=2u, x+y=2v", 1, _MAX, _per_n(lambda p, n: ((2 ** n * p.poly("andre_biv", n)).substitute(_ANDRE_SUB), p.poly("eulerian_biv", n)))),
    IdentityEntry("andre_oracle", "0-1-2-tree family equals its exhaustive tree count and the alternating count", 0, _ORACLE, _vs_oracle("andre_biv", extra=lambda ctx, n, _: (Fraction(ctx.provider.number("euler", n)), Fraction(structures.alternating_count(n, bound=ctx.oracle_max_n))))),
    IdentityEntry("beta_exp", "derivative polynomials expand over x^j (1+x^2)^k with peak coefficients and plane-tree leaf counts", 0, _MAX, _beta_exp),
    IdentityEntry("beta_grammar", "the z = x^2 lift of the peak grammar reproduces the left-peak expansion", 0, _MAX, _beta_grammar),
    IdentityEntry("bivariate_gessel", "bivariate left-peak closed form (corrected prefactor) at a radical-rational point", 0, _capped(12), _closed_form_at("bivariate_L", "left_peak_biv"), tuple(RADICAL_CLOSED_FORMS["bivariate_L"])),
    IdentityEntry("carlitz_scoville", "cross-multiplied exponential form of the descent generating function", 1, _MAX, _carlitz_scoville),
    IdentityEntry("david_barton_closed", "cosh(z) closed forms match the peak families at a Pythagorean point (corrected normalization)", 0, _capped(10), _david_barton_closed, ("x",)),
    IdentityEntry("david_barton_pde", "coefficient recurrences expanded from the peak partial differential equations", 0, _MAX, _david_barton_pde),
    IdentityEntry("deriv_recurrence", "grammar route equals the analytic recurrences for both derivative families", 0, _MAX, _per_n(lambda p, n: (recurrence_poly("P", n), p.poly("deriv_P", n)), lambda p, n: (recurrence_poly("Q", n), p.poly("deriv_Q", n)))),
    IdentityEntry("dumont_andre", "doubling the leaf weight turns binary-tree polynomials into scaled 0-1-2-tree polynomials", 1, _MAX, _per_n(lambda p, n: (p.poly("dumont", n).substitute(_TWO_U), 2 ** n * p.poly("andre_biv", n)))),
    IdentityEntry("dumont_oracle", "binary-tree family equals both exhaustive tree counts (binary and plane)", 1, _ORACLE, _vs_oracle("dumont", extra=lambda ctx, n, member: (member, structures.dumont_plane_oracle(n, bound=ctx.oracle_max_n)))),
    IdentityEntry("dumont_peak", "binary-tree polynomials at u=x^2, v=y are the interior-peak polynomials", 0, _MAX, _per_n(lambda p, n: (p.poly("dumont", n).substitute(_PEAK_SUB), p.poly("interior_peak_biv", n)))),
    IdentityEntry("euler_complex", "Euler numbers by Gaussian evaluation of the descent polynomials (descent-indexed convention)", 1, _MAX, _euler_complex),
    IdentityEntry("eulerian_egf", "closed-form generating function reproduces the bivariate descent polynomials", 0, _MAX, _eulerian_egf),
    IdentityEntry("eulerian_oracle", "descent/ascent statistic reproduces the bivariate descent polynomials", 1, _ORACLE, _vs_oracle("eulerian_biv")),
    IdentityEntry("forest_oracle", "planted-forest family equals the exhaustive forest count", 0, _ORACLE, _vs_oracle("planted_forest")),
    IdentityEntry("gamma_eulerian", "binary-tree polynomials substitute to the descent polynomials (u=xy, 2v=x+y)", 1, _MAX, _per_n(lambda p, n: (p.poly("dumont", n).substitute(_GAMMA_SUB), p.poly("eulerian_biv", n)))),
    IdentityEntry("gamma_expansion", "descent polynomials have nonnegative expansions over (xy)^k (x+y)^{n+1-2k}", 1, _MAX, _gamma_expansion),
    IdentityEntry("gen_multiplicative", "generating functions multiply: Gen(fg) = Gen(f) Gen(g)", 0, _capped(8), _gen_multiplicative),
    IdentityEntry("gessel", "left-peak closed form matches the family at a radical-rational point", 0, _MAX, _closed_form_at("gessel_L", "left_peak_uni"), tuple(RADICAL_CLOSED_FORMS["gessel_L"])),
    IdentityEntry("hoffman_conv", "binomial convolutions stepping both derivative families", 0, _upto(-1), _hoffman_conv),
    IdentityEntry("hoffman_egf", "four cross-multiplied trig generating functions for the derivative families", 0, _MAX, _hoffman_egf),
    IdentityEntry("hoffman_PQQ", "the (1+x^2)-weighted square of the secant family steps the tangent family", 0, _upto(-1), _steps(("deriv_P", "deriv_Q", "deriv_Q", _ONE_PLUS_X2), lead=lambda: (0, tangent_secant_grammar().derive(_PQQ_SEED), LaurentPoly.zero()))),
    IdentityEntry("inverse_pattern", "period-four sign pattern of the derivative chain on the reciprocal seed", 0, _MAX, _inverse_pattern),
    IdentityEntry("jv_oracles", "derivative families equal their empty-leaf tree and forest counts", 0, _ORACLE, _vs_oracle("deriv_P", "deriv_Q")),
    IdentityEntry("knuth_buckholtz", "tangent family at 1 equals 2^n times the Euler numbers", 0, _MAX, _per_n(lambda p, n: (p.number("p_at_one", n), 2 ** n * p.number("euler", n)))),
    IdentityEntry("L_squared_egf", "shifted descent series equals the squared left-peak series at a radical point", 0, _capped(10), _l_squared_egf, ("x", "y")),
    IdentityEntry("left_peak_convolution", "binary-tree polynomials at u=x^2 convolve the left-peak family (corrected prefactor)", 0, _upto(-1), _left_peak_convolution),
    IdentityEntry("LL_MM", "left-peak and interior-peak self-convolutions agree (univariate form corrected by x)", 1, _MAX, _ll_mm),
    IdentityEntry("LM_convolution", "left-peak family steps by convolving with the interior-peak family", 0, _upto(-1), _steps(("left_peak_biv", "left_peak_biv", "interior_peak_biv", None), ("left_peak_uni", "left_peak_uni", "interior_peak_uni", X))),
    IdentityEntry("M_convolution", "interior-peak family steps by its own self-convolution", 1, _upto(-1), _steps(("interior_peak_biv", "interior_peak_biv", "interior_peak_biv", None), ("interior_peak_uni", "interior_peak_uni", "interior_peak_uni", X))),
    IdentityEntry("ma_composition", "scaled derivatives of tan+sec equal tangent-family composition with it", 0, _capped(6), _ma_composition),
    IdentityEntry("mfmy_conv", "shifted self-convolution steps the tangent family by two", 0, _upto(-2), _mfmy_conv),
    IdentityEntry("MW_shift", "left-right-peak counts shift to interior-peak counts; W = x M", 1, _MAX, _mw_shift),
    IdentityEntry("p_andre", "tangent family from the 0-1-2-tree family by substitution and homogenization", 1, _MAX, _p_andre),
    IdentityEntry("p_eulerian_complex", "tangent family by Gaussian clearing of the descent polynomials", 1, _MAX, _per_n(lambda p, n: (substitute_rational(p.poly("eulerian_uni", n), "x", _CAYLEY, n + 1), p.poly("deriv_P", n)))),
    IdentityEntry("peak_L", "left-peak family equals its permutation-statistic count", 0, _ORACLE, _vs_oracle("left_peak_biv")),
    IdentityEntry("peak_M", "interior-peak family equals its permutation-statistic count", 1, _ORACLE, _vs_oracle("interior_peak_biv")),
    IdentityEntry("peak_W", "left-right-peak family equals its permutation-statistic count", 0, _ORACLE, _vs_oracle("lr_peak_biv")),
    IdentityEntry("petersen", "cleared rational substitution ties the left-peak family to the descent polynomials", 0, _MAX, _petersen),
    IdentityEntry("pq_log", "log of the secant-family series is the shifted tangent-family series", 0, _MAX, _pq_log),
    IdentityEntry("R_convolution", "seed x+y family steps by convolving with the left-peak family", 0, _upto(-1), _steps(("R_family", "left_peak_biv", "R_family", None))),
    IdentityEntry("springer", "Springer numbers via left-peak evaluation at 2; tangent family at 1 via 2 M_n(2) (corrected)", 0, _MAX, _springer),
    IdentityEntry("springer_logconvex_sanity", "finite log-convexity check of the Springer numbers", 1, _MAX, _springer_logconvex),
    IdentityEntry("stembridge", "cleared rational substitution ties the interior-peak family to the descent polynomials", 1, _MAX, _per_n(lambda p, n: (X * substitute_rational(p.poly("interior_peak_uni", n), "x", _PETERSEN, n - 1, clear=_ONE_PLUS_X), 2 ** (n - 1) * p.poly("eulerian_uni", n)))),
    IdentityEntry("tangent_secant", "family values at 0 are the tangent and secant numbers", 0, _MAX, _tangent_secant),
]

REGISTRY: Dict[str, IdentityEntry] = {entry.name: entry for entry in _ENTRIES}
IDENTITY_NAMES = tuple(sorted(REGISTRY))


def _entry(name: str) -> IdentityEntry:
    if name not in REGISTRY:
        raise UnknownIdentity(
            f"unknown identity {name!r}; run with 'all' or one of {IDENTITY_NAMES}"
        )
    return REGISTRY[name]


def check_points(points: Mapping[str, Fraction], names: Iterable[str]) -> Dict[str, Dict[str, Fraction]]:
    """Reject point keys that no check among `names` would read; return the
    values each of `names` reads: its bare keys, overridden by its
    "name.var" keys.

    A scoped key "identity.var" must name a registered identity and a
    variable it reads; it may target an identity that is not selected.  A
    bare key must be read by at least one selected identity.
    """
    values = {name: {} for name in names}
    reads = {name: _entry(name).points for name in values}
    for key, value in points.items():
        target, dot, var = key.partition(".")
        if not dot:
            readers = [name for name in values if key in reads[name]]
            if not readers:
                raise InvalidPoint(f"point {key!r}: no selected identity reads {key!r}")
            for name in readers:
                values[name].setdefault(key, value)
        elif target not in REGISTRY:
            raise InvalidPoint(f"point {key!r}: no identity named {target!r}")
        elif var not in REGISTRY[target].points:
            listed = ", ".join(REGISTRY[target].points)
            raise InvalidPoint(
                f"point {key!r}: {target} reads {listed}, not {var!r}"
                if listed
                else f"point {key!r}: {target} reads no point"
            )
        elif target in values:
            values[target][var] = value
    return values


def run_identity(
    name: str,
    max_n: int = DEFAULT_MAX_N,
    points: Optional[Mapping[str, Fraction]] = None,
    provider: Optional[GrammarFamilies] = None,
    oracle_max_n: int = DEFAULT_ORACLE_MAX_N,
) -> IdentityReport:
    """Run one registered identity and report pass/fail with a witness.

    A point key the identity would not read raises InvalidPoint (check_points).
    A range with hi < lo is reported as "empty", without running the check.
    A user-supplied point the check cannot use is reported as "invalid".
    """
    ctx = CheckContext(
        max_n=max_n,
        oracle_max_n=oracle_max_n,
        provider=provider or GrammarFamilies(),
        points=check_points(points or {}, (name,))[name],
    )
    entry = REGISTRY[name]
    lo, hi = entry.lo, entry.hi(ctx)
    if hi < lo:
        return IdentityReport(name, lo, hi, "empty", None, 0)
    start = time.perf_counter()
    status = "fail"
    try:
        witness = _mismatch(entry.pairs(ctx, lo, hi))
    except InvalidPoint as exc:
        status, witness = "invalid", {"error": str(exc)}
    except Exception as exc:  # a crashing checker is a failing checker
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    millis = int((time.perf_counter() - start) * 1000)
    if witness is None:
        status = "pass"
    return IdentityReport(name, lo, hi, status, witness, millis)


def run_all(
    max_n: int = DEFAULT_MAX_N,
    points: Optional[Mapping[str, Fraction]] = None,
    provider: Optional[GrammarFamilies] = None,
    oracle_max_n: int = DEFAULT_ORACLE_MAX_N,
) -> List[IdentityReport]:
    """Run every registered identity; reports come back ordered by name.

    The points are checked once against all identities, so a bare key that
    any of them reads is accepted.
    """
    values = check_points(points or {}, IDENTITY_NAMES)
    return [
        run_identity(name, max_n, values[name], provider, oracle_max_n)
        for name in IDENTITY_NAMES
    ]
