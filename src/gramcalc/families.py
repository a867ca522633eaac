"""Named polynomial families, their grammars and seeds, and expansion extractors.

Every family is one row of a table: a grammar and a seed, whose member n is
the n-th derivative of the seed, or a read-out of another row (univariate
variants are exponent-pattern projections of the bivariate ones).
Two table values that standard printings get wrong are corrected here and
recorded in the errata data (see gramcalc.errata): the secant-side value at
n=2 is 1+2x^2 (not 1+x^2), and the second forest derivative is a(v^2+u)
(not a(v^2+vu)); both corrections are confirmed by the recurrence route and
by brute-force enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Dict, Mapping, NamedTuple, Tuple

from .errors import (
    CrossCheckFailed,
    NotBetaExpressible,
    NotGammaExpressible,
    UnknownFamily,
    UnknownSequence,
)
from .grammar import Grammar, parse_grammar
from .laurent import LaurentPoly, Powers, _extended, parse_poly, sum_of_products
from .scalar import Scalar

# -- the grammars -------------------------------------------------------------

# name -> rules, in the text Grammar.to_text writes
_GRAMMARS: Dict[str, str] = {
    "eulerian": "x -> x*y\ny -> x*y",
    "binary_tree": "u -> 2*u*v\nv -> u",
    "plane_tree": "u -> u*v\nv -> u",
    "peak": "x -> x*y\ny -> x^2",
    "tangent_secant": "a -> a*x\nx -> x^2 + 1",
    "forest": "a -> a*v\nv -> u\nu -> 2*v*u",
    "leaf_split": "x -> x*y\ny -> z\nz -> 2*y*z",  # the peak grammar, z standing for x^2
}


@cache
def grammar(name: str) -> Grammar:
    """The catalog grammar `name`, read from _GRAMMARS once.  Each rule is put on
    the grammar's table, so derive never reindexes it, with its terms in
    ascending exponent order: that order sets the stored order of each member."""
    read = parse_grammar(_GRAMMARS[name])
    rules = {var: sorted(rule.restricted(read.vars).terms.items()) for var, rule in read.rules.items()}
    return Grammar(read.vars, {var: LaurentPoly(read.vars, dict(terms)) for var, terms in rules.items()})


# -- the family table -----------------------------------------------------------


def _at_one(var: str):
    """Read-out: the member with var set to 1 (LaurentPoly.at_one)."""
    return lambda poly, n: poly.at_one(var)


def _over_a(*variables: str):
    """Read-out: the member over a (reading a*Q_n as Q_n) on the table
    `variables`.  Every term must have a^1, so cutting a's field out of the
    keys divides; any other member raises ValueError, as restricted does for
    a live a."""

    def read(poly: LaurentPoly, n: int) -> LaurentPoly:
        if poly and not poly.min_degree_in("a") == poly.degree_in("a") == 1:
            raise ValueError("cannot drop live variable 'a'")
        return poly.at_one("a").restricted(variables)

    return read


def _peaks(kind: str, lowest: int, at_zero: str | None = None):
    """Read-out onto x^k: x^a y^b with a = lowest + 2k and b = n + 1 - a gives
    x^k, and any other term raises ValueError.  Member 0 is at_zero if given,
    parsed on its first read (_READS keeps it), so importing parses nothing."""

    def read(poly: LaurentPoly, n: int) -> LaurentPoly:
        if n == 0 and at_zero is not None:
            return parse_poly(at_zero, ("x",))

        def k_of(exps):
            by_var = dict(zip(poly.vars, exps))
            a, b = by_var.get("x", 0), by_var.get("y", 0)
            if a < lowest or (a - lowest) % 2 or b != n + 1 - a:
                raise ValueError(f"not {kind} pattern: x^{a}y^{b}")
            return ((a - lowest) // 2,)

        return poly.collect(k_of, ("x",))

    return read


# name -> (_GRAMMARS name, seed text): member n is D^n(seed); or
# name -> (source row, read): member n is read(source member n, n).
# Rows named _... are chains that only other rows read.
_FAMILIES: Dict[str, Tuple[str, Callable | str]] = {
    "eulerian_biv": ("eulerian", "y"),  # bivariate descent/ascent polynomials
    "eulerian_uni": ("eulerian_biv", _at_one("y")),  # descent polynomials
    "dumont": ("binary_tree", "v"),  # increasing-binary-tree polynomials
    "_andre": ("plane_tree", "v"),  # 0-1-2 increasing trees, but D^0 is v
    "andre_biv": ("_andre", lambda poly, n: poly if n else LaurentPoly.const(1, ("u", "v"))),
    "andre_uni": ("andre_biv", _at_one("v")),  # 0-1-2 tree polynomials at v=1
    "left_peak_biv": ("peak", "x"),  # bivariate left-peak polynomials
    "left_peak_uni": ("left_peak_biv", _peaks("a left-peak", 1)),
    "interior_peak_biv": ("peak", "y"),  # bivariate interior-peak polynomials
    "interior_peak_uni": ("interior_peak_biv", _peaks("an interior-peak", 2, "x^-1")),
    "lr_peak_biv": ("interior_peak_biv", lambda poly, n: poly),  # the same polynomials
    "lr_peak_uni": ("interior_peak_biv", _peaks("a left-right-peak", 0, "1")),
    "R_family": ("peak", "x + y"),
    "_tangent": ("tangent_secant", "x"),
    "deriv_P": ("_tangent", lambda poly, n: poly.restricted(("x",))),  # tangent derivative polynomials
    "_secant": ("tangent_secant", "a"),
    "deriv_Q": ("_secant", _over_a("x")),  # secant derivative polynomials
    "_forest": ("forest", "a"),
    "planted_forest": ("_forest", _over_a("v", "u")),  # planted forests in u,v
}
FAMILY_NAMES = tuple(name for name in _FAMILIES if not name.startswith("_"))

# chain row -> (D^0 seed, D^1 seed, ...); only finished tuples are published,
# so no caller sees a chain another thread is still extending
_CHAINS: Dict[str, Tuple[LaurentPoly, ...]] = {}
# (read row, n) -> member n; a read is stored only once it has returned, and
# setdefault hands every racing caller the first value stored
_READS: Dict[Tuple[str, int], LaurentPoly] = {}


def _member(name: str, n: int) -> LaurentPoly:
    source, rule = _FAMILIES[name]
    if callable(rule):
        member = _READS.get((name, n))
        if member is None:
            member = _READS.setdefault((name, n), rule(_member(source, n), n))
        return member
    g = grammar(source)
    chain = _CHAINS.get(name) or _CHAINS.setdefault(name, (parse_poly(rule, g.vars),))
    if len(chain) <= n:
        chain = _CHAINS[name] = _extended(chain, n, g.derive)
    return chain[n]


def family_poly(name: str, n: int) -> LaurentPoly:
    """The n-th member of a registered family."""
    if name not in FAMILY_NAMES:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    if n < 0:
        raise ValueError("family index must be nonnegative")
    return _member(name, n)


# sequence name -> (family, evaluation point)
SEQUENCES: Dict[str, Tuple[str, Dict[str, int]]] = {
    "euler": ("andre_biv", {"u": 1, "v": 1}),
    "tangent": ("deriv_P", {"x": 0}),
    "secant": ("deriv_Q", {"x": 0}),
    "springer": ("deriv_Q", {"x": 1}),
    "p_at_one": ("deriv_P", {"x": 1}),
}


def family_number(
    name: str, n: int, poly: Callable[[str, int], LaurentPoly] = family_poly
) -> int:
    """Integer sequences read off the families (as `poly` gives them) by exact
    evaluation."""
    if n < 0:
        raise ValueError("sequence index must be nonnegative")
    if name not in SEQUENCES:
        raise UnknownSequence(
            f"unknown sequence {name!r}; known: {', '.join(SEQUENCES)}"
        )
    family, point = SEQUENCES[name]
    value = poly(family, n).evaluate(point)
    return _as_int(value, lambda: ValueError(f"{name}({n}) is not an integer: {value}"))


def _as_int(value: Scalar, error: Callable[[], Exception]) -> int:
    """value as an int; raises error() when it is not an integer."""
    if not isinstance(value, Fraction) or value.denominator != 1:
        raise error()
    return value.numerator


# -- gamma / beta expansions ----------------------------------------------------


class CoefficientTable(NamedTuple):
    family: str
    n: int
    entries: Mapping[int, int]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "entries": {str(k): v for k, v in sorted(self.entries.items())},
        }


_ONE = LaurentPoly.const(1)


def _extract(poly, ks, monomial, basis, error, label) -> Dict[int, int]:
    """Integer coefficients of poly over the products p * q, (p, q) = basis(k),
    extracted in ks order: the monomial(k) coefficient of the remainder pins
    the k-th one, and remainder * 1 - coeff * p * q is one sum.  The residual
    must vanish exactly; otherwise error(message) is raised."""
    remainder = poly
    entries: Dict[int, int] = {}
    for k in ks:
        coeff = remainder.coefficient(monomial(k))
        if coeff != 0:
            not_int = f"{label} coefficient {coeff} is not an integer"
            entries[k] = _as_int(coeff, lambda: error(not_int))
            p, q = basis(k)
            remainder = sum_of_products(((1, remainder, _ONE), (-entries[k], p, q)), remainder.vars)
    if not remainder.is_zero():
        raise error(f"residual {remainder.render()} after extracting {entries}")
    return entries


def gamma_basis(n: int):
    """k -> the factors (xy)^k, (x+y)^{n+1-2k} of the gamma basis of degree n+1."""
    x = LaurentPoly.variable("x", ("x", "y"))
    y = LaurentPoly.variable("y", ("x", "y"))
    xy, x_plus_y = Powers(x * y), Powers(x + y)
    return lambda k: (xy[k], x_plus_y[n + 1 - 2 * k])


def gamma_from_poly(poly: LaurentPoly, n: int) -> Dict[int, int]:
    """Coefficients in the basis (xy)^k (x+y)^{n+1-2k}, k = 1..floor((n+1)/2).

    Triangular extraction: the x^k y^{n+1-k} monomial of the remainder pins
    the k-th coefficient.  The residual must vanish exactly.
    """
    return _extract(
        poly,
        range(1, (n + 1) // 2 + 1),
        lambda k: {"x": k, "y": n + 1 - k},
        gamma_basis(n),
        NotGammaExpressible,
        "gamma",
    )


def gamma_expansion(n: int) -> CoefficientTable:
    if n < 1:
        raise ValueError("gamma expansion defined for n >= 1")
    return CoefficientTable(
        "eulerian_biv", n, gamma_from_poly(family_poly("eulerian_biv", n), n)
    )


_BETA_SHIFT = {"Q": 0, "P": 1}


def beta_basis(which: str, n: int):
    """k -> the factors x^{n-2k-s}, (1+x^2)^{k+s} of the beta basis of the
    derivative family `which`, with s = _BETA_SHIFT[which]."""
    shift = _BETA_SHIFT[which]
    x = LaurentPoly.variable("x")
    x_powers, one_plus_x2 = Powers(x), Powers(LaurentPoly.const(1) + x * x)
    return lambda k: (x_powers[n - 2 * k - shift], one_plus_x2[k + shift])


def beta_from_poly(which: str, poly: LaurentPoly, n: int) -> Dict[int, int]:
    """Coefficients in the x^j (1+x^2)^m bases of the two derivative families.

    For Q: basis x^{n-2k}(1+x^2)^k, k = 0..floor(n/2) (left-peak numbers).
    For P: basis x^{n-2k-1}(1+x^2)^{k+1}, k = 0..floor((n-1)/2) (interior-peak
    numbers).  Extraction runs from the top k down; the lowest surviving power
    of x pins each coefficient.  The residual must vanish exactly.
    """
    if which not in _BETA_SHIFT:
        raise ValueError("which must be 'P' or 'Q'")
    shift = _BETA_SHIFT[which]
    return _extract(
        poly,
        range((n - shift) // 2, -1, -1),
        lambda k: {"x": n - 2 * k - shift},
        beta_basis(which, n),
        NotBetaExpressible,
        "beta",
    )


def beta_expansion(which: str, n: int) -> CoefficientTable:
    if n < 1:
        raise ValueError("beta expansion defined for n >= 1")
    family = "deriv_P" if which == "P" else "deriv_Q"
    return CoefficientTable(
        family, n, beta_from_poly(which, family_poly(family, n), n)
    )


# -- the analytic recurrence route ----------------------------------------------

# "P" or "Q" -> (R_0, R_1, ...), published like _CHAINS
_RECURRENCES: Dict[str, Tuple[LaurentPoly, ...]] = {}


def recurrence_poly(which: str, n: int) -> LaurentPoly:
    """P_n / Q_n by the derivative recurrences, independent of any grammar.

    P_0 = x, P_{m+1} = (1+x^2) P_m'; Q_0 = 1, Q_{m+1} = (1+x^2) Q_m' + x Q_m.
    A result that differs from the grammar route raises CrossCheckFailed.
    """
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    if n < 0:
        raise ValueError("index must be nonnegative")
    x = LaurentPoly.variable("x")
    chain = _RECURRENCES.get(which) or (x if which == "P" else LaurentPoly.const(1, ("x",)),)
    if len(chain) <= n:
        one_plus_x2 = LaurentPoly.const(1) + x * x

        def step(current: LaurentPoly) -> LaurentPoly:
            slope = one_plus_x2 * current.partial_derivative("x")
            return slope + x * current if which == "Q" else slope

        chain = _RECURRENCES[which] = _extended(chain, n, step)
    current = chain[n]
    family = "deriv_P" if which == "P" else "deriv_Q"
    if current != family_poly(family, n):
        raise CrossCheckFailed(f"recurrence/grammar mismatch at {which}_{n}")
    return current
