"""Named polynomial families, their grammars and seeds, and expansion extractors.

Every family is produced by iterating a grammar derivative on a seed;
univariate variants are exponent-pattern projections of the bivariate ones.
Two table values that standard printings get wrong are corrected here and
recorded in the errata data (see gramcalc.errata): the secant-side value at
n=2 is 1+2x^2 (not 1+x^2), and the second forest derivative is a(v^2+u)
(not a(v^2+vu)); both corrections are confirmed by the recurrence route and
by brute-force enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Mapping, NamedTuple, Tuple

from .errors import (
    CrossCheckFailed,
    NotBetaExpressible,
    NotGammaExpressible,
    UnknownFamily,
    UnknownSequence,
)
from .grammar import Grammar
from .laurent import LaurentPoly, Powers, parse_poly
from .scalar import Scalar

# -- the grammars -------------------------------------------------------------


def eulerian_grammar() -> Grammar:
    v = ("x", "y")
    return Grammar(v, {"x": parse_poly("x*y", v), "y": parse_poly("x*y", v)})


def binary_tree_grammar() -> Grammar:
    v = ("u", "v")
    return Grammar(v, {"u": parse_poly("2*u*v", v), "v": parse_poly("u", v)})


def plane_tree_grammar() -> Grammar:
    v = ("u", "v")
    return Grammar(v, {"u": parse_poly("u*v", v), "v": parse_poly("u", v)})


def peak_grammar() -> Grammar:
    v = ("x", "y")
    return Grammar(v, {"x": parse_poly("x*y", v), "y": parse_poly("x^2", v)})


def tangent_secant_grammar() -> Grammar:
    v = ("a", "x")
    return Grammar(v, {"a": parse_poly("a*x", v), "x": parse_poly("1 + x^2", v)})


def forest_grammar() -> Grammar:
    v = ("a", "v", "u")
    return Grammar(
        v, {"a": parse_poly("a*v", v), "v": parse_poly("u", v), "u": parse_poly("2*u*v", v)}
    )


def leaf_split_grammar() -> Grammar:
    """The three-variable form of the peak grammar with z standing for x^2."""
    v = ("x", "y", "z")
    return Grammar(
        v, {"x": parse_poly("x*y", v), "y": parse_poly("z", v), "z": parse_poly("2*y*z", v)}
    )


# -- derivative chains, cached -------------------------------------------------

_CHAINS: Dict[str, Tuple[Grammar, LaurentPoly]] = {}
# key -> (D^0 seed, D^1 seed, ...); only finished tuples are published, so
# concurrent callers never see a chain another thread is still extending
_CHAIN_CACHE: Dict[str, Tuple[LaurentPoly, ...]] = {}


def _chain(key: str, n: int) -> LaurentPoly:
    chain = _CHAIN_CACHE.get(key, ())
    if len(chain) <= n:
        if key not in _CHAINS:
            grammar_factory, seed_text = _CHAIN_DEFS[key]
            grammar = grammar_factory()
            _CHAINS[key] = (grammar, parse_poly(seed_text, grammar.vars))
        grammar, seed = _CHAINS[key]
        built = list(chain or (seed,))
        while len(built) <= n:
            built.append(grammar.derive(built[-1]))
        chain = _CHAIN_CACHE[key] = tuple(built)
    return chain[n]


_CHAIN_DEFS = {
    "eulerian": (eulerian_grammar, "y"),
    "dumont": (binary_tree_grammar, "v"),
    "andre": (plane_tree_grammar, "v"),
    "peak_x": (peak_grammar, "x"),
    "peak_y": (peak_grammar, "y"),
    "peak_xy": (peak_grammar, "x + y"),
    "deriv_x": (tangent_secant_grammar, "x"),
    "deriv_a": (tangent_secant_grammar, "a"),
    "forest_a": (forest_grammar, "a"),
}


# -- family registry ------------------------------------------------------------


def _strip_factor(poly: LaurentPoly, var: str) -> LaurentPoly:
    """Exact quotient by the single variable var (e.g. reading a*Q_n as Q_n)."""
    return poly.exact_divide(LaurentPoly.variable(var))


def _project(poly: LaurentPoly, n: int, exponent_map) -> LaurentPoly:
    """Collapse a bivariate x,y polynomial onto x^k via (x-exp, y-exp) -> k."""

    def k_of(exps):
        by_var = dict(zip(poly.vars, exps))
        return (exponent_map(by_var.get("x", 0), by_var.get("y", 0), n),)

    return poly.collect(k_of, ("x",))


def _peak_k(kind: str, lowest: int) -> Callable[[int, int, int], int]:
    """Exponent map of a peak pattern: x^a y^b with a = lowest + 2k and
    b = n + 1 - a projects to k."""

    def k_of(a: int, b: int, n: int) -> int:
        if a < lowest or (a - lowest) % 2 or b != n + 1 - a:
            raise ValueError(f"not {kind} pattern: x^{a}y^{b}")
        return (a - lowest) // 2

    return k_of


def _build_registry() -> Dict[str, Callable[[int], LaurentPoly]]:
    one = LaurentPoly.const(1, ("x",))
    x_inverse = LaurentPoly.monomial(("x",), (-1,))

    def eulerian_biv(n):
        return _chain("eulerian", n)

    def eulerian_uni(n):
        return _chain("eulerian", n).substitute({"y": LaurentPoly.const(1)})

    def dumont(n):
        return _chain("dumont", n)

    def andre_biv(n):
        return LaurentPoly.const(1, ("u", "v")) if n == 0 else _chain("andre", n)

    def andre_uni(n):
        return andre_biv(n).substitute({"v": LaurentPoly.const(1)})

    def left_peak_biv(n):
        return _chain("peak_x", n)

    def left_peak_uni(n):
        return _project(_chain("peak_x", n), n, _peak_k("a left-peak", 1))

    def interior_peak_biv(n):
        return _chain("peak_y", n)

    def interior_peak_uni(n):
        if n == 0:
            return x_inverse
        return _project(_chain("peak_y", n), n, _peak_k("an interior-peak", 2))

    def lr_peak_biv(n):
        return _chain("peak_y", n)

    def lr_peak_uni(n):
        if n == 0:
            return one
        return _project(_chain("peak_y", n), n, _peak_k("a left-right-peak", 0))

    def r_family(n):
        return _chain("peak_xy", n)

    def deriv_p(n):
        return _chain("deriv_x", n).restricted(("x",))

    def deriv_q(n):
        return _strip_factor(_chain("deriv_a", n), "a").restricted(("x",))

    def planted_forest(n):
        return _strip_factor(_chain("forest_a", n), "a").restricted(("v", "u"))

    return {
        "eulerian_biv": eulerian_biv,  # bivariate descent/ascent polynomials
        "eulerian_uni": eulerian_uni,  # descent polynomials at y=1
        "dumont": dumont,  # increasing-binary-tree polynomials
        "andre_biv": andre_biv,  # 0-1-2 increasing-tree polynomials
        "andre_uni": andre_uni,  # 0-1-2 tree polynomials at v=1
        "left_peak_biv": left_peak_biv,  # bivariate left-peak polynomials
        "left_peak_uni": left_peak_uni,  # left-peak polynomials
        "interior_peak_biv": interior_peak_biv,  # bivariate interior-peak polynomials
        "interior_peak_uni": interior_peak_uni,  # interior-peak polynomials
        "lr_peak_biv": lr_peak_biv,  # bivariate left-right-peak polynomials
        "lr_peak_uni": lr_peak_uni,  # left-right-peak polynomials
        "R_family": r_family,  # seed x+y under the peak grammar
        "deriv_P": deriv_p,  # tangent derivative polynomials
        "deriv_Q": deriv_q,  # secant derivative polynomials
        "planted_forest": planted_forest,  # planted-forest polynomials in u,v
    }


REGISTRY: Dict[str, Callable[[int], LaurentPoly]] = _build_registry()
FAMILY_NAMES = tuple(REGISTRY)


def family_poly(name: str, n: int) -> LaurentPoly:
    """The n-th member of a registered family."""
    if name not in REGISTRY:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    if n < 0:
        raise ValueError("family index must be nonnegative")
    return REGISTRY[name](n)


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


def _extract(poly, ks, monomial, basis, error, label) -> Dict[int, int]:
    """Integer coefficients of poly over basis(k), extracted in ks order: the
    monomial(k) coefficient of the remainder pins the k-th one.  The residual
    must vanish exactly; otherwise error(message) is raised."""
    remainder = poly
    entries: Dict[int, int] = {}
    for k in ks:
        coeff = remainder.coefficient(monomial(k))
        if coeff != 0:
            not_int = f"{label} coefficient {coeff} is not an integer"
            entries[k] = _as_int(coeff, lambda: error(not_int))
            remainder = remainder - basis(k) * coeff
    if not remainder.is_zero():
        raise error(f"residual {remainder.render()} after extracting {entries}")
    return entries


def gamma_from_poly(poly: LaurentPoly, n: int) -> Dict[int, int]:
    """Coefficients in the basis (xy)^k (x+y)^{n+1-2k}, k = 1..floor((n+1)/2).

    Triangular extraction: the x^k y^{n+1-k} monomial of the remainder pins
    the k-th coefficient.  The residual must vanish exactly.
    """
    x = LaurentPoly.variable("x", ("x", "y"))
    y = LaurentPoly.variable("y", ("x", "y"))
    xy, x_plus_y = Powers(x * y), Powers(x + y)
    return _extract(
        poly,
        range(1, (n + 1) // 2 + 1),
        lambda k: {"x": k, "y": n + 1 - k},
        lambda k: xy[k] * x_plus_y[n + 1 - 2 * k],
        NotGammaExpressible,
        "gamma",
    )


def gamma_expansion(n: int) -> CoefficientTable:
    if n < 1:
        raise ValueError("gamma expansion defined for n >= 1")
    return CoefficientTable(
        "eulerian_biv", n, gamma_from_poly(family_poly("eulerian_biv", n), n)
    )


def beta_from_poly(which: str, poly: LaurentPoly, n: int) -> Dict[int, int]:
    """Coefficients in the x^j (1+x^2)^m bases of the two derivative families.

    For Q: basis x^{n-2k}(1+x^2)^k, k = 0..floor(n/2) (left-peak numbers).
    For P: basis x^{n-2k-1}(1+x^2)^{k+1}, k = 0..floor((n-1)/2) (interior-peak
    numbers).  Extraction runs from the top k down; the lowest surviving power
    of x pins each coefficient.  The residual must vanish exactly.
    """
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    shift = 0 if which == "Q" else 1
    x = LaurentPoly.variable("x")
    x_powers, one_plus_x2 = Powers(x), Powers(LaurentPoly.const(1) + x * x)
    return _extract(
        poly,
        range((n - shift) // 2, -1, -1),
        lambda k: {"x": n - 2 * k - shift},
        lambda k: x_powers[n - 2 * k - shift] * one_plus_x2[k + shift],
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
    one_plus_x2 = LaurentPoly.const(1) + x * x
    current = x if which == "P" else LaurentPoly.const(1, ("x",))
    for _ in range(n):
        step = one_plus_x2 * current.partial_derivative("x")
        if which == "Q":
            step = step + x * current
        current = step
    family = "deriv_P" if which == "P" else "deriv_Q"
    if current != family_poly(family, n):
        raise CrossCheckFailed(f"recurrence/grammar mismatch at {which}_{n}")
    return current
