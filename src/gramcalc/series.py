"""Truncated exponential generating functions with Laurent-polynomial coefficients.

A TruncSeries of order N holds coefficients c_0..c_N for sum c_n t^n / n!
(EGF-normalized: c_n = n! * [t^n]).  Multiplication and division are binomial
convolutions; everything is exact.  Closed forms with radicals are expanded at
"radical-rational" points where every needed square root is itself rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple

from .errors import InvalidRadicalWitness, NonUnitConstantTerm
from .laurent import LaurentPoly, Powers, binomial_convolution, sum_of_products
from .scalar import Scalar, as_scalar, exact_sqrt


_ONE = LaurentPoly.const(1)


def _as_poly(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    return LaurentPoly.const(as_scalar(value))


class TruncSeries:
    """Order-N EGF with exact polynomial coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        coeffs = tuple(_as_poly(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries([LaurentPoly.zero()] * (order + 1))

    @staticmethod
    def constant(value, order: int) -> "TruncSeries":
        return TruncSeries([_as_poly(value)] + [LaurentPoly.zero()] * order)

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        return TruncSeries(self.coeffs[: order + 1])

    def _aligned(self, other: "TruncSeries"):
        n = min(self.order, other.order)
        return n, self.coeffs, other.coeffs

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order)
        n, a, b = self._aligned(other)
        return TruncSeries([a[k] + b[k] for k in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order)
        return self + -other

    def __rsub__(self, other):
        return TruncSeries.constant(other, self.order) - self

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            factor = _as_poly(other)
            return TruncSeries([factor * c for c in self.coeffs])
        n, a, b = self._aligned(other)
        return TruncSeries([binomial_convolution(a, b, m) for m in range(n + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            other = TruncSeries.constant(other, self.order)
        b0 = other.coeffs[0]
        if not b0.is_constant() or b0.is_zero():
            raise NonUnitConstantTerm(
                f"series division needs an invertible scalar constant term, "
                f"found {b0.render()}"
            )
        inv0 = Fraction(1) / b0.constant_value()
        a, b = self.coeffs, other.coeffs
        out = []
        for m in range(min(self.order, other.order) + 1):
            acc = sum_of_products(
                [(1, a[m], _ONE)] + [(-comb(m, k), out[k], b[m - k]) for k in range(m)]
            )
            out.append(acc * inv0)
        return TruncSeries(out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        inner = ", ".join(c.render() for c in self.coeffs)
        return f"TruncSeries([{inner}])"

    def d_dt(self) -> "TruncSeries":
        """Derivative in t: shifts coefficients left, order drops by one."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncSeries(self.coeffs[1:])

    def integrate(self) -> "TruncSeries":
        """Antiderivative with zero constant term; order grows by one."""
        return TruncSeries((LaurentPoly.zero(),) + self.coeffs)

    def log(self) -> "TruncSeries":
        """log of a series with constant term exactly 1."""
        if self.coeffs[0] != LaurentPoly.const(1):
            raise NonUnitConstantTerm(
                f"log needs constant term 1, found {self.coeffs[0].render()}"
            )
        if self.order == 0:
            return TruncSeries.zero(0)
        return (self.d_dt() / self.truncate(self.order - 1)).integrate()

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        if not self.coeffs[0].is_zero():
            raise NonUnitConstantTerm(
                f"exp needs zero constant term, found {self.coeffs[0].render()}"
            )
        out = [LaurentPoly.const(1)]
        shifted = self.coeffs[1:]
        for n in range(self.order):
            out.append(binomial_convolution(out, shifted, n))
        return TruncSeries(out)

    def evaluate_coeffs(self, point: Mapping[str, Scalar]):
        """Evaluate every coefficient at a scalar point."""
        return [c.evaluate(point) for c in self.coeffs]

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(payload: Mapping) -> "TruncSeries":
        return TruncSeries([LaurentPoly.from_json(c) for c in payload["coeffs"]])


# -- elementary series --------------------------------------------------------

ELEMENTARY_NAMES = ("exp", "sin", "cos", "tan", "sec", "sinh", "cosh", "log1p")
# name -> EGF coefficients of f(t), repeating mod the pattern's length
_PATTERNS = {"exp": (1,), "sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0), "sinh": (0, 1), "cosh": (1, 0)}


def elementary_series(name: str, order: int, scale=1) -> TruncSeries:
    """EGF coefficients of f(scale * t) for the classical elementary f."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    powers = Powers(_as_poly(scale), ())
    if name in _PATTERNS:
        pattern = _PATTERNS[name]
        return TruncSeries([powers[n] * pattern[n % len(pattern)] for n in range(order + 1)])
    if name == "tan":
        return elementary_series("sin", order, scale) / elementary_series(
            "cos", order, scale
        )
    if name == "sec":
        return TruncSeries.constant(1, order) / elementary_series("cos", order, scale)
    if name == "log1p":
        coeffs = [LaurentPoly.zero()]
        for n in range(1, order + 1):
            sign = 1 if n % 2 == 1 else -1
            coeffs.append(powers[n] * Fraction(sign * factorial(n - 1)))
        return TruncSeries(coeffs)
    raise ValueError(f"unknown elementary series {name!r}")


def compose_poly_series(poly: LaurentPoly, inner: TruncSeries) -> TruncSeries:
    """poly with its variable replaced by the series (outer polynomial only)."""
    return _composed(poly, [TruncSeries.constant(1, inner.order), inner])


def _composed(poly: LaurentPoly, powers: list) -> TruncSeries:
    """compose_poly_series over the powers [1, s, ...], extended in place."""
    effective = poly.live_vars()
    if len(effective) > 1:
        raise ValueError(f"composition needs a univariate polynomial, got {poly.vars}")
    if effective and poly.min_degree_in(effective[0]) < 0:
        raise ValueError("composition needs nonnegative exponents")
    order = powers[0].order
    if not effective:
        return TruncSeries.constant(poly.constant_value(), order)
    # every other exponent is 0, so each coefficient is a constant
    by_power = {e: c.constant_value() for e, c in poly.by_power(effective[0]).items()}
    while len(powers) <= max(by_power):
        powers.append(powers[-1] * powers[1])
    weights = sorted(by_power.items())
    return TruncSeries(
        [
            sum_of_products((c, powers[k].coeffs[m], _ONE) for k, c in weights)
            for m in range(order + 1)
        ]
    )


def compare_series(a: TruncSeries, b: TruncSeries) -> Tuple[bool, Optional[int]]:
    """Exact coefficientwise comparison; returns (equal, first mismatch index)."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    for n in range(a.order + 1):
        if a.coeffs[n] != b.coeffs[n]:
            return False, n
    return True, None


# -- radical-rational points and closed forms ---------------------------------


class RadicalPoint(NamedTuple):
    """A rational assignment at which needed square roots are rational.

    `witnesses` may pre-supply roots keyed by a label; a supplied witness is
    verified against the radicand (InvalidRadicalWitness on mismatch), and a
    missing one is derived by exact square root when possible.
    """

    values: Mapping[str, Fraction] = MappingProxyType({})
    witnesses: Mapping[str, Fraction] = MappingProxyType({})

    def value(self, var: str) -> Fraction:
        if var not in self.values:
            raise ValueError(f"radical point gives no value for {var!r}")
        return Fraction(self.values[var])

    def root(self, label: str, radicand: Fraction) -> Fraction:
        radicand = Fraction(radicand)
        if label in self.witnesses:
            witness = Fraction(self.witnesses[label])
            if witness * witness != radicand:
                raise InvalidRadicalWitness(
                    f"witness {witness} for {label} squares to "
                    f"{witness * witness}, not {radicand}"
                )
            return witness
        derived = exact_sqrt(radicand)
        if derived is None:
            raise InvalidRadicalWitness(
                f"{label} = {radicand} is not a rational square; "
                f"pick a radical-rational point"
            )
        return derived


CLOSED_FORM_NAMES = (
    "gessel_L",
    "bivariate_L",
    "hoffman_P",
    "hoffman_Q",
    "eulerian_egf",
)
# The closed forms expanded at a RadicalPoint, each with its default point,
# whose keys are the variables it reads; the others are symbolic.
RADICAL_CLOSED_FORMS = {
    "gessel_L": MappingProxyType({"x": Fraction(3, 4)}),
    "bivariate_L": MappingProxyType({"x": Fraction(3), "y": Fraction(5)}),
}


def closed_form_series(
    name: str, order: int, point: Optional[RadicalPoint] = None
) -> TruncSeries:
    """Expand one of the catalogued closed forms exactly to the given order.

    gessel_L and bivariate_L need a RadicalPoint (rational x with 1-x a
    rational square; rational x,y with y^2-x^2 a rational square).  hoffman_P,
    hoffman_Q and eulerian_egf are fully symbolic.
    """
    if name in RADICAL_CLOSED_FORMS:
        point = point or RadicalPoint(values=RADICAL_CLOSED_FORMS[name])
    if name == "gessel_L":
        x0 = point.value("x")
        r = point.root("1-x", 1 - x0)
        den = r * elementary_series("cosh", order, r) - elementary_series(
            "sinh", order, r
        )
        return TruncSeries.constant(r, order) / den
    if name == "bivariate_L":
        x0 = point.value("x")
        y0 = point.value("y")
        s = point.root("y^2-x^2", y0 * y0 - x0 * x0)
        den = s * elementary_series("cosh", order, s) - y0 * elementary_series(
            "sinh", order, s
        )
        return TruncSeries.constant(x0 * s, order) / den
    if name == "hoffman_P":
        x = LaurentPoly.variable("x")
        tan = elementary_series("tan", order)
        num = TruncSeries.constant(x, order) + tan
        den = TruncSeries.constant(1, order) - tan * x
        return num / den
    if name == "hoffman_Q":
        x = LaurentPoly.variable("x")
        den = elementary_series("cos", order) - elementary_series(
            "sin", order
        ) * x
        return TruncSeries.constant(1, order) / den
    if name == "eulerian_egf":
        # (y-x)/(1 - (x/y) e^{(y-x)t}) = y/(1 - x E), E = (e^{(y-x)t} - 1)/(y-x)
        if order < 0:
            raise ValueError("order must be nonnegative")
        x = LaurentPoly.variable("x", ("x", "y"))
        y = LaurentPoly.variable("y", ("x", "y"))
        powers = Powers(y - x)
        e = TruncSeries([LaurentPoly.zero(x.vars)] + [powers[n] for n in range(order)])
        return TruncSeries.constant(y, order) / (TruncSeries.constant(1, order) - e * x)
    raise ValueError(f"unknown closed form {name!r}")
