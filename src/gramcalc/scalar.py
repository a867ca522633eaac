"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

A scalar is either a `fractions.Fraction` (the rational kind) or a
`GaussianRational` (the complex kind, re + im*i with rational parts).
Arithmetic canonicalizes: any Gaussian value whose imaginary part is zero
collapses back to a plain Fraction, so a Gaussian scalar with zero imaginary
part *is* the corresponding rational, and mixed rational/Gaussian arithmetic
works through the usual reflected operators.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, ParseError

Scalar = Union[Fraction, "GaussianRational"]

ZERO = Fraction(0)
ONE = Fraction(1)


def make_gaussian(re, im) -> Scalar:
    """Build a scalar from rational real/imaginary parts, collapsing to Fraction."""
    re = Fraction(re)
    im = Fraction(im)
    if im == 0:
        return re
    return GaussianRational(re, im)


class GaussianRational:
    """A Gaussian rational with a guaranteed nonzero imaginary part.

    Constructing one with im == 0 is a ValueError; make_gaussian returns a
    plain Fraction in that case.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        if im == 0:
            raise ValueError("a GaussianRational needs a nonzero imaginary part; use make_gaussian")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return make_gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return make_gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return make_gaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return make_gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero scalar")
            return make_gaussian(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return make_gaussian(other, 0) * self.inverse()
        return NotImplemented

    def inverse(self) -> Scalar:
        norm = self.re * self.re + self.im * self.im
        return make_gaussian(self.re / norm, -self.im / norm)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base: Scalar = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result: Scalar = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return False  # im is nonzero by construction
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return True

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_scalar(self)


I = GaussianRational(ZERO, ONE)


def as_scalar(value) -> Scalar:
    """Coerce an int/Fraction/GaussianRational/str into a scalar."""
    if isinstance(value, (Fraction, GaussianRational)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def render_scalar(value: Scalar) -> str:
    """Canonical text form: 'p/q' for rationals, '(re+im*i)' for Gaussians."""
    if isinstance(value, GaussianRational):
        sign = "+" if value.im >= 0 else "-"
        return f"({value.re}{sign}{abs(value.im)}*i)"
    return str(value)


# The Gaussian literal (re±im*i) as render_scalar writes it; the polynomial
# reader's factor pattern embeds this one definition.
GAUSSIAN = r"(?P<gauss>\(\s*(?P<re>-?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*\*\s*i\s*\))"


def gaussian_value(match) -> Scalar:
    """The value of a GAUSSIAN match; a zero denominator is a ParseError at its start."""
    try:
        re_part, im_part = Fraction(match["re"]), Fraction(match["im"])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {match['gauss']!r}: {exc}", match.start("gauss")) from None
    return make_gaussian(re_part, -im_part if match["sign"] == "-" else im_part)


def parse_scalar(text: str) -> Scalar:
    """Inverse of render_scalar; a rational is read as the JSON readers read
    one, so exponent notation is a ParseError."""
    text = text.strip()
    match = _re.fullmatch(GAUSSIAN, text)  # compiled on first use, not at import
    if match:
        return gaussian_value(match)
    return _rational_from_json(text)


def scalar_to_json(value: Scalar):
    """JSON form: 'p/q' string, or {'re': .., 'im': ..} for Gaussians."""
    if isinstance(value, GaussianRational):
        return {"re": str(value.re), "im": str(value.im)}
    return str(value)


def scalar_from_json(payload) -> Scalar:
    """Inverse of scalar_to_json; a JSON integer reads as itself.  Anything
    else, true and false among it, is a ParseError."""
    if isinstance(payload, dict) and {"re", "im"} <= payload.keys():
        return make_gaussian(_rational_from_json(payload["re"]), _rational_from_json(payload["im"]))
    return _rational_from_json(payload)


def json_field(payload, key: str, kind, what: str, each: type | None = None):
    """payload[key] of a JSON object: a `kind` (true and false are no int) whose
    items, given `each`, are each of that type; else a ParseError about `what`."""
    if not isinstance(payload, dict) or key not in payload:
        raise ParseError(f"{what} JSON has no {key!r} key", 0)
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool) or each and any(type(v) is not each for v in value):
        raise ParseError(f"{what} JSON {key!r} holds the wrong JSON type", 0)
    return value


def exponent_notation(text: str) -> bool:
    """Whether a rational's text uses exponent notation, which readers refuse:
    Fraction("1e10000000") would build 10^10^7 before any check."""
    return "e" in text.lower()


def _rational_from_json(payload) -> Fraction:
    if isinstance(payload, str):
        if exponent_notation(payload):
            raise ParseError(f"bad scalar {payload!r}: exponent notation", 0)
        try:
            return Fraction(payload)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {payload!r}: {exc}", 0) from None
    if isinstance(payload, int) and not isinstance(payload, bool):
        return Fraction(payload)
    raise ParseError(f"bad scalar payload {payload!r}", 0)


def exact_sqrt(value: Fraction):
    """Exact nonnegative square root of a rational, or None if irrational."""
    if value < 0:
        return None
    import math

    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root != value.numerator:
        return None
    if den_root * den_root != value.denominator:
        return None
    return Fraction(num_root, den_root)
