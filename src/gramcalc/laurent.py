"""Exact multivariate Laurent polynomials over rational / Gaussian-rational scalars.

A polynomial carries an ordered variable table and a sparse map from
monomials to nonzero scalars.  Values are immutable; every operation returns
a fresh polynomial.  Mixed-table arithmetic aligns on the union of the two
tables (left operand's order first).

Storage is integer: a positive int `den` and a dict from packed monomial key
to int numerator, or to an (re, im) int pair when some coefficient is
Gaussian, with gcd(den, every numerator part) == 1 and the pair form used
only when some im != 0.  A packed key holds a whole exponent vector in one
int: one 22-bit field per variable of the table, the first variable most
significant, each field holding e + 2^21.  Exponents lie in
[-2^20, 2^20); an exponent outside that range raises ExponentOverflow where
it is made (constructor, product, derivative, division), never wraps.  In
that range the sum of two keys less one bias per field never carries, so a
product's key is ka + kb - bias, and keys compare as their exponent vectors
do lexicographically.  Equal polynomials over one table store equal
(den, packed map).  `.nums` (exponent vector -> numerator) and `.terms`
(exponent vector -> Fraction/GaussianRational) are read-only views of the
same map in the same key order, each built on first read.

Canonical term order — descending total degree, ties broken by descending
lexicographic exponent vector — fixes rendering and JSON byte-for-byte.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

from .errors import (
    DivisionByZero,
    ExponentOverflow,
    InsufficientClearing,
    NonInvertibleSubstitution,
    ParseError,
)
from .scalar import (
    GAUSSIAN,
    GaussianRational,
    Scalar,
    as_scalar,
    gaussian_value,
    render_scalar,
    scalar_from_json,
    scalar_to_json,
)

Exponents = Tuple[int, ...]


def _term_sort_key(exps: Exponents):
    # Descending total degree, then descending lex on the exponent vector.
    return (-sum(exps), tuple(-e for e in exps))


class LaurentPoly:
    """Immutable sparse Laurent polynomial."""

    # _packed: packed key -> numerator; _nums and _terms stay unset until first read
    __slots__ = ("vars", "den", "_packed", "_nums", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        variables = _table(variables)
        parts = []
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} does not match table {variables}"
                )
            parts.append((_pack(exps), *_cleared(as_scalar(coeff))))
        den = lcm(*[d for _, d, _ in parts])
        if any(type(n) is tuple for _, _, n in parts):
            parts = [(e, d, n if type(n) is tuple else (n, 0)) for e, d, n in parts]
        nums = {e: _scaled(n, den // d) for e, d, n in parts}
        _stored(variables, *_normal_form(den, nums), self)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @property
    def nums(self) -> Mapping[Exponents, object]:
        """Exponent vector -> int numerator, or (re, im) int pair, in stored order."""
        try:
            return self._nums
        except AttributeError:  # first read
            pass
        # built whole, then published: a concurrent reader sees no view or all of it
        nums = MappingProxyType(dict(self._items()))
        object.__setattr__(self, "_nums", nums)
        return nums

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """Exponent vector -> Fraction/GaussianRational, in stored order."""
        try:
            return self._terms
        except AttributeError:  # first read
            pass
        den = self.den
        terms = MappingProxyType({e: _scalar(n, den) for e, n in self._items()})
        object.__setattr__(self, "_terms", terms)
        return terms

    def _items(self):
        """(exponent vector, numerator) pairs, in stored order."""
        packed = self._packed
        return zip(_unpacked(packed, len(self.vars)), packed.values())

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "LaurentPoly":
        return LaurentPoly(variables, {})

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "LaurentPoly":
        variables = _table(variables)
        den, n = _cleared(as_scalar(value))
        return _stored(variables, *_normal_form(den, {_zero_key(len(variables)): n}))

    @staticmethod
    def variable(name: str, variables: Iterable[str] | None = None) -> "LaurentPoly":
        variables = (name,) if variables is None else tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise ValueError(f"{name!r} not in table {variables}")
        return LaurentPoly(variables, {exps: Fraction(1)})

    @staticmethod
    def monomial(
        variables: Iterable[str], exps: Iterable[int], coeff=1
    ) -> "LaurentPoly":
        return LaurentPoly(variables, {tuple(exps): as_scalar(coeff)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_constant(self) -> bool:
        zero = _zero_key(len(self.vars))
        return all(key == zero for key in self._packed)

    def constant_value(self) -> Scalar:
        """The scalar value of a constant polynomial (0 if zero)."""
        if not self._packed:
            return Fraction(0)
        [(key, n)] = self._packed.items()
        if key != _zero_key(len(self.vars)):
            raise ValueError(f"{self} is not constant")
        return _scalar(n, self.den)

    def is_monomial(self) -> bool:
        return len(self._packed) == 1

    def _field_shift(self, var: str) -> int:
        return _WIDTH * (len(self.vars) - 1 - self.vars.index(var))

    def degree_in(self, var: str) -> int:
        if var not in self.vars or not self._packed:
            return 0
        s = self._field_shift(var)
        return max((key >> s) & _MASK for key in self._packed) - _BIAS

    def min_degree_in(self, var: str) -> int:
        if var not in self.vars or not self._packed:
            return 0
        s = self._field_shift(var)
        return min((key >> s) & _MASK for key in self._packed) - _BIAS

    def live_vars(self) -> Tuple[str, ...]:
        """The variables with a nonzero exponent in some term, in table order."""
        return tuple(
            v
            for v, s in zip(self.vars, _shifts(len(self.vars)))
            if any((key >> s) & _MASK != _BIAS for key in self._packed)
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _term_sort_key(item[0]))

    def restricted(self, variables: Iterable[str]) -> "LaurentPoly":
        """The same polynomial over a reordered (possibly smaller) table.

        Dropping a variable that actually occurs is an error.
        """
        return _reindex(self, _table(variables))

    def collect(self, key, variables: Iterable[str]) -> "LaurentPoly":
        """The terms moved to the exponent vectors key(exps) over `variables`,
        terms that meet summed, in first-seen order; key None drops a term."""
        variables = _table(variables)
        pair = _is_pair(self._packed)
        acc = {}
        for exps, n in self._items():
            new = key(exps)
            if new is not None:
                if len(new) != len(variables):
                    raise ValueError(f"exponent vector {new} does not match table {variables}")
                new = _pack(new)
                old = acc.get(new)
                acc[new] = n if old is None else tuple(map(add, old, n)) if pair else old + n
        return _stored(variables, *_normal_form(self.den, acc))

    def coefficient(self, exps_by_var: Mapping[str, int]) -> Scalar:
        """Coefficient of the monomial with the given exponents (others zero)."""
        exps = tuple(exps_by_var.get(v, 0) for v in self.vars)
        for var, e in exps_by_var.items():
            if var not in self.vars and e != 0:
                return Fraction(0)
        try:
            n = self._packed.get(_pack(exps))
        except ExponentOverflow:  # no stored term has this monomial
            n = None
        return Fraction(0) if n is None else _scalar(n, self.den)

    def _signature(self):
        # Table-independent canonical form: den, and per term the set of (var, exp≠0).
        return self.den, frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exps) if e != 0), n)
            for exps, n in self._items()
        )

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            if self.vars == other.vars:
                return self.den == other.den and self._packed == other._packed
            return self._signature() == other._signature()
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():  # equal to its scalar, so hashed as the scalar
            return hash(self.constant_value())
        return hash(self._signature())

    def __bool__(self):
        return bool(self._packed)

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "LaurentPoly"):
        if self.vars == other.vars:
            return self.vars, self, other
        merged = tuple(self.vars) + tuple(v for v in other.vars if v not in self.vars)
        return merged, _reindex(self, merged), _reindex(other, merged)

    def __add__(self, other):
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        if _is_pair(a._packed) or _is_pair(b._packed):
            na, nb = _pairs(a._packed), _pairs(b._packed)
            out = {e: (re * sa, im * sa) for e, (re, im) in na.items()}
            for e, (re, im) in nb.items():
                r0, i0 = out.get(e, (0, 0))
                out[e] = (r0 + re * sb, i0 + im * sb)
        else:
            out = {e: n * sa for e, n in a._packed.items()}
            for e, n in b._packed.items():
                out[e] = out.get(e, 0) + n * sb
        return _stored(variables, *_normal_form(den, out))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _stored(self.vars, self.den, {e: _scaled(n, -1) for e, n in self._packed.items()})

    def __mul__(self, other):
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        return _accumulate(variables, [((1, 1), a, b)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Scalar division only; polynomial division goes through exact_divide.
        if isinstance(other, (int, Fraction, GaussianRational)):
            if other == 0:
                raise DivisionByZero("division by zero scalar")
            return self * (Fraction(1) / other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.monomial_inverse() ** (-exponent)
        result = LaurentPoly.const(1, self.vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial (negated exponents)."""
        if len(self._packed) != 1:
            raise NonInvertibleSubstitution(
                f"{self.render()} is not a monomial, cannot invert"
            )
        [(exps, coeff)] = self.terms.items()
        return LaurentPoly(self.vars, {tuple(-e for e in exps): Fraction(1) / coeff})

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, var: str) -> "LaurentPoly":
        """Formal partial derivative; the power rule covers negative exponents."""
        if var not in self.vars:
            return LaurentPoly.zero(self.vars)
        s = self._field_shift(var)
        unit = 1 << s
        # Lowering one exponent maps distinct terms to distinct terms.
        out = {}
        for key, n in self._packed.items():
            e = ((key >> s) & _MASK) - _BIAS
            if e:
                out[key - unit] = _scaled(n, e)
        return _checked(self.vars, *_normal_form(self.den, out))

    def substitute(self, mapping: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Ring-homomorphic image under var -> polynomial.

        Unmapped variables map to themselves.  A variable appearing with a
        negative exponent must map to a monomial (single term), otherwise the
        image would leave the Laurent ring.
        """
        images: Dict[str, LaurentPoly] = {}
        for var in self.vars:
            if var in mapping:
                img = mapping[var]
                if not isinstance(img, LaurentPoly):
                    img = LaurentPoly.const(as_scalar(img))
                images[var] = img
            else:
                images[var] = LaurentPoly.variable(var)
        for var in self.vars:
            if self.min_degree_in(var) < 0 and not images[var].is_monomial():
                raise NonInvertibleSubstitution(
                    f"negative exponent on {var!r} but image "
                    f"{images[var].render()} is not a monomial"
                )
        items = list(self._items())
        # The result's table: the images' tables in the order the terms reach them.
        reached = dict.fromkeys(
            var for exps, _ in items for var, e in zip(self.vars, exps) if e
        )
        variables = tuple(dict.fromkeys(v for var in reached for v in images[var].vars))
        powers = {var: Powers(_reindex(images[var], variables)) for var in reached}
        one = LaurentPoly.const(1, variables)
        # Per term: n/den * (all its image powers but the last) * the last one.
        triples = []
        for exps, n in items:
            *head, last = [powers[var][e] for var, e in zip(self.vars, exps) if e] or [one]
            triples.append(((self.den, n), reduce(mul, head) if head else one, last))
        return _accumulate(variables, triples)

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Exact value at a scalar point; every effective variable needs a value."""
        values = {v: as_scalar(c) for v, c in point.items()}
        total: Scalar = Fraction(0)
        for exps, n in self._items():
            term: Scalar = _scalar(n, 1)
            for var, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if var not in values:
                    raise ValueError(f"no value given for variable {var!r}")
                base = values[var]
                if base == 0:
                    if e < 0:
                        raise DivisionByZero(
                            f"{var} = 0 raised to negative exponent {e}"
                        )
                    term = Fraction(0)
                    break
                term = term * base ** e
            total = total + term
        return total / self.den

    # -- exact division -----------------------------------------------------

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor in the Laurent ring.

        Runs leading-term polynomial division in canonical order on the
        packed keys and integer numerators, fraction-free: when the divisor's
        leading coefficient does not divide the remainder's, the remainder and
        the quotient are scaled by an int first, and the scale goes into the
        result's denominator.  Raises InsufficientClearing when the division
        is not exact, and ExponentOverflow when a quotient term leaves the
        exponent range.
        """
        if divisor.is_zero():
            raise DivisionByZero("exact division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vars)
        variables, a, b = self._aligned(divisor)
        k = len(variables)
        zero_key = _zero_key(k)
        pair = _is_pair(a._packed) or _is_pair(b._packed)
        zero = (0, 0) if pair else 0
        rem = dict(_pairs(a._packed) if pair else a._packed)
        den = _pairs(b._packed) if pair else b._packed
        exps_a, exps_b = _unpacked(rem, k), _unpacked(den, k)
        # Each quotient exponent is at least a's least exponent less b's, or the
        # division is not exact; low is that bound clamped to [-_LIMIT, _LIMIT],
        # where q - low_key + zero_key cannot borrow for an in-range q.
        low = map(sub, map(min, zip(*exps_a)), map(min, zip(*exps_b)))
        low_key = sum((min(max(e, -_LIMIT), _LIMIT) + _BIAS) << s for e, s in zip(low, _shifts(k)))
        # Heap entries are -(total degree << span | key): the heap pops terms
        # in _term_sort_key order, since keys compare as exponent vectors do.
        span = _WIDTH * k
        heap = [-(sum(e) << span | key) for e, key in zip(exps_a, rem)]
        heapify(heap)
        den_terms = [(key, n, sum(e)) for e, (key, n) in zip(exps_b, den.items())]
        lead_den, lead_den_coeff, lead_den_deg = max(den_terms, key=lambda t: (t[2], t[0]))
        quotient: Dict[int, object] = {}
        scale = 1  # self / divisor == quotient * b.den / (a.den * scale)
        while rem:
            top = -heappop(heap)
            lead = top & ((1 << span) - 1)
            if lead not in rem:
                continue  # a stale entry: the term cancelled after it was pushed
            q = lead - lead_den + zero_key
            if (q ^ q << 1) & zero_key != zero_key:
                raise ExponentOverflow(
                    f"{self.render()} / {divisor.render()} has an exponent outside "
                    f"[{-_LIMIT}, {_LIMIT})"
                )
            if (q - low_key + zero_key) & zero_key != zero_key:
                raise self._inexact(divisor)
            q_coeff, s = _lead_quotient(rem[lead], lead_den_coeff)
            if s != 1:
                rem = {key: _scaled(n, s) for key, n in rem.items()}
                quotient = {key: _scaled(n, s) for key, n in quotient.items()}
                scale *= s
            quotient[q] = q_coeff
            q_deg = (top >> span) - lead_den_deg
            q -= zero_key
            for key, n, deg in den_terms:
                key += q
                old = rem.get(key)
                if pair:
                    (qr, qi), (dr, di), (r0, i0) = q_coeff, n, old or zero
                    value = (r0 - qr * dr + qi * di, i0 - qr * di - qi * dr)
                else:
                    value = (old or zero) - q_coeff * n
                if value == zero:  # only a present term cancels: q_coeff * n != 0
                    del rem[key]
                    continue
                if old is None:
                    # An exact quotient keeps every term within a's exponent
                    # ranges, so a term leaving the field range proves a remainder.
                    if (key ^ key << 1) & zero_key != zero_key:
                        raise self._inexact(divisor)
                    heappush(heap, -((q_deg + deg) << span | key))
                rem[key] = value
        return _stored(
            variables,
            *_normal_form(a.den * scale, {key: _scaled(n, b.den) for key, n in quotient.items()}),
        )

    def _inexact(self, divisor) -> InsufficientClearing:
        return InsufficientClearing(
            f"{self.render()} is not exactly divisible by {divisor.render()}"
        )

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. 'x^2*y + x*y^2' or '3/4*x - 1'."""
        if not self._packed:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for var, e in zip(self.vars, exps):
                if e == 0:
                    continue
                factors.append(var if e == 1 else f"{var}^{e}")
            if isinstance(coeff, GaussianRational):
                sign = "+"
                body = render_scalar(coeff)
                if factors:
                    body += "*" + "*".join(factors)
            else:
                sign = "+" if coeff >= 0 else "-"
                mag = abs(coeff)
                if not factors:
                    body = str(mag)
                elif mag == 1:
                    body = "*".join(factors)
                else:
                    body = f"{mag}*" + "*".join(factors)
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"LaurentPoly({self.render()!r}, vars={self.vars})"

    def __str__(self):
        return self.render()

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"coeff": scalar_to_json(coeff), "exps": list(exps)}
                for exps, coeff in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(payload: Mapping) -> "LaurentPoly":
        """Inverse of to_json.  A missing key, or an exponent that is not a
        JSON integer, is a ParseError."""
        try:
            variables = tuple(payload["vars"])
            terms: Dict[Exponents, Scalar] = {}
            for item in payload["terms"]:
                exps = tuple(item["exps"])
                if not all(type(e) is int for e in exps):
                    raise ParseError(f"exponents {item['exps']!r} are not all JSON integers", 0)
                coeff = scalar_from_json(item["coeff"])
                terms[exps] = terms.get(exps, Fraction(0)) + coeff
        except KeyError as exc:
            raise ParseError(f"polynomial JSON has no {exc.args[0]!r} key", 0) from None
        return LaurentPoly(variables, terms)


# -- packed keys -------------------------------------------------------------
#
# Field i of a key over a k-variable table is bits [W(k-1-i), W(k-i)) and
# holds e_i + _BIAS.  A stored exponent lies in [-_LIMIT, _LIMIT), so a field
# lies in [_LIMIT, 3 _LIMIT) and its two top bits differ; the sum of two such
# fields less _BIAS, or their difference plus _BIAS, stays in [0, 2^W) and so
# never carries into the next field.  A key made that way is in range exactly
# when every field's two top bits still differ, which one xor tests at once.

_WIDTH = 22
_MASK = (1 << _WIDTH) - 1
_BIAS = 1 << (_WIDTH - 1)
_LIMIT = 1 << (_WIDTH - 2)


@cache
def _zero_key(k: int) -> int:
    """The key of the zero exponent vector over k variables: _BIAS in every
    field, which is also the mask of every field's top bit."""
    return _BIAS * (((1 << _WIDTH * k) - 1) // _MASK)


def _shifts(k: int) -> range:
    """The bit offset of each field of a k-variable key, in table order."""
    return range(_WIDTH * (k - 1), -1, -_WIDTH)


def _pack(exps: Exponents) -> int:
    key = 0
    for e in exps:
        if not -_LIMIT <= e < _LIMIT:
            raise ExponentOverflow(f"exponent {e} outside [{-_LIMIT}, {_LIMIT})")
        key = key << _WIDTH | (e + _BIAS)
    return key


def _unpacked(keys, k: int) -> list:
    """The exponent vectors of the keys over k variables, in order."""
    shifts = _shifts(k)
    return [tuple([((key >> s) & _MASK) - _BIAS for s in shifts]) for key in keys]


def _checked(variables, den: int, nums: dict) -> "LaurentPoly":
    """_stored, after testing that the keys, made by adding or subtracting
    in-range keys, stayed in range."""
    zero = _zero_key(len(variables))
    for key in nums:
        if (key ^ key << 1) & zero != zero:
            exps = _unpacked([key], len(variables))[0]
            raise ExponentOverflow(f"exponent vector {exps} outside [{-_LIMIT}, {_LIMIT})")
    return _stored(variables, den, nums)


# -- the stored form ---------------------------------------------------------
#
# A numerator is an int, or an (re, im) int pair in the Gaussian form.


def _table(variables) -> Tuple[str, ...]:
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable in table {variables}")
    return variables


# the slots' own setters: LaurentPoly.__setattr__ refuses every assignment
_set_vars, _set_den, _set_packed = (
    getattr(LaurentPoly, s).__set__ for s in ("vars", "den", "_packed")
)


def _stored(variables, den: int, nums: dict, poly: LaurentPoly | None = None) -> LaurentPoly:
    """A polynomial holding the normalised (den, packed nums) as given; no checks."""
    if poly is None:
        poly = object.__new__(LaurentPoly)
    _set_vars(poly, variables)
    _set_den(poly, den)
    _set_packed(poly, nums)
    return poly


def _normal_form(den: int, acc: dict):
    """(den, nums) for sum(acc[e] x^e) / den, den > 0: zero numerators dropped,
    the gcd of den and every numerator part divided out, and pairs made ints
    when no imaginary part is left.  Keeps acc's key order."""
    if _is_pair(acc):
        acc = {e: (re, im) for e, (re, im) in acc.items() if re or im}
        if any(im for _, im in acc.values()):
            g = gcd(den, *chain.from_iterable(acc.values()))
            if g == 1:
                return den, acc
            return den // g, {e: (re // g, im // g) for e, (re, im) in acc.items()}
        acc = {e: re for e, (re, _) in acc.items()}
    else:
        acc = {e: n for e, n in acc.items() if n}
    g = gcd(den, *acc.values())
    if g == 1:
        return den, acc
    return den // g, {e: n // g for e, n in acc.items()}


def _is_pair(nums: dict) -> bool:
    return type(next(iter(nums.values()), 0)) is not int


def _pairs(nums: dict) -> dict:
    return nums if _is_pair(nums) else {e: (n, 0) for e, n in nums.items()}


def _scaled(n, k: int):
    """The numerator n * k."""
    if type(n) is int:
        return n * k
    re, im = n
    return (re * k, im * k)


def _scalar(n, den: int) -> Scalar:
    if type(n) is int:
        return Fraction(n, den)
    re, im = n
    return GaussianRational(Fraction(re, den), Fraction(im, den)) if im else Fraction(re, den)


def _cleared(value):
    """(d, n) with value == n / d for an int, Fraction or GaussianRational value:
    n an int, or an (re, im) pair for a Gaussian value."""
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        d = lcm(re.denominator, im.denominator)
        return d, (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
    return value.denominator, value.numerator


def _lead_quotient(r, c):
    """(q, s) with s * r == q * c for integer numerators q, and s >= 1 an
    int that is 1 whenever c divides r."""
    if type(c) is int:
        s = abs(c) // gcd(r, c)
        return r * s // c, s
    (rr, ri), (cr, ci) = r, c
    tr, ti = rr * cr + ri * ci, ri * cr - rr * ci  # r * conj(c)
    norm = cr * cr + ci * ci
    s = norm // gcd(norm, tr, ti)
    return (tr * s // norm, ti * s // norm), s


def _reindex(poly: LaurentPoly, variables: Tuple[str, ...]) -> LaurentPoly:
    """poly over another table, each field moved to its new offset; dropping
    a variable that occurs raises."""
    if poly.vars == variables:
        return poly
    packed, offsets = poly._packed, _shifts(len(variables))
    moves = []  # (offset in poly's keys, offset in the new keys)
    for var, s in zip(poly.vars, _shifts(len(poly.vars))):
        if var in variables:
            moves.append((s, offsets[variables.index(var)]))
        elif any((key >> s) & _MASK != _BIAS for key in packed):
            raise ValueError(f"cannot drop live variable {var!r}")
    zero = _zero_key(len(variables))
    out = {}
    for key, n in packed.items():
        new = zero
        for s, t in moves:
            new += (((key >> s) & _MASK) - _BIAS) << t
        out[new] = n
    return _stored(variables, poly.den, out)


def sum_of_products(triples, variables: Iterable[str] = ()) -> LaurentPoly:
    """sum of w*a*b over (scalar w, poly a, poly b), accumulated in one dict.

    The result's table is `variables`, then each triple's a.vars and b.vars in
    order (zero products included): the table that the chained sum
    zero(variables) + w1*(a1*b1) + w2*(a2*b2) + ... ends with.
    """
    triples = list(triples)
    table = tuple(
        dict.fromkeys(chain(variables, *(p.vars for _, a, b in triples for p in (a, b))))
    )
    return _accumulate(
        table,
        [(_cleared(w), _reindex(a, table), _reindex(b, table)) for w, a, b in triples],
    )


def binomial_convolution(a, b, n: int) -> LaurentPoly:
    """sum_k C(n,k) a[k] b[n-k], k = 0..n: the EGF product's n-th coefficient."""
    return sum_of_products((comb(n, k), a[k], b[n - k]) for k in range(n + 1))


def _accumulate(variables, triples) -> LaurentPoly:
    """sum of w*a*b over ((d, n) with w == n/d, poly a, poly b), a and b over `variables`.

    Every term pair is added as an int into one dict over the common
    denominator of all the products, (re, im) ints when any numerator is a
    pair, under the key ka + kb - bias; the sum is normalised once.
    """
    live = []
    pair = False
    for (wd, wn), a, b in triples:
        if wn and a._packed and b._packed:
            live.append((wd * a.den * b.den, wn, a._packed, b._packed))
            pair = pair or type(wn) is tuple or _is_pair(a._packed) or _is_pair(b._packed)
    den = lcm(*[d for d, _, _, _ in live])
    bias = _zero_key(len(variables))
    if not pair:
        acc: Dict[int, int] = {}
        for d, wn, nums_a, nums_b in live:
            scale = wn * (den // d)
            nums_b = nums_b.items()
            for ka, na in nums_a.items():
                ka -= bias
                na *= scale
                for kb, nb in nums_b:
                    key = ka + kb
                    acc[key] = acc.get(key, 0) + na * nb
        return _checked(variables, *_normal_form(den, acc))
    sums: Dict[int, list] = {}
    for d, wn, nums_a, nums_b in live:
        scale = den // d
        wr, wi = wn if type(wn) is tuple else (wn, 0)
        nums_b = _pairs(nums_b).items()
        for ka, (ra, ia) in _pairs(nums_a).items():
            ka -= bias
            ra, ia = (ra * wr - ia * wi) * scale, (ra * wi + ia * wr) * scale
            for kb, (rb, ib) in nums_b:
                key = ka + kb
                pair = sums.get(key)
                if pair is None:
                    sums[key] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    pair[0] += ra * rb - ia * ib
                    pair[1] += ra * ib + ia * rb
    return _checked(variables, *_normal_form(den, sums))


class Powers:
    """base^j on demand: nonnegative powers are kept, each new one is one
    multiply from the last; a negative j goes to `**`.  base^0 is 1 over
    `variables` (default: the base's table)."""

    def __init__(self, base: LaurentPoly, variables: Iterable[str] | None = None):
        self.base = base
        self.table = [LaurentPoly.const(1, base.vars if variables is None else variables)]

    def __getitem__(self, j: int) -> LaurentPoly:
        if j < 0:
            return self.base ** j
        while len(self.table) <= j:
            self.table.append(self.table[-1] * self.base)
        return self.table[j]


def _coerce(value, variables):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return LaurentPoly.const(value, variables)
    return NotImplemented


class RationalFunction:
    """A numerator/denominator pair; equality by cross-multiplication."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPoly, denominator: LaurentPoly):
        if denominator.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    # equal pairs (x, 1) and (2x, 2) share no canonical form to hash
    __hash__ = None

    def __repr__(self):
        return f"({self.numerator.render()}) / ({self.denominator.render()})"


def substitute_rational(
    f: LaurentPoly,
    var: str,
    value: RationalFunction,
    clear_power: int,
    clear: LaurentPoly | None = None,
) -> LaurentPoly:
    """clear^clear_power * f with var -> value, expanded to an exact polynomial.

    `clear` defaults to the value's denominator.  f may not carry negative
    exponents of var.  Raises InsufficientClearing when the chosen clearing
    power leaves a denominator behind.
    """
    if f.min_degree_in(var) < 0:
        raise NonInvertibleSubstitution(
            f"{var!r} occurs with a negative exponent in {f.render()}"
        )
    clear = value.denominator if clear is None else clear
    degree = f.degree_in(var)
    rest_vars = tuple(v for v in f.vars if v != var)
    # f's numerators grouped by their power of var: f = sum_k a_k var^k.  A key
    # over rest_vars is f's key with var's field cut out.
    by_power: Dict[int, dict] = {}
    if var in f.vars:
        s = f._field_shift(var)
        for key, n in f._packed.items():
            rest = (key >> (s + _WIDTH) << s) | (key & ((1 << s) - 1))
            by_power.setdefault(((key >> s) & _MASK) - _BIAS, {})[rest] = n
    elif f:
        by_power[0] = f._packed
    den_powers = Powers(value.denominator)
    # Numerator of f(value) over D^degree, sum_k a_k N^k D^(degree-k), by
    # homogeneous Horner: num = num*N + a_k D^(degree-k), k from degree down.
    table = rest_vars + value.numerator.vars + value.denominator.vars if by_power else ()
    num = LaurentPoly.zero(tuple(dict.fromkeys(table)))
    for k in range(degree, -1, -1):
        triples = [(1, num, value.numerator)] if k < degree else []
        if k in by_power:
            a_k = _stored(rest_vars, *_normal_form(f.den, by_power[k]))
            triples.append((1, a_k, den_powers[degree - k]))
        num = sum_of_products(triples, num.vars)
    cleared = clear ** clear_power * num
    return cleared.exact_divide(den_powers[degree])


# -- text parsing ------------------------------------------------------------
#
# A polynomial is [+-] term ([+-] term)*, a term is factor (* factor)*, and a
# factor is a Gaussian literal (re±im*i), a rational p or p/q, or a name (a
# letter or _, then letters, digits and _) with an optional ^[-]digits power.
# Whitespace may stand between any two tokens.  _FACTOR reads one factor and
# the separator after it.

_FACTOR = (
    rf"(?:{GAUSSIAN}|(?P<p>\d+)(?:/(?P<q>\d+))?|(?P<name>\w+)(?:\^(?P<e>-?\d*))?)"
    r"\s*(?P<sep>[*+-]?)\s*"
)


def parse_poly(text: str, variables: Iterable[str] | None = None) -> LaurentPoly:
    """Parse the canonical text format (inverse of LaurentPoly.render).

    The table lists the names in order of first appearance, x^0 and the names
    of cancelled terms included.  The terms are stored in the order that
    adding them one by one leaves: a monomial that cancels and returns goes last.
    """
    body = text.lstrip()
    if not body:
        raise ParseError("empty polynomial", len(text))
    sign = body[0] if body[0] in "+-" else ""
    pos = len(text) - len(body[len(sign) :].lstrip())
    names: Dict[str, None] = {}  # the table, as an ordered set
    acc: Dict[frozenset, Scalar] = {}  # {(name, nonzero exponent)} -> coefficient
    coeff, powers = Fraction(1), {}
    factor = _re.compile(_FACTOR)  # compiled on first use, not at import
    while True:
        m = factor.match(text, pos)
        if m is None or m["name"] and not (text[pos].isalpha() or text[pos] == "_"):
            what = "a Gaussian literal (re+im*i)" if text.startswith("(", pos) else "a factor"
            raise ParseError(f"expected {what}, found {text[pos:pos + 1]!r}", pos)
        try:
            if m["gauss"]:
                coeff *= gaussian_value(m)
            elif m["p"]:
                if m["q"] and not int(m["q"]):
                    raise ParseError("zero denominator", m.end("q"))
                coeff *= Fraction(int(m["p"]), int(m["q"] or 1))
            elif m["e"] is not None and not m["e"].strip("-"):
                raise ParseError("expected exponent digits", m.end("e"))
            else:
                powers[m["name"]] = powers.get(m["name"], 0) + int(m["e"] or 1)
        except ValueError as exc:  # a digit string longer than int() reads
            raise ParseError(str(exc), pos) from None
        pos = m.end()
        if m["sep"] == "*":
            continue
        _pack(powers.values())  # ExponentOverflow for a term out of range, cancelled or not
        names.update(dict.fromkeys(powers))
        key = frozenset((name, k) for name, k in powers.items() if k)
        value = acc.get(key, 0) + (-coeff if sign == "-" else coeff)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
        if not m["sep"]:
            break
        sign, coeff, powers = m["sep"], Fraction(1), {}
    if pos < len(text):
        raise ParseError(f"expected '+' or '-', found {text[pos]!r}", pos)
    poly = LaurentPoly(names, {tuple(dict(key).get(v, 0) for v in names): c for key, c in acc.items()})
    if variables is not None:
        variables = tuple(variables)
        extra = [v for v in poly.live_vars() if v not in variables]
        if extra:
            raise ParseError(f"unexpected variables {extra}", 0)
        return _reindex(poly, _table(variables))
    return poly
