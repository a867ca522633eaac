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
from collections import OrderedDict
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import comb, gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Mapping, Tuple

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
    json_field,
    make_gaussian,
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
        scalars = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} does not match table {variables}"
                )
            key = _pack(exps)
            scalars[key] = as_scalar(coeff)
        _from_scalars(variables, scalars, self)

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

    def by_power(self, var: str) -> Dict[int, "LaurentPoly"]:
        """The polynomial read by powers of var: e -> the coefficient of var^e,
        a polynomial over the other variables, in first-seen order of e."""
        if var not in self.vars:
            return {0: self} if self._packed else {}
        groups: Dict[int, dict] = {}
        for e, key, n in self._cut(var):
            groups.setdefault(e, {})[key] = n
        rest = tuple(v for v in self.vars if v != var)
        return {e: _stored(rest, *_normal_form(self.den, nums)) for e, nums in groups.items()}

    def at_one(self, var: str) -> "LaurentPoly":
        """self with var set to 1, as substitute({var: 1}) gives it: the
        numerators summed over the keys with var's field cut out, over the
        other variables that occur, in the order the terms reach them."""
        if var not in self.vars:
            raise ValueError(f"{var!r} not in table {self.vars}")
        rest = tuple(v for v in self.vars if v != var)
        pair = _is_pair(self._packed)
        acc = {}
        for _, key, n in self._cut(var):
            old = acc.get(key)
            acc[key] = n if old is None else tuple(map(add, old, n)) if pair else old + n
        shifts = _shifts(len(rest))
        reached = dict.fromkeys(v for key in acc for v, s in zip(rest, shifts) if (key >> s) & _MASK != _BIAS)
        return _reindex(_stored(rest, *_normal_form(self.den, acc)), tuple(reached))

    def _cut(self, var: str) -> list:
        """(var's exponent, the key over the other variables, numerator) of
        each term in stored order: var's field cut out of the packed key."""
        s = self._field_shift(var)
        low = (1 << s) - 1
        return [
            (((key >> s) & _MASK) - _BIAS, key >> (s + _WIDTH) << s | key & low, n)
            for key, n in self._packed.items()
        ]

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

    def _sum(self, other, sign: int):
        """self + sign * other: one kernel call over the aligned tables, each
        operand times the table's 1."""
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        unit = _stored(variables, 1, {_zero_key(len(variables)): 1})
        return _accumulate(variables, [((1, 1), a, unit), ((1, sign), b, unit)])

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = _coerce(other, self.vars)
        return NotImplemented if other is NotImplemented else other._sum(self, -1)

    def __neg__(self):
        return _stored(self.vars, self.den, {e: _scaled(n, -1) for e, n in self._packed.items()})

    def __mul__(self, other):
        a, b = self, other
        if type(b) is not LaurentPoly or b.vars != a.vars:  # else straight to the kernel
            b = _coerce(b, a.vars)
            if b is NotImplemented:
                return NotImplemented
            _, a, b = a._aligned(b)
        return _accumulate(a.vars, [((1, 1), a, b)])

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
        """Exact value at a scalar point; every effective variable needs a value.

        In ints: a variable of value N/d with exponents in [-lo, hi] reads a
        term's N^(lo+e) d^(hi-e) from one table, built only for the exponents
        that occur, and the sum over the terms is divided once, by den and
        every N^lo d^hi.  Per term, in table order, a missing value raises
        ValueError, and a zero one drops the term, or raises DivisionByZero
        under a negative exponent.
        """
        values = {v: as_scalar(c) for v, c in point.items()}
        pair = _is_pair(self._packed) or any(
            isinstance(values.get(v), GaussianRational) for v in self.vars
        )
        times, one = (_times, (1, 0)) if pair else (mul, 1)
        holes, tables, scale = [], [], Fraction(self.den)  # (shift, {field: entry})
        for var, s in zip(self.vars, _shifts(len(self.vars))):
            fields = sorted({(key >> s) & _MASK for key in self._packed} | {_BIAS})
            if len(fields) == 1:
                continue
            if values.get(var, 0) == 0:
                holes.append((s, var))
                continue
            d, n = _cleared(values[var])
            n = (n, 0) if pair and type(n) is int else n
            gaps = [b - a for a, b in zip(fields, fields[1:])]
            ups = accumulate((_power(n, g) for g in gaps), times, initial=one)
            downs = list(accumulate((d ** g for g in reversed(gaps)), mul, initial=1))
            table = dict(zip(fields, map(_scaled, ups, reversed(downs))))
            tables.append((s, table))
            scale *= _scalar(table[_BIAS], 1)  # N^lo d^hi
        re = im = 0
        for key, n in (_pairs(self._packed) if pair else self._packed).items():
            for s, var in holes:
                e = ((key >> s) & _MASK) - _BIAS
                if e:
                    if var not in values:
                        raise ValueError(f"no value given for variable {var!r}")
                    if e < 0:
                        raise DivisionByZero(f"{var} = 0 raised to negative exponent {e}")
                    break
            else:
                for s, table in tables:
                    n = times(n, table[(key >> s) & _MASK])
                re, im = (re + n[0], im + n[1]) if pair else (re + n, 0)
        return _scalar((re, im), 1) / scale

    # -- exact division -----------------------------------------------------

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor in the Laurent ring.

        Runs leading-term polynomial division in canonical order on the
        packed keys, the leading remainder term popped from a heap of (total
        degree, key) ints, in Fraction/GaussianRational coefficients: q is
        the remainder's leading coefficient over the divisor's, and the
        remainder loses q times the divisor.  Raises InsufficientClearing
        when the division is not exact, and ExponentOverflow when a quotient
        term leaves the exponent range.  The same walk runs first on the int
        numerators mod a prime p that divides neither the divisor's leading
        numerator nor a den, a Gaussian numerator read with i as a square
        root of -1 mod p: an exact division leaves no remainder mod p either,
        so a remainder there is refused before the exact walk can grow one
        coefficient by coefficient.
        """
        if divisor.is_zero():
            raise DivisionByZero("exact division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vars)
        variables, a, b = self._aligned(divisor)
        k = len(variables)
        zero_key = _zero_key(k)
        exps_a, exps_b = _unpacked(a._packed, k), _unpacked(b._packed, k)
        # Each quotient exponent is at least a's least exponent less b's, or the
        # division is not exact; low is that bound clamped to [-_LIMIT, _LIMIT],
        # where q - low_key + zero_key cannot borrow for an in-range q.
        low = map(sub, map(min, zip(*exps_a)), map(min, zip(*exps_b)))
        low_key = sum((min(max(e, -_LIMIT), _LIMIT) + _BIAS) << s for e, s in zip(low, _shifts(k)))
        # Heap entries are -(total degree << span | key): the heap pops terms
        # in _term_sort_key order, since keys compare as exponent vectors do.
        span = _WIDTH * k
        heap = [-(sum(e) << span | key) for e, key in zip(exps_a, a._packed)]
        heapify(heap)
        den_terms = [(key, n, sum(e)) for e, (key, n) in zip(exps_b, b._packed.items())]
        lead_den, lead_den_coeff, lead_den_deg = max(den_terms, key=lambda t: (t[2], t[0]))

        def walk(p):
            """The quotient, packed key -> coefficient: self / divisor if p is
            None, else the quotient of the numerators mod p (_residue)."""
            if p is None:
                rem = {key: _scalar(n, a.den) for key, n in a._packed.items()}
                terms = [(key, _scalar(n, b.den), deg) for key, n, deg in den_terms]
                lead_coeff = _scalar(lead_den_coeff, b.den)
            else:  # terms that vanish mod p dropped: only a present term then cancels
                rem = {key: r for key, n in a._packed.items() if (r := _residue(n, p))}
                terms = [(key, r, deg) for key, n, deg in den_terms if (r := _residue(n, p))]
                inverse = pow(_residue(lead_den_coeff, p), -1, p)
            pending = list(heap)  # entries for terms that vanish mod p are stale
            quotient = {}
            while rem:
                top = -heappop(pending)
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
                q_coeff = quotient[q] = rem[lead] / lead_coeff if p is None else rem[lead] * inverse % p
                q_deg = (top >> span) - lead_den_deg
                q -= zero_key
                for key, n, deg in terms:
                    key += q
                    old = rem.get(key)
                    value = (old or 0) - q_coeff * n
                    if p is not None:
                        value %= p
                    if not value:  # only a present term cancels: q_coeff * n != 0
                        del rem[key]
                        continue
                    if old is None:
                        # An exact quotient keeps every term within a's exponent
                        # ranges, so a term leaving the field range proves a remainder.
                        if (key ^ key << 1) & zero_key != zero_key:
                            raise self._inexact(divisor)
                        heappush(pending, -((q_deg + deg) << span | key))
                    rem[key] = value
            return quotient

        primes = [p for p in _PRIMES if _residue(lead_den_coeff, p) and a.den % p and b.den % p]
        if primes:
            walk(primes[0])
        return _from_scalars(variables, walk(None))

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
        """Inverse of to_json.  A missing key, a value of the wrong JSON type,
        an exponent list that is not one JSON integer per variable, or a table
        that repeats a name, is a ParseError."""
        variables = tuple(json_field(payload, "vars", list, "polynomial", str))
        terms: Dict[Exponents, Scalar] = {}
        for item in json_field(payload, "terms", list, "polynomial"):
            exps = tuple(json_field(item, "exps", list, "term", int))
            if len(exps) != len(variables):
                raise ParseError(f"exponents {list(exps)!r} are not one per variable", 0)
            coeff = scalar_from_json(json_field(item, "coeff", (str, int, dict), "term"))
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        try:
            return LaurentPoly(variables, terms)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed polynomial JSON: {exc}", 0) from None


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
# word-size primes p = 1 mod 4 for exact_divide's walk mod p, and a square
# root of -1 mod each, the image of i there
_PRIMES = ((1 << 64) - 59, 998244353)
_I_MOD = dict(zip(_PRIMES, (2296021864060584341, 911660635)))


def _residue(n, p: int) -> int:
    """An int numerator mod p, or an (re, im) pair's re + im * i mod p."""
    return n % p if type(n) is int else (n[0] + n[1] * _I_MOD[p]) % p


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


def _from_scalars(variables, terms: dict, poly: LaurentPoly | None = None) -> LaurentPoly:
    """The polynomial sum(terms[key] x^key) over `variables`, from packed key ->
    Fraction/GaussianRational, in terms' key order; a zero term is dropped."""
    parts = {key: _cleared(c) for key, c in terms.items()}
    den = lcm(*[d for d, _ in parts.values()])
    pair = any(type(n) is tuple for _, n in parts.values())
    nums = {key: _scaled((n, 0) if pair and type(n) is int else n, den // d) for key, (d, n) in parts.items()}
    return _stored(variables, *_normal_form(den, nums), poly)


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
    if den == 1:
        return den, acc
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


def _times(a, b):
    """The product of two (re, im) int pairs."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi, ar * bi + ai * br)


def _power(n, k: int):
    """n^k, k >= 0, for an int or an (re, im) int pair."""
    if type(n) is int:
        return n ** k
    if k == 1:
        return n
    p = _cleared(make_gaussian(*n) ** k)[1]
    return (p, 0) if type(p) is int else p


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
    return _accumulate(table, [
        ((1, w) if type(w) is int else _cleared(w),
         a if a.vars == table else _reindex(a, table), b if b.vars == table else _reindex(b, table))
        for w, a, b in triples
    ])


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
        nums_a, nums_b = a._packed, b._packed
        if wn and nums_a and nums_b:
            live.append((wd * a.den * b.den, wn, nums_a, nums_b))
            if not pair:  # the pair form shows in any one numerator
                first_a, first_b = next(iter(nums_a.values())), next(iter(nums_b.values()))
                pair = tuple in (type(wn), type(first_a), type(first_b))
    den = live[0][0] if len(live) == 1 else lcm(*[d for d, _, _, _ in live])
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


def _extended(chain: tuple, n: int, step: Callable) -> tuple:
    """chain lengthened to hold index n: step(last) makes each next entry."""
    built = list(chain)
    while len(built) <= n:
        built.append(step(built[-1]))
    return tuple(built)


# (base.vars, base.den, base's packed items, table of base^0) -> (base^0, base^1, ...),
# published whole like families._CHAINS, so a race loses at most cached powers, never a
# correct one; callers choose the keys, so past _POWERS_HELD bases the oldest goes.
_POWERS: OrderedDict = OrderedDict()
_POWERS_HELD = 256


class Powers:
    """base^j on demand, from one process-wide table per base value: each new
    nonnegative power is one multiply from the last; a negative j goes to
    `**`.  base^0 is 1 over `variables` (default: the base's table)."""

    def __init__(self, base: LaurentPoly, variables: Iterable[str] | None = None):
        self.base = base
        variables = base.vars if variables is None else _table(variables)
        self.key = (base.vars, base.den, tuple(base._packed.items()), variables)
        self.table = _POWERS.get(self.key) or (LaurentPoly.const(1, variables),)

    def __getitem__(self, j: int) -> LaurentPoly:
        if j < 0:
            return self.base ** j
        table = self.table
        if len(table) <= j:
            longest = max(table, _POWERS.get(self.key, ()), key=len)
            table = _extended(longest, j, lambda last: last * self.base)
            self.table = _POWERS[self.key] = table
            if len(_POWERS) > _POWERS_HELD:
                _POWERS.popitem(last=False)
        return table[j]


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

    `clear` defaults to the value's denominator D; f may not carry negative
    exponents of var.  f(value) is num / D^degree.  When D == clear^m, m =
    deg_var D // max(deg_var clear, 1) >= 1, and clear_power >= m * degree,
    the result is clear^(clear_power - m * degree) * num, with no division;
    otherwise clear^clear_power * num is divided exactly by D^degree, which
    raises InsufficientClearing when a denominator is left behind.
    """
    if f.min_degree_in(var) < 0:
        raise NonInvertibleSubstitution(
            f"{var!r} occurs with a negative exponent in {f.render()}"
        )
    clear = value.denominator if clear is None else clear
    degree = f.degree_in(var)
    rest_vars = tuple(v for v in f.vars if v != var)
    by_power = f.by_power(var)  # f = sum_k a_k var^k
    den_powers = Powers(value.denominator)
    # Numerator of f(value) over D^degree, sum_k a_k N^k D^(degree-k), by
    # homogeneous Horner: num = num*N + a_k D^(degree-k), k from degree down.
    table = rest_vars + value.numerator.vars + value.denominator.vars if by_power else ()
    num = LaurentPoly.zero(tuple(dict.fromkeys(table)))
    for k in range(degree, -1, -1):
        triples = [(1, num, value.numerator)] if k < degree else []
        if k in by_power:
            triples.append((1, by_power[k], den_powers[degree - k]))
        num = sum_of_products(triples, num.vars)
    clears = Powers(clear)
    m = value.denominator.degree_in(var) // max(clear.degree_in(var), 1)
    if m >= 1 and clear_power >= m * degree and clears[m] == value.denominator:
        return clears[clear_power - m * degree] * num
    return (clears[clear_power] * num).exact_divide(den_powers[degree])


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
