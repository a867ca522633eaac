"""Exact multivariate Laurent polynomials over rational / Gaussian-rational scalars.

A polynomial carries an ordered variable table and a sparse map from exponent
vectors (tuples of signed ints, aligned with the table) to nonzero scalars.
Values are immutable; every operation returns a fresh polynomial.  Mixed-table
arithmetic aligns on the union of the two tables (left operand's order first).

Storage is integer: a positive int `den` and `nums`, exponent vector -> int
numerator, or -> (re, im) int pair when some coefficient is Gaussian, with
gcd(den, every numerator part) == 1 and the pair form used only when some
im != 0.  Equal polynomials over one table store equal (den, nums).  `.terms`
is a read-only view of the same map with Fraction/GaussianRational values,
built on first read.

Canonical term order — descending total degree, ties broken by descending
lexicographic exponent vector — fixes rendering and JSON byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

from .errors import (
    DivisionByZero,
    InsufficientClearing,
    NonInvertibleSubstitution,
    ParseError,
)
from .scalar import (
    GaussianRational,
    Scalar,
    as_scalar,
    parse_scalar,
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

    # _terms stays unset until .terms is first read
    __slots__ = ("vars", "den", "nums", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        variables = _table(variables)
        parts = []
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} does not match table {variables}"
                )
            parts.append((exps, *_cleared(as_scalar(coeff))))
        den = lcm(*[d for _, d, _ in parts])
        if any(type(n) is tuple for _, _, n in parts):
            parts = [(e, d, n if type(n) is tuple else (n, 0)) for e, d, n in parts]
        nums = {e: _scaled(n, den // d) for e, d, n in parts}
        _stored(variables, *_normal_form(den, nums), self)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """Exponent vector -> Fraction/GaussianRational, in `nums` order."""
        try:
            return self._terms
        except AttributeError:  # first read
            pass
        den = self.den
        # built whole, then published: a concurrent reader sees no view or all of it
        terms = MappingProxyType({e: _scalar(n, den) for e, n in self.nums.items()})
        object.__setattr__(self, "_terms", terms)
        return terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "LaurentPoly":
        return LaurentPoly(variables, {})

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "LaurentPoly":
        variables = _table(variables)
        den, n = _cleared(as_scalar(value))
        return _stored(variables, *_normal_form(den, {(0,) * len(variables): n}))

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
        return not self.nums

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.nums)

    def constant_value(self) -> Scalar:
        """The scalar value of a constant polynomial (0 if zero)."""
        if not self.nums:
            return Fraction(0)
        [(exps, n)] = self.nums.items()
        if any(exps):
            raise ValueError(f"{self} is not constant")
        return _scalar(n, self.den)

    def is_monomial(self) -> bool:
        return len(self.nums) == 1

    def degree_in(self, var: str) -> int:
        if var not in self.vars or not self.nums:
            return 0
        idx = self.vars.index(var)
        return max(exps[idx] for exps in self.nums)

    def min_degree_in(self, var: str) -> int:
        if var not in self.vars or not self.nums:
            return 0
        idx = self.vars.index(var)
        return min(exps[idx] for exps in self.nums)

    def live_vars(self) -> Tuple[str, ...]:
        """The variables with a nonzero exponent in some term, in table order."""
        return tuple(v for i, v in enumerate(self.vars) if any(exps[i] for exps in self.nums))

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
        pair = _is_pair(self.nums)
        acc = {}
        for exps, n in self.nums.items():
            new = key(exps)
            if new is not None:
                old = acc.get(new)
                acc[new] = n if old is None else tuple(map(add, old, n)) if pair else old + n
        return _stored(_table(variables), *_normal_form(self.den, acc))

    def coefficient(self, exps_by_var: Mapping[str, int]) -> Scalar:
        """Coefficient of the monomial with the given exponents (others zero)."""
        exps = tuple(exps_by_var.get(v, 0) for v in self.vars)
        for var, e in exps_by_var.items():
            if var not in self.vars and e != 0:
                return Fraction(0)
        n = self.nums.get(exps)
        return Fraction(0) if n is None else _scalar(n, self.den)

    def _signature(self):
        # Table-independent canonical form: den, and per term the set of (var, exp≠0).
        return self.den, frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exps) if e != 0), n)
            for exps, n in self.nums.items()
        )

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            if self.vars == other.vars:
                return self.den == other.den and self.nums == other.nums
            return self._signature() == other._signature()
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():  # equal to its scalar, so hashed as the scalar
            return hash(self.constant_value())
        return hash(self._signature())

    def __bool__(self):
        return bool(self.nums)

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
        if _is_pair(a.nums) or _is_pair(b.nums):
            na, nb = _pairs(a.nums), _pairs(b.nums)
            out = {e: (re * sa, im * sa) for e, (re, im) in na.items()}
            for e, (re, im) in nb.items():
                r0, i0 = out.get(e, (0, 0))
                out[e] = (r0 + re * sb, i0 + im * sb)
        else:
            out = {e: n * sa for e, n in a.nums.items()}
            for e, n in b.nums.items():
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
        return _stored(self.vars, self.den, {e: _scaled(n, -1) for e, n in self.nums.items()})

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
            inv = Fraction(1) / other if not isinstance(other, GaussianRational) else other.inverse()
            return self * inv
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
        if len(self.nums) != 1:
            raise NonInvertibleSubstitution(
                f"{self.render()} is not a monomial, cannot invert"
            )
        [(exps, coeff)] = self.terms.items()
        inv = (
            coeff.inverse()
            if isinstance(coeff, GaussianRational)
            else Fraction(1) / coeff
        )
        return LaurentPoly(self.vars, {tuple(-e for e in exps): inv})

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, var: str) -> "LaurentPoly":
        """Formal partial derivative; the power rule covers negative exponents."""
        if var not in self.vars:
            return LaurentPoly.zero(self.vars)
        idx = self.vars.index(var)
        # Lowering one exponent maps distinct terms to distinct terms.
        return _stored(
            self.vars,
            *_normal_form(
                self.den,
                {
                    exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: _scaled(n, exps[idx])
                    for exps, n in self.nums.items()
                    if exps[idx]
                },
            ),
        )

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
        # The result's table: the images' tables in the order the terms reach them.
        reached = dict.fromkeys(
            var for exps in self.nums for var, e in zip(self.vars, exps) if e
        )
        variables = tuple(dict.fromkeys(v for var in reached for v in images[var].vars))
        powers = {var: Powers(_reindex(images[var], variables)) for var in reached}
        one = LaurentPoly.const(1, variables)
        # Per term: n/den * (all its image powers but the last) * the last one.
        triples = []
        for exps, n in self.nums.items():
            *head, last = [powers[var][e] for var, e in zip(self.vars, exps) if e] or [one]
            triples.append(((self.den, n), reduce(mul, head) if head else one, last))
        return _accumulate(variables, triples)

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Exact value at a scalar point; every effective variable needs a value."""
        values = {v: as_scalar(c) for v, c in point.items()}
        total: Scalar = Fraction(0)
        for exps, n in self.nums.items():
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

        Strips the monomial content of both operands and runs leading-term
        polynomial division in canonical order on the integer numerators,
        fraction-free: when the divisor's leading coefficient does not divide
        the remainder's, the remainder and the quotient are scaled by an int
        first, and the scale goes into the result's denominator.  Reattaches
        the monomial quotient.  Raises InsufficientClearing when the division
        is not exact.
        """
        if divisor.is_zero():
            raise DivisionByZero("exact division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vars)
        variables, a, b = self._aligned(divisor)
        pair = _is_pair(a.nums) or _is_pair(b.nums)
        zero = (0, 0) if pair else 0
        rem, den = (_pairs(p.nums) if pair else p.nums for p in (a, b))
        shift_a, shift_b = _content_shift(rem), _content_shift(den)
        rem = {tuple(map(sub, exps, shift_a)): n for exps, n in rem.items()}
        den = {tuple(map(sub, exps, shift_b)): n for exps, n in den.items()}
        lead_den = min(den, key=_term_sort_key)
        lead_den_coeff = den[lead_den]
        quotient: Dict[Exponents, object] = {}
        heap = [(_term_sort_key(exps), exps) for exps in rem]
        heapify(heap)
        scale = 1  # self / divisor == quotient * b.den / (a.den * scale)
        while rem:
            lead = heappop(heap)[1]
            if lead not in rem:
                continue  # a stale entry: the term cancelled after it was pushed
            q_exps = tuple(map(sub, lead, lead_den))
            if any(e < 0 for e in q_exps):
                raise InsufficientClearing(
                    f"{self.render()} is not exactly divisible by {divisor.render()}"
                )
            q_coeff, s = _lead_quotient(rem[lead], lead_den_coeff)
            if s != 1:
                rem = {exps: _scaled(n, s) for exps, n in rem.items()}
                quotient = {exps: _scaled(n, s) for exps, n in quotient.items()}
                scale *= s
            quotient[q_exps] = q_coeff
            for exps, n in den.items():
                key = tuple(map(add, q_exps, exps))
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
                    heappush(heap, (_term_sort_key(key), key))
                rem[key] = value
        shift = tuple(map(sub, shift_a, shift_b))
        return _stored(
            variables,
            *_normal_form(
                a.den * scale,
                {tuple(map(add, exps, shift)): _scaled(n, b.den) for exps, n in quotient.items()},
            ),
        )

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. 'x^2*y + x*y^2' or '3/4*x - 1'."""
        if not self.nums:
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
        variables = tuple(payload["vars"])
        terms: Dict[Exponents, Scalar] = {}
        for item in payload["terms"]:
            exps = tuple(int(e) for e in item["exps"])
            coeff = scalar_from_json(item["coeff"])
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return LaurentPoly(variables, terms)


# -- the stored form ---------------------------------------------------------
#
# A numerator is an int, or an (re, im) int pair in the Gaussian form.


def _table(variables) -> Tuple[str, ...]:
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable in table {variables}")
    return variables


# the slots' own setters: LaurentPoly.__setattr__ refuses every assignment
_set_vars, _set_den, _set_nums = (getattr(LaurentPoly, s).__set__ for s in ("vars", "den", "nums"))


def _stored(variables, den: int, nums: dict, poly: LaurentPoly | None = None) -> LaurentPoly:
    """A polynomial holding the normalised (den, nums) as given; no checks."""
    if poly is None:
        poly = object.__new__(LaurentPoly)
    _set_vars(poly, variables)
    _set_den(poly, den)
    _set_nums(poly, nums)
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


def _content_shift(nums: dict) -> Exponents:
    # Componentwise min exponent: the monomial content of the polynomial.
    return tuple(map(min, zip(*nums)))


def _reindex(poly: LaurentPoly, variables: Tuple[str, ...]) -> LaurentPoly:
    """poly over another table; dropping a variable that occurs raises."""
    if poly.vars == variables:
        return poly
    index = {v: i for i, v in enumerate(variables)}
    out = {}
    for exps, n in poly.nums.items():
        new = [0] * len(variables)
        for var, e in zip(poly.vars, exps):
            if e == 0:
                continue
            if var not in index:
                raise ValueError(f"cannot drop live variable {var!r}")
            new[index[var]] = e
        out[tuple(new)] = n
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
    pair; the sum is normalised once.
    """
    live = []
    pair = False
    for (wd, wn), a, b in triples:
        if wn and a.nums and b.nums:
            live.append((wd * a.den * b.den, wn, a.nums, b.nums))
            pair = pair or type(wn) is tuple or _is_pair(a.nums) or _is_pair(b.nums)
    den = lcm(*[d for d, _, _, _ in live])
    if not pair:
        acc: Dict[Exponents, int] = {}
        for d, wn, nums_a, nums_b in live:
            scale = wn * (den // d)
            nums_b = nums_b.items()
            for ea, na in nums_a.items():
                na *= scale
                for eb, nb in nums_b:
                    key = tuple(map(add, ea, eb))
                    acc[key] = acc.get(key, 0) + na * nb
        return _stored(variables, *_normal_form(den, acc))
    sums: Dict[Exponents, list] = {}
    for d, wn, nums_a, nums_b in live:
        scale = den // d
        wr, wi = wn if type(wn) is tuple else (wn, 0)
        nums_b = _pairs(nums_b).items()
        for ea, (ra, ia) in _pairs(nums_a).items():
            ra, ia = (ra * wr - ia * wi) * scale, (ra * wi + ia * wr) * scale
            for eb, (rb, ib) in nums_b:
                key = tuple(map(add, ea, eb))
                pair = sums.get(key)
                if pair is None:
                    sums[key] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    pair[0] += ra * rb - ia * ib
                    pair[1] += ra * ib + ia * rb
    return _stored(variables, *_normal_form(den, sums))


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
    idx = f.vars.index(var) if var in f.vars else None
    rest_vars = tuple(v for v in f.vars if v != var)
    # f's numerators grouped by their power of var: f = sum_k a_k var^k.
    by_power: Dict[int, dict] = {}
    for exps, n in f.nums.items():
        k = exps[idx] if idx is not None else 0
        by_power.setdefault(k, {})[tuple(e for i, e in enumerate(exps) if i != idx)] = n
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


def parse_poly(text: str, variables: Iterable[str] | None = None) -> LaurentPoly:
    """Parse the canonical text format (inverse of LaurentPoly.render)."""
    parser = _PolyParser(text)
    poly = parser.parse()
    if variables is not None:
        variables = tuple(variables)
        extra = [v for v in poly.live_vars() if v not in variables]
        if extra:
            raise ParseError(f"unexpected variables {extra}", 0)
        return _reindex(poly, _table(variables))
    return poly


class _PolyParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> LaurentPoly:
        self.skip_ws()
        if self.pos == len(self.text):
            self.error("empty polynomial")
        result = LaurentPoly.zero()
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        while True:
            term = self.parse_term()
            result = result + (term if sign == 1 else -term)
            self.skip_ws()
            if self.pos == len(self.text):
                return result
            op = self.peek()
            if op not in "+-":
                self.error(f"expected '+' or '-', found {op!r}")
            sign = 1 if op == "+" else -1
            self.pos += 1

    def parse_term(self) -> LaurentPoly:
        self.skip_ws()
        coeff: Scalar = Fraction(1)
        factors: Dict[str, int] = {}
        saw_factor = False
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "(":
                coeff = coeff * self.parse_gaussian()
            elif ch.isdigit():
                coeff = coeff * self.parse_rational()
            elif ch.isalpha() or ch == "_":
                name, exp = self.parse_var_power()
                factors[name] = factors.get(name, 0) + exp
            else:
                self.error(f"expected a factor, found {ch!r}")
            saw_factor = True
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                continue
            break
        if not saw_factor:
            self.error("empty term")
        variables = tuple(factors)
        exps = tuple(factors[v] for v in variables)
        return LaurentPoly(variables, {exps: coeff})

    def parse_rational(self) -> Fraction:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        num = int(self.text[start : self.pos])
        if self.peek() == "/":
            save = self.pos
            self.pos += 1
            if not self.peek().isdigit():
                # Not a fraction after all (e.g. stray slash); rewind.
                self.pos = save
                return Fraction(num)
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            den = int(self.text[dstart : self.pos])
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_gaussian(self) -> Scalar:
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return parse_scalar(self.text[start : self.pos])
            self.pos += 1
        self.error("unbalanced parenthesis")

    def parse_var_power(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start : self.pos]
        exp = 1
        if self.peek() == "^":
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            if not self.peek().isdigit():
                self.error("expected exponent digits")
            estart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            exp = sign * int(self.text[estart : self.pos])
        return name, exp
