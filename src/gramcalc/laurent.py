"""Exact multivariate Laurent polynomials over rational / Gaussian-rational scalars.

A polynomial carries an ordered variable table and a sparse map from exponent
vectors (tuples of signed ints, aligned with the table) to nonzero scalars.
Values are immutable; every operation returns a fresh polynomial.  Mixed-table
arithmetic aligns on the union of the two tables (left operand's order first).

Canonical term order — descending total degree, ties broken by descending
lexicographic exponent vector — fixes rendering and JSON byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, lcm
from operator import add, mul
from typing import Dict, Iterable, Mapping, Tuple

from .errors import (
    DivisionByZero,
    InsufficientClearing,
    NonInvertibleSubstitution,
    ParseError,
)
from .scalar import (
    ONE,
    ZERO,
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

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in table {variables}")
        clean: Dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(
                    f"exponent vector {exps} does not match table {variables}"
                )
            coeff = as_scalar(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def _make(variables: Tuple[str, ...], terms: Dict[Exponents, Scalar]) -> "LaurentPoly":
        # Trusted constructor for kernel results: a duplicate-free table and
        # aligned, nonzero Fraction/GaussianRational terms; no per-term checks.
        poly = object.__new__(LaurentPoly)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "LaurentPoly":
        return LaurentPoly(variables, {})

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "LaurentPoly":
        variables = tuple(variables)
        return LaurentPoly(variables, {(0,) * len(variables): as_scalar(value)})

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
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> Scalar:
        """The scalar value of a constant polynomial (0 if zero)."""
        if not self.terms:
            return Fraction(0)
        [(exps, coeff)] = self.terms.items()
        if any(exps):
            raise ValueError(f"{self} is not constant")
        return coeff

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def degree_in(self, var: str) -> int:
        if var not in self.vars or not self.terms:
            return 0
        idx = self.vars.index(var)
        return max(exps[idx] for exps in self.terms)

    def min_degree_in(self, var: str) -> int:
        if var not in self.vars or not self.terms:
            return 0
        idx = self.vars.index(var)
        return min(exps[idx] for exps in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _term_sort_key(item[0]))

    def restricted(self, variables: Iterable[str]) -> "LaurentPoly":
        """The same polynomial over a reordered (possibly smaller) table.

        Dropping a variable that actually occurs is an error.
        """
        return LaurentPoly(variables, _reindex(self, tuple(variables)))

    def coefficient(self, exps_by_var: Mapping[str, int]) -> Scalar:
        """Coefficient of the monomial with the given exponents (others zero)."""
        exps = tuple(exps_by_var.get(v, 0) for v in self.vars)
        for var, e in exps_by_var.items():
            if var not in self.vars and e != 0:
                return Fraction(0)
        return self.terms.get(exps, Fraction(0))

    def _signature(self):
        # Table-independent canonical form: per term, the set of (var, exp≠0).
        return frozenset(
            (
                frozenset(
                    (v, e) for v, e in zip(self.vars, exps) if e != 0
                ),
                coeff,
            )
            for exps, coeff in self.terms.items()
        )

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            if self.vars == other.vars:
                return self.terms == other.terms
            return self._signature() == other._signature()
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._signature())

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "LaurentPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return tuple(merged), _reindex(self, merged), _reindex(other, merged)

    def __add__(self, other):
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        out = dict(a)
        for exps, coeff in b.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return LaurentPoly._make(variables, {k: v for k, v in out.items() if v})

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
        return LaurentPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        variables, a, b = self._aligned(other)
        return _accumulate(variables, [(1, a, b)])

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
        if len(self.terms) != 1:
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
        return LaurentPoly._make(
            self.vars,
            {
                exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: coeff * exps[idx]
                for exps, coeff in self.terms.items()
                if exps[idx]
            },
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
            var for exps in self.terms for var, e in zip(self.vars, exps) if e
        )
        variables = tuple(dict.fromkeys(v for var in reached for v in images[var].vars))
        powers = {
            var: Powers(LaurentPoly._make(variables, _reindex(images[var], variables)))
            for var in reached
        }
        one = LaurentPoly.const(1, variables)
        # Per term: coeff * (all its image powers but the last) * the last one.
        triples = []
        for exps, coeff in self.terms.items():
            *head, last = [powers[var][e] for var, e in zip(self.vars, exps) if e] or [one]
            triples.append((coeff, reduce(mul, head) if head else one, last))
        return sum_of_products(triples, variables)

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Exact value at a scalar point; every effective variable needs a value."""
        values = {v: as_scalar(c) for v, c in point.items()}
        total: Scalar = Fraction(0)
        for exps, coeff in self.terms.items():
            term: Scalar = coeff
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
        return total

    # -- exact division -----------------------------------------------------

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor in the Laurent ring.

        Strips the monomial content of both operands, runs leading-term
        polynomial division in canonical order, and reattaches the monomial
        quotient.  Raises InsufficientClearing when the division is not exact.
        """
        if divisor.is_zero():
            raise DivisionByZero("exact division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.vars)
        variables, a, b = self._aligned(divisor)
        nvars = len(variables)
        shift_a = _content_shift(a, nvars)
        shift_b = _content_shift(b, nvars)
        num = {tuple(e - s for e, s in zip(exps, shift_a)): c for exps, c in a.items()}
        den = {tuple(e - s for e, s in zip(exps, shift_b)): c for exps, c in b.items()}
        lead_den = min(den, key=_term_sort_key)
        lead_den_coeff = den[lead_den]
        quotient: Dict[Exponents, Scalar] = {}
        rem = dict(num)
        while rem:
            lead = min(rem, key=_term_sort_key)
            q_exps = tuple(x - y for x, y in zip(lead, lead_den))
            if any(e < 0 for e in q_exps):
                raise InsufficientClearing(
                    f"{self.render()} is not exactly divisible by {divisor.render()}"
                )
            q_coeff = rem[lead] / lead_den_coeff
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
            variables,
            {tuple(e + s for e, s in zip(exps, shift)): c for exps, c in quotient.items()},
        )

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. 'x^2*y + x*y^2' or '3/4*x - 1'."""
        if not self.terms:
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


def _reindex(poly: LaurentPoly, variables) -> Dict[Exponents, Scalar]:
    """poly's terms over another table; dropping a variable that occurs raises."""
    index = {v: i for i, v in enumerate(variables)}
    out: Dict[Exponents, Scalar] = {}
    for exps, coeff in poly.terms.items():
        new = [0] * len(variables)
        for var, e in zip(poly.vars, exps):
            if e == 0:
                continue
            if var not in index:
                raise ValueError(f"cannot drop live variable {var!r}")
            new[index[var]] = e
        out[tuple(new)] = coeff
    return out


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

    def terms(poly):
        return poly.terms if poly.vars == table else _reindex(poly, table)

    return _accumulate(table, [(w, terms(a), terms(b)) for w, a, b in triples])


def binomial_convolution(a, b, n: int) -> LaurentPoly:
    """sum_k C(n,k) a[k] b[n-k], k = 0..n: the EGF product's n-th coefficient."""
    return sum_of_products((comb(n, k), a[k], b[n - k]) for k in range(n + 1))


def _accumulate(variables, triples) -> LaurentPoly:
    """sum of w*a*b over (scalar w, terms a, terms b), all aligned to `variables`.

    Each operand is cleared once to integer numerators over its lcm
    denominator, and every term pair is added into one dict over the common
    denominator of all the products.  Int sums when every coefficient is
    rational; (re, im) int sums when any coefficient or weight is Gaussian.
    """
    types = set()
    for w, a, b in triples:
        types.add(type(w))
        types.update(map(type, a.values()), map(type, b.values()))
    gaussian = GaussianRational in types
    clear = _cleared_gaussian if gaussian else _cleared
    cleared: Dict[int, tuple] = {}
    scaled = []
    for w, a, b in triples:
        if not (w and a and b):
            continue
        da, nums_a = cleared.get(id(a)) or cleared.setdefault(id(a), clear(a))
        db, nums_b = cleared.get(id(b)) or cleared.setdefault(id(b), clear(b))
        if gaussian:
            dw, [(_, *wn)] = _cleared_gaussian({(): as_scalar(w)})
        else:
            dw, wn = w.denominator, w.numerator
        scaled.append((wn, dw * da * db, nums_a, nums_b))
    den = lcm(*[d for _, d, _, _ in scaled])
    if not gaussian:
        acc: Dict[Exponents, int] = {}
        for wn, d, nums_a, nums_b in scaled:
            scale = wn * (den // d)
            for ea, na in nums_a:
                na *= scale
                for eb, nb in nums_b:
                    key = tuple(map(add, ea, eb))
                    acc[key] = acc.get(key, 0) + na * nb
        return LaurentPoly._make(variables, {k: Fraction(v, den) for k, v in acc.items() if v})
    sums: Dict[Exponents, list] = {}
    for (wr, wi), d, nums_a, nums_b in scaled:
        scale = den // d
        for ea, ra, ia in nums_a:
            ra, ia = (ra * wr - ia * wi) * scale, (ra * wi + ia * wr) * scale
            for eb, rb, ib in nums_b:
                key = tuple(map(add, ea, eb))
                pair = sums.get(key)
                if pair is None:
                    sums[key] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    pair[0] += ra * rb - ia * ib
                    pair[1] += ra * ib + ia * rb
    out: Dict[Exponents, Scalar] = {}
    for key, (re, im) in sums.items():
        if im:
            out[key] = GaussianRational(Fraction(re, den), Fraction(im, den))
        elif re:
            out[key] = Fraction(re, den)
    return LaurentPoly._make(variables, out)


def _cleared(terms: Mapping[Exponents, Scalar]):
    """(d, [(exps, c*d)]) with d the lcm denominator of rational terms."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(exps, c.numerator * (d // c.denominator)) for exps, c in terms.items()]


def _cleared_gaussian(terms: Mapping[Exponents, Scalar]):
    """(d, [(exps, re*d, im*d)]) with d the lcm denominator of every part."""
    parts = [
        (exps, c, ZERO) if type(c) is Fraction else (exps, c.re, c.im)
        for exps, c in terms.items()
    ]
    d = lcm(*[p.denominator for _, re, im in parts for p in (re, im)])
    return d, [
        (exps, re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
        for exps, re, im in parts
    ]


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


def _content_shift(terms: Mapping[Exponents, Scalar], nvars: int) -> Exponents:
    # Componentwise min exponent: the monomial content of the polynomial.
    mins = [None] * nvars
    for exps in terms:
        for i, e in enumerate(exps):
            if mins[i] is None or e < mins[i]:
                mins[i] = e
    return tuple(m or 0 for m in mins)


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

    def __hash__(self):
        return hash((self.numerator, self.denominator))

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
    # f's terms grouped by their power of var: f = sum_k a_k var^k.
    by_power: Dict[int, Dict[Exponents, Scalar]] = {}
    for exps, coeff in f.terms.items():
        k = exps[idx] if idx is not None else 0
        by_power.setdefault(k, {})[tuple(e for i, e in enumerate(exps) if i != idx)] = coeff
    den_powers = Powers(value.denominator)
    # Numerator of f(value) over D^degree, sum_k a_k N^k D^(degree-k), by
    # homogeneous Horner: num = num*N + a_k D^(degree-k), k from degree down.
    table = rest_vars + value.numerator.vars + value.denominator.vars if by_power else ()
    num = LaurentPoly.zero(tuple(dict.fromkeys(table)))
    for k in range(degree, -1, -1):
        triples = [(ONE, num, value.numerator)] if k < degree else []
        if k in by_power:
            a_k = LaurentPoly._make(rest_vars, by_power[k])
            triples.append((ONE, a_k, den_powers[degree - k]))
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
        extra = [
            v
            for i, v in enumerate(poly.vars)
            if v not in variables and any(exps[i] for exps in poly.terms)
        ]
        if extra:
            raise ParseError(f"unexpected variables {extra}", 0)
        return LaurentPoly(variables, _reindex(poly, variables))
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
