"""Formal derivatives of context-free grammars over Laurent polynomials.

A grammar maps each ruled variable to a Laurent polynomial; variables without
a rule are constants.  The formal derivative acts as
D(f) = sum_v rule(v) * df/dv.  An optional square-root extension adjoins one
variable z with z^2 = radicand; arithmetic keeps z-exponents in {0, 1} by
rewriting z^2 -> radicand, which keeps the extended ring closed.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import CrossCheckFailed, ExtensionConflict, GramcalcError, InsufficientClearing, ParseError
from .laurent import LaurentPoly, Powers, parse_poly, sum_of_products

_ONE = LaurentPoly.const(1)


class Grammar:
    """Immutable substitution-rule set with its formal derivative."""

    __slots__ = ("vars", "rules", "sqrt_var", "sqrt_radicand")

    def __init__(
        self,
        variables: Iterable[str],
        rules: Mapping[str, LaurentPoly],
        sqrt_var: Optional[str] = None,
        sqrt_radicand: Optional[LaurentPoly] = None,
    ):
        variables = tuple(variables)
        table = set(variables)
        if len(table) != len(variables):
            raise ValueError(f"duplicate variable in {variables}")
        normalized: Dict[str, LaurentPoly] = {}
        for var, rhs in rules.items():
            if var not in table:
                raise ValueError(f"rule for unknown variable {var!r}")
            for used in rhs.live_vars():
                if used not in table:
                    raise ValueError(
                        f"rule {var} -> {rhs.render()} uses unknown variable {used!r}"
                    )
            normalized[var] = rhs
        if (sqrt_var is None) != (sqrt_radicand is None):
            raise ValueError("square-root extension needs both variable and radicand")
        if sqrt_var is not None and sqrt_var not in table:
            raise ValueError(f"extension variable {sqrt_var!r} not in table")
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "rules", normalized)
        object.__setattr__(self, "sqrt_var", sqrt_var)
        object.__setattr__(self, "sqrt_radicand", sqrt_radicand)

    def __setattr__(self, name, value):
        raise AttributeError("Grammar is immutable")

    # -- the derivative ------------------------------------------------------

    def reduce(self, f: LaurentPoly) -> LaurentPoly:
        """Rewrite z-exponents into {0, 1} using z^2 = radicand."""
        if self.sqrt_var is None or self.sqrt_var not in f.vars:
            return f
        z = self.sqrt_var
        idx = f.vars.index(z)
        radicand = Powers(self.sqrt_radicand)
        # f = sum over q of (its terms in z^(2q) and z^(2q+1), read as z^0, z^1) * radicand^q
        first_e = {}
        for exps in f.nums:
            first_e.setdefault(exps[idx] // 2, exps[idx])
        triples = []
        for q, e in first_e.items():
            try:
                # _ONE, not radicand[0]: a term left alone adds no variable to the table
                factor = _ONE if q == 0 else radicand[q]
            except Exception as exc:
                raise ExtensionConflict(f"cannot reduce {z}^{e}: radicand not invertible") from exc

            def lowered(exps):
                if exps[idx] // 2 == q:
                    return exps[:idx] + (exps[idx] - 2 * q,) + exps[idx + 1 :]

            triples.append((1, f.collect(lowered, f.vars), factor))
        return sum_of_products(triples, f.vars)

    def derive(self, f: LaurentPoly) -> LaurentPoly:
        """One application of the formal derivative, extension-reduced."""
        f = self.reduce(f)
        partials = ((rhs, f.partial_derivative(var)) for var, rhs in self.rules.items())
        return self.reduce(sum_of_products(((1, rhs, d) for rhs, d in partials if d), self.vars))

    def derive_n(self, f: LaurentPoly, n: int) -> LaurentPoly:
        return self.derivative_chain(f, n)[-1]

    def derivative_chain(self, f: LaurentPoly, n: int) -> Tuple[LaurentPoly, ...]:
        """D^0(f) .. D^n(f) in one pass."""
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        chain = [self.reduce(f)]
        for _ in range(n):
            chain.append(self.derive(chain[-1]))
        return tuple(chain)

    def gen_coeffs(self, f: LaurentPoly, order: int):
        """Truncated generating function of f: coefficients D^0(f) .. D^N(f)."""
        from .series import TruncSeries

        return TruncSeries(self.derivative_chain(f, order))

    def leibniz_expand(self, f: LaurentPoly, g: LaurentPoly, n: int) -> LaurentPoly:
        """sum_k C(n,k) D^k(f) D^{n-k}(g); checked against D^n(f*g)."""
        chain_f = self.derivative_chain(f, n)
        chain_g = self.derivative_chain(g, n)
        total = self.reduce(
            sum_of_products(
                ((comb(n, k), chain_f[k], chain_g[n - k]) for k in range(n + 1)), self.vars
            )
        )
        if total != self.derive_n(f * g, n):
            raise CrossCheckFailed("Leibniz expansion mismatch")
        return total

    # -- transformations and extensions ---------------------------------------

    def extend_sqrt(self, z: str, radicand: LaurentPoly) -> "Grammar":
        """Adjoin z with z^2 = radicand and rule z -> D(radicand)/(2 radicand) * z."""
        if self.sqrt_var is not None:
            raise ExtensionConflict(f"grammar already extended by {self.sqrt_var!r}")
        if z in self.vars:
            raise ExtensionConflict(f"{z!r} already a grammar variable")
        d_rad = self.derive(radicand)
        try:
            half_log = d_rad.exact_divide(radicand) / 2
        except InsufficientClearing as exc:
            raise ExtensionConflict(
                f"derivative of radicand {radicand.render()} is not divisible by it"
            ) from exc
        z_poly = LaurentPoly.variable(z)
        rules = dict(self.rules)
        rules[z] = half_log * z_poly
        return Grammar(self.vars + (z,), rules, sqrt_var=z, sqrt_radicand=radicand)

    def __eq__(self, other):
        if not isinstance(other, Grammar):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.rules == other.rules
            and self.sqrt_var == other.sqrt_var
            and self.sqrt_radicand == other.sqrt_radicand
        )

    def __repr__(self):
        body = ", ".join(f"{v} -> {p.render()}" for v, p in self.rules.items())
        if self.sqrt_var is not None:
            body += f"; sqrt {self.sqrt_var}^2 = {self.sqrt_radicand.render()}"
        return f"Grammar({body})"

    # -- codecs ---------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{var} -> {self.rules[var].render()}" for var in self.vars if var in self.rules]
        if self.sqrt_var is not None:
            lines.append(f"sqrt {self.sqrt_var}^2 = {self.sqrt_radicand.render()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        payload = {
            "vars": list(self.vars),
            "rules": {var: self.rules[var].to_json() for var in self.vars if var in self.rules},
        }
        if self.sqrt_var is not None:
            payload["sqrt"] = {
                "var": self.sqrt_var,
                "radicand": self.sqrt_radicand.to_json(),
            }
        return payload

    @staticmethod
    def from_json(payload: Mapping) -> "Grammar":
        rules = {var: LaurentPoly.from_json(rhs) for var, rhs in payload["rules"].items()}
        sqrt = payload.get("sqrt")
        if sqrt is None:
            return Grammar(tuple(payload["vars"]), rules)
        return Grammar(
            tuple(payload["vars"]),
            rules,
            sqrt_var=sqrt["var"],
            sqrt_radicand=LaurentPoly.from_json(sqrt["radicand"]),
        )


def parse_grammar(text: str) -> Grammar:
    """Parse the line format 'var -> polynomial' plus optional 'sqrt z^2 = poly'.

    A line holding '->' is a rule; any other line must be the sqrt line.  An
    error names its line; a position is one within the stripped line.
    """
    rules: Dict[str, LaurentPoly] = {}
    sqrt_line = sqrt_var = sqrt_radicand = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" in line:
            var = line[: line.index("->")].strip()
            if not var.isidentifier():
                raise ParseError(f"line {lineno}: bad variable name {var!r}", 0)
            if var in rules:
                raise ParseError(f"line {lineno}: duplicate rule for {var!r}", 0)
            rules[var] = _parse_rhs(lineno, line, line.index("->") + 2)
            continue
        if not line.startswith("sqrt"):
            raise ParseError(f"line {lineno}: expected 'var -> polynomial'", 0)
        if "=" not in line:
            raise ParseError(f"line {lineno}: malformed sqrt line", 0)
        lhs = line[4 : line.index("=")].strip()
        if not lhs.endswith("^2"):
            raise ParseError(f"line {lineno}: sqrt line must declare z^2", 0)
        if sqrt_var is not None:
            raise ParseError(f"line {lineno}: second sqrt extension", 0)
        sqrt_line, sqrt_var = lineno, lhs[:-2].strip()
        if not sqrt_var.isidentifier():
            raise ParseError(f"line {lineno}: bad variable name {sqrt_var!r}", 0)
        sqrt_radicand = _parse_rhs(lineno, line, line.index("=") + 1)
    table = dict.fromkeys([*rules, *(v for rhs in rules.values() for v in rhs.vars)])
    if sqrt_var is None:
        return Grammar(tuple(table), rules)
    table.update(dict.fromkeys(sqrt_radicand.vars))
    # Re-derive the z rule so text round-trips stay consistent.
    rules.pop(sqrt_var, None)
    try:
        base = Grammar(tuple(v for v in table if v != sqrt_var), rules)
        return base.extend_sqrt(sqrt_var, sqrt_radicand)
    except (ValueError, GramcalcError) as exc:  # an extension the grammar cannot take
        raise ParseError(f"line {sqrt_line}: {exc}", 0) from None


def _parse_rhs(lineno: int, line: str, start: int) -> LaurentPoly:
    """parse_poly(line[start:]), an error prefixed with the line number."""
    try:
        return parse_poly(line[start:])
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc.message}", start + exc.position) from None


def verify_transformation(
    g_old: Grammar,
    phi: Mapping[str, LaurentPoly],
    h_new: Grammar,
) -> Tuple[bool, Optional[Tuple[str, LaurentPoly, LaurentPoly]]]:
    """Check that phi intertwines the derivatives of g_old and h_new.

    For every variable w of h_new: derive(g_old, phi(w)) must equal
    rule_h(w) with phi substituted in.  Returns (True, None) on success or
    (False, (w, lhs, rhs)) for the first offending variable.
    """
    missing = [var for var in h_new.vars if var not in phi]
    if missing:
        raise ValueError(f"phi gives no image for {missing}")
    for var in h_new.vars:
        lhs = g_old.derive(phi[var])
        rule = h_new.rules.get(var, LaurentPoly.zero(h_new.vars))
        rhs = g_old.reduce(rule.substitute(dict(phi)))
        if lhs != rhs:
            return False, (var, lhs, rhs)
    return True, None
