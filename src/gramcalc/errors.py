"""Exception types shared across the package."""


class GramcalcError(Exception):
    """Base class for all package errors."""


class ParseError(GramcalcError):
    """Malformed polynomial / grammar text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonInvertibleSubstitution(GramcalcError):
    """A variable with a negative exponent was mapped to a non-monomial."""


class InsufficientClearing(GramcalcError):
    """Denominator clearing left a non-polynomial remainder."""


class DivisionByZero(GramcalcError, ZeroDivisionError):
    """Exact evaluation or division hit a zero denominator."""


class ExponentOverflow(GramcalcError, OverflowError):
    """An exponent outside the range a packed monomial key holds."""


class ExtensionConflict(GramcalcError):
    """Square-root extension rejected (already extended, or not closable)."""


class UnknownFamily(GramcalcError):
    """Family name not registered."""


class UnknownSequence(GramcalcError):
    """Integer-sequence name not registered."""


class NotGammaExpressible(GramcalcError):
    """Polynomial has no exact expansion in the (xy)^k (x+y)^{n+1-2k} basis."""


class NotBetaExpressible(GramcalcError):
    """Polynomial has no exact expansion in the x^j (1+x^2)^k basis."""


class NotAPermutation(GramcalcError):
    """Input sequence is not a permutation of 1..n."""


class BoundExceeded(GramcalcError):
    """Enumeration size over the configured bound."""


class UnknownIdentity(GramcalcError):
    """Identity name not registered."""


class NonUnitConstantTerm(GramcalcError):
    """Series division/log needs an invertible scalar constant term."""


class CrossCheckFailed(GramcalcError):
    """Two independent routes to the same value disagree."""


class InvalidRadicalWitness(GramcalcError):
    """Claimed square root does not square to the radicand."""


class InvalidPoint(GramcalcError):
    """A user-supplied point at which a check cannot be evaluated."""
