"""Exact formal-derivative calculus on context-free grammars.

The package computes the classical polynomial families generated by
substitution-rule grammars (descent, binary-tree, 0-1-2-tree, peak, and
derivative polynomials), recounts each of them by brute-force enumeration of
permutations and increasing trees, and mechanically verifies a catalog of
identities tying the families together - all in exact rational and
Gaussian-rational arithmetic.
"""

from . import errata
from .families import (
    CoefficientTable,
    FAMILY_NAMES,
    beta_expansion,
    family_number,
    family_poly,
    gamma_expansion,
    recurrence_poly,
)
from .grammar import Grammar, parse_grammar, verify_transformation
from .laurent import LaurentPoly, RationalFunction, parse_poly, substitute_rational
from .scalar import GaussianRational, exact_sqrt, make_gaussian
from .series import (
    RadicalPoint,
    TruncSeries,
    closed_form_series,
    compare_series,
    compose_poly_series,
    elementary_series,
)
from .structures import (
    PermRecord,
    enumerate_structures,
    family_poly_oracle,
    label_permutation,
    perm_stats,
)

__version__ = "0.1.0"


# imported on first access: the identity catalog is built at import
_FROM_IDENTITIES = ("IDENTITY_NAMES", "IdentityReport", "run_all", "run_identity")


def __getattr__(name: str):
    if name == "ERRATA":  # read on first access, see gramcalc.errata
        return errata.ERRATA
    if name in _FROM_IDENTITIES:
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CoefficientTable",
    "ERRATA",
    "FAMILY_NAMES",
    "GaussianRational",
    "Grammar",
    "IDENTITY_NAMES",
    "IdentityReport",
    "LaurentPoly",
    "PermRecord",
    "RadicalPoint",
    "RationalFunction",
    "TruncSeries",
    "beta_expansion",
    "closed_form_series",
    "compare_series",
    "compose_poly_series",
    "elementary_series",
    "enumerate_structures",
    "exact_sqrt",
    "family_number",
    "family_poly",
    "family_poly_oracle",
    "gamma_expansion",
    "label_permutation",
    "make_gaussian",
    "parse_grammar",
    "parse_poly",
    "perm_stats",
    "recurrence_poly",
    "run_all",
    "run_identity",
    "substitute_rational",
    "verify_transformation",
]
