"""Exact formal-derivative calculus on context-free grammars.

The package computes the classical polynomial families generated by
substitution-rule grammars (descent, binary-tree, 0-1-2-tree, peak, and
derivative polynomials), recounts each of them by weighted counting of
permutations and increasing trees, and mechanically verifies a catalog of
identities tying the families together - all in exact rational and
Gaussian-rational arithmetic.

`import gramcalc` loads no submodule: each public name is imported from the
submodule that defines it on first access (PEP 562), so a process pays only
for the parts it uses.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("errata", "ERRATA"),  # read on first access too, see gramcalc.errata
        ("families", "CoefficientTable FAMILY_NAMES beta_expansion family_number family_poly"
                     " gamma_expansion recurrence_poly"),
        ("grammar", "Grammar parse_grammar verify_transformation"),
        ("identities", "IDENTITY_NAMES IdentityReport run_all run_identity"),
        ("laurent", "LaurentPoly RationalFunction parse_poly substitute_rational"),
        ("scalar", "GaussianRational exact_sqrt make_gaussian"),
        ("series", "RadicalPoint TruncSeries closed_form_series compare_series"
                   " compose_poly_series elementary_series"),
        ("structures", "PermRecord enumerate_structures family_poly_oracle label_permutation"
                       " perm_stats"),
    )
    for name in names.split()
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
