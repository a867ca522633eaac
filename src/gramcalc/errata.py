"""Documented corrections to commonly printed forms of catalogued identities.

Each entry maps a printed statement to the corrected form this suite verifies,
with the independent confirmation used (recurrence, oracle, or derivation).
The identity suite encodes only the corrected forms; nothing is silently
patched.  ERRATA (a tuple of read-only mappings) and ERRATA_BY_ID (a
read-only mapping by id) are read on first access, not at import.
"""

from __future__ import annotations

from types import MappingProxyType

_REQUIRED_KEYS = {"id", "location", "printed", "corrected", "confirmation"}


def _load():
    import json
    from importlib import resources

    data = json.loads(
        resources.files("gramcalc").joinpath("data/errata.json").read_text()
    )
    for entry in data:
        missing = _REQUIRED_KEYS - entry.keys()
        if missing:
            raise ValueError(f"errata entry {entry.get('id')} missing {missing}")
    return data


def __getattr__(name: str):
    if name not in ("ERRATA", "ERRATA_BY_ID"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global ERRATA, ERRATA_BY_ID
    ERRATA = tuple(MappingProxyType(entry) for entry in _load())
    ERRATA_BY_ID = MappingProxyType({entry["id"]: entry for entry in ERRATA})
    return globals()[name]
