"""Golden witnesses: every identity report, clean and under fault injection.

`tests/data/identity_witnesses.json` holds the reports of
`run_all(max_n=6, oracle_max_n=4)` on the grammar families, then the failing
reports of the same run with one family member corrupted: each family at
n=3, plus `deriv_P` at n=0.  A corrupted member gains the monomial with every
exponent 1.  Timings are dropped; everything else must match exactly,
including which disagreement a check reports first.
"""

import json
from pathlib import Path

from gramcalc.families import FAMILY_NAMES
from gramcalc.identities import GrammarFamilies, run_all
from gramcalc.laurent import LaurentPoly

GOLDEN = Path(__file__).parent / "data" / "identity_witnesses.json"
FAULTS = [(family, 3) for family in FAMILY_NAMES] + [("deriv_P", 0)]


class _Corrupted(GrammarFamilies):
    def __init__(self, family, n):
        self.family = family
        self.n = n

    def poly(self, name, n):
        poly = super().poly(name, n)
        if name == self.family and n == self.n:
            poly = poly + LaurentPoly.monomial(poly.vars, (1,) * len(poly.vars))
        return poly


def _reports(provider=None, failing_only=False):
    out = []
    for report in run_all(max_n=6, oracle_max_n=4, provider=provider):
        if failing_only and report.passed:
            continue
        payload = report.to_json()
        payload.pop("millis")
        out.append(payload)
    return out


def witness_table() -> dict:
    return {
        "clean": _reports(),
        "faults": {
            f"{family}@{n}": _reports(_Corrupted(family, n), failing_only=True)
            for family, n in FAULTS
        },
    }


def test_witnesses_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = witness_table()
    assert actual["clean"] == expected["clean"]
    assert actual["faults"].keys() == expected["faults"].keys()
    for key, reports in expected["faults"].items():
        assert actual["faults"][key] == reports, key
