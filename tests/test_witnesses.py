"""Golden witnesses: every identity report, clean and under fault injection.

`tests/data/identity_witnesses.json` holds the reports of
`run_all(max_n=6, oracle_max_n=4)` on the grammar families, then the failing
reports of the same run with one family member corrupted.  Two fault kinds:
the member gains the monomial with every exponent 1 (key `family@n`, each
family at n = 0..3), or the member is doubled, a zero member becoming 1 (key
`family@n*2`, each family at n = 3).  Timings are dropped; everything else
must match exactly, including which disagreement a check reports first.

`tests/data/identity_witnesses_small.json` holds the same table for
`run_all(max_n=m, oracle_max_n=min(m, 4))`, m = 1 and 2, keyed by m: there
the sub-block starts and lead pairs at n = 1 are the whole range.
"""

import json
from pathlib import Path

from gramcalc.families import FAMILY_NAMES
from gramcalc.identities import GrammarFamilies, run_all
from gramcalc.laurent import LaurentPoly

GOLDEN = Path(__file__).parent / "data" / "identity_witnesses.json"
SMALL = Path(__file__).parent / "data" / "identity_witnesses_small.json"


def _plus_monomial(poly):
    return poly + LaurentPoly.monomial(poly.vars, (1,) * len(poly.vars))


def _doubled(poly):
    if poly.is_zero():
        return LaurentPoly.const(1, poly.vars)
    return 2 * poly


FAULTS = [(f"{family}@{n}", family, n, _plus_monomial) for family in FAMILY_NAMES for n in range(4)]
FAULTS += [(f"{family}@3*2", family, 3, _doubled) for family in FAMILY_NAMES]


class _Corrupted(GrammarFamilies):
    def __init__(self, family, n, fault):
        self.family = family
        self.n = n
        self.fault = fault

    def poly(self, name, n):
        poly = super().poly(name, n)
        if name == self.family and n == self.n:
            poly = self.fault(poly)
        return poly


def _reports(provider=None, failing_only=False, max_n=6):
    out = []
    for report in run_all(max_n=max_n, oracle_max_n=min(max_n, 4), provider=provider):
        if failing_only and report.passed:
            continue
        payload = report.to_json()
        payload.pop("millis")
        out.append(payload)
    return out


def witness_table(max_n=6) -> dict:
    return {
        "clean": _reports(max_n=max_n),
        "faults": {
            key: _reports(_Corrupted(family, n, fault), failing_only=True, max_n=max_n)
            for key, family, n, fault in FAULTS
        },
    }


def test_witnesses_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = witness_table()
    assert actual["clean"] == expected["clean"]
    assert actual["faults"].keys() == expected["faults"].keys()
    for key, reports in expected["faults"].items():
        assert actual["faults"][key] == reports, key


def test_small_range_witnesses_match_golden():
    expected = json.loads(SMALL.read_text())
    assert expected.keys() == {"1", "2"}
    for m, table in expected.items():
        actual = witness_table(int(m))
        assert actual["clean"] == table["clean"], m
        assert actual["faults"].keys() == table["faults"].keys()
        for key, reports in table["faults"].items():
            assert actual["faults"][key] == reports, (m, key)
