"""Golden CLI corpus: the exit code and stdout digest of every call below.

`tests/data/cli_golden.json` maps each command line to [exit code, sha256 of
stdout], with `"millis": N` timings blanked before hashing.  The corpus:

- `family <name> --n N` in text and json, every family, N = 0..30, and in
  json for N = 31..60;
- `oracle <name> --n N --diff --format json`, every family, N = 0..8;
- `series <name> --order 10 --format json`, every elementary, closed-form
  and family name;
- in csv: `family <name> --n N` and `oracle <name> --n N`, every family,
  N = 0..8, and `series <name> --order 10`, every name above;
- `label <scheme> <permutation>` in text and json, every scheme and every
  permutation of [n], n = 1..5;
- `trees <kind> --n N`, listing and `--count`, every kind, N = 0..6, and
  `--count` for N = 7..8;
- `check all --format json` at the defaults, at `--max-n 20 --oracle-max-n 0`
  and at `--max-n 24 --oracle-max-n 0`.

Every call runs in process through `gramcalc.cli.main`.  To re-record after
an intended output change: `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import hashlib
import io
import itertools
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gramcalc.cli import main
from gramcalc.families import FAMILY_NAMES
from gramcalc.series import CLOSED_FORM_NAMES, ELEMENTARY_NAMES
from gramcalc.structures import LABEL_SCHEMES, STRUCTURE_KINDS

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
_MILLIS = re.compile(r'"millis": \d+')


def corpus() -> dict:
    """Group name -> list of argv."""
    series_names = ELEMENTARY_NAMES + CLOSED_FORM_NAMES + FAMILY_NAMES
    return {
        "family": [
            ["family", name, "--n", str(n), "--format", fmt]
            for name in FAMILY_NAMES
            for n in range(31)
            for fmt in ("text", "json")
        ] + [
            ["family", name, "--n", str(n), "--format", "json"]
            for name in FAMILY_NAMES
            for n in range(31, 61)
        ],
        "oracle": [
            ["oracle", name, "--n", str(n), "--diff", "--format", "json"]
            for name in FAMILY_NAMES
            for n in range(9)
        ],
        "series": [
            ["series", name, "--order", "10", "--format", "json"]
            for name in series_names
        ],
        "csv": [
            [command, name, "--n", str(n), "--format", "csv"]
            for command in ("family", "oracle")
            for name in FAMILY_NAMES
            for n in range(9)
        ] + [["series", name, "--order", "10", "--format", "csv"] for name in series_names],
        "label": [
            ["label", scheme, "".join(map(str, perm)), "--format", fmt]
            for scheme in LABEL_SCHEMES
            for n in range(1, 6)
            for perm in itertools.permutations(range(1, n + 1))
            for fmt in ("text", "json")
        ],
        "trees": [
            ["trees", kind, "--n", str(n)] + count
            for kind in STRUCTURE_KINDS
            for n in range(7)
            for count in ([], ["--count"])
        ] + [
            ["trees", kind, "--n", str(n), "--count"]
            for kind in STRUCTURE_KINDS
            for n in (7, 8)
        ],
        "check": [
            ["check", "all", "--format", "json"],
            ["check", "all", "--format", "json", "--max-n", "20", "--oracle-max-n", "0"],
            ["check", "all", "--format", "json", "--max-n", "24", "--oracle-max-n", "0"],
        ],
    }


def run(argv) -> list:
    """[exit code, sha256 of stdout with timings blanked] of one in-process call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    text = _MILLIS.sub('"millis": N', out.getvalue())
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def record() -> dict:
    return {
        group: {" ".join(argv): run(argv) for argv in calls}
        for group, calls in corpus().items()
    }


@pytest.mark.parametrize("group", sorted(corpus()))
def test_cli_outputs_match_golden(group):
    expected = json.loads(GOLDEN.read_text())[group]
    calls = corpus()[group]
    assert sorted(" ".join(argv) for argv in calls) == sorted(expected)
    differ = [key for key, got in ((" ".join(a), run(a)) for a in calls) if got != expected[key]]
    assert not differ, f"{len(differ)} of {len(calls)} calls differ, first: {differ[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
