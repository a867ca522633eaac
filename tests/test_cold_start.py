"""Cold start: what `import gramcalc` and `import gramcalc.cli` load, and the
errata read on first use."""

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gramcalc
from gramcalc.families import gamma_expansion
from gramcalc.identities import REGISTRY, CheckContext, GrammarFamilies, run_identity
from gramcalc.series import RadicalPoint
from gramcalc.structures import perm_stats

SRC = Path(gramcalc.__file__).resolve().parent.parent


def _python(*args: str, path: Path = SRC) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports gramcalc from `path`."""
    env = dict(os.environ, PYTHONPATH=str(path))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


# Modules already loaded when the script starts are the bare interpreter's;
# every open() is seen by an audit hook, and every re.compile by a spy.
_IMPORT_PROBE = r"""
import re, sys
bare = set(sys.modules)
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
compiled, compile = [], re.compile
re.compile = lambda pattern, flags=0: compiled.append(pattern) or compile(pattern, flags)
import gramcalc.cli
loaded = sorted(set(sys.modules) - bare)
read_at_import = [p for p in opened if p.endswith("errata.json")]
from gramcalc.laurent import _FACTOR
factor_at_import = _FACTOR in compiled
import gramcalc
unresolved = [name for name in gramcalc.__all__ if not hasattr(gramcalc, name)]
read_on_access = [p for p in opened if p.endswith("errata.json")]
print(repr((loaded, read_at_import, read_on_access, unresolved, factor_at_import)))
"""


def test_cli_import_is_lean_and_errata_read_on_access():
    result = _python("-c", _IMPORT_PROBE)
    assert result.returncode == 0, result.stderr
    loaded, read_at_import, read_on_access, unresolved, factor_at_import = ast.literal_eval(
        result.stdout
    )
    assert not factor_at_import  # no polynomial is parsed at import
    assert "gramcalc.cli" in loaded
    assert "gramcalc.identities" not in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert read_at_import == []
    assert len(read_on_access) == 1
    assert unresolved == []


_PACKAGE_PROBE = r"""
import sys
bare = set(sys.modules)
import gramcalc
package = sorted(set(sys.modules) - bare)
import gramcalc.cli
print(repr((package, "json" in sys.modules)))
"""


def test_package_import_loads_no_submodule_and_cli_import_no_json():
    result = _python("-c", _PACKAGE_PROBE)
    assert result.returncode == 0, result.stderr
    package, json_loaded = ast.literal_eval(result.stdout)
    assert package == ["gramcalc"]  # no gramcalc.* submodule, and no fractions
    assert not json_loaded


# gc.freeze counts its calls; a hook registered before main runs after any
# hook main registers (atexit is last-in first-out) and reports the count.
_EXIT_PROBE = r"""
import atexit, gc, os, sys
freezes, freeze = [], gc.freeze
gc.freeze = lambda: freezes.append(None) or freeze()
atexit.register(lambda: os.write(1, f"freezes={len(freezes)}\n".encode()))
before = atexit._ncallbacks()
from gramcalc import cli
print(f"registered at import: {atexit._ncallbacks() - before}", flush=True)
for argv in sys.argv[1:]:
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    print(f"{argv}: {code}", flush=True)
"""


@pytest.mark.parametrize(
    "calls, expected",
    [
        ((), ["registered at import: 0", "freezes=0"]),
        (
            ("family dumont --n 1", "family dumont"),
            [
                "registered at import: 0",
                "u",
                "family dumont --n 1: 0",
                "family dumont: 2",
                "freezes=1",
            ],
        ),
    ],
    ids=["import only", "a call and a usage error"],
)
def test_main_freezes_the_heap_once_at_exit(calls, expected):
    # `family dumont` lacks --n: argparse raises SystemExit
    result = _python("-c", _EXIT_PROBE, *calls)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected


def test_public_names_resolve_to_their_defining_modules():
    for name in gramcalc.__all__:
        module = importlib.import_module(f"gramcalc.{gramcalc._SOURCES[name]}")
        value = getattr(gramcalc, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(gramcalc.__all__) <= set(dir(gramcalc))
    namespace = {}
    exec("from gramcalc import *", namespace)
    assert set(gramcalc.__all__) <= set(namespace)
    assert gramcalc.__version__ == "0.1.0"


def test_errata_access_is_cached():
    from gramcalc import errata

    assert gramcalc.ERRATA is errata.ERRATA is gramcalc.ERRATA
    assert errata.ERRATA_BY_ID is errata.ERRATA_BY_ID
    assert set(errata.ERRATA_BY_ID) == {entry["id"] for entry in errata.ERRATA}
    with pytest.raises(AttributeError):
        errata.NOT_A_NAME
    with pytest.raises(AttributeError):
        gramcalc.NOT_A_NAME


_RECORDS = {
    "CoefficientTable": lambda: gamma_expansion(3),
    "RadicalPoint": lambda: RadicalPoint(values={"x": Fraction(3, 4)}),
    "CheckContext": lambda: CheckContext(max_n=2, oracle_max_n=2, provider=GrammarFamilies()),
    "IdentityReport": lambda: run_identity("petersen", max_n=2),
    "IdentityEntry": lambda: REGISTRY["gessel"],
    "PermRecord": lambda: perm_stats((2, 1, 3)),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_refuse_assignment(name):
    record = _RECORDS[name]()
    assert type(record).__name__ == name
    first = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_record_mapping_defaults_are_read_only():
    defaults = (
        RadicalPoint().values,
        RadicalPoint().witnesses,
        CheckContext(max_n=1, oracle_max_n=1, provider=GrammarFamilies()).points,
    )
    for mapping in defaults:
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping["x"] = Fraction(1)


def test_errata_missing_key_raises_on_first_access(tmp_path):
    shutil.copytree(
        SRC / "gramcalc", tmp_path / "gramcalc", ignore=shutil.ignore_patterns("__pycache__")
    )
    data = tmp_path / "gramcalc" / "data" / "errata.json"
    entries = json.loads(data.read_text())
    del entries[1]["confirmation"]
    data.write_text(json.dumps(entries))
    probe = """
import gramcalc, gramcalc.cli
from gramcalc import errata
print("imported")
for read in (lambda: errata.ERRATA, lambda: errata.ERRATA_BY_ID, lambda: gramcalc.ERRATA):
    try:
        read()
    except ValueError as exc:
        print(exc)
"""
    result = _python("-c", probe, path=tmp_path)
    assert result.returncode == 0, result.stderr
    missing = f"errata entry {entries[1]['id']} missing {{'confirmation'}}"
    assert result.stdout.splitlines() == ["imported"] + [missing] * 3
    cli = _python("-m", "gramcalc.cli", "errata", path=tmp_path)
    assert cli.returncode == 2
    assert cli.stdout == ""
    assert cli.stderr == f"error: {missing}\n"
