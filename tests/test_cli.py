import json
import operator
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gramcalc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_cli_block_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    runs = {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "gramcalc", line
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == 0, (line, err)
        runs[" ".join(argv)] = (comment.strip(), out)
    assert len(runs) >= 13
    assert runs["gramcalc family deriv_P --n 3"] == ("6*x^4 + 8*x^2 + 2", "6*x^4 + 8*x^2 + 2\n")
    assert runs["gramcalc label L 314562"] == (
        "0 x 3 x 1 y 4 y 5 x 6 x 2 x 0 | x^5*y^2",
        "0 x 3 x 1 y 4 y 5 x 6 x 2 x 0 | x^5*y^2\n",
    )
    assert runs["gramcalc series hoffman_Q --order 3 --at x=2"] == (
        "coefficients 1, 2, 9, 58",
        "0: 1\n1: 2\n2: 9\n3: 58\n",
    )


def test_family_text(capsys):
    code, out, _ = run_cli(capsys, "family", "deriv_P", "--n", "3")
    assert code == 0
    assert out.strip() == "6*x^4 + 8*x^2 + 2"


def test_family_seed(capsys):
    code, out, _ = run_cli(capsys, "family", "eulerian_biv", "--n", "0")
    assert code == 0 and out.strip() == "y"


def test_family_json(capsys):
    code, out, _ = run_cli(capsys, "family", "dumont", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"vars": ["u", "v"], "terms": [{"coeff": "1", "exps": [1, 0]}]}


def test_family_bad_n(capsys):
    code, _, err = run_cli(capsys, "family", "dumont", "--n", "-1")
    assert code == 2
    assert "error" in err


def test_check_single_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "gessel", "--max-n", "10", "--points", "x=3/4")
    assert code == 0
    assert out.startswith("pass gessel")


def test_check_unknown_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "nosuch")
    assert code == 2
    assert "unknown identity" in err


def test_check_all_small(capsys):
    from gramcalc.identities import IDENTITY_NAMES

    code, out, _ = run_cli(capsys, "check", "all", "--max-n", "4", "--oracle-max-n", "3")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("pass")]
    # exact count: a silently deregistered identity must fail this
    assert len(lines) == len(IDENTITY_NAMES) >= 30


def test_check_all_empty_ranges_exit_2(capsys):
    code, out, err = run_cli(capsys, "check", "all", "--max-n", "0")
    assert code == 2
    assert "empty hoffman_conv [n=0..-1]" in out
    assert out.splitlines()[-1] == "24/46 identities pass"
    assert "empty range" in err and "hoffman_conv" in err


def test_check_single_empty_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "check", "mfmy_conv", "--max-n", "1")
    assert code == 2
    assert out.startswith("empty mfmy_conv [n=0..-1]")
    assert "mfmy_conv" in err


def test_check_bad_point_is_input_error(capsys):
    code, out, err = run_cli(capsys, "check", "gessel", "--points", "x=1", "--max-n", "4")
    assert code == 2
    assert "fail" not in out
    assert out.startswith("invalid gessel [n=0..4]")
    assert err.startswith("error: gessel: invalid point x=1: NonUnitConstantTerm")
    # a bare point reaches every check that reads x; all four are input errors
    code, out, err = run_cli(
        capsys, "check", "all", "--points", "x=0", "--max-n", "3", "--oracle-max-n", "2"
    )
    assert code == 2
    assert "fail" not in out
    assert err.splitlines() == [
        "error: david_barton_closed: invalid point x=0: ZeroDivisionError: Fraction(1, 0)"
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "petersen", "--points", "x=2", "--max-n", "3"], "no selected identity reads 'x'"),
        (["check", "gessel", "--points", "gessel.q=2"], "gessel reads x, not 'q'"),
        (["check", "gessel", "--points", "gesel.x=3/4"], "no identity named 'gesel'"),
        (["check", "gessel", "--points", "x=3/4,x=8/9"], "'x' is assigned more than once"),
        (["check", "all", "--points", "x=3/4", "--points", "x=8/9"], "'x' is assigned more than once"),
        (["series", "gessel_L", "--at", "x=3/4", "--at", "x=8/9"], "'x' is assigned more than once"),
        (["series", "exp", "--order", "3", "--at", "y=1"], "series exp reads no point"),
        (["series", "hoffman_P", "--order", "3", "--at", "x=1,y=1"], "hoffman_P reads x, not 'y'"),
        (["series", "gessel_L", "--order", "2", "--at", "x=3/4,y=1"], "gessel_L reads x, not 'y'"),
        (["series", "bivariate_L", "--at", "x=3,y=5,z=1"], "bivariate_L reads x, y, not 'z'"),
    ],
)
def test_unread_or_repeated_points_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["check", "gessel", "--points", "x=1/0"], ["series", "gessel_L", "--at", "x=1/0"]]
)
def test_zero_denominator_point_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: 'x' = '1/0' has a zero denominator\n"


def test_scoped_points_for_unselected_identities_are_allowed(capsys):
    code, out, err = run_cli(
        capsys, "check", "petersen", "--max-n", "3", "--points", "gessel.x=8/9,bivariate_gessel.y=5"
    )
    assert code == 0 and out.startswith("pass petersen") and err == ""


def test_check_mismatch_at_valid_point_still_fails(capsys, monkeypatch):
    import gramcalc.identities as identities

    real = identities.family_poly

    def corrupted(name, n):
        poly = real(name, n)
        return poly + 1 if (name, n) == ("left_peak_uni", 3) else poly

    monkeypatch.setattr(identities, "family_poly", corrupted)
    code, out, err = run_cli(capsys, "check", "gessel", "--points", "x=8/9", "--max-n", "4")
    assert code == 1
    assert out.startswith("fail gessel [n=0..4]") and '"n": 3' in out
    assert err == ""


@pytest.mark.parametrize(
    "option, name", [("--max-n", "mfmy_conv"), ("--oracle-max-n", "eulerian_oracle")]
)
def test_check_negative_bound_is_usage_error(capsys, option, name):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", name, option, "-3"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected a nonnegative integer, got '-3'" in captured.err
    # zero is accepted; the range it leaves is reported as empty
    code, out, err = run_cli(capsys, "check", name, option, "0")
    assert code == 2
    assert out.startswith(f"empty {name}") and "empty range" in err


def test_check_raised_oracle_cap_warns(capsys):
    argv = ("check", "jv_oracles", "--max-n", "2", "--oracle-max-n")
    code, quiet_out, quiet_err = run_cli(capsys, *argv, "9")
    assert code == 0 and quiet_err == ""
    code, out, err = run_cli(capsys, *argv, "10")
    assert code == 0
    assert err == "warning: enumeration bound raised to 10\n"
    strip = lambda text: re.sub(r"\(\d+ ms\)", "", text)
    assert out.startswith("pass jv_oracles [n=0..2]") and strip(out) == strip(quiet_out)


def test_check_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "check", "springer", "--max-n", "5", "--format", "json")
    code2, out2, _ = run_cli(capsys, "check", "springer", "--max-n", "5", "--format", "json")
    assert code1 == code2 == 0
    payload1 = json.loads(out1)
    payload2 = json.loads(out2)
    for payload in (payload1, payload2):
        for report in payload:
            report.pop("millis")
    assert payload1 == payload2


def test_oracle_diff(capsys):
    code, out, _ = run_cli(capsys, "oracle", "deriv_Q", "--n", "2", "--diff")
    assert code == 0
    assert "2*x^2 + 1" in out
    assert "equal" in out


def test_oracle_plain(capsys):
    code, out, _ = run_cli(capsys, "oracle", "lr_peak_biv", "--n", "2")
    assert code == 0 and out.strip() == "2*x^2*y"


def test_oracle_bound_exceeded(capsys):
    code, _, err = run_cli(capsys, "oracle", "eulerian_biv", "--n", "10")
    assert code == 2
    assert "bound" in err


def test_oracle_bound_override_warns(capsys):
    code, out, err = run_cli(capsys, "trees", "tree_012", "--n", "10", "--count", "--bound", "10")
    assert code == 0
    assert out.strip() == "50521"
    assert "warning" in err


@pytest.mark.parametrize(
    "argv", [("oracle", "deriv_P", "--n", "3"), ("trees", "jv_tree", "--n", "3", "--count")]
)
def test_negative_enumeration_bound_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--bound", "-5"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --bound: expected a nonnegative integer, got '-5'" in captured.err


def test_label_commands(capsys):
    code, out, _ = run_cli(capsys, "label", "L", "314562")
    assert code == 0
    assert out.strip() == "0 x 3 x 1 y 4 y 5 x 6 x 2 x 0 | x^5*y^2"
    code, out, _ = run_cli(capsys, "label", "W", "1")
    assert out.strip() == "0 x 1 x 0 | x^2"
    code, out, _ = run_cli(capsys, "label", "M", "21")
    assert out.strip() == "0 x 2 y 1 x 0 | x^2*y"
    code, out, _ = run_cli(capsys, "label", "M", "2,1")
    assert out.strip() == "0 x 2 y 1 x 0 | x^2*y"


def test_label_invalid_permutation(capsys):
    code, _, err = run_cli(capsys, "label", "L", "122")
    assert code == 2


@pytest.mark.parametrize("text", ["\u00b21", "2,\u00b2,1", "1,x", ""])
def test_label_unreadable_permutation_names_its_input(capsys, text):
    # "\u00b2" is a digit to str.isdigit and not to int()
    code, out, err = run_cli(capsys, "label", "L", text)
    assert (code, out) == (2, "")
    assert f"error: cannot read permutation from {text!r}" in err


def test_check_superscript_bound_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "gessel", "--max-n", "\u00b2"])
    assert exit_info.value.code == 2
    assert "argument --max-n: expected a nonnegative integer, got '\u00b2'" in capsys.readouterr().err


def test_closed_stdout_exits_141_quietly():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gramcalc.cli", "trees", "permutations", "--n", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # as `| head -n 1` does
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert first == b"[1, 2, 3, 4, 5, 6, 7, 8]\n"
    assert err == b""


def test_series_elementary(capsys):
    code, out, _ = run_cli(capsys, "series", "tan", "--order", "5")
    assert code == 0
    assert [line.split(": ")[1] for line in out.strip().splitlines()] == [
        "0", "1", "0", "2", "0", "16"
    ]


def test_series_closed_form(capsys):
    code, out, _ = run_cli(capsys, "series", "hoffman_Q", "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2].endswith("2*x^2 + 1")
    assert lines[3].endswith("6*x^3 + 5*x")


def test_series_closed_form_at_point(capsys):
    code, out, _ = run_cli(capsys, "series", "hoffman_Q", "--order", "3", "--at", "x=2")
    assert code == 0
    assert [line.split(": ")[1] for line in out.strip().splitlines()] == ["1", "2", "9", "58"]
    code, _, err = run_cli(capsys, "series", "hoffman_Q", "--order", "3", "--at", "y=2")
    assert code == 2
    assert "no value given for variable 'x'" in err


def test_series_radical_point(capsys):
    code, out, _ = run_cli(capsys, "series", "gessel_L", "--order", "2", "--at", "x=3/4")
    assert code == 0
    assert [line.split(": ")[1] for line in out.strip().splitlines()] == ["1", "1", "7/4"]


def test_series_invalid_witness_exits_2(capsys):
    code, _, err = run_cli(capsys, "series", "gessel_L", "--order", "2", "--at", "x=1/3")
    assert code == 2
    assert "rational square" in err


def test_series_family(capsys):
    code, out, _ = run_cli(capsys, "series", "deriv_Q", "--order", "3")
    assert code == 0
    assert out.strip().splitlines()[2].endswith("2*x^2 + 1")


def test_trees_listing(capsys):
    code, out, _ = run_cli(capsys, "trees", "jv_tree", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line) for line in lines)


def test_errata_output(capsys):
    code, out, _ = run_cli(capsys, "errata")
    assert code == 0
    assert "secant-table-n2" in out
    code, out, _ = run_cli(capsys, "errata", "--format", "json")
    entries = json.loads(out)
    assert {entry["id"] for entry in entries} >= {"secant-table-n2", "forest-table-n2"}


def test_errata_is_read_only(capsys):
    import gramcalc
    from gramcalc import errata

    before = [run_cli(capsys, "errata", "--format", fmt) for fmt in ("text", "json")]
    attempts = [
        lambda: gramcalc.ERRATA.clear(),
        lambda: errata.ERRATA.append({}),
        lambda: operator.setitem(errata.ERRATA, 0, {}),
        lambda: operator.setitem(errata.ERRATA[0], "printed", "x"),
        lambda: operator.delitem(errata.ERRATA[0], "id"),
        lambda: errata.ERRATA_BY_ID.clear(),
        lambda: operator.setitem(errata.ERRATA_BY_ID, "new", {}),
        lambda: errata.ERRATA_BY_ID["secant-table-n2"].pop("corrected"),
    ]
    for attempt in attempts:
        with pytest.raises((AttributeError, TypeError)):
            attempt()
    assert [run_cli(capsys, "errata", "--format", fmt) for fmt in ("text", "json")] == before


def test_byte_determinism(capsys):
    first = run_cli(capsys, "family", "eulerian_biv", "--n", "6", "--format", "json")
    second = run_cli(capsys, "family", "eulerian_biv", "--n", "6", "--format", "json")
    assert first == second
