import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest

from gramcalc import families, laurent
from gramcalc.errata import ERRATA_BY_ID
from gramcalc.errors import (
    NotBetaExpressible,
    NotGammaExpressible,
    UnknownFamily,
    UnknownSequence,
)
from gramcalc.families import (
    FAMILY_NAMES,
    beta_expansion,
    beta_from_poly,
    eulerian_grammar,
    family_number,
    family_poly,
    gamma_expansion,
    gamma_from_poly,
    recurrence_poly,
)
from gramcalc.laurent import LaurentPoly, Powers, parse_poly
from gramcalc.scalar import make_gaussian

from conftest import in_threads

# The classical tables, frozen.  The two starred values are the documented
# corrections (see gramcalc.errata): the printed sources give 1+x^2 for the
# secant entry at n=2 and a*(v^2+vu) for the forest entry at n=2.

EULERIAN_BIV = {
    0: "y",
    1: "x*y",
    2: "x*y^2 + x^2*y",
    3: "x*y^3 + 4*x^2*y^2 + x^3*y",
    4: "x*y^4 + 11*x^2*y^3 + 11*x^3*y^2 + x^4*y",
    5: "x*y^5 + 26*x^2*y^4 + 66*x^3*y^3 + 26*x^4*y^2 + x^5*y",
    6: "x*y^6 + 57*x^2*y^5 + 302*x^3*y^4 + 302*x^4*y^3 + 57*x^5*y^2 + x^6*y",
}

GAMMA = {
    1: {1: 1},
    2: {1: 1},
    3: {1: 1, 2: 2},
    4: {1: 1, 2: 8},
    5: {1: 1, 2: 22, 3: 16},
    6: {1: 1, 2: 52, 3: 136},
}

DUMONT = {
    0: "v",
    1: "u",
    2: "2*u*v",
    3: "4*u*v^2 + 2*u^2",
    4: "8*u*v^3 + 16*u^2*v",
    5: "16*u*v^4 + 88*u^2*v^2 + 16*u^3",
    6: "32*u*v^5 + 416*u^2*v^3 + 272*u^3*v",
}

ANDRE = {
    0: "1",
    1: "u",
    2: "u*v",
    3: "u*v^2 + u^2",
    4: "u*v^3 + 4*u^2*v",
    5: "u*v^4 + 11*u^2*v^2 + 4*u^3",
    6: "u*v^5 + 26*u^2*v^3 + 34*u^3*v",
}

LEFT_PEAK = {
    0: "x",
    1: "x*y",
    2: "x*y^2 + x^3",
    3: "x*y^3 + 5*x^3*y",
    4: "x*y^4 + 18*x^3*y^2 + 5*x^5",
    5: "x*y^5 + 58*x^3*y^3 + 61*x^5*y",
    6: "x*y^6 + 179*x^3*y^4 + 479*x^5*y^2 + 61*x^7",
}

LR_PEAK = {
    0: "y",
    1: "x^2",
    2: "2*x^2*y",
    3: "4*x^2*y^2 + 2*x^4",
    4: "8*x^2*y^3 + 16*x^4*y",
    5: "16*x^2*y^4 + 88*x^4*y^2 + 16*x^6",
    6: "32*x^2*y^5 + 416*x^4*y^3 + 272*x^6*y",
}

DERIV_P = {
    0: "x",
    1: "1 + x^2",
    2: "2*x + 2*x^3",
    3: "2 + 8*x^2 + 6*x^4",
    4: "16*x + 40*x^3 + 24*x^5",
    5: "16 + 136*x^2 + 240*x^4 + 120*x^6",
    6: "272*x + 1232*x^3 + 1680*x^5 + 720*x^7",
}

DERIV_Q = {
    0: "1",
    1: "x",
    2: "1 + 2*x^2",  # * corrected
    3: "5*x + 6*x^3",
    4: "5 + 28*x^2 + 24*x^4",
    5: "61*x + 180*x^3 + 120*x^5",
    6: "61 + 662*x^2 + 1320*x^4 + 720*x^6",
}

PLANTED_FOREST = {
    0: "1",
    1: "v",
    2: "v^2 + u",  # * corrected
    3: "v^3 + 5*v*u",
    4: "v^4 + 18*v^2*u + 5*u^2",
    5: "v^5 + 58*v^3*u + 61*v*u^2",
    6: "v^6 + 179*v^4*u + 479*v^2*u^2 + 61*u^3",
}


@pytest.mark.parametrize("table,name", [
    (EULERIAN_BIV, "eulerian_biv"),
    (DUMONT, "dumont"),
    (ANDRE, "andre_biv"),
    (LEFT_PEAK, "left_peak_biv"),
    (LR_PEAK, "lr_peak_biv"),
    (DERIV_P, "deriv_P"),
    (DERIV_Q, "deriv_Q"),
    (PLANTED_FOREST, "planted_forest"),
])
def test_tables(table, name):
    for n, text in table.items():
        assert family_poly(name, n) == parse_poly(text), (name, n)


def test_interior_equals_lr_bivariate():
    for n in range(0, 9):
        assert family_poly("interior_peak_biv", n) == family_poly("lr_peak_biv", n)
        # one row reads the other as is
        assert family_poly("lr_peak_biv", n) is family_poly("interior_peak_biv", n)


def test_univariate_conventions():
    assert family_poly("interior_peak_uni", 0) == parse_poly("x^-1")
    assert family_poly("lr_peak_uni", 0) == LaurentPoly.const(1)
    assert family_poly("left_peak_uni", 0) == LaurentPoly.const(1)
    assert family_poly("left_peak_uni", 2) == parse_poly("1 + x")
    assert family_poly("interior_peak_uni", 3) == parse_poly("4 + 2*x")
    assert family_poly("lr_peak_uni", 3) == parse_poly("4*x + 2*x^2")
    assert family_poly("eulerian_uni", 0) == LaurentPoly.const(1)
    assert family_poly("eulerian_uni", 3) == parse_poly("x + 4*x^2 + x^3")
    assert family_poly("andre_uni", 5) == parse_poly("u + 11*u^2 + 4*u^3")


def test_w_equals_x_times_m():
    x = LaurentPoly.variable("x")
    for n in range(1, 10):
        assert family_poly("lr_peak_uni", n) == x * family_poly("interior_peak_uni", n)


def test_r_family():
    assert family_poly("R_family", 0) == parse_poly("x + y")
    for n in range(0, 9):
        assert family_poly("R_family", n) == family_poly("left_peak_biv", n) + family_poly("lr_peak_biv", n)


def test_seed_rows():
    assert family_poly("eulerian_biv", 0) == parse_poly("y")
    assert family_poly("dumont", 1) == parse_poly("u")
    assert family_poly("andre_biv", 0) == LaurentPoly.const(1)
    assert family_poly("deriv_P", 0) == parse_poly("x")
    assert family_poly("deriv_Q", 0) == LaurentPoly.const(1)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        family_poly("nosuch", 3)
    with pytest.raises(ValueError):
        family_poly("dumont", -1)


def test_family_numbers():
    assert family_number("p_at_one", 6) == 3904
    assert family_number("tangent", 5) == 16
    assert family_number("springer", 4) == 57
    assert family_number("euler", 6) == 61
    assert [family_number("secant", n) for n in range(7)] == [1, 0, 1, 0, 5, 0, 61]
    with pytest.raises(UnknownSequence):
        family_number("nosuch", 1)


def test_gamma_tables():
    for n, expected in GAMMA.items():
        assert gamma_expansion(n).entries == expected


def test_gamma_rejects_nonexpressible():
    with pytest.raises(NotGammaExpressible):
        gamma_from_poly(parse_poly("x^2*y + 2*x*y^2"), 2)  # not palindromic


def test_beta_tables():
    assert beta_expansion("Q", 5).entries == {0: 1, 1: 58, 2: 61}
    assert beta_expansion("Q", 6).entries == {0: 1, 1: 179, 2: 479, 3: 61}
    assert beta_expansion("P", 1).entries == {0: 1}
    # tangent side carries the interior-peak numbers
    assert beta_expansion("P", 5).entries == {0: 16, 1: 88, 2: 16}
    assert beta_expansion("P", 4).entries == {0: 8, 1: 16}


def test_beta_rejects_nonexpressible():
    with pytest.raises(NotBetaExpressible):
        beta_from_poly("Q", parse_poly("x^3 + x^2"), 3)  # parity broken


def test_recurrence_route():
    assert recurrence_poly("P", 2) == parse_poly("2*x + 2*x^3")
    assert recurrence_poly("Q", 1) == parse_poly("x")
    assert recurrence_poly("P", 0) == parse_poly("x")
    for n in range(0, 10):
        assert recurrence_poly("P", n) == family_poly("deriv_P", n)
        assert recurrence_poly("Q", n) == family_poly("deriv_Q", n)


def test_chain_cache_under_concurrent_extension():
    # threads extending one derivative chain at once must not interleave
    # their appends: each would then store its own D^{k+1} at a different index
    chain = eulerian_grammar().derivative_chain(parse_poly("y"), 26)
    for _ in range(5):
        families._CHAINS.pop("eulerian_biv", None)
        results = in_threads(lambda i: family_poly("eulerian_biv", 25))
        assert results == [chain[25]] * 8
        assert family_poly("eulerian_biv", 26) == chain[26]


def _grammar_route(name, n):
    """Member n of a family row, derived and read again without any cache."""
    source, rule = families._FAMILIES[name]
    if isinstance(source, str):
        return rule(_grammar_route(source, n), n)
    grammar = source()
    return grammar.derivative_chain(parse_poly(rule, grammar.vars), n)[n]


def test_read_cache_under_concurrent_first_reads():
    names = ("deriv_Q", "eulerian_uni", "left_peak_uni")
    expected = [_grammar_route(name, 25) for name in names]
    for _ in range(3):
        for name in names:
            families._CHAINS.pop(families._FAMILIES[name][0], None)
            families._READS.pop((name, 25), None)
        # each thread starts at a different row
        results = in_threads(
            lambda i: {name: family_poly(name, 25) for name in names[i % 3:] + names[:i % 3]}
        )
        for name, value in zip(names, expected):
            assert all(result[name] == value for result in results)
            # every caller gets the one value stored
            assert all(result[name] is results[0][name] for result in results)


def test_recurrence_chain_under_concurrent_extension(monkeypatch):
    families._RECURRENCES.pop("Q", None)
    ascending = [recurrence_poly("Q", n) for n in range(26)]
    # a step yields to the other threads halfway, as a long one would
    derivative = LaurentPoly.partial_derivative

    def yielding(poly, var):
        time.sleep(1e-4)
        return derivative(poly, var)

    monkeypatch.setattr(LaurentPoly, "partial_derivative", yielding)
    for _ in range(3):
        families._RECURRENCES.pop("Q", None)
        results = in_threads(lambda i: [recurrence_poly("Q", n) for n in range(25, -1, -1)])
        assert results == [ascending[::-1]] * 8


def test_failing_read_stores_nothing(monkeypatch):
    # R_family mixes both parities of the x-exponent, so a left-peak read of
    # it raises at every n
    monkeypatch.setitem(families._FAMILIES, "_off_pattern", ("R_family", families._peaks("a left-peak", 1)))
    results = in_threads(lambda i: families._member("_off_pattern", 25))
    assert all(isinstance(result, ValueError) for result in results)
    assert not [key for key in families._READS if key[0] == "_off_pattern"]


def test_power_tables_under_concurrent_extension(monkeypatch):
    # equal but distinct bases read one table; threads asking at once for
    # different powers, from an empty table, each get base ** j, and the
    # published table holds each power once, in order (the last thread to
    # publish may hold fewer than the longest)
    table, terms = ("x", "y"), {(1, 0): Fraction(1, 2), (0, 1): 1, (-1, 2): make_gaussian(1, 3)}
    powers = [LaurentPoly(table, terms) ** k for k in range(24)]
    # a multiply yields to the other threads halfway, as a long one would
    product = LaurentPoly.__mul__

    def yielding(a, b):
        time.sleep(1e-4)
        return product(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", yielding)
    for _ in range(3):
        laurent._POWERS.clear()
        results = in_threads(lambda i: Powers(LaurentPoly(table, terms))[3 * i + 2])
        assert results == [powers[3 * i + 2] for i in range(8)]
        [published] = laurent._POWERS.values()
        assert list(published) == powers[: len(published)]


def test_power_tables_are_keyed_by_value_and_table():
    laurent._POWERS.clear()
    x = LaurentPoly.variable("x")
    x_over_xy = LaurentPoly.variable("x", ("x", "y"))
    assert x == x_over_xy
    # x / 2 stores x's numerators over another denominator
    tables = [Powers(x), Powers(x_over_xy), Powers(x, ("x", "z")), Powers(x / 2)]
    assert [powers[2].vars for powers in tables] == [("x",), ("x", "y"), ("x", "z"), ("x",)]
    assert [powers[2] for powers in tables] == [x * x, x * x, x * x, x * x / 4]
    assert len(laurent._POWERS) == 4


def test_power_tables_drop_the_oldest_base():
    laurent._POWERS.clear()
    x = LaurentPoly.variable("x")
    first = Powers(x + 1)
    assert first[3] == (x + 1) ** 3
    for c in range(2, laurent._POWERS_HELD + 2):
        assert Powers(x + c)[2] == (x + c) ** 2
    assert len(laurent._POWERS) == laurent._POWERS_HELD
    assert first.key not in laurent._POWERS
    # the dropped base's powers are built again, and the next oldest goes
    assert first[5] == (x + 1) ** 5
    assert Powers(x + 1)[4] == (x + 1) ** 4
    assert len(laurent._POWERS) == laurent._POWERS_HELD
    assert Powers(x + 2).key not in laurent._POWERS


def test_cross_checks_raise_under_optimize():
    # force both self-checks to see a wrong second route; under python -O an
    # assert-based check would return the unchecked value instead of raising
    script = textwrap.dedent("""
        from gramcalc import families
        from gramcalc.errors import CrossCheckFailed
        from gramcalc.grammar import Grammar
        from gramcalc.laurent import LaurentPoly

        families.family_poly = lambda name, n: LaurentPoly.const(0, ("x",))
        Grammar.derive_n = lambda self, f, n: LaurentPoly.zero(self.vars)
        x, y = (LaurentPoly.variable(v, ("x", "y")) for v in "xy")
        checks = {
            "recurrence_poly": lambda: families.recurrence_poly("P", 2),
            "leibniz_expand": lambda: families.eulerian_grammar().leibniz_expand(x, y, 1),
        }
        for name, check in checks.items():
            try:
                check()
            except CrossCheckFailed:
                print(name, "raised")
    """)
    src = os.path.dirname(os.path.dirname(families.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["recurrence_poly raised", "leibniz_expand raised", ""]


def test_errata_entries_cover_corrected_tables():
    secant = ERRATA_BY_ID["secant-table-n2"]
    assert "recurrence" in secant["confirmation"]
    assert "oracle" in secant["confirmation"]
    assert family_poly("deriv_Q", 2) == parse_poly(secant["corrected"])
    assert family_poly("deriv_Q", 2) != parse_poly(secant["printed"])
    forest = ERRATA_BY_ID["forest-table-n2"]
    a = LaurentPoly.variable("a")
    assert a * family_poly("planted_forest", 2) == parse_poly(forest["corrected"])
    assert a * family_poly("planted_forest", 2) != parse_poly(forest["printed"])


def test_registry_names_stable():
    assert FAMILY_NAMES == (
        "eulerian_biv", "eulerian_uni", "dumont", "andre_biv", "andre_uni",
        "left_peak_biv", "left_peak_uni", "interior_peak_biv", "interior_peak_uni",
        "lr_peak_biv", "lr_peak_uni", "R_family", "deriv_P", "deriv_Q",
        "planted_forest",
    )


def test_family_table_rows():
    rows = families._FAMILIES
    sources = {source for source, _ in rows.values() if isinstance(source, str)}
    assert sources <= set(rows)
    reached = set()
    for name in FAMILY_NAMES:
        while name in rows and name not in reached:
            reached.add(name)
            name = rows[name][0]
    assert reached == set(rows)  # no dead rows
    private = [name for name in rows if name not in FAMILY_NAMES]
    assert private == ["_andre", "_tangent", "_secant", "_forest"]
    for name in private:
        assert callable(rows[name][0])  # chains only
        with pytest.raises(UnknownFamily):
            family_poly(name, 1)
