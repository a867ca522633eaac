from fractions import Fraction

import pytest

from gramcalc.errors import InvalidPoint, UnknownIdentity
from gramcalc.identities import (
    CheckContext,
    GrammarFamilies,
    IDENTITY_NAMES,
    REGISTRY,
    check_points,
    run_all,
    run_identity,
)
from gramcalc.laurent import LaurentPoly


class CorruptedFamilies(GrammarFamilies):
    """Provider returning one deliberately perturbed family member."""

    def __init__(self, family, n, delta):
        self.family = family
        self.n = n
        self.delta = delta

    def poly(self, name, n):
        poly = super().poly(name, n)
        if name == self.family and n == self.n:
            poly = poly + self.delta
        return poly


def test_registry_size_and_required_names():
    assert len(IDENTITY_NAMES) >= 30
    required = {
        "petersen", "stembridge", "hoffman_egf", "pq_log", "beta_exp",
        "ma_composition", "hoffman_conv", "mfmy_conv", "hoffman_PQQ",
        "LM_convolution", "LL_MM", "M_convolution", "R_convolution",
        "left_peak_convolution",
    }
    assert required <= set(IDENTITY_NAMES)


def test_knuth_buckholtz_small():
    report = run_identity("knuth_buckholtz", max_n=4)
    assert report.passed
    provider = GrammarFamilies()
    assert provider.number("p_at_one", 4) == 80 == 2 ** 4 * provider.number("euler", 4)


def test_petersen_small():
    report = run_identity("petersen", max_n=2)
    assert report.passed and report.lo == 0 and report.hi == 2


def test_left_peak_convolution_small():
    # n=1 instance of the corrected form: D_2(x^2, y) = 2 x^2 y = 2 L_0 L_1
    report = run_identity("left_peak_convolution", max_n=2)
    assert report.passed


def test_gamma_eulerian_starts_at_one():
    report = run_identity("gamma_eulerian", max_n=3)
    assert report.passed and report.lo == 1


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_identity("nosuch", max_n=2)


def test_point_override():
    report = run_identity("gessel", max_n=6, points={"x": Fraction(8, 9)})
    assert report.passed
    bad = run_identity("gessel", max_n=6, points={"x": Fraction(1, 3)})
    assert not bad.passed
    assert "error" in bad.witness


def test_scoped_point_override():
    # identity-scoped keys don't leak into checks with other default points
    points = {"gessel.x": Fraction(8, 9)}
    assert run_identity("gessel", max_n=6, points=points).passed
    assert run_identity("bivariate_gessel", max_n=6, points=points).passed
    reports = run_all(max_n=4, oracle_max_n=3, points=points)
    assert all(r.passed for r in reports)


def test_library_calls_apply_the_point_rules():
    # keys no check would read raise instead of passing at the default point
    for name, points in (
        ("petersen", {"x": Fraction(2)}),
        ("gessel", {"gesel.x": Fraction(3, 4)}),
        ("gessel", {"gessel.q": Fraction(3, 4)}),
        ("gessel", {"y": Fraction(5)}),
    ):
        with pytest.raises(InvalidPoint):
            run_identity(name, max_n=3, points=points)
    with pytest.raises(InvalidPoint):
        run_all(max_n=2, oracle_max_n=2, points={"petersen.x": Fraction(2)})
    # run_all checks once over every name: a bare key some identity reads is
    # accepted and reaches exactly the identities that read it
    reports = {
        r.name: r for r in run_all(max_n=3, oracle_max_n=2, points={"x": Fraction(1, 3)})
    }
    reads_x = {name for name in IDENTITY_NAMES if "x" in REGISTRY[name].points}
    assert {name for name, r in reports.items() if r.status == "invalid"} == reads_x
    assert all(r.passed for name, r in reports.items() if name not in reads_x)
    # a scoped key overrides a bare one, in either order
    for points in ({"x": Fraction(1, 3), "gessel.x": Fraction(8, 9)},
                   {"gessel.x": Fraction(8, 9), "x": Fraction(1, 3)}):
        assert run_identity("gessel", max_n=3, points=points).passed
        assert not run_identity("david_barton_closed", max_n=3, points=points).passed


def test_vacuous_radical_points_are_invalid():
    vacuous = {"x": Fraction(0), "y": Fraction(5)}
    for name in ("L_squared_egf", "bivariate_gessel"):
        report = run_identity(name, max_n=4, points=vacuous)
        assert report.status == "invalid", name
        assert report.witness == {
            "error": "invalid point x=0,y=5: InvalidPoint: at x = 0 every compared pair is 0 = 0"
        }
        assert run_identity(name, max_n=4, points={"x": Fraction(4), "y": Fraction(5)}).passed
    # gessel's pairs at x = 0 are 1 = 1: a real check, left alone
    assert run_identity("gessel", max_n=4, points={"x": Fraction(0)}).passed


class _RecordingPoints(dict):
    """An empty point table that records every variable a check looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_declared_point_variables_are_the_ones_read(name):
    entry = REGISTRY[name]
    points = _RecordingPoints()
    ctx = CheckContext(max_n=2, oracle_max_n=2, provider=GrammarFamilies(), points=points)
    for _ in entry.pairs(ctx, entry.lo, max(entry.lo, entry.hi(ctx))):
        pass
    assert points.read == set(entry.points)
    if name in ("gessel", "bivariate_gessel", "L_squared_egf", "david_barton_closed"):
        assert entry.points


def test_check_points_rules():
    scoped = {f"{name}.{var}": Fraction(3, 4) for name in IDENTITY_NAMES for var in REGISTRY[name].points}
    assert len(scoped) == 6
    check_points(scoped, ["petersen"])  # scoped keys for identities not selected
    check_points({"x": Fraction(3, 4), "y": Fraction(5)}, IDENTITY_NAMES)
    check_points({"y": Fraction(5)}, ["petersen", "bivariate_gessel"])
    for points, names in (
        ({"x": Fraction(2)}, ["petersen"]),
        ({"y": Fraction(2)}, ["gessel"]),
        ({"gessel.q": Fraction(2)}, ["gessel"]),
        ({"gesel.x": Fraction(2)}, ["gessel"]),
        ({"petersen.x": Fraction(2)}, IDENTITY_NAMES),
    ):
        with pytest.raises(InvalidPoint):
            check_points(points, names)
    with pytest.raises(UnknownIdentity):
        check_points({}, ["nosuch"])


def test_run_all_small():
    reports = run_all(max_n=6, oracle_max_n=4)
    assert len(reports) == len(IDENTITY_NAMES)
    assert [r.name for r in reports] == sorted(r.name for r in reports)
    assert all(r.passed for r in reports), [
        (r.name, r.witness) for r in reports if not r.passed
    ]


def test_run_all_empty_ranges_are_not_passes():
    # max_n = 0: a check whose range is empty says so; every other one passes
    reports = run_all(max_n=0, oracle_max_n=0)
    for r in reports:
        assert (r.status == "empty") == (r.hi < r.lo), r
        assert r.passed == (r.status != "empty"), (r.name, r.status, r.witness)
    assert sum(r.status == "empty" for r in reports) == 22


@pytest.mark.parametrize("max_n, oracle_max_n", [(6, 5), (12, 5)])
def test_pairs_cover_the_declared_range_exactly(max_n, oracle_max_n):
    # a pair outside [lo, hi] checks what the report does not claim, and an n
    # without a pair is claimed without being checked
    ctx = CheckContext(max_n, oracle_max_n, GrammarFamilies())
    wrong = {}
    for name, entry in REGISTRY.items():
        lo, hi = entry.lo, entry.hi(ctx)
        seen = {n for n, _, _ in entry.pairs(ctx, lo, hi)}
        if seen != set(range(lo, hi + 1)):
            wrong[name] = (lo, hi, sorted(seen))
    assert wrong == {}


def test_report_json_shape():
    report = run_identity("springer", max_n=4)
    payload = report.to_json()
    assert payload["name"] == "springer"
    assert payload["status"] == "pass"
    assert payload["range"] == [0, 4]
    assert "millis" in payload


def test_fault_injection_names_smallest_failing_n():
    delta = LaurentPoly.monomial(("x",), (2,), 1)
    provider = CorruptedFamilies("deriv_P", 5, delta)
    reports = run_all(max_n=8, oracle_max_n=5, provider=provider)
    failing = [r for r in reports if not r.passed]
    assert failing, "corruption must trip at least one identity"
    recurrence = next(r for r in failing if r.name == "deriv_recurrence")
    assert recurrence.witness["n"] == 5
    # earlier members are untouched, so nothing fails below the corruption point
    assert all(r.witness.get("n", 99) >= 3 for r in failing if "n" in r.witness)


def test_fault_injection_eulerian():
    delta = LaurentPoly.monomial(("x", "y"), (2, 2), 1)
    provider = CorruptedFamilies("eulerian_biv", 4, delta)
    reports = run_all(max_n=6, oracle_max_n=4, provider=provider)
    failing = {r.name for r in reports if not r.passed}
    assert "gamma_eulerian" in failing
    assert "eulerian_oracle" in failing
    assert "petersen" in failing


def test_gamma_expansion_names_a_negative_entry():
    x = LaurentPoly.variable("x", ("x", "y"))
    y = LaurentPoly.variable("y", ("x", "y"))
    provider = CorruptedFamilies("eulerian_biv", 3, -2 * (x * y) * (x + y) ** 2)
    report = run_identity("gamma_expansion", 5, provider=provider)
    assert not report.passed
    assert report.witness == {
        "n": 3, "lhs": "negative entry in {1: -1, 2: 2}", "rhs": "nonnegative entries"
    }


class RaisingFamilies(GrammarFamilies):
    """Provider whose one family member raises instead of returning."""

    def __init__(self, family, n):
        self.family = family
        self.n = n

    def poly(self, name, n):
        if name == self.family and n == self.n:
            raise RuntimeError(f"{name}({n}) unavailable")
        return super().poly(name, n)


def test_crashed_check_reports_its_declared_range():
    reports = {r.name: r for r in run_all(6, oracle_max_n=4, provider=RaisingFamilies("deriv_P", 2))}
    for name, expected in (("mfmy_conv", (0, 4)), ("jv_oracles", (0, 4)), ("hoffman_conv", (0, 5))):
        report = reports[name]
        assert report.status == "fail", name
        assert report.witness == {"error": "RuntimeError: deriv_P(2) unavailable"}, name
        assert (report.lo, report.hi) == expected, name


def test_descriptions_present():
    for name, entry in REGISTRY.items():
        assert entry.description, name
