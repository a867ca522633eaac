"""Seeded inputs: the argv of every gramcalc call a workload makes.

Everything here is drawn from one `random.Random(seed)`, so the same seed
gives the same calls.  gramcalc receives only the argv.

Radical-rational points keep the square roots the closed forms need
rational, with numerators and denominators drawn from 1..9 (bounded height):

  gessel.x                    x = 1 - (p/q)^2              (1 - x a square)
  bivariate_gessel.x,y        (a^2 - b^2, a^2 + b^2)       (y^2 - x^2 a square)
  L_squared_egf.x,y           (a^2 - b^2, a^2 + b^2)
  david_barton_closed.x       (2ab / (a^2 + b^2))^2        (x and 1 - x squares)
"""

from __future__ import annotations

import random
from fractions import Fraction

from workloads import (
    FAMILIES,
    LABEL_SCHEMES,
    NON_ORACLE,
    STRUCTURE_KINDS,
    SYMBOLIC_CLOSED_FORMS,
)

HEIGHT = 9
DEEP_MAX_N = 24


def _gessel_x(rng: random.Random) -> Fraction:
    q = rng.randint(2, HEIGHT)
    p = rng.randint(1, q - 1)
    return 1 - Fraction(p, q) ** 2


def _pythagorean_xy(rng: random.Random):
    a = rng.randint(2, HEIGHT)
    b = rng.randint(1, a - 1)
    return Fraction(a * a - b * b), Fraction(a * a + b * b)


def _david_barton_x(rng: random.Random) -> Fraction:
    a, b = rng.sample(range(1, HEIGHT + 1), 2)
    return Fraction(2 * a * b, a * a + b * b) ** 2


def radical_points(rng: random.Random) -> dict:
    """Identity-scoped point overrides for the four radical-point checks."""
    bx, by = _pythagorean_xy(rng)
    lx, ly = _pythagorean_xy(rng)
    return {
        "gessel.x": _gessel_x(rng),
        "bivariate_gessel.x": bx,
        "bivariate_gessel.y": by,
        "L_squared_egf.x": lx,
        "L_squared_egf.y": ly,
        "david_barton_closed.x": _david_barton_x(rng),
    }


def points_argv(points: dict) -> list:
    argv = []
    for key, value in points.items():
        argv += ["--points", f"{key}={value}"]
    return argv


def _series_call(rng: random.Random) -> list:
    order = str(rng.randint(8, 16))
    name = rng.choice(("gessel_L", "bivariate_L") + SYMBOLIC_CLOSED_FORMS)
    argv = ["series", name, "--order", order]
    if name == "gessel_L":
        argv += ["--at", f"x={_gessel_x(rng)}"]
    elif name == "bivariate_L":
        x, y = _pythagorean_xy(rng)
        argv += ["--at", f"x={x},y={y}"]
    return argv


def _other_call(kind: str, rng: random.Random) -> list:
    if kind == "family":
        return ["family", rng.choice(FAMILIES), "--n", str(rng.randint(1, 60))]
    if kind == "series":
        return _series_call(rng)
    if kind == "oracle":
        return ["oracle", rng.choice(FAMILIES), "--n", str(rng.randint(1, 7)), "--diff"]
    if kind == "label":
        n = rng.randint(3, 9)
        perm = "".join(str(v) for v in rng.sample(range(1, n + 1), n))
        return ["label", rng.choice(LABEL_SCHEMES), perm]
    if kind == "trees":
        return ["trees", rng.choice(STRUCTURE_KINDS), "--n", str(rng.randint(1, 7)), "--count"]
    raise ValueError(f"unknown query kind {kind!r}")


OTHER_KINDS = ("family", "series", "oracle", "label", "trees")


def query_stream(rng: random.Random, points: dict) -> list:
    """Every non-oracle check once (--max-n 8..16), as many other one-off
    calls spread evenly over the other kinds, in a seeded order."""
    calls = [
        ["check", name, "--max-n", str(rng.randint(8, 16))] + points_argv(points)
        for name in NON_ORACLE
    ]
    calls += [
        _other_call(OTHER_KINDS[i % len(OTHER_KINDS)], rng)
        for i in range(len(NON_ORACLE))
    ]
    rng.shuffle(calls)
    return calls


def build_calls(workload: str, seed: int, smoke: bool = False) -> list:
    """The argv list one pass of the workload runs, in order."""
    rng = random.Random(seed)
    points = radical_points(rng)
    if workload == "check_default":
        sizes = ["--max-n", "6", "--oracle-max-n", "5"] if smoke else []
        return [["check", "all"] + sizes + points_argv(points)]
    if workload == "check_deep":
        max_n = "8" if smoke else str(DEEP_MAX_N)
        return [
            ["check", name, "--max-n", max_n] + points_argv(points)
            for name in NON_ORACLE
        ]
    if workload == "cli_queries":
        stream = query_stream(rng, points)
        return stream[:8] if smoke else stream
    raise ValueError(f"unknown workload {workload!r}")
