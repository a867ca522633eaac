"""Shared strategies and fixtures."""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gramcalc.laurent import LaurentPoly
from gramcalc.scalar import make_gaussian

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)

scalars = st.one_of(
    rationals,
    st.builds(make_gaussian, rationals, rationals),
)


def _accumulate(items, variables):
    terms = {}
    for exps, coeff in items:
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return LaurentPoly(variables, terms)


def poly_strategy(variables=("x", "y"), min_exp=-3, max_exp=4, max_terms=5, coeffs=rationals):
    exponent = st.integers(min_value=min_exp, max_value=max_exp)
    term = st.tuples(st.tuples(*[exponent] * len(variables)), coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda items: _accumulate(items, variables)
    )


def simple_poly_strategy(variables=("x", "y"), max_exp=3, max_terms=4):
    """Nonnegative exponents, rational coefficients."""
    return poly_strategy(variables, min_exp=0, max_exp=max_exp, max_terms=max_terms)


laurent_polys = poly_strategy()
plain_polys = simple_poly_strategy()


@pytest.fixture
def acceptance(capsys):
    """Context manager printing one pass/fail line per acceptance criterion."""

    @contextmanager
    def runner(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {number} {description}: FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {description}: PASS")

    return runner


def in_threads(work, count=8):
    """work(i) for i < count, each in its own thread, all released at once
    with a thread switch as often as the interpreter allows; the results, or
    the exceptions raised, by i."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(count)
        results = [None] * count

        def run(i):
            barrier.wait()
            try:
                results[i] = work(i)
            except Exception as exc:
                results[i] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        return results
    finally:
        sys.setswitchinterval(interval)
