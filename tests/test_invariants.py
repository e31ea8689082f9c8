"""Invariants checked over generated inputs with Hypothesis."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hvw import feasible_point, verify_farkas, verify_solution


@st.composite
def small_integer_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3).map(Fraction)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs


@settings(derandomize=True, deadline=None)
@given(small_integer_systems())
def test_every_lp_answer_passes_its_recheck(system):
    rows, rhs = system
    x, y = feasible_point(rows, rhs)
    if x is not None:
        assert y is None
        assert verify_solution(rows, rhs, x)
    else:
        assert verify_farkas(rows, rhs, y)
