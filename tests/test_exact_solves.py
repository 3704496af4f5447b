"""The two closed-form solves against plain bisection on random inputs.

The momentum cubic's root and the contour batch at each step count are
written in closed form; here both are checked against ``bisect_root`` on
the original equations, over derandomized hypothesis draws.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoscale import (
    BoundConstants,
    ContourConstants,
    CubicCoefficients,
    InfeasibleError,
    level_set,
    solve_momentum_cubic,
    tuned_bound,
)
from oracles import bisect_root

DECADES = st.floats(-90.0, 90.0)
# y^3 - y - Q has a double root at Q = 2 / 3^(3/2)
DOUBLE_ROOT_Q = 2.0 / 3.0**1.5


@st.composite
def cubics(draw):
    """a3 x^3 - a1 x - a0 with every coefficient in 10^[-90, 90].

    Half the draws are independent; the other half put Q = q / s^3 within
    1e-3 (or exactly at) the zero-discriminant value, with p = s^2.
    """
    log_a3 = draw(DECADES)
    if draw(st.booleans()):
        return CubicCoefficients(10.0**log_a3, 10.0 ** draw(DECADES), 10.0 ** draw(DECADES))
    # log10 s in [(-90 - log_a3) / 3, (90 - log_a3) / 3] keeps a1 and a0 in range
    log_s = (draw(st.floats(0.0, 180.0)) - 90.0 - log_a3) / 3.0
    rel = draw(st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)))
    a3, s = 10.0**log_a3, 10.0**log_s
    return CubicCoefficients(a3, a3 * s * s, a3 * DOUBLE_ROOT_Q * (1.0 + rel) * s**3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cubics())
def test_cubic_root_matches_bisection(cubic):
    # f(0) = -a0 < 0 and f(hi) > 0: at hi = 2m with m^2 >= p, m^3 >= q, f / a3 >= 5 m^3
    hi = 2.0 * max((cubic.a0 / cubic.a3) ** (1.0 / 3.0), math.sqrt(cubic.a1 / cubic.a3))
    oracle = bisect_root(cubic.evaluate, 0.0, hi)
    root, residual = solve_momentum_cubic(cubic)
    assert root == pytest.approx(oracle, rel=1e-15, abs=0)
    assert 0.0 <= residual <= 1e-15


@st.composite
def levels(draw):
    """Contour constants, an optional step-size floor, a target and a step-count grid.

    The target is the tuned bound at a drawn (b0, k0), so the level passes
    through k0; the grid spans two decades on either side of it.
    """
    c = BoundConstants(*(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3)))
    cc = ContourConstants(c, 10.0 ** draw(st.floats(-4.0, 0.0)))
    eta_floor = draw(st.one_of(st.none(), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)))
    k0, b0 = 10.0 ** draw(st.floats(0.0, 9.0)), 10.0 ** draw(st.floats(0.0, 12.0))
    ks = sorted({max(1.0, k0 * 10.0**e) for e in (-2, -1, 0, 1, 2)})
    return cc, eta_floor, tuned_bound(cc, b0, k0, eta_floor), ks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(levels())
def test_level_set_batch_matches_bisection_in_log_b(level):
    cc, eta_floor, target, ks = level
    got = {p.k: p.b for p in level_set(cc, target, np.array(ks), eta_floor).points}
    for k in ks:
        def excess(log_b):
            return tuned_bound(cc, math.exp(log_b), k, eta_floor) - target

        if excess(0.0) < 0.0:
            assert k not in got  # the b >= 1 sheet is already below the target
        elif excess(700.0) < 0.0:
            oracle = math.exp(bisect_root(excess, 0.0, 700.0))
            # b from a value level is ill-conditioned by target / (target - D),
            # D the b-free part of the bound (its limit at b = inf)
            condition = target / (target - tuned_bound(cc, math.inf, k, eta_floor))
            assert got[k] == pytest.approx(oracle, rel=1e-12 * condition, abs=0)
        else:
            assert got.get(k, math.inf) > math.exp(700.0)  # past the bracket, or skipped


ONES = ContourConstants(BoundConstants(1.0, 1.0, 1.0), alpha=1.0)


def test_level_set_skips_a_target_at_the_b_free_part():
    # at k = 4 the b-free part is c_det / 2 exactly, so no finite batch reaches it
    ls = level_set(ONES, ONES.c_det / 2.0, [4.0, 100.0])
    assert [p.k for p in ls.points] == [100.0]


def test_level_set_batches_reach_the_float_max():
    ls = level_set(ONES, tuned_bound(ONES, 1e200, 1e200), [1e200])
    assert [p.k for p in ls.points] == [1e200]
    assert ls.points[0].b == pytest.approx(1e200, rel=1e-12)
    # the batch of this level at k = 1e300 is about 2e319, past the float max
    with pytest.raises(InfeasibleError):
        level_set(ONES, tuned_bound(ONES, math.inf, 1e300) * (1.0 + 1e-10), [1e300])
