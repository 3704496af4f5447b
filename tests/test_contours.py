"""Iso-performance contours: tuned bound, level sets, regimes, hyperbola."""

import math

import numpy as np
import pytest

from lmoscale import (
    BoundConstants,
    ContourConstants,
    HyperParams,
    InfeasibleError,
    bound_eta_minimized,
    bound_tokens,
    level_set,
    tuned_bound,
)
from oracles import golden_min_log

ONES = BoundConstants(1.0, 1.0, 1.0)
CC = ContourConstants(ONES, alpha=1.0)


def test_all_ones_value():
    assert tuned_bound(CC, 1.0, 1.0) == pytest.approx(2.0 * math.sqrt(5.5) + 4.0, rel=1e-14)
    assert tuned_bound(CC, 1.0, 1.0) == pytest.approx(8.6904, rel=1e-4)


def test_derived_constants():
    assert CC.c_det == pytest.approx(2.0 * math.sqrt(5.5), rel=1e-15)
    assert CC.c_burn == 2.0
    assert CC.c_floor == 2.0
    small = ContourConstants(ONES, alpha=1e-4)
    assert small.c_burn == pytest.approx(2e4, rel=1e-12)
    assert small.c_floor == pytest.approx(0.02, rel=1e-12)


def test_limits():
    assert tuned_bound(CC, 4.0, 1e18) == pytest.approx(CC.c_floor / 2.0, rel=1e-8)
    assert CC.k_min(0.5) == pytest.approx(88.0, rel=1e-12)
    assert CC.b_min(0.5) == pytest.approx(16.0, rel=1e-12)


def test_matches_eta_minimized_bound_at_matching_budget():
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = 10.0 ** rng.uniform(-6, 0)
        cc = ContourConstants(ONES, alpha)
        b = 10.0 ** rng.uniform(0, 8)
        k = 10.0 ** rng.uniform(0, 10)
        assert tuned_bound(cc, b, k) == pytest.approx(
            bound_eta_minimized(ONES, alpha, b, b * k), rel=1e-10
        )


def test_matches_golden_section_over_eta():
    cc = ContourConstants(ONES, alpha=0.03)
    b, k = 37.0, 1e6
    f = lambda e: bound_tokens(ONES, HyperParams(e, 0.03, b), b * k)
    _, fx = golden_min_log(f, 1e-15, 1e3)
    assert tuned_bound(cc, b, k) == pytest.approx(fx, rel=1e-10)


def test_strictly_decreasing_in_both_arguments():
    ks = np.geomspace(1.0, 1e8, 9)
    vals_k = [tuned_bound(CC, 10.0, k) for k in ks]
    assert all(x > y for x, y in zip(vals_k, vals_k[1:]))
    bs = np.geomspace(1.0, 1e8, 9)
    vals_b = [tuned_bound(CC, b, 10.0) for b in bs]
    assert all(x > y for x, y in zip(vals_b, vals_b[1:]))


def test_eta_floor_only_hurts():
    cc = ContourConstants(ONES, alpha=0.5)
    free = tuned_bound(cc, 8.0, 1e6)
    floored = tuned_bound(cc, 8.0, 1e6, eta_floor=1e-2)
    assert floored > free
    loose = tuned_bound(cc, 8.0, 1e6, eta_floor=1e-12)
    assert loose == pytest.approx(free, rel=1e-15)


def test_level_set_points_sit_on_the_level():
    ls = level_set(CC, 0.5, np.geomspace(100.0, 1e8, 25))
    assert ls.k_min == pytest.approx(88.0, rel=1e-12)
    assert ls.b_min == pytest.approx(16.0, rel=1e-12)
    assert len(ls.points) == 25
    for p in ls.points:
        assert abs(tuned_bound(CC, p.b, p.k) - 0.5) / 0.5 < 1e-6
    bs = [p.b for p in ls.points]
    assert all(x > y for x, y in zip(bs, bs[1:]))
    # asymptote: batch approaches the floor-limited minimum as steps grow
    assert ls.points[-1].b == pytest.approx(ls.b_min, rel=0.01)
    assert ls.points[-1].regime == "batch-limited"
    assert ls.points[0].regime == "iteration-limited"


def test_level_set_k_below_minimum_is_skipped():
    ls = level_set(CC, 0.5, [50.0, 87.0, 200.0, 1e5])
    assert [round(p.k) for p in ls.points] == [200, 100000]


def test_level_set_skips_step_counts_below_one():
    # at k = 0.5 the level would sit at b = 19.3, but a run takes at least one step
    ls = level_set(CC, 8.0, [0.5, 1.0])
    assert [p.k for p in ls.points] == [1.0]


def test_unreachable_target_raises():
    with pytest.raises(InfeasibleError):
        level_set(CC, 0.5, [10.0, 50.0])  # every k below k_min = 88
    with pytest.raises(InfeasibleError):
        level_set(CC, 100.0, np.geomspace(1.0, 1e6, 10))  # level above the b >= 1 sheet


def test_hyperbola_residual_small_on_gentle_configs():
    ls = level_set(CC, 0.5, np.geomspace(100.0, 1e6, 40))
    assert ls.hyperbola_residual < 0.05
    assert ls.k0 == pytest.approx(1e4, rel=0.01)


def test_grid_tuned_contour_agrees_within_resolution():
    # tuning eta on the wide verification grid instead of exactly inflates
    # the level by at most the quadratic quantization slack
    from lmoscale import GridSpec

    eta_axis = GridSpec().eta_axis()
    step = math.log(eta_axis[-1] / eta_axis[0]) / (eta_axis.size - 1)
    slack = math.cosh(step / 2.0) - 1.0
    ls = level_set(CC, 0.5, np.geomspace(100.0, 1e6, 8))
    for p in ls.points:
        t = p.b * p.k
        grid_tuned = min(
            bound_tokens(ONES, HyperParams(e, 1.0, p.b), t) for e in eta_axis
        )
        assert grid_tuned >= 0.5 * (1.0 - 1e-9)
        assert grid_tuned <= 0.5 * (1.0 + 2.0 * slack)


def test_burn_dominated_intermediate_regime():
    # constants engineered so the burn-in term carries over 80% of the level;
    # the hyperbola deviation is exactly 1/burn_fraction - 1, so the 10%
    # agreement needs the dominance to be strong, not marginal
    c = BoundConstants(delta0=0.1, smoothness=0.1, noise_scale=100.0)
    cc = ContourConstants(c, alpha=1e-6)
    ls = level_set(cc, 30.0, np.geomspace(5e4, 1e6, 15))
    burners = [p for p in ls.points if p.burn_fraction > 0.8]
    assert len(burners) == len(ls.points)
    for p in burners:
        assert p.regime == "intermediate"
        ratio = p.k * math.sqrt(p.b) * 30.0 / cc.c_burn
        assert abs(ratio - 1.0) < 0.10
        assert ratio == pytest.approx(1.0 / p.burn_fraction, rel=1e-9)
