"""Bound and proxy evaluators: pinned values, identities, domain checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoscale import (
    BoundConstants,
    Budget,
    BudgetTooSmallError,
    DomainError,
    HyperParams,
    bound_steps,
    bound_tokens,
    large_horizon_gap,
    risk_large_horizon,
    risk_steps,
    risk_tokens,
)
from lmoscale.proxy import token_terms
from oracles import golden_min_log

UNIT = BoundConstants.from_proxy_constants()

# High-precision reference values, frozen from 60-digit term-by-term sums.
BOUND_STEPS_REF = 0.3084455532033675866399779  # delta0=L=rs=1, eta=.01, a=.1, b=100, K=1e4
RISK_STEPS_REF = 0.1496297207521047416499862   # C=1, eta=.01, a=.1, b=64, K=1e6
RISK_TOKENS_REF = 0.03363646211170532346500286  # C=1, eta=.0042, a=1, b=3536, T=1e8


def random_points(rng, n, t_hi_exp=22.0):
    """Valid (h, t) samples spanning the wide verification ranges."""
    etas = 10.0 ** rng.uniform(-15, 4, n)
    alphas = 10.0 ** rng.uniform(-10, 0, n)
    bs = 10.0 ** rng.uniform(0, 15, n)
    ts = 10.0 ** rng.uniform(np.log10(bs), t_hi_exp)
    return [
        (HyperParams(eta=e, alpha=a, batch=b), t)
        for e, a, b, t in zip(etas, alphas, bs, ts)
    ]


def test_bound_steps_all_ones():
    c = BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=0.5)
    h = HyperParams(eta=1.0, alpha=1.0, batch=1.0)
    assert bound_steps(c, h, 1.0) == pytest.approx(8.5, rel=1e-15)


def test_bound_steps_high_precision():
    c = BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=1.0)
    h = HyperParams(eta=0.01, alpha=0.1, batch=100.0)
    assert bound_steps(c, h, 1e4) == pytest.approx(BOUND_STEPS_REF, rel=1e-14)


def test_bound_tokens_all_ones():
    c = BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=1.0)
    h = HyperParams(eta=1.0, alpha=1.0, batch=1.0)
    assert bound_tokens(c, h, 1.0) == pytest.approx(10.5, rel=1e-15)


def test_large_eta_divergence():
    h_star = math.sqrt(UNIT.c1 / (UNIT.c3 * 2.0))  # eta minimizer at alpha=1, K=1
    values = [
        bound_steps(UNIT, HyperParams(eta=e, alpha=1.0), 1.0)
        for e in (h_star, 10.0, 1e3, 1e5)
    ]
    assert values == sorted(values)
    # dominated by the linear-in-eta terms far beyond the minimizer
    assert values[-1] == pytest.approx(
        (3.5 * UNIT.smoothness + 2.0 * UNIT.smoothness) * 1e5, rel=1e-3
    )


def test_risk_steps_all_ones():
    h = HyperParams(eta=1.0, alpha=1.0, batch=1.0)
    assert risk_steps(UNIT, h, 1.0) == pytest.approx(5.0, rel=1e-15)
    h4 = HyperParams(eta=1.0, alpha=1.0, batch=4.0)
    assert risk_steps(UNIT, h4, 1.0) == pytest.approx(4.0, rel=1e-15)


def test_risk_steps_high_precision():
    h = HyperParams(eta=0.01, alpha=0.1, batch=64.0)
    assert risk_steps(UNIT, h, 1e6) == pytest.approx(RISK_STEPS_REF, rel=1e-14)


def test_risk_tokens_matches_steps_at_unit_budget():
    h = HyperParams(eta=1.0, alpha=1.0, batch=1.0)
    assert risk_tokens(UNIT, h, 1.0) == pytest.approx(5.0, rel=1e-15)


def test_risk_tokens_near_optimum_value():
    h = HyperParams(eta=0.0042, alpha=1.0, batch=3536.0)
    assert risk_tokens(UNIT, h, 1e8) == pytest.approx(RISK_TOKENS_REF, rel=1e-14)
    # sits within a fraction of a percent of the tuned optimum 2^(7/4) / 100
    assert risk_tokens(UNIT, h, 1e8) == pytest.approx(2.0**1.75 / 100.0, rel=2e-4)


def test_substitution_identity():
    rng = np.random.default_rng(7)
    for h, t in random_points(rng, 2000):
        lhs = risk_tokens(UNIT, h, t)
        rhs = risk_steps(UNIT, h, t / h.batch)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_bound_substitution_identity():
    rng = np.random.default_rng(8)
    c = BoundConstants(delta0=2.0, smoothness=0.5, noise_scale=3.0, norm_equiv=2.0)
    for h, t in random_points(rng, 2000):
        lhs = bound_tokens(c, h, t)
        rhs = bound_steps(c, h, t / h.batch)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(decades(-3, 3), decades(-3, 3), st.one_of(st.just(0.0), decades(-3, 3)),
       decades(0, 2), decades(-15, 4), decades(-10, 0), decades(0, 15), decades(0, 12))
def test_step_forms_equal_token_forms_bit_exactly(delta0, smoothness, noise, rho, eta, alpha,
                                                  b, k):
    c = BoundConstants(delta0, smoothness, noise, rho)
    h = HyperParams(eta=eta, alpha=alpha, batch=b)
    assert bound_steps(c, h, k) == bound_tokens(c, h, b * k)
    assert risk_steps(c, h, k) == risk_tokens(c, h, b * k)


# constants 1e-3..1e3, rho 1..4, eta 1e-6..1, alpha 1e-4..1, b 1..1e6, T / b 1..1e12
@settings(max_examples=200, deadline=None, derandomize=True)
@given(decades(-3, 3), decades(-3, 3), decades(-3, 3), st.floats(1, 4), st.booleans(),
       st.lists(st.tuples(decades(-6, 0), decades(-4, 0), decades(0, 6), decades(0, 12)),
                min_size=1, max_size=8))
def test_token_terms_on_arrays_equal_the_scalar_evaluators(delta0, smoothness, noise, rho, exact,
                                                           points):
    c = BoundConstants(delta0, smoothness, noise, rho)
    eta, alpha, b, k = map(np.array, zip(*points))
    descent, burn, floor, smooth = token_terms(c, eta, alpha, b, exact)
    values = (descent + burn) / (b * k) + floor + smooth
    scalar = bound_tokens if exact else risk_tokens
    for value, (eta, alpha, b, k) in zip(values.tolist(), points):
        ref = scalar(c, HyperParams(eta=eta, alpha=alpha, batch=b), b * k)
        # numpy's array powers may round b**0.5 and alpha**0.5 differently from the
        # scalar ones; worst seen over 20,000 seeded draws: 3.2e-16 relative
        assert abs(value - ref) <= 4 * np.finfo(float).eps * ref


def test_gap_is_exactly_the_burn_in_term():
    rng = np.random.default_rng(9)
    for h, t in random_points(rng, 500):
        k = t / h.batch
        full = risk_steps(UNIT, h, k)
        gap = full - risk_large_horizon(UNIT, h.eta, h.batch, Budget.iterations(k), h.alpha)
        expected = large_horizon_gap(UNIT, h, k)
        # identity up to float cancellation at the scale of the full proxy
        assert abs(gap - expected) <= 1e-12 * full
        assert expected > 0


def test_gap_negligible_at_long_horizons():
    h = HyperParams(eta=1e-3, alpha=1e-3, batch=100.0)
    k = 1e9
    gap = large_horizon_gap(UNIT, h, k)
    assert gap / risk_steps(UNIT, h, k) < 1e-5


def test_risk_large_horizon_all_ones():
    value = risk_large_horizon(UNIT, eta=1.0, batch=1.0, budget=Budget.iterations(1.0), alpha=1.0)
    assert value == pytest.approx(4.0, rel=1e-15)


def test_token_budget_form_of_large_horizon():
    v_tok = risk_large_horizon(UNIT, eta=0.01, batch=8.0, budget=Budget.tokens(800.0), alpha=0.5)
    v_it = risk_large_horizon(UNIT, eta=0.01, batch=8.0, budget=Budget.iterations(100.0), alpha=0.5)
    assert v_tok == pytest.approx(v_it, rel=1e-14)


def test_monotone_decreasing_in_batch():
    rng = np.random.default_rng(10)
    for _ in range(200):
        eta = 10.0 ** rng.uniform(-8, 0)
        alpha = 10.0 ** rng.uniform(-4, 0)
        k = 10.0 ** rng.uniform(0, 10)
        bs = np.sort(10.0 ** rng.uniform(0, 10, 4))
        vals = [risk_steps(UNIT, HyperParams(eta, alpha, b), k) for b in bs]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_all_evaluations_finite_positive():
    rng = np.random.default_rng(11)
    for h, t in random_points(rng, 1000):
        for v in (
            risk_tokens(UNIT, h, t),
            bound_tokens(UNIT, h, t),
            risk_steps(UNIT, h, t / h.batch),
            bound_steps(UNIT, h, t / h.batch),
        ):
            assert math.isfinite(v) and v > 0


def test_eta_convexity_unique_minimum():
    # the eta-dependent part of risk_steps is a/eta + w*eta, so the interior
    # minimum is sqrt(a / w); golden section must land on it
    rng = np.random.default_rng(12)
    for _ in range(25):
        alpha = 10.0 ** rng.uniform(-6, 0)
        b = 10.0 ** rng.uniform(0, 8)
        k = 10.0 ** rng.uniform(1, 12)
        h_of = lambda e: risk_steps(UNIT, HyperParams(e, alpha, b), k)
        x, fx = golden_min_log(h_of, 1e-16, 1e6)
        analytic = math.sqrt(UNIT.c1 / (UNIT.c3 * (1.0 + 1.0 / alpha) * k))
        assert x == pytest.approx(analytic, rel=1e-5)
        assert fx == pytest.approx(h_of(analytic), rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        BoundConstants(delta0=0.0, smoothness=1.0, noise_scale=1.0)
    with pytest.raises(DomainError):
        BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=1.0, norm_equiv=0.5)
    with pytest.raises(DomainError):
        HyperParams(eta=0.0, alpha=0.5)
    with pytest.raises(DomainError):
        HyperParams(eta=1.0, alpha=0.0)
    with pytest.raises(DomainError):
        HyperParams(eta=1.0, alpha=1.5)
    with pytest.raises(DomainError):
        HyperParams(eta=1.0, alpha=1.0, batch=0.5)
    with pytest.raises(DomainError):
        Budget.tokens(0.5)
    with pytest.raises(DomainError):
        risk_steps(UNIT, HyperParams(1.0, 1.0), 0.5)


def test_budget_too_small():
    h = HyperParams(eta=1.0, alpha=1.0, batch=10.0)
    with pytest.raises(BudgetTooSmallError):
        risk_tokens(UNIT, h, 5.0)
    with pytest.raises(BudgetTooSmallError):
        bound_tokens(UNIT, h, 5.0)
    with pytest.raises(BudgetTooSmallError):
        Budget.tokens(5.0).steps_for(10.0)


def test_derived_constants():
    c = BoundConstants(delta0=3.0, smoothness=2.0, noise_scale=0.25, norm_equiv=4.0)
    assert c.c1 == 3.0
    assert c.c2 == 2.0
    assert c.c3 == 8.0
    assert c.rho_sigma == 1.0
    back = BoundConstants.from_proxy_constants(c.c1, c.c2, c.c3)
    assert (back.c1, back.c2, back.c3) == (c.c1, c.c2, c.c3)
