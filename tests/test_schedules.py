"""Power-law rate calculus: term exponents, ceilings, sensitivities, paths."""

import math
import sys

import numpy as np
import pytest

from lmoscale import (
    BoundConstants,
    Budget,
    DomainError,
    HyperParams,
    NoiseModel,
    PathExponents,
    PowerLawSchedule,
    TunedLaw,
    aggressive_ceiling,
    batch_growth_plan,
    bound_tokens,
    effective_eta_exponent,
    fit_power_law,
    noise_exponent_sensitivity,
    optimal_fixed_batch,
    optimal_fixed_momentum_tokens,
    rate_exponents,
    sgd_tuned,
)

ONES = BoundConstants(1.0, 1.0, 1.0)
# (batch factor, token factor) pairs that scale a tuned point
SCALINGS = ((4.0, 1.0), (1.0, 16.0), (7.0, 1e6), (1e3, 2.5e9))


def _law_factor(b_exp: float, t_exp: float, lam: float, tau: float) -> float:
    return lam**b_exp / tau**t_exp


def test_fixed_momentum_law_is_the_fixed_batch_eta_optimum():
    law = TunedLaw.FIXED_MOMENTUM
    assert not law.tunes_momentum
    c, alpha, b, t = BoundConstants(1.3, 0.7, 2.1, 1.5), 0.3, 64.0, 1e9
    base = optimal_fixed_momentum_tokens(c, alpha, t, b)
    for lam, tau in SCALINGS:
        scaled = optimal_fixed_momentum_tokens(c, alpha, tau * t, lam * b)
        assert scaled.eta_star / base.eta_star == pytest.approx(
            _law_factor(law.eta_b, law.eta_t, lam, tau), rel=1e-12)


def test_tuned_momentum_law_is_the_fixed_batch_optimum():
    law = TunedLaw.TUNED_MOMENTUM
    assert law.tunes_momentum
    b, t = 32.0, 1e12
    base = optimal_fixed_batch(ONES, b, Budget.tokens(t))
    for lam, tau in SCALINGS:
        scaled = optimal_fixed_batch(ONES, lam * b, Budget.tokens(tau * t))
        assert not (base.clamped or scaled.clamped)
        assert scaled.alpha_star / base.alpha_star == pytest.approx(
            _law_factor(law.alpha_b, law.alpha_t, lam, tau), rel=1e-12)
        assert scaled.eta_star / base.eta_star == pytest.approx(
            _law_factor(law.eta_b, law.eta_t, lam, tau), rel=1e-12)


def test_sgd_law_is_the_uncapped_sgd_optimum():
    law = TunedLaw.SGD
    assert not law.tunes_momentum
    b, t = 8.0, 1e6
    base = sgd_tuned(1.0, 2.0, 0.5, b, Budget.tokens(t), enforce_cap=False)
    for lam, tau in SCALINGS:
        scaled = sgd_tuned(1.0, 2.0, 0.5, lam * b, Budget.tokens(tau * t), enforce_cap=False)
        assert scaled.eta_star / base.eta_star == pytest.approx(
            _law_factor(law.eta_b, law.eta_t, lam, tau), rel=1e-12)


def test_tuned_momentum_law_is_the_noise_rule_at_half():
    # noise sensitivity writes the rules in (b, K); K = T / b moves K's exponent onto b
    s = noise_exponent_sensitivity(NoiseModel(q=0.5), b=64.0, t=1e12)
    law = TunedLaw.TUNED_MOMENTUM
    assert (s.alpha_b_exp + s.alpha_k_exp, s.alpha_k_exp) == (law.alpha_b, law.alpha_t)
    assert (s.eta_b_exp + s.eta_k_exp, s.eta_k_exp) == (law.eta_b, law.eta_t)


def test_momentum_matched_half_power_schedule():
    r = rate_exponents(PowerLawSchedule(b_exp=0.5, alpha_exp=0.0, eta_exp=0.25))
    assert r.as_tuple() == (0.25, 0.75, 0.25, 0.25, 0.25)
    assert r.overall == 0.25
    assert r.diverging == ()


def test_constant_schedule_stalls():
    r = rate_exponents(PowerLawSchedule(0.0, 0.0, 0.0))
    assert r.as_tuple() == (1.0, 1.0, 0.0, 0.0, 0.0)
    assert r.overall == 0.0


def test_aggressive_schedule_overall():
    r = rate_exponents(PowerLawSchedule(0.75, 0.0, 0.125))
    assert r.overall == 0.125


def test_negative_exponents_reported_not_raised():
    r = rate_exponents(PowerLawSchedule(b_exp=0.9, alpha_exp=0.0, eta_exp=0.5))
    assert r.r1 == pytest.approx(-0.4)
    assert "descent" in r.diverging
    assert r.overall < 0


def test_growth_exponent_domain():
    with pytest.raises(DomainError):
        PowerLawSchedule(b_exp=1.5, alpha_exp=0.0, eta_exp=0.0)


def test_matched_schedules_hold_quarter_rate_for_all_slow_growth():
    for phi in np.linspace(0.0, 0.5, 11):
        plan = batch_growth_plan(float(phi))
        r = rate_exponents(plan.schedule)
        assert r.overall == pytest.approx(0.25, abs=1e-15)


def test_ceiling_examples():
    c = aggressive_ceiling(0.8225)
    assert c.delta_star == pytest.approx(0.08875, abs=1e-15)
    assert c.rate_exponent == pytest.approx(0.08875, abs=1e-15)
    near_half = aggressive_ceiling(0.5 + 1e-9)
    assert near_half.rate_exponent == pytest.approx(0.25, abs=1e-8)
    threequarters = aggressive_ceiling(0.75)
    assert threequarters.rate_exponent == 0.125
    assert threequarters.k_exponent == 0.25
    assert threequarters.rate_exponent_in_k == 0.5
    with pytest.raises(DomainError):
        aggressive_ceiling(0.5)
    with pytest.raises(DomainError):
        aggressive_ceiling(1.0)


def test_ceiling_agrees_with_rate_exponents():
    for phi in (0.55, 0.6, 0.75, 0.9, 0.99):
        c = aggressive_ceiling(phi)
        r = rate_exponents(PowerLawSchedule(phi, 0.0, c.delta_star))
        assert r.overall == pytest.approx(c.rate_exponent, abs=1e-15)


def test_noise_sensitivity_flat_at_half():
    s = noise_exponent_sensitivity(NoiseModel(q=0.5), b=64.0, t=1e12)
    assert s.perf_b_exponent == 0.0
    assert s.interpretation == "flat-in-batch"
    # the tuning rules reduce to the fixed-batch momentum schedule exponents
    assert (s.alpha_b_exp, s.alpha_k_exp) == (0.5, 0.5)
    assert (s.eta_b_exp, s.eta_k_exp) == (0.25, 0.75)


def test_noise_sensitivity_small_q_pushes_small_batches():
    s = noise_exponent_sensitivity(NoiseModel(q=0.25), b=64.0, t=1e12)
    assert s.perf_b_exponent == pytest.approx(0.125, abs=1e-15)
    assert s.interpretation == "prefers-small-batch"


def test_noise_sensitivity_large_q_rewards_large_batches():
    s = noise_exponent_sensitivity(NoiseModel(q=0.75), b=64.0, t=1e12)
    assert s.perf_b_exponent == -0.125
    assert s.interpretation == "prefers-large-batch"


def test_heavy_tail_model():
    model = NoiseModel(heavy_tail_p=4.0 / 3.0)
    assert model.q == pytest.approx(0.25, abs=1e-15)
    s = noise_exponent_sensitivity(model, b=16.0, t=1e10)
    assert s.perf_b_exponent == pytest.approx(0.125, abs=1e-14)
    with pytest.raises(DomainError):
        NoiseModel(q=0.3, heavy_tail_p=1.5)  # 1 - 1/p = 1/3 != 0.3
    with pytest.raises(DomainError):
        NoiseModel(heavy_tail_p=2.5)


@pytest.mark.parametrize("p", [0, 1, 0.5, math.nan])
def test_heavy_tail_index_is_checked_before_q_is_formed(p):
    with pytest.raises(DomainError, match=r"^heavy_tail_p must be in \(1, 2\], got "):
        NoiseModel(heavy_tail_p=p)


def test_perf_scale_point_evaluation():
    s = noise_exponent_sensitivity(NoiseModel(q=0.25), b=16.0, t=1e8)
    assert s.perf_scale == pytest.approx(1e-2 * 16.0**0.125, rel=1e-14)
    with pytest.raises(DomainError):
        noise_exponent_sensitivity(NoiseModel(q=0.5), b=10.0, t=5.0)


def test_init_error_is_carried_through():
    s = noise_exponent_sensitivity(NoiseModel(q=0.5, init_error=0.7), b=4.0, t=1e6)
    assert s.init_error == 0.7


def test_path_examples():
    flat = effective_eta_exponent(PathExponents(kappa=0.0, lam=0.5, p=0.9))
    assert flat.q_eff == pytest.approx(-(1.0 - 0.9) / 2.0, rel=1e-12)
    assert flat.threshold_p == 1.0
    for p in np.linspace(0.0, 1.0, 21):
        assert effective_eta_exponent(PathExponents(0.0, 0.5, float(p))).q_eff <= 0.0
    balanced = effective_eta_exponent(PathExponents(0.25, 0.75, 0.75))
    assert balanced.q_eff == 0.0
    heavy = effective_eta_exponent(PathExponents(0.25, 0.75, 0.8225))
    assert heavy.q_eff == pytest.approx(0.0725, abs=1e-12)
    assert heavy.alpha_saturates


def test_path_specialization_identity():
    for p in np.linspace(0.0, 1.0, 21):
        analysis = effective_eta_exponent(PathExponents(0.25, 0.75, float(p)))
        assert analysis.q_eff == pytest.approx(p - 0.75, abs=1e-12)


def test_path_linear_in_p_and_sign_change_at_threshold():
    rng = np.random.default_rng(31)
    for _ in range(50):
        kappa = rng.uniform(0.01, 1.0)
        lam = rng.uniform(0.01, 1.0)
        threshold = lam / (kappa + lam)
        qs = [
            effective_eta_exponent(PathExponents(kappa, lam, p)).q_eff
            for p in np.linspace(0.0, 1.0, 9)
        ]
        diffs = np.diff(qs)
        assert np.allclose(diffs, diffs[0], rtol=1e-9)
        if 0.0 < threshold < 1.0:
            eps = 1e-9
            below = effective_eta_exponent(PathExponents(kappa, lam, threshold - eps)).q_eff
            above = effective_eta_exponent(PathExponents(kappa, lam, threshold + eps)).q_eff
            assert below < 0.0 < above


def test_degenerate_path_has_no_threshold():
    analysis = effective_eta_exponent(PathExponents(0.0, 0.0, 0.3))
    assert analysis.q_eff == 0.0
    assert analysis.threshold_p is None


@pytest.mark.parametrize(
    "schedule, overall",
    [
        (PowerLawSchedule(0.3, 0.2, 0.45), 0.25),      # momentum-matched, phi=0.3
        (PowerLawSchedule(1.0 / 6.0, 1.0 / 3.0, 7.0 / 12.0), 0.25),  # joint-tuned path
        (PowerLawSchedule(0.75, 0.0, 0.125), 0.125),   # aggressive ceiling
        (PowerLawSchedule(0.0, 0.5, 0.75), 0.25),      # fixed batch, tuned momentum
    ],
)
def test_path_evaluation_recovers_overall_rate(schedule, overall):
    # drive the exact bound along the schedule and fit the decay exponent
    assert rate_exponents(schedule).overall == pytest.approx(overall, abs=1e-12)
    ts = np.geomspace(1e20, 1e28, 20)
    values = []
    for t in ts:
        b = t**schedule.b_exp
        alpha = min(1.0, t**-schedule.alpha_exp)
        eta = t**-schedule.eta_exp
        values.append(bound_tokens(ONES, HyperParams(eta, alpha, b), t))
    fit = fit_power_law(ts, values)
    assert fit.exponent == pytest.approx(-overall, abs=0.02)


NAN, INF = math.nan, math.inf
NON_FINITE = {
    "PowerLawSchedule alpha_exp=nan": (lambda: PowerLawSchedule(0.5, NAN, 0.1),
                                       "alpha_exp and eta_exp must be finite floats, got nan, 0.1"),
    "PowerLawSchedule eta_exp=-inf": (lambda: PowerLawSchedule(0.5, 0.1, -INF),
                                      "alpha_exp and eta_exp must be finite floats, got 0.1, -inf"),
    "PowerLawSchedule eta_exp=10**400": (lambda: PowerLawSchedule(0.5, 0.1, 10**400),
                                         "alpha_exp and eta_exp must be finite floats, "
                                         f"got 0.1, {10**400}"),
    "PathExponents kappa=nan": (lambda: PathExponents(NAN, 0.5, 0.5),
                                "kappa and lam must be finite floats, got nan, 0.5"),
    "PathExponents lam=inf": (lambda: PathExponents(0.5, INF, 0.5),
                              "kappa and lam must be finite floats, got 0.5, inf"),
    "sensitivity b=nan": (lambda: noise_exponent_sensitivity(NoiseModel(0.5), NAN, 1e6),
                          "b and t must be finite floats, got b=nan, t=1000000.0"),
    "sensitivity t=nan": (lambda: noise_exponent_sensitivity(NoiseModel(0.5), 4.0, NAN),
                          "b and t must be finite floats, got b=4.0, t=nan"),
    "sensitivity t=inf": (lambda: noise_exponent_sensitivity(NoiseModel(0.5), 4.0, INF),
                          "b and t must be finite floats, got b=4.0, t=inf"),
    "NoiseModel init_error=nan": (lambda: NoiseModel(0.5, init_error=NAN),
                                  "init_error must be a finite float, got nan"),
    "NoiseModel init_error=inf": (lambda: NoiseModel(0.5, init_error=INF),
                                  "init_error must be a finite float, got inf"),
}


@pytest.mark.parametrize("call, text", NON_FINITE.values(), ids=NON_FINITE)
def test_schedules_reject_nan_and_inf(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text


def test_the_largest_finite_exponents_are_accepted():
    big = sys.float_info.max
    assert PowerLawSchedule(0.5, big, -big).eta_exp == -big
    assert PathExponents(big, big, 0.5).kappa == big
    assert noise_exponent_sensitivity(NoiseModel(0.5, init_error=-big), 1.0, big).init_error == -big
