"""Closed-form optima vs independent refinement/bisection oracles."""

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
    PowerLawSchedule,
    aggressive_ceiling,
    asymptotic_momentum,
    asymptotic_momentum_terms,
    batch_growth_plan,
    batch_star_given_momentum,
    bound_eta_minimized,
    bound_eta_star,
    bound_tokens,
    capped_batch_noise_floor,
    effective_constants,
    momentum_cubic,
    momentum_gap_ratio,
    optimal_fixed_batch,
    optimal_fixed_momentum_steps,
    optimal_fixed_momentum_tokens,
    optimal_joint,
    rate_exponents,
    risk_large_horizon,
    solve_momentum_cubic,
    tuned_risk_prefactor,
)
from oracles import bisect_root, golden_min_log, refine_min

UNIT = BoundConstants.from_proxy_constants()
ONES = BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=1.0)  # delta0 = L = rho*sigma = 1

# frozen from a 60-digit bisection of 1.225e7 a^3 - 3.5 a - 2 = 0
CUBIC_ROOT_T1E6 = 5.482942871496939995865949e-3
ASYM_U0 = 0.5465517665063968860568905
ASYM_U1 = 0.1742526528582367389160987


class TestFixedMomentumSteps:
    def test_example_value(self):
        opt = optimal_fixed_momentum_steps(UNIT, alpha=1.0, b=1.0, k=1e8)
        assert opt.eta_star == pytest.approx(math.sqrt(1.0 / 2e8), rel=1e-15)
        assert opt.eta_star == pytest.approx(7.0711e-5, rel=1e-4)

    def test_matches_golden_section_oracle(self):
        f = lambda e: risk_large_horizon(UNIT, e, 1.0, Budget.iterations(1e8), 1.0)
        x, fx = golden_min_log(f, 1e-12, 1.0)
        opt = optimal_fixed_momentum_steps(UNIT, alpha=1.0, b=1.0, k=1e8)
        assert opt.eta_star == pytest.approx(x, rel=1e-5)
        assert opt.risk_star == pytest.approx(fx, rel=1e-10)

    def test_batch_independence(self):
        a = optimal_fixed_momentum_steps(UNIT, 0.3, b=1.0, k=1e6)
        b = optimal_fixed_momentum_steps(UNIT, 0.3, b=2.0, k=1e6)
        assert a.eta_star == b.eta_star

    def test_floor_difference_across_batches(self):
        r1 = optimal_fixed_momentum_steps(UNIT, 1.0, b=1.0, k=1e10).risk_star
        r4 = optimal_fixed_momentum_steps(UNIT, 1.0, b=4.0, k=1e10).risk_star
        assert r1 - r4 == pytest.approx(0.5, rel=1e-10)


class TestFixedMomentumTokens:
    def test_joint_example_values(self):
        opt = optimal_fixed_momentum_tokens(UNIT, 1.0, 1e8)
        assert opt.b_star == pytest.approx(1e4 / (2.0 * math.sqrt(2.0)), rel=1e-14)
        assert opt.eta_star == pytest.approx(2.0**-1.25 * 1e-2, rel=1e-14)
        assert opt.risk_star == pytest.approx(2.0**1.75 * 1e-2, rel=1e-14)
        assert not opt.clamped

    def test_joint_matches_refinement_oracle(self):
        def f(p):
            return risk_large_horizon(UNIT, p["eta"], p["b"], Budget.tokens(1e8), 1.0)

        point, value = refine_min(f, {"eta": 1e-3, "b": 100.0})
        opt = optimal_fixed_momentum_tokens(UNIT, 1.0, 1e8)
        assert opt.eta_star == pytest.approx(point["eta"], rel=1e-4)
        assert opt.b_star == pytest.approx(point["b"], rel=1e-4)
        assert opt.risk_star == pytest.approx(value, rel=1e-10)

    def test_fixed_batch_square_root_scaling(self):
        e1 = optimal_fixed_momentum_tokens(UNIT, 0.5, 1e10, b=16.0).eta_star
        e2 = optimal_fixed_momentum_tokens(UNIT, 0.5, 1e10, b=64.0).eta_star
        assert e2 / e1 == pytest.approx(2.0, rel=1e-14)

    def test_sixteenfold_budget_halves_risk(self):
        r1 = optimal_fixed_momentum_tokens(UNIT, 1.0, 1e9).risk_star
        r16 = optimal_fixed_momentum_tokens(UNIT, 1.0, 16e9).risk_star
        assert r16 / r1 == pytest.approx(0.5, rel=1e-14)

    def test_small_budget_clamps_batch(self):
        opt = optimal_fixed_momentum_tokens(UNIT, 1.0, 4.0)  # crossing is at T = 8
        assert opt.clamped and opt.b_star == 1.0
        fixed = optimal_fixed_momentum_tokens(UNIT, 1.0, 4.0, b=1.0)
        assert opt.risk_star == fixed.risk_star

    def test_fixed_batch_is_the_step_optimum_at_t_over_b(self):
        fixed = optimal_fixed_momentum_tokens(UNIT, 0.3, 1e10, b=64.0)
        steps = optimal_fixed_momentum_steps(UNIT, 0.3, b=64.0, k=1e10 / 64.0)
        assert (fixed.eta_star, fixed.risk_star) == (steps.eta_star, steps.risk_star)
        assert (fixed.b_star, fixed.regime, fixed.clamped) == (64.0, "tokens-fixed-batch", False)

    def test_budget_below_the_batch_is_infeasible(self):
        with pytest.raises(BudgetTooSmallError, match="not even one step fits"):
            optimal_fixed_momentum_tokens(UNIT, 1.0, 10.0, b=1000.0)
        with pytest.raises(DomainError, match="b must be >= 1"):
            optimal_fixed_momentum_tokens(UNIT, 1.0, 10.0, b=0.0)


class TestFixedBatch:
    def test_example_values(self):
        opt = optimal_fixed_batch(UNIT, 1.0, Budget.iterations(1e8))
        assert opt.alpha_star == pytest.approx(2e-4, rel=1e-14)
        assert opt.eta_star == pytest.approx(math.sqrt(2.0) * 1e-6, rel=1e-14)
        assert opt.risk_star == pytest.approx(2.0 * math.sqrt(2.0) * 1e-2, rel=1e-14)
        assert not opt.clamped

    def test_matches_refinement_oracle_on_leading_proxy(self):
        b, k = 1.0, 1e8

        def leading(p):
            if p["alpha"] > 1.0:
                return math.inf
            return (
                UNIT.c1 / (p["eta"] * k)
                + UNIT.c2 * math.sqrt(p["alpha"] / b)
                + UNIT.c3 * p["eta"] / p["alpha"]
            )

        point, value = refine_min(leading, {"eta": 1e-5, "alpha": 1e-3})
        opt = optimal_fixed_batch(UNIT, b, Budget.iterations(k))
        assert opt.alpha_star == pytest.approx(point["alpha"], rel=1e-4)
        assert opt.eta_star == pytest.approx(point["eta"], rel=1e-4)
        assert opt.risk_star == pytest.approx(value, rel=1e-10)

    def test_momentum_scales_linearly_with_batch_at_fixed_tokens(self):
        t = 1e12
        a1 = optimal_fixed_batch(UNIT, 100.0, Budget.tokens(t)).alpha_star
        a3 = optimal_fixed_batch(UNIT, 300.0, Budget.tokens(t)).alpha_star
        assert a3 / a1 == pytest.approx(3.0, rel=1e-12)

    def test_everything_vanishes_with_steps(self):
        opt = optimal_fixed_batch(UNIT, 32.0, Budget.iterations(1e30))
        assert opt.alpha_star < 1e-10 and opt.eta_star < 1e-18 and opt.risk_star < 1e-6

    def test_clamps_momentum_to_one(self):
        opt = optimal_fixed_batch(UNIT, 1e6, Budget.iterations(10.0))
        assert opt.clamped and opt.alpha_star == 1.0

    def test_dropped_terms_are_lower_order(self):
        ratios = []
        for k in (1e8, 1e10, 1e12):
            opt = optimal_fixed_batch(UNIT, 1072.0, Budget.iterations(k))
            assert opt.burn_in_ratio < 0.01 and opt.smoothness_ratio < 0.01
            ratios.append(max(opt.burn_in_ratio, opt.smoothness_ratio))
        assert ratios == sorted(ratios, reverse=True)

    def test_coefficient_switch_validated(self):
        with pytest.raises(DomainError):
            optimal_fixed_batch(UNIT, 1.0, Budget.iterations(100.0), coefficients="wat")


class TestJoint:
    def test_cubic_root_against_bisection_oracle(self):
        cubic = momentum_cubic(ONES, 1e6)
        assert cubic.a3 == pytest.approx(1.225e7, rel=1e-15)
        assert cubic.a1 == 3.5 and cubic.a0 == 2.0
        oracle = bisect_root(lambda a: 1.225e7 * a**3 - 3.5 * a - 2.0, 1e-6, 1.0)
        root, residual = solve_momentum_cubic(cubic)
        assert root == pytest.approx(oracle, rel=1e-12)
        assert root == pytest.approx(CUBIC_ROOT_T1E6, rel=1e-14)
        assert residual < 1e-12

    def test_asymptotic_terms(self):
        u0, u1 = asymptotic_momentum_terms(ONES)
        assert u0 == pytest.approx(ASYM_U0, rel=1e-14)
        assert u1 == pytest.approx(ASYM_U1, rel=1e-14)
        assert u0 == pytest.approx(2.0 / 7.0 ** (2.0 / 3.0), rel=1e-14)
        approx = asymptotic_momentum(ONES, 1e6)
        assert approx == pytest.approx(CUBIC_ROOT_T1E6, rel=1e-3)

    def test_leading_constant_is_the_limit(self):
        ratios = [
            optimal_joint(ONES, t).alpha_root * t ** (1.0 / 3.0)
            for t in (1e8, 1e12, 1e16, 1e20)
        ]
        u0, _ = asymptotic_momentum_terms(ONES)
        errors = [abs(r - u0) / u0 for r in ratios]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-6

    def test_matches_nested_golden_section_oracle(self):
        # minimize over alpha the (over b the (over eta)) tuned bound, each
        # level by golden section; fully independent of the cubic machinery
        t = 1e8

        def tuned_over_eta_and_b(alpha):
            g = lambda b: golden_min_log(
                lambda e: bound_tokens(ONES, HyperParams(e, alpha, b), t),
                1e-15, 1e3, iters=60,
            )[1]
            return golden_min_log(g, 1.0, 1e7, iters=60)[1]

        alpha_star, value = golden_min_log(tuned_over_eta_and_b, 1e-6, 1.0, iters=60)
        opt = optimal_joint(ONES, t)
        assert opt.alpha_star == pytest.approx(alpha_star, rel=1e-5)
        assert opt.risk_star == pytest.approx(value, rel=1e-10)

    def test_dominates_local_refinement(self):
        t = 1e8

        def f(p):
            if p["alpha"] > 1.0 or p["b"] < 1.0 or p["b"] > t:
                return math.inf
            return bound_tokens(ONES, HyperParams(p["eta"], p["alpha"], p["b"]), t)

        opt = optimal_joint(ONES, t)
        start = {"eta": opt.eta_star * 3, "alpha": opt.alpha_star / 3, "b": opt.b_star * 2}
        _, value = refine_min(f, start)
        assert value >= opt.risk_star * (1.0 - 1e-12)
        assert value == pytest.approx(opt.risk_star, rel=1e-4)

    def test_stationarity_in_log_parameters(self):
        for t in (1e8, 1e14, 1e20):
            opt = optimal_joint(ONES, t)
            h = 1e-5

            def f(eta, alpha, b):
                return bound_tokens(ONES, HyperParams(eta, alpha, b), t)

            base = (opt.eta_star, opt.alpha_star, opt.b_star)
            for i in range(3):
                up = [v * math.exp(h) if j == i else v for j, v in enumerate(base)]
                dn = [v * math.exp(-h) if j == i else v for j, v in enumerate(base)]
                deriv = (f(*up) - f(*dn)) / (2.0 * h)
                assert abs(deriv) / opt.risk_star < 1e-4

    def test_value_consistency_with_back_substitution(self):
        opt = optimal_joint(ONES, 1e10)
        direct = bound_tokens(
            ONES, HyperParams(opt.eta_star, opt.alpha_star, opt.b_star), 1e10
        )
        assert opt.risk_star == pytest.approx(direct, rel=1e-12)
        assert opt.k_star == pytest.approx(1e10 / opt.b_star, rel=1e-15)

    def test_small_budget_clamps_batch(self):
        opt = optimal_joint(ONES, 1e2)
        assert opt.b_clamped and opt.b_star == 1.0

    def test_exact_coefficient_fixed_batch_reproduces_joint(self):
        # momentum/step schedules at the joint batch agree at large horizons
        gaps = []
        for t in (1e8, 1e12, 1e16):
            joint = optimal_joint(ONES, t)
            fb = optimal_fixed_batch(
                ONES, joint.b_star, Budget.tokens(t), coefficients="exact"
            )
            gap = max(
                abs(fb.alpha_star - joint.alpha_star) / joint.alpha_star,
                abs(fb.eta_star - joint.eta_star) / joint.eta_star,
            )
            gaps.append(gap)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-4


class TestCorollaries:
    def test_gap_ratio_examples(self):
        assert momentum_gap_ratio(1.0) == pytest.approx(2.0**0.25, rel=1e-15)
        assert momentum_gap_ratio(1e-9) == pytest.approx(1.0, rel=1e-9)
        assert momentum_gap_ratio(0.1) == pytest.approx(1.1**0.25, rel=1e-15)
        assert momentum_gap_ratio(0.1) == pytest.approx(1.0241, rel=1e-4)

    def test_gap_ratio_is_prefactor_ratio(self):
        # dense sweep: the tuned-risk prefactor normalized by its infimum
        alphas = np.geomspace(1e-8, 1.0, 2000)
        prefactors = np.array([tuned_risk_prefactor(UNIT, a) for a in alphas])
        inf_pref = tuned_risk_prefactor(UNIT, 1e-12)
        for a, p in zip(alphas[::100], prefactors[::100]):
            assert p / inf_pref == pytest.approx(momentum_gap_ratio(a), rel=1e-6)
        assert np.all(np.diff(prefactors) > 0)

    def test_noise_floor_examples(self):
        assert capped_batch_noise_floor(UNIT, 1.0, 100.0) == pytest.approx(0.1, rel=1e-15)
        full = capped_batch_noise_floor(UNIT, 0.4, 100.0)
        quarter = capped_batch_noise_floor(UNIT, 0.1, 100.0)
        assert quarter / full == pytest.approx(0.5, rel=1e-14)

    def test_capped_batch_risk_approaches_floor(self):
        alpha, b_max = 0.01, 1e4
        floor = capped_batch_noise_floor(UNIT, alpha, b_max)
        assert floor == pytest.approx(1e-3, rel=1e-14)
        gaps = []
        for t in (1e12, 1e15, 1e18):
            f = lambda e: risk_large_horizon(UNIT, e, b_max, Budget.tokens(t), alpha)
            _, tuned = golden_min_log(f, 1e-15, 1e3)
            assert tuned > floor
            gaps.append(tuned / floor - 1.0)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01

    def test_batch_growth_plans(self):
        half = batch_growth_plan(0.5)
        assert half.rate_exponent == 0.25
        assert (half.schedule.alpha_exp, half.schedule.eta_exp) == (0.0, 0.25)
        fixed = batch_growth_plan(0.0)
        assert fixed.rate_exponent == 0.25
        assert (fixed.schedule.alpha_exp, fixed.schedule.eta_exp) == (0.5, 0.75)
        fast = batch_growth_plan(0.75)
        assert fast.rate_exponent == pytest.approx(0.125, abs=0)
        assert fast.schedule.eta_exp == pytest.approx(0.125, abs=0)
        assert fast.schedule.alpha_exp == 0.0
        assert fast.regime == "iteration-limited"
        with pytest.raises(DomainError):
            batch_growth_plan(1.0)

    def test_batch_growth_plans_and_ceiling_keep_their_exponents(self):
        # the laws of TunedLaw reproduce the exponents these were once written with
        for phi in np.linspace(0.0, 1.0, 100_001)[:-1].tolist():
            plan = batch_growth_plan(phi)
            if phi <= 0.5:
                assert plan.schedule == PowerLawSchedule(phi, 0.5 - phi, 0.75 - phi), phi
                assert plan.rate_exponent == 0.25
            else:
                assert plan.schedule == PowerLawSchedule(phi, 0.0, (1.0 - phi) / 2.0), phi
                assert plan.rate_exponent == (1.0 - phi) / 2.0
                assert aggressive_ceiling(phi).delta_star == (1.0 - phi) / 2.0, phi

    def test_batch_growth_plan_rate_is_its_schedules_rate(self):
        for phi in [*np.linspace(0.0, 0.999, 334), 0.05, 0.35, 0.5, np.nextafter(1.0, 0.0)]:
            plan = batch_growth_plan(float(phi))
            overall = rate_exponents(plan.schedule).overall
            assert overall == pytest.approx(plan.rate_exponent, rel=0, abs=1e-15), phi


class TestCubicSolverEdgeCases:
    def test_random_constants_residuals(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            c = BoundConstants(
                delta0=10.0 ** rng.uniform(-2, 2),
                smoothness=10.0 ** rng.uniform(-2, 2),
                noise_scale=10.0 ** rng.uniform(-2, 2),
            )
            t = 10.0 ** rng.uniform(6, 20)
            root, residual = solve_momentum_cubic(momentum_cubic(c, t))
            assert root > 0 and residual < 1e-12

    def test_single_sign_change_structure(self):
        # negative at zero, decreasing up to the lone critical point (still
        # negative there), strictly increasing past it: exactly one root
        rng = np.random.default_rng(14)
        for _ in range(100):
            c = BoundConstants(
                delta0=10.0 ** rng.uniform(-2, 2),
                smoothness=10.0 ** rng.uniform(-2, 2),
                noise_scale=10.0 ** rng.uniform(-2, 2),
            )
            cubic = momentum_cubic(c, 10.0 ** rng.uniform(2, 16))
            crit = math.sqrt(cubic.a1 / (3.0 * cubic.a3))
            assert cubic.evaluate(0.0) == -cubic.a0 < 0
            assert cubic.evaluate(crit) < 0
            root, _ = solve_momentum_cubic(cubic)
            assert root > crit
            xs = np.geomspace(crit, 100.0 * root, 40)
            vals = [cubic.evaluate(x) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            signs = np.sign(vals)
            assert np.count_nonzero(np.diff(signs)) == 1

    def test_eta_tuning_helpers_agree_with_golden_section(self):
        alpha, b, t = 0.05, 37.0, 1e9
        f = lambda e: bound_tokens(ONES, HyperParams(e, alpha, b), t)
        x, fx = golden_min_log(f, 1e-15, 1e3)
        assert bound_eta_star(ONES, alpha, b, t) == pytest.approx(x, rel=1e-6)
        assert bound_eta_minimized(ONES, alpha, b, t) == pytest.approx(fx, rel=1e-10)

    def test_batch_star_is_the_minimizer_of_the_tuned_bound(self):
        alpha, t = 0.01, 1e10
        f = lambda b: bound_eta_minimized(ONES, alpha, b, t)
        x, _ = golden_min_log(f, 1e-3, 1e9)
        assert batch_star_given_momentum(ONES, alpha, t) == pytest.approx(x, rel=1e-6)

    def test_effective_constants(self):
        c2e, c3e = effective_constants(UNIT, 0.25)
        assert c2e == 0.5 and c3e == 5.0


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# delta0, smoothness, noise scale 1e-3..1e3, rho 1..4, alpha 1e-4..1, b 1..1e6, T / b 1..1e12;
# the other step size is eta* scaled by 1 -+ 1e-9 (stationarity) or by 1e-3..1e3
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decades(-3, 3), _decades(-3, 3), _decades(-3, 3), st.floats(1, 4), _decades(-4, 0),
       _decades(0, 6), _decades(0, 12), st.one_of(st.sampled_from((1 - 1e-9, 1 + 1e-9)),
                                                   _decades(-3, 3)))
def test_the_eta_minimized_bound_is_at_or_below_the_bound_at_any_other_eta(
        delta0, smoothness, noise, rho, alpha, b, k, scale):
    c = BoundConstants(delta0, smoothness, noise, rho)
    t = b * k
    eta = bound_eta_star(c, alpha, b, t) * scale
    # worst seen over 20,000 seeded draws: 4.3e-16 relative, about 2 ulps
    assert bound_eta_minimized(c, alpha, b, t) <= bound_tokens(c, HyperParams(eta, alpha, b), t) * (
        1 + 4 * np.finfo(float).eps)
