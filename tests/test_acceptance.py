"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Tolerances are pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from lmoscale import (
    BoundConstants,
    Budget,
    Constraint,
    ContourConstants,
    GridSpec,
    HyperParams,
    NoiseModel,
    NormKind,
    ObjectiveSpec,
    PathExponents,
    TransferRegime,
    TunedConfig,
    BatchChangeSetting,
    aggressive_ceiling,
    batch_growth_plan,
    bound_eta_minimized,
    bound_steps,
    bound_tokens,
    capped_batch_noise_floor,
    dual_norm,
    effective_eta_exponent,
    extrapolate,
    extrapolate_with_batch_change,
    fit_sweep_exponents,
    level_set,
    lmo_direction,
    momentum_cubic,
    momentum_gap_ratio,
    noise_exponent_sensitivity,
    optimal_fixed_batch,
    optimal_fixed_momentum_tokens,
    optimal_joint,
    polar_factor,
    rate_exponents,
    risk_large_horizon,
    risk_steps,
    risk_tokens,
    sgd_tuned,
    solve_momentum_cubic,
    sweep,
    sweep_sim,
    tuned_bound,
)
from oracles import golden_min_log

UNIT = BoundConstants.from_proxy_constants()
ONES = BoundConstants(1.0, 1.0, 1.0)


def report(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS: {text}")


def test_criterion_01_proxy_identity_suite():
    rng = np.random.default_rng(101)
    n = 10_000
    etas = 10.0 ** rng.uniform(-15, 4, n)
    alphas = 10.0 ** rng.uniform(-10, 0, n)
    bs = 10.0 ** rng.uniform(0, 15, n)
    ts = 10.0 ** rng.uniform(np.log10(bs), 22.0)
    start = time.perf_counter()
    worst_risk = worst_bound = 0.0
    for eta, alpha, b, t in zip(etas, alphas, bs, ts):
        h = HyperParams(eta, alpha, b)
        k = t / b
        r_t, r_k = risk_tokens(UNIT, h, t), risk_steps(UNIT, h, k)
        u_t, u_k = bound_tokens(UNIT, h, t), bound_steps(UNIT, h, k)
        worst_risk = max(worst_risk, abs(r_t - r_k) / r_k)
        worst_bound = max(worst_bound, abs(u_t - u_k) / u_k)
    elapsed = time.perf_counter() - start
    assert worst_risk < 1e-12
    assert worst_bound < 1e-12
    assert elapsed < 1.0
    report(1, f"10^4 substitution identities, worst rel err "
              f"{max(worst_risk, worst_bound):.2e}, {elapsed:.2f} s")


def _coordinate_golden_refine(f, start, bounds, rounds=3):
    point = dict(start)
    for _ in range(rounds):
        for key in point:
            lo, hi = bounds[key]
            g = lambda v: f({**point, key: v})
            x, _ = golden_min_log(g, max(lo, point[key] / 50.0), min(hi, point[key] * 50.0), iters=60)
            point[key] = x
    return point, f(point)


def test_criterion_02_closed_form_vs_oracle():
    start_time = time.perf_counter()
    ts = np.geomspace(1e10, 1e22, 20)
    spec = GridSpec(t_range=(1e10, 1e22), t_points=20)
    slack = 1.0 + 4.0 * spec.max_log_step(Constraint())
    checked = 0

    def leading_fixed_batch(eta, alpha, b, k):
        return UNIT.c1 / (eta * k) + UNIT.c2 * math.sqrt(alpha / b) + UNIT.c3 * eta / alpha

    regimes = []  # (name, constraint, objective, closed risk fn, stationarity fn, refine axes)

    def thm1_fixed(t):
        opt = optimal_fixed_momentum_tokens(UNIT, 1.0, t, b=32.0)
        budget = Budget.tokens(t)
        stat = {"eta": lambda v: risk_large_horizon(UNIT, v, 32.0, budget, 1.0)}
        anchor = {"eta": opt.eta_star}
        return opt.risk_star, stat, anchor

    def thm1_joint(t):
        opt = optimal_fixed_momentum_tokens(UNIT, 1.0, t)
        budget = Budget.tokens(t)
        stat = {
            "eta": lambda v: risk_large_horizon(UNIT, v, opt.b_star, budget, 1.0),
            "b": lambda v: risk_large_horizon(UNIT, opt.eta_star, v, budget, 1.0),
        }
        anchor = {"eta": opt.eta_star, "b": opt.b_star}
        return opt.risk_star, stat, anchor

    def thm2(t):
        opt = optimal_fixed_batch(UNIT, 1072.0, Budget.tokens(t))
        k = t / 1072.0
        stat = {
            "eta": lambda v: leading_fixed_batch(v, opt.alpha_star, 1072.0, k),
            "alpha": lambda v: leading_fixed_batch(opt.eta_star, v, 1072.0, k),
        }
        anchor = {"eta": opt.eta_star, "alpha": opt.alpha_star}
        return opt.risk_star, stat, anchor

    def thm3(t):
        opt = optimal_joint(UNIT, t)
        stat = {
            "eta": lambda v: bound_tokens(UNIT, HyperParams(v, opt.alpha_star, opt.b_star), t),
            "alpha": lambda v: bound_tokens(UNIT, HyperParams(opt.eta_star, v, opt.b_star), t),
            "b": lambda v: bound_tokens(UNIT, HyperParams(opt.eta_star, opt.alpha_star, v), t),
        }
        anchor = {"eta": opt.eta_star, "alpha": opt.alpha_star, "b": opt.b_star}
        return opt.risk_star, stat, anchor

    regimes.append(("thm1-fixed-b", Constraint(fixed_alpha=1.0, fixed_b=32.0), "risk_tokens", thm1_fixed))
    regimes.append(("thm1-joint-b", Constraint(fixed_alpha=1.0), "risk_tokens", thm1_joint))
    regimes.append(("thm2", Constraint(fixed_b=1072.0), "risk_tokens", thm2))
    regimes.append(("thm3", Constraint(), "bound_tokens", thm3))

    objective_fn = {
        "risk_tokens": lambda p, t: risk_tokens(UNIT, HyperParams(p["eta"], p.get("alpha", 1.0), p.get("b", 32.0)), t),
        "bound_tokens": lambda p, t: bound_tokens(UNIT, HyperParams(p["eta"], p["alpha"], p["b"]), t),
    }
    bounds = {"eta": (1e-15, 1e4), "alpha": (1e-10, 1.0), "b": (1.0, 1e15)}

    for name, constraint, objective, closed in regimes:
        result = sweep(UNIT, spec, constraint, objective)
        assert len(result.records) == 20
        for rec in result.records:
            risk_star, stat_axes, anchor = closed(rec.t)
            # grid dominance within resolution slack
            assert rec.risk >= risk_star * (1.0 - 1e-12)
            assert rec.risk <= risk_star * slack
            # stationarity of the regime's own objective at the analytic optimum
            h = 1e-5
            for key, g in stat_axes.items():
                v = anchor[key]
                deriv = (g(v * math.exp(h)) - g(v * math.exp(-h))) / (2.0 * h)
                assert abs(deriv) / risk_star < 1e-4
            checked += 1
        # local refinement from the grid argmin converges to the optimum
        rec = result.records[10]
        risk_star, stat_axes, anchor = closed(rec.t)
        start = {"eta": rec.eta}
        if constraint.fixed_alpha is None:
            start["alpha"] = rec.alpha
        if constraint.fixed_b is None:
            start["b"] = rec.b
        if constraint.fixed_alpha is not None:
            start.setdefault("alpha", constraint.fixed_alpha)
        if constraint.fixed_b is not None:
            start.setdefault("b", constraint.fixed_b)
        free_keys = [k for k in ("eta", "alpha", "b") if (
            (k == "eta") or
            (k == "alpha" and constraint.fixed_alpha is None) or
            (k == "b" and constraint.fixed_b is None)
        )]

        def restricted(p):
            full = dict(start)
            full.update(p)
            return objective_fn[objective](full, rec.t)

        refined, refined_value = _coordinate_golden_refine(
            restricted, {k: start[k] for k in free_keys}, bounds
        )
        assert refined_value <= rec.risk * (1.0 + 1e-12)
        assert refined_value >= risk_star * (1.0 - 1e-12)
        assert refined_value <= risk_star * 1.02  # dropped lower-order terms only
    elapsed = time.perf_counter() - start_time
    assert elapsed < 120.0
    report(2, f"4 regimes x 20 budgets within slack {slack:.2f}, "
              f"stationarity < 1e-4, refinement converges, {elapsed:.1f} s")


def test_criterion_03_fixed_momentum_exponents():
    result = sweep(UNIT, GridSpec(), Constraint(fixed_alpha=1e-3))
    fits = fit_sweep_exponents(result, decades=20.0)  # full post-burn-in window
    assert fits["b"].exponent == pytest.approx(0.5, abs=0.05)
    assert fits["eta"].exponent == pytest.approx(-0.25, abs=0.05)
    assert fits["risk"].exponent == pytest.approx(-0.25, abs=0.02)
    report(3, "beta=0.999 sweep: b {:+.3f}, eta {:+.3f}, risk {:+.3f}".format(
        fits["b"].exponent, fits["eta"].exponent, fits["risk"].exponent))


@pytest.mark.parametrize("batch", [1072.0, 32.0, 35111.0])
def test_criterion_04_fixed_batch_exponents(batch):
    result = sweep(UNIT, GridSpec(), Constraint(fixed_b=batch))
    fits = fit_sweep_exponents(result, decades=20.0)
    assert fits["alpha"].exponent == pytest.approx(-0.5, abs=0.05)
    assert fits["eta"].exponent == pytest.approx(-0.75, abs=0.05)
    assert fits["risk"].exponent == pytest.approx(-0.25, abs=0.02)
    report(4, "b={:g} sweep: alpha {:+.3f}, eta {:+.3f}, risk {:+.3f}".format(
        batch, fits["alpha"].exponent, fits["eta"].exponent, fits["risk"].exponent))


def test_criterion_05_joint_tuning_exponents():
    result = sweep(UNIT, GridSpec(), Constraint())
    fits = fit_sweep_exponents(result, decades=20.0)
    assert fits["alpha"].exponent == pytest.approx(-1.0 / 3.0, abs=0.07)
    assert fits["eta"].exponent == pytest.approx(-7.0 / 12.0, abs=0.07)
    assert fits["b"].exponent == pytest.approx(1.0 / 6.0, abs=0.10)
    assert fits["risk"].exponent == pytest.approx(-0.25, abs=0.02)
    report(5, "free sweep: alpha {:+.3f}, eta {:+.3f}, b {:+.3f}, risk {:+.3f}".format(
        fits["alpha"].exponent, fits["eta"].exponent, fits["b"].exponent,
        fits["risk"].exponent))


def test_criterion_06_cubic_solver():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        c = BoundConstants(
            delta0=10.0 ** rng.uniform(-2, 2),
            smoothness=10.0 ** rng.uniform(-2, 2),
            noise_scale=10.0 ** rng.uniform(-2, 2),
        )
        t = 10.0 ** rng.uniform(6, 20)
        root, residual = solve_momentum_cubic(momentum_cubic(c, t))
        assert root > 0
        worst = max(worst, residual)
    assert worst < 1e-12
    # two-term asymptote at the reference instance, then improving with budget
    opt = optimal_joint(ONES, 1e6)
    assert opt.alpha_root == pytest.approx(5.483e-3, rel=1e-3)
    errors = []
    for t in (1e6, 1e8, 1e10):
        o = optimal_joint(ONES, t)
        errors.append(abs(o.asymptotic_alpha - o.alpha_root) / o.alpha_root)
    assert errors[0] < 0.01
    assert errors == sorted(errors, reverse=True)
    report(6, f"10^3 cubics, worst normalized residual {worst:.2e}; "
              f"asymptote err at 1e6 tokens {errors[0]:.2e}, decreasing in T")


def test_criterion_07_momentum_tuning_corollary():
    alphas = np.linspace(1e-9, 1.0, 100_000)
    ratios = np.array([momentum_gap_ratio(a) for a in alphas[::97]])
    ceiling = 2.0**0.25 + 1e-9
    assert momentum_gap_ratio(1.0) <= ceiling
    assert np.all(ratios <= ceiling)
    # capped batch: eta-tuned risk at the cap approaches the noise floor
    alpha, b_max, t = 0.01, 1e4, 1e18
    floor = capped_batch_noise_floor(UNIT, alpha, b_max)
    assert floor == pytest.approx(1e-3, rel=1e-14)
    spec = GridSpec(t_range=(t, t), t_points=1)
    rec = sweep(UNIT, spec, Constraint(fixed_alpha=alpha, fixed_b=b_max)).records[0]
    f = lambda e: risk_tokens(UNIT, HyperParams(e, alpha, b_max), t)
    _, tuned = golden_min_log(f, rec.eta / 100.0, rec.eta * 100.0)
    assert tuned > floor
    assert tuned / floor - 1.0 < 0.01
    report(7, f"gap ratio max {ratios.max():.6f} <= 2^(1/4); capped-batch tuned risk "
              f"within {100 * (tuned / floor - 1.0):.2f}% of the floor at T=1e18")


def test_criterion_08_sgd_contrast():
    bs = 10.0 ** np.arange(7)
    budget = Budget.tokens(1e4)
    values = np.array([
        sgd_tuned(1.0, 1.0, 1.0, batch=b, budget=budget, enforce_cap=False).value
        for b in bs
    ])
    spread = (values.max() - values.min()) / values.min()
    assert spread < 1e-12
    assert values[0] == pytest.approx(0.01, rel=1e-12)
    # interior optimum over the same batch set once T >= 1e10; the optimum
    # grows like sqrt(T), so this seven-point window holds it up to ~8e11
    for t in (1e10, 1e11):
        lmo = [optimal_fixed_momentum_tokens(UNIT, 1.0, t, b=b).risk_star for b in bs]
        best = int(np.argmin(lmo))
        assert 0 < best < len(bs) - 1
    report(8, f"SGD tuned value 0.01 flat across 7 decades of batch "
              f"(spread {spread:.1e}); momentum proxy has interior optimum")


def test_criterion_09_transfer_algebra():
    rng = np.random.default_rng(109)
    worst = 0.0
    for regime in TransferRegime:
        for _ in range(200):
            t0 = 10.0 ** rng.uniform(2, 8)
            t1 = t0 * 10.0 ** rng.uniform(0, 5)
            t2 = t1 * 10.0 ** rng.uniform(0, 5)
            cfg = TunedConfig(
                t0=t0, b0=10.0 ** rng.uniform(0, 4),
                eta0=10.0 ** rng.uniform(-6, 0), alpha0=10.0 ** rng.uniform(-4, 0),
            )
            mid = extrapolate(cfg, t1, regime)
            hop = extrapolate(
                TunedConfig(t0=t1, b0=mid.b1, eta0=mid.eta1, alpha0=mid.alpha1), t2, regime
            )
            direct = extrapolate(cfg, t2, regime)
            for a, b in ((hop.eta1, direct.eta1), (hop.alpha1, direct.alpha1), (hop.b1, direct.b1)):
                worst = max(worst, abs(a - b) / b)
    assert worst < 1e-12
    res = extrapolate(
        TunedConfig(t0=1.0, b0=1.0, eta0=1.0, alpha0=1.0),
        100.0, TransferRegime.FIXED_BATCH_FIXED_MOMENTUM,
    )
    assert res.eta1 == 0.1
    cancel = extrapolate_with_batch_change(
        TunedConfig(t0=1e8, b0=37.0, eta0=2.5e-3, alpha0=0.1),
        4e8, 148.0, BatchChangeSetting.LMO_FIXED_MOMENTUM,
    )
    assert cancel.eta1 == 2.5e-3
    report(9, f"composition exact to {worst:.1e}; ratio-100 factor is 0.1; "
              f"4x batch + 4x budget cancels")


def test_criterion_10_lmo_direction_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    # dual-norm identity on 10^3 inputs per norm
    for norm in NormKind:
        for _ in range(1000):
            if norm is NormKind.SPECTRAL:
                m = rng.standard_normal((rng.integers(2, 33), rng.integers(2, 33)))
            else:
                m = rng.standard_normal(rng.integers(2, 64))
            ref = dual_norm(m, norm)
            assert abs(np.vdot(m, lmo_direction(m, norm)) + ref) <= 1e-8 * ref
    # certified against 10^3 x 10^3 random unit-norm competitors
    violations = 0
    shape_of = {NormKind.EUCLIDEAN: (32,), NormKind.MAX: (32,), NormKind.SPECTRAL: (8, 8)}
    for norm, shape in shape_of.items():
        cands = rng.standard_normal((1000,) + shape)
        flat = cands.reshape(1000, -1)
        if norm is NormKind.EUCLIDEAN:
            scale = np.linalg.norm(flat, axis=1)
        elif norm is NormKind.MAX:
            scale = np.abs(flat).max(axis=1)
        else:
            scale = np.linalg.svd(cands, compute_uv=False)[:, 0]
        cands /= scale.reshape((1000,) + (1,) * len(shape))
        for _ in range(1000):
            m = rng.standard_normal(shape)
            best = np.vdot(m, lmo_direction(m, norm))
            inners = np.tensordot(cands, m, axes=len(shape))
            violations += int(np.sum(best > inners + 1e-9 * dual_norm(m, norm)))
    assert violations == 0
    # orthogonalized direction against the exact decomposition, up to 32 x 32
    worst = 0.0
    for i in range(200):
        n, p = rng.integers(2, 33), rng.integers(2, 33)
        m = rng.standard_normal((n, p))
        if i % 3 == 0:  # include badly conditioned inputs
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            s = np.geomspace(1.0, 1e-9, s.size)
            m = (u * s) @ vt
        u, _, vt = np.linalg.svd(m, full_matrices=False)
        worst = max(worst, np.linalg.norm(polar_factor(m) - u @ vt, 2))
    assert worst < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(10, f"dual identities, 10^6 competitor trials with 0 violations, "
               f"polar distance {worst:.1e}, {elapsed:.1f} s")


def test_criterion_11_simulator_trends():
    spec = ObjectiveSpec(
        kind="noisy-quadratic", noise_sigma=1.0,
        spectrum=tuple(np.geomspace(0.05, 1.0, 50)),
    )
    etas = tuple(10.0**e for e in np.arange(-4.0, -1.9, 0.25))
    t = 65536.0

    def best_eta(points, b):
        group = [p for p in points if p.b == b]
        return min(group, key=lambda p: (p.metric, p.eta)).eta

    # (a) fixed batch: the tuned step size strictly decreases from T to 16 T
    res_a = sweep_sim(spec, NormKind.MAX, etas, (0.1,), (32,), (t, 16 * t),
                      replicates=32, seed=0)
    eta_short = res_a.best[0].eta
    eta_long = res_a.best[1].eta
    assert eta_long < eta_short
    # (b) fixed budget: the tuned step size does not decrease with batch size
    res_b = sweep_sim(spec, NormKind.MAX, etas, (0.1,), (32, 128, 512), (16 * t,),
                      replicates=32, seed=0)
    tuned = [best_eta(res_b.points, b) for b in (32, 128, 512)]
    assert tuned[0] <= tuned[1] <= tuned[2]
    # (c) plain-gradient baseline: tuned performance nearly flat across batches
    sgd_spec = ObjectiveSpec(
        kind="noisy-quadratic", noise_sigma=1.0,
        spectrum=tuple(np.geomspace(0.05, 1.0, 50)), x0_scale=0.25,
    )
    sgd_etas = tuple(10.0**e for e in np.arange(-3.0, 0.01, 0.25))
    res_c = sweep_sim(sgd_spec, NormKind.EUCLIDEAN, sgd_etas, (1.0,), (32, 128, 512),
                      (16 * t,), replicates=32, seed=0, update="sgd")
    tuned_metrics = []
    for b in (32, 128, 512):
        group = [p for p in res_c.points if p.b == b]
        tuned_metrics.append(min(p.metric for p in group))
    spread = (max(tuned_metrics) - min(tuned_metrics)) / min(tuned_metrics)
    assert spread < 0.15
    report(11, f"sign-descent tuned eta {eta_short:.1e} -> {eta_long:.1e} over 16x budget; "
               f"non-decreasing in batch {tuned[0]:.1e}/{tuned[1]:.1e}/{tuned[2]:.1e}; "
               f"SGD tuned spread {100 * spread:.1f}%")


def test_criterion_12_contour_suite():
    cc = ContourConstants(ONES, alpha=1.0)
    assert cc.k_min(0.5) == pytest.approx(88.0, rel=1e-12)
    assert cc.b_min(0.5) == pytest.approx(16.0, rel=1e-12)
    # eta-tuned two-variable bound coincides with the token-form minimization
    rng = np.random.default_rng(112)
    for _ in range(300):
        alpha = 10.0 ** rng.uniform(-6, 0)
        cci = ContourConstants(ONES, alpha)
        b = 10.0 ** rng.uniform(0, 8)
        k = 10.0 ** rng.uniform(0, 10)
        lhs = tuned_bound(cci, b, k)
        rhs = bound_eta_minimized(ONES, alpha, b, b * k)
        assert abs(lhs - rhs) <= 1e-10 * rhs
    # burn-dominated stretch of a level set follows the K sqrt(b) hyperbola
    heavy = ContourConstants(BoundConstants(0.1, 0.1, 100.0), alpha=1e-6)
    ls = level_set(heavy, 30.0, np.geomspace(5e4, 1e6, 12))
    burners = [p for p in ls.points if p.burn_fraction > 0.8]
    assert burners
    worst = max(abs(p.k * math.sqrt(p.b) * 30.0 / heavy.c_burn - 1.0) for p in burners)
    assert worst < 0.10
    report(12, f"k_min=88, b_min=16; tuned-bound identity to 1e-10; "
               f"hyperbola deviation {100 * worst:.1f}% where burn-in > 80%")


def test_criterion_13_schedule_analysis():
    for phi in np.arange(0.0, 0.51, 0.1):
        plan = batch_growth_plan(float(phi))
        assert rate_exponents(plan.schedule).overall == 0.25
    for phi in (0.6, 0.75, 0.9):
        assert aggressive_ceiling(phi).rate_exponent == (1.0 - phi) / 2.0
    for p in np.linspace(0.0, 1.0, 41):
        assert effective_eta_exponent(PathExponents(0.0, 0.5, float(p))).q_eff <= 0.0
    assert effective_eta_exponent(PathExponents(0.25, 0.75, 0.75)).q_eff == 0.0
    sens = noise_exponent_sensitivity(NoiseModel(q=0.5), b=32.0, t=1e10)
    assert sens.perf_b_exponent == 0.0
    report(13, "quarter rate for all slow batch growth; aggressive ceiling (1-phi)/2; "
               "path and noise-exponent identities exact")
