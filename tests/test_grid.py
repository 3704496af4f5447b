"""Grid sweep engine: argmins, determinism, fits, burn-in detection."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmoscale import (
    BoundConstants,
    Budget,
    Constraint,
    DomainError,
    GridSpec,
    HyperParams,
    InfeasibleError,
    NumericalError,
    bound_tokens,
    detect_burn_in,
    fit_power_law,
    fit_sweep_exponents,
    optimal_fixed_batch,
    optimal_fixed_momentum_tokens,
    risk_tokens,
    sweep,
)
from lmoscale import grid
from lmoscale.proxy import token_terms
from oracles import bisect_root, first_argmin

UNIT = BoundConstants.from_proxy_constants()


def test_grid_axes_are_log_uniform_inclusive():
    spec = GridSpec()
    eta = spec.eta_axis()
    assert eta.size == 100
    assert eta[0] == pytest.approx(1e-15, rel=1e-12)
    assert eta[-1] == pytest.approx(1e4, rel=1e-12)
    ratios = eta[1:] / eta[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)


def test_kernel_matches_scalar_evaluators():
    rng = np.random.default_rng(3)
    b = 10.0 ** rng.uniform(0, 12, 7)
    b.sort()
    eta = 10.0 ** rng.uniform(-12, 2, 6)
    alpha = 10.0 ** rng.uniform(-8, 0, 5)
    c = BoundConstants(delta0=2.0, smoothness=0.5, noise_scale=1.5, norm_equiv=2.0)
    for exact, scalar in ((False, risk_tokens), (True, bound_tokens)):
        descent, burn, floor, smooth = token_terms(
            c, eta[None, :, None], alpha[None, None, :], b[:, None, None], exact
        )
        u, v = descent + burn, floor + smooth
        for t in (1e13, 1e16):
            grid_vals = u / t + v
            for i in range(b.size):
                for j in range(eta.size):
                    for k in range(alpha.size):
                        h = HyperParams(eta[j], alpha[k], b[i])
                        assert grid_vals[i, j, k] == pytest.approx(
                            scalar(c, h, t), rel=1e-13
                        )


def test_sweep_lands_one_grid_step_from_closed_form():
    spec = GridSpec(t_range=(1e8, 1e8), t_points=1)
    rec = sweep(UNIT, spec, Constraint.fix_alpha(1.0)).records[0]
    opt = optimal_fixed_momentum_tokens(UNIT, 1.0, 1e8)
    eta_step = math.log(1e4 / 1e-15) / 99
    b_step = math.log(1e15 / 1.0) / 99
    assert abs(math.log(rec.eta / opt.eta_star)) <= eta_step
    assert abs(math.log(rec.b / opt.b_star)) <= b_step
    assert rec.risk >= opt.risk_star


def test_fixed_batch_sweep_dominates_closed_form():
    spec = GridSpec(t_range=(1e12, 1e12), t_points=1)
    rec = sweep(UNIT, spec, Constraint.fix_b(1.0)).records[0]
    assert rec.b == 1.0
    opt = optimal_fixed_batch(UNIT, 1.0, Budget.tokens(1e12))
    assert rec.risk >= opt.risk_star
    assert rec.risk <= opt.risk_star * (1.0 + 4.0 * math.log(1e19) / 99)


def test_small_budget_prefers_batch_one():
    # burn-in phase: heavy momentum keeps the best batch pinned at 1
    spec = GridSpec(t_range=(1e3, 1e3), t_points=1)
    rec = sweep(UNIT, spec, Constraint.fix_alpha(1e-3)).records[0]
    assert rec.b == 1.0
    assert "b-lo" in rec.at_edge
    # jointly tuned momentum leaves burn-in earlier; push the budget lower
    rec = sweep(UNIT, GridSpec(t_range=(1e2, 1e2), t_points=1), Constraint.free()).records[0]
    assert rec.b == 1.0
    assert "b-lo" in rec.at_edge


def test_sweep_is_deterministic():
    spec = GridSpec(t_range=(1e4, 1e12), t_points=9, points_per_axis=25)
    a = sweep(UNIT, spec, Constraint.fix_alpha(0.01))
    b = sweep(UNIT, spec, Constraint.fix_alpha(0.01))
    assert a == b


def test_best_risk_monotone_in_budget():
    for constraint in (Constraint.free(), Constraint.fix_alpha(1e-3)):
        res = sweep(UNIT, GridSpec(points_per_axis=40, t_points=40), constraint)
        risks = res.column("risk")
        assert np.all(np.diff(risks) <= 0)


def test_infeasible_budgets_are_skipped():
    spec = GridSpec(t_range=(1e2, 1e6), t_points=20)
    res = sweep(UNIT, spec, Constraint.fix_b(35111.0))
    assert all(r.t >= 35111.0 for r in res.records)
    assert len(res.records) < 20


def test_entirely_infeasible_sweep_raises():
    spec = GridSpec(t_range=(1e2, 1e3), t_points=4)
    with pytest.raises(InfeasibleError):
        sweep(UNIT, spec, Constraint.fix_b(1e6))


def test_composite_constraint_reduces_to_eta_line():
    spec = GridSpec(t_range=(1e10, 1e10), t_points=1)
    res = sweep(UNIT, spec, Constraint(fixed_alpha=1.0, fixed_b=32.0))
    rec = res.records[0]
    assert rec.alpha == 1.0 and rec.b == 32.0
    assert res.constraint.tag == "composite"
    opt = optimal_fixed_momentum_tokens(UNIT, 1.0, 1e10, b=32.0)
    assert rec.risk >= opt.risk_star
    assert abs(math.log(rec.eta / opt.eta_star)) <= math.log(1e19) / 99


def test_capped_batch_constraint():
    spec = GridSpec(t_range=(1e18, 1e18), t_points=1)
    rec = sweep(UNIT, spec, Constraint.cap_b(1e4)).records[0]
    assert rec.b <= 1e4
    with pytest.raises(InfeasibleError):
        sweep(UNIT, GridSpec(b_range=(10.0, 1e15)), Constraint.cap_b(2.0))


def test_noiseless_argmin_corners():
    # with no gradient noise the objective strictly prefers the smallest
    # batch and the largest momentum complement at a pinned step size
    c = BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=0.0)
    spec = GridSpec(t_range=(1e8, 1e8), t_points=1, points_per_axis=11)
    rec = sweep(c, spec, Constraint.fix_eta(1e-4)).records[0]
    assert rec.b == 1.0
    assert rec.alpha == 1.0


def test_fit_power_law_exact():
    xs = np.geomspace(1.0, 1e6, 20)
    fit = fit_power_law(xs, xs**0.5)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_power_law(xs, 3.0 * xs**-0.25)
    assert fit.exponent == pytest.approx(-0.25, abs=1e-12)
    assert fit.coefficient == pytest.approx(3.0, rel=1e-10)


def test_fit_power_law_window_and_errors():
    xs = np.geomspace(1.0, 1e4, 30)
    fit = fit_power_law(xs, xs**2.0, window=(10.0, 1e3))
    assert fit.n_points == sum(1 for x in xs if 10.0 <= x <= 1e3)
    with pytest.raises(DomainError):
        fit_power_law([1, 2, 3, 4], [1, 2, 3, 4])
    with pytest.raises(DomainError):
        fit_power_law([1, 2, 3, 4, 5], [1, 2, 3, 4, -5])


@pytest.mark.parametrize("xs, ys, message", [
    ([1, 2, 3, 4, 5], [1, 2, math.inf, 4, 5], "power-law fits need finite data"),
    ([1, 2, 3, 4, 5], [1, 2, math.nan, 4, 5], "power-law fits need finite data"),
    ([1, 2, 3, 4, math.inf], [1, 2, 3, 4, 5], "power-law fits need finite data"),
    ([10] * 5, [1, 2, 3, 4, 5], "power-law fits need at least two distinct x values"),
], ids=["inf-y", "nan-y", "inf-x", "one-x"])
def test_fit_power_law_rejects_degenerate_data(xs, ys, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        fit_power_law(xs, ys)


def test_fit_power_law_checks_only_in_window_data():
    xs = [1e-3, 1, 2, 3, 4, 5, 1e9]
    fit = fit_power_law(xs, [math.nan, 1, 2, 3, 4, 5, math.inf], window=(1, 5))
    assert fit.exponent == pytest.approx(1.0, abs=1e-12) and fit.n_points == 5
    with pytest.raises(DomainError, match="^power-law fits need strictly positive data$"):
        fit_power_law([1, 2, 3, 4, 5], [1, 2, math.inf, 4, -5])


def test_fit_recovers_closed_form_exponents_exactly():
    ts = np.geomspace(1e10, 1e20, 24)
    bs = [optimal_fixed_momentum_tokens(UNIT, 1.0, t).b_star for t in ts]
    etas = [optimal_fixed_momentum_tokens(UNIT, 1.0, t).eta_star for t in ts]
    risks = [optimal_fixed_momentum_tokens(UNIT, 1.0, t).risk_star for t in ts]
    assert fit_power_law(ts, bs).exponent == pytest.approx(0.5, abs=1e-10)
    assert fit_power_law(ts, etas).exponent == pytest.approx(-0.25, abs=1e-10)
    assert fit_power_law(ts, risks).exponent == pytest.approx(-0.25, abs=1e-10)


def test_fixed_momentum_batch_exponent_on_verification_grid():
    res = sweep(UNIT, GridSpec(), Constraint.fix_alpha(1e-3))
    clean = [r for r in res.records if not r.at_edge]
    fit = fit_power_law(
        [r.t for r in clean], [r.b for r in clean], window=(1e12, 1e22)
    )
    assert fit.exponent == pytest.approx(0.5, abs=0.05)


def test_detect_burn_in_momentum_off():
    # with momentum off the joint batch optimum crosses 1 at T = 8
    spec = GridSpec(t_range=(1.0, 1e4), t_points=40, b_range=(1.0, 1e3))
    res = sweep(UNIT, spec, Constraint.fix_alpha(1.0))
    threshold = detect_burn_in(res)
    assert threshold is not None
    assert 8.0 / 2.0 <= threshold <= 8.0 * 4.0


def test_detect_burn_in_heavy_momentum():
    res = sweep(UNIT, GridSpec(), Constraint.fix_alpha(1e-3))
    threshold = detect_burn_in(res)
    # oracle: solve for the budget where the tuned batch optimum crosses 1,
    # c2_eff = 2 sqrt(c1 c3_eff / T) + c2 / (alpha T)
    alpha = 1e-3
    c2e = UNIT.c2 * math.sqrt(alpha)
    c3e = UNIT.c3 * (1.0 + 1.0 / alpha)
    crossing = bisect_root(
        lambda t: 2.0 * math.sqrt(UNIT.c1 * c3e / t) + UNIT.c2 / (alpha * t) - c2e,
        1e2,
        1e12,
    )
    assert crossing == pytest.approx(4.1e6, rel=0.05)
    assert 0.5 <= threshold / crossing <= 3.0


def test_detect_burn_in_sentinel():
    spec = GridSpec(t_range=(1.0, 4.0), t_points=5)
    res = sweep(UNIT, spec, Constraint.fix_alpha(1.0))
    assert detect_burn_in(res) is None


def test_fit_sweep_exponents_excludes_edges():
    res = sweep(UNIT, GridSpec(), Constraint.fix_alpha(1e-3))
    fits = fit_sweep_exponents(res, decades=10.0)
    assert set(fits) == {"risk", "eta", "b"}
    assert all(f.window == (1e12, 1e22) for f in fits.values())
    assert fits["b"].exponent == pytest.approx(0.5, abs=0.05)
    assert fits["eta"].exponent == pytest.approx(-0.25, abs=0.05)
    assert fits["risk"].exponent == pytest.approx(-0.25, abs=0.02)


def test_a_fit_window_wider_than_the_float_range_holds_every_budget():
    res = sweep(UNIT, GridSpec(), Constraint.fix_alpha(1e-3))
    clean = [r for r in res.records if not r.at_edge]
    hi = max(r.t for r in clean)
    everything = fit_power_law([r.t for r in clean], [r.risk for r in clean], (0.0, hi))
    ts = np.logspace(-300.0, 300.0, 5)  # every budget fits only a window past 600 decades
    for decades in (308.3, 400.0, 1e300):  # 10.0**decades overflows
        fits = fit_sweep_exponents(res, decades=decades)
        assert fits["risk"] == everything
        assert all(f.window == (0.0, hi) and f.n_points == len(clean) for f in fits.values())
        grid._check_fit_window(ts, decades)
    with pytest.raises(DomainError, match="need at least 5 in-window points, got 3"):
        grid._check_fit_window(ts, 300.0)


@pytest.mark.parametrize("decades", [2.0, 20.0, 307.5, 308.0, 308.25])
def test_a_fit_window_within_the_float_range_keeps_its_edge(decades):
    res = sweep(UNIT, GridSpec(), Constraint.fix_alpha(1e-3))
    hi = max(r.t for r in res.records if not r.at_edge)
    assert fit_sweep_exponents(res, decades=decades)["risk"].window == (hi / 10.0**decades, hi)


@pytest.mark.parametrize("decades", [-400.0, -1.0, -5e-324, math.nan])
def test_a_negative_or_nan_fit_window_is_rejected(decades):
    res = sweep(UNIT, GridSpec(points_per_axis=8))
    message = f"fit window decades must be >= 0, got {decades}"
    with pytest.raises(DomainError, match=message):
        fit_sweep_exponents(res, decades=decades)
    with pytest.raises(DomainError, match=message):
        grid._check_fit_window(res.spec.t_axis(), decades)
    assert grid._decades_factor(0.0) == grid._decades_factor(-0.0) == 1.0


def test_sweep_work_is_cells_plus_budgets_times_cells():
    assert grid._sweep_work(GridSpec(), Constraint.free()) == 100**3 * 101
    assert grid._sweep_work(GridSpec(), Constraint.cap_b(10.0)) == 100**3 * 101  # cap ignored
    assert grid._sweep_work(GridSpec(t_points=7), Constraint.fix_alpha(0.1)) == 100**2 * 8
    spec = GridSpec(points_per_axis=5)
    assert grid._sweep_work(spec, Constraint(fixed_b=2.0, fixed_eta=1.0)) == 5 * 6


def test_sweeps_up_to_the_work_limit_are_accepted():
    at_limit = GridSpec(t_points=999)  # 10^6 cells x (1 + 999 budgets)
    assert grid._sweep_work(at_limit, Constraint.free()) == grid.MAX_SWEEP_WORK
    assert [axis.size for axis in grid._swept_axes(at_limit, Constraint.free())] == [100] * 3
    with pytest.raises(DomainError, match=r"is 1e\+09, above the limit 1e\+09"):
        grid._swept_axes(GridSpec(t_points=1000), Constraint.free())


@pytest.mark.parametrize("spec, constraint", [
    (GridSpec(points_per_axis=3000), Constraint.free()),
    (GridSpec(points_per_axis=1000), Constraint.fix_alpha(0.1)),
    (GridSpec(points_per_axis=2, t_points=10**9), Constraint.fix_b(1.0)),
])
def test_a_sweep_past_the_work_limit_is_rejected_before_any_axis(spec, constraint, monkeypatch):
    def no_axis(*args):
        raise AssertionError("an axis was built")

    monkeypatch.setattr(grid, "_log_axis", no_axis)
    with pytest.raises(DomainError, match="lower --points or --t-points$"):
        sweep(UNIT, spec, constraint)


def test_constraint_tags():
    assert Constraint.free().tag == "free"
    assert Constraint.fix_alpha(0.5).tag == "fixed-alpha"
    assert Constraint.fix_b(2.0).tag == "fixed-b"
    assert Constraint.fix_eta(0.1).tag == "fixed-eta"
    assert Constraint.cap_b(10.0).tag == "capped-b"
    assert Constraint(fixed_alpha=1.0, fixed_b=1.0).tag == "composite"
    with pytest.raises(DomainError):
        Constraint(fixed_b=2.0, b_cap=4.0)


# The twelve valid field combinations of a Constraint (fixed_b and b_cap
# exclude each other), each with its tag and the axes it leaves free.
_COMBOS = [
    ((), "free"),
    (("fixed_eta",), "fixed-eta"),
    (("fixed_alpha",), "fixed-alpha"),
    (("fixed_b",), "fixed-b"),
    (("b_cap",), "capped-b"),
    (("fixed_eta", "fixed_alpha"), "composite"),
    (("fixed_eta", "fixed_b"), "composite"),
    (("fixed_eta", "b_cap"), "composite"),
    (("fixed_alpha", "fixed_b"), "composite"),
    (("fixed_alpha", "b_cap"), "composite"),
    (("fixed_eta", "fixed_alpha", "fixed_b"), "composite"),
    (("fixed_eta", "fixed_alpha", "b_cap"), "composite"),
]
_PIN = {"fixed_eta": 0.1, "fixed_alpha": 0.5, "fixed_b": 2.0, "b_cap": 10.0}


@pytest.mark.parametrize("fields, tag", _COMBOS, ids=[t + ":" + "+".join(f) for f, t in _COMBOS])
def test_constraint_tag_of_every_field_combination(fields, tag):
    assert Constraint(**{name: _PIN[name] for name in fields}).tag == tag


@pytest.mark.parametrize("fields", [f for f, _ in _COMBOS], ids=["+".join(f) for f, _ in _COMBOS])
def test_max_log_step_is_the_widest_free_axis(fields):
    spec = GridSpec(eta_range=(1e-6, 1e2), alpha_range=(1e-4, 1.0), b_range=(1.0, 1e12),
                    points_per_axis=9)
    steps = {"fixed_eta": math.log(1e8) / 8, "fixed_alpha": math.log(1e4) / 8,
             "fixed_b": math.log(1e12) / 8}
    free = [step for name, step in steps.items() if name not in fields]
    constraint = Constraint(**{name: _PIN[name] for name in fields})
    assert spec.max_log_step(constraint) == (max(free) if free else 0.0)


def _decade(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _small_sweeps(draw):
    """(constants, spec, constraint) with at most 6 points per axis."""
    c = BoundConstants(draw(_decade(-3, 3)), draw(_decade(-3, 3)),
                       draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3])), draw(_decade(0, 1)))
    eta_lo, b_lo, t_lo = draw(_decade(-8, 0)), draw(_decade(0, 3)), draw(_decade(0, 10))
    alpha_hi = draw(_decade(-2, 0))
    spec = GridSpec(eta_range=(eta_lo, eta_lo * draw(_decade(0.5, 8))),
                    alpha_range=(alpha_hi / draw(_decade(0.3, 3)), alpha_hi),
                    b_range=(b_lo, b_lo * draw(_decade(0.5, 8))),
                    t_range=(t_lo, t_lo * draw(_decade(0, 10))),
                    points_per_axis=draw(st.integers(2, 6)), t_points=draw(st.integers(1, 6)))
    fields, _ = draw(st.sampled_from(_COMBOS))
    pins = {"fixed_eta": draw(_decade(-6, 0)), "fixed_alpha": draw(_decade(-4, 0)),
            "fixed_b": draw(_decade(0, 4)), "b_cap": b_lo * draw(_decade(0, 6))}
    return c, spec, Constraint(**{name: pins[name] for name in fields})


def _edges_by_value(spec, constraint, rec):
    """Grid-edge labels from the record's values alone, in (b, eta, alpha) order."""
    def axis(lo, hi):
        return np.logspace(math.log10(lo), math.log10(hi), spec.points_per_axis)

    b = axis(*spec.b_range)
    if constraint.b_cap is not None:
        b = b[b <= constraint.b_cap]
    feasible_b = b[b <= rec.t]
    axes = (("b", constraint.fixed_b, rec.b, feasible_b),
            ("eta", constraint.fixed_eta, rec.eta, axis(*spec.eta_range)),
            ("alpha", constraint.fixed_alpha, rec.alpha, axis(*spec.alpha_range)))
    edges = []
    for name, pinned, value, values in axes:
        if pinned is None:
            if value == values.min():
                edges.append(f"{name}-lo")
            if value == values.max():
                edges.append(f"{name}-hi")
    return tuple(edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_sweeps())
def test_edge_labels_match_the_records_values(draw):
    c, spec, constraint = draw
    try:
        result = sweep(c, spec, constraint)
    except InfeasibleError:
        return
    for rec in result.records:
        assert rec.at_edge == _edges_by_value(spec, constraint, rec), rec


def _axis(spec, attr):
    lo, hi = getattr(spec, attr)
    return np.logspace(math.log10(lo), math.log10(hi), spec.points_per_axis)


def _expected_records(b, eta, alpha_desc, u, v, t_axis, free=("b", "eta", "alpha")):
    """Per-budget (t, eta, alpha, b, risk, at_edge) from the brute-force argmin, or the NaN budget.

    ``free`` names the unpinned axes in (b, eta, alpha) order; b's last
    position is the largest batch feasible at the budget.
    """
    rows = []
    for t in t_axis:
        m = int(np.sum(b <= t))
        if m == 0:
            continue
        flat, value = first_argmin(u[:m], v[:m], t)
        if math.isnan(value):
            return rows, t
        i_b, i_e, i_a = np.unravel_index(flat, u.shape)
        # (ascending position, last position) per axis; alpha_desc runs descending
        at = {"b": (i_b, m - 1), "eta": (i_e, eta.size - 1),
              "alpha": (alpha_desc.size - 1 - i_a, alpha_desc.size - 1)}
        edges = tuple(f"{name}-{end}" for name in free
                      for end, hit in (("lo", at[name][0] == 0), ("hi", at[name][0] == at[name][1]))
                      if hit)
        rows.append((t, eta[i_e], alpha_desc[i_a], b[i_b], value, edges))
    return rows, None


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(grid.SweepRecord) if f.type in ("float", float)]


def _check_sweep(expected, nan_at, run):
    if nan_at is not None:
        with pytest.raises(NumericalError, match=f"at budget {nan_at}$"):
            run()
        return
    records = run().records
    for r in records:
        assert all(type(getattr(r, name)) is float for name in _FLOAT_FIELDS), r
    assert [(r.t, r.eta, r.alpha, r.b, r.risk, r.at_edge) for r in records] == expected


_CELL = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])


@st.composite
def _integer_cubes(draw):
    """(spec, u, v) with small-integer cells, inf cells and at most one NaN cell."""
    n = draw(st.integers(2, 5))
    u = np.array(draw(st.lists(_CELL, min_size=n**3, max_size=n**3))).reshape(n, n, n)
    v = np.array(draw(st.lists(_CELL, min_size=n**3, max_size=n**3))).reshape(n, n, n)
    nan_at = draw(st.none() | st.tuples(st.integers(0, n**3 - 1), st.booleans()))
    if nan_at is not None:
        (u if nan_at[1] else v).reshape(-1)[nan_at[0]] = math.nan
    spec = GridSpec(b_range=(1.0, 10.0 ** n), t_range=(0.5, 10.0 ** (n + 1)), points_per_axis=n,
                    t_points=draw(st.integers(2, 2 * n)))
    return spec, u, v


# prune blocks of one row, of several rows, and of the whole cube
_BLOCKS = st.sampled_from([1, 10, 30, grid._PRUNE_BLOCK])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_cubes(), _BLOCKS)
def test_pruned_sweep_matches_brute_force_on_integer_cubes(cube, block):
    spec, u, v = cube
    b, eta, alpha = (_axis(spec, attr) for attr in ("b_range", "eta_range", "alpha_range"))
    expected, nan_at = _expected_records(b, eta, alpha[::-1], u, v, spec.t_axis())

    def cube_terms(*_):
        return u, 0.0, v, 0.0

    with mock.patch.object(grid, "token_terms", cube_terms), \
            mock.patch.object(grid, "_PRUNE_BLOCK", block):
        _check_sweep(expected, nan_at, lambda: sweep(UNIT, spec))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_sweeps(), st.sampled_from(grid.OBJECTIVES), _BLOCKS)
def test_pruned_sweep_matches_brute_force_on_token_terms(draw, objective, block):
    c, spec, constraint = draw
    b, eta, alpha = (_axis(spec, attr) if pin is None else np.array([pin]) for pin, attr in (
        (constraint.fixed_b, "b_range"), (constraint.fixed_eta, "eta_range"),
        (constraint.fixed_alpha, "alpha_range")))
    if constraint.b_cap is not None:
        b = b[b <= constraint.b_cap]
    alpha_desc = alpha[::-1]
    with np.errstate(all="ignore"):
        descent, burn, floor, smooth = token_terms(
            c, eta[None, :, None], alpha_desc[None, None, :], b[:, None, None],
            objective == "bound_tokens")
        u, v = descent + burn, floor + smooth
    free = tuple(name for name, field, _ in grid._AXES if getattr(constraint, field) is None)
    expected, nan_at = _expected_records(b, eta, alpha_desc, u, v, spec.t_axis(), free)
    if not expected and nan_at is None:
        return  # no feasible budget or an empty cap: the sweep raises InfeasibleError
    with mock.patch.object(grid, "_PRUNE_BLOCK", block):
        _check_sweep(expected, nan_at, lambda: sweep(c, spec, constraint, objective))


def test_prune_keeps_a_few_percent_of_the_default_free_cube():
    spec = GridSpec()
    b, eta, alpha = (_axis(spec, attr) for attr in ("b_range", "eta_range", "alpha_range"))
    descent, burn, floor, smooth = token_terms(
        UNIT, eta[None, :, None], alpha[::-1][None, None, :], b[:, None, None], False)
    shape = (b.size, eta.size, alpha.size)
    u, v, flat, offsets = grid._prune((descent, burn), (floor, smooth), shape)
    # the first block, one b row, is pruned along its alpha lines
    assert offsets[0] == 0 and offsets[1] < 0.4 * eta.size * alpha.size
    assert offsets[-1] == flat.size < 0.03 * b.size * eta.size * alpha.size
    assert np.all(np.diff(flat) > 0)


def test_prune_keeps_nan_cells_and_prunes_past_them():
    nan, inf = math.nan, math.inf
    cells = [[(0, nan), (1, 1), (nan, 0), (5, 0)],
             [(nan, inf), (inf, nan), (inf, inf), (2, 2)],
             [(nan, inf), (inf, 5), (3, 3), (1, 1)]]
    u, v = (np.array([[[cell[k] for cell in row]] for row in cells], dtype=float)
            for k in (0, 1))
    with mock.patch.object(grid, "_PRUNE_BLOCK", 4):  # one b row per block
        ku, kv, flat, offsets = grid._prune((u, 0.0), (v, 0.0), u.shape)
    assert flat.tolist() == [0, 1, 2, 3, 4, 5, 8] and offsets.tolist() == [0, 4, 6, 7]
    np.testing.assert_array_equal(ku, u.ravel()[flat])
    np.testing.assert_array_equal(kv, v.ravel()[flat])


# 5e-324 and 1e-310 are subnormal, 1 and 1.2 share a bucket of the grid
# prune's table, and so do -1 and -1.2, which have the sign bit set like -0.0
_PRUNE_CELL = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 1.2, -1.0, -1.2, 1e300, math.inf,
                               math.nan])


@st.composite
def _prune_inputs(draw):
    """(u_terms, v_terms, shape): a small sweep's token terms, or cubes of _PRUNE_CELL."""
    if draw(st.booleans()):
        c, spec, constraint = draw(_small_sweeps())
        b, eta, alpha = (_axis(spec, attr) if pin is None else np.array([pin]) for pin, attr in (
            (constraint.fixed_b, "b_range"), (constraint.fixed_eta, "eta_range"),
            (constraint.fixed_alpha, "alpha_range")))
        with np.errstate(all="ignore"):
            descent, burn, floor, smooth = token_terms(
                c, eta[None, :, None], alpha[::-1][None, None, :], b[:, None, None],
                draw(st.booleans()))
        return (descent, burn), (floor, smooth), (b.size, eta.size, alpha.size)
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4)))
    n = math.prod(shape)
    u, v = (np.array(draw(st.lists(_PRUNE_CELL, min_size=n, max_size=n))).reshape(shape)
            for _ in range(2))
    return (u, -0.0), (v, -0.0), shape  # x + -0.0 is x, -0.0 included


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_prune_inputs(), _BLOCKS)
# a later cell (1, 1) below the staircase point (1.2, 1) in its bucket is kept
@example(((np.array([1.2, 1e300, 1.0, 1e300]).reshape(2, 1, 2), 0.0),
          (np.array([1.0, 0.0, 1.0, 0.0]).reshape(2, 1, 2), 0.0), (2, 1, 2)), 1)
def test_prune_drops_only_cells_an_earlier_cell_dominates(inputs, block):
    (u0, u1), (v0, v1), shape = inputs
    with np.errstate(all="ignore"), mock.patch.object(grid, "_PRUNE_BLOCK", block):
        ku, kv, flat, offsets = grid._prune(*inputs)
        u, v = ((np.broadcast_to(a, shape) + b).ravel() for a, b in ((u0, u1), (v0, v1)))
    rows, width = shape[0], math.prod(shape[1:])
    assert np.all(np.diff(flat) > 0)
    np.testing.assert_array_equal(ku, u[flat])
    np.testing.assert_array_equal(kv, v[flat])
    survivors_per_row = np.bincount(flat // width, minlength=rows)
    assert offsets.tolist() == [0, *np.cumsum(survivors_per_row).tolist()]
    cells = np.arange(u.size)
    blocks = cells // width // -(-block // width)
    lines = cells // shape[-1]
    for i in np.setdiff1d(cells, flat).tolist():
        assert not (math.isnan(u[i]) or math.isnan(v[i])), i
        screened_by = (blocks < blocks[i]) | ((blocks[i] == 0) & (lines == lines[i]))
        assert np.any((cells < i) & screened_by & (u <= u[i]) & (v <= v[i])), i
