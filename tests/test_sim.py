"""Optimizer laboratory: directions, polar factor, noise, runs, sweeps."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoscale import (
    BudgetTooSmallError,
    DomainError,
    LmoConfig,
    NormKind,
    ObjectiveSpec,
    dual_norm,
    integer_batch,
    lmo_direction,
    momentum_update,
    polar_factor,
    run,
    sweep_sim,
)
from lmoscale import sim
from lmoscale.cli import main
from lmoscale.sim import MAX_STEPS, _noise_factory, _Objective
from oracles import reference_group, reference_sweep

QUAD = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=1.0, spectrum=(0.1, 0.5, 1.0))


def random_unit_candidates(rng, norm, n, shape):
    """Random points on the unit sphere of the given norm."""
    if norm is NormKind.EUCLIDEAN:
        x = rng.standard_normal((n,) + shape)
        return x / np.linalg.norm(x.reshape(n, -1), axis=1).reshape((n,) + (1,) * len(shape))
    if norm is NormKind.MAX:
        x = rng.uniform(-1.0, 1.0, (n,) + shape)
        peak = np.max(np.abs(x.reshape(n, -1)), axis=1).reshape((n,) + (1,) * len(shape))
        return x / peak
    x = rng.standard_normal((n,) + shape)
    tops = np.linalg.svd(x, compute_uv=False)[:, 0]
    return x / tops.reshape(n, 1, 1)


class TestDirections:
    def test_sign_example(self):
        m = np.array([2.0, -3.0, 0.0])
        d = lmo_direction(m, NormKind.MAX)
        assert np.array_equal(d, [-1.0, 1.0, 0.0])
        assert np.vdot(m, d) == -5.0 == -dual_norm(m, NormKind.MAX)

    def test_normalized_example(self):
        d = lmo_direction(np.array([3.0, 4.0]), NormKind.EUCLIDEAN)
        assert np.allclose(d, [-0.6, -0.8])
        assert np.vdot([3.0, 4.0], d) == pytest.approx(-5.0, rel=1e-15)

    def test_orthogonalized_diagonal_example(self):
        m = np.diag([2.0, 1.0])
        d = lmo_direction(m, NormKind.SPECTRAL)
        assert np.allclose(d, -np.eye(2), atol=1e-12)
        assert np.vdot(m, d) == pytest.approx(-3.0, rel=1e-12)

    def test_zero_buffer_maps_to_zero(self):
        for norm in NormKind:
            shape = (4, 4) if norm is NormKind.SPECTRAL else (5,)
            assert not lmo_direction(np.zeros(shape), norm).any()

    @pytest.mark.parametrize("norm", list(NormKind))
    def test_dual_norm_identity(self, norm):
        rng = np.random.default_rng(17)
        for _ in range(300):
            if norm is NormKind.SPECTRAL:
                m = rng.standard_normal((rng.integers(2, 13), rng.integers(2, 13)))
            else:
                m = rng.standard_normal(rng.integers(2, 40))
            d = lmo_direction(m, norm)
            ref = dual_norm(m, norm)
            assert abs(np.vdot(m, d) + ref) <= 1e-8 * ref

    @pytest.mark.parametrize("norm", list(NormKind))
    def test_beats_random_unit_competitors(self, norm):
        rng = np.random.default_rng(18)
        shape = (6, 6) if norm is NormKind.SPECTRAL else (24,)
        candidates = random_unit_candidates(rng, norm, 200, shape)
        for _ in range(100):
            m = rng.standard_normal(shape)
            best = np.vdot(m, lmo_direction(m, norm))
            inner = np.tensordot(candidates, m, axes=len(shape))
            assert np.all(best <= inner + 1e-10)


class TestPolarFactor:
    def test_matches_exact_decomposition_well_conditioned(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n, p = rng.integers(2, 33), rng.integers(2, 33)
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((p, p)))
            k = min(n, p)
            s = rng.uniform(0.5, 1.0, k)
            m = (u[:, :k] * s) @ v[:k, :]
            exact = u[:, :k] @ v[:k, :]
            assert np.linalg.norm(polar_factor(m) - exact, 2) < 1e-9

    def test_matches_exact_decomposition_ill_conditioned(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = rng.integers(3, 33)
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.geomspace(1.0, 10.0 ** -rng.uniform(4, 10), n)
            m = (u * s) @ v
            exact = u @ v
            assert np.linalg.norm(polar_factor(m) - exact, 2) < 1e-6

    def test_gaussian_matrices(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            m = rng.standard_normal((rng.integers(2, 33), rng.integers(2, 33)))
            u, _, vt = np.linalg.svd(m, full_matrices=False)
            worst = max(worst, np.linalg.norm(polar_factor(m) - u @ vt, 2))
        assert worst < 1e-6

    def test_rectangular_isometry(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((12, 5))
        pf = polar_factor(m)
        assert np.allclose(pf.T @ pf, np.eye(5), atol=1e-9)
        m = rng.standard_normal((4, 9))
        pf = polar_factor(m)
        assert np.allclose(pf @ pf.T, np.eye(4), atol=1e-9)

    def test_vector_input_rejected(self):
        with pytest.raises(DomainError):
            polar_factor(np.ones(4))

    def test_zero_and_non_finite_slices(self):
        stack = np.stack([np.zeros((3, 2)), np.eye(3, 2), np.full((3, 2), np.inf)])
        pf = polar_factor(stack)
        assert not pf[0].any()
        assert np.array_equal(pf[1], np.eye(3, 2))
        assert np.isnan(pf[2]).all()


@st.composite
def matrix_stacks(draw):
    """Stacks of wide, tall or square matrices, some rank-deficient or zero."""
    count = draw(st.integers(1, 5))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.standard_normal((count, rows, cols))
    for i in range(count):
        kind = draw(st.sampled_from(("full", "low-rank", "zero")))
        if kind == "low-rank":
            rank = draw(st.integers(1, min(rows, cols)))
            stack[i] = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        elif kind == "zero":
            stack[i] = 0.0
    return stack


class TestBatchedOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(matrix_stacks())
    def test_stack_matches_slices_and_lmo_identities(self, stack):
        pf = polar_factor(stack)
        rows, cols = stack.shape[1:]
        eye = np.eye(min(rows, cols))
        for m, d_stack in zip(stack, -pf):
            assert np.allclose(d_stack, -polar_factor(m), rtol=0.0, atol=1e-12)
            d = lmo_direction(m, NormKind.SPECTRAL)
            ref = dual_norm(m, NormKind.SPECTRAL)
            assert abs(np.vdot(m, d) + ref) <= 1e-10 * max(ref, 1.0)
            if not m.any():
                assert not d.any()
                continue
            gram = d.T @ d if rows >= cols else d @ d.T
            assert np.allclose(gram, eye, rtol=0.0, atol=1e-10)


class TestMomentum:
    def test_contraction_on_frozen_gradient(self):
        # with the iterate (hence the gradient) frozen, the buffer error
        # contracts by exactly (1 - alpha) per step
        rng = np.random.default_rng(23)
        g = rng.standard_normal(8)
        alpha = 0.125
        start = rng.standard_normal(8)
        m, err0 = start.copy(), np.linalg.norm(start - g)
        for k in range(1, 12):
            m = momentum_update(m, g, alpha)
            err = np.linalg.norm(m - g)
            assert err == pytest.approx(err0 * (1.0 - alpha) ** k, rel=1e-12)

    def test_memoryless_when_alpha_is_one(self):
        rng = np.random.default_rng(24)
        m, g = rng.standard_normal(5), rng.standard_normal(5)
        assert np.array_equal(momentum_update(m, g, 1.0), g)


class TestNoise:
    def test_gaussian_minibatch_variance_calibration(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.7, spectrum=(1.0, 2.0))
        for batch in (1, 16):
            draw = _noise_factory(spec, batch)
            gen = np.random.default_rng(123)
            samples = draw(gen, (100_000, 2))
            target = spec.noise_sigma**2 / batch
            for var in samples.var(axis=0):
                assert var == pytest.approx(target, rel=0.02)

    def test_matched_init_scale_shrinks_with_batch(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=1.0, spectrum=(1.0,) * 16)
        gen = np.random.default_rng(7)
        small = _noise_factory(spec, 4)(gen, (4000, 16))
        gen = np.random.default_rng(7)
        large = _noise_factory(spec, 16)(gen, (4000, 16))
        ratio = np.linalg.norm(small, axis=1).mean() / np.linalg.norm(large, axis=1).mean()
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_zero_noise_means_no_noise(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.0, spectrum=(1.0,))
        assert _noise_factory(spec, 3) is None

    def test_draws_are_split_invariant(self):
        # the lockstep loop cuts each stream into chunks at its own points
        draw = _noise_factory(LOCKSTEP_SPECS["gaussian"], 4)
        whole = draw(np.random.default_rng(5), (7 + 4, 3, 5))
        gen = np.random.default_rng(5)
        parts = [draw(gen, (7, 3, 5)), draw(gen, (4, 3, 5), out=np.empty((4, 3, 5)))]
        assert np.array_equal(whole, np.concatenate(parts))


class TestObjectives:
    def test_quadratic_constants(self):
        obj = _Objective(ObjectiveSpec(kind="noisy-quadratic", spectrum=(0.1, 0.5, 1.0)))
        assert obj.value(obj.x0) == pytest.approx(0.5 * (0.1 + 0.5 + 1.0), rel=1e-15)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(obj.grad(x), [0.1, 1.0, 3.0])

    def test_matrix_least_squares_has_zero_residual_minimum(self):
        obj = _Objective(ObjectiveSpec(kind="matrix-least-squares", dims=(6, 3)))
        x_star = np.linalg.lstsq(obj.a, obj.y, rcond=None)[0]
        assert obj.value(x_star) < 1e-20
        assert obj.value(obj.x0) > 0
        assert np.allclose(obj.grad(x_star), 0.0, atol=1e-10)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ObjectiveSpec(kind="noisy-quadratic")
        with pytest.raises(DomainError):
            ObjectiveSpec(kind="noisy-quadratic", spectrum=(0.0, 1.0))
        with pytest.raises(DomainError):
            ObjectiveSpec(kind="matrix-least-squares")
        with pytest.raises(DomainError):
            ObjectiveSpec(kind="banana", spectrum=(1.0,))

    def test_max_norm_runs_on_matrix_data_take_no_svd(self, monkeypatch):
        # sign directions and l1 dual norms need no SVD, and neither does the objective
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: pytest.fail("an SVD was taken"))
        spec = ObjectiveSpec(kind="matrix-least-squares", noise_sigma=0.5, dims=(40, 3))
        res = sweep_sim(spec, NormKind.MAX, (0.01,), (0.5,), (2,), (16.0,), replicates=2, seed=0)
        assert math.isfinite(res.points[0].metric)
        r = run(spec, LmoConfig(NormKind.MAX, 0.01, 0.5, 2, 8, 0))
        assert not r.aborted and math.isfinite(r.final_value)


class TestRuns:
    def test_bit_identical_given_seed(self):
        cfg = LmoConfig(norm=NormKind.MAX, eta=0.01, alpha=0.2, batch=4, steps=300, seed=42)
        a, b = run(QUAD, cfg), run(QUAD, cfg)
        assert np.array_equal(a.grad_norms, b.grad_norms)
        assert a.min_grad_norm == b.min_grad_norm
        assert a.final_value == b.final_value

    def test_running_minimum_is_non_increasing(self):
        cfg = LmoConfig(norm=NormKind.EUCLIDEAN, eta=0.05, alpha=1.0, batch=2, steps=500, seed=3)
        r = run(QUAD, cfg)
        assert np.all(np.diff(r.running_min) <= 0)
        assert r.min_grad_norm == r.running_min[-1]

    def test_memoryless_first_step_matches_hand_computation(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.0, spectrum=(0.25, 1.0))
        cfg = LmoConfig(norm=NormKind.MAX, eta=0.125, alpha=1.0, batch=1, steps=1, seed=0)
        r = run(spec, cfg)
        # x0 = (1, 1), gradient (0.25, 1), sign step moves both down by eta
        x1 = np.array([1.0 - 0.125, 1.0 - 0.125])
        assert r.grad_norms[0] == pytest.approx(0.25 * x1[0] + 1.0 * x1[1], rel=1e-14)

    def test_noiseless_normalized_descent_reaches_step_size_floor(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.0,
                             spectrum=tuple(np.geomspace(0.2, 1.0, 8)))
        eta = 1e-3
        cfg = LmoConfig(norm=NormKind.EUCLIDEAN, eta=eta, alpha=1.0, batch=1,
                        steps=4000, seed=0, init="zero")
        r = run(spec, cfg)
        floor = np.argmax(r.grad_norms < 2.0 * eta)
        assert floor > 100  # long monotone approach before the floor
        assert np.all(np.diff(r.grad_norms[: floor - 1]) < 0)
        assert np.all(r.grad_norms[floor:] < 20.0 * eta)
        assert r.min_grad_norm < 2.0 * eta

    def test_matched_init_equals_explicit_gradient_when_noiseless(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.0, spectrum=(0.25, 1.0))
        base = dict(norm=NormKind.MAX, eta=0.125, alpha=0.5, batch=1, steps=1, seed=0,
                    update="sgd")
        # x0 = (1, 1) and g0 = (0.25, 1): matched init starts at m0 = g0, so
        # m1 = 0.5 m0 + 0.5 g0 = g0; zero init gives m1 = 0.5 g0
        for init, m1 in (("matched", [0.25, 1.0]), ("zero", [0.125, 0.5])):
            r = run(spec, LmoConfig(**base, init=init))
            x1 = 1.0 - 0.125 * np.array(m1)
            assert r.grad_norms[0] == 0.25 * x1[0] + 1.0 * x1[1]

    def test_divergent_plain_gradient_run_is_flagged(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.0, spectrum=(1.0,))
        cfg = LmoConfig(norm=NormKind.EUCLIDEAN, eta=1e8, alpha=1.0, batch=1,
                        steps=4000, seed=0, update="sgd")
        r = run(spec, cfg)
        assert r.aborted

    def test_spectral_run_on_matrix_objective(self):
        spec = ObjectiveSpec(kind="matrix-least-squares", noise_sigma=0.1, dims=(5, 4))
        cfg = LmoConfig(norm=NormKind.SPECTRAL, eta=0.02, alpha=0.3, batch=8, steps=60, seed=9)
        r = run(spec, cfg)
        assert np.isfinite(r.grad_norms).all()
        assert r.min_grad_norm < r.grad_norms[0]

    @pytest.mark.parametrize("update, eta", [("sgd", 1e6), ("lmo", 1e308)])
    def test_diverged_spectral_run_is_aborted(self, update, eta):
        spec = ObjectiveSpec(kind="matrix-least-squares", noise_sigma=1.0, dims=(8, 8))
        cfg = LmoConfig(norm=NormKind.SPECTRAL, eta=eta, alpha=1.0, batch=8, steps=100,
                        seed=0, update=update)
        assert run(spec, cfg).aborted

    def test_diverged_spectral_cli_run_exits_cleanly(self, capsys):
        code = main(["simulate", "--kind", "matrix-least-squares", "--norm", "spectral",
                     "--update", "sgd", "--eta", "1e6", "--alpha", "1", "--b", "8",
                     "--t", "800", "--replicates", "1"])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("update", ["lmo", "sgd"])
    def test_spectral_norm_needs_matrix_variable(self, update, capsys):
        with pytest.raises(DomainError, match="matrix variable"):
            sweep_sim(QUAD, NormKind.SPECTRAL, (0.01,), (1.0,), (8,), (800.0,),
                      replicates=2, seed=0, update=update)
        code = main(["simulate", "--norm", "spectral", "--update", update, "--dim", "5",
                     "--eta", "0.01", "--alpha", "1", "--b", "8", "--t", "800",
                     "--replicates", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert '"exit_code": 2' in captured.err

    def test_config_validation(self):
        with pytest.raises(DomainError):
            LmoConfig(norm=NormKind.MAX, eta=0.1, alpha=0.5, batch=1.5, steps=10, seed=0)

    def test_integer_batch_rounding(self):
        assert integer_batch(0.2) == 1
        assert integer_batch(3535.53) == 3536
        assert integer_batch(2.5) == 2  # banker's rounding, documented behavior


class TestSweep:
    def test_deterministic_and_ordered(self):
        grids = dict(eta_grid=(0.003, 0.01, 0.03), alpha_grid=(0.5,), b_grid=(2, 8),
                     t_grid=(400.0, 6400.0), replicates=3, seed=11)
        a = sweep_sim(QUAD, NormKind.MAX, **grids)
        b = sweep_sim(QUAD, NormKind.MAX, **grids)
        assert a == b
        assert [p.t for p in a.best] == [400.0, 6400.0]
        assert len(a.points) == 3 * 2 * 2
        for p in a.points:
            assert p.steps == max(1, round(p.t / p.b))

    def test_batches_above_the_budget_are_skipped(self, capsys):
        res = sweep_sim(QUAD, NormKind.MAX, (0.01,), (1.0,), (8, 64), (40.0, 640.0),
                        replicates=1, seed=0)
        assert [(p.t, p.b, p.steps) for p in res.points] == [
            (40.0, 8, 5), (640.0, 8, 80), (640.0, 64, 10)
        ]
        with pytest.raises(BudgetTooSmallError):
            sweep_sim(QUAD, NormKind.MAX, (0.01,), (1.0,), (64,), (10.0, 640.0),
                      replicates=1, seed=0)
        code = main(["simulate", "--b", "64", "--t", "10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert json.loads(captured.err)["exit_code"] == 3

    @pytest.mark.parametrize(
        "grids, modes, named",
        [
            (((0.0,), (0.5,)), {}, "eta must be finite and > 0, got 0.0"),
            (((-0.01, 0.1), (0.5,)), {}, "eta must be finite and > 0, got -0.01"),
            (((float("inf"),), (0.5,)), {}, "eta must be finite and > 0, got inf"),
            (((0.1,), (0.0,)), {}, "alpha must be in (0, 1], got 0.0"),
            (((0.1,), (0.5, 2.0)), {}, "alpha must be in (0, 1], got 2.0"),
            (((0.1,), (0.5,)), {"update": "bogus"}, "update must be one of"),
            (((0.1,), (0.5,)), {"init": "custom"}, "init must be one of ('matched', 'zero')"),
        ],
    )
    def test_settings_a_run_cannot_take_are_rejected(self, grids, modes, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            sweep_sim(QUAD, NormKind.MAX, *grids, (8,), (64.0,), replicates=1, seed=0, **modes)

    def test_run_config_shares_the_sweep_checks(self):
        for bad, named in (({"eta": float("inf")}, "eta must be finite"),
                           ({"alpha": 1.5}, "alpha must be in (0, 1]"),
                           ({"update": "bogus"}, "update must be one of"),
                           ({"init": "nope"}, "init must be one of"),
                           ({"init": "custom"}, "init must be one of ('matched', 'zero')")):
            base = dict(norm=NormKind.MAX, eta=0.1, alpha=0.5, batch=1, steps=10, seed=0)
            with pytest.raises(DomainError, match=re.escape(named)):
                LmoConfig(**{**base, **bad})

    @pytest.mark.parametrize("option, value", [("alpha", "0"), ("alpha", "2"), ("eta", "0"),
                                               ("eta", "-0.01")])
    def test_cli_rejects_settings_a_run_cannot_take(self, capsys, option, value):
        code = main(["simulate", "--dim", "2", "--b", "4", "--t", "64", "--replicates", "1",
                     f"--{option}", value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["exit_code"] == 2 and doc["error"].startswith(option)

    @pytest.mark.parametrize("name, value", [
        ("eta_grid", ()), ("alpha_grid", ()), ("b_grid", ()), ("t_grid", ()),
        ("b_grid", (8.0, float("nan"))), ("b_grid", (float("inf"),)),
        ("t_grid", (float("nan"),)), ("t_grid", (64.0, float("inf"))),
    ])
    def test_empty_and_non_finite_grids_are_rejected_before_any_step(self, monkeypatch, name,
                                                                     value):
        def no_step(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(sim, "_run_batch", no_step)
        grids = dict(eta_grid=(0.01,), alpha_grid=(1.0,), b_grid=(8,), t_grid=(64.0,))
        named = f"{name} must be finite, got {list(value)}" if value else f"{name} must not be empty"
        with pytest.raises(DomainError, match=re.escape(named)):
            sweep_sim(QUAD, NormKind.MAX, **{**grids, name: value}, replicates=1, seed=0)

    def test_runs_beyond_the_step_limit_are_rejected_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(sim, "_run_batch", no_step)
        t = float((MAX_STEPS + 1) * 4)
        with pytest.raises(DomainError, match=rf"t={t} at b=4 means 10000001 steps") as info:
            sweep_sim(QUAD, NormKind.MAX, (0.01,), (1.0,), (4, 8), (40.0, t),
                      replicates=1, seed=0)
        assert str(MAX_STEPS) in str(info.value)

    @pytest.mark.parametrize("t, replicates, message", [
        (1e4 + 1, 10**5, "sweep work, steps x step sizes x replicates x variable size summed "
                         "over runs, is 1.0001e+10, above the limit 1e+10; lower --t"),
        (1.0, 10**5 + 1, "sweep state, runs x step sizes x replicates x variable size, is "
                         "1.00001e+06 elements, above the limit 1e+06; lower --replicates"),
        (1e4, 10**5 + 1, "sweep work"),  # both over: work is checked first
        (1e8, 100, "t=100000000.0 at b=1 means 100000000 steps per run"),  # and steps before it
    ])
    def test_sweeps_past_the_work_or_state_limit_are_rejected_before_any_array(
            self, monkeypatch, t, replicates, message):
        def nothing_built(*args):
            raise AssertionError("an objective or a state array was built")

        monkeypatch.setattr(sim, "_Objective", nothing_built)
        monkeypatch.setattr(sim, "_run_batch", nothing_built)
        spec = ObjectiveSpec(spectrum=(1.0,) * 10)
        with pytest.raises(DomainError, match=re.escape(message)):
            sweep_sim(spec, NormKind.MAX, (0.01,), (1.0,), (1,), (t,), replicates=replicates,
                      seed=0)

    def test_least_squares_work_counts_the_products_per_row(self, monkeypatch):
        def nothing_built(*args):
            raise AssertionError("an objective or a state array was built")

        monkeypatch.setattr(sim, "_Objective", nothing_built)
        monkeypatch.setattr(sim, "_run_batch", nothing_built)
        # 1.4e5 steps x 7e4 elements is 9.8e9 element-steps, each counted 1 + 700 / 25 times
        spec = ObjectiveSpec(kind="matrix-least-squares", dims=(700, 100))
        with pytest.raises(DomainError, match=r"is 2\.842e\+11, above the limit 1e\+10; .* "
                                              r"counts as 1 \+ rows / 25$"):
            sweep_sim(spec, NormKind.MAX, (0.01,), (1.0,), (1,), (1.4e5,), replicates=1, seed=0)
        # a noisy quadratic of the same size is below the limit
        plan = sim._sweep_plan(70000, (0.01,), (1.0,), (1,), (1.4e5,), 1, 0, "lmo", "matched")
        assert plan[-1] == [140000]

    def test_a_sweep_at_both_limits_is_accepted(self):
        # 10^4 steps x 1 step size x 10^5 replicates x 10 variables, in one run
        assert 10**4 * 10**5 * 10 == sim.MAX_WORK and 10**5 * 10 == sim.MAX_STATE
        plan = sim._sweep_plan(10, (0.01,), (1.0,), (1,), (1e4,), 10**5, 0, "lmo", "matched")
        assert plan[-1] == [10**4]

    def test_a_diverged_run_keeps_the_least_norm_it_reached(self):
        quad = ObjectiveSpec(spectrum=(1.0,))  # noiseless 0.5 x^2 from x = 1
        res = sweep_sim(quad, NormKind.MAX, (1e8,), (1.0,), (1,), (4000.0,), replicates=2,
                        seed=0, update="sgd")
        # the first step lands at 1 - 1e8; later ones overflow and abort the run
        assert res.points[0].metric == 99999999.0
        assert run(quad, LmoConfig(NormKind.MAX, 1e8, 1.0, 1, 4000, 0, update="sgd")).aborted
        # here even the first step overflows, so no norm was ever finite
        lsq = ObjectiveSpec(kind="matrix-least-squares", dims=(3, 3))
        res = sweep_sim(lsq, NormKind.SPECTRAL, (1e308,), (1.0,), (1,), (4.0,), replicates=2,
                        seed=0)
        assert res.points[0].metric == math.inf

    def test_best_has_lowest_metric_per_budget(self):
        res = sweep_sim(QUAD, NormKind.EUCLIDEAN, (0.01, 0.05), (1.0,), (1, 4),
                        (1000.0,), replicates=2, seed=1)
        best = res.best[0]
        assert best.metric == min(p.metric for p in res.points)


QUAD5 = dict(kind="noisy-quadratic", spectrum=(0.1, 0.3, 0.5, 0.8, 1.0))
LOCKSTEP_SPECS = {
    "gaussian": ObjectiveSpec(noise_sigma=1.0, **QUAD5),
    "zero-noise": ObjectiveSpec(noise_sigma=0.0, **QUAD5),
    "matrix": ObjectiveSpec(kind="matrix-least-squares", noise_sigma=0.5, dims=(4, 3)),
}


class TestLockstep:
    """The lockstep sweep against the per-group reference loop in tests/oracles.py."""

    @pytest.mark.parametrize("init", ["matched", "zero"])
    @pytest.mark.parametrize("update", ["lmo", "sgd"])
    @pytest.mark.parametrize("norm, noise", [
        (NormKind.MAX, "gaussian"), (NormKind.MAX, "zero-noise"),
        (NormKind.EUCLIDEAN, "gaussian"), (NormKind.EUCLIDEAN, "zero-noise"),
        (NormKind.SPECTRAL, "matrix"),
    ])
    def test_sweep_equals_per_group_reference(self, monkeypatch, norm, noise, update, init):
        spec = LOCKSTEP_SPECS[noise]
        # the largest step size diverges: a normalized step only at the float limit
        wild = 1e6 if update == "sgd" else 1e308
        # ragged steps: 2-3 batches x 2 budgets x 2-3 momenta, a batch above a budget
        if norm is NormKind.SPECTRAL:
            grids = ((0.01, 0.05, wild), (0.3, 1.0), (4, 16), (64.0, 320.0))
        else:
            grids = ((0.003, 0.03, wild), (0.1, 0.5, 1.0), (2, 8, 80), (60.0, 600.0))
        calls, inner = [], sim._run_batch
        monkeypatch.setattr(sim, "_run_batch",
                            lambda *args, **kw: calls.append(inner(*args, **kw)) or calls[-1])
        res = sweep_sim(spec, norm, *grids, replicates=2, seed=3, update=update, init=init)
        ref = reference_sweep(spec, norm, *grids, replicates=2, seed=3, update=update,
                              init=init)
        assert len(calls) == 1
        best, _, x = calls[0]
        assert len(best) == len(ref)
        assert [(p.t, p.b, p.alpha, p.steps) for p in res.points] == [
            (t, b, alpha, steps) for t, b, alpha, steps, *_ in ref for _ in grids[0]
        ]
        metrics = np.array([p.metric for p in res.points])
        assert np.array_equal(metrics, np.concatenate([g[4].mean(axis=1) for g in ref]))
        for j, (*_, ref_best, _, ref_x) in enumerate(ref):
            assert np.array_equal(best[j], ref_best)
            assert np.array_equal(x[j], ref_x, equal_nan=True)
        # aborted runs sit next to healthy ones
        aborted = np.array([g[5] for g in ref])
        assert aborted[:, -1].any() and not aborted[:, 0].any()

    @pytest.mark.parametrize("norm", [NormKind.MAX, NormKind.EUCLIDEAN])
    def test_short_chunks_keep_every_stream(self, monkeypatch, norm):
        # 12 groups x 2 replicates x 5 coordinates: chunks of 5 steps, so each
        # generator's draws split at other points than in the reference
        monkeypatch.setattr(sim, "_NOISE_VALUES", 600)
        spec = LOCKSTEP_SPECS["gaussian"]
        grids = ((0.01, 0.1), (0.2, 1.0), (2, 8, 32), (64.0, 416.0))
        res = sweep_sim(spec, norm, *grids, replicates=2, seed=8)
        ref = reference_sweep(spec, norm, *grids, replicates=2, seed=8)
        metrics = np.array([p.metric for p in res.points])
        assert np.array_equal(metrics, np.concatenate([g[4].mean(axis=1) for g in ref]))

    @pytest.mark.parametrize("chunk", [1, 7, 50, 512])
    def test_each_generator_draws_once_per_chunk(self, monkeypatch, chunk):
        # 3 budgets x 2 batches x 2 momenta end at 8 to 500 steps: chunks of 7
        # straddle every segment end, chunks of 50 meet some, one chunk of 512 holds all
        spec = LOCKSTEP_SPECS["gaussian"]
        grids = ((0.01, 0.1), (0.2, 1.0), (2, 8), (64.0, 400.0, 1000.0))
        monkeypatch.setattr(sim, "_NOISE_VALUES", chunk * 12 * 2 * len(spec.spectrum))
        drawn: dict[np.random.Generator, list[int]] = {}  # steps per draw call
        inner = sim._noise_factory

        def counting(spec, batch):
            draw = inner(spec, batch)

            def counted(gen, shape, out=None):
                drawn.setdefault(gen, []).append(shape[0] if len(shape) == 2 else 0)
                return draw(gen, shape, out=out)

            return counted

        monkeypatch.setattr(sim, "_noise_factory", counting)
        calls, run_batch = [], sim._run_batch
        monkeypatch.setattr(sim, "_run_batch",
                            lambda *args, **kw: calls.append(run_batch(*args, **kw)) or calls[-1])
        res = sweep_sim(spec, NormKind.MAX, *grids, replicates=2, seed=4)
        steps = [round(t / b) for t in grids[3] for b in grids[2] for _ in grids[1]]
        assert sorted(sum(n) for n in drawn.values()) == sorted(steps * 2)
        for n in drawn.values():  # the matched init, then one draw per chunk
            assert n[0] == 0 and len(n) == 1 + math.ceil(sum(n) / chunk)
        monkeypatch.setattr(sim, "_noise_factory", inner)
        ref = reference_sweep(spec, NormKind.MAX, *grids, replicates=2, seed=4)
        metrics = np.array([p.metric for p in res.points])
        assert np.array_equal(metrics, np.concatenate([g[4].mean(axis=1) for g in ref]))
        best, _, x = calls[0]
        for j, (*_, ref_best, _, ref_x) in enumerate(ref):
            assert np.array_equal(best[j], ref_best) and np.array_equal(x[j], ref_x)

    # each diverging run ends after its first inf dual norm but before its
    # iterate turns NaN (sgd: steps 21-42, spectral: 1-5), so the final
    # values are inf and compare equal
    @pytest.mark.parametrize("objective, norm, update, eta, steps", [
        pytest.param("gaussian", NormKind.EUCLIDEAN, "lmo", 0.02, 700, id="lmo"),
        pytest.param("gaussian", NormKind.EUCLIDEAN, "sgd", 0.02, 700, id="sgd"),
        pytest.param("gaussian", NormKind.EUCLIDEAN, "sgd", 1e8, 32, id="sgd-diverged"),
        pytest.param("matrix", NormKind.SPECTRAL, "lmo", 1e308, 3, id="spectral-diverged"),
    ])
    def test_run_trace_and_final_value_match_reference(self, objective, norm, update, eta,
                                                       steps):
        spec = LOCKSTEP_SPECS[objective]
        cfg = LmoConfig(norm=norm, eta=eta, alpha=0.3, batch=4, steps=steps,
                        seed=12, update=update)
        r = run(spec, cfg)
        obj = _Objective(spec)
        best, aborted, trace, x = reference_group(
            obj, cfg.norm, update, [cfg.eta], cfg.alpha, cfg.batch, cfg.steps,
            [np.random.SeedSequence(cfg.seed)], cfg.init, record=True)
        assert np.array_equal(r.grad_norms, trace)
        assert r.final_value == obj.value(x[0, 0])
        assert r.min_grad_norm == best[0, 0] and r.aborted == aborted[0, 0]

    def test_best_breaks_ties_across_batches_and_momenta(self):
        # noiseless sign descent with eta 1.5 on 0.5 x^2 from x = 1 walks the
        # lattice 1 - 1.5 k, so every run's minimum gradient is exactly 0.5
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.0, spectrum=(1.0,))
        res = sweep_sim(spec, NormKind.MAX, (1.5,), (0.1, 0.5, 1.0), (2, 4, 8), (16.0, 64.0),
                        replicates=2, seed=0)
        assert {p.metric for p in res.points} == {0.5}
        assert [(p.t, p.b, p.alpha) for p in res.best] == [(16.0, 2, 1.0), (64.0, 2, 1.0)]
        for t, best in zip((16.0, 64.0), res.best):
            at_t = [p for p in res.points if p.t == t]
            assert best == min(at_t, key=lambda p: (p.metric, p.b, p.eta, -p.alpha))

    def test_lockstep_peak_memory_stays_under_one_reference_group(self):
        spec = ObjectiveSpec(kind="noisy-quadratic", noise_sigma=1.0,
                             spectrum=tuple(np.geomspace(0.05, 1.0, 80)))
        etas, seqs = (0.001, 0.01), np.random.SeedSequence(0).spawn(32)
        tracemalloc.start()
        try:
            reference_group(_Objective(spec), NormKind.MAX, "lmo", etas, 0.1, 8, 512, seqs,
                            "matched")
            _, group_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            res = sweep_sim(spec, NormKind.MAX, etas, (0.03, 0.1, 1.0), (8, 16, 32),
                            (2048.0, 4096.0), replicates=32, seed=0)
            _, sweep_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len({(p.t, p.b, p.alpha) for p in res.points}) == 18
        assert sweep_peak <= group_peak
