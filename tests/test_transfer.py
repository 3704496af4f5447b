"""Budget-transfer rules: exact factors, composition, closed-form consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmoscale import (
    BatchChangeSetting,
    BoundConstants,
    Budget,
    DomainError,
    NumericalError,
    TransferRegime,
    TunedConfig,
    TunedLaw,
    extrapolate,
    extrapolate_with_batch_change,
    optimal_fixed_batch,
    optimal_fixed_momentum_tokens,
    optimal_joint,
    rate_exponents,
)
from lmoscale.transfer import REGIME_SCHEDULES

UNIT = BoundConstants.from_proxy_constants()
ONES = BoundConstants(1.0, 1.0, 1.0)


def test_regime_a_hundredfold_budget():
    cfg = TunedConfig(t0=1.0, b0=1.0, eta0=1.0, alpha0=1.0)
    res = extrapolate(cfg, 100.0, TransferRegime.FIXED_BATCH_FIXED_MOMENTUM)
    assert res.eta1 == 0.1  # exact, not approximate
    assert res.alpha1 == 1.0 and res.b1 == 1.0
    assert res.flags == ()


def test_identity_transfer():
    cfg = TunedConfig(t0=5e6, b0=17.0, eta0=3e-3, alpha0=0.25)
    for regime in TransferRegime:
        res = extrapolate(cfg, 5e6, regime)
        assert (res.eta1, res.alpha1, res.b1) == (3e-3, 0.25, 17.0)


def test_regime_b_sixteenfold():
    cfg = TunedConfig(t0=1.0, b0=1.0, eta0=8e-3, alpha0=0.04)
    res = extrapolate(cfg, 16.0, TransferRegime.FIXED_BATCH_TUNED_MOMENTUM)
    assert res.eta1 == pytest.approx(1e-3, rel=1e-15)
    assert res.alpha1 == pytest.approx(0.01, rel=1e-15)


def test_regime_fields_left_untouched():
    cfg = TunedConfig(t0=10.0, b0=7.0, eta0=0.1, alpha0=0.3)
    a = extrapolate(cfg, 1000.0, TransferRegime.FIXED_BATCH_FIXED_MOMENTUM)
    assert a.b1 == 7.0 and a.alpha1 == 0.3
    c = extrapolate(cfg, 1000.0, TransferRegime.TUNED_BATCH_FIXED_MOMENTUM)
    assert c.alpha1 == 0.3 and c.b1 == 70.0


def test_composition_is_exact():
    rng = np.random.default_rng(21)
    for regime in TransferRegime:
        for _ in range(60):
            t0 = 10.0 ** rng.uniform(2, 8)
            t1 = t0 * 10.0 ** rng.uniform(0, 6)
            t2 = t1 * 10.0 ** rng.uniform(0, 6)
            cfg = TunedConfig(
                t0=t0,
                b0=10.0 ** rng.uniform(0, 4),
                eta0=10.0 ** rng.uniform(-6, 0),
                alpha0=10.0 ** rng.uniform(-4, 0),
            )
            mid = extrapolate(cfg, t1, regime)
            two_hop = extrapolate(
                TunedConfig(t0=t1, b0=mid.b1, eta0=mid.eta1, alpha0=mid.alpha1),
                t2,
                regime,
            )
            one_hop = extrapolate(cfg, t2, regime)
            assert two_hop.eta1 == pytest.approx(one_hop.eta1, rel=1e-12)
            assert two_hop.alpha1 == pytest.approx(one_hop.alpha1, rel=1e-12)
            assert two_hop.b1 == pytest.approx(one_hop.b1, rel=1e-12)


def test_regime_a_tracks_fixed_batch_optimum():
    t0, t1, b = 1e10, 1e14, 64.0
    start = optimal_fixed_momentum_tokens(UNIT, 0.3, t0, b=b)
    res = extrapolate(
        TunedConfig(t0=t0, b0=b, eta0=start.eta_star, alpha0=0.3),
        t1,
        TransferRegime.FIXED_BATCH_FIXED_MOMENTUM,
    )
    target = optimal_fixed_momentum_tokens(UNIT, 0.3, t1, b=b)
    assert res.eta1 == pytest.approx(target.eta_star, rel=1e-10)


def test_regime_b_tracks_fixed_batch_momentum_optimum():
    t0, t1, b = 1e10, 1e15, 1072.0
    start = optimal_fixed_batch(UNIT, b, Budget.tokens(t0))
    res = extrapolate(
        TunedConfig(t0=t0, b0=b, eta0=start.eta_star, alpha0=start.alpha_star),
        t1,
        TransferRegime.FIXED_BATCH_TUNED_MOMENTUM,
    )
    target = optimal_fixed_batch(UNIT, b, Budget.tokens(t1))
    assert res.alpha1 == pytest.approx(target.alpha_star, rel=1e-10)
    assert res.eta1 == pytest.approx(target.eta_star, rel=1e-10)


def test_regime_c_tracks_joint_fixed_momentum_optimum():
    t0, t1 = 1e10, 1e16
    start = optimal_fixed_momentum_tokens(UNIT, 0.05, t0)
    res = extrapolate(
        TunedConfig(t0=t0, b0=start.b_star, eta0=start.eta_star, alpha0=0.05),
        t1,
        TransferRegime.TUNED_BATCH_FIXED_MOMENTUM,
    )
    target = optimal_fixed_momentum_tokens(UNIT, 0.05, t1)
    assert res.b1 == pytest.approx(target.b_star, rel=1e-10)
    assert res.eta1 == pytest.approx(target.eta_star, rel=1e-10)


def test_regime_d_tracks_joint_optimum_asymptotically():
    # the joint optimum is not an exact power law, so the transfer error
    # shrinks with the starting budget instead of vanishing outright
    errors = []
    for t0 in (1e8, 1e12, 1e16):
        t1 = t0 * 1e4
        start = optimal_joint(ONES, t0)
        res = extrapolate(
            TunedConfig(t0=t0, b0=start.b_star, eta0=start.eta_star, alpha0=start.alpha_star),
            t1,
            TransferRegime.JOINT,
        )
        target = optimal_joint(ONES, t1)
        errors.append(
            max(
                abs(res.alpha1 - target.alpha_star) / target.alpha_star,
                abs(res.eta1 - target.eta_star) / target.eta_star,
                abs(res.b1 - target.b_star) / target.b_star,
            )
        )
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 2e-3


def test_downscaling_is_rejected():
    cfg = TunedConfig(t0=100.0, b0=1.0, eta0=0.1, alpha0=1.0)
    with pytest.raises(DomainError):
        extrapolate(cfg, 50.0, TransferRegime.JOINT)


def test_batch_cap_flag():
    cfg = TunedConfig(t0=1e6, b0=100.0, eta0=1e-3, alpha0=0.5)
    res = extrapolate(cfg, 1e12, TransferRegime.TUNED_BATCH_FIXED_MOMENTUM, b_max=1e4)
    assert res.b1 == 1e4
    assert "b-capped" in res.flags


def test_batch_change_cancellation():
    cfg = TunedConfig(t0=1e8, b0=37.0, eta0=2.5e-3, alpha0=0.1)
    res = extrapolate_with_batch_change(
        cfg, 4e8, 4.0 * 37.0, BatchChangeSetting.LMO_FIXED_MOMENTUM
    )
    assert res.eta1 == cfg.eta0  # sqrt(4) * sqrt(1/4) == 1 exactly


def test_batch_change_sgd_linear_scaling():
    cfg = TunedConfig(t0=1e8, b0=32.0, eta0=1e-3, alpha0=1.0)
    res = extrapolate_with_batch_change(cfg, 1e8, 64.0, BatchChangeSetting.SGD)
    assert res.eta1 == pytest.approx(2e-3, rel=1e-15)


def test_batch_change_tuned_momentum_equals_regime_b_at_equal_batch():
    cfg = TunedConfig(t0=1e8, b0=48.0, eta0=5e-4, alpha0=0.02)
    via_change = extrapolate_with_batch_change(
        cfg, 16e8, 48.0, BatchChangeSetting.LMO_TUNED_MOMENTUM
    )
    via_regime = extrapolate(cfg, 16e8, TransferRegime.FIXED_BATCH_TUNED_MOMENTUM)
    assert via_change.alpha1 == pytest.approx(via_regime.alpha1, rel=1e-14)
    assert via_change.eta1 == pytest.approx(via_regime.eta1, rel=1e-14)
    assert via_change.alpha1 == pytest.approx(0.02 / 4.0, rel=1e-14)
    assert via_change.eta1 == pytest.approx(5e-4 / 8.0, rel=1e-14)


def test_calibrated_invariants_reproduce_the_transfer():
    cfg = TunedConfig(t0=3e7, b0=24.0, eta0=7e-4, alpha0=0.05)
    t1, b1 = 9e9, 96.0
    res = extrapolate_with_batch_change(cfg, t1, b1, BatchChangeSetting.LMO_TUNED_MOMENTUM)
    assert res.c_eta * b1 / t1**0.75 == pytest.approx(res.eta1, rel=1e-12)
    assert res.c_alpha * b1 / math.sqrt(t1) == pytest.approx(res.alpha1, rel=1e-12)
    fixed = extrapolate_with_batch_change(cfg, t1, b1, BatchChangeSetting.LMO_FIXED_MOMENTUM)
    assert fixed.c_eta * math.sqrt(b1 / t1) == pytest.approx(fixed.eta1, rel=1e-12)
    assert fixed.c_alpha is None


def test_momentum_clamp_flag_on_batch_change():
    cfg = TunedConfig(t0=1e8, b0=1.0, eta0=1e-4, alpha0=0.9)
    res = extrapolate_with_batch_change(
        cfg, 1e8, 1e6, BatchChangeSetting.LMO_TUNED_MOMENTUM
    )
    assert res.alpha1 == 1.0
    assert "alpha-clamped" in res.flags


def test_regime_schedules_reach_the_quarter_rate_except_a():
    overall = {r: rate_exponents(REGIME_SCHEDULES[r]).overall for r in TransferRegime}
    assert overall[TransferRegime.FIXED_BATCH_TUNED_MOMENTUM] == 0.25
    assert overall[TransferRegime.TUNED_BATCH_FIXED_MOMENTUM] == 0.25
    assert overall[TransferRegime.JOINT] == 0.25
    # with batch and momentum fixed the noise floor c2 sqrt(alpha / b) never decays
    assert overall[TransferRegime.FIXED_BATCH_FIXED_MOMENTUM] == 0.0


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# momentum starts low enough that no hop clamps it: alpha0 (b1/b0) <= 1e-5 * 1e4
hops = st.tuples(_decades(2, 10), _decades(0, 6), _decades(0, 6), _decades(0, 4),
                 _decades(0, 4), _decades(0, 4), _decades(-6, 0), _decades(-10, -5))


# t0 1e3..1e9 and each later budget 1..1e3 times the one before, b0 1..1e3, eta0 1e-5..1e-1,
# alpha0 1e-3..1; no cap, and no law here raises alpha with the budget, so nothing clamps
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decades(3, 9), _decades(0, 3), _decades(0, 3), _decades(0, 3), _decades(-5, -1),
       _decades(-3, 0))
def test_same_batch_transfers_compose(t0, grow1, grow2, b0, eta0, alpha0):
    t1, t2 = t0 * grow1, t0 * grow1 * grow2
    cfg = TunedConfig(t0=t0, b0=b0, eta0=eta0, alpha0=alpha0)
    for regime in TransferRegime:
        mid = extrapolate(cfg, t1, regime)
        two_hop = extrapolate(TunedConfig(t0=t1, b0=mid.b1, eta0=mid.eta1, alpha0=mid.alpha1),
                              t2, regime)
        one_hop = extrapolate(cfg, t2, regime)
        assert mid.flags == two_hop.flags == one_hop.flags == ()
        # worst seen over 20,000 seeded draws: 7.9e-16 relative
        for two, one in ((two_hop.eta1, one_hop.eta1), (two_hop.alpha1, one_hop.alpha1),
                         (two_hop.b1, one_hop.b1)):
            assert two == pytest.approx(one, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hops)
def test_batch_change_transfers_compose(draw):
    t0, grow1, grow2, b0, b1, b2, eta0, alpha0 = draw
    t1, t2 = t0 * grow1, t0 * grow1 * grow2
    cfg = TunedConfig(t0=t0, b0=b0, eta0=eta0, alpha0=alpha0)
    for setting in BatchChangeSetting:
        mid = extrapolate_with_batch_change(cfg, t1, b1, setting)
        two_hop = extrapolate_with_batch_change(
            TunedConfig(t0=t1, b0=mid.b1, eta0=mid.eta1, alpha0=mid.alpha1), t2, b2, setting
        )
        one_hop = extrapolate_with_batch_change(cfg, t2, b2, setting)
        assert mid.flags == two_hop.flags == one_hop.flags == ()
        assert two_hop.eta1 == pytest.approx(one_hop.eta1, rel=1e-12)
        assert two_hop.alpha1 == pytest.approx(one_hop.alpha1, rel=1e-12)
        assert two_hop.c_eta == pytest.approx(one_hop.c_eta, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hops)
def test_every_settings_invariants_reproduce_its_transfer(draw):
    t0, grow1, _, b0, b1, _, eta0, alpha0 = draw
    t1 = t0 * grow1
    cfg = TunedConfig(t0=t0, b0=b0, eta0=eta0, alpha0=alpha0)
    for setting, law in ((BatchChangeSetting.LMO_FIXED_MOMENTUM, TunedLaw.FIXED_MOMENTUM),
                         (BatchChangeSetting.LMO_TUNED_MOMENTUM, TunedLaw.TUNED_MOMENTUM),
                         (BatchChangeSetting.SGD, TunedLaw.SGD)):
        res = extrapolate_with_batch_change(cfg, t1, b1, setting)
        assert res.c_eta * b1**law.eta_b / t1**law.eta_t == pytest.approx(res.eta1, rel=1e-12)
        if law.tunes_momentum:
            assert res.c_alpha * b1**law.alpha_b / t1**law.alpha_t == pytest.approx(
                res.alpha1, rel=1e-12)
        else:
            assert res.c_alpha is None and res.alpha1 == alpha0


def test_regime_schedules_are_their_laws_on_a_batch_path():
    assert REGIME_SCHEDULES == {
        TransferRegime.FIXED_BATCH_FIXED_MOMENTUM: TunedLaw.FIXED_MOMENTUM.schedule(0.0),
        TransferRegime.FIXED_BATCH_TUNED_MOMENTUM: TunedLaw.TUNED_MOMENTUM.schedule(0.0),
        TransferRegime.TUNED_BATCH_FIXED_MOMENTUM: TunedLaw.FIXED_MOMENTUM.schedule(0.5),
        TransferRegime.JOINT: TunedLaw.TUNED_MOMENTUM.schedule(1.0 / 6.0),
        TransferRegime.SGD: TunedLaw.SGD.schedule(0.0),
    }
    joint = REGIME_SCHEDULES[TransferRegime.JOINT]
    assert (joint.b_exp, joint.eta_exp) == (1.0 / 6.0, 7.0 / 12.0)
    assert joint.alpha_exp == pytest.approx(1.0 / 3.0, rel=0, abs=1e-16)


def test_results_outside_the_float_range_raise():
    tiny = TunedConfig(t0=1e-300, b0=1.0, eta0=1.0, alpha0=0.5)
    with pytest.raises(NumericalError, match=r"^transfer eta1 = 0\.0 leaves the float range"):
        extrapolate(tiny, 1e300, TransferRegime.FIXED_BATCH_FIXED_MOMENTUM)
    with pytest.raises(NumericalError, match=r"^transfer eta1 = nan "):
        extrapolate(tiny, 1e300, TransferRegime.TUNED_BATCH_FIXED_MOMENTUM)
    with pytest.raises(NumericalError, match=r"^transfer alpha1 = 0\.0 "):
        extrapolate(TunedConfig(t0=1.0, b0=1.0, eta0=1.0, alpha0=1e-300), 1e100,
                    TransferRegime.FIXED_BATCH_TUNED_MOMENTUM)
    huge = TunedConfig(t0=1e300, b0=1.0, eta0=1e300, alpha0=1e-300)
    with pytest.raises(NumericalError, match=r"^transfer invariant c_eta = inf "):
        extrapolate_with_batch_change(huge, 1e300, 1.0, BatchChangeSetting.SGD)
    with pytest.raises(NumericalError, match=r"^transfer invariant c_alpha = 0\.0 "):
        extrapolate_with_batch_change(TunedConfig(1.0, 1e300, 1e-10, 1e-30), 1.0, 1e300,
                                      BatchChangeSetting.LMO_TUNED_MOMENTUM)


def test_batch_cap_below_one_is_rejected():
    cfg = TunedConfig(t0=1e6, b0=8.0, eta0=0.01, alpha0=0.5)
    for b_max in (0.5, math.nan):
        with pytest.raises(DomainError, match=rf"^b_max must be >= 1, got {b_max}$"):
            extrapolate(cfg, 1e7, TransferRegime.JOINT, b_max=b_max)


# the law each regime and setting follows, as its batch-change setting
_SETTING_OF_REGIME = {
    TransferRegime.FIXED_BATCH_FIXED_MOMENTUM: BatchChangeSetting.LMO_FIXED_MOMENTUM,
    TransferRegime.FIXED_BATCH_TUNED_MOMENTUM: BatchChangeSetting.LMO_TUNED_MOMENTUM,
    TransferRegime.TUNED_BATCH_FIXED_MOMENTUM: BatchChangeSetting.LMO_FIXED_MOMENTUM,
    TransferRegime.JOINT: BatchChangeSetting.LMO_TUNED_MOMENTUM,
    TransferRegime.SGD: BatchChangeSetting.SGD,
}
_LAW_OF_SETTING = {
    BatchChangeSetting.LMO_FIXED_MOMENTUM: TunedLaw.FIXED_MOMENTUM,
    BatchChangeSetting.LMO_TUNED_MOMENTUM: TunedLaw.TUNED_MOMENTUM,
    BatchChangeSetting.SGD: TunedLaw.SGD,
}


@pytest.mark.parametrize("regime", list(TransferRegime), ids=lambda r: r.value)
def test_capped_transfer_is_on_its_law_at_the_capped_batch(regime):
    # every regime's batch starts (b0 = 64) above the cap, so each is capped
    cfg = TunedConfig(t0=1e6, b0=64.0, eta0=0.01, alpha0=0.05)
    res = extrapolate(cfg, 1e9, regime, b_max=16.0)
    assert res.b1 == 16.0 and res.flags == ("b-capped",)
    on_law = extrapolate_with_batch_change(cfg, 1e9, 16.0, _SETTING_OF_REGIME[regime])
    assert (res.eta1, res.alpha1) == (on_law.eta1, on_law.alpha1)


@pytest.mark.parametrize("setting", list(BatchChangeSetting), ids=lambda s: s.value)
def test_capped_batch_change_keeps_the_invariants_identity(setting):
    cfg = TunedConfig(t0=1e6, b0=8.0, eta0=0.01, alpha0=1e-3)
    res = extrapolate_with_batch_change(cfg, 1e9, 1e3, setting, b_max=100.0)
    assert res.b1 == 100.0 and res.flags == ("b-capped",)
    on_law = extrapolate_with_batch_change(cfg, 1e9, 100.0, setting)
    assert (res.eta1, res.alpha1) == (on_law.eta1, on_law.alpha1)
    law = _LAW_OF_SETTING[setting]
    assert res.c_eta * res.b1**law.eta_b / 1e9**law.eta_t == pytest.approx(res.eta1, rel=1e-12)
    if law.tunes_momentum:
        assert res.c_alpha * res.b1**law.alpha_b / 1e9**law.alpha_t == pytest.approx(
            res.alpha1, rel=1e-12)


def test_joint_transfer_capped_at_ten():
    res = extrapolate(TunedConfig(1e6, 8.0, 0.01, 0.5), 1e8, TransferRegime.JOINT, b_max=10.0)
    assert res.b1 == 10.0 and res.flags == ("b-capped",)
    # eta0 (b1/b0) (t0/t1)^(3/4) at b1 = 10, not at the uncapped 8 * 100^(1/6)
    assert res.eta1 == pytest.approx(0.01 * (10.0 / 8.0) * 0.01**0.75, rel=1e-12)
    assert res.eta1 == pytest.approx(3.9528e-4, rel=1e-4)
