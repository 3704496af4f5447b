"""Classical SGD proxy: tuning, batch independence, stability cap, contrast."""

import numpy as np
import pytest

from lmoscale import (
    BoundConstants,
    Budget,
    DomainError,
    HyperParams,
    SgdInputs,
    optimal_fixed_momentum_tokens,
    sgd_risk,
    sgd_tuned,
)
from oracles import golden_min_log


def test_risk_all_ones():
    inp = SgdInputs(1.0, 1.0, 1.0, eta=1.0, batch=1.0, budget=Budget.iterations(1.0))
    assert sgd_risk(inp) == pytest.approx(2.0, rel=1e-15)


def test_token_form_substitution():
    inp = SgdInputs(1.0, 1.0, 1.0, eta=1.0, batch=2.0, budget=Budget.tokens(2.0))
    assert sgd_risk(inp) == pytest.approx(1.5, rel=1e-15)


def test_tuned_value_and_step_size():
    res = sgd_tuned(1.0, 1.0, 1.0, batch=1.0, budget=Budget.tokens(1e4))
    assert res.value == pytest.approx(0.01, rel=1e-14)
    assert res.eta_star == pytest.approx(0.01, rel=1e-14)  # b * sqrt(delta0/(L s^2 T))
    assert res.proxy_value == pytest.approx(2.0 * res.value, rel=1e-15)
    # the objective at eta_star really is the reported proxy value
    inp = SgdInputs(1.0, 1.0, 1.0, eta=res.eta_star, batch=1.0, budget=Budget.tokens(1e4))
    assert sgd_risk(inp) == pytest.approx(res.proxy_value, rel=1e-14)


def test_tuned_matches_golden_section_oracle():
    budget = Budget.tokens(1e4)
    f = lambda e: sgd_risk(SgdInputs(1.0, 1.0, 1.0, eta=e, batch=10.0, budget=budget))
    x, fx = golden_min_log(f, 1e-8, 1e2)
    res = sgd_tuned(1.0, 1.0, 1.0, batch=10.0, budget=budget, enforce_cap=False)
    assert res.eta_star == pytest.approx(x, rel=1e-5)
    assert res.proxy_value == pytest.approx(fx, rel=1e-12)


def test_tuned_value_batch_independent_at_fixed_tokens():
    budget = Budget.tokens(1e4)
    values = [
        sgd_tuned(1.0, 1.0, 1.0, batch=b, budget=budget, enforce_cap=False).value
        for b in (1.0, 10.0, 100.0)
    ]
    spread = (max(values) - min(values)) / min(values)
    assert spread < 1e-12
    assert values[0] == pytest.approx(0.01, rel=1e-14)


def test_tuned_value_scales_with_inverse_sqrt_bk_at_fixed_steps():
    k = 1e6
    v1 = sgd_tuned(1.0, 1.0, 1.0, batch=1.0, budget=Budget.iterations(k)).value
    v4 = sgd_tuned(1.0, 1.0, 1.0, batch=4.0, budget=Budget.iterations(k)).value
    assert v4 / v1 == pytest.approx(0.5, rel=1e-14)


def test_stability_cap():
    # smoothness 100 -> cap 0.01; large batch pushes the uncapped step above it
    res = sgd_tuned(1.0, 100.0, 1.0, batch=1e6, budget=Budget.tokens(1e8))
    uncapped = sgd_tuned(1.0, 100.0, 1.0, batch=1e6, budget=Budget.tokens(1e8), enforce_cap=False)
    assert res.capped and uncapped.capped
    assert res.eta_star == 0.01
    assert uncapped.eta_star > 0.01
    assert res.value > uncapped.value  # constrained optimum is worse
    inp = SgdInputs(1.0, 100.0, 1.0, eta=uncapped.eta_star, batch=1e6, budget=Budget.tokens(1e8))
    assert inp.exceeds_cap


def test_contrast_with_norm_constrained_proxy():
    # identical constants: SGD flat in b, the momentum proxy has an interior optimum
    c = BoundConstants(delta0=1.0, smoothness=1.0, noise_scale=1.0)
    t = 1e10
    bs = 10.0 ** np.arange(7)
    sgd_values = [
        sgd_tuned(1.0, 1.0, 1.0, batch=b, budget=Budget.tokens(t), enforce_cap=False).value
        for b in bs
    ]
    assert (max(sgd_values) - min(sgd_values)) / min(sgd_values) < 1e-12
    opt = optimal_fixed_momentum_tokens(c, 1.0, t)
    assert 1.0 < opt.b_star < 1e6
    lmo_values = [
        optimal_fixed_momentum_tokens(c, 1.0, t, b=b).risk_star for b in bs
    ]
    best = int(np.argmin(lmo_values))
    assert 0 < best < len(bs) - 1


def test_input_validation():
    with pytest.raises(DomainError):
        SgdInputs(0.0, 1.0, 1.0, eta=1.0, batch=1.0, budget=Budget.iterations(10.0))
    with pytest.raises(DomainError):
        sgd_tuned(1.0, 1.0, 0.0, batch=1.0, budget=Budget.iterations(10.0))


GOOD_SGD = dict(delta0=1.0, smoothness=1.0, noise_scale=1.0, eta=0.1, batch=4.0)


@pytest.mark.parametrize("field, value, owner", [
    ("delta0", 0.0, lambda v: BoundConstants(v, 1.0, 1.0)),
    ("delta0", float("nan"), lambda v: BoundConstants(v, 1.0, 1.0)),
    ("smoothness", -1.0, lambda v: BoundConstants(1.0, v, 1.0)),
    ("noise_scale", -0.5, lambda v: BoundConstants(1.0, 1.0, v)),
    ("eta", 0.0, lambda v: HyperParams(v, 1.0, 4.0)),
    ("eta", -2.0, lambda v: HyperParams(v, 1.0, 4.0)),
    ("batch", 0.5, lambda v: HyperParams(0.1, 1.0, v)),
])
def test_input_messages_are_the_proxy_types(field, value, owner):
    with pytest.raises(DomainError) as expected:
        owner(value)
    with pytest.raises(DomainError) as info:
        SgdInputs(**{**GOOD_SGD, field: value}, budget=Budget.iterations(10.0))
    assert str(info.value) == str(expected.value) and f"{field} must be" in str(info.value)


def test_inputs_are_checked_in_field_order():
    with pytest.raises(DomainError, match="^delta0 must be > 0, got 0.0$"):
        SgdInputs(0.0, -1.0, -1.0, eta=0.0, batch=0.0, budget=Budget.iterations(10.0))
    with pytest.raises(DomainError, match="^noise_scale must be >= 0, got -1.0$"):
        SgdInputs(1.0, 1.0, -1.0, eta=0.0, batch=0.0, budget=Budget.iterations(10.0))
    with pytest.raises(DomainError, match="^eta must be > 0, got 0.0$"):
        SgdInputs(1.0, 1.0, 0.0, eta=0.0, batch=0.0, budget=Budget.iterations(10.0))
    with pytest.raises(DomainError, match="^batch must be >= 1, got 0.0$"):
        SgdInputs(1.0, 1.0, 0.0, eta=0.1, batch=0.0, budget=Budget.iterations(10.0))
