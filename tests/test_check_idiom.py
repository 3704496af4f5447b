"""One check idiom in the library: every check is a `_require` call and `errors` formats every
message, so an int of any size gets the library's own error, never a bare ValueError."""

import ast
from pathlib import Path

import pytest

from lmoscale import closed_form, contours, grid, proxy, schedules, sgd, sim, transfer
from lmoscale.errors import (BudgetTooSmallError, DomainError, InfeasibleError, NumericalError,
                             _Count, _message)

SRC = Path(__file__).resolve().parents[1] / "src" / "lmoscale"
CHECKED = ("proxy", "schedules", "closed_form", "sgd", "transfer", "contours", "grid", "sim", "cli")
ERRORS = {"DomainError", "InfeasibleError", "BudgetTooSmallError", "NumericalError"}

BIG = 10**5000  # past the float range and Python's int-to-str digit limit
UNIT = proxy.BoundConstants(1.0, 1.0, 1.0)
CC = contours.ContourConstants(UNIT, 0.5)


def _unclamped_result():
    record = grid.SweepRecord(t=10.0, eta=1.0, alpha=1.0, b=1.0, risk=1.0)
    return grid.SweepResult((record,), grid.Constraint(), "risk_tokens", grid.GridSpec())


def _plan(replicates=1, seed=0):
    return sim.sweep_plan(1, [0.1], [1.0], [1], [10], replicates, seed, "lmo", "matched")


BIG_INT_CALLS = {
    "HyperParams(1.0, big)": lambda: proxy.HyperParams(1.0, BIG),
    "BoundConstants(-big, 1, 1)": lambda: proxy.BoundConstants(-BIG, 1, 1),
    "Budget.tokens(-big)": lambda: proxy.Budget.tokens(-BIG),
    "Budget.tokens(big).steps_for(2 * big)": lambda: proxy.Budget.tokens(BIG).steps_for(2 * BIG),
    "bound_tokens(c, h, -big)": lambda: proxy.bound_tokens(UNIT, proxy.HyperParams(1.0, 1.0),
                                                           -BIG),
    "PowerLawSchedule(big, 0, 0)": lambda: schedules.PowerLawSchedule(BIG, 0, 0),
    "aggressive_ceiling(big)": lambda: schedules.aggressive_ceiling(BIG),
    "NoiseModel(big)": lambda: schedules.NoiseModel(BIG),
    "NoiseModel(heavy_tail_p=big)": lambda: schedules.NoiseModel(heavy_tail_p=BIG),
    "PathExponents(-big, 0, 0)": lambda: schedules.PathExponents(-BIG, 0, 0),
    "noise_exponent_sensitivity(q=0.5, -big, 1.0)": lambda: schedules.noise_exponent_sensitivity(
        schedules.NoiseModel(0.5), -BIG, 1.0),
    "batch_growth_plan(big)": lambda: closed_form.batch_growth_plan(BIG),
    "optimal_fixed_batch(c, -big, T=10)": lambda: closed_form.optimal_fixed_batch(
        UNIT, -BIG, proxy.Budget.tokens(10)),
    "TunedConfig(-big, 1, 1, 1)": lambda: transfer.TunedConfig(-BIG, 1, 1, 1),
    "extrapolate(cfg, -big, A)": lambda: transfer.extrapolate(
        transfer.TunedConfig(1, 1, 1, 1), -BIG,
        transfer.TransferRegime.FIXED_BATCH_FIXED_MOMENTUM),
    "extrapolate_with_batch_change(eta0=1e-300, big, 1, sgd)":
        lambda: transfer.extrapolate_with_batch_change(
            transfer.TunedConfig(1, 1, 1e-300, 1), BIG, 1, transfer.BatchChangeSetting.SGD),
    "ContourConstants(c, big)": lambda: contours.ContourConstants(UNIT, BIG),
    "tuned_bound(cc, -big, 10)": lambda: contours.tuned_bound(CC, -BIG, 10),
    "level_set(cc, big, [10.0])": lambda: contours.level_set(CC, BIG, [10.0]),
    "sgd_tuned(1, 1, 1, -big, T=10)": lambda: sgd.sgd_tuned(1, 1, 1, -BIG,
                                                            proxy.Budget.tokens(10)),
    "Constraint(fixed_alpha=big)": lambda: grid.Constraint(fixed_alpha=BIG),
    "sweep(c, GridSpec(points_per_axis=big))": lambda: grid.sweep(
        UNIT, grid.GridSpec(points_per_axis=BIG)),
    "fit_sweep_exponents(result, -big)": lambda: grid.fit_sweep_exponents(_unclamped_result(),
                                                                          -BIG),
    "sweep_plan(replicates=big)": lambda: _plan(replicates=BIG),
    "sweep_plan(seed=-big)": lambda: _plan(seed=-BIG),
    "ObjectiveSpec(data_seed=-big)": lambda: sim.ObjectiveSpec(spectrum=(1.0,), data_seed=-BIG),
    "LmoConfig(alpha=big)": lambda: sim.LmoConfig(sim.NormKind.MAX, 0.1, BIG, 1, 1, 0),
}


@pytest.mark.parametrize("call", BIG_INT_CALLS.values(), ids=BIG_INT_CALLS)
def test_an_int_of_any_size_gets_the_library_error(call):
    with pytest.raises((DomainError, InfeasibleError, NumericalError)) as info:
        call()
    assert type(info.value).__name__ in ERRORS and str(info.value)


def test_the_big_int_table_holds_each_call_once():
    assert len(BIG_INT_CALLS) == 27


HUGE = 10**400  # past the float range, within the int-to-str digit limit
H = proxy.HyperParams(1.0, 1.0)

# each call -> the quantity its DomainError names
PAST_FLOAT_RANGE_CALLS = {
    "Budget.tokens(huge).steps_for(1.0)": (
        "token budget", lambda: proxy.Budget.tokens(HUGE).steps_for(1.0)),
    "bound_tokens(c, h, huge)": ("token budget", lambda: proxy.bound_tokens(UNIT, H, HUGE)),
    "risk_tokens(c, h, huge)": ("token budget", lambda: proxy.risk_tokens(UNIT, H, HUGE)),
    "bound_steps(c, h, huge)": ("steps", lambda: proxy.bound_steps(UNIT, H, HUGE)),
    "risk_steps(c, h, huge)": ("steps", lambda: proxy.risk_steps(UNIT, H, HUGE)),
    "large_horizon_gap(c, h, huge)": ("steps", lambda: proxy.large_horizon_gap(UNIT, H, HUGE)),
    "risk_large_horizon(T=huge)": ("token budget", lambda: proxy.risk_large_horizon(
        UNIT, 1.0, 1.0, proxy.Budget.tokens(HUGE), 1.0)),
    "optimal_joint(c, huge)": ("t", lambda: closed_form.optimal_joint(UNIT, HUGE)),
    "optimal_fixed_batch(c, 1.0, T=huge)": ("token budget", lambda: closed_form.optimal_fixed_batch(
        UNIT, 1.0, proxy.Budget.tokens(HUGE))),
    "optimal_fixed_momentum_tokens(c, 0.5, huge)": (
        "t", lambda: closed_form.optimal_fixed_momentum_tokens(UNIT, 0.5, HUGE)),
    "extrapolate(cfg, huge, A)": ("t1", lambda: transfer.extrapolate(
        transfer.TunedConfig(1, 1, 1, 1), HUGE,
        transfer.TransferRegime.FIXED_BATCH_FIXED_MOMENTUM)),
    "sgd_tuned(1, 1, 1, 1, T=huge)": ("token budget", lambda: sgd.sgd_tuned(
        1, 1, 1, 1, proxy.Budget.tokens(HUGE))),
    "tuned_bound(cc, 4, huge)": ("k", lambda: contours.tuned_bound(CC, 4, HUGE)),
    "level_set(cc, 2, [10.0, huge])": ("k_grid", lambda: contours.level_set(CC, 2, [10.0, HUGE])),
}


@pytest.mark.parametrize("quantity, call", PAST_FLOAT_RANGE_CALLS.values(),
                         ids=PAST_FLOAT_RANGE_CALLS)
def test_a_budget_or_step_count_past_the_float_range_is_a_domain_error(quantity, call):
    with pytest.raises(DomainError, match=rf"^{quantity}( = 10{{400}} is| holds a value) past "
                                          r"the float range$"):
        call()


def test_a_big_int_shows_in_scientific_form():
    with pytest.raises(DomainError, match=r"^alpha must be in \(0, 1\], got 1e\+5000$"):
        proxy.HyperParams(1.0, BIG)
    with pytest.raises(BudgetTooSmallError,
                       match=r"^token budget 1e\+5000 is below batch size 2e\+5000; "):
        proxy.Budget.tokens(BIG).steps_for(2 * BIG)


@pytest.mark.parametrize("n", [0, 7, -7, 10**20, -(10**20), 10**4299, -(10**4299) + 3],
                         ids=["0", "7", "-7", "1e20", "-1e20", "1e4299", "-1e4299+3"])
def test_a_count_below_the_digit_limit_shows_as_the_int_does(n):
    assert "{} {!r}".format(_Count(n), _Count(n)) == f"{n} {n!r}"


@pytest.mark.parametrize("n, text", [
    (10**4300, "1e+4300"),
    (-(10**4300), "-1e+4300"),
    (10**4301 - 1, "1e+4301"),
    (123456789012345678901 * 10**5000, "1.2345678901234568e+5020"),
], ids=["1e4300", "-1e4300", "1e4301-1", "21-digit-mantissa"])
def test_a_count_past_the_digit_limit_shows_17_digits(n, text):
    assert "{} {!r}".format(_Count(n), _Count(n)) == f"{text} {text}"


def test_a_negative_count_past_the_float_range_formats():
    assert "{:.6g}".format(_Count(-999999500 * 10**400)) == "-1e+409"


def test_the_formatter_shows_plain_ints_as_counts_and_leaves_the_rest():
    assert _message("{} {!r} {} {:.3g}", BIG, -BIG, True, 0.5) == "1e+5000 -1e+5000 True 0.5"
    assert _message("braces {} stay {x}") == "braces {} stay {x}"


def _outside_except(tree: ast.AST):
    """Every node of ``tree`` that no ``except`` clause holds."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.ExceptHandler))


def _formats_in_place(node: ast.AST) -> bool:
    """An f-string, a ``%`` or a ``.format`` call: a message built outside ``errors``."""
    return (isinstance(node, ast.JoinedStr)
            or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "format")


# The one `raise DomainError(...)` kept outside an except clause: argparse's own message.
KEPT_DOMAIN_RAISES = {"cli.py: raise DomainError(message)"}


@pytest.mark.parametrize("module", CHECKED)
def test_every_library_check_is_a_require_call(module):
    path = SRC / f"{module}.py"
    for node in _outside_except(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) == "DomainError":
                assert f"{path.name}: {ast.unparse(node)}" in KEPT_DOMAIN_RAISES, where
        # any error built here, raised at once or returned for a raise
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ERRORS:
            assert not any(map(_formats_in_place, node.args)), where


def test_only_errors_uses_count():
    users = {path.name for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if getattr(node, "id", None) == "_Count"
             or isinstance(node, ast.alias) and node.name == "_Count"}
    assert users == {"errors.py"}
