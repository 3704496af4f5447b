"""The `_require` message-template contract and the texts of representative failures."""

import ast
import string
from pathlib import Path

import pytest

from lmoscale import closed_form, contours, grid, proxy, schedules, sgd, sim, transfer
from lmoscale.errors import BudgetTooSmallError, DomainError, NumericalError, _Count, _require

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lmoscale").glob("*.py"))


def _require_calls():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require":
                yield f"{path.name}:{node.lineno}", node


def test_every_require_message_is_a_literal_template():
    calls = list(_require_calls())
    assert len(calls) > 60
    for where, node in calls:
        assert len(node.args) >= 2 and not node.keywords, where
        message = node.args[1]
        # no f-string, concatenation or call: nothing is formatted before the check
        assert isinstance(message, ast.Constant) and isinstance(message.value, str), where
        args = node.args[2:]
        assert not any(isinstance(a, ast.Starred) for a in args), where
        if args:
            fields = [f for _, f, _, _ in string.Formatter().parse(message.value) if f is not None]
            assert fields == [""] * len(args), where  # automatic numbering, one per arg


class _Unformattable:
    def __format__(self, spec=""):
        raise AssertionError("a passing check formatted its message")

    __repr__ = __str__ = __format__


def test_a_passing_check_formats_nothing():
    assert _require(True, "never {} formatted {!r}", _Unformattable(), _Unformattable()) is None


def test_a_message_without_args_is_raised_verbatim():
    with pytest.raises(DomainError) as info:
        _require(False, "braces {} and {0} and {x:>3} stay")
    assert str(info.value) == "braces {} and {0} and {x:>3} stay"


@pytest.mark.parametrize("template, value, expected", [
    ("got {}", 0.1, f"got {0.1}"),
    ("got {}", float("nan"), f"got {float('nan')}"),
    ("got {!r}", "adam", f"got {'adam'!r}"),
    ("got {!r}", 2.5, f"got {2.5!r}"),
    ("got {:.12g}", 1e13 / 3.0, f"got {1e13 / 3.0:.12g}"),
    ("got {}", ("matched", "zero"), f"got {('matched', 'zero')}"),
])
def test_templates_format_as_the_f_strings_did(template, value, expected):
    with pytest.raises(DomainError) as info:
        _require(False, template, value)
    assert str(info.value) == expected


@pytest.mark.parametrize("n", [0, 7, 999, 1000, 125500, 999999, 1000000, 9999995, 9999985,
                               284200000000, 2**53, 10**9])
def test_a_count_formats_as_its_float_does(n):
    for digits in (3, 6):
        assert format(_Count(n), f".{digits}g") == format(n, f".{digits}g")


def test_a_count_past_the_float_range_formats():
    # 9995 to 3 digits is a tie, which rounds to even and carries into the exponent
    assert "{:.6g} {:.3g}".format(_Count(10**400), _Count(9995 * 10**500)) == "1e+400 1e+504"


def _config(**kw):
    return sim.LmoConfig(**{"norm": sim.NormKind.MAX, "eta": 0.1, "alpha": 0.5, "batch": 1,
                            "steps": 10, "seed": 0, **kw})


def _sweep(etas, t, spec=None, **kw):
    spec = spec or sim.ObjectiveSpec(kind="noisy-quadratic", noise_sigma=0.1, spectrum=(1.0, 2.0))
    sim.sweep_sim(spec, sim.NormKind.EUCLIDEAN, etas, [0.5], [3.0], [t],
                  **{"replicates": 1, "seed": 0, **kw})


def _simulate(*argv):
    from lmoscale import cli

    args = cli._build_parser("simulate").parse_args(["simulate", *argv])
    cli._cmd_simulate(cli._merge_config("simulate", args))


def _matrix_spec(dims, **kw):
    return sim.ObjectiveSpec(kind="matrix-least-squares", dims=dims, **kw)


UNIT = proxy.BoundConstants(1.0, 1.0, 1.0)

# Texts recorded from the f-string messages before they became templates.
MESSAGES = [
    (lambda: proxy.HyperParams(eta=-0.5, alpha=0.1, batch=2.0), DomainError,
     "eta must be > 0, got -0.5"),
    (lambda: proxy.HyperParams(eta=0.1, alpha=1.5, batch=2.0), DomainError,
     "alpha must be in (0, 1], got 1.5"),
    (lambda: proxy.Budget.tokens(0.25), DomainError, "budget value must be >= 1, got 0.25"),
    (lambda: proxy.BoundConstants(1.0, 1.0, 1.0, norm_equiv=0.5), DomainError,
     "norm_equiv must be >= 1, got 0.5"),
    (lambda: transfer.TunedConfig(t0=0.0, b0=1.0, eta0=0.1, alpha0=0.5), DomainError,
     "t0 must be > 0, got 0.0"),
    (lambda: transfer.TunedConfig(t0=1.0, b0=1.0, eta0=0.1, alpha0=float("nan")), DomainError,
     "alpha0 must be in (0, 1], got nan"),
    (lambda: grid.GridSpec(eta_range=(1.0, 0.5)), DomainError,
     "eta_range must have lo < hi, got (1.0, 0.5)"),
    (lambda: grid.GridSpec(t_range=(-1e3, 1e6)), DomainError,
     "t_range lower bound must be > 0, got -1000.0"),
    (lambda: grid.Constraint(fixed_alpha=0.0), DomainError,
     "fixed alpha must be in (0, 1], got 0.0"),
    (lambda: transfer.extrapolate(transfer.TunedConfig(1e6, 8.0, 0.01, 0.5), 1e3,
                                  transfer.TransferRegime.JOINT), DomainError,
     "t1 must be >= t0, got t1=1000.0, t0=1000000.0"),
    (lambda: _sweep([0.1], 1e13 + 1.0), DomainError,
     "t=10000000000001.0 at b=3 means 3.33333333333e+12 steps per run, above the limit of "
     "10000000"),
    (lambda: _sweep([0.1, -2.0], 30.0), DomainError, "eta must be finite and > 0, got -2.0"),
    (lambda: _config(update="adam"), DomainError,
     "update must be one of ('lmo', 'sgd'), got 'adam'"),
    (lambda: _config(init="ones"), DomainError,
     "init must be one of ('matched', 'zero'), got 'ones'"),
    (lambda: _config(batch=2.5), DomainError, "batch must be an integer >= 1, got 2.5"),
    (lambda: _config(steps=2.5), DomainError, "steps must be an integer >= 1, got 2.5"),
    (lambda: _config(seed=-1), DomainError, "seed must be an integer >= 0, got -1"),
    (lambda: _sweep([0.1], 30.0, seed=-1), DomainError, "seed must be an integer >= 0, got -1"),
    (lambda: _sweep([0.1], 30.0, seed=1.5), DomainError, "seed must be an integer >= 0, got 1.5"),
    (lambda: _sweep([0.1], 30.0, replicates=2.5), DomainError,
     "replicates must be an integer >= 1, got 2.5"),
    (lambda: _matrix_spec((3, 2), data_seed=-1), DomainError,
     "data_seed must be an integer >= 0, got -1"),
    (lambda: _matrix_spec((2.5, 2)), DomainError, "rows must be an integer >= 1, got 2.5"),
    (lambda: _matrix_spec((2.0, 2)), DomainError, "rows must be an integer >= 1, got 2.0"),
    (lambda: _sweep([0.1], 30.0, _matrix_spec((2000, 1))), DomainError,
     "matrix-least-squares data, 2 x rows^2, is 8e+06 elements, above the limit 1e+06; "
     "lower --rows"),
    (lambda: sim.ObjectiveSpec(kind="matrix-least-squares", spectrum=(1.0, 2.0), dims=(2, 3)),
     DomainError, "spectrum applies only to kind noisy-quadratic, not matrix-least-squares"),
    (lambda: sim.ObjectiveSpec(kind="noisy-quadratic", spectrum=(1.0,), dims=(8, 8)),
     DomainError, "dims applies only to kind matrix-least-squares, not noisy-quadratic"),
    (lambda: _simulate("--rows", "5"), DomainError,
     "--rows applies only to --kind matrix-least-squares, not noisy-quadratic"),
    (lambda: _simulate("--kind", "matrix-least-squares", "--dim", "4"), DomainError,
     "--dim applies only to --kind noisy-quadratic, not matrix-least-squares"),
    (lambda: closed_form.momentum_cubic(proxy.BoundConstants(1e300, 1e300, 1.0), 1e30),
     NumericalError, "momentum cubic coefficient a3 = inf leaves the float range at t=1e+30 "
     "(delta0=1e+300, L=1e+300, rho*sigma=1.0)"),
    (lambda: closed_form.momentum_cubic(proxy.BoundConstants(1.0, 1.0, 1e-150), 1e30),
     NumericalError, "momentum cubic ratio a0/a3 = 0.0 leaves the float range at t=1e+30 "
     "(delta0=1.0, L=1.0, rho*sigma=1e-150)"),
    (lambda: closed_form.bound_eta_star(UNIT, 1e-320, 1e300, 1e300), NumericalError,
     "eta* = 0.0 leaves the float range at alpha=1e-320, b=1e+300, t=1e+300"),
    (lambda: closed_form.bound_eta_minimized(UNIT, 1e-320, 1e300, 1e300), NumericalError,
     "eta* = 0.0 leaves the float range at alpha=1e-320, b=1e+300, t=1e+300"),
    (lambda: closed_form.bound_eta_minimized(UNIT, 1e-300, 1.0, 1e300), NumericalError,
     "eta* = 0.0 leaves the float range at alpha=1e-300, b=1.0, t=1e+300"),
    (lambda: sgd.sgd_tuned(1.0, 1.0, 0.0, 4.0, proxy.Budget.tokens(1e6)), DomainError,
     "noise_scale must be > 0, got 0.0"),
    (lambda: contours.tuned_bound(contours.ContourConstants(UNIT, 0.5), 0.5, 10.0), DomainError,
     "b must be >= 1, got 0.5"),
    (lambda: closed_form.optimal_fixed_batch(UNIT, 1.0, proxy.Budget.tokens(1e6), "bogus"),
     DomainError, "coefficients must be 'folded' or 'exact', got 'bogus'"),
    (lambda: closed_form.optimal_fixed_momentum_tokens(UNIT, 1.0, 10.0, 1000.0),
     BudgetTooSmallError, "token budget 10.0 is below batch size 1000.0; not even one step fits"),
    (lambda: proxy.bound_tokens(UNIT, proxy.HyperParams(0.1, 0.5, 8.0), 4.0),
     BudgetTooSmallError, "token budget 4.0 is below batch size 8.0"),
    (lambda: proxy.risk_tokens(UNIT, proxy.HyperParams(0.1, 0.5, 8.0), 2.0),
     BudgetTooSmallError, "token budget 2.0 is below batch size 8.0"),
    (lambda: schedules.NoiseModel(), DomainError, "NoiseModel needs q or heavy_tail_p"),
    (lambda: schedules.NoiseModel(q=1.5), DomainError, "q must be in (0, 1], got 1.5"),
    (lambda: schedules.PathExponents(kappa=-1.0, lam=0.5, p=0.5), DomainError,
     "kappa and lam must be >= 0, got -1.0, 0.5"),
    (lambda: schedules.PathExponents(kappa=0.5, lam=0.5, p=1.5), DomainError,
     "p must be in [0, 1], got 1.5"),
    (lambda: transfer.extrapolate(transfer.TunedConfig(1.0, 1.0, 0.1, 0.5), 10.0, "A"),
     DomainError, "unknown transfer regime 'A'"),
    (lambda: transfer.extrapolate_with_batch_change(transfer.TunedConfig(1.0, 1.0, 0.1, 0.5),
                                                    10.0, 4.0, "sgd"),
     DomainError, "unknown batch-change setting 'sgd'"),
    (lambda: grid.fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0]), DomainError,
     "xs and ys must match, got (2,) vs (3,)"),
]


@pytest.mark.parametrize("call, kind, text", MESSAGES, ids=[m[2][:40] for m in MESSAGES])
def test_failure_messages_are_unchanged(call, kind, text):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == text


# The integer rule's texts for counts given as a bool, a float or a value below the bound.
INTEGER_RULE = [
    (lambda: _matrix_spec((True, 2)), DomainError, "rows must be an integer >= 1, got True"),
    (lambda: _config(batch=True), DomainError, "batch must be an integer >= 1, got True"),
    (lambda: _config(seed=False), DomainError, "seed must be an integer >= 0, got False"),
    (lambda: sim.sweep_plan(1, [0.1], [1.0], [1], [10], True, 0, "lmo", "matched"), DomainError,
     "replicates must be an integer >= 1, got True"),
    (lambda: sim.sweep_plan(1, [0.1], [1.0], [1], [10], 1, False, "lmo", "matched"), DomainError,
     "seed must be an integer >= 0, got False"),
    (lambda: grid.verify(UNIT, grid.GridSpec(points_per_axis=4.0)), DomainError,
     "points_per_axis must be an integer >= 2, got 4.0"),
    (lambda: grid.GridSpec(points_per_axis=1), DomainError,
     "points_per_axis must be an integer >= 2, got 1"),
    (lambda: grid.GridSpec(points_per_axis=True), DomainError,
     "points_per_axis must be an integer >= 2, got True"),
    (lambda: grid.GridSpec(t_points=True), DomainError,
     "t_points must be an integer >= 1, got True"),
    (lambda: grid.GridSpec(t_points=0), DomainError, "t_points must be an integer >= 1, got 0"),
    (lambda: grid.GridSpec(t_points=2.0), DomainError, "t_points must be an integer >= 1, got 2.0"),
]


@pytest.mark.parametrize("call, kind, text", INTEGER_RULE, ids=[m[2] for m in INTEGER_RULE])
def test_counts_take_the_integer_rule_message(call, kind, text):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == text


# b and t are checked before any root or division; b may be below 1, t not 0
BOUND_DOMAIN = [
    (lambda: closed_form.bound_eta_star(UNIT, 0.5, -1.0, 1e6), "b must be > 0, got -1.0"),
    (lambda: closed_form.bound_eta_star(UNIT, 0.5, 1.0, -1e6), "t must be > 0, got -1000000.0"),
    (lambda: closed_form.bound_eta_star(UNIT, 0.5, 1.0, 0.0), "t must be > 0, got 0.0"),
    (lambda: closed_form.batch_star_given_momentum(UNIT, 0.5, 0.0), "t must be > 0, got 0.0"),
    (lambda: closed_form.batch_star_given_momentum(UNIT, 0.5, -1.0), "t must be > 0, got -1.0"),
    (lambda: closed_form.bound_eta_minimized(UNIT, 0.5, float("nan"), 1e6),
     "b must be > 0, got nan"),
    (lambda: closed_form.bound_eta_minimized(UNIT, 0.5, 1.0, float("nan")),
     "t must be > 0, got nan"),
]


@pytest.mark.parametrize("call, text", BOUND_DOMAIN, ids=[m[1] for m in BOUND_DOMAIN])
def test_bound_minimizers_name_a_bad_batch_or_budget(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == text


def test_bound_eta_star_accepts_a_batch_below_one():
    assert closed_form.bound_eta_star(UNIT, 0.5, 1e-3, 1e6) > 0
