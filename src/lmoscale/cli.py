"""Command-line surface.

Subcommands: plan, verify, transfer, contour, analyze, simulate,
compare-sgd.  Every command reads an optional declarative JSON config
(``--config``) whose keys match the option names; explicitly passed flags
win over the config, unknown config keys are rejected, and a null value
keeps the default.  Exit codes: 0 ok, 2 invalid input (argument errors
included; non-finite numbers are rejected), 3 infeasible request,
4 numerical failure.  Every failure writes one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import closed_form, contours, grid, schedules, sgd, sim, transfer
from .errors import DomainError, InfeasibleError, NumericalError, _require
from .proxy import BoundConstants, Budget
from .serialize import dumps_json, read_csv, write_csv

__all__ = [
    "main",
    "sweep_records_from_csv",
    "contour_points_from_csv",
    "sim_points_from_csv",
]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _float_list(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(x) for x in text)
    return tuple(float(part) for part in str(text).split(",") if part.strip())


@dataclass(frozen=True)
class Opt:
    name: str
    type: object = float  # any callable str -> value
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_COMMON = [
    Opt("out", str, None, help="output path (default: stdout)"),
    Opt("format", str, "json", choices=("csv", "json"), help="output format"),
    Opt("seed", int, 0, help="master seed for seeded commands"),
    Opt("threads", int, 1, help="worker threads for grid sweeps"),
]

_CONSTANTS = [
    Opt("c1", float, 1.0, help="proxy constant c1 (initial suboptimality)"),
    Opt("c2", float, 1.0, help="proxy constant c2 (2 rho sigma)"),
    Opt("c3", float, 1.0, help="proxy constant c3 (4 L)"),
    Opt("delta0", float, None, help="initial suboptimality (overrides c1/c2/c3 style)"),
    Opt("smoothness", float, None, help="gradient Lipschitz constant L"),
    Opt("noise-scale", float, None, help="per-sample gradient noise scale sigma"),
    Opt("norm-equiv", float, 1.0, help="dual-norm equivalence constant rho"),
]

_SPECS: dict[str, list[Opt]] = {
    "plan": _CONSTANTS + [
        Opt("regime", str, None, required=True,
            choices=("fixed-momentum", "fixed-batch", "joint")),
        Opt("t", float, None, required=True, help="token budget"),
        Opt("alpha", float, 1.0, help="momentum complement (fixed-momentum regime)"),
        Opt("b", float, None, help="batch size (fixes it in fixed-momentum; required for fixed-batch)"),
    ],
    "verify": _CONSTANTS + [
        Opt("constraint", str, "free",
            choices=("free", "fixed-alpha", "fixed-b", "fixed-eta", "capped-b")),
        Opt("value", float, None, help="pinned/capped value for the constraint"),
        Opt("objective", str, "risk_tokens", choices=("risk_tokens", "bound_tokens")),
        Opt("eta-lo", float, 1e-15), Opt("eta-hi", float, 1e4),
        Opt("alpha-lo", float, 1e-10), Opt("alpha-hi", float, 1.0),
        Opt("b-lo", float, 1.0), Opt("b-hi", float, 1e15),
        Opt("t-lo", float, 1e2), Opt("t-hi", float, 1e22),
        Opt("points", int, 100, help="grid points per axis"),
        Opt("t-points", int, None, help="budget-axis point count override"),
        Opt("fit-decades", float, 2.0, help="top decades of budget kept for the fits"),
    ],
    "transfer": [
        Opt("t0", float, None, required=True), Opt("b0", float, 1.0),
        Opt("eta0", float, None, required=True), Opt("alpha0", float, 1.0),
        Opt("t1", float, None, required=True),
        Opt("regime", str, None, choices=("A", "B", "C", "D", "sgd"),
            help="transfer regime (batch size unchanged)"),
        Opt("b1", float, None, help="long-run batch size (batch-change transfer)"),
        Opt("setting", str, None,
            choices=("lmo-fixed-momentum", "lmo-tuned-momentum", "sgd"),
            help="family for the batch-change transfer"),
        Opt("b-max", float, None, help="hardware batch cap"),
    ],
    "contour": _CONSTANTS + [
        Opt("alpha", float, None, required=True),
        Opt("target", float, None, required=True, help="performance level to contour"),
        Opt("k-lo", float, 1.0), Opt("k-hi", float, 1e9),
        Opt("k-points", int, 50),
        Opt("eta-floor", float, None, help="lower bound of the step-size search"),
    ],
    "analyze": [
        Opt("mode", str, None, required=True, choices=("rate", "ceiling", "noise", "path")),
        Opt("b-exp", float, 0.0, help="batch-growth exponent phi (rate mode)"),
        Opt("alpha-exp", float, 0.0, help="momentum decay exponent gamma (rate mode)"),
        Opt("eta-exp", float, 0.0, help="step-size decay exponent delta (rate mode)"),
        Opt("phi", float, None, help="batch-growth exponent (ceiling mode)"),
        Opt("q", float, None, help="mini-batch noise exponent (noise mode)"),
        Opt("tail-p", float, None, help="heavy-tail moment index, sets q = 1 - 1/p"),
        Opt("sigma-q", float, 1.0),
        Opt("init-error", float, None, help="momentum start error for non-matched starts"),
        Opt("b", float, 1.0, help="batch size for the noise-mode point evaluation"),
        Opt("t", float, 1e12, help="token budget for the noise-mode point evaluation"),
        Opt("kappa", float, None, help="batch exponent of the step-size law (path mode)"),
        Opt("lam", float, None, help="step-count exponent of the step-size law (path mode)"),
        Opt("p", float, None, help="batch-growth exponent of the path (path mode)"),
    ],
    "simulate": [
        Opt("kind", str, "noisy-quadratic",
            choices=("noisy-quadratic", "matrix-least-squares")),
        Opt("dim", int, 50, help="quadratic dimension"),
        Opt("spectrum-lo", float, 0.05), Opt("spectrum-hi", float, 1.0),
        Opt("rows", int, 8), Opt("cols", int, 8),
        Opt("noise-sigma", float, 1.0),
        Opt("x0-scale", float, 1.0),
        Opt("data-seed", int, 0),
        Opt("norm", str, "max", choices=("euclidean", "max", "spectral")),
        Opt("update", str, "lmo", choices=("lmo", "sgd")),
        Opt("init", str, "matched", choices=("matched", "zero")),
        Opt("eta", _float_list, (0.001, 0.003, 0.01, 0.03, 0.1), help="comma-separated step sizes"),
        Opt("alpha", _float_list, (0.1,), help="comma-separated momentum complements"),
        Opt("b", _float_list, (32.0,), help="comma-separated batch sizes"),
        Opt("t", _float_list, (65536.0,), help="comma-separated token budgets"),
        Opt("replicates", int, 8),
    ],
    "compare-sgd": [
        Opt("delta0", float, 1.0), Opt("smoothness", float, 1.0),
        Opt("noise-scale", float, 1.0),
        Opt("t", float, None, required=True),
        Opt("b", _float_list, (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6),
            help="comma-separated batch sizes"),
        Opt("alpha", float, 1.0, help="momentum complement for the contrast optimum"),
        Opt("enforce-cap", int, 0, help="1 to apply the eta <= 1/L stability cap"),
    ],
}


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a DomainError, so they leave as one JSON line."""

    def error(self, message: str):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lmoscale",
        description="Scaling-law engine for norm-constrained optimizer hyperparameters.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, opts in _SPECS.items():
        sub = subs.add_parser(command)
        sub.add_argument("--config", type=str, default=None,
                         help="JSON config file; explicit flags win")
        for opt in opts + _COMMON:
            kwargs: dict = {"dest": opt.dest, "default": None, "help": opt.help}
            if opt.choices:
                kwargs["choices"] = opt.choices
            sub.add_argument(f"--{opt.name}", **kwargs)
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Options from the config, then the flags, each converted by its type."""
    spec = {opt.dest: opt for opt in _SPECS[command] + _COMMON}
    given: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise DomainError("config file must hold a JSON object")
        for key, value in raw.items():
            dest = key.replace("-", "_")
            if dest not in spec:
                raise DomainError(f"unknown config field {key!r} for command {command!r}")
            if value is not None:  # null leaves the option at its default
                given[dest] = value
    given.update((dest, getattr(args, dest)) for dest in spec if getattr(args, dest) is not None)
    values = {dest: opt.default for dest, opt in spec.items()}
    for dest, value in given.items():
        try:
            values[dest] = spec[dest].type(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise DomainError(f"option {spec[dest].name!r}: invalid value {value!r}") from exc
    missing = [dest for dest, opt in spec.items() if opt.required and values[dest] is None]
    if missing:
        raise DomainError(f"missing required options for {command!r}: {', '.join(missing)}")
    for dest, opt in spec.items():
        value = values[dest]
        if opt.choices and value is not None and value not in opt.choices:
            raise DomainError(f"{dest} must be one of {opt.choices}, got {value!r}")
        if opt.type is float and value is not None and not math.isfinite(value):
            raise DomainError(f"option {opt.name!r} must be finite, got {value!r}")
        if opt.type is _float_list and not (value and all(math.isfinite(x) for x in value)):
            raise DomainError(f"option {opt.name!r} needs one or more finite numbers, got {value!r}")
    return values


def _resolve_constants(v: dict) -> BoundConstants:
    direct = (v["delta0"], v["smoothness"], v["noise_scale"])
    if any(x is not None for x in direct):
        if any(x is None for x in direct):
            raise DomainError("delta0, smoothness and noise_scale must be given together")
        return BoundConstants(*direct, v["norm_equiv"])
    return BoundConstants.from_proxy_constants(v["c1"], v["c2"], v["c3"])


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_plan(v: dict) -> None:
    c = _resolve_constants(v)
    regime, t = v["regime"], v["t"]
    doc: dict = {"schema": "lmoscale/plan/v1", "regime": regime, "t": t}
    if regime == "fixed-momentum":
        alpha = v["alpha"]
        opt = closed_form.optimal_fixed_momentum_tokens(c, alpha, t, v["b"])
        c2e, c3e = closed_form.effective_constants(c, alpha)
        crossing = (2.0 * (c.c1 * c3e) ** 0.5 / c2e) ** 2 if c2e > 0 else None
        doc.update(
            alpha=alpha,
            eta_star=opt.eta_star,
            b_star=opt.b_star,
            risk_star=opt.risk_star,
            clamped=opt.clamped,
            tuning=opt.regime,
            objective=opt.objective,
            b_crossing_tokens=crossing,
        )
    elif regime == "fixed-batch":
        if v["b"] is None:
            raise DomainError("fixed-batch planning needs --b")
        opt = closed_form.optimal_fixed_batch(c, v["b"], Budget.tokens(t))
        doc.update(
            b=v["b"],
            alpha_star=opt.alpha_star,
            eta_star=opt.eta_star,
            risk_star=opt.risk_star,
            clamped=opt.clamped,
            burn_in_ratio=opt.burn_in_ratio,
            smoothness_ratio=opt.smoothness_ratio,
            objective=opt.objective,
        )
    else:
        opt = closed_form.optimal_joint(c, t)
        doc.update(
            alpha_star=opt.alpha_star,
            b_star=opt.b_star,
            eta_star=opt.eta_star,
            k_star=opt.k_star,
            risk_star=opt.risk_star,
            alpha_root=opt.alpha_root,
            cubic={"a3": opt.cubic.a3, "a1": opt.cubic.a1, "a0": opt.cubic.a0},
            cubic_residual=opt.cubic_residual,
            asymptotic_alpha=opt.asymptotic_alpha,
            alpha_clamped=opt.alpha_clamped,
            b_clamped=opt.b_clamped,
            objective=opt.objective,
        )
    _emit(dumps_json(doc), v["out"])


def _verify_constraint(v: dict) -> grid.Constraint:
    kind = v["constraint"]
    if kind == "free":
        return grid.Constraint.free()
    if v["value"] is None:
        raise DomainError(f"constraint {kind!r} needs --value")
    return {
        "fixed-alpha": grid.Constraint.fix_alpha,
        "fixed-b": grid.Constraint.fix_b,
        "fixed-eta": grid.Constraint.fix_eta,
        "capped-b": grid.Constraint.cap_b,
    }[kind](v["value"])


def _cmd_verify(v: dict) -> None:
    c = _resolve_constants(v)
    spec = grid.GridSpec(
        eta_range=(v["eta_lo"], v["eta_hi"]),
        alpha_range=(v["alpha_lo"], v["alpha_hi"]),
        b_range=(v["b_lo"], v["b_hi"]),
        t_range=(v["t_lo"], v["t_hi"]),
        points_per_axis=v["points"],
        t_points=v["t_points"],
    )
    constraint = _verify_constraint(v)
    result = grid.sweep(c, spec, constraint, v["objective"], threads=v["threads"])
    fits = grid.fit_sweep_exponents(result, decades=v["fit_decades"])
    burn_in = grid.detect_burn_in(result) if constraint.fixed_alpha is not None else None
    fit_doc = {
        name: {
            "exponent": f.exponent,
            "coefficient": f.coefficient,
            "r_squared": f.r_squared,
            "window": list(f.window),
            "n_points": f.n_points,
        }
        for name, f in fits.items()
    }
    rows = [
        (r.t, r.eta, r.alpha, r.b, r.risk, "|".join(r.at_edge)) for r in result.records
    ]
    if v["format"] == "csv":
        meta: dict = {"constraint": constraint.tag, "objective": v["objective"]}
        if burn_in is not None:
            meta["burn_in_t"] = burn_in
        for name, f in fits.items():
            meta[f"fit_{name}_exponent"] = f.exponent
        text = write_csv("sweep/v1", ["t", "eta", "alpha", "b", "risk", "clamped"], rows, meta)
    else:
        text = dumps_json(
            {
                "schema": "lmoscale/sweep/v1",
                "constraint": constraint.tag,
                "objective": v["objective"],
                "burn_in_t": burn_in,
                "records": [
                    {"t": r.t, "eta": r.eta, "alpha": r.alpha, "b": r.b,
                     "risk": r.risk, "at_edge": list(r.at_edge)}
                    for r in result.records
                ],
                "fits": fit_doc,
            }
        )
    _emit(text, v["out"])


def sweep_records_from_csv(text: str) -> list[grid.SweepRecord]:
    """Re-parse a verify CSV into sweep records (lossless round trip)."""
    schema, _, header, rows = read_csv(text)
    if schema != "lmoscale/sweep/v1":
        raise DomainError(f"not a sweep document: {schema}")
    assert header == ["t", "eta", "alpha", "b", "risk", "clamped"]
    return [
        grid.SweepRecord(
            t=float(r[0]), eta=float(r[1]), alpha=float(r[2]), b=float(r[3]),
            risk=float(r[4]), at_edge=tuple(part for part in r[5].split("|") if part),
        )
        for r in rows
    ]


def contour_points_from_csv(text: str) -> list[contours.LevelPoint]:
    """Re-parse a contour CSV into level-set points (lossless round trip)."""
    schema, _, header, rows = read_csv(text)
    if schema != "lmoscale/contour/v1":
        raise DomainError(f"not a contour document: {schema}")
    assert header == ["k", "b", "regime", "det_fraction", "burn_fraction", "floor_fraction"]
    return [
        contours.LevelPoint(
            k=float(r[0]), b=float(r[1]), regime=r[2], det_fraction=float(r[3]),
            burn_fraction=float(r[4]), floor_fraction=float(r[5]),
        )
        for r in rows
    ]


def sim_points_from_csv(text: str) -> list[sim.SimPoint]:
    """Re-parse a simulate CSV (summary or points file) into sim points."""
    schema, _, header, rows = read_csv(text)
    if schema not in ("lmoscale/sim-summary/v1", "lmoscale/sim-points/v1"):
        raise DomainError(f"not a simulation document: {schema}")
    assert header == ["t", "eta", "alpha", "b", "steps", "metric", "replicates"]
    return [
        sim.SimPoint(
            t=float(r[0]), eta=float(r[1]), alpha=float(r[2]), b=int(r[3]),
            steps=int(r[4]), metric=float(r[5]), replicates=int(r[6]),
        )
        for r in rows
    ]


def _cmd_transfer(v: dict) -> None:
    cfg = transfer.TunedConfig(t0=v["t0"], b0=v["b0"], eta0=v["eta0"], alpha0=v["alpha0"])
    if v["b1"] is not None:
        if v["setting"] is None:
            raise DomainError("batch-change transfer needs --setting")
        res = transfer.extrapolate_with_batch_change(
            cfg, v["t1"], v["b1"], transfer.BatchChangeSetting(v["setting"]), v["b_max"]
        )
        doc = {
            "schema": "lmoscale/transfer/v1",
            "mode": "batch-change",
            "setting": res.setting.value,
            "eta1": res.eta1,
            "alpha1": res.alpha1,
            "b1": res.b1,
            "flags": list(res.flags),
            "calibrated_invariants": {"c_eta": res.c_eta, "c_alpha": res.c_alpha},
        }
    else:
        if v["regime"] is None:
            raise DomainError("transfer needs --regime (or --b1 with --setting)")
        res = transfer.extrapolate(cfg, v["t1"], transfer.TransferRegime(v["regime"]), v["b_max"])
        doc = {
            "schema": "lmoscale/transfer/v1",
            "mode": "same-batch",
            "regime": res.regime.value,
            "eta1": res.eta1,
            "alpha1": res.alpha1,
            "b1": res.b1,
            "flags": list(res.flags),
        }
    _emit(dumps_json(doc), v["out"])


def _cmd_contour(v: dict) -> None:
    cc = contours.ContourConstants(_resolve_constants(v), v["alpha"])
    _require(v["k_points"] >= 1, f"k-points must be >= 1, got {v['k_points']}")
    _require(v["k_lo"] > 0 and v["k_hi"] > 0, "k-lo and k-hi must be > 0")
    k_grid = np.logspace(np.log10(v["k_lo"]), np.log10(v["k_hi"]), v["k_points"])
    ls = contours.level_set(cc, v["target"], k_grid, v["eta_floor"])
    meta = {
        "target": ls.target,
        "k_min": ls.k_min,
        "b_min": ls.b_min,
        "k0": ls.k0,
        "hyperbola_residual": ls.hyperbola_residual,
    }
    if v["format"] == "csv":
        rows = [
            (p.k, p.b, p.regime, p.det_fraction, p.burn_fraction, p.floor_fraction)
            for p in ls.points
        ]
        text = write_csv(
            "contour/v1",
            ["k", "b", "regime", "det_fraction", "burn_fraction", "floor_fraction"],
            rows,
            meta,
        )
    else:
        text = dumps_json(
            {
                "schema": "lmoscale/contour/v1",
                **meta,
                "points": [
                    {"k": p.k, "b": p.b, "regime": p.regime,
                     "det_fraction": p.det_fraction, "burn_fraction": p.burn_fraction,
                     "floor_fraction": p.floor_fraction}
                    for p in ls.points
                ],
            }
        )
    _emit(text, v["out"])


def _cmd_analyze(v: dict) -> None:
    mode = v["mode"]
    doc: dict = {"schema": "lmoscale/analyze/v1", "mode": mode}
    if mode == "rate":
        r = schedules.rate_exponents(
            schedules.PowerLawSchedule(v["b_exp"], v["alpha_exp"], v["eta_exp"])
        )
        doc.update(
            exponents=dict(zip(schedules.TERM_NAMES, r.as_tuple())),
            overall=r.overall,
            diverging=list(r.diverging),
        )
    elif mode == "ceiling":
        if v["phi"] is None:
            raise DomainError("ceiling mode needs --phi")
        ceil = schedules.aggressive_ceiling(v["phi"])
        doc.update(
            phi=ceil.phi,
            delta_star=ceil.delta_star,
            rate_exponent=ceil.rate_exponent,
            k_exponent=ceil.k_exponent,
            rate_exponent_in_k=ceil.rate_exponent_in_k,
        )
    elif mode == "noise":
        if v["tail_p"] is not None:
            model = schedules.NoiseModel.heavy_tailed(v["tail_p"], v["sigma_q"])
        elif v["q"] is not None:
            model = schedules.NoiseModel(v["q"], v["sigma_q"], init_error=v["init_error"])
        else:
            raise DomainError("noise mode needs --q or --tail-p")
        sens = schedules.noise_exponent_sensitivity(model, v["b"], v["t"])
        doc.update(
            q=sens.q,
            alpha_b_exp=sens.alpha_b_exp,
            alpha_k_exp=sens.alpha_k_exp,
            eta_b_exp=sens.eta_b_exp,
            eta_k_exp=sens.eta_k_exp,
            perf_b_exponent=sens.perf_b_exponent,
            interpretation=sens.interpretation,
            perf_scale=sens.perf_scale,
            init_error=sens.init_error,
        )
    else:
        if v["kappa"] is None or v["lam"] is None or v["p"] is None:
            raise DomainError("path mode needs --kappa, --lam and --p")
        analysis = schedules.effective_eta_exponent(
            schedules.PathExponents(v["kappa"], v["lam"], v["p"])
        )
        doc.update(
            q_eff=analysis.q_eff,
            threshold_p=analysis.threshold_p,
            alpha_saturates=analysis.alpha_saturates,
        )
    _emit(dumps_json(doc), v["out"])


def _cmd_simulate(v: dict) -> None:
    _require(v["seed"] >= 0 and v["data_seed"] >= 0, "seed and data-seed must be >= 0")
    if v["kind"] == "noisy-quadratic":
        _require(v["dim"] >= 1, f"dim must be >= 1, got {v['dim']}")
        _require(v["spectrum_lo"] > 0 and v["spectrum_hi"] > 0, "spectrum bounds must be > 0")
        spectrum = tuple(np.geomspace(v["spectrum_lo"], v["spectrum_hi"], v["dim"]))
        spec = sim.ObjectiveSpec(
            kind="noisy-quadratic", noise_sigma=v["noise_sigma"], spectrum=spectrum,
            x0_scale=v["x0_scale"], data_seed=v["data_seed"],
        )
    else:
        spec = sim.ObjectiveSpec(
            kind="matrix-least-squares", noise_sigma=v["noise_sigma"],
            dims=(v["rows"], v["cols"]), x0_scale=v["x0_scale"], data_seed=v["data_seed"],
        )
    result = sim.sweep_sim(
        spec,
        sim.NormKind(v["norm"]),
        v["eta"],
        v["alpha"],
        v["b"],
        v["t"],
        replicates=v["replicates"],
        seed=v["seed"],
        update=v["update"],
        init=v["init"],
    )
    header = ["t", "eta", "alpha", "b", "steps", "metric", "replicates"]

    def row(p: sim.SimPoint):
        return (p.t, p.eta, p.alpha, p.b, p.steps, p.metric, p.replicates)

    if v["format"] == "csv":
        text = write_csv("sim-summary/v1", header, [row(p) for p in result.best],
                         {"norm": v["norm"], "update": v["update"], "seed": v["seed"]})
        _emit(text, v["out"])
        if v["out"] is not None:
            points_path = v["out"] + ".points.csv"
            _emit(write_csv("sim-points/v1", header, [row(p) for p in result.points],
                            {"norm": v["norm"], "update": v["update"], "seed": v["seed"]}),
                  points_path)
    else:
        def doc(p: sim.SimPoint):
            return dict(zip(header, row(p)))

        _emit(
            dumps_json(
                {
                    "schema": "lmoscale/sim-sweep/v1",
                    "norm": v["norm"],
                    "update": v["update"],
                    "seed": v["seed"],
                    "best": [doc(p) for p in result.best],
                    "points": [doc(p) for p in result.points],
                }
            ),
            v["out"],
        )


def _cmd_compare_sgd(v: dict) -> None:
    budget = Budget.tokens(v["t"])
    per_b = []
    for b in v["b"]:
        tuned = sgd.sgd_tuned(
            v["delta0"], v["smoothness"], v["noise_scale"], b, budget,
            enforce_cap=bool(v["enforce_cap"]),
        )
        per_b.append(
            {"b": b, "eta_star": tuned.eta_star, "value": tuned.value, "capped": tuned.capped}
        )
    values = [entry["value"] for entry in per_b]
    spread = (max(values) - min(values)) / min(values)
    c = BoundConstants(v["delta0"], v["smoothness"], v["noise_scale"])
    lmo = closed_form.optimal_fixed_momentum_tokens(c, v["alpha"], v["t"])
    doc = {
        "schema": "lmoscale/compare-sgd/v1",
        "t": v["t"],
        "sgd": per_b,
        "sgd_value_relative_spread": spread,
        "lmo_fixed_momentum": {
            "alpha": v["alpha"],
            "b_star": lmo.b_star,
            "eta_star": lmo.eta_star,
            "risk_star": lmo.risk_star,
            "clamped": lmo.clamped,
        },
    }
    _emit(dumps_json(doc), v["out"])


_DISPATCH = {
    "plan": _cmd_plan,
    "verify": _cmd_verify,
    "transfer": _cmd_transfer,
    "contour": _cmd_contour,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "compare-sgd": _cmd_compare_sgd,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # only --help exits here; bad arguments raise DomainError
            return EXIT_OK
        values = _merge_config(args.command, args)
        _DISPATCH[args.command](values)
    except DomainError as exc:
        sys.stderr.write(dumps_json({"error": str(exc), "exit_code": EXIT_INVALID}))
        return EXIT_INVALID
    except InfeasibleError as exc:
        sys.stderr.write(dumps_json({"error": str(exc), "exit_code": EXIT_INFEASIBLE}))
        return EXIT_INFEASIBLE
    except (NumericalError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        sys.stderr.write(dumps_json({"error": str(exc), "exit_code": EXIT_NUMERICAL}))
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
