"""Command-line surface.

Subcommands: plan, verify, transfer, contour, analyze, simulate,
compare-sgd.  ``_SPECS`` is the one table of options: each ``main`` call
builds a parser from it that lists every command but holds the options
of the named command only, and merges an optional declarative JSON config
(``--config``) whose keys match the option names; explicitly passed flags
win over the config, unknown config keys are rejected, a null value keeps
the default, and a value the flag would reject (a boolean for a number, a
fraction for an int) is rejected too.  Every command takes ``--out``;
``--format`` belongs to the commands with a table (verify, contour,
simulate), ``--seed`` to simulate and ``--threads`` to verify, which
checks it (>= 1) and ignores it: the grid sweep runs in one thread.  Each
command imports the lmoscale modules it runs when it runs, so start-up
loads only this module, ``errors`` and ``serialize``, and only the table
commands import numpy.

A table document is (schema, meta, rows of a record dataclass), written as
JSON or as a versioned CSV; ``records_from_csv`` reads any such CSV back
into its records through ``_TABLES``, the writer's table of the module and
class of each schema's record, so a table loads only its own module.  The
other documents are JSON built from the fields of the result dataclasses.
Exit codes: 0 ok, 2 invalid input (argument errors, non-finite numbers,
an unreadable config and an unwritable output file included), 3
infeasible request, 4 numerical failure or memory exhaustion.  Every
failure writes one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import lmoscale

from .errors import DomainError, InfeasibleError, NumericalError, _require
from .serialize import SCHEMA_PREFIX, _field_names, _fields, dumps_json, read_csv, write_csv

__all__ = ["main", "records_from_csv"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# Most step counts a contour samples: 10^5 take about 1 s and 100 MB on a
# 2-vCPU host, the document included.
MAX_K_POINTS = 10**5


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


_FORMAT = Opt("format", str, "json", choices=("csv", "json"), help="output format")
_RANGES = ("eta", "alpha", "b", "t")  # --<axis>-lo/--<axis>-hi span GridSpec.<axis>_range

_CONSTANTS = [
    Opt("c1", float, 1.0, help="proxy constant c1 (initial suboptimality)"),
    Opt("c2", float, 1.0, help="proxy constant c2 (2 rho sigma)"),
    Opt("c3", float, 1.0, help="proxy constant c3 (4 L)"),
    Opt("delta0", float, None, help="initial suboptimality (overrides c1/c2/c3 style)"),
    Opt("smoothness", float, None, help="gradient Lipschitz constant L"),
    Opt("noise-scale", float, None, help="per-sample gradient noise scale sigma"),
    Opt("norm-equiv", float, 1.0, help="dual-norm equivalence constant rho"),
]

_SPECS: dict[str, list[Opt]] = {  # every command also takes --out (appended below)
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
        # None: the ranges and --points take GridSpec()'s values when verify runs
        *(Opt(f"{axis}-{end}", float) for axis in _RANGES for end in ("lo", "hi")),
        Opt("points", int, help="grid points per axis"),
        Opt("t-points", int, None, help="budget-axis point count override"),
        Opt("fit-decades", float, 2.0, help="top decades of budget kept for the fits"),
        _FORMAT,
        Opt("threads", int, 1, help="accepted for compatibility (>= 1); has no effect"),
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
        Opt("k-points", int, 50, help=f"step counts sampled, at most {MAX_K_POINTS}"),
        Opt("eta-floor", float, None, help="lower bound of the step-size search"),
        _FORMAT,
    ],
    "analyze": [
        Opt("mode", str, None, required=True, choices=("rate", "ceiling", "noise", "path")),
        Opt("b-exp", float, 0.0, help="batch-growth exponent phi (rate mode)"),
        Opt("alpha-exp", float, 0.0, help="momentum decay exponent gamma (rate mode)"),
        Opt("eta-exp", float, 0.0, help="step-size decay exponent delta (rate mode)"),
        Opt("phi", float, None, help="batch-growth exponent (ceiling mode)"),
        Opt("q", float, None, help="mini-batch noise exponent (noise mode)"),
        Opt("tail-p", float, None, help="heavy-tail moment index, sets q = 1 - 1/p"),
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
        _FORMAT,
        Opt("seed", int, 0, help="master seed of the replicate noise streams"),
    ],
    "compare-sgd": [
        Opt("delta0", float, 1.0), Opt("smoothness", float, 1.0),
        Opt("noise-scale", float, 1.0),
        Opt("t", float, None, required=True),
        Opt("b", _float_list, (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6),
            help="comma-separated batch sizes"),
        Opt("alpha", float, 1.0, help="momentum complement for the contrast optimum"),
        Opt("enforce-cap", int, 0, choices=(0, 1),
            help="1 to apply the eta <= 1/L stability cap"),
    ],
}
for _opts in _SPECS.values():
    _opts.append(Opt("out", str, None, help="output path (default: stdout)"))

# CSV schema -> (lmoscale module, record class); one column per field, in field order
_TABLES = {"sweep/v1": ("grid", "SweepRecord"), "contour/v1": ("contours", "LevelPoint"),
           "sim-summary/v1": ("sim", "SimPoint"), "sim-points/v1": ("sim", "SimPoint")}
_COLUMN = {"at_edge": "clamped"}  # fields whose CSV column is named otherwise
# column text -> field value, by the field's type
_CELL = {float: float, int: int, str: str,
         tuple[str, ...]: lambda text: tuple(part for part in text.split("|") if part)}


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a DomainError, so they leave as one JSON line."""

    def error(self, message: str):
        raise DomainError(message)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every command's subparser, but only ``command``'s with its options.

    The empty subparsers keep the top-level help and the invalid-choice
    message whole; each ``add_argument`` builds a help formatter, which
    asks for the terminal size, so the other commands' options are skipped.
    """
    parser = _Parser(
        prog="lmoscale",
        description="Scaling-law engine for norm-constrained optimizer hyperparameters.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _SPECS:
        sub = subs.add_parser(name)
        if name != command:
            continue
        sub.add_argument("--config", help="JSON config file; explicit flags win")
        for opt in _SPECS[name]:
            metavar = "{" + ",".join(map(str, opt.choices)) + "}" if opt.choices else None
            sub.add_argument(f"--{opt.name}", dest=opt.dest, metavar=metavar, help=opt.help)
    return parser


def _flag_could_spell(opt: Opt, value) -> bool:
    """False for a config value that the option's flag would reject: a
    non-string for a string, a JSON boolean for a number, or a fraction for
    an int."""
    if opt.type is str:
        return isinstance(value, str)
    if any(isinstance(x, bool) for x in (value if isinstance(value, list) else (value,))):
        return False
    return not (opt.type is int and isinstance(value, float) and not value.is_integer())


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Options from the config, then the flags, each converted by its type."""
    spec = {opt.dest: opt for opt in _SPECS[command]}
    given: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        opt = spec[dest]
        try:
            if not _flag_could_spell(opt, value):
                raise TypeError
            values[dest] = opt.type(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise DomainError(f"option {opt.name!r}: invalid value {value!r}") from exc
    for dest, opt in spec.items():
        value = values[dest]
        if opt.choices and value is not None and value not in opt.choices:
            raise DomainError(f"--{opt.name} must be one of {opt.choices}, got {value!r}")
        if opt.type is float and value is not None and not math.isfinite(value):
            raise DomainError(f"option {opt.name!r} must be finite, got {value!r}")
        if opt.type is _float_list and not (value and all(math.isfinite(x) for x in value)):
            raise DomainError(f"option {opt.name!r} needs one or more finite numbers, got {value!r}")
    missing = [dest for dest, opt in spec.items() if opt.required and values[dest] is None]
    if missing:
        raise DomainError(f"missing required options for {command!r}: {', '.join(missing)}")
    return values


def _resolve_constants(v: dict):
    from .proxy import BoundConstants

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
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output {out}: {exc.strerror or exc}") from exc


def _json(schema: str, doc: dict) -> str:
    return dumps_json({"schema": f"{SCHEMA_PREFIX}/{schema}", **doc})


def _csv(schema: str, meta: dict, rows) -> str:
    """Rows of the schema's record class as CSV; null meta values are left out."""
    names = _field_names(_record_class(*_TABLES[schema]))
    return write_csv(schema, [_COLUMN.get(name, name) for name in names],
                     ([getattr(row, name) for name in names] for row in rows),
                     {key: value for key, value in meta.items() if value is not None})


def _emit_table(v: dict, schema: str, meta: dict, rows_key: str, rows,
                csv_meta: dict | None = None, json_tail: dict | None = None) -> None:
    """JSON {"schema", **meta, rows_key: rows, **json_tail}, or CSV with meta + csv_meta."""
    if v["format"] == "csv":
        text = _csv(schema, {**meta, **(csv_meta or {})}, rows)
    else:
        text = _json(schema, {**meta, rows_key: rows, **(json_tail or {})})
    _emit(text, v["out"])


def _record_class(module: str, name: str) -> type:
    return getattr(getattr(lmoscale, module), name)


def records_from_csv(text: str) -> list:
    """Read a table document written with ``--format csv`` back into its records.

    The ``# schema=`` line picks the record class from ``_TABLES`` and each
    column converts by its field's type; a document of another schema, or
    whose columns do not match the class, raises ``DomainError``.
    """
    import typing

    schema, _, header, rows = read_csv(text)
    table = _TABLES.get(schema.removeprefix(f"{SCHEMA_PREFIX}/"))
    if table is None:
        raise DomainError(f"not a table document: {schema}")
    cls = _record_class(*table)
    names = _field_names(cls)
    columns = [_COLUMN.get(name, name) for name in names]
    if header != columns:
        raise DomainError(f"{schema} needs the columns {columns}, got {header}")
    hints = typing.get_type_hints(cls)
    cells = [_CELL[hints[name]] for name in names]
    try:
        return [cls(**{name: cell(raw) for name, cell, raw in zip(names, cells, row, strict=True)})
                for row in rows]
    except ValueError as exc:
        raise DomainError(f"{schema}: bad row: {exc}") from exc


def _cmd_plan(v: dict) -> None:
    from . import closed_form
    from .proxy import Budget

    c = _resolve_constants(v)
    regime, t = v["regime"], v["t"]
    if regime == "fixed-momentum":
        alpha = v["alpha"]
        opt = closed_form.optimal_fixed_momentum_tokens(c, alpha, t, v["b"])
        c2e, c3e = closed_form.effective_constants(c, alpha)
        crossing = (2.0 * (c.c1 * c3e) ** 0.5 / c2e) ** 2 if c2e > 0 else None
        body = {"alpha": alpha, "eta_star": opt.eta_star, "b_star": opt.b_star,
                "risk_star": opt.risk_star, "clamped": opt.clamped, "tuning": opt.regime,
                "objective": opt.objective, "b_crossing_tokens": crossing}
    elif regime == "fixed-batch":
        if v["b"] is None:
            raise DomainError("fixed-batch planning needs --b")
        opt = closed_form.optimal_fixed_batch(c, v["b"], Budget.tokens(t))
        body = {"b": v["b"], **_fields(opt)}
    else:
        opt = closed_form.optimal_joint(c, t)
        body = {name: getattr(opt, name) for name in (
            "alpha_star", "b_star", "eta_star", "k_star", "risk_star", "alpha_root", "cubic",
            "cubic_residual", "asymptotic_alpha", "alpha_clamped", "b_clamped", "objective")}
    _emit(_json("plan/v1", {"regime": regime, "t": t, **body}), v["out"])


def _cmd_verify(v: dict) -> None:
    from . import grid

    c = _resolve_constants(v)
    default = grid.GridSpec()
    ranges = {f"{axis}_range": tuple(fill if end is None else end for end, fill in zip(
        (v[f"{axis}_lo"], v[f"{axis}_hi"]), getattr(default, f"{axis}_range"))) for axis in _RANGES}
    points = default.points_per_axis if v["points"] is None else v["points"]
    spec = grid.GridSpec(**ranges, points_per_axis=points, t_points=v["t_points"])
    kind = v["constraint"]
    if kind == "free":
        constraint = grid.Constraint.free()
    elif v["value"] is None:
        raise DomainError(f"constraint {kind!r} needs --value")
    else:
        constraint = {
            "fixed-alpha": grid.Constraint.fix_alpha,
            "fixed-b": grid.Constraint.fix_b,
            "fixed-eta": grid.Constraint.fix_eta,
            "capped-b": grid.Constraint.cap_b,
        }[kind](v["value"])
    _require(v["threads"] >= 1, "threads must be >= 1, got {}", v["threads"])
    grid._swept_axes(spec, constraint)  # an empty batch cap is exit 3 before a short window
    try:
        grid._check_fit_window(spec.t_axis(), v["fit_decades"])
        result = grid.sweep(c, spec, constraint, v["objective"])
        fits = grid.fit_sweep_exponents(result, decades=v["fit_decades"])
    except DomainError as exc:
        raise DomainError(f"{exc}; widen the fit window with --fit-decades or add budgets with "
                          "--t-points") from None
    burn_in = grid.detect_burn_in(result) if constraint.fixed_alpha is not None else None
    meta = {"constraint": constraint.tag, "objective": v["objective"], "burn_in_t": burn_in}
    _emit_table(v, "sweep/v1", meta, "records", result.records,
                csv_meta={f"fit_{name}_exponent": f.exponent for name, f in fits.items()},
                json_tail={"fits": fits})


def _cmd_transfer(v: dict) -> None:
    from . import transfer

    cfg = transfer.TunedConfig(t0=v["t0"], b0=v["b0"], eta0=v["eta0"], alpha0=v["alpha0"])
    if v["b1"] is not None:
        if v["setting"] is None:
            raise DomainError("batch-change transfer needs --setting")
        res = transfer.extrapolate_with_batch_change(
            cfg, v["t1"], v["b1"], transfer.BatchChangeSetting(v["setting"]), v["b_max"]
        )
        doc = {"mode": "batch-change", "setting": res.setting, "eta1": res.eta1,
               "alpha1": res.alpha1, "b1": res.b1, "flags": res.flags,
               "calibrated_invariants": {"c_eta": res.c_eta, "c_alpha": res.c_alpha}}
    else:
        if v["regime"] is None:
            raise DomainError("transfer needs --regime (or --b1 with --setting)")
        res = transfer.extrapolate(cfg, v["t1"], transfer.TransferRegime(v["regime"]), v["b_max"])
        # regime leads: the fields overwrite its value but keep its place
        doc = {"mode": "same-batch", "regime": res.regime, **_fields(res)}
    _emit(_json("transfer/v1", doc), v["out"])


def _cmd_contour(v: dict) -> None:
    import numpy as np

    from . import contours

    cc = contours.ContourConstants(_resolve_constants(v), v["alpha"])
    _require(v["k_points"] >= 1, "k-points must be >= 1, got {}", v["k_points"])
    _require(v["k_points"] <= MAX_K_POINTS, "--k-points must be <= {}, got {}", MAX_K_POINTS,
             v["k_points"])
    _require(v["k_lo"] > 0 and v["k_hi"] > 0, "k-lo and k-hi must be > 0")
    k_grid = np.logspace(np.log10(v["k_lo"]), np.log10(v["k_hi"]), v["k_points"])
    meta = _fields(contours.level_set(cc, v["target"], k_grid, v["eta_floor"]))
    _emit_table(v, "contour/v1", meta, "points", meta.pop("points"))


def _cmd_analyze(v: dict) -> None:
    from . import schedules

    mode = v["mode"]
    if mode == "rate":
        r = schedules.rate_exponents(
            schedules.PowerLawSchedule(v["b_exp"], v["alpha_exp"], v["eta_exp"])
        )
        body = {"exponents": dict(zip(schedules.TERM_NAMES, r.as_tuple())),
                "overall": r.overall, "diverging": r.diverging}
    elif mode == "ceiling":
        if v["phi"] is None:
            raise DomainError("ceiling mode needs --phi")
        body = _fields(schedules.aggressive_ceiling(v["phi"]))
    elif mode == "noise":
        q, p = v["q"], v["tail_p"]
        if q is None and p is None:
            raise DomainError("noise mode needs --q or --tail-p")
        model = schedules.NoiseModel(q, heavy_tail_p=p, init_error=v["init_error"])
        body = _fields(schedules.noise_exponent_sensitivity(model, v["b"], v["t"]))
    else:
        if v["kappa"] is None or v["lam"] is None or v["p"] is None:
            raise DomainError("path mode needs --kappa, --lam and --p")
        body = _fields(schedules.effective_eta_exponent(
            schedules.PathExponents(v["kappa"], v["lam"], v["p"])
        ))
    _emit(_json("analyze/v1", {"mode": mode, **body}), v["out"])


def _cmd_simulate(v: dict) -> None:
    import numpy as np

    from . import sim

    if v["kind"] == "noisy-quadratic":
        _require(v["dim"] >= 1, "dim must be >= 1, got {}", v["dim"])
        _require(v["spectrum_lo"] > 0 and v["spectrum_hi"] > 0, "spectrum bounds must be > 0")
        # the sweep's checks and bounds, before its --dim-long spectrum is built
        sim._sweep_plan(v["dim"], v["eta"], v["alpha"], v["b"], v["t"], v["replicates"],
                        v["seed"], v["update"], v["init"])
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
    meta = {"norm": v["norm"], "update": v["update"], "seed": v["seed"]}
    if v["format"] == "json":
        _emit(_json("sim-sweep/v1", {**meta, "best": result.best, "points": result.points}),
              v["out"])
        return
    _emit(_csv("sim-summary/v1", meta, result.best), v["out"])
    if v["out"] is not None:  # the evaluated points go to a second file
        _emit(_csv("sim-points/v1", meta, result.points), v["out"] + ".points.csv")


def _cmd_compare_sgd(v: dict) -> None:
    from . import closed_form, sgd
    from .proxy import BoundConstants, Budget

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
        "t": v["t"],
        "sgd": per_b,
        "sgd_value_relative_spread": spread,
        "lmo_fixed_momentum": {"alpha": v["alpha"], "b_star": lmo.b_star,
                               "eta_star": lmo.eta_star, "risk_star": lmo.risk_star,
                               "clamped": lmo.clamped},
    }
    _emit(_json("compare-sgd/v1", doc), v["out"])


_DISPATCH = {
    "plan": _cmd_plan,
    "verify": _cmd_verify,
    "transfer": _cmd_transfer,
    "contour": _cmd_contour,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "compare-sgd": _cmd_compare_sgd,
}


_ARITHMETIC = {OverflowError: "overflow", ZeroDivisionError: "division by zero"}


def _fail(code: int, message: str) -> int:
    sys.stderr.write(dumps_json({"error": message, "exit_code": code}))
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        # the top-level parser has only -h, so its first positional, the
        # command, is the first token that names one
        command = next((arg for arg in argv if arg in _SPECS), None)
        try:
            args = _build_parser(command).parse_args(argv)
        except SystemExit:  # only --help exits here; bad arguments raise DomainError
            return EXIT_OK
        _DISPATCH[args.command](_merge_config(args.command, args))
    except DomainError as exc:
        return _fail(EXIT_INVALID, str(exc))
    except InfeasibleError as exc:
        return _fail(EXIT_INFEASIBLE, str(exc))
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        kind = _ARITHMETIC.get(type(exc), "error")
        return _fail(EXIT_NUMERICAL, f"{args.command}: arithmetic {kind}; an input is too large "
                                     "or too small for 64-bit floats")
    except MemoryError:
        return _fail(EXIT_NUMERICAL, f"{args.command}: out of memory; ask for fewer grid points, "
                                     "step counts or replicates")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
