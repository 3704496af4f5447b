"""Per-layer metrics of a traced run: span totals plus work counters.

Span metrics are ``<module>.<function>.calls`` and ``.self_s`` (self time =
span duration minus the time its child spans cover) and ``<module>.self_s``
summed over the module's functions.  Work counters come from the requests'
inputs and outputs, never from inside the program, and every ratio is
reported next to its base.
"""

from __future__ import annotations

import json
import math

import numpy as np

from tracing import LAYERS

__all__ = ["per_layer_metrics"]

# The grid ranges the CLI uses when a verify request does not set them.
_GRID_DEFAULTS = {"b": (1.0, 1e15), "t": (1e2, 1e22)}


def _log_axis(lo: float, hi: float, n: int) -> np.ndarray:
    return np.logspace(math.log10(lo), math.log10(hi), n) if n > 1 else np.array([lo])


def _grid_cells(info: dict) -> int:
    """Sum over budgets of feasible batches x step sizes x momenta, as the sweep evaluates."""
    n = info["points"]
    constraint, value = info["constraint"], info["value"]
    b = np.array([value]) if constraint == "fixed-b" else _log_axis(*_GRID_DEFAULTS["b"], n)
    if constraint == "capped-b":
        b = b[b <= value]
    n_eta = 1 if constraint == "fixed-eta" else n
    n_alpha = 1 if constraint == "fixed-alpha" else n
    feasible = np.searchsorted(b, _log_axis(*_GRID_DEFAULTS["t"], n), side="right")
    return int(feasible.sum()) * n_eta * n_alpha


def _replicate_steps(info: dict) -> int:
    """Sum of H * R * K over the sweep's (budget, batch, momentum) runs."""
    h, r = len(info["etas"]), info["replicates"]
    return sum(
        h * r * max(1, round(t / b)) * len(info["alphas"])
        for t in info["budgets"] for b in info["batches"]
    )


def _sweep_records(text: str) -> list[bool]:
    """Per verify record: is its argmin on a grid edge?"""
    if text.startswith("# schema="):
        return [bool(line.rsplit(",", 1)[1]) for line in text.splitlines()[2:]]
    return [bool(r["at_edge"]) for r in json.loads(text)["records"]]


def _sim_metrics(text: str) -> list[float]:
    """Metrics visible in a simulate output: all points (JSON) or the per-budget best (CSV)."""
    if text.startswith("# schema="):
        return [float(line.split(",")[5]) for line in text.splitlines()[2:]]
    return [p["metric"] for p in json.loads(text)["points"]]


def per_layer_metrics(tracer, executed_blocks, outcomes, traced_wall: float,
                      untraced_wall: float) -> dict:
    by = tracer.by_name()
    m: dict = {}

    def span(name: str, calls: bool = False) -> dict:
        s = by.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        m[f"{name}.self_s"] = (s["self_s"], "s")
        if calls:
            m[f"{name}.calls"] = (s["calls"], "count")
        return s

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s["self_s"] for name, s in by.items()
                                    if name.split(".")[0] == layer), "s")

    requests = [req for block in executed_blocks for req in block]
    results = [o for block in outcomes for o in block]

    # grid
    sweep = span("grid.sweep", calls=True)
    dur, own, parent = tracer.durations()
    names = np.frombuffer(tracer.name_of, dtype=np.uint16)
    request_ids = np.frombuffer(tracer.request, dtype=np.int64)
    threads_of = {req.rid: req.info.get("threads", 1) for req in requests}
    if "grid.sweep" in tracer.names:
        is_sweep = names == tracer.names.index("grid.sweep")
        for threads in (1, 2):
            pick = is_sweep & np.isin(request_ids, [rid for rid, t in threads_of.items()
                                                    if t == threads])
            m[f"grid.sweep.threads{threads}.self_s"] = (float(own[pick].sum()), "s")
    else:
        for threads in (1, 2):
            m[f"grid.sweep.threads{threads}.self_s"] = (0.0, "s")
    verify = [(req, o) for req, o in zip(requests, results)
              if req.argv and req.argv[0] == "verify" and o.exit == 0]
    cells = sum(_grid_cells(req.info) for req, _ in verify)
    m["grid.cells"] = (cells, "count")
    m["grid.cells_per_s"] = (cells / sweep["total_s"] if sweep["total_s"] else 0.0, "1/s")
    span("grid.fit_sweep_exponents")
    edges = [e for _, o in verify for e in _sweep_records(o.text)]
    m["grid.records"] = (len(edges), "count")
    m["grid.records_at_edge"] = (sum(edges), "count")
    m["grid.fit_kept_ratio"] = ((len(edges) - sum(edges)) / len(edges) if edges else 0.0,
                                "ratio")

    # sim
    sweep_sim = span("sim.sweep_sim", calls=True)
    simulate = [(req, o) for req, o in zip(requests, results)
                if req.argv and req.argv[0] == "simulate" and o.exit == 0]
    steps = sum(_replicate_steps(req.info) for req, _ in simulate)
    m["sim.replicate_steps"] = (steps, "count")
    m["sim.replicate_steps_per_s"] = (
        steps / sweep_sim["total_s"] if sweep_sim["total_s"] else 0.0, "1/s")
    span("sim.momentum_update", calls=True)
    m["sim.points"] = (sum(len(r.info["etas"]) * len(r.info["alphas"]) * len(r.info["batches"])
                           * len(r.info["budgets"]) for r, _ in simulate), "count")
    m["sim.points_aborted"] = (sum(math.isinf(x) for _, o in simulate
                                   for x in _sim_metrics(o.text)), "count")
    span("sim.lmo_direction", calls=True)
    polar = span("sim.polar_factor", calls=True)
    m["sim.polar_calls_per_replicate_step"] = (polar["calls"] / steps if steps else 0.0, "ratio")

    # closed forms, proxies and the other library layers
    span("closed_form.optimal_joint", calls=True)
    for name in ("closed_form.solve_momentum_cubic", "closed_form.optimal_fixed_batch",
                 "closed_form.optimal_fixed_momentum_tokens", "proxy.bound_tokens",
                 "proxy.risk_tokens", "proxy.risk_steps", "transfer.extrapolate",
                 "sgd.sgd_tuned"):
        span(name)
    span("contours.tuned_bound", calls=True)
    span("contours.level_set")
    span("schedules.rate_exponents")

    # command line and serialization
    span("cli.main", calls=True)
    span("serialize.dumps_json")
    span("serialize.write_csv")
    m["serialize.bytes_out"] = (sum(len(o.text.encode()) + len(o.err.encode())
                                    for req, o in zip(requests, results) if req.kind == "cli"),
                                "bytes")

    # the trace itself
    top = float(dur[parent < 0].sum())
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m["trace.untraced_s"] = (untraced_wall, "s")
    m["trace.traced_s"] = (traced_wall, "s")
    m["trace.top_span_coverage"] = (top / traced_wall, "ratio")
    m["trace.spans"] = (len(tracer), "count")
    return m
