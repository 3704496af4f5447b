"""Independent oracles used to cross-check closed forms, the simulator and the CLI parser.

These stay deliberately dumb: golden-section line search, plain bisection,
iterative local grid refinement, a cell-by-cell grid argmin, a simulator
step loop that runs one (budget, batch, momentum) group at a time, and a
CLI parser that holds every command's options.  None of them share code with the package's own
solvers; the simulator reference takes only the objective, the noise
sampler and the polar factor from the package, and the parser reference
only the option table and the parser class.  The JSON writer reference is
the writer as first written, an ``isinstance`` chain over a dict of each
dataclass's fields.
"""

import dataclasses
import functools
import json
import math
from enum import Enum

import numpy as np

from lmoscale.errors import DomainError

from lmoscale.cli import _SPECS, _Parser
from lmoscale.sim import (
    NormKind,
    _noise_factory,
    _Objective,
    integer_batch,
    momentum_update,
    polar_factor,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min_log(f, lo, hi, iters=200):
    """Golden-section minimum of a unimodal f over [lo, hi], searched in log space."""
    a, b = math.log(lo), math.log(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(math.exp(d))
    x = math.exp(0.5 * (a + b))
    return x, f(x)


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert flo * fhi < 0, "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def refine_min(f, start, rounds=70, span=4.0, n=9):
    """Coordinate-wise local log-grid refinement of a multivariate minimum.

    ``start`` maps parameter names to initial values; ``f`` takes such a
    dict and may return inf for out-of-domain points.  Each round scans a
    shrinking log-grid around the incumbent along every axis.
    """
    x = dict(start)
    half = math.log(span)
    for _ in range(rounds):
        for key in x:
            offsets = [half * (2.0 * i / (n - 1) - 1.0) for i in range(n)]
            candidates = [x[key] * math.exp(u) for u in offsets]
            values = [f({**x, key: c}) for c in candidates]
            x[key] = candidates[min(range(n), key=values.__getitem__)]
        half *= 0.7
    return x, f(x)


def first_argmin(u, v, t):
    """Flat index and value of the first minimum of u / t + v, one cell at a time.

    Like ``np.argmin``, a NaN value wins at once and ties go to the earlier cell.
    """
    best = None
    for i, (a, c) in enumerate(zip(np.ravel(u).tolist(), np.ravel(v).tolist())):
        value = a / t + c
        if math.isnan(value):
            return i, value
        if best is None or value < best[1]:
            best = (i, value)
    return best


# --------------------------------------------------------------------------
# Simulator reference: one group at a time, a fresh array per operation.


def _reference_directions(m, norm, var_ndim):
    if norm is NormKind.EUCLIDEAN:
        axes = tuple(range(-var_ndim, 0))
        scale = np.sqrt(np.sum(m * m, axis=axes, keepdims=True))
        return np.where(scale > 0, -m / np.where(scale > 0, scale, 1.0), 0.0)
    if norm is NormKind.MAX:
        return -np.sign(m)
    return -polar_factor(m)


def _reference_dual_norms(g, norm, var_ndim):
    axes = tuple(range(-var_ndim, 0))
    if norm is NormKind.EUCLIDEAN:
        return np.sqrt(np.sum(g * g, axis=axes))
    if norm is NormKind.MAX:
        return np.sum(np.abs(g), axis=axes)
    finite = np.isfinite(g).all(axis=axes)
    svals = np.linalg.svd(np.where(finite[..., None, None], g, 0.0), compute_uv=False)
    return np.where(finite, svals.sum(axis=-1), np.inf)


@np.errstate(over="ignore", invalid="ignore")
def reference_group(obj, norm, update, etas, alpha, batch, steps, seed_seqs, init,
                    record=False, chunk=512):
    """One (budget, batch, momentum) group, run on its own with its own step loop.

    The noise of each generator is drawn in 512-step chunks and stacked, as
    the simulator did before its groups ran in lockstep.  Every noise draw
    is split-invariant, so the chunk length does not change any value and
    the lockstep loop's own chunks need not match it.  Returns (best
    (H, R), aborted (H, R), trace (steps,) or None, final iterates (H, R,
    *var)).
    """
    var_shape = obj.x0.shape
    var_ndim = obj.x0.ndim
    h, r = len(etas), len(seed_seqs)
    gens = [np.random.default_rng(s) for s in seed_seqs]
    noise = _noise_factory(obj.spec, batch)

    x = np.broadcast_to(obj.x0, (h, r) + var_shape).copy()
    eta_col = np.asarray(etas, dtype=float).reshape((h, 1) + (1,) * var_ndim)
    if init == "matched":
        g0 = obj.grad(obj.x0)
        if noise is not None:
            n0 = np.stack([noise(gen, var_shape) for gen in gens])
        else:
            n0 = np.zeros((r,) + var_shape)
        m = np.broadcast_to(g0 + n0, (h, r) + var_shape).copy()
    elif init == "zero":
        m = np.zeros((h, r) + var_shape)

    best = np.full((h, r), np.inf)
    aborted = np.zeros((h, r), dtype=bool)
    trace = np.empty(steps) if record else None
    done = 0
    g_true = np.broadcast_to(obj.grad(obj.x0), (h, r) + var_shape)
    while done < steps:
        n = min(chunk, steps - done)
        if noise is not None:
            draws = np.stack([noise(gen, (n,) + var_shape) for gen in gens], axis=1)
        else:
            draws = None
        for i in range(n):
            g = g_true if draws is None else g_true + draws[i]
            m = momentum_update(m, g, alpha)
            if update == "lmo":
                x = x + eta_col * _reference_directions(m, norm, var_ndim)
            else:
                x = x - eta_col * m
            g_true = obj.grad(x)
            norms = _reference_dual_norms(g_true, norm, var_ndim)
            bad = ~np.isfinite(norms)
            if bad.any():
                aborted |= bad
                norms = np.where(bad, np.inf, norms)
            np.minimum(best, norms, out=best)
            if record:
                trace[done + i] = norms[0, 0]
        done += n
    return best, aborted, trace, x


def reference_sweep(spec, norm, eta_grid, alpha_grid, b_grid, t_grid, replicates, seed,
                    update="lmo", init="matched"):
    """The sweep as one reference_group call per (budget, batch, momentum) group.

    Returns a list of (t, b, alpha, steps, best, aborted, final iterates)
    in the sweep's point order.
    """
    obj = _Objective(spec)
    etas = np.sort(np.asarray(eta_grid, dtype=float))
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    batches = sorted(integer_batch(b) for b in np.asarray(b_grid, dtype=float))
    groups = []
    for ti, t in enumerate(np.asarray(t_grid, dtype=float)):
        for bi, b in enumerate(batches):
            if b > t:
                continue
            steps = round(t / b)
            for ai, alpha in enumerate(alphas):
                seqs = np.random.SeedSequence([seed, ti, bi, ai]).spawn(replicates)
                best, aborted, _, x = reference_group(
                    obj, norm, update, etas, float(alpha), b, steps, seqs, init
                )
                groups.append((float(t), b, float(alpha), steps, best, aborted, x))
    return groups


def reference_parser():
    """The CLI parser with the options of all seven commands, built in one go."""
    parser = _Parser(
        prog="lmoscale",
        description="Scaling-law engine for norm-constrained optimizer hyperparameters.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, opts in _SPECS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="JSON config file; explicit flags win")
        for opt in opts:
            metavar = "{" + ",".join(map(str, opt.choices)) + "}" if opt.choices else None
            sub.add_argument(f"--{opt.name}", dest=opt.dest, metavar=metavar, help=opt.help)
    return parser


# --------------------------------------------------------------------------
# JSON writer reference: ``lmoscale.serialize.dumps_json`` as first written.


def _reference_fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)  # inf / -inf / nan; json cannot carry these anyway
    return f"{x:.16e}"


@functools.cache
def _reference_field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _reference_fields(record) -> dict:
    """A dataclass instance's fields in order, one level deep."""
    return {name: getattr(record, name) for name in _reference_field_names(type(record))}


def _reference_json_fragments(obj, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"cannot serialize non-finite float {obj!r} to JSON")
        out.append(_reference_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(obj):
            if not isinstance(key, str):
                raise DomainError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _reference_json_fragments(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _reference_json_fragments(item, out)
        out.append("]")
    elif isinstance(obj, Enum):
        _reference_json_fragments(obj.value, out)
    elif dataclasses.is_dataclass(obj):
        _reference_json_fragments(_reference_fields(obj), out)
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to JSON")


def reference_dumps_json(obj) -> str:
    """Serialize with full-precision floats; insertion order is preserved."""
    out: list[str] = []
    _reference_json_fragments(obj, out)
    out.append("\n")
    return "".join(out)
