"""Desk-scale stochastic optimizer laboratory.

Runs the norm-constrained momentum method (normalized descent, sign
descent, or orthogonalized descent, depending on the chosen norm) on
synthetic objectives with controllable initial suboptimality, smoothness,
and Gaussian gradient noise, to confirm the proxy's qualitative predictions.
A plain gradient-step mode (``update="sgd"``) serves as the baseline.

Everything is deterministic given the seed: replicate streams derive from
(seed, budget index, batch index, momentum index, replicate) and are shared
across the step-size axis, and assembly never depends on execution order.
A sweep runs all of its (budget, batch, momentum) groups in one lockstep
step loop over preallocated buffers, one running prefix of groups at a
time; each replicate generator keeps its own stream and draw order, and
every noise draw is split-invariant (n then m values equal n + m), so the
outputs depend neither on which groups run together nor on how the draws
are chunked.  Batch sizes are integers here, unlike in the proxy;
``integer_batch`` rounds proxy-derived values at this boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetTooSmallError, DomainError, _message, _require, _require_int

__all__ = [
    "NormKind",
    "ObjectiveSpec",
    "LmoConfig",
    "SimRun",
    "SimPoint",
    "SimSweepResult",
    "dual_norm",
    "lmo_direction",
    "polar_factor",
    "momentum_update",
    "integer_batch",
    "run",
    "sweep_plan",
    "sweep_sim",
    "MAX_STEPS",
    "MAX_WORK",
    "MAX_STATE",
]

MAX_STEPS = 10**7  # steps per run that run and sweep_sim accept
# A sweep's work is the sum over its (budget, batch, momentum) groups of
# steps x step sizes x replicates x variable size: about 2 minutes at the
# limit on a 2-vCPU host.  A matrix-least-squares element-step also pays its
# share of A^T (A X - Y), about 4 rows multiply-adds, so sweep_sim counts it
# as 1 + rows / 25 element-steps.  Measured with --norm max against a
# noisy quadratic of the same size on that host, it costs 6 times one at
# 700 rows and 100 columns (1 + rows / 140), but 12 and 20 times at 300 and
# 700 rows with 1 to 5 columns, where the products are matrix-vector ones.
MAX_WORK = 10**10
# Elements in each (groups, step sizes, replicates, *variable) state buffer:
# about 8 MB each at the limit, and a sweep holds about eight of them.  A
# matrix-least-squares sweep's (2 rows, rows) data matrix has the same limit.
MAX_STATE = 10**6


class NormKind(Enum):
    EUCLIDEAN = "euclidean"  # normalized descent; dual norm l2
    MAX = "max"              # sign descent; dual norm l1
    SPECTRAL = "spectral"    # orthogonalized descent; dual norm nuclear


def integer_batch(b: float) -> int:
    """Round a real-valued batch size to the nearest integer >= 1."""
    return max(1, round(b))


def momentum_update(m: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """One momentum step: keep (1 - alpha) of the buffer, blend in alpha of g."""
    return (1.0 - alpha) * m + alpha * g


def _var_ndim(v: np.ndarray, norm: NormKind) -> int:
    """Number of trailing variable axes of v; the spectral norm needs a matrix."""
    _require(not (norm is NormKind.SPECTRAL and v.ndim != 2),
             "the spectral norm needs a matrix variable, got ndim={}", v.ndim)
    return v.ndim


def dual_norm(v: np.ndarray, norm: NormKind) -> float:
    v = np.asarray(v, dtype=float)
    return float(_batched_dual_norms(v, norm, _var_ndim(v, norm)))


def polar_factor(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U V^T of a matrix, or of each matrix in a stack.

    Computed exactly from the thin SVD m = U S V^T over the last two axes,
    so the result is an isometry (orthonormal columns for tall inputs,
    orthonormal rows for wide ones), rank-deficient inputs included.  A
    zero matrix maps to the zero matrix; a matrix with a non-finite entry
    maps to NaN, as a diverged buffer does under the other norms.
    """
    m = np.asarray(m, dtype=float)
    _require(not m.ndim < 2, "polar factor needs a matrix, got ndim={}", m.ndim)
    finite = np.isfinite(m).all(axis=(-2, -1), keepdims=True)
    live = np.any(m, axis=(-2, -1), keepdims=True)
    u, _, vt = np.linalg.svd(np.where(finite, m, 0.0), full_matrices=False)
    return np.where(finite, np.where(live, u @ vt, 0.0), np.nan)


def lmo_direction(m: np.ndarray, norm: NormKind) -> np.ndarray:
    """Unit-norm direction minimizing the inner product with m.

    Satisfies <m, d> = -dual_norm(m) with ||d|| = 1 in the chosen norm.
    A zero buffer returns the zero direction (the minimizer set is the
    whole ball; zero is the fixed representative, and sign(0) = 0
    coordinate-wise for the max norm).
    """
    m = np.asarray(m, dtype=float)
    return -_ascent(m, norm, _var_ndim(m, norm))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Synthetic objective with a known minimizer.

    ``noisy-quadratic`` is 0.5 * sum(spectrum * x^2) started from
    x0_scale * ones; ``matrix-least-squares`` is 0.5 * ||A X - Y||_F^2 on a
    dims-shaped matrix variable with data drawn deterministically from
    data_seed and started from zero.  The other kind's shape field must be
    None.  Per-sample gradient noise has scale noise_sigma; a mini-batch of
    size b averages it down to noise_sigma / sqrt(b) per coordinate.
    """

    kind: str = "noisy-quadratic"
    noise_sigma: float = 0.0
    spectrum: tuple[float, ...] | None = None
    dims: tuple[int, int] | None = None
    x0_scale: float = 1.0
    data_seed: int = 0

    def __post_init__(self) -> None:
        _require(self.noise_sigma >= 0, "noise_sigma must be >= 0, got {}", self.noise_sigma)
        _require_int(self.data_seed, "data_seed", 0)
        if self.kind == "noisy-quadratic":
            _require(self.spectrum is not None and len(self.spectrum) > 0,
                     "noisy-quadratic needs a spectrum")
            _require(np.min(self.spectrum) > 0, "spectrum entries must be > 0")
            _require(self.dims is None,
                     "dims applies only to kind matrix-least-squares, not noisy-quadratic")
        else:
            _require(self.kind == "matrix-least-squares", "unknown objective kind {!r}", self.kind)
            _require(self.spectrum is None,
                     "spectrum applies only to kind noisy-quadratic, not matrix-least-squares")
            _require(self.dims is not None and len(self.dims) == 2,
                     "matrix-least-squares needs dims=(rows, cols)")
            for name, d in zip(("rows", "cols"), self.dims):
                _require_int(d, name, 1)


class _Objective:
    """Built objective: starting point, broadcastable gradient and scalar value."""

    def __init__(self, spec: ObjectiveSpec):
        self.spec = spec
        if spec.kind == "noisy-quadratic":
            self.lam = np.asarray(spec.spectrum, dtype=float)
            self.x0 = np.full(self.lam.shape, spec.x0_scale)
        else:
            rows, cols = spec.dims
            rng = np.random.default_rng(spec.data_seed)
            self.a = rng.standard_normal((2 * rows, rows)) / math.sqrt(rows)
            x_true = rng.standard_normal((rows, cols))
            self.y = self.a @ x_true
            self.x0 = np.zeros((rows, cols))

    def grad(self, x: np.ndarray, out: np.ndarray | None = None,
             lam: np.ndarray | None = None) -> np.ndarray:
        """Gradient at x; a given ``lam`` is the quadratic's spectrum broadcast to x's shape."""
        if self.spec.kind == "noisy-quadratic":
            return np.multiply(self.lam if lam is None else lam, x, out=out)
        return np.matmul(np.swapaxes(self.a, -1, -2), self.a @ x - self.y, out=out)

    @np.errstate(over="ignore", invalid="ignore")
    def value(self, x: np.ndarray) -> float:
        if self.spec.kind == "noisy-quadratic":
            return float(0.5 * np.sum(self.lam * x * x))
        resid = self.a @ x - self.y
        return float(0.5 * np.sum(resid * resid))


def _noise_factory(spec: ObjectiveSpec, batch: int):
    """Gaussian mini-batch noise sampler ``draw(gen, shape, out=None)``, or None without noise.

    Each value has standard deviation noise_sigma / sqrt(batch) and is
    written straight into ``out`` when one is given.  Every draw is
    split-invariant along its leading axis: draws of n then m values equal
    one draw of n + m.
    """
    if spec.noise_sigma == 0.0:
        return None
    scale = spec.noise_sigma / math.sqrt(batch)

    def draw(gen, shape, out=None):
        z = gen.standard_normal(shape, out=out)
        z *= scale
        return z

    return draw


def _check_settings(etas, alphas, update: str, init: str) -> None:
    """Reject step sizes, momenta, updates and inits that a run cannot take."""
    for eta in etas:
        _require(0 < eta < math.inf, "eta must be finite and > 0, got {}", eta)
    for alpha in alphas:
        _require(0 < alpha <= 1, "alpha must be in (0, 1], got {}", alpha)
    _require(update in ("lmo", "sgd"), "update must be one of ('lmo', 'sgd'), got {!r}", update)
    _require(init in ("matched", "zero"), "init must be one of ('matched', 'zero'), got {!r}",
             init)


@dataclass(frozen=True)
class LmoConfig:
    """One simulator run: geometry, hyperparameters, horizon, seeding.

    ``init`` picks the momentum start: "matched" draws a batch-sized
    stochastic gradient at x0 (so its error shrinks like 1/sqrt(b)), and
    "zero" starts empty.
    ``update="sgd"`` replaces the normalized step by a plain gradient step
    and is the comparison baseline.
    """

    norm: NormKind
    eta: float
    alpha: float
    batch: int
    steps: int
    seed: int
    init: str = "matched"
    update: str = "lmo"

    def __post_init__(self) -> None:
        _check_settings((self.eta,), (self.alpha,), self.update, self.init)
        _require_int(self.batch, "batch", 1)
        _require_int(self.steps, "steps", 1)
        _require_int(self.seed, "seed", 0)


@dataclass(eq=False)
class SimRun:
    """Trajectory summary of one run.

    ``grad_norms[k]`` is the dual norm of the true gradient after step
    k + 1; ``running_min`` is its running minimum, the per-run estimate of
    the quantity the bound controls (a lower-biased estimate, since the
    bound controls a minimum of expectations, not an expectation of
    minima).  A NaN norm is recorded as inf, and ``aborted`` says whether
    any step's norm was inf.
    """

    grad_norms: np.ndarray
    running_min: np.ndarray
    min_grad_norm: float
    final_value: float
    final_grad_norm: float
    aborted: bool
    config: LmoConfig


def _ascent(m: np.ndarray, norm: NormKind, var_ndim: int, out=None) -> np.ndarray:
    """Negated LMO direction u (the step is -u) of each variable slice of m.

    Written into ``out`` for the diagonal norms; a zero slice gives u = -0.0
    under the euclidean norm, so x - eta * u is x + 0.0 as with d = 0.
    """
    if norm is NormKind.MAX:
        return np.sign(m, out=out)
    if norm is NormKind.SPECTRAL:
        return polar_factor(m)
    axes = tuple(range(-var_ndim, 0))
    out = np.multiply(m, m, out=out)
    scale = np.sqrt(np.add.reduce(out, axis=axes, keepdims=True))
    live = scale > 0
    np.divide(m, np.where(live, scale, 1.0), out=out)
    np.copyto(out, -0.0, where=~live)
    return out


def _batched_dual_norms(g: np.ndarray, norm: NormKind, var_ndim: int, work=None,
                        out=None) -> np.ndarray:
    """Dual norm of each variable slice of g; diagonal norms use the given buffers."""
    axes = tuple(range(-var_ndim, 0))
    if norm is NormKind.SPECTRAL:
        # SVD fails on non-finite input; a diverged matrix gets an infinite norm
        finite = np.isfinite(g).all(axis=axes)
        svals = np.linalg.svd(np.where(finite[..., None, None], g, 0.0), compute_uv=False)
        return np.where(finite, svals.sum(axis=-1), np.inf)
    if norm is NormKind.MAX:
        return np.add.reduce(np.abs(g, out=work), axis=axes, out=out)
    return np.sqrt(np.add.reduce(np.multiply(g, g, out=work), axis=axes, out=out), out=out)


_NOISE_VALUES = 2**19  # noise values one _run_batch call buffers (4 MiB)


# a diverged run overflows, and its dual norm turns non-finite
@np.errstate(over="ignore", invalid="ignore")
def _run_batch(
    obj: _Objective,
    norm: NormKind,
    update: str,
    etas,
    alphas,
    batches,
    steps,
    seed_seqs,
    init: str,
    record: bool = False,
):
    """Simulate groups of runs in lockstep, sharing noise across the step-size axis.

    Group j takes steps[j] steps at momentum alphas[j] and batch batches[j],
    with one replicate generator per entry of seed_seqs[j].  The state, and
    the momentum, step-size and spectrum operands broadcast to it once, are
    (G, H, R, *var): groups x step sizes x replicates.  Groups run longest
    first, so the ones still running are a prefix: the loop runs one
    segment per prefix and noise chunk, max(steps) steps in all, and every
    step updates momentum, iterate, gradient and dual norm in place.  Each
    generator draws its matched-init noise, then its steps in order, in
    chunks that buffer at most ``_NOISE_VALUES`` values (or one step): at
    every chunk's first step each running group draws the chunk's steps up
    to its own end, so a generator makes one draw per chunk it reaches.
    Draws are split-invariant, so a group's floats depend neither on the
    chunking nor on the groups it runs with.

    Returns (best (G, H, R), trace (steps,) or None, final iterates (G, H,
    R, *var)) in the given group order; the trace is recorded only for a
    single run (G = H = R = 1).
    """
    var_shape = obj.x0.shape
    var_ndim = _var_ndim(obj.x0, norm)
    order = np.argsort(-np.asarray(steps), kind="stable")
    steps = [int(steps[j]) for j in order]
    gens = [[np.random.default_rng(s) for s in seed_seqs[j]] for j in order]
    noises = [_noise_factory(obj.spec, batches[j]) for j in order]
    noisy = noises[0] is not None
    n_groups, h, r = len(order), len(etas), len(gens[0])
    shape = (n_groups, h, r) + var_shape
    # contiguous operands: a product with them runs faster than one that broadcasts
    alpha = np.broadcast_to(np.asarray(alphas, dtype=float)[order].reshape(
        (n_groups,) + (1,) * (2 + var_ndim)), shape).copy()
    keep = 1.0 - alpha
    eta = np.broadcast_to(np.asarray(etas, dtype=float).reshape(
        (1, h, 1) + (1,) * var_ndim), shape).copy()
    lam = np.broadcast_to(obj.lam, shape).copy() if obj.spec.kind == "noisy-quadratic" else None

    x = np.broadcast_to(obj.x0, shape).copy()
    g_true = np.broadcast_to(obj.grad(obj.x0), shape).copy()
    if init == "matched":
        m = g_true.copy()
        if noisy:
            for j, noise in enumerate(noises):
                for i, gen in enumerate(gens[j]):
                    m[j, :, i] += noise(gen, var_shape)
    else:
        m = np.zeros(shape)

    # every draw is split-invariant, so the chunk shrinks to bound the buffer
    chunk = max(1, min(512, _NOISE_VALUES // (n_groups * r * obj.x0.size)))
    draws = np.empty((n_groups, r, min(chunk, steps[0])) + var_shape) if noisy else None

    work = np.empty(shape)
    norms = np.empty((n_groups, h, r))
    best = np.full((n_groups, h, r), np.inf)
    trace = np.empty(steps[0]) if record else None
    done, k = 0, n_groups
    while done < steps[0]:
        while steps[k - 1] <= done:  # groups [0, k) are still running
            k -= 1
        base = done - done % chunk  # the step that buffer index 0 holds
        if noisy and done == base:
            for j in range(k):
                n = min(chunk, steps[j] - done)
                for i, gen in enumerate(gens[j]):
                    noises[j](gen, (n,) + var_shape, out=draws[j, i, :n])
        # one segment: groups [0, k) step on to the first group end or chunk end
        end = min(steps[k - 1], base + chunk)
        xk, mk, gk, wk = x[:k], m[:k], g_true[:k], work[:k]
        nk, bk = norms[:k], best[:k]
        alpha_k, keep_k, eta_k = alpha[:k], keep[:k], eta[:k]
        lam_k = None if lam is None else lam[:k]
        for i in range(done - base, end - base):
            if noisy:
                np.add(gk, draws[:k, None, :, i], out=wk)
                np.multiply(wk, alpha_k, out=wk)
            else:
                np.multiply(gk, alpha_k, out=wk)
            np.multiply(mk, keep_k, out=mk)
            np.add(mk, wk, out=mk)
            u = _ascent(mk, norm, var_ndim, wk) if update == "lmo" else mk
            np.multiply(u, eta_k, out=wk)
            np.subtract(xk, wk, out=xk)
            obj.grad(xk, out=gk, lam=lam_k)
            dual = _batched_dual_norms(gk, norm, var_ndim, wk, nk)
            np.fmin(bk, dual, out=bk)  # a NaN norm counts as inf
            if record:
                trace[base + i] = dual[0, 0, 0]
        done = end
    if record:
        trace[np.isnan(trace)] = np.inf
    back = np.argsort(order)
    return best[back], trace, x[back]


def _variable(spec: ObjectiveSpec) -> tuple[int, int]:
    """(size, rows) of the variable that ``sweep_plan`` bounds; rows is 0 for a noisy quadratic."""
    if spec.kind == "noisy-quadratic":
        return len(spec.spectrum), 0
    return math.prod(spec.dims), spec.dims[0]


def run(spec: ObjectiveSpec, cfg: LmoConfig) -> SimRun:
    """One seeded run; bit-identical output for identical (spec, cfg).

    The run passes ``sweep_plan``'s checks and bounds, as one group and one
    replicate at budget t = batch x steps, before its objective is built.
    """
    size, rows = _variable(spec)
    # a product of Python ints is exact, where one of numpy integers can wrap
    sweep_plan(size, [cfg.eta], [cfg.alpha], [cfg.batch], [int(cfg.batch) * int(cfg.steps)], 1,
               cfg.seed, cfg.update, cfg.init, rows)
    obj = _Objective(spec)
    best, trace, x = _run_batch(
        obj,
        cfg.norm,
        cfg.update,
        [cfg.eta],
        [cfg.alpha],
        [cfg.batch],
        [cfg.steps],
        [[np.random.SeedSequence(cfg.seed)]],
        cfg.init,
        record=True,
    )
    return SimRun(
        grad_norms=trace,
        running_min=np.minimum.accumulate(trace),
        min_grad_norm=float(best[0, 0, 0]),
        final_value=obj.value(x[0, 0, 0]),
        final_grad_norm=float(trace[-1]),
        aborted=bool(np.isinf(trace).any()),
        config=cfg,
    )


@dataclass(unsafe_hash=True, slots=True)
class SimPoint:
    """Replicate-averaged metric at one sweep point.

    ``metric`` is the mean over replicates of each run's minimum dual
    gradient norm.  A run that diverges keeps the least norm it reached
    before, so the metric is infinite only when a replicate never had a
    finite dual norm, not whenever a run aborts.
    """

    t: float
    eta: float
    alpha: float
    b: int
    steps: int
    metric: float
    replicates: int


@dataclass(unsafe_hash=True, slots=True)
class SimSweepResult:
    """All evaluated points plus the per-budget argmin records.

    Each record of ``best`` is the same ``SimPoint`` object as its entry in
    ``points``; records are plain, so a field reassigned on one shows in
    the other.
    """

    points: tuple[SimPoint, ...]
    best: tuple[SimPoint, ...]


def sweep_plan(size: int, eta_grid, alpha_grid, b_grid, t_grid, replicates: int, seed: int,
               update: str, init: str, rows: int = 0):
    """Checked grids and (budget, batch, momentum) groups of a sweep over ``size`` variables.

    Every grid must be non-empty and within the float range, and batches
    and budgets finite; step sizes must be finite and > 0, momenta in
    (0, 1], ``replicates`` and ``seed`` integers >= 1 and >= 0, and
    ``init`` "matched" or "zero".  Step counts
    are round(t / b), at most ``MAX_STEPS``, and a budget below every batch
    raises ``BudgetTooSmallError``.  The work, state buffers and data, with
    ``rows`` a matrix-least-squares sweep's row count and 0 for a noisy
    quadratic, must stay within ``MAX_WORK`` and ``MAX_STATE``.  Nothing of
    the variable's size is built, so ``sweep_sim`` and its callers bound a
    sweep before they build its objective.  Returns (etas, alphas, batches,
    budgets, groups, steps): ascending step sizes, momenta and integer
    batches, the budgets as given, each group's (budget, batch, momentum)
    indices and its step count.
    """
    _require_int(replicates, "replicates", 1)
    _require_int(seed, "seed", 0)
    grids = []
    for name, grid in zip(("eta_grid", "alpha_grid", "b_grid", "t_grid"),
                          (eta_grid, alpha_grid, b_grid, t_grid)):
        try:
            grids.append(np.asarray(grid, dtype=float))
        except OverflowError:  # an int past the float range
            raise DomainError(f"{name} holds a value past the float range") from None
        _require(grids[-1].size > 0, "{} must not be empty", name)
    etas, alphas, b_vals, budgets = grids
    for name, grid in (("b_grid", b_vals), ("t_grid", budgets)):
        _require(np.isfinite(grid).all(), "{} must be finite, got {}", name, grid.tolist())
    etas, alphas = np.sort(etas), np.sort(alphas)
    _check_settings(etas, alphas, update, init)
    batches = sorted(integer_batch(b) for b in b_vals)
    if budgets.min() < batches[0]:
        raise BudgetTooSmallError(_message(
            "token budget {} is below every batch size; not even one step fits", budgets.min()))
    t_max, b_min = float(budgets.max()), batches[0]
    _require(round(t_max / b_min) <= MAX_STEPS,
             "t={} at b={} means {:.12g} steps per run, above the limit of {}",
             t_max, b_min, t_max / b_min, MAX_STEPS)
    groups = [(ti, bi, ai) for ti, t in enumerate(budgets) for bi, b in enumerate(batches)
              if b <= t for ai in range(len(alphas))]
    steps = [round(budgets[ti] / batches[bi]) for ti, bi, _ in groups]
    work = sum(steps) * etas.size * replicates * size * (25 + rows) // 25
    _require(work <= MAX_WORK,
             "sweep work, steps x step sizes x replicates x variable size summed over runs, is "
             "{:.6g}, above the limit {:.0e}; lower --t, --replicates or --dim (--rows, --cols), "
             "or give fewer --eta, --alpha or --b values; a matrix-least-squares element-step "
             "counts as 1 + rows / 25", work, MAX_WORK)
    state = len(groups) * etas.size * replicates * size
    _require(state <= MAX_STATE,
             "sweep state, runs x step sizes x replicates x variable size, is {:.6g} elements, "
             "above the limit {:.0e}; lower --replicates or --dim (--rows, --cols), or give "
             "fewer --t, --b, --alpha or --eta values", state, MAX_STATE)
    _require(2 * rows**2 <= MAX_STATE,
             "matrix-least-squares data, 2 x rows^2, is {:.6g} elements, above the limit "
             "{:.0e}; lower --rows", 2 * rows**2, MAX_STATE)
    return etas, alphas, batches, budgets, groups, steps


def sweep_sim(
    spec: ObjectiveSpec,
    norm: NormKind,
    eta_grid,
    alpha_grid,
    b_grid,
    t_grid,
    replicates: int,
    seed: int,
    update: str = "lmo",
    init: str = "matched",
) -> SimSweepResult:
    """Empirical sweep: argmin of the replicate-averaged metric per budget.

    The arguments pass ``sweep_plan``'s checks and bounds before any step
    or state-sized array.  As in the grid oracle, a batch larger than a
    budget is skipped at that budget (not even one step fits).  Runs at one
    (budget, batch, momentum) point share their noise streams across the
    step-size axis (common random numbers), with replicate generators
    derived from (seed, budget index, batch index, momentum index,
    replicate).  All groups advance together in one lockstep step loop (see
    ``_run_batch``); each generator keeps its own stream, so every metric
    equals that of the group run on its own.  Points are ordered by
    (budget, batch, momentum, step size).  The best record of a budget is
    the argmin over the points at that budget value; ties break toward the
    smallest batch, then the smallest step size, then the largest momentum
    complement.
    """
    size, rows = _variable(spec)
    etas, alphas, batches, budgets, groups, steps = sweep_plan(
        size, eta_grid, alpha_grid, b_grid, t_grid, replicates, seed, update, init, rows)
    obj = _Objective(spec)
    best, _, _ = _run_batch(
        obj, norm, update, etas, alphas[[ai for _, _, ai in groups]],
        [batches[bi] for _, bi, _ in groups], steps,
        [np.random.SeedSequence([seed, *group]).spawn(replicates) for group in groups], init,
    )
    points: list[SimPoint] = []
    by_budget: dict[float, list[SimPoint]] = {}
    for (ti, bi, ai), n, metrics in zip(groups, steps, best.mean(axis=2)):
        t = float(budgets[ti])
        for eta, metric in zip(etas, metrics):
            point = SimPoint(t=t, eta=float(eta), alpha=float(alphas[ai]), b=batches[bi],
                             steps=n, metric=float(metric), replicates=replicates)
            points.append(point)
            by_budget.setdefault(t, []).append(point)
    best_records = [min(by_budget[float(t)], key=lambda p: (p.metric, p.b, p.eta, -p.alpha))
                    for t in budgets]
    return SimSweepResult(points=tuple(points), best=tuple(best_records))
