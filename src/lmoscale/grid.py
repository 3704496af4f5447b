"""Brute-force verification sweeps over log-uniform hyperparameter grids.

The sweep is the numerical oracle for the closed forms: it evaluates a
token-form objective on an outer-product grid of (batch, step size,
momentum complement), takes a constrained argmin per budget, and fits power
laws to the per-budget optima.  Results are deterministic and independent
of evaluation order; ties break toward the smallest batch, then the
smallest step size, then the largest momentum complement.  ``_AXES`` is
the one table of the searched axes; the sweep, its edge labels, the fits,
the constraint tags, the range checks and the log-step bound all read it.

The objective is u / T + v with u, v >= 0 fixed per cell, so before the
budget loop the sweep drops cells that an earlier cell in flat order, in
the same or an earlier batch row, weakly dominates (u and v both no
larger): in the first block of batch rows, an earlier cell of the same
alpha line; in later blocks, a cell of a staircase of earlier blocks'
survivors, which is rebuilt only once it has doubled and so may lack the
latest ones.  The dominating cell is never worse at any budget, comes
first in argmin order, and is feasible whenever the dropped one is.  The
records are exactly those of a scan of every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError, _require
from .proxy import BoundConstants, token_terms

__all__ = [
    "GridSpec",
    "Constraint",
    "SweepRecord",
    "SweepResult",
    "FitResult",
    "sweep",
    "fit_power_law",
    "detect_burn_in",
    "fit_sweep_exponents",
    "MAX_SWEEP_WORK",
]

OBJECTIVES = ("risk_tokens", "bound_tokens")

# The searched axes in cube order: (name, the Constraint field that pins the
# axis, the GridSpec range that spans it).  The cube stores alpha descending.
_AXES = (
    ("b", "fixed_b", "b_range"),
    ("eta", "fixed_eta", "eta_range"),
    ("alpha", "fixed_alpha", "alpha_range"),
)


@dataclass(frozen=True)
class GridSpec:
    """Log-uniform grid ranges, endpoints included.

    Defaults are the wide verification grid: eta in (1e-15, 1e4), b in
    (1, 1e15), alpha in (1e-10, 1), T in (1e2, 1e22), 100 points per axis.
    ``t_points`` overrides the budget-axis count alone.
    """

    eta_range: tuple[float, float] = (1e-15, 1e4)
    alpha_range: tuple[float, float] = (1e-10, 1.0)
    b_range: tuple[float, float] = (1.0, 1e15)
    t_range: tuple[float, float] = (1e2, 1e22)
    points_per_axis: int = 100
    t_points: int | None = None

    def __post_init__(self) -> None:
        for _, _, attr in _AXES:
            lo, hi = getattr(self, attr)
            _require(lo > 0, "{} lower bound must be > 0, got {}", attr, lo)
            _require(lo < hi, "{} must have lo < hi, got ({}, {})", attr, lo, hi)
        _require(self.t_range[0] > 0, "t_range lower bound must be > 0, got {}", self.t_range[0])
        _require(self.t_range[0] <= self.t_range[1], "t_range must have lo <= hi")
        _require(self.alpha_range[1] <= 1.0, "alpha_range upper bound must be <= 1")
        _require(self.b_range[0] >= 1.0, "b_range lower bound must be >= 1")
        _require(self.points_per_axis >= 2, "points_per_axis must be >= 2")
        if self.t_points is not None:
            _require(self.t_points >= 1, "t_points must be >= 1")

    def eta_axis(self) -> np.ndarray:
        return _log_axis(*self.eta_range, self.points_per_axis)

    def t_axis(self) -> np.ndarray:
        return _log_axis(*self.t_range, self.t_points or self.points_per_axis)

    def max_log_step(self, constraint: "Constraint") -> float:
        """Largest per-step log spacing among the axes left free by the constraint."""
        ranges = [getattr(self, attr) for _, field, attr in _AXES
                  if getattr(constraint, field) is None]
        return max((math.log(hi / lo) / (self.points_per_axis - 1) for lo, hi in ranges),
                   default=0.0)


def _log_axis(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([lo])
    return np.logspace(math.log10(lo), math.log10(hi), n)


@dataclass(frozen=True)
class Constraint:
    """Axes pinned or capped during a sweep.  Fields may be combined."""

    fixed_eta: float | None = None
    fixed_alpha: float | None = None
    fixed_b: float | None = None
    b_cap: float | None = None

    def __post_init__(self) -> None:
        if self.fixed_alpha is not None:
            _require(0 < self.fixed_alpha <= 1, "fixed alpha must be in (0, 1], got {}",
                     self.fixed_alpha)
        if self.fixed_eta is not None:
            _require(self.fixed_eta > 0, "fixed eta must be > 0, got {}", self.fixed_eta)
        if self.fixed_b is not None:
            _require(self.fixed_b >= 1, "fixed b must be >= 1, got {}", self.fixed_b)
        if self.b_cap is not None:
            _require(self.b_cap >= 1, "b_cap must be >= 1, got {}", self.b_cap)
            _require(self.fixed_b is None, "fixed_b and b_cap are mutually exclusive")

    @classmethod
    def free(cls) -> "Constraint":
        return cls()

    @classmethod
    def fix_alpha(cls, alpha: float) -> "Constraint":
        return cls(fixed_alpha=alpha)

    @classmethod
    def fix_b(cls, b: float) -> "Constraint":
        return cls(fixed_b=b)

    @classmethod
    def fix_eta(cls, eta: float) -> "Constraint":
        return cls(fixed_eta=eta)

    @classmethod
    def cap_b(cls, b_max: float) -> "Constraint":
        return cls(b_cap=b_max)

    @property
    def tag(self) -> str:
        fixed = [name for name, field, _ in _AXES if getattr(self, field) is not None]
        if not fixed and self.b_cap is None:
            return "free"
        if len(fixed) == 1 and self.b_cap is None:
            return f"fixed-{fixed[0]}"
        if not fixed and self.b_cap is not None:
            return "capped-b"
        return "composite"


@dataclass(frozen=True)
class SweepRecord:
    """Constrained argmin of the objective at one budget."""

    t: float
    eta: float
    alpha: float
    b: float
    risk: float
    at_edge: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    constraint: Constraint
    objective: str
    spec: GridSpec

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


# Largest sweep accepted, in cells plus budgets x cells: the cube's cells are
# summed once, and each budget's argmin reads at most every cell.  The
# slowest constraint at the limit, fixed-b at 1000 points per axis, takes
# about 2 s on a 2-vCPU host; the default free sweep is 1.01e8.
MAX_SWEEP_WORK = 10**9


def _sweep_work(spec: GridSpec, constraint: Constraint) -> int:
    """Cells plus budgets x cells of a sweep, ignoring the batch cap."""
    cells = math.prod(1 if getattr(constraint, field) is not None else spec.points_per_axis
                      for _, field, _ in _AXES)
    return cells * (1 + (spec.t_points or spec.points_per_axis))


def _swept_axes(spec: GridSpec, constraint: Constraint) -> tuple[np.ndarray, ...]:
    """The (b, eta, alpha) axes a sweep searches, ascending, cut to the batch cap.

    A pinned axis is its one value.  Raises ``DomainError``, before any axis
    is built, when the sweep's work exceeds ``MAX_SWEEP_WORK``, and
    ``InfeasibleError`` when no grid batch size satisfies the cap.
    """
    work = _sweep_work(spec, constraint)
    _require(work <= MAX_SWEEP_WORK,
             "sweep work, cells x (1 + budgets), is {:.3g}, above the limit {:.0e}; "
             "lower --points or --t-points", work, MAX_SWEEP_WORK)
    pins = (getattr(constraint, field) for _, field, _ in _AXES)
    b, eta, alpha = (
        _log_axis(*getattr(spec, attr), spec.points_per_axis) if pin is None else np.array([pin])
        for pin, (_, _, attr) in zip(pins, _AXES)
    )
    if constraint.b_cap is not None:
        b = b[b <= constraint.b_cap]
        if b.size == 0:
            raise InfeasibleError(f"no grid batch size satisfies the cap {constraint.b_cap}")
    return b, eta, alpha


# Cells per pruning block.  Whole b rows are pruned a block at a time, so a
# pinned sweep's short rows do not pay numpy's per-call cost row by row.  A
# block is screened against a staircase of earlier blocks' survivors, which
# may lack the latest blocks but holds no cell of its own; the first block,
# with no earlier block, is screened cell by cell against the earlier cells
# of its own alpha line instead.  Either way a cell is dropped only when an
# earlier cell of the same or an earlier b row dominates it.
_PRUNE_BLOCK = 4096


def _prune(u_terms: tuple, v_terms: tuple, shape: tuple[int, ...]):
    """The cells of the cubes u, v left after dropping cells an earlier cell dominates.

    u and v are the sums of the two arrays in ``u_terms`` and in ``v_terms``,
    which broadcast to ``shape`` (b rows first, at least two axes).  Each
    block's rows are summed when the block is pruned, so neither cube is
    ever built whole.  Cell j dominates cell i when u_j <= u_i and
    v_j <= v_i.  Blocks are runs of whole b rows holding at least
    ``_PRUNE_BLOCK`` cells.  A cell of the first block is dropped when its u
    is >= every earlier u of its line along the last axis and its v is >=
    their least v, so the earlier cell of least v dominates it.  A cell of a
    later block is dropped when a cell of the staircase dominates it; the
    staircase is rebuilt from the survivors only once as many are pending
    as it holds, so it may lack the latest blocks, but every cell it holds
    lies in an earlier block.  Either way the dominating cell comes earlier
    in flat order, in the same or an earlier b row, and no NaN cell is
    dropped.  Returns the survivors' u, v and flat index, in flat order, and
    ``offsets`` with ``offsets[m]`` the number of survivors in the first m
    rows.
    """
    rows, width = shape[0], math.prod(shape[1:])
    step = -(-_PRUNE_BLOCK // width)
    (u0, u1), (v0, v1) = ([np.broadcast_to(x, shape) for x in pair] for pair in (u_terms, v_terms))

    def block(r0: int) -> tuple[np.ndarray, np.ndarray]:
        r1 = r0 + step
        return (u0[r0:r1] + u1[r0:r1]).ravel(), (v0[r0:r1] + v1[r0:r1]).ravel()

    # A first-block cell whose u is >= the running maximum of the earlier u's
    # of its line and whose v is >= the running minimum of their v's is
    # dominated by the earlier cell of least v.  NaN propagates through both
    # accumulates and compares false, so a NaN cell and every later cell of
    # its line are kept.
    bu, bv = block(0)
    lu = bu.reshape(-1, shape[-1])
    lv = bv.reshape(lu.shape)
    drop = np.zeros(lu.shape, dtype=bool)
    np.greater_equal(lu[:, 1:], np.maximum.accumulate(lu, axis=1)[:, :-1], out=drop[:, 1:])
    drop[:, 1:] &= lv[:, 1:] >= np.minimum.accumulate(lv, axis=1)[:, :-1]
    flat = np.flatnonzero(~drop)
    parts = [(bu[flat], bv[flat], flat)]
    su = sv = np.empty(0)
    built = pending = 0
    for r0 in range(step, rows, step):
        # The staircase is rebuilt only once the survivors since its last
        # rebuild are at least as many as it holds, so all rebuilds together
        # sort at most twice as many cells as survive.  In between, blocks
        # are screened against a staircase that lacks the latest survivors:
        # it drops fewer cells, but each of its cells lies in an earlier block.
        pending += parts[-1][2].size
        if pending >= su.size:
            # The staircase of the survivors so far, NaN left out: u
            # ascending, v strictly descending, so the v at the last u <= a
            # cell's u is the least v of any staircase cell with u that
            # small.  The old staircase is one sorted run, so a stable sort
            # merges the new cells in.
            ku, kv = (np.concatenate([part[k] for part in parts[built:]]) for k in (0, 1))
            fine = ~(np.isnan(ku) | np.isnan(kv))
            cu, cv = np.concatenate((su, ku[fine])), np.concatenate((sv, kv[fine]))
            order = np.argsort(cu, kind="stable")
            cu, cv = cu[order], cv[order]
            front = np.empty(cv.size, dtype=bool)
            front[:1] = True
            np.less(cv[1:], np.minimum.accumulate(cv)[:-1], out=front[1:])
            su, sv = cu[front], cv[front]
            built, pending = len(parts), 0
            # Sentinels with v NaN, which no comparison passes: every u >= 0
            # sorts after -inf, and searchsorted sorts a NaN u after the
            # trailing NaN.
            su_ext = np.concatenate(([-np.inf], su, [np.nan]))
            sv_ext = np.concatenate(([np.nan], sv, [np.nan]))

            def least_v(x: np.ndarray) -> np.ndarray:
                return sv_ext[np.searchsorted(su_ext, x, side="right") - 1]

            # A float >= 0 orders as its bit pattern, so a cell whose v is >=
            # the staircase's v at the lower edge of its bucket (the top 14
            # bits of u) is dominated.  The table covers the staircase's
            # buckets and has NaN at both ends, where the other cells read,
            # so those go to the exact lookup with the rest: cells below the
            # first u or with the sign bit set, and cells above the last,
            # such as a NaN u, which as a sum is a quiet NaN, whose pattern
            # lies above inf's.
            bits = su_ext.view(np.int64)
            lo, hi = (max(int(bits[i]) >> 50, 0) for i in (1, -2))
            table = least_v((np.arange(lo - 1, max(lo, hi) + 2) << 50).view(np.float64))
            table[-1] = np.nan
        bu, bv = block(r0)
        bucket = bu.view(np.int64) >> 50
        bucket -= lo - 1
        near = np.flatnonzero(~(table.take(bucket, mode="clip") <= bv))
        flat = near[~(least_v(bu[near]) <= bv[near])]
        parts.append((bu[flat], bv[flat], flat + r0 * width))
    ku, kv, flat = (np.concatenate(col) for col in zip(*parts))
    return ku, kv, flat, np.searchsorted(flat, np.arange(rows + 1) * width)


# value(t) = u / t + v on the (b, eta, alpha) cube, so _prune sums u and v
# once for all budgets, a block of b rows at a time.  In the first block it
# drops a cell that an earlier cell of its alpha line dominates, found by a
# running maximum of u and minimum of v along the line.  In later blocks it
# drops a cell that the staircase of earlier blocks' survivors dominates:
# most by one lookup in a table of staircase values indexed by the top bits
# of u, the few the table leaves by a binary search.  The staircase is
# rebuilt only once as many survivors are pending as it holds; a stale one
# drops fewer cells, never a cell no earlier cell dominates.  Cells that
# overflow are +inf and never win the argmin; a NaN cell (0 * inf at the
# float limits) is reported at the budget whose argmin meets it.  Each
# budget's argmin runs over the survivors of _prune alone, and is exact: u
# and v are >= 0, and dividing by t > 0 and adding are monotone under
# rounding, so a dominating cell's value is <= the dominated cell's at every
# budget; it comes earlier in flat order, where argmin keeps the first
# minimum, and it lies in the same or an earlier b row, so it is feasible
# whenever the dominated cell is, since the feasible cells are a prefix of b
# rows.  NaN compares false and propagates through the line accumulates, so
# NaN cells are never dropped and raise at the same budget as without the
# prune.  The budget loop works on Python scalars, so each record holds
# Python floats taken from the axes' tolist().  ``kept`` stays an array,
# indexed once per budget: a list of up to ~21k survivors would cost more
# memory than the loop saves.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def sweep(
    c: BoundConstants,
    spec: GridSpec = GridSpec(),
    constraint: Constraint = Constraint(),
    objective: str = "risk_tokens",
) -> SweepResult:
    """Per-budget argmin of the objective over the constrained grid.

    Budgets whose feasible set is empty (every allowed batch exceeds the
    budget) are skipped; if no budget is feasible at all the sweep raises.
    A sweep whose work exceeds ``MAX_SWEEP_WORK`` raises before it starts.
    Each axis of ``_AXES`` is its pinned value or its GridSpec range.  The
    argmin index is taken in (b asc, eta asc, alpha desc) order, which
    realizes the documented tie-breaking; ``at_edge`` names, in that order,
    each free axis whose end the argmin sits on (b's upper end is the largest
    batch feasible at the budget).
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    b, eta, alpha = _swept_axes(spec, constraint)
    alpha_desc = alpha[::-1].copy()

    descent, burn, floor, smooth = token_terms(
        c, eta[None, :, None], alpha_desc[None, None, :], b[:, None, None],
        objective == "bound_tokens",
    )
    u, v, kept, offsets = _prune((descent, burn), (floor, smooth), (b.size, eta.size, alpha.size))
    free = [(k, name) for k, (name, field, _) in enumerate(_AXES)
            if getattr(constraint, field) is None]
    ts = spec.t_axis()
    b_at, eta_at, alpha_at = b.tolist(), eta.tolist(), alpha_desc.tolist()
    offsets = offsets.tolist()
    plane, n_alpha = eta.size * alpha.size, alpha.size
    buf = np.empty(u.size)
    records = []
    for t, m in zip(ts.tolist(), np.searchsorted(b, ts, side="right").tolist()):
        if m == 0:
            continue
        n = offsets[m]
        values = np.divide(u[:n], t, out=buf[:n])
        values += v[:n]
        j = int(values.argmin())
        risk = float(values[j])
        if math.isnan(risk):  # argmin stops at the first NaN
            raise NumericalError(f"the objective is NaN on some grid cells at budget {t}")
        i_b, i_ea = divmod(int(kept[j]), plane)
        i_e, i_a = divmod(i_ea, n_alpha)
        # positions in ascending order on each axis; alpha is stored descending
        at, last = (i_b, i_e, n_alpha - 1 - i_a), (m - 1, eta.size - 1, n_alpha - 1)
        edges = []
        for k, name in free:
            if at[k] == 0:
                edges.append(f"{name}-lo")
            if at[k] == last[k]:
                edges.append(f"{name}-hi")
        records.append(SweepRecord(t=t, eta=eta_at[i_e], alpha=alpha_at[i_a], b=b_at[i_b],
                                   risk=risk, at_edge=tuple(edges)))
    if not records:
        raise InfeasibleError("empty feasible set: every allowed batch exceeds every budget")
    return SweepResult(records=tuple(records), constraint=constraint, objective=objective,
                       spec=spec)


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y = coefficient * x^exponent on log-log pairs."""

    exponent: float
    coefficient: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def _require_fit_points(n: int) -> None:
    """Reject fewer in-window points than a power-law fit accepts."""
    _require(n >= 5, "need at least 5 in-window points, got {}", n)


def fit_power_law(xs, ys, window: tuple[float, float] | None = None) -> FitResult:
    """Ordinary least squares through (ln x, ln y), restricted to a window."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise DomainError(f"xs and ys must match, got {xs.shape} vs {ys.shape}")
    if window is not None:
        mask = (xs >= window[0]) & (xs <= window[1])
        xs, ys = xs[mask], ys[mask]
    _require_fit_points(xs.size)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DomainError("power-law fits need strictly positive data")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("power-law fits need finite data")
    if xs.min() == xs.max():
        raise DomainError("power-law fits need at least two distinct x values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    actual_window = (float(xs.min()), float(xs.max())) if window is None else window
    return FitResult(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        r_squared=r2,
        window=actual_window,
        n_points=int(xs.size),
    )


def detect_burn_in(result: SweepResult) -> float | None:
    """Smallest budget past which the best batch stays above 1.

    Meaningful for sweeps with momentum pinned; returns None when the best
    batch never leaves 1 within the sweep range.
    """
    bs = result.column("b")
    ts = result.column("t")
    above = bs > 1.0
    if not above[-1]:
        return None
    idx = int(np.where(~above)[0][-1] + 1) if not above.all() else 0
    return float(ts[idx])


def fit_sweep_exponents(result: SweepResult, decades: float = 2.0) -> dict[str, FitResult]:
    """Power-law fits of best risk/eta/b/alpha against the budget.

    Risk is fitted, then each free axis of ``_AXES`` in the order eta, b, alpha.
    Records whose argmin sits on a grid edge are excluded (they are clamped
    by the grid, not genuine optima; this also removes the small-budget
    phase where the best batch is pinned at 1).  The window keeps the top
    ``decades`` decades of the remaining budgets, which must be >= 0; a fit
    over an explicit window is ``fit_power_law``'s.
    """
    clean = [r for r in result.records if not r.at_edge]
    if not clean:
        raise InfeasibleError("no sweep records free of grid-edge clamping")
    ts = np.array([r.t for r in clean])
    hi = float(ts.max())
    window = (hi / _decades_factor(decades), hi)
    fits = {"risk": fit_power_law(ts, [r.risk for r in clean], window)}
    for name, field, _ in sorted(_AXES, key=lambda axis: axis[0] != "eta"):
        if getattr(result.constraint, field) is None:
            fits[name] = fit_power_law(ts, [getattr(r, name) for r in clean], window)
    return fits


def _decades_factor(decades: float) -> float:
    """10**decades, or inf past the float range; ``decades`` must be >= 0.

    A fit window's lower edge is hi / 10**decades, so a window wider than
    the float range reaches down to 0.0 and holds every budget.
    """
    _require(decades >= 0, "fit window decades must be >= 0, got {}", decades)
    try:
        return 10.0**decades
    except OverflowError:
        return math.inf


def _check_fit_window(ts: np.ndarray, decades: float) -> None:
    """Raise ``fit_power_law``'s ``DomainError`` when no fit over budgets ``ts`` can succeed.

    ``fit_sweep_exponents``' window is the top ``decades`` decades below its
    largest clean budget, one of the ascending budgets ``ts``, so no fit of
    a sweep over them sees more points than the fullest such window holds.
    A sweep whose fits must fail is thus refused before it runs.
    """
    lo = np.searchsorted(ts, ts / _decades_factor(decades), side="left")
    _require_fit_points(int(np.max(np.searchsorted(ts, ts, side="right") - lo)))
