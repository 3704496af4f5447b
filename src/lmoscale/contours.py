"""Iso-performance analysis: level sets of the step-size-tuned bound in (b, K).

Once the step size is tuned at each (batch, step count), the bound value
collapses to three terms with constants c_det, c_burn, c_floor.  Setting it
equal to a target reveals a minimum step count, a minimum batch size, and an
intermediate region where step count and sqrt(batch) trade off along a
hyperbola.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError, _require
from .proxy import BoundConstants, smoothness_weight

__all__ = ["ContourConstants", "LevelPoint", "LevelSet", "tuned_bound", "level_set"]


@dataclass(frozen=True)
class ContourConstants:
    """Bound constants plus a pinned momentum complement.

    Derived read-only constants of the eta-tuned bound:
        c_det   = 2 sqrt(delta0 L (7/2 + 2/alpha))   deterministic part
        c_burn  = c2 / alpha                          burn-in part
        c_floor = c2 sqrt(alpha)                      noise floor
    """

    constants: BoundConstants
    alpha: float

    def __post_init__(self) -> None:
        _require(0 < self.alpha <= 1, "alpha must be in (0, 1], got {}", self.alpha)

    @property
    def c_det(self) -> float:
        c = self.constants
        return 2.0 * math.sqrt(c.delta0 * smoothness_weight(c, self.alpha, True))

    @property
    def c_burn(self) -> float:
        return self.constants.c2 / self.alpha

    @property
    def c_floor(self) -> float:
        return self.constants.c2 * math.sqrt(self.alpha)

    def k_min(self, target: float) -> float:
        """Step count needed even with unbounded batch: (c_det / target)^2."""
        _require(target > 0, "target must be > 0, got {}", target)
        return (self.c_det / target) ** 2

    def b_min(self, target: float) -> float:
        """Batch needed even with unbounded steps: (c_floor / target)^2."""
        _require(target > 0, "target must be > 0, got {}", target)
        return (self.c_floor / target) ** 2


def _det_part(cc: ContourConstants, k: float, eta_floor: float | None) -> float:
    """b-free step-size part D(k) of the tuned bound D(k) + (c_burn / k + c_floor) / sqrt(b)."""
    if eta_floor is None:
        return cc.c_det / math.sqrt(k)
    _require(eta_floor > 0, "eta_floor must be > 0, got {}", eta_floor)
    c = cc.constants
    weight = smoothness_weight(c, cc.alpha, True)
    eta = max(math.sqrt(c.delta0 / (k * weight)), eta_floor)
    return c.delta0 / (eta * k) + weight * eta


def tuned_bound(cc: ContourConstants, b: float, k: float, eta_floor: float | None = None) -> float:
    """Step-size-tuned bound value at (batch, steps).

    Equals the exact token bound minimized over eta at T = b * k; strictly
    decreasing in both arguments.  An optional step-size floor models a
    lower-bounded search grid: when the unconstrained minimizer falls below
    the floor, the deterministic part is evaluated at the floor instead.
    """
    _require(b >= 1, "b must be >= 1, got {}", b)
    _require(k >= 1, "k must be >= 1, got {}", k)
    return _det_part(cc, k, eta_floor) + cc.c_burn / (k * math.sqrt(b)) + cc.c_floor / math.sqrt(b)


# the term that dominates a contour point: descent, burn-in, noise floor
REGIMES = ("iteration-limited", "intermediate", "batch-limited")


@dataclass(frozen=True)
class LevelPoint:
    """One (k, b) sample on the contour, with the term split at that point."""

    k: float
    b: float
    regime: str  # one of REGIMES
    det_fraction: float
    burn_fraction: float
    floor_fraction: float


@dataclass(frozen=True)
class LevelSet:
    """Sampled contour of the tuned bound at one target level."""

    target: float
    k_min: float
    b_min: float
    k0: float
    hyperbola_residual: float
    points: tuple[LevelPoint, ...]


def level_set(
    cc: ContourConstants,
    target: float,
    k_grid,
    eta_floor: float | None = None,
) -> LevelSet:
    """Solve tuned_bound(b, k) = target for b at each step count.

    At fixed k the tuned bound is D(k) + E(k) / sqrt(b) with
    E = c_burn / k + c_floor, so the batch on the level is
    b = (E / (target - D))^2 in closed form.  Step counts at which the
    contour is unreachable (the whole b >= 1 range already below the target,
    k at or below the iteration minimum where target <= D, or a batch past
    the float range) are skipped; an entirely empty contour raises.

    ``k_grid`` is any iterable of step counts, each read with ``float``.
    ``k0`` is the geometric mean of the solved step counts, the
    representative scale of the shifted-hyperbola approximation
    (c sqrt(K) - c_det)(c sqrt(b) - c_floor - c_burn/K0) ~ const;
    ``hyperbola_residual`` is the largest relative deviation of that form
    over the sampled points.
    """
    _require(target > 0, "target must be > 0, got {}", target)
    points: list[LevelPoint] = []
    for k in map(float, k_grid):
        if k < 1:
            continue
        det = _det_part(cc, k, eta_floor)
        if det + cc.c_burn / k + cc.c_floor < target:  # tuned_bound at b = 1
            continue  # contour sits below the b >= 1 boundary at this k
        if target <= det:
            continue  # not even an unbounded batch reaches the target
        root_b = (cc.c_burn / k + cc.c_floor) / (target - det)
        b = root_b * root_b  # float ** raises OverflowError where * gives inf
        if not math.isfinite(b):
            continue
        burn, floor = cc.c_burn / (k * root_b), cc.c_floor / root_b
        total = det + burn + floor
        fractions = (det / total, burn / total, floor / total)
        points.append(LevelPoint(k, b, REGIMES[fractions.index(max(fractions))], *fractions))
    if not points:
        raise InfeasibleError(
            f"target {target} is unreachable on the given step-count grid"
        )
    k0 = math.exp(sum(math.log(p.k) for p in points) / len(points))
    rhs0 = cc.c_det * (cc.c_floor + cc.c_burn / k0)
    residual = 0.0
    for p in points:
        lhs = (target * math.sqrt(p.k) - cc.c_det) * (
            target * math.sqrt(p.b) - (cc.c_floor + cc.c_burn / p.k)
        )
        residual = max(residual, abs(lhs - rhs0) / rhs0)
    return LevelSet(
        target=target,
        k_min=cc.k_min(target),
        b_min=cc.b_min(target),
        k0=k0,
        hyperbola_residual=residual,
        points=tuple(points),
    )
