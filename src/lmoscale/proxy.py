"""Convergence-bound proxy for norm-constrained steepest-descent optimizers.

The five-term bound controls the best expected dual gradient norm reached
within a step budget K (or token budget T = b * K).  Two conventions are
exposed: the exact bound with its separate 7/2 and 2 smoothness weights
(``bound_steps``, ``bound_tokens``), and the compact proxy that folds them
into c3 = 4L (``risk_steps``, ``risk_tokens``, ``risk_large_horizon``).
Both share one evaluator, ``token_terms``, and differ only in the eta
coefficient S(alpha): L (7/2 + 2/alpha) exact, c3 (1 + 1/alpha) folded.
Every other module takes the bound's terms and S(alpha) from here.

All evaluators are pure functions of their inputs and safe to call
concurrently.  Batch size is treated as a continuous real >= 1 here;
integrality only matters at the simulator boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BudgetTooSmallError, _message, _past_float_range, _require

__all__ = [
    "SMOOTHNESS_WEIGHT",
    "MOMENTUM_SMOOTHNESS_WEIGHT",
    "BoundConstants",
    "HyperParams",
    "BudgetKind",
    "Budget",
    "eta_coefficients",
    "smoothness_weight",
    "token_terms",
    "bound_steps",
    "bound_tokens",
    "risk_steps",
    "risk_tokens",
    "risk_large_horizon",
    "large_horizon_gap",
]

# eta coefficients of the exact bound: SMOOTHNESS_WEIGHT * L * eta is the
# plain trust-region error, MOMENTUM_SMOOTHNESS_WEIGHT * L * eta / alpha the
# momentum-coupled one.  The compact proxy replaces both by c3 * (1 + 1/alpha).
SMOOTHNESS_WEIGHT = 3.5
MOMENTUM_SMOOTHNESS_WEIGHT = 2.0


@dataclass(frozen=True)
class BoundConstants:
    """Problem-level constants of the convergence bound.

    delta0:      initial suboptimality f(x0) - inf f, > 0
    smoothness:  gradient Lipschitz constant L in the chosen norm, > 0
    noise_scale: per-sample gradient noise scale sigma, >= 0
    norm_equiv:  smallest rho with ||v||_dual <= rho * ||v||_2, >= 1

    The derived read-only constants c1 = delta0, c2 = 2 * rho * sigma and
    c3 = 4 * L are what the compact proxy is written in.
    """

    delta0: float
    smoothness: float
    noise_scale: float
    norm_equiv: float = 1.0

    def __post_init__(self) -> None:
        _require(self.delta0 > 0, "delta0 must be > 0, got {}", self.delta0)
        _require(self.smoothness > 0, "smoothness must be > 0, got {}", self.smoothness)
        _require(self.noise_scale >= 0, "noise_scale must be >= 0, got {}", self.noise_scale)
        _require(self.norm_equiv >= 1, "norm_equiv must be >= 1, got {}", self.norm_equiv)

    @property
    def c1(self) -> float:
        return self.delta0

    @property
    def c2(self) -> float:
        return 2.0 * self.norm_equiv * self.noise_scale

    @property
    def c3(self) -> float:
        return 4.0 * self.smoothness

    @property
    def rho_sigma(self) -> float:
        return self.norm_equiv * self.noise_scale

    @classmethod
    def from_proxy_constants(cls, c1: float = 1.0, c2: float = 1.0, c3: float = 1.0) -> "BoundConstants":
        """Constants whose derived (c1, c2, c3) equal the given values."""
        return cls(delta0=c1, smoothness=c3 / 4.0, noise_scale=c2 / 2.0, norm_equiv=1.0)


@dataclass(frozen=True)
class HyperParams:
    """One optimizer configuration: step size, momentum complement, batch size.

    alpha = 1 - beta is the weight on the fresh gradient in the momentum
    recursion; alpha = 1 switches momentum off, alpha = 0 is rejected.
    """

    eta: float
    alpha: float
    batch: float = 1.0

    def __post_init__(self) -> None:
        _require(self.eta > 0, "eta must be > 0, got {}", self.eta)
        _require(0 < self.alpha <= 1, "alpha must be in (0, 1], got {}", self.alpha)
        _require(self.batch >= 1, "batch must be >= 1, got {}", self.batch)


class BudgetKind(Enum):
    ITERATIONS = "iterations"
    TOKENS = "tokens"


@dataclass(frozen=True)
class Budget:
    """Either a step count K or a token budget T = b * K."""

    kind: BudgetKind
    value: float

    def __post_init__(self) -> None:
        _require(self.value >= 1, "budget value must be >= 1, got {}", self.value)

    @classmethod
    def iterations(cls, k: float) -> "Budget":
        return cls(BudgetKind.ITERATIONS, k)

    @classmethod
    def tokens(cls, t: float) -> "Budget":
        return cls(BudgetKind.TOKENS, t)

    def steps_for(self, batch: float) -> float:
        """Step count implied by this budget at the given batch size."""
        if self.kind is BudgetKind.ITERATIONS:
            return self.value
        if self.value < batch:
            raise BudgetTooSmallError(_message("token budget {} is below batch size {}; not even "
                                               "one step fits", self.value, batch))
        try:
            return self.value / batch
        except OverflowError as exc:
            raise _past_float_range(exc, ("token budget", self.value)) from None


def eta_coefficients(c: BoundConstants, exact: bool) -> tuple[float, float, float]:
    """(scale, plain, momentum) of the eta coefficient S(alpha) of a convention.

    S(alpha) = scale * (plain + momentum / alpha): (L, 7/2, 2) for the exact
    bound, (c3, 1, 1) for the folded proxy.
    """
    if exact:
        return c.smoothness, SMOOTHNESS_WEIGHT, MOMENTUM_SMOOTHNESS_WEIGHT
    return c.c3, 1.0, 1.0


def smoothness_weight(c: BoundConstants, alpha: float, exact: bool) -> float:
    """The eta coefficient S(alpha) of the bound (exact) or the folded proxy."""
    scale, plain, momentum = eta_coefficients(c, exact)
    return scale * (plain + momentum / alpha)


def token_terms(c: BoundConstants, eta, alpha, b, exact: bool) -> tuple:
    """(descent, burn_in, floor, smooth) of the bound in token form.

    The value at token budget T is (descent + burn_in) / T + floor + smooth.
    The two conventions share the descent (c1 = delta0), burn-in and
    noise-floor terms and differ only in S(alpha) of the smoothness term.
    Plain operators only, so eta, alpha and b may be floats or numpy
    arrays that broadcast against each other.
    """
    scale, plain, momentum = eta_coefficients(c, exact)
    c2 = c.c2
    sqrt_b = b**0.5
    return (
        c.delta0 * b / eta,
        c2 * sqrt_b / alpha,
        c2 * alpha**0.5 / sqrt_b,
        scale * eta * (plain + momentum / alpha),
    )


def bound_steps(c: BoundConstants, h: HyperParams, steps: float) -> float:
    """Exact five-term bound at a step budget.

    Sum of the deterministic descent term, the momentum burn-in term, the
    noise floor, and the two smoothness error terms.
    """
    return bound_tokens(c, h, _step_tokens(h, steps))


def _step_tokens(h: HyperParams, steps: float) -> float:
    """The token budget T = b * K of a step budget K >= 1."""
    _require(steps >= 1, "steps must be >= 1, got {}", steps)
    try:
        return h.batch * steps
    except OverflowError as exc:
        raise _past_float_range(exc, ("steps", steps), ("batch", h.batch)) from None


def _token_value(c: BoundConstants, h: HyperParams, tokens: float, exact: bool) -> float:
    """The bound (exact) or the folded proxy at a token budget."""
    if tokens < h.batch:
        raise BudgetTooSmallError(_message("token budget {} is below batch size {}", tokens,
                                           h.batch))
    descent, burn, floor, smooth = token_terms(c, h.eta, h.alpha, h.batch, exact)
    try:
        return (descent + burn) / tokens + floor + smooth
    except OverflowError as exc:
        raise _past_float_range(exc, ("token budget", tokens)) from None


def bound_tokens(c: BoundConstants, h: HyperParams, tokens: float) -> float:
    """Exact five-term bound at a token budget (substitute K = T / b)."""
    return _token_value(c, h, tokens, True)


def risk_steps(c: BoundConstants, h: HyperParams, steps: float) -> float:
    """Compact proxy at a step budget, written in (c1, c2, c3)."""
    return risk_tokens(c, h, _step_tokens(h, steps))


def risk_tokens(c: BoundConstants, h: HyperParams, tokens: float) -> float:
    """Compact proxy at a token budget; equals risk_steps at K = T / b."""
    return _token_value(c, h, tokens, False)


def risk_large_horizon(
    c: BoundConstants, eta: float, batch: float, budget: Budget, alpha: float
) -> float:
    """Three-term proxy with the burn-in part dropped.

    Valid as an approximation when alpha**1.5 * K >> 1; the exact gap to
    ``risk_steps`` is returned by ``large_horizon_gap``, so callers can
    judge the regime instead of relying on a hard cutoff.
    """
    HyperParams(eta=eta, alpha=alpha, batch=batch)  # validates the inputs
    steps = budget.steps_for(batch)
    descent, _, floor, smooth = token_terms(c, eta, alpha, batch, False)
    return descent / (batch * steps) + floor + smooth


def large_horizon_gap(c: BoundConstants, h: HyperParams, steps: float) -> float:
    """Exact value of the burn-in term dropped by ``risk_large_horizon``.

    risk_steps - risk_large_horizon == c2 / (alpha * sqrt(b) * K), always.
    """
    tokens = _step_tokens(h, steps)
    return token_terms(c, h.eta, h.alpha, h.batch, False)[1] / tokens
