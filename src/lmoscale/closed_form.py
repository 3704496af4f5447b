"""Closed-form optima of the bound proxy across tuning regimes.

Two constant conventions appear and every result labels which one it uses
in its ``objective`` field:

* the fixed-momentum and fixed-batch optima minimize simplifications of the
  compact proxy written in (c1, c2, c3) ("folded" smoothness weights);
* the joint optimum minimizes the exact token-form bound, keeping the
  separate 7/2 and 2 smoothness weights, through a cubic stationarity
  condition in the momentum complement.

Reported optima are exact back-substitutions, not asymptotic constants;
the leading-order momentum asymptote is reported separately for comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import NumericalError, _message, _past_float_range, _require
from .proxy import (SMOOTHNESS_WEIGHT, BoundConstants, Budget, eta_coefficients,
                    smoothness_weight, token_terms)
from .schedules import PowerLawSchedule, TunedLaw, aggressive_ceiling

__all__ = [
    "FixedMomentumOptimum",
    "FixedBatchOptimum",
    "JointOptimum",
    "CubicCoefficients",
    "BatchPathPlan",
    "effective_constants",
    "optimal_fixed_momentum_steps",
    "optimal_fixed_momentum_tokens",
    "optimal_fixed_batch",
    "optimal_joint",
    "momentum_cubic",
    "solve_momentum_cubic",
    "asymptotic_momentum",
    "asymptotic_momentum_terms",
    "bound_eta_star",
    "bound_eta_minimized",
    "batch_star_given_momentum",
    "momentum_gap_ratio",
    "tuned_risk_prefactor",
    "capped_batch_noise_floor",
    "batch_growth_plan",
]


def effective_constants(c: BoundConstants, alpha: float) -> tuple[float, float]:
    """(c2_eff, c3_eff) of the large-horizon proxy once momentum is fixed."""
    _require(0 < alpha <= 1, "alpha must be in (0, 1], got {}", alpha)
    return c.c2 * math.sqrt(alpha), smoothness_weight(c, alpha, False)


@dataclass(unsafe_hash=True, slots=True)
class FixedMomentumOptimum:
    """Tuned step size (and optionally batch) at a fixed momentum complement."""

    eta_star: float
    risk_star: float
    regime: str  # "steps" | "tokens-fixed-batch" | "tokens-joint-batch"
    b_star: float | None = None
    clamped: bool = False
    objective: str = "risk_large_horizon"


def _at_steps(c: BoundConstants, c2e: float, c3e: float, b: float, k: float) -> tuple:
    """(eta*, risk*) at fixed momentum, batch and step count K."""
    return math.sqrt(c.c1 / (c3e * k)), 2.0 * math.sqrt(c.c1 * c3e / k) + c2e / math.sqrt(b)


def _tuned_risk(c: BoundConstants, c2e: float, c3e: float) -> float:
    """T^(-1/4) coefficient 2 sqrt(2) (c1 c3_eff)^(1/4) c2_eff^(1/2) of the tuned-batch risk*."""
    return 2.0 * math.sqrt(2.0) * (c.c1 * c3e) ** 0.25 * math.sqrt(c2e)


def optimal_fixed_momentum_steps(
    c: BoundConstants, alpha: float, b: float, k: float
) -> FixedMomentumOptimum:
    """Step-budget optimum: eta* = sqrt(c1 / (c3_eff K)), independent of b.

    The batch enters only through the noise floor of the value, so larger
    batches always improve the bound at a fixed step count.
    """
    _require(k >= 1, "k must be >= 1, got {}", k)
    _require(b >= 1, "b must be >= 1, got {}", b)
    eta, risk = _at_steps(c, *effective_constants(c, alpha), b, k)
    return FixedMomentumOptimum(eta_star=eta, risk_star=risk, regime="steps")


def optimal_fixed_momentum_tokens(
    c: BoundConstants, alpha: float, t: float, b: float | None = None
) -> FixedMomentumOptimum:
    """Token-budget optimum at fixed momentum.

    With ``b`` given, tunes eta alone, as the step optimum at K = T / b >= 1
    (else ``BudgetTooSmallError``).  Otherwise tunes (eta, b) jointly:

        b*    = c2_eff / (2 sqrt(c1 c3_eff)) * sqrt(T)
        eta*  = c1^(1/4) c2_eff^(1/2) / (sqrt(2) c3_eff^(3/4)) * T^(-1/4)
        risk* = 2 sqrt(2) (c1 c3_eff)^(1/4) c2_eff^(1/2) * T^(-1/4)

    Below the budget where b* crosses 1 the batch is clamped to 1 with a
    flag; the returned eta/risk are then the fixed-batch values at b = 1.
    """
    _require(t >= 1, "t must be >= 1, got {}", t)
    c2e, c3e = effective_constants(c, alpha)
    regime, clamped = "tokens-fixed-batch", False
    if b is None:
        try:
            b_star = c2e / (2.0 * math.sqrt(c.c1 * c3e)) * math.sqrt(t)
        except OverflowError as exc:
            raise _past_float_range(exc, ("t", t)) from None
        if b_star < 1.0:
            b, regime, clamped = 1.0, "tokens-joint-batch", True
        else:
            eta = c.c1**0.25 * math.sqrt(c2e) / (math.sqrt(2.0) * c3e**0.75) * t**-0.25
            risk = _tuned_risk(c, c2e, c3e) * t**-0.25
            return FixedMomentumOptimum(
                eta_star=eta, risk_star=risk, regime="tokens-joint-batch", b_star=b_star
            )
    else:
        _require(b >= 1, "b must be >= 1, got {}", b)
    eta, risk = _at_steps(c, c2e, c3e, b, Budget.tokens(t).steps_for(b))
    return FixedMomentumOptimum(eta_star=eta, risk_star=risk, regime=regime, b_star=b,
                                clamped=clamped)


@dataclass(unsafe_hash=True, slots=True)
class FixedBatchOptimum:
    """Jointly tuned (momentum, step size) at a fixed batch size.

    The optimum comes from a leading proxy that drops the burn-in and plain
    smoothness terms; ``burn_in_ratio`` and ``smoothness_ratio`` report the
    dropped terms relative to the optimum value so callers can check they
    really are lower order at their budget.
    """

    alpha_star: float
    eta_star: float
    risk_star: float
    clamped: bool
    burn_in_ratio: float
    smoothness_ratio: float
    objective: str


# objective label of each constant convention of the fixed-batch optimum
_LEADING_PROXY = {"folded": "folded-leading-proxy", "exact": "exact-leading-proxy"}


def optimal_fixed_batch(
    c: BoundConstants, b: float, budget: Budget, coefficients: str = "folded"
) -> FixedBatchOptimum:
    """Large-horizon optimum at fixed batch size.

        alpha* = (2 sqrt(c1 S) / c2) * sqrt(b / K)
        eta*   = sqrt(2) c1^(3/4) / (c2^(1/2) S^(1/4)) * b^(1/4) / K^(3/4)
        min    = 2 sqrt(2) c2^(1/2) (c1 S)^(1/4) * (b K)^(-1/4)

    where S is the eta/alpha smoothness weight: c3 for the folded proxy,
    2 L for the exact bound (``coefficients="exact"``, used to cross-check
    the joint regime).  alpha* is clamped to 1 with a flag when the formula
    exceeds it, including the noiseless c2 = 0 case.
    """
    _require(b >= 1, "b must be >= 1, got {}", b)
    _require(coefficients in ("folded", "exact"),
             "coefficients must be 'folded' or 'exact', got {!r}", coefficients)
    scale, plain, momentum = eta_coefficients(c, coefficients == "exact")
    s_weight = scale * momentum
    dropped_smooth = scale * plain
    objective = _LEADING_PROXY[coefficients]
    k = budget.steps_for(b)

    if c.c2 > 0:
        alpha_raw = (2.0 * math.sqrt(c.c1 * s_weight) / c.c2) * math.sqrt(b / k)
    else:
        alpha_raw = math.inf
    clamped = alpha_raw > 1.0
    alpha = min(alpha_raw, 1.0)
    eta = math.sqrt(c.c1 * alpha / (s_weight * k))
    risk = 2.0 * math.sqrt(c.c1 * s_weight / (alpha * k)) + c.c2 * math.sqrt(alpha / b)
    burn = c.c2 / (alpha * math.sqrt(b) * k)
    return FixedBatchOptimum(
        alpha_star=alpha,
        eta_star=eta,
        risk_star=risk,
        clamped=clamped,
        burn_in_ratio=burn / risk,
        smoothness_ratio=dropped_smooth * eta / risk,
        objective=objective,
    )


@dataclass(frozen=True)
class CubicCoefficients:
    """Stationarity cubic a3 * x^3 - a1 * x - a0 for the joint momentum optimum.

    All three coefficients are positive magnitudes, so the polynomial is
    negative at 0 and has exactly one positive root.
    """

    a3: float
    a1: float
    a0: float

    def __post_init__(self) -> None:
        _require(self.a3 > 0, "a3 must be > 0, got {}", self.a3)
        _require(self.a1 > 0, "a1 must be > 0, got {}", self.a1)
        _require(self.a0 > 0, "a0 must be > 0, got {}", self.a0)

    def evaluate(self, x: float) -> float:
        return (self.a3 * x * x - self.a1) * x - self.a0


def momentum_cubic(c: BoundConstants, t: float) -> CubicCoefficients:
    """Cubic whose positive root is the jointly optimal momentum complement."""
    _require(t >= 1, "t must be >= 1, got {}", t)
    _require(c.rho_sigma > 0, "joint tuning needs a positive noise scale")
    big_a, a1, a0 = _cubic_terms(c)
    try:
        a3 = big_a * t
    except OverflowError as exc:
        raise _past_float_range(exc, ("t", t)) from None
    # the solver works in p = a1 / a3 and q = a0 / a3, which overflow or underflow
    # when a3 is far smaller or larger than a1 and a0; they are formed lazily,
    # once every coefficient has passed
    named = itertools.chain(
        (("coefficient a3", a3), ("coefficient a1", a1), ("coefficient a0", a0)),
        ((what, v / a3) for what, v in (("ratio a0/a3", a0), ("ratio a1/a3", a1))))
    for what, value in named:
        if not 0.0 < value < math.inf:
            raise NumericalError(_message(
                "momentum cubic {} = {} leaves the float range at t={} (delta0={}, L={}, "
                "rho*sigma={})", what, value, t, c.delta0, c.smoothness, c.rho_sigma))
    return CubicCoefficients(a3, a1, a0)


def _cubic_terms(c: BoundConstants) -> tuple[float, float, float]:
    """(A, a1, a0) = (3.5^2 delta0 L, 3.5 rho^2 sigma^2, 2 rho^2 sigma^2); the cubic's a3 is A t."""
    rs2 = c.rho_sigma**2
    return SMOOTHNESS_WEIGHT**2 * c.delta0 * c.smoothness, SMOOTHNESS_WEIGHT * rs2, 2.0 * rs2


def solve_momentum_cubic(cubic: CubicCoefficients) -> tuple[float, float]:
    """Unique positive root x of the cubic and its relative residual.

    The root of x^3 - p x - q with p = a1 / a3 and q = a0 / a3 in closed form
    (Kahan, "To Solve a Real Cubic Equation", 1986), then two Newton steps.
    It is solved as y^3 - P y - Q in y = x / s, with s the power of two just
    above max(q^(1/3), p^(1/2)): the scaling is exact, and P = p / s^2 and
    Q = q / s^3 are at most 1, so Q^2 and P^3 cannot overflow.  With
    Q^2 / 4 >= P^3 / 27 the root is Cardano's w + P / (3 w), written without
    cancellation; otherwise it is the largest of three real roots, in
    trigonometric form.  The residual is |f(x)| / (a3 x^3 + a1 x + a0), a
    scale-free measure that stays finite at the float limits.
    """
    p, q = cubic.a1 / cubic.a3, cubic.a0 / cubic.a3
    s = math.ldexp(1.0, math.frexp(max(q ** (1.0 / 3.0), math.sqrt(p)))[1])
    big_p, big_q = p / s / s, q / s / s / s
    disc = big_q * big_q / 4.0 - big_p**3 / 27.0
    if disc >= 0.0:
        w = (big_q / 2.0 + math.sqrt(disc)) ** (1.0 / 3.0)
        y = w + big_p / (3.0 * w)
    else:
        # min() keeps a rounded argument inside acos's domain
        cos3 = min(1.0, big_q / 2.0 * (3.0 / big_p) ** 1.5)
        y = 2.0 * math.sqrt(big_p / 3.0) * math.cos(math.acos(cos3) / 3.0)
    for _ in range(2):
        y -= ((y * y - big_p) * y - big_q) / (3.0 * y * y - big_p)
    return s * y, abs((y * y - big_p) * y - big_q) / ((y * y + big_p) * y + big_q)


def asymptotic_momentum_terms(c: BoundConstants) -> tuple[float, float]:
    """(u0, u1) of the expansion alpha* = u0 T^(-1/3) + u1 T^(-2/3) + ..."""
    _require(c.rho_sigma > 0, "asymptotic momentum needs a positive noise scale")
    big_a, big_b, big_c = _cubic_terms(c)
    u0 = (big_c / big_a) ** (1.0 / 3.0)
    u1 = big_b / (3.0 * big_a ** (2.0 / 3.0) * big_c ** (1.0 / 3.0))
    return u0, u1


def asymptotic_momentum(c: BoundConstants, t: float) -> float:
    """Two-term large-budget approximation of the joint momentum optimum."""
    u0, u1 = asymptotic_momentum_terms(c)
    return u0 * t ** (-1.0 / 3.0) + u1 * t ** (-2.0 / 3.0)


def bound_eta_star(c: BoundConstants, alpha: float, b: float, t: float) -> float:
    """Step size minimizing the exact token bound at fixed (alpha, b)."""
    _require(0 < alpha <= 1, "alpha must be in (0, 1], got {}", alpha)
    _require(b > 0, "b must be > 0, got {}", b)
    _require(t > 0, "t must be > 0, got {}", t)
    weight = smoothness_weight(c, alpha, True)
    eta = math.sqrt(b * c.delta0 / (t * weight))
    if not 0.0 < eta < math.inf:
        raise NumericalError(_message("eta* = {} leaves the float range at alpha={}, b={}, t={}",
                                      eta, alpha, b, t))
    return eta


def bound_eta_minimized(c: BoundConstants, alpha: float, b: float, t: float) -> float:
    """Exact token bound after the one-dimensional eta minimization.

    The eta part is a / eta + w * eta whose minimum 2 sqrt(a w) sits at
    ``bound_eta_star``; the burn-in and noise-floor terms ride along
    unchanged.
    """
    descent, burn, floor, smooth = token_terms(c, bound_eta_star(c, alpha, b, t), alpha, b, True)
    return (descent + burn) / t + floor + smooth


def batch_star_given_momentum(c: BoundConstants, alpha: float, t: float) -> float:
    """Batch size minimizing the eta-tuned exact bound at fixed momentum.

    With s = sqrt(b) the value is A(alpha) s + B(alpha) / s, minimized at
    b = B / A; unclamped, so the result may fall below 1 at small budgets.
    """
    _require(0 < alpha <= 1, "alpha must be in (0, 1], got {}", alpha)
    _require(t > 0, "t must be > 0, got {}", t)
    weight = smoothness_weight(c, alpha, True)
    a_coeff = 2.0 * math.sqrt(c.delta0 * weight / t) + c.c2 / (alpha * t)
    b_coeff = c.c2 * math.sqrt(alpha)
    return b_coeff / a_coeff


@dataclass(unsafe_hash=True, slots=True)
class JointOptimum:
    """Jointly tuned (eta, alpha, b) at a token budget on the exact bound.

    ``alpha_root`` is the raw cubic root; ``alpha_star`` is the value after
    clamping into (0, 1].  ``cubic_residual`` is the root's relative residual
    |f(x)| / (a3 x^3 + a1 x + a0), a few 1e-16 at most.  ``asymptotic_alpha``
    is the two-term expansion, reported alongside the exact back-substituted
    optimum because the landscape in b is flat enough that hidden constants
    matter.  With ``b_clamped`` set, the fields are not the optimum over b >= 1:
    see ``optimal_joint``.
    """

    alpha_star: float
    b_star: float
    eta_star: float
    k_star: float
    risk_star: float
    cubic: CubicCoefficients
    alpha_root: float
    cubic_residual: float
    asymptotic_alpha: float
    alpha_clamped: bool
    b_clamped: bool
    objective: str = "bound_tokens"


def optimal_joint(c: BoundConstants, t: float) -> JointOptimum:
    """Exact joint optimum: cubic root for alpha, then back-substitution.

    b*(alpha) never exceeds alpha^(3/2) * T, so K* = T / b* >= 1 holds
    automatically.  At small budgets b* falls below 1; then b = 1, K* = T and
    ``b_clamped`` is set, but alpha stays the free-batch root and only eta is
    re-tuned, to ``bound_eta_star(c, alpha, 1, t)``.  That point can lie well
    above the optimum over b >= 1: at c1 = 2, c2 = 0.5, c3 = 1 and T = 1e6 it
    reports 0.064661 at alpha 0.00274, where alpha 0.0040 at b = 1 gives 0.063481.
    """
    cubic = momentum_cubic(c, t)
    root, residual = solve_momentum_cubic(cubic)
    alpha_clamped = root > 1.0
    alpha = min(root, 1.0)
    b_raw = batch_star_given_momentum(c, alpha, t)
    b_clamped = b_raw < 1.0
    b = max(b_raw, 1.0)
    return JointOptimum(
        alpha_star=alpha,
        b_star=b,
        eta_star=bound_eta_star(c, alpha, b, t),
        k_star=t / b,
        risk_star=bound_eta_minimized(c, alpha, b, t),
        cubic=cubic,
        alpha_root=root,
        cubic_residual=residual,
        asymptotic_alpha=asymptotic_momentum(c, t),
        alpha_clamped=alpha_clamped,
        b_clamped=b_clamped,
    )


def momentum_gap_ratio(alpha: float) -> float:
    """Rate-constant penalty of keeping momentum fixed, relative to alpha -> 0.

    The tuned-batch token optimum carries a (1 + alpha)^(1/4) factor, so the
    most that momentum re-tuning can buy is 2^(1/4) ~ 1.19.
    """
    _require(0 < alpha <= 1, "alpha must be in (0, 1], got {}", alpha)
    return (1.0 + alpha) ** 0.25


def tuned_risk_prefactor(c: BoundConstants, alpha: float) -> float:
    """T^(-1/4) coefficient of the batch-and-eta tuned proxy at fixed momentum."""
    return _tuned_risk(c, *effective_constants(c, alpha))


def capped_batch_noise_floor(c: BoundConstants, alpha: float, b_max: float) -> float:
    """Non-vanishing floor c2 sqrt(alpha) / sqrt(b_max) under a batch cap.

    With momentum fixed and the batch capped, tuning eta alone cannot beat
    this level no matter the budget; letting alpha shrink with T removes it.
    """
    c2_eff, _ = effective_constants(c, alpha)
    _require(b_max >= 1, "b_max must be >= 1, got {}", b_max)
    return c2_eff / math.sqrt(b_max)


@dataclass(unsafe_hash=True, slots=True)
class BatchPathPlan:
    """Schedule and achievable rate for a prescribed batch-growth exponent."""

    phi: float
    schedule: PowerLawSchedule
    rate_exponent: float
    regime: str  # "near-optimal" | "iteration-limited"


def batch_growth_plan(phi: float) -> BatchPathPlan:
    """Best (gamma, delta) schedule for batch growth b ~ T^phi, phi in [0, 1).

    Up to phi = 1/2 the ``TunedLaw.TUNED_MOMENTUM`` schedule keeps the full
    T^(-1/4) rate.  Faster batch growth follows ``TunedLaw.FIXED_MOMENTUM``
    and caps the rate at T^(-(1-phi)/2) (``aggressive_ceiling``).
    """
    _require(0.0 <= phi < 1.0, "phi must be in [0, 1), got {}", phi)
    if phi <= 0.5:
        return BatchPathPlan(phi=phi, schedule=TunedLaw.TUNED_MOMENTUM.schedule(phi),
                             rate_exponent=0.25, regime="near-optimal")
    return BatchPathPlan(phi=phi, schedule=TunedLaw.FIXED_MOMENTUM.schedule(phi),
                         rate_exponent=aggressive_ceiling(phi).rate_exponent,
                         regime="iteration-limited")
