"""Power-law rate calculus for hyperparameter schedules.

Every schedule and transfer rule takes its exponents from ``TunedLaw``.
Given schedules b ~ T^phi, alpha ~ T^-gamma, eta ~ T^-delta, each of the
five bound terms decays with its own token exponent; this module computes
those, the ceiling under aggressive batch growth, the noise-exponent
sensitivity of the tuning rules, and the step-size exponent along a path.

Pure calculators only: nothing here fits exponents from data.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "PowerLawSchedule",
    "TunedLaw",
    "RateExponents",
    "AggressiveCeiling",
    "NoiseModel",
    "NoiseSensitivity",
    "PathExponents",
    "PathAnalysis",
    "rate_exponents",
    "aggressive_ceiling",
    "noise_exponent_sensitivity",
    "effective_eta_exponent",
]

TERM_NAMES = ("descent", "burn_in", "noise_floor", "smoothness", "momentum_smoothness")


@dataclass(frozen=True)
class PowerLawSchedule:
    """Exponents of the schedules b ~ T^b_exp, alpha ~ T^-alpha_exp, eta ~ T^-eta_exp.

    b_exp is the batch-growth exponent (phi); it must lie in [0, 1] since
    1 <= b <= T.  alpha_exp (gamma) and eta_exp (delta) are unrestricted.
    """

    b_exp: float
    alpha_exp: float
    eta_exp: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.b_exp <= 1.0:
            raise DomainError(f"b_exp must be in [0, 1], got {self.b_exp}")


class TunedLaw(Enum):
    """The tuned laws eta* ~ b^eta_b / T^eta_t and alpha* ~ b^alpha_b / T^alpha_t.

    The bound yields three.  Fixed momentum is the square-root rule (Malladi
    et al., 2022) and SGD the linear rule (Goyal et al., 2017); momentum
    tuned at a fixed batch is the only law with alpha_b, alpha_t != 0.
    """

    #               eta_b, eta_t, alpha_b, alpha_t
    FIXED_MOMENTUM = (0.5, 0.5, 0.0, 0.0)
    TUNED_MOMENTUM = (1.0, 0.75, 1.0, 0.5)
    SGD = (1.0, 0.5, 0.0, 0.0)

    def __init__(self, eta_b: float, eta_t: float, alpha_b: float, alpha_t: float) -> None:
        self.eta_b, self.eta_t, self.alpha_b, self.alpha_t = eta_b, eta_t, alpha_b, alpha_t
        self.tunes_momentum = alpha_b != 0.0 or alpha_t != 0.0

    def schedule(self, phi: float) -> PowerLawSchedule:
        """The law along the batch path b ~ T^phi: b^x / T^y decays as T^-(y - x phi)."""
        return PowerLawSchedule(phi, self.alpha_t - self.alpha_b * phi,
                                self.eta_t - self.eta_b * phi)


@dataclass(frozen=True)
class RateExponents:
    """Decay exponents of the five bound terms; the bound decays as T^-overall.

    ``diverging`` names the terms with a negative exponent.  A non-empty
    tuple means the schedule does not drive every term to zero; the overall
    value is still reported rather than raising.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float
    overall: float
    diverging: tuple[str, ...]

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r1, self.r2, self.r3, self.r4, self.r5)


def rate_exponents(s: PowerLawSchedule) -> RateExponents:
    """Token-decay exponents of the five bound terms under power-law schedules."""
    phi, gamma, delta = s.b_exp, s.alpha_exp, s.eta_exp
    rs = (
        1.0 - phi - delta,
        1.0 - phi / 2.0 - gamma,
        (phi + gamma) / 2.0,
        delta,
        delta - gamma,
    )
    diverging = tuple(name for name, r in zip(TERM_NAMES, rs) if r < 0)
    return RateExponents(*rs, overall=min(rs), diverging=diverging)


@dataclass(frozen=True)
class AggressiveCeiling:
    """Best achievable decay when the batch grows faster than sqrt(T).

    The descent and plain smoothness terms alone cap the rate; balancing
    them fixes the step-size exponent.  In step count K ~ T^(1 - phi) the
    same ceiling reads K^-1/2: the bound becomes iteration-limited.
    """

    phi: float
    delta_star: float
    rate_exponent: float
    k_exponent: float
    rate_exponent_in_k: float = 0.5


def aggressive_ceiling(phi: float) -> AggressiveCeiling:
    """Balancing step-size exponent and rate ceiling for phi in (1/2, 1)."""
    if not 0.5 < phi < 1.0:
        raise DomainError(f"phi must be in (1/2, 1), got {phi}")
    delta_star = TunedLaw.FIXED_MOMENTUM.schedule(phi).eta_exp
    return AggressiveCeiling(
        phi=phi, delta_star=delta_star, rate_exponent=delta_star, k_exponent=1.0 - phi
    )


@dataclass(frozen=True)
class NoiseModel:
    """Mini-batch noise magnitude ~ b^-q.

    q = 1/2 is the independent bounded-variance case.  A heavy-tail moment
    index p in (1, 2] induces q = 1 - 1/p: p is checked first, q is formed
    from it when not given, and a q given beside p must agree with it.
    ``init_error`` is an optional momentum-start error scale for non-matched
    starts; it replaces the 1/sqrt(b) decay of the burn-in numerator and no
    schedule is derived from it here, it is only carried through.
    """

    q: float | None = None
    heavy_tail_p: float | None = None
    init_error: float | None = None

    def __post_init__(self) -> None:
        p = self.heavy_tail_p
        if p is not None:
            if not 1.0 < p <= 2.0:
                raise DomainError(f"heavy_tail_p must be in (1, 2], got {p}")
            implied = 1.0 - 1.0 / p
            if self.q is None:
                object.__setattr__(self, "q", implied)
        if self.q is None:
            raise DomainError("NoiseModel needs q or heavy_tail_p")
        if not 0.0 < self.q <= 1.0:
            raise DomainError(f"q must be in (0, 1], got {self.q}")
        if p is not None and abs(self.q - implied) > 1e-12:
            raise DomainError(f"heavy_tail_p={p} requires q = 1 - 1/p = {implied}, got {self.q}")

    @classmethod
    def heavy_tailed(cls, p: float) -> "NoiseModel":
        return cls(heavy_tail_p=p)


@dataclass(frozen=True)
class NoiseSensitivity:
    """How the tuned schedules and the batch landscape react to the noise exponent.

    The tuned momentum follows alpha* ~ b^alpha_b_exp * K^-alpha_k_exp and
    the tuned step size eta* ~ b^eta_b_exp * K^-eta_k_exp.  At a fixed token
    budget the tuned value scales as T^-1/4 * b^perf_b_exponent, so the sign
    of perf_b_exponent says whether the landscape in b is flat, pushes
    toward small batches, or rewards large ones.
    """

    q: float
    alpha_b_exp: float
    alpha_k_exp: float
    eta_b_exp: float
    eta_k_exp: float
    perf_b_exponent: float
    interpretation: str
    perf_scale: float
    init_error: float | None = None


def noise_exponent_sensitivity(model: NoiseModel, b: float, t: float) -> NoiseSensitivity:
    """Tuning-rule exponents under noise ~ b^-q, evaluated at a (b, T) point.

    ``perf_scale`` is the unit-constant value T^-1/4 * b^(1/4 - q/2) at the
    given point, useful for comparing batch choices at one budget.
    """
    if b < 1 or t < b:
        raise DomainError(f"need 1 <= b <= t, got b={b}, t={t}")
    exponent = 0.25 - model.q / 2.0
    if exponent == 0.0:
        interpretation = "flat-in-batch"
    elif exponent > 0.0:
        interpretation = "prefers-small-batch"
    else:
        interpretation = "prefers-large-batch"
    return NoiseSensitivity(
        q=model.q,
        alpha_b_exp=model.q,
        alpha_k_exp=0.5,
        eta_b_exp=model.q / 2.0,
        eta_k_exp=0.75,
        perf_b_exponent=exponent,
        interpretation=interpretation,
        perf_scale=t**-0.25 * b**exponent,
        init_error=model.init_error,
    )


@dataclass(frozen=True)
class PathExponents:
    """Separable step-size law eta*(b, K) ~ b^kappa * K^-lam along a path b ~ T^p."""

    kappa: float
    lam: float
    p: float

    def __post_init__(self) -> None:
        if self.kappa < 0 or self.lam < 0:
            raise DomainError(f"kappa and lam must be >= 0, got {self.kappa}, {self.lam}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class PathAnalysis:
    """Effective token exponent of the tuned step size measured along the path.

    q_eff > 0 exactly when p exceeds threshold_p = lam / (kappa + lam):
    a step size that decreases at fixed batch can still be fitted with a
    positive token exponent when the budget grows mostly through batches.
    ``alpha_saturates`` warns that the companion momentum schedule
    alpha ~ T^(p - 1/2) eventually hits its ceiling of 1 when p > 1/2.
    """

    q_eff: float
    threshold_p: float | None
    alpha_saturates: bool


def effective_eta_exponent(path: PathExponents) -> PathAnalysis:
    q_eff = path.kappa * path.p - path.lam * (1.0 - path.p)
    total = path.kappa + path.lam
    threshold = path.lam / total if total > 0 else None
    return PathAnalysis(
        q_eff=q_eff,
        threshold_p=threshold,
        alpha_saturates=path.p > 0.5,
    )
