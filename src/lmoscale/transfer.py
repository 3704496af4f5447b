"""Budget-transfer rules: extrapolate a tuned configuration to a longer run.

A configuration tuned at token budget T0 is rescaled to T1 >= T0 by the
power laws of the regime it was tuned in.  Infeasible extrapolations are
clamped and flagged rather than rejected, so callers choose the policy.
Batch sizes stay real-valued here; rounding to integers belongs at the
simulator boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, _require
from .schedules import PowerLawSchedule

__all__ = [
    "TransferRegime",
    "REGIME_SCHEDULES",
    "BatchChangeSetting",
    "TunedConfig",
    "TransferResult",
    "BatchChangeResult",
    "extrapolate",
    "extrapolate_with_batch_change",
]


class TransferRegime(Enum):
    """What was tuned at the short run; determines the rescaling exponents."""

    FIXED_BATCH_FIXED_MOMENTUM = "A"
    FIXED_BATCH_TUNED_MOMENTUM = "B"
    TUNED_BATCH_FIXED_MOMENTUM = "C"
    JOINT = "D"
    SGD = "sgd"


# Exponents (phi, gamma, delta) of b ~ T^phi, alpha ~ T^-gamma, eta ~ T^-delta
# that each regime tunes along: A eta alone, B (alpha, eta) at fixed batch,
# C (b, eta) at fixed momentum, D all three; SGD rescales eta like A.
REGIME_SCHEDULES = {
    TransferRegime.FIXED_BATCH_FIXED_MOMENTUM: PowerLawSchedule(0.0, 0.0, 0.5),
    TransferRegime.FIXED_BATCH_TUNED_MOMENTUM: PowerLawSchedule(0.0, 0.5, 0.75),
    TransferRegime.TUNED_BATCH_FIXED_MOMENTUM: PowerLawSchedule(0.5, 0.0, 0.25),
    TransferRegime.JOINT: PowerLawSchedule(1.0 / 6.0, 1.0 / 3.0, 7.0 / 12.0),
    TransferRegime.SGD: PowerLawSchedule(0.0, 0.0, 0.5),
}


class BatchChangeSetting(Enum):
    """Transfer family when the long run also changes the batch size."""

    LMO_FIXED_MOMENTUM = "lmo-fixed-momentum"
    LMO_TUNED_MOMENTUM = "lmo-tuned-momentum"
    SGD = "sgd"


@dataclass(frozen=True)
class TunedConfig:
    """Best configuration found at the short run (t0, b0)."""

    t0: float
    b0: float
    eta0: float
    alpha0: float

    def __post_init__(self) -> None:
        _require(self.t0 > 0, f"t0 must be > 0, got {self.t0}")
        _require(self.b0 >= 1, f"b0 must be >= 1, got {self.b0}")
        _require(self.eta0 > 0, f"eta0 must be > 0, got {self.eta0}")
        _require(0 < self.alpha0 <= 1, f"alpha0 must be in (0, 1], got {self.alpha0}")


def _clamp(eta1: float, alpha1: float, b1: float, b_max: float | None) -> tuple:
    flags = []
    if alpha1 > 1.0:
        alpha1 = 1.0
        flags.append("alpha-clamped")
    if b1 < 1.0:
        b1 = 1.0
        flags.append("b-clamped")
    if b_max is not None and b1 > b_max:
        b1 = b_max
        flags.append("b-capped")
    return eta1, alpha1, b1, tuple(flags)


@dataclass(frozen=True)
class TransferResult:
    eta1: float
    alpha1: float
    b1: float
    regime: TransferRegime
    flags: tuple[str, ...]


def extrapolate(
    cfg: TunedConfig,
    t1: float,
    regime: TransferRegime,
    b_max: float | None = None,
) -> TransferResult:
    """Rescale (eta, alpha, b) from t0 to t1 by the regime's power law.

    With the regime's schedule (phi, gamma, delta) from ``REGIME_SCHEDULES``:
    b *= (t1/t0)^phi, alpha *= (t0/t1)^gamma, eta *= (t0/t1)^delta.  Pure
    power laws, so transfers compose exactly: t0 -> t1 -> t2 equals
    t0 -> t2 for every regime.
    """
    _require(t1 >= cfg.t0, f"t1 must be >= t0, got t1={t1}, t0={cfg.t0}")
    s = REGIME_SCHEDULES.get(regime)
    if s is None:
        raise DomainError(f"unknown transfer regime {regime!r}")
    ratio = cfg.t0 / t1
    eta1, alpha1, b1, flags = _clamp(
        cfg.eta0 * ratio**s.eta_exp,
        cfg.alpha0 * ratio**s.alpha_exp,
        cfg.b0 * (t1 / cfg.t0) ** s.b_exp,
        b_max,
    )
    return TransferResult(eta1=eta1, alpha1=alpha1, b1=b1, regime=regime, flags=flags)


@dataclass(frozen=True)
class BatchChangeResult:
    """Extrapolated configuration plus the calibrated path invariants.

    ``c_eta`` (and ``c_alpha`` where momentum is tuned) are the constants of
    the schedule family fitted at (t0, b0); re-evaluating them at (t1, b1)
    reproduces eta1/alpha1 exactly.
    """

    eta1: float
    alpha1: float
    b1: float
    setting: BatchChangeSetting
    flags: tuple[str, ...]
    c_eta: float
    c_alpha: float | None = None


def extrapolate_with_batch_change(
    cfg: TunedConfig,
    t1: float,
    b1: float,
    setting: BatchChangeSetting,
    b_max: float | None = None,
) -> BatchChangeResult:
    """Transfer to (t1, b1) when the long run uses a different batch size.

        LMO fixed momentum:  eta1 = eta0 * sqrt(b1/b0) * sqrt(t0/t1)
        LMO tuned momentum:  alpha1 = alpha0 * (b1/b0) * sqrt(t0/t1)
                             eta1   = eta0 * (b1/b0) * (t0/t1)^(3/4)
        SGD:                 eta1 = eta0 * (b1/b0) * sqrt(t0/t1)
    """
    _require(t1 >= cfg.t0, f"t1 must be >= t0, got t1={t1}, t0={cfg.t0}")
    _require(b1 >= 1, f"b1 must be >= 1, got {b1}")
    ratio = cfg.t0 / t1
    b_ratio = b1 / cfg.b0
    alpha1 = cfg.alpha0
    c_alpha = None
    if setting is BatchChangeSetting.LMO_FIXED_MOMENTUM:
        eta1 = cfg.eta0 * math.sqrt(b_ratio) * math.sqrt(ratio)
        c_eta = cfg.eta0 * math.sqrt(cfg.t0 / cfg.b0)
    elif setting is BatchChangeSetting.LMO_TUNED_MOMENTUM:
        alpha1 = cfg.alpha0 * b_ratio * math.sqrt(ratio)
        eta1 = cfg.eta0 * b_ratio * ratio**0.75
        c_alpha = cfg.alpha0 * math.sqrt(cfg.t0) / cfg.b0
        c_eta = cfg.eta0 * cfg.t0**0.75 / cfg.b0
    elif setting is BatchChangeSetting.SGD:
        eta1 = cfg.eta0 * b_ratio * math.sqrt(ratio)
        c_eta = cfg.eta0 * math.sqrt(cfg.t0) / cfg.b0
    else:
        raise DomainError(f"unknown batch-change setting {setting!r}")
    eta1, alpha1, b1, flags = _clamp(eta1, alpha1, b1, b_max)
    return BatchChangeResult(
        eta1=eta1,
        alpha1=alpha1,
        b1=b1,
        setting=setting,
        flags=flags,
        c_eta=c_eta,
        c_alpha=c_alpha,
    )
