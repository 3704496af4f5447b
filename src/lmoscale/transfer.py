"""Budget-transfer rules: extrapolate a tuned configuration to a longer run.

A configuration tuned at token budget T0 is rescaled to T1 >= T0 by a
tuned law of ``schedules.TunedLaw``, x1 = x0 (b1/b0)^x (t0/t1)^y, at the
regime's or the caller's b1, capped to ``b_max`` before the law is
evaluated.  Infeasible extrapolations are clamped and flagged rather than
rejected, so callers choose the policy; a result or invariant that leaves
the float range (0, inf or NaN) raises ``NumericalError``.  Batch sizes
stay real-valued here; rounding belongs at the simulator boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import NumericalError, _message, _past_float_range, _require
from .schedules import TunedLaw

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


# (tuned law, batch exponent phi of b ~ T^phi) of each regime: A tunes eta
# alone, B (alpha, eta) at fixed batch, C (b, eta) at fixed momentum, D all
# three; SGD tunes eta like A under the SGD law.
_REGIME_LAWS = {
    TransferRegime.FIXED_BATCH_FIXED_MOMENTUM: (TunedLaw.FIXED_MOMENTUM, 0.0),
    TransferRegime.FIXED_BATCH_TUNED_MOMENTUM: (TunedLaw.TUNED_MOMENTUM, 0.0),
    TransferRegime.TUNED_BATCH_FIXED_MOMENTUM: (TunedLaw.FIXED_MOMENTUM, 0.5),
    TransferRegime.JOINT: (TunedLaw.TUNED_MOMENTUM, 1.0 / 6.0),
    TransferRegime.SGD: (TunedLaw.SGD, 0.0),
}

# Exponents (phi, gamma, delta) of b ~ T^phi, alpha ~ T^-gamma, eta ~ T^-delta
# that each regime's law follows along its batch path.
REGIME_SCHEDULES = {regime: law.schedule(phi) for regime, (law, phi) in _REGIME_LAWS.items()}


class BatchChangeSetting(Enum):
    """Transfer family when the long run also changes the batch size."""

    LMO_FIXED_MOMENTUM = "lmo-fixed-momentum"
    LMO_TUNED_MOMENTUM = "lmo-tuned-momentum"
    SGD = "sgd"


_SETTING_LAWS = {
    BatchChangeSetting.LMO_FIXED_MOMENTUM: TunedLaw.FIXED_MOMENTUM,
    BatchChangeSetting.LMO_TUNED_MOMENTUM: TunedLaw.TUNED_MOMENTUM,
    BatchChangeSetting.SGD: TunedLaw.SGD,
}


@dataclass(frozen=True)
class TunedConfig:
    """Best configuration found at the short run (t0, b0)."""

    t0: float
    b0: float
    eta0: float
    alpha0: float

    def __post_init__(self) -> None:
        _require(self.t0 > 0, "t0 must be > 0, got {}", self.t0)
        _require(self.b0 >= 1, "b0 must be >= 1, got {}", self.b0)
        _require(self.eta0 > 0, "eta0 must be > 0, got {}", self.eta0)
        _require(0 < self.alpha0 <= 1, "alpha0 must be in (0, 1], got {}", self.alpha0)


def _rescale(cfg: TunedConfig, t1: float, b1: float, law: TunedLaw,
             b_max: float | None) -> tuple:
    """(eta1, alpha1, b1, flags): the law at b1 capped to b_max, alpha clamped to 1."""
    capped = b_max is not None and not b1 <= b_max  # a NaN cap fails the check below
    if capped:
        _require(b_max >= 1, "b_max must be >= 1, got {}", b_max)
        b1 = b_max
    b_ratio, ratio = b1 / cfg.b0, cfg.t0 / t1
    eta1 = cfg.eta0 * b_ratio**law.eta_b * ratio**law.eta_t
    alpha1 = cfg.alpha0
    if law.tunes_momentum:
        alpha1 = alpha1 * b_ratio**law.alpha_b * ratio**law.alpha_t
    flags = []
    if alpha1 > 1.0:
        alpha1 = 1.0
        flags.append("alpha-clamped")
    if capped:
        flags.append("b-capped")
    if not (0.0 < eta1 < math.inf and 0.0 < alpha1 < math.inf and 0.0 < b1 < math.inf):
        raise _range_error(cfg, t1, ("eta1", eta1), ("alpha1", alpha1), ("b1", b1))
    return eta1, alpha1, b1, tuple(flags)


def _range_error(cfg: TunedConfig, t1: float, *named: tuple) -> NumericalError:
    """NumericalError naming the first (name, value) pair that is 0, inf or NaN."""
    name, value = next((n, v) for n, v in named if not 0.0 < v < math.inf)
    return NumericalError(_message("transfer {} = {} leaves the float range from t0={}, b0={} "
                                   "to t1={}", name, value, cfg.t0, cfg.b0, t1))


@dataclass(unsafe_hash=True, slots=True)
class TransferResult:
    eta1: float
    alpha1: float
    b1: float
    regime: TransferRegime
    flags: tuple[str, ...]


def extrapolate(cfg: TunedConfig, t1: float, regime: TransferRegime,
                b_max: float | None = None) -> TransferResult:
    """Rescale (eta, alpha, b) from t0 to t1 by the regime's tuned law.

    b1 = b0 (t1/t0)^phi with the regime's phi, capped to ``b_max`` (flagged
    "b-capped"), and eta, alpha follow its law at (t1, b1): uncapped, its
    schedule in ``REGIME_SCHEDULES``.  Pure power laws, so uncapped
    transfers compose: t0 -> t1 -> t2 equals t0 -> t2 for every regime.
    """
    _require(t1 >= cfg.t0, "t1 must be >= t0, got t1={}, t0={}", t1, cfg.t0)
    law, phi = _REGIME_LAWS.get(regime, (None, None))
    _require(law is not None, "unknown transfer regime {!r}", regime)
    try:
        growth = t1 / cfg.t0
    except OverflowError as exc:
        raise _past_float_range(exc, ("t1", t1)) from None
    eta1, alpha1, b1, flags = _rescale(cfg, t1, cfg.b0 * growth**phi, law, b_max)
    return TransferResult(eta1=eta1, alpha1=alpha1, b1=b1, regime=regime, flags=flags)


@dataclass(unsafe_hash=True, slots=True)
class BatchChangeResult:
    """Extrapolated configuration plus the calibrated path invariants.

    ``c_eta`` (and ``c_alpha`` where the law tunes momentum) are the
    constants x0 t0^y / b0^x of the tuned law fitted at (t0, b0);
    re-evaluating c b1^x / t1^y at (t1, b1) reproduces eta1/alpha1, with
    b1 the reported batch, capped or not (alpha1 unless clamped to 1).
    """

    eta1: float
    alpha1: float
    b1: float
    setting: BatchChangeSetting
    flags: tuple[str, ...]
    c_eta: float
    c_alpha: float | None = None


def extrapolate_with_batch_change(cfg: TunedConfig, t1: float, b1: float,
                                  setting: BatchChangeSetting,
                                  b_max: float | None = None) -> BatchChangeResult:
    """Transfer to (t1, b1) when the long run uses a different batch size.

    Each setting follows its row of ``schedules.TunedLaw``:

        LMO fixed momentum:  eta1 = eta0 * sqrt(b1/b0) * sqrt(t0/t1)
        LMO tuned momentum:  alpha1 = alpha0 * (b1/b0) * sqrt(t0/t1)
                             eta1   = eta0 * (b1/b0) * (t0/t1)^(3/4)
        SGD:                 eta1 = eta0 * (b1/b0) * sqrt(t0/t1)

    A b1 above ``b_max`` is capped to it (flagged "b-capped") before the law
    is evaluated, so the result sits on the law at the batch it reports.
    """
    _require(t1 >= cfg.t0, "t1 must be >= t0, got t1={}, t0={}", t1, cfg.t0)
    _require(b1 >= 1, "b1 must be >= 1, got {}", b1)
    law = _SETTING_LAWS.get(setting)
    _require(law is not None, "unknown batch-change setting {!r}", setting)
    c_eta = cfg.eta0 * cfg.t0**law.eta_t / cfg.b0**law.eta_b
    c_alpha = None
    if law.tunes_momentum:
        c_alpha = cfg.alpha0 * cfg.t0**law.alpha_t / cfg.b0**law.alpha_b
    if not (0.0 < c_eta < math.inf and (c_alpha is None or 0.0 < c_alpha < math.inf)):
        raise _range_error(cfg, t1, ("invariant c_eta", c_eta), ("invariant c_alpha", c_alpha))
    eta1, alpha1, b1, flags = _rescale(cfg, t1, b1, law, b_max)
    return BatchChangeResult(eta1=eta1, alpha1=alpha1, b1=b1, setting=setting, flags=flags,
                             c_eta=c_eta, c_alpha=c_alpha)
