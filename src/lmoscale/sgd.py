"""Classical Euclidean SGD proxy, for head-to-head contrast.

The two-term bound descent/variance tradeoff tunes to a value that depends
only on the token budget, not the batch size, so plain SGD has no interior
token-optimal batch.  The norm-constrained proxies in ``closed_form`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _past_float_range, _require
from .proxy import BoundConstants, Budget, BudgetKind, HyperParams

__all__ = ["SgdInputs", "SgdTunedResult", "sgd_risk", "sgd_tuned"]


def _steps(budget: Budget, batch: float) -> float:
    # The two-term tradeoff extends formally to fractional step counts
    # (K = T / b < 1); the batch-independence of the tuned value is an
    # algebraic identity that does not care, so no feasibility gate here.
    if budget.kind is BudgetKind.ITERATIONS:
        return budget.value
    try:
        return budget.value / batch
    except OverflowError as exc:
        raise _past_float_range(exc, ("token budget", budget.value), ("batch", batch)) from None


@dataclass(frozen=True)
class SgdInputs:
    """Inputs of the classical SGD bound delta0/(eta K) + L eta sigma^2 / b."""

    delta0: float
    smoothness: float
    noise_scale: float
    eta: float
    batch: float
    budget: Budget

    def __post_init__(self) -> None:
        # validates the inputs with the proxy's checks and messages
        BoundConstants(self.delta0, self.smoothness, self.noise_scale)
        HyperParams(self.eta, 1.0, self.batch)

    @property
    def stability_cap(self) -> float:
        """Constant-step condition of the bound: eta <= 1 / L."""
        return 1.0 / self.smoothness

    @property
    def exceeds_cap(self) -> bool:
        return self.eta > self.stability_cap


def sgd_risk(inp: SgdInputs) -> float:
    """Exact two-term bound value; token budgets substitute K = T / b.

    Evaluates regardless of the stability cap; check ``inp.exceeds_cap``
    when the constant-step condition matters.
    """
    k = _steps(inp.budget, inp.batch)
    return inp.delta0 / (inp.eta * k) + inp.smoothness * inp.eta * inp.noise_scale**2 / inp.batch


@dataclass(unsafe_hash=True, slots=True)
class SgdTunedResult:
    """Step size tuned under the SGD proxy.

    ``value`` is reported on the normalization where the uncapped optimum
    equals sqrt(delta0 * L * sigma^2 / T) in token form: half of the
    two-term objective at eta_star (the geometric mean of the balanced
    terms).  ``proxy_value`` carries the unhalved objective.  When the
    stability cap binds, eta_star is the cap and both values are evaluated
    there, with ``capped`` set.
    """

    eta_star: float
    value: float
    proxy_value: float
    capped: bool


def sgd_tuned(
    delta0: float,
    smoothness: float,
    noise_scale: float,
    batch: float,
    budget: Budget,
    enforce_cap: bool = True,
) -> SgdTunedResult:
    """Minimize the SGD proxy over the step size at fixed batch and budget.

    Uncapped, eta* = sqrt(delta0 b / (L sigma^2 K)) ~ b / sqrt(T) in token
    form, and the tuned value is independent of the batch size.  With
    ``enforce_cap`` the step size is limited to 1 / L (flagged when
    binding); pass False to inspect the pre-cap optimum, where ``capped``
    still reports whether the cap would have been hit.
    """
    _require(delta0 > 0, "delta0 must be > 0, got {}", delta0)
    _require(smoothness > 0, "smoothness must be > 0, got {}", smoothness)
    _require(noise_scale > 0, "noise_scale must be > 0, got {}", noise_scale)
    _require(batch >= 1, "batch must be >= 1, got {}", batch)
    k = _steps(budget, batch)
    descent = delta0 / k
    variance = smoothness * noise_scale**2 / batch
    eta_unc = math.sqrt(descent / variance)
    cap = 1.0 / smoothness
    would_cap = eta_unc > cap
    if enforce_cap and would_cap:
        eta = cap
        proxy = descent / eta + variance * eta
    else:
        eta = eta_unc
        proxy = 2.0 * math.sqrt(descent * variance)
    return SgdTunedResult(eta_star=eta, value=proxy / 2.0, proxy_value=proxy, capped=would_cap)
