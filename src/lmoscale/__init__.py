"""Scaling-law engine for norm-constrained (LMO) optimizer hyperparameters.

Evaluates a convergence-bound proxy for normalized, sign, and
orthogonalized stochastic descent with momentum, derives the exact optimal
(learning rate, momentum, batch size) schedules across tuning regimes and
token budgets, verifies them against a brute-force grid oracle and a
desk-scale simulator, and computes budget-transfer plans and
iso-performance contours.
"""

from .closed_form import (
    BatchPathPlan,
    CubicCoefficients,
    FixedBatchOptimum,
    FixedMomentumOptimum,
    JointOptimum,
    asymptotic_momentum,
    asymptotic_momentum_terms,
    batch_growth_plan,
    batch_star_given_momentum,
    bound_eta_minimized,
    bound_eta_star,
    capped_batch_noise_floor,
    effective_constants,
    momentum_cubic,
    momentum_gap_ratio,
    optimal_fixed_batch,
    optimal_fixed_momentum_steps,
    optimal_fixed_momentum_tokens,
    optimal_joint,
    solve_momentum_cubic,
    tuned_risk_prefactor,
)
from .contours import ContourConstants, LevelPoint, LevelSet, level_set, tuned_bound
from .errors import BudgetTooSmallError, DomainError, InfeasibleError, NumericalError
from .grid import (
    Constraint,
    FitResult,
    GridSpec,
    SweepRecord,
    SweepResult,
    detect_burn_in,
    fit_power_law,
    fit_sweep_exponents,
    sweep,
)
from .proxy import (
    BoundConstants,
    Budget,
    BudgetKind,
    HyperParams,
    bound_steps,
    bound_tokens,
    large_horizon_gap,
    risk_large_horizon,
    risk_steps,
    risk_tokens,
)
from .schedules import (
    AggressiveCeiling,
    NoiseModel,
    NoiseSensitivity,
    PathAnalysis,
    PathExponents,
    PowerLawSchedule,
    RateExponents,
    TunedLaw,
    aggressive_ceiling,
    effective_eta_exponent,
    noise_exponent_sensitivity,
    rate_exponents,
)
from .sgd import SgdInputs, SgdTunedResult, sgd_risk, sgd_tuned
from .sim import (
    LmoConfig,
    NormKind,
    ObjectiveSpec,
    SimPoint,
    SimRun,
    SimSweepResult,
    dual_norm,
    integer_batch,
    lmo_direction,
    momentum_update,
    polar_factor,
    run,
    sweep_sim,
)
from .transfer import (
    BatchChangeResult,
    BatchChangeSetting,
    TransferRegime,
    TransferResult,
    TunedConfig,
    extrapolate,
    extrapolate_with_batch_change,
)

__version__ = "0.1.0"
