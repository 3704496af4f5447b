"""Scaling-law engine for norm-constrained (LMO) optimizer hyperparameters.

Evaluates a convergence-bound proxy for normalized, sign, and
orthogonalized stochastic descent with momentum, derives the exact optimal
(learning rate, momentum, batch size) schedules across tuning regimes and
token budgets, verifies them against a brute-force grid oracle and a
desk-scale simulator, and computes budget-transfer plans and
iso-performance contours.

Public names come from each module's ``__all__`` and load on first use
(PEP 562); only ``grid`` and ``sim`` import numpy, searched last.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# searched in this order for a name; grid and sim, which import numpy, come last
_MODULES = ("errors", "proxy", "schedules", "closed_form", "sgd", "transfer",
            "contours", "grid", "sim")


def __getattr__(name: str):
    if name == "__all__":
        value = [*_MODULES, *(n for m in _MODULES for n in __getattr__(m).__all__)]
    elif name in _MODULES or name in ("serialize", "cli"):
        value = _import_module(f"{__name__}.{name}")
    else:
        # no __all__ holds a private name, so one raises without loading a module
        owner = None if name.startswith("_") else next(
            (m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
