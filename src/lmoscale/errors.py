"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented domain constraint."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


class InfeasibleError(ValueError):
    """The request has no feasible solution (empty grid, unreachable level, ...)."""


class BudgetTooSmallError(InfeasibleError):
    """Token budget smaller than the batch size, so not even one step fits."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""
