"""Exception types shared across the package."""

__all__ = ["DomainError", "InfeasibleError", "BudgetTooSmallError", "NumericalError"]


class DomainError(ValueError):
    """An input violates a documented domain constraint."""


def _require(cond: bool, message: str, *args) -> None:
    """Raise ``DomainError`` unless ``cond`` holds.

    ``message`` is a literal template and ``args`` its values: the text is
    ``message.format(*args)``, built only when the check fails, so a passing
    check formats nothing.  With no ``args`` the message is raised verbatim,
    literal braces included.  Never pass a pre-formatted f-string.
    """
    if not cond:
        raise DomainError(message.format(*args) if args else message)


class InfeasibleError(ValueError):
    """The request has no feasible solution (empty grid, unreachable level, ...)."""


class BudgetTooSmallError(InfeasibleError):
    """Token budget smaller than the batch size, so not even one step fits."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""
