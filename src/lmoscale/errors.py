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


class _Count(int):
    """An int whose ``{:.<digits>g}`` is a float's, read off the int even past the float range."""

    def __format__(self, spec: str) -> str:
        digits, exp = int(spec[1:-1]), len(str(self)) - 1  # spec is ".<digits>g"
        if exp < digits:
            return str(self)
        scale = 10 ** (exp + 1 - digits)
        q, r = divmod(int(self), scale)
        q += 2 * r > scale or (2 * r == scale and q % 2)  # round half to even, as floats do
        text = str(q)  # digits + 1 long when the rounding carries
        tail = text[1:digits].rstrip("0")
        return f"{text[0]}{'.' if tail else ''}{tail}e+{exp + len(text) - digits:02d}"


class InfeasibleError(ValueError):
    """The request has no feasible solution (empty grid, unreachable level, ...)."""


class BudgetTooSmallError(InfeasibleError):
    """Token budget smaller than the batch size, so not even one step fits."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""
