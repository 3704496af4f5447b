"""Exception types shared across the package, and the formatter of every library message."""

import math
import sys
from numbers import Integral

__all__ = ["DomainError", "InfeasibleError", "BudgetTooSmallError", "NumericalError"]


class DomainError(ValueError):
    """An input violates a documented domain constraint."""


def _require(cond: bool, message: str, *args) -> None:
    """Raise ``DomainError`` unless ``cond`` holds, with the text ``_message(message, *args)``.

    ``message`` is a literal template, never a pre-formatted f-string, so a
    passing check formats nothing.
    """
    if not cond:
        raise DomainError(_message(message, *args))


def _require_int(value, name: str, least: int) -> None:
    """Reject anything but an integer >= least: a bool, or a float of integral value, too."""
    _require(isinstance(value, Integral) and not isinstance(value, bool) and value >= least,
             "{} must be an integer >= {}, got {!r}", name, least, value)


def _past_float_range(exc: OverflowError, *named: tuple) -> Exception:
    """What an ``except OverflowError`` raises: a DomainError naming the first (name, value)
    pair past the float range, or ``exc`` when none is.

    Float arithmetic overflows to inf, so an OverflowError there comes from an
    int operand too large to convert, or from a float ``**`` or ``math`` call,
    which keeps its own error.
    """
    for name, value in named:
        if not abs(value) <= sys.float_info.max:
            return DomainError(_message("{} = {} is past the float range", name, value))
    return exc


def _message(template: str, *args) -> str:
    """``template.format(*args)`` with plain ints as ``_Count``; with no args, the template."""
    values = [_Count(a) if type(a) is int else a for a in args]
    return template.format(*values) if values else template


class _Count(int):
    """An int whose ``{}``, ``{!r}`` and ``{:.<digits>g}`` never fail.

    Each is the int's while it can be; past the int-to-str digit limit (to 17
    digits) or the float range it is a float's scientific form, read off the int.
    """

    def __repr__(self) -> str:
        try:
            return int.__repr__(self)
        except ValueError:  # more digits than int-to-str conversion allows
            return self._scientific(17)

    def __format__(self, spec: str) -> str:
        try:
            return int.__format__(self, spec)
        except OverflowError:  # ".<digits>g" past the float range
            return self._scientific(int(spec[1:-1]))

    def _scientific(self, digits: int) -> str:
        n = abs(int(self))
        exp = int(math.log10(n))  # from the int's bits; may be one off
        exp += (10 ** (exp + 1) <= n) - (10**exp > n)
        scale = 10 ** (exp + 1 - digits)
        q, r = divmod(n, scale)
        q += 2 * r > scale or (2 * r == scale and q % 2)  # round half to even, as floats do
        text = str(q)  # digits + 1 long when the rounding carries
        tail = text[1:digits].rstrip("0")
        sign = "-" if self < 0 else ""
        return f"{sign}{text[0]}{'.' if tail else ''}{tail}e+{exp + len(text) - digits:02d}"


class InfeasibleError(ValueError):
    """The request has no feasible solution (empty grid, unreachable level, ...)."""


class BudgetTooSmallError(InfeasibleError):
    """Token budget smaller than the batch size, so not even one step fits."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""
