"""Exception hierarchy, and the scalar checks that raise it.

Everything raised on bad input derives from ValidationError, which is also a
ValueError so that callers using plain ``except ValueError`` keep working.
A public entry point checks each argument once, with ``_real``, ``_unit``,
``_integer`` or ``_tuple``; internal loops take the checked value as it is.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping


class TvklError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TvklError, ValueError):
    """An input violates an operation's contract."""


class NegativeWeightError(ValidationError):
    """A probability weight is negative (or not a finite number)."""


class SumToleranceError(ValidationError):
    """Weights do not sum to 1 within the construction tolerance."""

    def __init__(self, total: float, tolerance: float):
        self.total = total
        self.tolerance = tolerance
        super().__init__(
            f"probs: weights sum to {total!r}, more than {tolerance!r} away from 1"
        )


class DuplicateLabelError(ValidationError):
    """Two support atoms share the same label."""


class EmptySupportError(ValidationError):
    """A distribution needs at least one atom."""


class InvalidLabelError(ValidationError):
    """A label is not usable (wrong type, or contains the reserved separator)."""


class OutOfRangeError(ValidationError):
    """A numeric argument lies outside its documented domain."""


class TooLargeError(ValidationError):
    """The request exceeds an explicit size cap for exhaustive computation."""


class MismatchedSupportsError(ValidationError):
    """A per-atom structure does not line up with the support it refers to."""


class MisalignedWitnessError(ValidationError):
    """A witness function's length does not match the aligned support."""


class SupportMismatchError(TvklError):
    """The two distributions do not share a common support where required,
    so the requested quantity is infinite or unbounded."""


class UnsupportedInequalityError(ValidationError):
    """The requested inequality cannot be checked by this engine."""


def _real(name: str, x) -> float:
    """``float(x)``, with -0.0 read as 0.0; a value that ``float()`` refuses,
    or one too large for a double, raises OutOfRangeError naming the
    argument."""
    try:
        return float(x) or 0.0
    except OverflowError:
        raise OutOfRangeError(f"{name}: too large for a float") from None
    except (TypeError, ValueError):
        raise OutOfRangeError(f"{name}: {x!r} is not a real number") from None


def _unit(name: str, x) -> float:
    """``_real(name, x)``, which must lie in [0, 1] (NaN does not)."""
    x = _real(name, x)
    if not (0.0 <= x <= 1.0):
        raise OutOfRangeError(f"{name}: {x!r} not in [0, 1]")
    return x


def _integer(name: str, x, lo: int | None = None, hi: int | None = None) -> int:
    """``operator.index(x)``, in [lo, hi] where given: True and numpy integers
    pass, while 2.5, "10" or None raise OutOfRangeError naming the argument."""
    try:
        n = operator.index(x)
    except TypeError:
        raise OutOfRangeError(f"{name}: {x!r} is not an integer") from None
    if hi is not None and not lo <= n <= hi:
        raise OutOfRangeError(f"{name}: {n!r} not in [{lo}, {hi}]")
    if lo is not None and n < lo:
        raise OutOfRangeError(f"{name}: {n!r} must be >= {lo}")
    return n


def _tuple(name: str, x) -> tuple:
    """``tuple(x)``, x itself if a tuple; a non-iterable x, or a str, bytes
    or mapping (characters, ints or keys), raises OutOfRangeError naming it."""
    if isinstance(x, (str, bytes, bytearray, Mapping)):
        raise OutOfRangeError(f"{name}: {x!r} is a {type(x).__name__}, not a sequence")
    try:
        iter(x)
    except TypeError:
        raise OutOfRangeError(f"{name}: {x!r} is not iterable") from None
    return tuple(x)


def _unknown_id(name: str, x, table, error: type = OutOfRangeError) -> ValidationError:
    """``error`` naming the argument and the ids ``table`` holds. An entry that
    takes an id looks it up in its table inside a ``try``, and raises this on
    ``KeyError`` or ``TypeError``: a valid id costs only the lookup. An id
    must be the enum member itself; its value (``"bh"``) is refused."""
    ids = ", ".join(map(str, table))
    return error(f"{name}: {x!r} is not one of {ids}")
