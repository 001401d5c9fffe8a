"""Closed-form bounds between total variation and KL divergence.

Forward bounds map a KL value to an upper bound on TV:

    pinsker    sqrt(kl / 2)                      vacuous for kl >= 2
    bh         sqrt(1 - exp(-kl))                never vacuous
    tsybakov   1 - exp(-kl) / 2                  in [1/2, 1)
    weak_bh    sqrt((1 - exp(-kl)) / (1 - exp(-2)))   vacuous for kl >= 2
    vajda      the root of the vajda inverse, by Newton's method
    trivial    1

Inverse bounds map a TV value t to a lower bound on KL. Each curve in
``_INVERSE`` takes (t, u) with u = 1 - t and reads whichever is nearer 0: a
caller holding t passes (t, 1 - t), one holding u exactly (``samples``)
passes (1 - u, u), and 1 - x is exact for x in [1/2, 1] (Sterbenz):

    pinsker    2 t^2
    bh         -log(1 - t^2): -log1p(-t^2) if u >= 1/2, else -(log u + log1p(t))
    tsybakov   max(0, -log(2 u))                kicks in only for t >= 1/2
    vajda      log1p(t) - log1p(-t) - 2t/(1+t); below t = 2^-9 its series
               2t^2/(1+t) + 2t^3 (1/3 + t^2/5 + t^4/7 + t^6/9); above bh

bh, tsybakov and vajda are +inf at u = 0.

Forward outputs are reported raw, never clamped to 1; a ``vacuous`` flag
marks outputs >= 1 instead. 1 - exp(-x) is always computed through expm1 so
that small arguments keep full relative accuracy. For finite kl the bh and
tsybakov curves are mathematically inside [0, 1); where the double rounds to
exactly 1.0 (kl above roughly 37) the value is nudged to the largest double
below 1, preserving the open interval and the strict order against the
trivial bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from .errors import OutOfRangeError, _real, _unit, _unknown_id

_ONE_BELOW = math.nextafter(1.0, 0.0)
_ONE_MINUS_EXP_M2 = -math.expm1(-2.0)

#: Multiplier of the weak variant, 1 / sqrt(1 - e^-2), about 1.075.
WEAK_BH_FACTOR = 1.0 / math.sqrt(_ONE_MINUS_EXP_M2)

#: The vajda root lies at most this far in t below ``tv_upper_from_vajda``.
VAJDA_BISECTION_TOL = 1e-12


class BoundId(enum.Enum):
    # Forward curve f, TV <= f(kl), and inverse g, KL >= g(t), of each id:
    PINSKER = "pinsker"  # f unbounded; g = 2 t^2 caps at 2: no TV forces more KL
    BH = "bh"  # f < 1 at every finite kl, so never vacuous; g exact to t = 1
    TSYBAKOV = "tsybakov"  # f in [1/2, 1]; g's raw form says nothing below t = 1/2
    WEAK_BH = "weak_bh"  # f = bh / sqrt(1 - e^-2), from pinsker alone; no g
    VAJDA = "vajda"  # g >= bh's inverse; f is g's root, by Newton's method
    TRIVIAL = "trivial"  # f = 1, always vacuous; no g

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==; unlike Enum.__hash__, it runs in C.
    __hash__ = object.__hash__


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.

    A frozen dataclass's generated ``__init__`` stores each field through
    ``object.__setattr__``; storing through the slot itself does the same in
    about half the time. A class that does so declares ``init=False`` and
    keeps every other generated method, so assignment and deletion still
    raise ``FrozenInstanceError``.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class BoundEvaluation:
    """One bound applied to one input. ``vacuous`` is True iff a forward
    output is >= 1 (the bh bound is never flagged: its limit value 1 is only
    reached at kl = +inf)."""

    bound: BoundId
    input: float
    output: float
    vacuous: bool

    def __init__(self, bound: BoundId, input: float, output: float, vacuous: bool) -> None:
        set_bound, set_input, set_output, set_vacuous = _EVALUATION_SLOTS
        set_bound(self, bound)
        set_input(self, input)
        set_output(self, output)
        set_vacuous(self, vacuous)


_EVALUATION_SLOTS = _slot_setters(BoundEvaluation)


def _check_kl(kl: float) -> float:
    kl = _real("kl", kl)
    if math.isnan(kl) or kl < 0.0:
        raise OutOfRangeError(f"kl: {kl!r} must be >= 0")
    return kl


# -- curves: unchecked; each public entry point checks its argument once ---


def _sqrt_ratio(x: float, d: float) -> float:
    # sqrt(x / d), d in [1/2, 2]. Below 2^-1021 x / d would lose bits as a
    # subnormal, so it is formed 2^1022 times larger; both scalings are exact.
    if x >= 2.0**-1021:
        return math.sqrt(x / d)
    return math.sqrt(x * 2.0**1022 / d) * 2.0**-511


def _pinsker_forward(kl: float) -> float:
    return _sqrt_ratio(kl, 2.0)


def _bh_forward(kl: float) -> float:
    if math.isinf(kl):
        return 1.0
    value = math.sqrt(-math.expm1(-kl))
    return value if value < 1.0 else _ONE_BELOW


def _tsybakov_forward(kl: float) -> float:
    if math.isinf(kl):
        return 1.0
    value = 0.5 - 0.5 * math.expm1(-kl)
    return value if value < 1.0 else _ONE_BELOW


def _weak_bh_forward(kl: float) -> float:
    # Ratio inside the sqrt makes the output exactly 1.0 at kl = 2.
    return _sqrt_ratio(-math.expm1(-kl), _ONE_MINUS_EXP_M2)


def _trivial_forward(kl: float) -> float:
    return 1.0


def _pinsker_inverse(t: float, u: float) -> float:
    return 2.0 * t * t


def _bh_inverse(t: float, u: float) -> float:
    if u >= 0.5:
        return -math.log1p(-t * t)
    if u == 0.0:
        return math.inf
    return -(math.log(u) + math.log1p(t))


def _tsybakov_inverse(t: float, u: float) -> float:
    if u == 0.0:
        return math.inf
    return max(0.0, -math.log(2.0 * u))


def _vajda_inverse(t: float, u: float) -> float:
    if u == 0.0:
        return math.inf
    if t < 2.0**-9:
        # 2 t^2 / (1 + t) + 2 (atanh t - t) by its series: the log form
        # cancels 2t against 2t here. The first term left out, 2 t^11 / 11,
        # is below 2^-84 of the value.
        t2 = t * t
        return 2.0 * t2 / (1.0 + t) + 2.0 * t * t2 * (
            1.0 / 3.0 + t2 * (0.2 + t2 * (1.0 / 7.0 + t2 / 9.0)))
    return math.log1p(t) - math.log1p(-t) - 2.0 * t / (1.0 + t)


def tv_upper_from_vajda(kl: float) -> float:
    """Invert the vajda lower bound by Newton's method from the bh bound.

    V is increasing and convex on [0, 1), V'(t) = 4t / ((1 - t)(1 + t)^2),
    and V >= bh's inverse, so Newton iterates from bh(kl) stay above the
    root and fall toward it, until a step is no shorter than the one before:
    about 7 steps, and at most 64, after which the last iterate with
    V(t) >= kl is kept. The result t has V(t) >= ``kl``. kl = 0 maps to 0 and +inf to 1. Above kl of
    about 36.43, V at the largest double below 1 is still below kl, so no
    double below 1 bounds the root and the result is 1.0.
    """
    kl = _check_kl(kl)
    t = _bh_forward(kl)
    if not 0.0 < t < 1.0:
        return t
    upper, last = 1.0, math.inf
    for _ in range(64):
        excess = _vajda_inverse(t, 1.0 - t) - kl
        step = excess * (1.0 - t) * (1.0 + t) ** 2 / (4.0 * t)
        if excess < 0.0:
            # Rounding left t below the root, in (t, upper]. One step up, of
            # at least an ulp, bounds it unless V is flat there in floats.
            t = max(t - step, math.nextafter(t, 1.0))
            return t if t < upper and _vajda_inverse(t, 1.0 - t) >= kl else upper
        if not step < last:
            return t
        upper, last, t = t, step, t - step
    return upper


#: Forward curves in report order.
_FORWARD = {
    BoundId.PINSKER: _pinsker_forward,
    BoundId.BH: _bh_forward,
    BoundId.TSYBAKOV: _tsybakov_forward,
    BoundId.WEAK_BH: _weak_bh_forward,
    BoundId.VAJDA: tv_upper_from_vajda,
    BoundId.TRIVIAL: _trivial_forward,
}

#: Inverse curves in report order.
_INVERSE = {
    BoundId.PINSKER: _pinsker_inverse,
    BoundId.BH: _bh_inverse,
    BoundId.TSYBAKOV: _tsybakov_inverse,
    BoundId.VAJDA: _vajda_inverse,
}


def forward_value(bound: BoundId, kl: float) -> float:
    """One forward curve at ``kl``, as its ``compare_bounds`` row reports it.
    Every ``BoundId`` has one."""
    try:
        curve = _FORWARD[bound]
    except (KeyError, TypeError):
        raise _unknown_id("bound", bound, _FORWARD) from None
    return curve(_check_kl(kl))


def compare_bounds(kl: float) -> list[BoundEvaluation]:
    """Evaluate every forward bound (vajda by numeric inversion, plus the
    trivial 1) at one KL value, each tagged with its vacuity. bh is told by
    its curve: on Python 3.10 and 3.11, whose EnumType defines
    ``__getattr__``, reading ``BoundId.BH`` is slow."""
    kl = _check_kl(kl)
    return [
        BoundEvaluation(bound, kl, output, output >= 1.0 and curve is not _bh_forward)
        for bound, curve in _FORWARD.items()
        for output in (curve(kl),)
    ]


# -- inverse bounds ---------------------------------------------------------


#: Inverse bounds in report order.
INVERSE_ORDER = tuple(_INVERSE)


def inverse_value(bound: BoundId, tv: float) -> float:
    """One inverse curve at ``tv``, as ``kl_lower`` reports it. weak_bh and
    trivial have none."""
    try:
        curve = _INVERSE[bound]
    except (KeyError, TypeError):
        raise _unknown_id("bound", bound, _INVERSE) from None
    tv = _unit("tv", tv)
    return curve(tv, 1.0 - tv)


def kl_lower(bound: BoundId, tv: float) -> BoundEvaluation:
    """``inverse_value`` as a report row; inverse outputs are never vacuous."""
    try:
        curve = _INVERSE[bound]
    except (KeyError, TypeError):
        raise _unknown_id("bound", bound, _INVERSE) from None
    tv = _unit("tv", tv)
    return BoundEvaluation(bound, tv, curve(tv, 1.0 - tv), False)


def kl_lower_vajda(tv: float) -> float:
    """KL >= log((1 + t) / (1 - t)) - 2 t / (1 + t).

    Increasing and convex from 0 at t = 0 to +inf as t -> 1; matches 2 t^2
    to third order at the origin and is at least the bh inverse. Below
    2^-9, where 2t cancels against 2t, it is summed by its series. Accepts
    t = 1 (returns +inf); rejects t outside [0, 1].
    """
    return inverse_value(BoundId.VAJDA, tv)
