"""The exact references that tier-1 tests hold tvkl's floats to: one 60-digit
``decimal`` context that reads each double as the rational it is, and the coin
answer n* in ``fractions``. Each function states the digits it guarantees. One
with a series sums it below its stated cut-off; ``series=True`` or ``False``
forces a branch, so that ``test_oracle.py`` can check the two agree there."""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from decimal import Decimal
from fractions import Fraction

_CONTEXT = decimal.Context(prec=60)
_INF = Decimal("Infinity")


def _at_60_digits(function):
    @functools.wraps(function)
    def exact(*args, **kwargs):
        with decimal.localcontext(_CONTEXT):
            return function(*args, **kwargs)

    return exact


def _use_series(series: bool | None, below_cutoff: bool) -> bool:
    return below_cutoff if series is None else series


def _series(terms) -> Decimal:  # the terms before the first below 1e-62 of their sum
    value = Decimal(0)
    for term in terms:
        if abs(term) <= value * Decimal("1e-62"):
            return value
        value += term


@_at_60_digits
def ulps(value: float, exact: Decimal) -> Decimal:
    """|value - exact| in units in the last place of ``exact`` rounded to a
    double: 0 where they are equal, one infinity included, and +inf where
    only ``exact`` is infinite."""
    if value == exact:
        return Decimal(0)
    if exact.is_infinite():
        return _INF
    return abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))


@_at_60_digits
def pinsker_forward(kl: float) -> Decimal:
    """sqrt(kl / 2): kl / 2 and its root are each rounded once, so 59 digits."""
    return (Decimal(kl) / 2).sqrt()


@_at_60_digits
def weak_bh_forward(kl: float) -> Decimal:
    """sqrt((1 - e^-kl) / (1 - e^-2)) for kl below 1e-300, subnormals
    included: there 1 - e^-kl is kl within kl / 2, so 59 digits."""
    if not kl < 1e-300:
        raise ValueError(f"kl {kl!r} is not below 1e-300")
    return (Decimal(kl) / (1 - Decimal(-2).exp())).sqrt()


def _exact_pair(t: float, u: float) -> tuple[Decimal, Decimal]:
    # (t, 1 - t) from the argument that bounds._INVERSE reads: t while
    # u >= 1/2, else u, exact even where t = 1 - u rounds.
    if u >= 0.5:
        return Decimal(t), 1 - Decimal(t)
    return 1 - Decimal(u), Decimal(u)


@_at_60_digits
def pinsker_inverse(t: float, u: float) -> Decimal:
    """2 t^2, rounded once: 59 digits."""
    t, u = _exact_pair(t, u)
    return 2 * (t * t)


@_at_60_digits
def bh_inverse(t: float, u: float, series: bool | None = None) -> Decimal:
    """-log(1 - t^2) = -(log u + log(1 + t)), to 53 digits; +inf at u = 0.
    Below t^2 = 1e-6 (t below about 1e-3) it is the series sum t^(2j) / j,
    since 1 - t^2 at 60 digits loses all of t^2 below about 1e-60."""
    t, u = _exact_pair(t, u)
    if u == 0:
        return _INF
    if _use_series(series, t * t < Decimal("1e-6")):
        return _series(t ** (2 * j) / j for j in itertools.count(1))
    return -(u.ln() + (1 + t).ln())


@_at_60_digits
def tsybakov_inverse(t: float, u: float) -> Decimal:
    """max(0, -log(2u)), the log correctly rounded: 59 digits; +inf at u = 0."""
    t, u = _exact_pair(t, u)
    return max(Decimal(0), -(2 * u).ln()) if u else _INF


@_at_60_digits
def vajda_inverse(t: float, u: float, series: bool | None = None) -> Decimal:
    """log((1 + t) / u) - 2t / (1 + t), to 47 digits; +inf at u = 0. Below
    t = 1e-6 it is the series 2t^2 / (1 + t) + 2 sum t^(2j+1) / (2j + 1),
    j >= 1: the log form subtracts terms of size 2t, and keeps 47 of its
    60 digits at t = 1e-6."""
    t, u = _exact_pair(t, u)
    if u == 0:
        return _INF
    if _use_series(series, t < Decimal("1e-6")):
        return _series(itertools.chain(
            [2 * t * t / (1 + t)],
            (2 * t ** (2 * j + 1) / (2 * j + 1) for j in itertools.count(1))))
    return ((1 + t) / u).ln() - 2 * t / (1 + t)


@_at_60_digits
def kl_divergence(pw, qw) -> Decimal:
    """KL of two stored weight vectors, the sum of a log(a / b), with
    0 log 0 = 0 and +inf where only b is 0. Each term is rounded three
    times, so the sum has 59 digits of its largest term, not of a sum that
    cancels."""
    if any(b == 0.0 < a for a, b in zip(pw, qw)):
        return _INF
    return sum(Decimal(a) * (Decimal(a) / Decimal(b)).ln()
               for a, b in zip(pw, qw) if a != 0.0)


@_at_60_digits
def routes(eps: float, delta: float) -> tuple[Decimal, Decimal, Decimal]:
    """The pinsker, bh and tsybakov sample routes as ``samples.report`` forms
    them: each inverse at (1 - u, u), u = 2 delta, over the per-toss KL
    -log(1 - 4 eps^2) / 2. 1 - 4 eps^2 is rounded once, so that KL keeps
    60 - log10(1 / eps^2) digits, 50 at eps = 1e-5, and each route the
    fewer of those and its inverse's."""
    u, e = 2.0 * delta, Decimal(eps)
    klt = -(1 - 4 * e * e).ln() / 2
    return tuple(inverse(1.0 - u, u) / klt
                 for inverse in (pinsker_inverse, bh_inverse, tsybakov_inverse))


def binomial_tv(n: int, eps: Fraction) -> Fraction:
    """TV(Bin(n, 1/2), Bin(n, 1/2 + eps)), the TV of n tosses, for a rational
    eps: with 1/2 + eps = a/den and 1/2 - eps = b/den, it is
    sum_k C(n, k) |a^k b^(n-k) - (den/2)^n| / (2 den^n)."""
    a, den = (Fraction(1, 2) + eps).as_integer_ratio()
    b, half = den - a, den // 2
    total = sum(math.comb(n, k) * abs(a**k * b ** (n - k) - half**n)
                for k in range(n + 1))
    return Fraction(total, 2 * den**n)


def least_tosses(eps: Fraction, delta: float) -> int:
    """n*, the least n with ``binomial_tv(n, eps)`` >= 1 - 2 delta, by doubling
    then bisection: a tester may ignore tosses, so that TV never falls in n."""
    target = 1 - 2 * Fraction(delta)
    lo, hi = 0, 1  # TV(n = lo) < target <= TV(n = hi) once the doubling ends
    while binomial_tv(hi, eps) < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if binomial_tv(mid, eps) >= target else (mid, hi)
    return hi
