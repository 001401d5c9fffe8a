"""Sample-complexity lower bounds for distinguishing a fair coin from an
epsilon-biased one.

An n-toss tester that is wrong with probability at most delta on both
hypotheses forces TV(P0^n, P1^n) >= 1 - 2 delta, where P0 = Bernoulli(1/2)
and P1 = Bernoulli(1/2 + epsilon). KL is additive across the n independent
tosses, KL_n = n * kl_per_toss, so each inverse bound of ``bounds`` turns
the required TV into a lower bound on n by one recipe:

    n >= kl_lower(bound, 1 - 2 delta) / kl_per_toss

At (eps, delta) = (0.1, 0.01) the pinsker route is 94.106 and the bh route
158.195. The curves read 1 - t = 2 delta, exact where 1 - 2 delta rounds.
The pinsker route saturates at 2 / kl_per_toss as delta -> 0, while the bh
and tsybakov routes grow like log(1/delta): only they witness the full
log(1/delta)/eps^2 rate. A commonly quoted simplification of the bh route,
log(1/(2 delta)) / (2 eps^2), is no lower bound on n: it can exceed the bh
route and even n*, the least n with TV(P0^n, P1^n) >= 1 - 2 delta (7.14
against n* = 4 at eps = 1/8, delta = 0.4). Reports expose both and flag
whenever the simplified form exceeds the exact bh route.

All routes return exact reals; the CLI's --ceil rounds up to whole tosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import _INVERSE, BoundId, _slot_setters
from .errors import OutOfRangeError, _real

#: The routes' inverse curves, read once: a BoundId read is slow on 3.10, 3.11.
_ROUTES = [_INVERSE[bound] for bound in (BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV)]

#: Flag set on a report when the simplified bh closed form exceeds the exact
#: bh route at the queried parameters.
FLAG_SIMPLIFIED_EXCEEDS_EXACT = "simplified_exceeds_exact"

#: Flag set on a report when delta >= 1/4 makes the tsybakov route vacuous.
FLAG_TSYBAKOV_VACUOUS = "tsybakov_vacuous"


@dataclass(frozen=True, slots=True, init=False)
class SampleComplexityQuery:
    """Bias epsilon in (0, 1/3) and error budget delta in (0, 1/2), both
    strict: the routes are only valid inside the open box. Nor may eps^2 or
    the per-toss KL round to 0 (eps below about 1.6e-162). Both fields are
    stored as floats."""

    epsilon: float
    delta: float

    def __init__(self, epsilon: float, delta: float) -> None:
        e, d = _check_epsilon(epsilon), _real("delta", delta)
        if e**2 == 0.0:  # every route divides by eps^2 or its KL, > 0 if eps^2 is
            raise OutOfRangeError(f"epsilon: {e!r} too small, eps^2 or its KL is 0.0")
        if not (0.0 < d < 0.5):
            raise OutOfRangeError(f"delta: {d!r} not in (0, 1/2)")
        set_epsilon, set_delta = _QUERY_SLOTS
        set_epsilon(self, e)
        set_delta(self, d)


@dataclass(frozen=True, slots=True, init=False)
class SampleComplexityReport:
    """Every route at one query, flat: its fields, in order, are what
    ``tvkl samples`` prints. ``required_tv`` is 1 - 2 delta. ``n_pinsker`` is
    at most 2 / kl_per_toss, a 1/eps^2 rate, for every delta; ``n_bh`` grows
    without bound like log(1/delta) as delta -> 0; ``n_tsybakov`` is 0
    (vacuous) for delta >= 1/4."""

    epsilon: float
    delta: float
    required_tv: float
    kl_per_toss: float
    n_pinsker: float
    n_bh: float
    n_tsybakov: float
    n_bh_simplified: float
    notes: tuple[str, ...]

    def __init__(
        self,
        epsilon: float,
        delta: float,
        required_tv: float,
        kl_per_toss: float,
        n_pinsker: float,
        n_bh: float,
        n_tsybakov: float,
        n_bh_simplified: float,
        notes: tuple[str, ...],
    ) -> None:
        (set_epsilon, set_delta, set_required_tv, set_kl_per_toss, set_n_pinsker,
         set_n_bh, set_n_tsybakov, set_n_bh_simplified, set_notes) = _REPORT_SLOTS
        set_epsilon(self, epsilon)
        set_delta(self, delta)
        set_required_tv(self, required_tv)
        set_kl_per_toss(self, kl_per_toss)
        set_n_pinsker(self, n_pinsker)
        set_n_bh(self, n_bh)
        set_n_tsybakov(self, n_tsybakov)
        set_n_bh_simplified(self, n_bh_simplified)
        set_notes(self, notes)


_QUERY_SLOTS = _slot_setters(SampleComplexityQuery)
_REPORT_SLOTS = _slot_setters(SampleComplexityReport)


def kl_per_toss(epsilon: float) -> float:
    """KL(Bernoulli(1/2) || Bernoulli(1/2 + eps)) = log(1/(1 - 4 eps^2)) / 2.

    Matches the generic two-point divergence on the same pair to 1e-15.
    """
    return _kl_per_toss(_check_epsilon(epsilon))


def _kl_per_toss(e: float) -> float:
    return -0.5 * math.log1p(-4.0 * e * e)


def _check_epsilon(epsilon: float) -> float:
    e = _real("epsilon", epsilon)
    if not (0.0 < e < 1.0 / 3.0):
        raise OutOfRangeError(f"epsilon: {e!r} not in (0, 1/3)")
    return e


def report(query: SampleComplexityQuery) -> SampleComplexityReport:
    """Assemble every route plus the simplified bh closed form.

    ``notes`` collects flags: one when the simplified form exceeds the exact
    bh route (so the two cannot be chained in that direction at these
    parameters), one when the tsybakov route is vacuous.
    """
    pinsker, bh, tsybakov = _ROUTES
    u, klt = 2.0 * query.delta, _kl_per_toss(query.epsilon)
    n_bh = bh(1.0 - u, u) / klt
    n_simplified = -math.log(u) / (2.0 * query.epsilon**2)
    notes = []
    if n_simplified > n_bh:
        notes.append(FLAG_SIMPLIFIED_EXCEEDS_EXACT)
    if query.delta >= 0.25:
        notes.append(FLAG_TSYBAKOV_VACUOUS)
    return SampleComplexityReport(
        epsilon=query.epsilon,
        delta=query.delta,
        required_tv=1.0 - u,
        kl_per_toss=klt,
        n_pinsker=pinsker(1.0 - u, u) / klt,
        n_bh=n_bh,
        n_tsybakov=tsybakov(1.0 - u, u) / klt,
        n_bh_simplified=n_simplified,
        notes=tuple(notes),
    )
