"""Exact divergences on finite discrete distributions.

Total variation, Kullback-Leibler (nats), Hellinger affinity, the overlap
identities, two-point closed forms, and the exhaustive subset oracle for TV.

Conventions. KL uses 0 log 0 = 0 and returns +inf exactly when p puts mass
on an atom where q has none; it is therefore a total function with values in
[0, +inf]. Two distributions are aligned by label union, missing labels
getting weight 0, so support mismatch is explicit rather than an error.
All sums run over atoms in support order through ``math.fsum``, which is an
exactly-rounded compensated sum: results are reproducible across platforms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distributions import SUM_TOLERANCE, Distribution, bernoulli
from .errors import MismatchedSupportsError, TooLargeError, TvklError, _unit

#: KL divergences and inverse bounds take values in [0, +inf]; +inf is
#: represented by the ordinary float infinity.
DivergenceValue = float

_MIN_NORMAL = sys.float_info.min

#: Largest aligned support for the exhaustive 2^n subset enumeration.
SUBSET_ORACLE_CAP = 20


def _aligned(p: Distribution, q: Distribution):
    """Align two distributions on the union of their supports.

    Returns ``(labels, p_weights, q_weights)``. The union keeps p's label
    order and appends q-only labels in q's order; absent labels get weight 0.
    """
    if p.support == q.support:
        return p.support, p.probs, q.probs
    # An update keeps the place of a key already present and appends a new
    # one, so the union map holds p's labels, then q-only labels in q's order.
    union = dict.fromkeys(p.support, 0.0)
    union.update(zip(q.support, q.probs))
    q_only = len(union) - len(p.support)
    if not q_only:
        return p.support, p.probs, tuple(union.values())
    return tuple(union), p.probs + (0.0,) * q_only, tuple(union.values())


def _log_ratio(a: float, b: float) -> float:
    # log(a/b) for a, b > 0. Near-equal normal operands (b/2 <= a <= 2b)
    # take log1p((a - b)/b): a - b is exact there (Sterbenz's lemma), so the
    # result keeps full relative accuracy as a/b -> 1, where log(a) - log(b)
    # cancels and loses digits. Other normal operands take the difference
    # of logs, whose magnitude is then at least log 2. If one operand is
    # subnormal the direct ratio keeps more of the value; the ratio itself
    # can overflow or underflow when the operands straddle the normal
    # range, so fall back to the log difference there.
    if a == b:
        return 0.0
    if a >= _MIN_NORMAL and b >= _MIN_NORMAL:
        if 0.5 * b <= a <= 2.0 * b:
            return math.log1p((a - b) / b)
        return math.log(a) - math.log(b)
    ratio = a / b
    if ratio == 0.0 or math.isinf(ratio):
        return math.log(a) - math.log(b)
    return math.log(ratio)


def total_variation(p: Distribution, q: Distribution) -> float:
    """Half the L1 distance between the aligned weight vectors, clamped into
    [0, 1].

    TV <= 1 is a theorem, but weights need only sum to 1 within
    ``SUM_TOLERANCE``: p = (0.5 + 4e-10, 0.5 + 4e-10) and q = (1.0,) on
    disjoint labels sum to 1.0000000004, which is returned as 1.0.
    """
    _, pw, qw = _aligned(p, q)
    return min(0.5 * math.fsum(abs(a - b) for a, b in zip(pw, qw)), 1.0)


def kl_divergence(p: Distribution, q: Distribution) -> DivergenceValue:
    """KL(p || q) = sum over p's support of p(x) log(p(x)/q(x)), in nats.

    Returns +inf iff some atom has p(x) > 0 and q(x) = 0, and exactly 0.0
    when the aligned weight vectors are identical. KL >= 0 is a theorem, so
    a negative sum is rounding and is returned as 0.0: for instance
    p = (5e-324, 1.0), q = (1e-300, 1.0), both valid within the weight-sum
    tolerance, sum to about -2.7e-322.
    """
    _, pw, qw = _aligned(p, q)
    terms = []
    for a, b in zip(pw, qw):
        if a <= 0.0:
            continue
        if b <= 0.0:
            return math.inf
        terms.append(a * _log_ratio(a, b))
    return max(0.0, math.fsum(terms))


def binary_tv(a: float, b: float) -> float:
    """TV between two-point distributions with success weights a and b."""
    return abs(_unit("a", a) - _unit("b", b))


def binary_kl(a: float, b: float) -> DivergenceValue:
    """Closed-form KL between two-point distributions, in nats.

    Handles the boundary cases explicitly: the divergence is 0 when a == b,
    and +inf when b is degenerate while a is not. KL >= 0 is a theorem, so a
    sum that rounds below zero (a and b a few ulps apart) returns 0.0.
    """
    return _binary_kl(_unit("a", a), _unit("b", b))


def _binary_kl(a: float, b: float) -> DivergenceValue:
    # binary_kl on weights already checked to be floats in [0, 1].
    if a == b:
        return 0.0
    if b == 0.0 or b == 1.0:
        return math.inf
    if a == 0.0:
        return -math.log1p(-b)
    if a == 1.0:
        return -math.log(b)
    # The sum of two finite terms is correctly rounded, as fsum's would be.
    kl = a * (math.log(a) - math.log(b)) + (1.0 - a) * (math.log1p(-a) - math.log1p(-b))
    return max(0.0, kl)


def hellinger_affinity(p: Distribution, q: Distribution) -> float:
    """Sum of sqrt(p(x) q(x)); 1 exactly when p = q, 0 on disjoint supports."""
    _, pw, qw = _aligned(p, q)
    return math.fsum(
        a if a == b else math.sqrt(a) * math.sqrt(b) for a, b in zip(pw, qw)
    )


def overlap_identities(p: Distribution, q: Distribution) -> tuple[float, float]:
    """Return (sum of min(p, q), sum of max(p, q)).

    Both recover TV: 1 - min_sum = max_sum - 1 = total_variation(p, q).
    """
    _, pw, qw = _aligned(p, q)
    min_sum = math.fsum(min(a, b) for a, b in zip(pw, qw))
    max_sum = math.fsum(max(a, b) for a, b in zip(pw, qw))
    return min_sum, max_sum


@dataclass(frozen=True, slots=True)
class EventSubset:
    """Membership flags, one per atom of an aligned support."""

    flags: tuple[bool, ...]

    @classmethod
    def from_indices(cls, size: int, indices) -> EventSubset:
        chosen = set(indices)
        return cls(tuple(i in chosen for i in range(size)))

    @classmethod
    def empty(cls, size: int) -> EventSubset:
        return cls((False,) * size)

    @classmethod
    def full(cls, size: int) -> EventSubset:
        return cls((True,) * size)


def event_mass(weights, subset: EventSubset) -> float:
    """Total weight of the flagged atoms, clamped into [0, 1].

    The weights are a distribution's, so the full event is the sure event
    and has mass exactly 1.0, however its weights round in the sum (as the
    empty event has mass 0.0).
    """
    if len(subset.flags) != len(weights):
        raise MismatchedSupportsError(
            f"subset: {len(subset.flags)} flags for {len(weights)} atoms"
        )
    if all(subset.flags):
        return 1.0
    mass = math.fsum(w for w, keep in zip(weights, subset.flags) if keep)
    return min(max(mass, 0.0), 1.0)


def tv_subset_oracle(p: Distribution, q: Distribution) -> float:
    """Exact sup over events S of p(S) - q(S), by enumerating all 2^n subsets,
    clamped into [0, 1] as :func:`total_variation` is.

    Independent of :func:`total_variation`; must agree with it to 1e-12.
    Only supports aligned sizes up to ``SUBSET_ORACLE_CAP``.
    """
    _, pw, qw = _aligned(p, q)
    n = len(pw)
    if n > SUBSET_ORACLE_CAP:
        raise TooLargeError(
            f"support: {n} atoms exceed the exhaustive cap of {SUBSET_ORACLE_CAP}"
        )
    diffs = [a - b for a, b in zip(pw, qw)]
    sums = [0.0]
    for d in diffs:
        sums.extend([s + d for s in sums])
    return min(max(sums), 1.0)


def quantize(
    p: Distribution, q: Distribution, subset: EventSubset
) -> tuple[Distribution, Distribution]:
    """Two-point quantization by an event: (Bernoulli(p(S)), Bernoulli(q(S))).

    This is the data-processing step that reduces any pair to a binary pair;
    neither TV nor KL may grow under it.
    """
    _, pw, qw = _aligned(p, q)
    return bernoulli(event_mass(pw, subset)), bernoulli(event_mass(qw, subset))


@dataclass(frozen=True, slots=True)
class BhDecomposition:
    """Per-atom likelihood-ratio split over p's support.

    With U = q(x)/p(x) on atoms where p(x) > 0, V = (U - 1)+ and
    W = (1 - U)+ satisfy V >= 0, W >= 0, V W = 0 and (1 + V)(1 - W) = U
    atomwise, and the p-expectation of W equals TV(p, q). The p-expectation
    of V also equals TV when q puts no mass outside p's support; otherwise it
    falls short by exactly that escaped mass.
    """

    labels: tuple[str, ...]
    u: tuple[float, ...]
    v: tuple[float, ...]
    w: tuple[float, ...]
    mean_v: float
    mean_w: float


def bh_decomposition(p: Distribution, q: Distribution) -> BhDecomposition:
    """Compute the U, V, W split and verify its identities.

    Verifies, within 1e-12 (relative for large U): V W = 0 and
    (1 + V)(1 - W) = U atomwise. Verifies E_p[W] = TV(p, q), and
    E_p[V] = TV(p, q) whenever q assigns no mass outside p's support, within
    1e-12 + ``SUM_TOLERANCE``: E_p[W] is the sum of (p - q)+ and E_p[V] that
    of (q - p)+, so before rounding E_p[W] - TV = (sum p - sum q)/2 =
    TV - E_p[V]. Each weight sum is within ``SUM_TOLERANCE`` of 1, so the
    gap is at most ``SUM_TOLERANCE``, and clamping TV to 1 keeps it so.
    """
    labels_all, pw, qw = _aligned(p, q)
    # p has positive mass, so at least one atom is kept.
    labels, weights, u = zip(
        *((lab, a, b / a) for lab, a, b in zip(labels_all, pw, qw) if a > 0.0)
    )
    v = tuple(max(x - 1.0, 0.0) for x in u)
    w = tuple(max(1.0 - x, 0.0) for x in u)
    mean_v = math.fsum(a * x for a, x in zip(weights, v))
    mean_w = math.fsum(a * x for a, x in zip(weights, w))

    for ui, vi, wi in zip(u, v, w):
        scale = max(1.0, abs(ui))
        if vi * wi > 1e-12 * scale:
            raise TvklError("internal: V W = 0 violated")
        if abs((1.0 + vi) * (1.0 - wi) - ui) > 1e-12 * scale:
            raise TvklError("internal: (1 + V)(1 - W) = U violated")
    tv = total_variation(p, q)
    if abs(mean_w - tv) > 1e-12 + SUM_TOLERANCE:
        raise TvklError("internal: E_p[W] = TV violated")
    escaped = math.fsum(b for a, b in zip(pw, qw) if a <= 0.0)
    if escaped == 0.0 and abs(mean_v - tv) > 1e-12 + SUM_TOLERANCE:
        raise TvklError("internal: E_p[V] = TV violated on dominated pair")
    return BhDecomposition(labels, u, v, w, mean_v, mean_w)
