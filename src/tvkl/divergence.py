"""Exact divergences on finite discrete distributions.

Total variation, Kullback-Leibler (nats), Hellinger affinity, the overlap
identities, two-point closed forms, event masses and quantization.

Conventions. KL uses 0 log 0 = 0 and returns +inf exactly when p puts mass
on an atom where q has none; it is therefore a total function with values in
[0, +inf]. Two distributions are aligned by label union, missing labels
getting weight 0, so support mismatch is explicit rather than an error.
A pair in different label orders is aligned once: :func:`_aligned` memoises
the alignment on q, so the ops that follow on the same pair reuse it.
All sums run over atoms in support order through ``math.fsum``, which is an
exactly-rounded compensated sum: results are reproducible across platforms.

The pair ops (TV, KL, the affinity, the overlap identities, event masses,
and the variational sums) each walk the atoms once with no Python-level
call per atom: a C-level ``map`` chain, or a list comprehension with the
arithmetic inline. KL and the optimal witness read log-ratios from
:func:`_log_ratios`: an atom that one side leaves empty has log-ratio +inf
(mass on p only) or -inf (on q only), and one empty on both sides has 0.
KL keeps the terms of p's nonempty atoms, which writes 0 log 0 = 0, and
reads a long pair one block at a time; the witness refuses an infinite value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, compress
from operator import mul, sub

from .distributions import Distribution, bernoulli
from .errors import MismatchedSupportsError, OutOfRangeError, _integer, _tuple, _unit

_MIN_NORMAL = sys.float_info.min

# Atoms per block of a long pair's KL terms.
_BLOCK = 4096


def _aligned(p: Distribution, q: Distribution):
    """Align two distributions on the union of their supports.

    Returns ``(labels, p_weights, q_weights)``. The union keeps p's label
    order and appends q-only labels in q's order; absent labels get weight 0.

    The alignment of a pair in different label orders is memoised on q, in
    its private ``_align`` slot, keyed by the identity of ``p.support``: the
    union labels, q's aligned weights and the q-only count depend on p's
    labels alone, so every p holding that tuple, whatever its weights,
    aligns against q the same way. The slot holds the tuple itself, not its
    ``id``, so the key cannot be reused by a later tuple, and one slot keeps
    one entry: the memo dies with q.
    """
    if p.support is q.support or p.support == q.support:
        return p.support, p.probs, q.probs
    memo = q._align
    if memo is not None and memo[0] is p.support:
        _, labels, qw, q_only = memo
    else:
        # An update keeps the place of a key already present and appends a
        # new one, so the union map holds p's labels, then q-only labels in
        # q's order.
        union = dict.fromkeys(p.support, 0.0)
        union.update(zip(q.support, q.probs))
        q_only = len(union) - len(p.support)
        labels = tuple(union) if q_only else p.support
        qw = tuple(union.values())
        object.__setattr__(q, "_align", (p.support, labels, qw, q_only))
    if not q_only:
        return labels, p.probs, qw
    return labels, p.probs + (0.0,) * q_only, qw


def _log_ratio(a: float, b: float) -> float:
    # log(a/b) for a, b >= 0: 0.0 if a == b, else +inf if only a is nonzero
    # and -inf if only b is. Near-equal normal operands (b/2 <= a <= 2b)
    # take log1p((a - b)/b): a - b is exact there (Sterbenz's lemma), so the
    # result keeps full relative accuracy as a/b -> 1, where log(a) - log(b)
    # cancels. Other normal operands take the difference of logs, at least
    # log 2 in magnitude. If one operand is subnormal the direct ratio keeps
    # more of the value, unless it overflows or underflows (the operands
    # straddle the normal range): then take the log difference.
    if a == b:
        return 0.0
    if a == 0.0 or b == 0.0:
        return math.inf if a > 0.0 else -math.inf
    if a >= _MIN_NORMAL and b >= _MIN_NORMAL:
        if 0.5 * b <= a <= 2.0 * b:
            return math.log1p((a - b) / b)
        return math.log(a) - math.log(b)
    ratio = a / b
    if ratio == 0.0 or math.isinf(ratio):
        return math.log(a) - math.log(b)
    return math.log(ratio)


def _log_ratios(pw, qw) -> list[float]:
    # [_log_ratio(a, b) for each aligned atom]. When every weight is normal
    # its two normal branches are inlined: a == b takes log1p, giving 0.0.
    if min(pw) < _MIN_NORMAL or min(qw) < _MIN_NORMAL:
        return list(map(_log_ratio, pw, qw))
    log, log1p = math.log, math.log1p
    return [
        log1p((a - b) / b) if 0.5 * b <= a <= 2.0 * b else log(a) - log(b)
        for a, b in zip(pw, qw)
    ]


def total_variation(p: Distribution, q: Distribution) -> float:
    """Half the L1 distance between the aligned weight vectors, clamped into
    [0, 1].

    TV <= 1 is a theorem, but weights need only sum to 1 within
    ``SUM_TOLERANCE``: p = (0.5 + 4e-10, 0.5 + 4e-10) and q = (1.0,) on
    disjoint labels sum to 1.0000000004, which is returned as 1.0.
    """
    _, pw, qw = _aligned(p, q)
    return min(0.5 * math.fsum(map(abs, map(sub, pw, qw))), 1.0)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """KL(p || q) = sum over p's support of p(x) log(p(x)/q(x)), in nats.

    Returns +inf iff some atom has p(x) > 0 and q(x) = 0, and exactly 0.0
    when the aligned weight vectors are identical. KL >= 0 is a theorem, so
    a negative sum is rounding and is returned as 0.0: for instance
    p = (5e-324, 1.0), q = (1e-300, 1.0), both valid within the weight-sum
    tolerance, sum to about -2.7e-322.

    The terms are made one block of ``_BLOCK`` atoms at a time, so only one
    block of log-ratios is held; a pair of at most ``_BLOCK`` atoms is one
    block, and slicing its weight tuples whole copies nothing. The bits are
    those of one pass: fsum rounds the exact sum of all its terms once,
    however they are grouped.
    """
    _, pw, qw = _aligned(p, q)
    blocks = (_kl_terms(pw[i:i + _BLOCK], qw[i:i + _BLOCK])
              for i in range(0, len(pw), _BLOCK))
    return max(0.0, math.fsum(chain.from_iterable(blocks)))


def _kl_terms(pw, qw):
    # Only p's nonempty atoms keep a term (0 log 0 = 0); an inf term sums to inf.
    return compress(map(mul, pw, _log_ratios(pw, qw)), pw)


def binary_tv(a: float, b: float) -> float:
    """TV between two-point distributions with success weights a and b."""
    return abs(_unit("a", a) - _unit("b", b))


def binary_kl(a: float, b: float) -> float:
    """Closed-form KL between two-point distributions, in nats.

    Handles the boundary cases explicitly: the divergence is 0 when a == b,
    and +inf when b is degenerate while a is not. KL >= 0 is a theorem, so a
    sum that rounds below zero (a and b a few ulps apart) returns 0.0.
    """
    return _binary_kl(_unit("a", a), _unit("b", b))


def _binary_kl(a: float, b: float) -> float:
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
    """Sum of sqrt(p(x) q(x)), clamped into [0, 1]; 1 exactly when p = q, 0
    on disjoint supports.

    The affinity is at most 1 (Cauchy-Schwarz), but weights need only sum to
    1 within ``SUM_TOLERANCE``: p = q = (0.5 + 4e-10, 0.5 + 4e-10) would sum
    to 1.0000000008.
    """
    _, pw, qw = _aligned(p, q)
    if pw == qw:
        return 1.0
    sqrt = math.sqrt
    total = math.fsum([a if a == b else sqrt(a) * sqrt(b) for a, b in zip(pw, qw)])
    return min(total, 1.0)


def overlap_identities(p: Distribution, q: Distribution) -> tuple[float, float]:
    """Return (sum of min(p, q), sum of max(p, q)).

    Both recover TV: 1 - min_sum = max_sum - 1 = total_variation(p, q).
    """
    _, pw, qw = _aligned(p, q)
    # The builtins min and max cost four times these conditionals, which
    # pick the same operand as they do.
    min_sum = math.fsum([b if b < a else a for a, b in zip(pw, qw)])
    max_sum = math.fsum([b if b > a else a for a, b in zip(pw, qw)])
    return min_sum, max_sum


@dataclass(frozen=True, slots=True)
class EventSubset:
    """Membership flags, one per atom of an aligned support."""

    flags: tuple[bool, ...]

    def __post_init__(self):
        flags = _tuple("flags", self.flags)
        if not {bool}.issuperset(map(type, flags)):  # a C-speed scan first
            i = next(i for i, f in enumerate(flags) if type(f) is not bool)
            raise OutOfRangeError(f"flags[{i}]: {flags[i]!r} is not a bool")
        object.__setattr__(self, "flags", flags)

    @classmethod
    def from_indices(cls, size: int, indices) -> EventSubset:
        """The event of the given atom indices, each an integer in [0, size)."""
        flags = [False] * _integer("size", size, 0)
        for i in indices:
            flags[_integer("index", i, 0, len(flags) - 1)] = True
        return cls(tuple(flags))

    @classmethod
    def empty(cls, size: int) -> EventSubset:
        return cls((False,) * _integer("size", size, 0))

    @classmethod
    def full(cls, size: int) -> EventSubset:
        return cls((True,) * _integer("size", size, 0))


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
    mass = math.fsum(compress(weights, subset.flags))
    return min(max(mass, 0.0), 1.0)


def quantize(
    p: Distribution, q: Distribution, subset: EventSubset
) -> tuple[Distribution, Distribution]:
    """Two-point quantization by an event: (Bernoulli(p(S)), Bernoulli(q(S))).

    This is the data-processing step that reduces any pair to a binary pair;
    neither TV nor KL may grow under it.
    """
    _, pw, qw = _aligned(p, q)
    return bernoulli(event_mass(pw, subset)), bernoulli(event_mass(qw, subset))
