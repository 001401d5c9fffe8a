"""Variational characterisations of KL and TV on finite supports.

The central identity is the Donsker-Varadhan formula

    KL(p || q) = sup_f ( E_p[f(X)] - log E_q[exp f(Y)] )

over real-valued functions f on the support; on a finite support with p and
q mutually absolutely continuous the supremum is attained at
f*(x) = log(p(x)/q(x)). Every candidate f therefore yields a certified lower
bound on the divergence, which is what the random-witness checks exploit.

Also here: the bounded-witness route from the same identity to the pinsker
forward bound (via the subgaussian moment inequality
log E_q[exp f] <= E_q[f] + ||f||_inf^2 / 2 and the choice
lambda = sqrt(2 KL)), and the representation of TV as half the supremum of
E_p[f] - E_q[f] over the sup-norm unit ball, attained at f = sign(p - q).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .distributions import Distribution
from .divergence import _aligned, _log_ratio, total_variation
from .errors import (
    MisalignedWitnessError,
    OutOfRangeError,
    SupportMismatchError,
    TooLargeError,
    TvklError,
    _integer,
    _real,
)


@dataclass(frozen=True, slots=True)
class WitnessFunction:
    """A real-valued function on an aligned support, one value per atom."""

    values: tuple[float, ...]
    sup_norm: float = field(init=False)

    def __post_init__(self):
        for i, v in enumerate(self.values):
            if not math.isfinite(v):
                raise OutOfRangeError(f"values[{i}]: {v!r} is not finite")
        object.__setattr__(self, "sup_norm", max(abs(v) for v in self.values))


@dataclass(frozen=True, slots=True)
class TflParameter:
    """Sup-norm budget for the bounded-witness pinsker derivation, stored as
    a float."""

    lam: float

    def __post_init__(self):
        lam = _real("lam", self.lam)
        if not (lam > 0.0) or math.isinf(lam):
            raise OutOfRangeError(f"lam: {self.lam!r} must be a positive real")
        object.__setattr__(self, "lam", lam)


def _aligned_with_witness(p: Distribution, q: Distribution, f: WitnessFunction):
    labels, pw, qw = _aligned(p, q)
    if len(f.values) != len(labels):
        raise MisalignedWitnessError(
            f"witness: {len(f.values)} values for {len(labels)} aligned atoms"
        )
    return pw, qw, f.values


def _log_mean_exp(weights, values) -> float:
    # log sum_x w(x) exp(v(x)) with max-shift stabilisation over the atoms
    # that carry weight.
    shift = max(v for w, v in zip(weights, values) if w > 0.0)
    total = math.fsum(w * math.exp(v - shift) for w, v in zip(weights, values) if w > 0.0)
    return shift + math.log(total)


def dv_value(p: Distribution, q: Distribution, f: WitnessFunction) -> float:
    """E_p[f] - log E_q[exp f]: the variational objective at one witness.

    Never exceeds KL(p || q) when that is finite; equals it at the optimal
    witness.
    """
    pw, qw, values = _aligned_with_witness(p, q, f)
    mean_p = math.fsum(w * v for w, v in zip(pw, values))
    return mean_p - _log_mean_exp(qw, values)


def dv_optimal_witness(p: Distribution, q: Distribution) -> WitnessFunction:
    """The maximiser f*(x) = log(p(x)/q(x)) of the variational objective.

    Requires full mutual support (p(x) > 0 iff q(x) > 0 atomwise); atoms
    carrying no mass under either get witness value 0.
    """
    _, pw, qw = _aligned(p, q)
    values = []
    for a, b in zip(pw, qw):
        if (a > 0.0) != (b > 0.0):
            raise SupportMismatchError(
                "supports differ: the divergence is infinite and the optimal "
                "witness unbounded"
            )
        values.append(0.0 if a == 0.0 else _log_ratio(a, b))
    return WitnessFunction(tuple(values))


#: Perturbation half-widths probed by dv_supremum, cycled across trials:
#: small ones test local optimality, the large one global domination.
SUPREMUM_NOISE_SCALES = (0.01, 0.1, 1.0)


def dv_supremum(
    p: Distribution, q: Distribution, trials: int, seed: int
) -> tuple[float, list[float]]:
    """Value of the variational objective at the optimal witness, plus the
    suboptimality gaps of ``trials`` randomly perturbed witnesses.

    Each trial adds atomwise uniform noise in [-s, s] to the optimal witness
    (s cycling through ``SUPREMUM_NOISE_SCALES``) and records
    value - dv_value(perturbed). All gaps are nonnegative up to rounding:
    no witness beats the maximiser. Deterministic given the seed.
    """
    trials, seed = _integer("trials", trials, 0), _integer("seed", seed)
    best = dv_optimal_witness(p, q)
    value = dv_value(p, q, best)
    rng = random.Random(seed)
    gaps = []
    for t in range(trials):
        s = SUPREMUM_NOISE_SCALES[t % len(SUPREMUM_NOISE_SCALES)]
        perturbed = WitnessFunction(
            tuple(v + rng.uniform(-s, s) for v in best.values)
        )
        gaps.append(value - dv_value(p, q, perturbed))
    return value, gaps


def pinsker_via_tfl(kl: float, param: TflParameter | float) -> float:
    """The bounded-witness bound TV <= kl / (2 lambda) + lambda / 4."""
    kl = _check_finite_kl(kl)
    lam = (param if isinstance(param, TflParameter) else TflParameter(param)).lam
    return kl / (2.0 * lam) + lam / 4.0


def pinsker_via_tfl_optimal(kl: float) -> tuple[float, float]:
    """Optimise the budget: lambda* = sqrt(2 kl) gives the bound sqrt(kl/2).

    Returns (lambda*, bound). The bound coincides with the pinsker forward
    curve; every other lambda gives a value at least as large. At kl = 0 the
    optimum degenerates to lambda* = 0 with bound 0.
    """
    kl = _check_finite_kl(kl)
    return math.sqrt(2.0 * kl), math.sqrt(kl / 2.0)


def _check_finite_kl(kl: float) -> float:
    kl = _real("kl", kl)
    if math.isnan(kl) or math.isinf(kl) or kl < 0.0:
        raise OutOfRangeError(f"kl: {kl!r} must be a finite value >= 0")
    return kl


def hoeffding_step_check(
    p: Distribution, q: Distribution, f: WitnessFunction
) -> float:
    """Margin of the bounded-moment step:

        E_q[f] + ||f||_inf^2 / 2 - log E_q[exp f]

    which is nonnegative for every bounded witness (a function with sup-norm
    s ranges within an interval of width 2s, so its log moment generating
    function is (2s)^2/8-subgaussian)."""
    pw, qw, values = _aligned_with_witness(p, q, f)
    mean_q = math.fsum(w * v for w, v in zip(qw, values))
    return mean_q + 0.5 * f.sup_norm**2 - _log_mean_exp(qw, values)


#: Largest aligned support for the sign-witness TV identity check.
IPM_SUPPORT_CAP = 20


def ipm_identity_check(
    p: Distribution, q: Distribution, trials: int, seed: int
) -> float:
    """Gap between TV and half the supremum of E_p[f] - E_q[f] over
    witnesses with sup-norm at most 1.

    The supremum is computed exactly at its extreme point f = sign(p - q),
    not by search; ``trials`` random unit-ball witnesses are then evaluated
    and must not exceed it (a TvklError would mean the identity machinery is
    broken). Returns half_supremum - total_variation, which is zero up to
    rounding.
    """
    trials, seed = _integer("trials", trials, 0), _integer("seed", seed)
    labels, pw, qw = _aligned(p, q)
    n = len(labels)
    if n > IPM_SUPPORT_CAP:
        raise TooLargeError(
            f"support: {n} atoms exceed the identity-check cap of {IPM_SUPPORT_CAP}"
        )
    sign = tuple(1.0 if a > b else (-1.0 if a < b else 0.0) for a, b in zip(pw, qw))
    supremum = _mean_difference(pw, qw, sign)
    rng = random.Random(seed)
    for _ in range(trials):
        f = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        if _mean_difference(pw, qw, f) > supremum + 1e-12:
            raise TvklError(
                "internal: a random unit-ball witness beat the sign witness"
            )
    return 0.5 * supremum - total_variation(p, q)


def _mean_difference(pw, qw, values) -> float:
    return math.fsum(v * (a - b) for a, b, v in zip(pw, qw, values))
