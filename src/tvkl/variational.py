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
lambda = sqrt(2 KL)). That moment inequality, and the representation of TV
as half the supremum of E_p[f] - E_q[f] over the sup-norm unit ball,
attained at f = sign(p - q), are checked by ``verify``'s derivation suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import mul, sub

from .bounds import _pinsker_forward
from .distributions import Distribution
from .divergence import _aligned, _log_ratios, total_variation
from .errors import (
    MisalignedWitnessError,
    OutOfRangeError,
    SupportMismatchError,
    _integer,
    _real,
    _tuple,
)


@dataclass(frozen=True, slots=True)
class WitnessFunction:
    """A real-valued function on an aligned support, one value per atom."""

    values: tuple[float, ...]
    sup_norm: float = field(init=False)

    def __post_init__(self):
        raw = _tuple("values", self.values)
        try:
            values = tuple(map(float, raw))
        except (TypeError, ValueError, OverflowError):
            # Convert again, one value at a time, to name the one refused.
            for i, v in enumerate(raw):
                _real(f"values[{i}]", v)
            raise
        if not values:
            raise OutOfRangeError("values: a witness needs at least one value")
        if not all(map(math.isfinite, values)):  # a C-speed scan first
            i = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise OutOfRangeError(f"values[{i}]: {values[i]!r} is not finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sup_norm", max(map(abs, values)))


def _aligned_with_witness(p: Distribution, q: Distribution, f: WitnessFunction):
    labels, pw, qw = _aligned(p, q)
    if len(f.values) != len(labels):
        raise MisalignedWitnessError(
            f"witness: {len(f.values)} values for {len(labels)} aligned atoms"
        )
    return pw, qw, f.values


def _log_mean_exp(weights, values) -> float:
    # log sum_x w(x) exp(v(x)) with max-shift stabilisation over the atoms
    # that carry weight: weights are >= 0, so a weight is true iff it is > 0.
    values = list(compress(values, weights))
    shift = max(values)
    scaled = map(math.exp, map(sub, values, repeat(shift)))
    return shift + math.log(math.fsum(map(mul, compress(weights, weights), scaled)))


def dv_value(p: Distribution, q: Distribution, f: WitnessFunction) -> float:
    """E_p[f] - log E_q[exp f]: the variational objective at one witness.

    Never exceeds KL(p || q) when that is finite; equals it at the optimal
    witness.
    """
    pw, qw, values = _aligned_with_witness(p, q, f)
    mean_p = math.fsum(map(mul, pw, values))
    return mean_p - _log_mean_exp(qw, values)


def dv_optimal_witness(p: Distribution, q: Distribution) -> WitnessFunction:
    """The maximiser f*(x) = log(p(x)/q(x)) of the variational objective.

    Requires full mutual support (p(x) > 0 iff q(x) > 0 atomwise); atoms
    carrying no mass under either get witness value 0.
    """
    _, pw, qw = _aligned(p, q)
    # A log-ratio is infinite, which the witness refuses, iff one side has no mass.
    try:
        return WitnessFunction(tuple(_log_ratios(pw, qw)))
    except OutOfRangeError:
        raise SupportMismatchError(
            "supports differ: the divergence is infinite and the optimal "
            "witness unbounded"
        ) from None


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


def pinsker_via_tfl(kl: float, lam: float) -> float:
    """The bounded-witness bound TV <= kl / (2 lambda) + lambda / 4, at a
    sup-norm budget lambda that is a positive finite real."""
    kl, lam = _check_finite_kl(kl), _real("lam", lam)
    if not (lam > 0.0) or math.isinf(lam):
        raise OutOfRangeError(f"lam: {lam!r} must be a positive real")
    return kl / (2.0 * lam) + lam / 4.0


def pinsker_via_tfl_optimal(kl: float) -> tuple[float, float]:
    """Optimise the budget: lambda* = sqrt(2 kl) gives the bound sqrt(kl/2).

    Returns (lambda*, bound). The bound coincides with the pinsker forward
    curve; every other lambda gives a value at least as large. At kl = 0 the
    optimum degenerates to lambda* = 0 with bound 0. Where 2 kl overflows,
    lambda* is 2 sqrt(kl / 2), the same value rescaled exactly.
    """
    kl = _check_finite_kl(kl)
    lam = math.sqrt(2.0 * kl) if 2.0 * kl < math.inf else 2.0 * math.sqrt(0.5 * kl)
    return lam, _pinsker_forward(kl)


def _check_finite_kl(kl: float) -> float:
    kl = _real("kl", kl)
    if math.isnan(kl) or math.isinf(kl) or kl < 0.0:
        raise OutOfRangeError(f"kl: {kl!r} must be a finite value >= 0")
    return kl
