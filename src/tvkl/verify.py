"""Empirical falsification engines for the TV/KL inequalities.

Two strategies. Binary grid scans sweep Bernoulli pairs (p, q) over an open
grid in (0,1)^2 and evaluate an inequality through the two-point closed
forms; joint-range reasoning says an inequality between TV and KL that holds
on all Bernoulli pairs holds in general, so a clean scan is strong evidence
(not proof). Randomized checks draw seeded multi-atom pairs (plus a witness
function or an event where needed) and evaluate the inequality through the
full divergence machinery.

The grid validates at its boundary (resolution, tolerance, inequality) and
not per cell: its values i/r lie in (0, 1) by construction. It caches the
logs of each row's p and each column's q, so a cell forms KL from four
cached logs and makes one call to the inequality's margin.

Every margin is oriented as RHS - LHS of the inequality, so violations are
margins below -tolerance; a NaN margin is a violation too, and a tolerance
must be finite. All operations are deterministic given their seed;
reports carry no state beyond the wall-clock ``elapsed`` field, which is
excluded from any serialised form.
"""

from __future__ import annotations

import enum
import math
import random
import time
from dataclasses import dataclass

from .bounds import _FORWARD, BoundId, forward_value, inverse_value, kl_lower_vajda
from .distributions import Distribution, _default_labels
from .divergence import (
    EventSubset,
    binary_kl,
    binary_tv,
    event_mass,
    hellinger_affinity,
    kl_divergence,
    total_variation,
)
from .errors import OutOfRangeError, UnsupportedInequalityError
from .variational import WitnessFunction, dv_value

#: Default violation tolerances: closed-form grid cells vs 64-atom sums.
GRID_TOLERANCE = 1e-12
RANDOM_TOLERANCE = 1e-10

#: Mass floor guaranteeing full support in random generation.
WEIGHT_FLOOR = 1e-12


class InequalityId(enum.Enum):
    PINSKER_BINARY = "pinsker_binary"  # 2 (p - q)^2 <= kl(p, q)
    PINSKER = "pinsker"
    BH = "bh"
    TSYBAKOV = "tsybakov"
    WEAK_BH = "weak_bh"
    VAJDA = "vajda"
    HELLINGER_CHAIN = "hellinger_chain"  # 1 - tv^2 >= affinity^2 >= exp(-kl)
    DPI_QUANTIZED = "dpi_quantized"  # binary quantization shrinks kl and tv
    TFL_LOWER = "tfl_lower"  # every witness lower-bounds kl


@dataclass(frozen=True, slots=True)
class ScanReport:
    """Outcome of one scan: violations are margins below -tolerance, and
    worst_margin / worst_point locate the least comfortable cell."""

    inequality: InequalityId
    grid: str
    violations: int
    worst_margin: float
    worst_point: tuple
    elapsed: float

    def to_json_dict(self) -> dict:
        # elapsed is deliberately dropped: serialised reports must be
        # byte-identical across runs.
        return {
            "inequality": self.inequality.value,
            "grid": self.grid,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "worst_point": list(self.worst_point),
        }


# -- binary grid margins ----------------------------------------------------
#
# Margins of (p, q, kl), with kl = binary_kl(p, q) and TV = |p - q|; the grid
# scan and bernoulli_margin call the same entry of _BINARY_MARGINS.


def _margin_pinsker_binary(p: float, q: float, kl: float) -> float:
    d = p - q
    return kl - 2.0 * d * d


def _forward_margin(bound: BoundId):
    curve = _FORWARD[bound]

    def margin(p: float, q: float, kl: float) -> float:
        # forward_value's rejection of a negative or NaN kl.
        if not kl >= 0.0:
            raise OutOfRangeError(f"kl: {kl!r} must be >= 0")
        return curve(kl) - abs(p - q)

    return margin


def _margin_vajda(p: float, q: float, kl: float) -> float:
    return kl - kl_lower_vajda(abs(p - q))


def _hellinger_chain(tv: float, kl: float, aff2: float) -> float:
    # 1 - tv^2 >= affinity^2 >= exp(-kl)
    return min((1.0 - tv * tv) - aff2, aff2 - math.exp(-kl))


def _margin_hellinger_binary(p: float, q: float, kl: float) -> float:
    aff = math.sqrt(p * q) + math.sqrt((1.0 - p) * (1.0 - q))
    return _hellinger_chain(abs(p - q), kl, aff * aff)


def _margin_dpi_binary(p: float, q: float, kl: float) -> float:
    # The only nontrivial events on two atoms keep the pair or swap the
    # roles of the atoms; both quantizations must shrink kl and tv. Keeping
    # the pair gives margins kl - kl and tv - tv: 0, or NaN where kl is +inf.
    tv = abs(p - q)
    ps, qs = 1.0 - p, 1.0 - q
    return min(kl - kl, tv - tv, kl - binary_kl(ps, qs), tv - abs(ps - qs))


_BINARY_MARGINS = {
    InequalityId.PINSKER_BINARY: _margin_pinsker_binary,
    InequalityId.PINSKER: _forward_margin(BoundId.PINSKER),
    InequalityId.BH: _forward_margin(BoundId.BH),
    InequalityId.TSYBAKOV: _forward_margin(BoundId.TSYBAKOV),
    InequalityId.WEAK_BH: _forward_margin(BoundId.WEAK_BH),
    InequalityId.VAJDA: _margin_vajda,
    InequalityId.HELLINGER_CHAIN: _margin_hellinger_binary,
    InequalityId.DPI_QUANTIZED: _margin_dpi_binary,
}


def _binary_margin_fn(inequality: InequalityId):
    if inequality not in _BINARY_MARGINS:
        raise UnsupportedInequalityError(
            f"{inequality.value}: no binary closed form to scan"
        )
    return _BINARY_MARGINS[inequality]


def _check_tolerance(tolerance: float) -> None:
    # Negative tolerances stay allowed: they force violations on purpose.
    if not math.isfinite(tolerance):
        raise OutOfRangeError(f"tolerance: {tolerance!r} must be finite")


def bernoulli_margin(inequality: InequalityId, p: float, q: float) -> float:
    """Margin (RHS - LHS) of one inequality at one Bernoulli pair."""
    margin_fn = _binary_margin_fn(inequality)
    return margin_fn(p, q, binary_kl(p, q))


def scan_bernoulli(
    inequality: InequalityId, resolution: int, tolerance: float = GRID_TOLERANCE
) -> ScanReport:
    """Evaluate an inequality on the open grid {(i/r, j/r) : 0 < i, j < r}.

    Boundary pairs are excluded (degenerate weights are covered by the
    explicit boundary cases of the closed forms); cells with infinite KL
    would be skipped and counted in the grid description, though the open
    grid never produces one. Every other cell whose margin is not at least
    -tolerance, NaN included, is a violation. A cell's KL is binary_kl's
    expression on the cached row and column logs, so it equals
    binary_kl(p, q) bit for bit.
    """
    if resolution < 2:
        raise OutOfRangeError(f"resolution: {resolution!r} must be >= 2")
    _check_tolerance(tolerance)
    margin_fn = _binary_margin_fn(inequality)
    start = time.perf_counter()
    worst = math.inf
    worst_point = (math.nan, math.nan)
    violations = 0
    skipped = 0
    floor = -tolerance
    inf = math.inf
    log, log1p, fsum = math.log, math.log1p, math.fsum
    r = resolution
    columns = [(q, log(q), log1p(-q)) for q in (j / r for j in range(1, r))]
    for i in range(1, r):
        p = i / r
        lp, l1p, cp = log(p), log1p(-p), 1.0 - p
        for q, lq, l1q in columns:
            kl = 0.0 if p == q else fsum((p * (lp - lq), cp * (l1p - l1q)))
            if kl == inf:
                skipped += 1
                continue
            m = margin_fn(p, q, kl)
            if m < worst:
                worst = m
                worst_point = (p, q)
            if not m >= floor:
                violations += 1
    elapsed = time.perf_counter() - start
    grid = (
        f"bernoulli open grid {r}x{r}, tolerance={tolerance!r}, "
        f"skipped_infinite_kl={skipped}"
    )
    return ScanReport(inequality, grid, violations, worst, worst_point, elapsed)


# -- seeded random generation -----------------------------------------------


def _draw_distribution(rng: random.Random, atoms: int, concentration: float) -> Distribution:
    if atoms == 1:
        return Distribution(("0",), (1.0,))
    exponent = 1.0 / concentration
    raw = [(1.0 - rng.random()) ** exponent for _ in range(atoms)]
    total = math.fsum(raw)
    floored = [max(w / total, WEIGHT_FLOOR) for w in raw]
    total = math.fsum(floored)
    return Distribution(_default_labels(atoms), tuple(w / total for w in floored))


def random_distribution(seed: int, atoms: int, concentration: float) -> Distribution:
    """Seeded full-support distribution on ``atoms`` labelled atoms.

    Weights are normalised powers (exponent 1/concentration) of independent
    uniform draws: concentration 1 gives flat-ish simplex points, small
    values give spiky ones. A floor of ``WEIGHT_FLOOR`` before the final
    normalisation guarantees full support. Deterministic given the seed.
    """
    if atoms < 1:
        raise OutOfRangeError(f"atoms: {atoms!r} must be >= 1")
    if not (concentration > 0.0):
        raise OutOfRangeError(f"concentration: {concentration!r} must be > 0")
    return _draw_distribution(random.Random(seed), atoms, concentration)


#: Concentrations cycled by the randomized checks, mixing flat and spiky.
FALSIFY_CONCENTRATIONS = (1.0, 0.3, 3.0)

_RANDOM_ONLY = (
    InequalityId.HELLINGER_CHAIN,
    InequalityId.DPI_QUANTIZED,
    InequalityId.TFL_LOWER,
)


def _random_margin(
    inequality: InequalityId, rng: random.Random, p: Distribution, q: Distribution
) -> float:
    tv = total_variation(p, q)
    kl = kl_divergence(p, q)
    if inequality is InequalityId.HELLINGER_CHAIN:
        return _hellinger_chain(tv, kl, hellinger_affinity(p, q) ** 2)
    if inequality is InequalityId.DPI_QUANTIZED:
        flags = tuple(rng.random() < 0.5 for _ in range(len(p)))
        ps = event_mass(p.probs, EventSubset(flags))
        qs = event_mass(q.probs, EventSubset(flags))
        return min(kl - binary_kl(ps, qs), tv - binary_tv(ps, qs))
    if inequality is InequalityId.TFL_LOWER:
        f = WitnessFunction(tuple(rng.uniform(-3.0, 3.0) for _ in range(len(p))))
        return kl - dv_value(p, q, f)
    if inequality is InequalityId.VAJDA:
        return kl - inverse_value(BoundId.VAJDA, tv)
    if inequality in (
        InequalityId.PINSKER,
        InequalityId.BH,
        InequalityId.TSYBAKOV,
        InequalityId.WEAK_BH,
    ):
        return forward_value(BoundId(inequality.value), kl) - tv
    raise UnsupportedInequalityError(
        f"{inequality.value}: only meaningful on Bernoulli pairs"
    )


def falsify(
    inequality: InequalityId,
    trials: int,
    atoms: int,
    seed: int,
    tolerance: float = RANDOM_TOLERANCE,
) -> ScanReport:
    """Randomized counterpart of the grid scan for multi-atom inequalities.

    Draws ``trials`` seeded full-support pairs with sizes uniform in
    [2, atoms] and concentrations cycling through
    ``FALSIFY_CONCENTRATIONS``, plus a random event for the quantization
    check and a random bounded witness for the variational one. A trial
    whose margin is not at least -tolerance, NaN included, is a violation.
    The worst point records the offending trial index.
    """
    if trials < 1:
        raise OutOfRangeError(f"trials: {trials!r} must be >= 1")
    if not (2 <= atoms <= 64):
        raise OutOfRangeError(f"atoms: {atoms!r} not in [2, 64]")
    _check_tolerance(tolerance)
    if inequality is InequalityId.PINSKER_BINARY:
        raise UnsupportedInequalityError(
            f"{inequality.value}: only meaningful on Bernoulli pairs"
        )
    start = time.perf_counter()
    rng = random.Random(seed)
    worst = math.inf
    worst_point: tuple = ()
    violations = 0
    for t in range(trials):
        n = rng.randint(2, atoms)
        concentration = FALSIFY_CONCENTRATIONS[t % len(FALSIFY_CONCENTRATIONS)]
        p = _draw_distribution(rng, n, concentration)
        q = _draw_distribution(rng, n, concentration)
        m = _random_margin(inequality, rng, p, q)
        if m < worst:
            worst = m
            worst_point = (t,)
        if not m >= -tolerance:
            violations += 1
    elapsed = time.perf_counter() - start
    grid = (
        f"random pairs trials={trials}, atoms in [2, {atoms}], seed={seed}, "
        f"tolerance={tolerance!r}"
    )
    return ScanReport(inequality, grid, violations, worst, worst_point, elapsed)


def kl_finite_implies_tv_lt_one(trials: int, seed: int) -> ScanReport:
    """On seeded full-support pairs (finite KL by construction), confirm
    that TV and the bh forward bound at the pair's KL both stay strictly
    below 1. The reported margin is the smallest observed 1 - TV.
    """
    if trials < 1:
        raise OutOfRangeError(f"trials: {trials!r} must be >= 1")
    start = time.perf_counter()
    rng = random.Random(seed)
    concentrations = (1.0, 0.1, 0.01)
    worst = math.inf
    worst_point: tuple = ()
    violations = 0
    for t in range(trials):
        n = rng.randint(2, 64)
        concentration = concentrations[t % len(concentrations)]
        p = _draw_distribution(rng, n, concentration)
        q = _draw_distribution(rng, n, concentration)
        tv = total_variation(p, q)
        bh = forward_value(BoundId.BH, kl_divergence(p, q))
        if not (tv < 1.0 and bh < 1.0):
            violations += 1
        m = 1.0 - tv
        if m < worst:
            worst = m
            worst_point = (t,)
    elapsed = time.perf_counter() - start
    grid = f"kl-finite pairs trials={trials}, atoms in [2, 64], seed={seed}"
    return ScanReport(InequalityId.BH, grid, violations, worst, worst_point, elapsed)


# -- suites -------------------------------------------------------------------

GRID_INEQUALITIES = (
    InequalityId.PINSKER_BINARY,
    InequalityId.PINSKER,
    InequalityId.BH,
    InequalityId.TSYBAKOV,
    InequalityId.WEAK_BH,
    InequalityId.VAJDA,
)

RANDOM_INEQUALITIES = _RANDOM_ONLY

SUITE_NAMES = ("all", "grid", "random", "kl_finite")


def run_suite(
    name: str,
    seed: int = 0,
    resolution: int = 500,
    trials: int = 1000,
    atoms: int = 64,
    grid_tolerance: float = GRID_TOLERANCE,
    random_tolerance: float = RANDOM_TOLERANCE,
) -> list[ScanReport]:
    """Run a named verification suite and return its reports in a fixed
    order. ``name`` may also be a single inequality identifier.

    Suites: "grid" scans the six binary inequalities, "random" runs the
    three multi-atom randomized checks, "kl_finite" the finite-KL
    consequence, "all" everything. Deterministic given the seed. Both
    tolerances must be finite, whichever checks the suite runs.
    """
    _check_tolerance(grid_tolerance)
    _check_tolerance(random_tolerance)
    reports: list[ScanReport] = []
    if name in ("all", "grid"):
        for ineq in GRID_INEQUALITIES:
            reports.append(scan_bernoulli(ineq, resolution, grid_tolerance))
    if name in ("all", "random"):
        for offset, ineq in enumerate(RANDOM_INEQUALITIES):
            reports.append(
                falsify(ineq, trials, atoms, seed + 101 * (offset + 1), random_tolerance)
            )
    if name in ("all", "kl_finite"):
        reports.append(kl_finite_implies_tv_lt_one(trials, seed + 909))
    if reports:
        return reports
    try:
        ineq = InequalityId(name)
    except ValueError:
        raise OutOfRangeError(
            f"suite: {name!r} is not a suite name or inequality identifier"
        ) from None
    if ineq in _RANDOM_ONLY:
        return [falsify(ineq, trials, atoms, seed + 101, random_tolerance)]
    return [scan_bernoulli(ineq, resolution, grid_tolerance)]
