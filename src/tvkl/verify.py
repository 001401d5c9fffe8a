"""Empirical falsification engines for the TV/KL inequalities.

Two strategies. Binary grid scans sweep Bernoulli pairs (p, q) over an open
grid in (0,1)^2 and evaluate an inequality through the two-point closed
forms; joint-range reasoning says an inequality between TV and KL that holds
on all Bernoulli pairs holds in general, so a clean scan is strong evidence
(not proof). Randomized checks draw seeded multi-atom pairs (plus a witness
function or an event where needed) and evaluate the inequality through the
full divergence machinery.

Each inequality between TV and KL alone has one margin function of
(tv, kl), shared by the grid, ``bernoulli_margin`` and the random engine.
One tally loop counts violations and finds the worst margin for every
engine; one generator draws the seeded pairs of both random checks.

The grid validates at its boundary (resolution, tolerance, inequality) and
not per cell: its values i/r lie in (0, 1) by construction. It caches the
logs of each row's p and each column's q, so a cell forms KL from four
cached logs and makes one call to the inequality's margin.

Every margin is oriented as RHS - LHS of the inequality, so violations are
margins below -tolerance; a NaN margin is a violation too, and a tolerance
must be finite. Every operation is deterministic given its integer seed;
reports carry no state beyond the wall-clock ``elapsed`` field, which is
excluded from any serialised form.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
import time
from dataclasses import dataclass
from functools import partial

from .bounds import _FORWARD, BoundId, _vajda_inverse
from .distributions import Distribution, _default_labels
from .divergence import (
    EventSubset,
    _binary_kl,
    binary_kl,
    binary_tv,
    event_mass,
    hellinger_affinity,
    kl_divergence,
    total_variation,
)
from .errors import OutOfRangeError, UnsupportedInequalityError, _integer, _real, _unit
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


# -- margins ----------------------------------------------------------------


def _margin_pinsker_binary(tv: float, kl: float) -> float:
    return kl - 2.0 * tv * tv


def _forward_margin(bound: BoundId):
    curve = _FORWARD[bound]

    def margin(tv: float, kl: float) -> float:
        return curve(kl) - tv

    return margin


def _margin_vajda(tv: float, kl: float) -> float:
    return kl - _vajda_inverse(tv)


_TV_KL_MARGINS = {
    InequalityId.PINSKER_BINARY: _margin_pinsker_binary,
    InequalityId.PINSKER: _forward_margin(BoundId.PINSKER),
    InequalityId.BH: _forward_margin(BoundId.BH),
    InequalityId.TSYBAKOV: _forward_margin(BoundId.TSYBAKOV),
    InequalityId.WEAK_BH: _forward_margin(BoundId.WEAK_BH),
    InequalityId.VAJDA: _margin_vajda,
}


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
    return min(kl - kl, tv - tv, kl - _binary_kl(ps, qs), tv - abs(ps - qs))


# The checks that need the pair itself, on Bernoulli pairs; _random_margin
# has their multi-atom forms.
_PAIR_MARGINS = {
    InequalityId.HELLINGER_CHAIN: _margin_hellinger_binary,
    InequalityId.DPI_QUANTIZED: _margin_dpi_binary,
}


def _check_binary(inequality: InequalityId) -> None:
    if inequality not in _TV_KL_MARGINS and inequality not in _PAIR_MARGINS:
        raise UnsupportedInequalityError(
            f"{inequality.value}: no binary closed form to scan"
        )


def _check_tolerance(tolerance: float) -> float:
    # Negative tolerances stay allowed: they force violations on purpose.
    tolerance = _real("tolerance", tolerance)
    if not math.isfinite(tolerance):
        raise OutOfRangeError(f"tolerance: {tolerance!r} must be finite")
    return tolerance


def _tally(margins, floor: float) -> tuple[int, float, int, float]:
    """(violations, worst, index of worst, seconds taken) over ``margins``: a
    margin not at least ``floor``, NaN included, is a violation; worst is
    +inf and its index -1 when no margin is below +inf."""
    start = time.perf_counter()
    violations, worst, index = 0, math.inf, -1
    for i, m in enumerate(margins):
        if m < worst:
            worst, index = m, i
        if not m >= floor:
            violations += 1
    return violations, worst, index, time.perf_counter() - start


def bernoulli_margin(inequality: InequalityId, p: float, q: float) -> float:
    """Margin (RHS - LHS) of one inequality at one Bernoulli pair."""
    _check_binary(inequality)
    p, q = _unit("p", p), _unit("q", q)
    kl = _binary_kl(p, q)
    if inequality in _TV_KL_MARGINS:
        return _TV_KL_MARGINS[inequality](abs(p - q), kl)
    return _PAIR_MARGINS[inequality](p, q, kl)


def _row_cached_margins(margin, axis: list[float]):
    # Row-major margins of (tv, kl) on axis x axis, one list per row (as fast
    # as an inline loop). A cell's KL is binary_kl's expression on logs
    # cached per row and per column, so it equals binary_kl(p, q) bit for bit.
    log, log1p = math.log, math.log1p
    columns = [(q, log(q), log1p(-q)) for q in axis]

    def row(p: float) -> list[float]:
        lp, l1p, cp = log(p), log1p(-p), 1.0 - p
        return [
            margin(abs(p - q), 0.0 if p == q else p * (lp - lq) + cp * (l1p - l1q))
            for q, lq, l1q in columns
        ]

    return itertools.chain.from_iterable(map(row, axis))


def scan_bernoulli(
    inequality: InequalityId, resolution: int, tolerance: float = GRID_TOLERANCE
) -> ScanReport:
    """Evaluate an inequality on the open grid {(i/r, j/r) : 0 < i, j < r}.

    Boundary pairs are excluded (degenerate weights are covered by the
    explicit boundary cases of the closed forms). On the open grid
    |p - q| >= 1/r and every log is finite, so no cell has infinite KL:
    skipped_infinite_kl is always 0. A cell whose margin is not at least
    -tolerance, NaN included, is a violation.
    """
    r = _integer("resolution", resolution, 2)
    tolerance = _check_tolerance(tolerance)
    _check_binary(inequality)
    axis = [i / r for i in range(1, r)]
    if inequality in _TV_KL_MARGINS:
        margins = _row_cached_margins(_TV_KL_MARGINS[inequality], axis)
    else:
        pair = _PAIR_MARGINS[inequality]
        margins = (pair(p, q, _binary_kl(p, q)) for p in axis for q in axis)
    violations, worst, index, elapsed = _tally(margins, -tolerance)
    i, j = divmod(index, r - 1)
    worst_point = (axis[i], axis[j]) if index >= 0 else (math.nan, math.nan)
    grid = (
        f"bernoulli open grid {r}x{r}, tolerance={tolerance!r}, "
        "skipped_infinite_kl=0"
    )
    return ScanReport(inequality, grid, violations, worst, worst_point, elapsed)


# -- seeded random generation -----------------------------------------------


def _draw_distribution(rng: random.Random, atoms: int, concentration: float) -> Distribution:
    if atoms == 1:
        return Distribution(("0",), (1.0,))
    exponent = 1.0 / concentration
    raw = [(1.0 - rng.random()) ** exponent for _ in range(atoms)]
    total = math.fsum(raw)
    if total == 0.0:
        raise OutOfRangeError(
            f"concentration: {concentration!r} too small, every weight underflows"
        )
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
    seed, atoms = _integer("seed", seed), _integer("atoms", atoms, 1)
    concentration = _real("concentration", concentration)
    if not (concentration > 0.0):
        raise OutOfRangeError(f"concentration: {concentration!r} must be > 0")
    return _draw_distribution(random.Random(seed), atoms, concentration)


def _seeded_pairs(rng: random.Random, trials: int, atoms: int, concentrations):
    # Lazy: the consumer may draw from rng between two pairs.
    for t in range(trials):
        n, c = rng.randint(2, atoms), concentrations[t % len(concentrations)]
        yield _draw_distribution(rng, n, c), _draw_distribution(rng, n, c)


def _trial_report(inequality: InequalityId, grid: str, margins, floor: float) -> ScanReport:
    violations, worst, index, elapsed = _tally(margins, floor)
    worst_point = (index,) if index >= 0 else ()
    return ScanReport(inequality, grid, violations, worst, worst_point, elapsed)


#: Concentrations cycled by the randomized checks, mixing flat and spiky.
FALSIFY_CONCENTRATIONS = (1.0, 0.3, 3.0)

RANDOM_INEQUALITIES = (
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
    return _TV_KL_MARGINS[inequality](tv, kl)


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
    trials, atoms = _integer("trials", trials, 1), _integer("atoms", atoms, 2, 64)
    seed = _integer("seed", seed)
    tolerance = _check_tolerance(tolerance)
    if inequality is InequalityId.PINSKER_BINARY:
        raise UnsupportedInequalityError(
            f"{inequality.value}: only meaningful on Bernoulli pairs"
        )
    rng = random.Random(seed)
    pairs = _seeded_pairs(rng, trials, atoms, FALSIFY_CONCENTRATIONS)
    margins = (_random_margin(inequality, rng, p, q) for p, q in pairs)
    grid = (
        f"random pairs trials={trials}, atoms in [2, {atoms}], seed={seed}, "
        f"tolerance={tolerance!r}"
    )
    return _trial_report(inequality, grid, margins, -tolerance)


def _kl_finite_margin(p: Distribution, q: Distribution) -> float:
    bh = _FORWARD[BoundId.BH](kl_divergence(p, q))
    return 1.0 - total_variation(p, q) if bh < 1.0 else -math.inf


def kl_finite_implies_tv_lt_one(trials: int, seed: int) -> ScanReport:
    """On seeded full-support pairs (finite KL by construction), confirm
    that TV and the bh forward bound at the pair's KL both stay strictly
    below 1. The reported margin is the smallest observed 1 - TV, and -inf
    for a trial whose bh bound reaches 1; a margin that is not positive
    (TV = 1 included), or NaN, is a violation.
    """
    trials, seed = _integer("trials", trials, 1), _integer("seed", seed)
    rng = random.Random(seed)
    pairs = _seeded_pairs(rng, trials, 64, (1.0, 0.1, 0.01))
    margins = (_kl_finite_margin(p, q) for p, q in pairs)
    grid = f"kl-finite pairs trials={trials}, atoms in [2, 64], seed={seed}"
    # The smallest positive double: a margin at least that large is positive.
    return _trial_report(InequalityId.BH, grid, margins, math.ulp(0.0))


# -- suites -------------------------------------------------------------------

#: The grid suite scans the six inequalities between TV and KL alone.
GRID_INEQUALITIES = tuple(_TV_KL_MARGINS)

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
    order: "grid" scans the six binary inequalities, "random" runs the three
    multi-atom randomized checks, "kl_finite" the finite-KL consequence,
    "all" everything, and a single inequality identifier its own check of
    its suite, at the same seed. Deterministic given the seed. Both
    tolerances must be finite, whichever checks the suite runs.
    """
    seed = _integer("seed", seed)
    grid_tolerance = _check_tolerance(grid_tolerance)
    random_tolerance = _check_tolerance(random_tolerance)
    # (key, suite, check) in report order; random check k runs at seed + 101 k.
    plan = [
        (i.value, "grid", partial(scan_bernoulli, i, resolution, grid_tolerance))
        for i in GRID_INEQUALITIES
    ]
    for k, i in enumerate(RANDOM_INEQUALITIES, 1):
        check = partial(falsify, i, trials, atoms, seed + 101 * k, random_tolerance)
        plan.append((i.value, "random", check))
    check = partial(kl_finite_implies_tv_lt_one, trials, seed + 909)
    plan.append(("kl_finite", "kl_finite", check))
    reports = [run() for key, suite, run in plan if name in ("all", suite, key)]
    if not reports:
        raise OutOfRangeError(
            f"suite: {name!r} is not a suite name or inequality identifier"
        )
    return reports
