"""Empirical falsification engines for the TV/KL inequalities.

Two strategies. Binary grid scans sweep Bernoulli pairs (p, q) over an open
grid in (0,1)^2 and evaluate an inequality through the two-point closed
forms; joint-range reasoning says an inequality between TV and KL that holds
on all Bernoulli pairs holds in general, so a clean scan is strong evidence
(not proof). Randomized checks draw seeded multi-atom pairs (plus a witness
function or an event where needed) and evaluate the inequality through the
full divergence machinery.

Every inequality has one margin definition. The six between TV and KL
alone (``GRID_INEQUALITIES``) have one entry each in a table of
(orientation, curve): a forward curve f gives the margin f(kl) - tv, an
inverse curve g gives kl - g(tv, 1 - tv). The grid, ``bernoulli_margin``
and the random engine read that table; the Bernoulli scan takes these six
and no other. The hellinger chain and the quantized data-processing check
need the pair itself, so only the random engine runs them. It also runs the
margins of three steps of the paper's derivations
(``DERIVATION_INEQUALITIES``): the U, V, W split behind BH, TV as half the
sign witness's mean gap, and the Hoeffding step of the bounded-witness
route. One tally loop counts violations and finds the worst margin for
every engine; one generator draws the seeded pairs of both random checks.

The grid validates at its boundary (resolution, tolerance, inequality) and
not per cell: its values i/r lie in (0, 1) by construction. It caches the
logs of each row's p and each column's q, so a cell forms KL from four
cached logs. A forward cell then makes one call to its curve. An inverse
cell looks up curve(tv, 1 - tv) in a table local to the scan, which
computes each value on first use: once per distinct |p - q| (1,668 on the
499 x 499 grid).

Every margin is oriented as RHS - LHS of the inequality, so violations are
margins below -tolerance; a NaN margin is a violation too, and a tolerance
must be finite. Every operation is deterministic given its integer seed,
and a report is a plain value: identical calls return equal reports.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from operator import mul, sub

from .bounds import _FORWARD, _INVERSE, BoundId
from .distributions import Distribution, _default_labels
from .divergence import (
    EventSubset,
    _aligned,
    _binary_kl,
    binary_kl,
    binary_tv,
    event_mass,
    hellinger_affinity,
    kl_divergence,
    total_variation,
)
from .errors import OutOfRangeError, UnsupportedInequalityError, _integer, _real, _unit
from .errors import _unknown_id
from .variational import WitnessFunction, _log_mean_exp, dv_value

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
    BH_DECOMPOSITION = "bh_decomposition"  # the U, V, W split behind bh
    IPM_IDENTITY = "ipm_identity"  # tv is half the sign witness's mean gap
    HOEFFDING_STEP = "hoeffding_step"  # log E_q[e^f] <= E_q[f] + ||f||^2 / 2


@dataclass(frozen=True, slots=True)
class ScanReport:
    """Outcome of one scan: violations are margins below -tolerance, and
    worst_margin / worst_point locate the least comfortable cell."""

    inequality: InequalityId
    grid: str
    violations: int
    worst_margin: float
    worst_point: tuple


# -- margins ----------------------------------------------------------------


#: Each inequality between TV and KL alone as (orientation, curve) from
#: ``bounds``: a "forward" curve bounds TV by f(kl), with margin f(kl) - tv;
#: an "inverse" one bounds KL by g(tv, 1 - tv), with margin
#: kl - g(tv, 1 - tv). ``_tv_kl_margin`` and the grid's rows both read it.
_TV_KL_CURVES = {
    InequalityId.PINSKER_BINARY: ("inverse", _INVERSE[BoundId.PINSKER]),
    InequalityId.PINSKER: ("forward", _FORWARD[BoundId.PINSKER]),
    InequalityId.BH: ("forward", _FORWARD[BoundId.BH]),
    InequalityId.TSYBAKOV: ("forward", _FORWARD[BoundId.TSYBAKOV]),
    InequalityId.WEAK_BH: ("forward", _FORWARD[BoundId.WEAK_BH]),
    InequalityId.VAJDA: ("inverse", _INVERSE[BoundId.VAJDA]),
}


def _tv_kl_margin(entry: tuple, tv: float, kl: float) -> float:
    orientation, curve = entry
    return curve(kl) - tv if orientation == "forward" else kl - curve(tv, 1.0 - tv)


def _hellinger_chain(tv: float, kl: float, aff2: float) -> float:
    # 1 - tv^2 >= affinity^2 >= exp(-kl)
    return min((1.0 - tv * tv) - aff2, aff2 - math.exp(-kl))


def _bh_decomposition(p: Distribution, q: Distribution) -> float:
    # On p's support, U = q/p, V = (U - 1)+ and W = (1 - U)+ satisfy V W = 0
    # and (1 + V)(1 - W) = U (residuals relative to max(1, U)), E_p[W] = TV,
    # and E_p[V] = TV when q puts no mass outside p's support. Returns 0.0
    # minus the largest residual (0.0 on an exact split, not -0.0), or NaN
    # if a residual is NaN (a ratio that overflows).
    _, pw, qw = _aligned(p, q)
    weights, u = zip(*[(a, b / a) for a, b in zip(pw, qw) if a > 0.0])
    v, w = [max(x - 1.0, 0.0) for x in u], [max(1.0 - x, 0.0) for x in u]
    residuals = [y * z / max(1.0, x) for x, y, z in zip(u, v, w)]
    residuals += [abs((1.0 + y) * (1.0 - z) - x) / max(1.0, x) for x, y, z in zip(u, v, w)]
    tv = total_variation(p, q)
    residuals.append(abs(math.fsum(map(mul, weights, w)) - tv))
    escaped = math.fsum(b for a, b in zip(pw, qw) if a <= 0.0)
    if escaped == 0.0:
        residuals.append(abs(math.fsum(map(mul, weights, v)) - tv))
    return math.nan if math.isnan(sum(residuals)) else 0.0 - max(residuals)


def _mean_difference(pw, qw, values) -> float:
    return math.fsum(map(mul, values, map(sub, pw, qw)))


def _ipm_identity(p: Distribution, q: Distribution, values) -> float:
    # TV is half the largest E_p[f] - E_q[f] over witnesses with sup-norm at
    # most 1, reached at f = sign(p - q). The smaller of that gap less the
    # gap of the unit-ball witness ``values``, and 0.0 - |gap / 2 - TV|.
    _, pw, qw = _aligned(p, q)
    gap = _mean_difference(pw, qw, [(a > b) - (a < b) for a, b in zip(pw, qw)])
    tv = total_variation(p, q)
    return min(gap - _mean_difference(pw, qw, values), 0.0 - abs(0.5 * gap - tv))


def _hoeffding_step(p: Distribution, q: Distribution, values) -> float:
    # E_q[f] + ||f||_inf^2 / 2 - log E_q[e^f]: a witness of sup-norm s ranges
    # within an interval of width 2s, so by Hoeffding's lemma its log moment
    # generating function is at most its mean plus (2s)^2 / 8.
    _, _, qw = _aligned(p, q)
    mean_q = math.fsum(map(mul, qw, values))
    return mean_q + 0.5 * max(map(abs, values)) ** 2 - _log_mean_exp(qw, values)


def _entry(table: dict, inequality: InequalityId):
    # table[inequality], or the one refusal of an id that ``table`` lacks.
    try:
        return table[inequality]
    except (KeyError, TypeError):
        raise _unknown_id(
            "inequality", inequality, table, UnsupportedInequalityError
        ) from None


def _check_tolerance(tolerance: float) -> float:
    # Negative tolerances stay allowed: they force violations on purpose.
    tolerance = _real("tolerance", tolerance)
    if not math.isfinite(tolerance):
        raise OutOfRangeError(f"tolerance: {tolerance!r} must be finite")
    return tolerance


def _tally(margins, floor: float) -> tuple[int, float, int]:
    """(violations, worst, index of worst) over ``margins``: a margin not at
    least ``floor``, NaN included, is a violation; worst is +inf and its
    index -1 when no margin is below +inf."""
    violations, worst, index = 0, math.inf, -1
    for i, m in enumerate(margins):
        if m < worst:
            worst, index = m, i
        if not m >= floor:
            violations += 1
    return violations, worst, index


def bernoulli_margin(inequality: InequalityId, p: float, q: float) -> float:
    """Margin (RHS - LHS) of one of the six ``GRID_INEQUALITIES`` at one
    Bernoulli pair; others raise ``UnsupportedInequalityError``."""
    entry = _entry(_TV_KL_CURVES, inequality)
    p, q = _unit("p", p), _unit("q", q)
    return _tv_kl_margin(entry, abs(p - q), _binary_kl(p, q))


class _InverseCurve(dict):
    # curve(t, 1 - t) by t, each computed on its first lookup. One scan makes
    # its own: the r x r grid holds far fewer distinct |p - q| than cells.
    def __init__(self, curve):
        super().__init__()
        self.curve = curve

    def __missing__(self, t: float) -> float:
        value = self[t] = self.curve(t, 1.0 - t)
        return value


def _row_cached_margins(orientation: str, curve, axis: list[float]):
    # Row-major margins on axis x axis, one list per row, each cell calling
    # the curve itself (an inverse one through its _InverseCurve). A cell's
    # KL is binary_kl's expression on logs cached per row and per column, so
    # it equals binary_kl(p, q) bit for bit.
    log, log1p = math.log, math.log1p
    columns = [(q, log(q), log1p(-q)) for q in axis]

    def forward_row(p: float) -> list[float]:
        lp, l1p, cp = log(p), log1p(-p), 1.0 - p
        return [
            curve(0.0 if p == q else p * (lp - lq) + cp * (l1p - l1q)) - abs(p - q)
            for q, lq, l1q in columns
        ]

    def inverse_row(p: float) -> list[float]:
        lp, l1p, cp = log(p), log1p(-p), 1.0 - p
        return [
            (0.0 if p == q else p * (lp - lq) + cp * (l1p - l1q)) - lower[abs(p - q)]
            for q, lq, l1q in columns
        ]

    if orientation == "forward":
        row = forward_row
    else:
        row, lower = inverse_row, _InverseCurve(curve)
    return itertools.chain.from_iterable(map(row, axis))


def scan_bernoulli(
    inequality: InequalityId, resolution: int, tolerance: float = GRID_TOLERANCE
) -> ScanReport:
    """Evaluate an inequality on the open grid {(i/r, j/r) : 0 < i, j < r}.

    Takes the six ``GRID_INEQUALITIES`` through their one (orientation,
    curve) entry, computing the inverse curve once per distinct TV of the
    grid; others raise ``UnsupportedInequalityError`` (``falsify`` checks
    them).
    Boundary pairs are excluded (degenerate weights are covered by the
    explicit boundary cases of the closed forms). On the open grid
    0 < p, q < 1, so every log is finite and no cell has infinite KL:
    skipped_infinite_kl is always 0. A diagonal cell (p = q) has TV and KL
    0.0 exactly. A cell whose margin is not at least -tolerance, NaN
    included, is a violation.
    """
    r = _integer("resolution", resolution, 2)
    tolerance = _check_tolerance(tolerance)
    entry = _entry(_TV_KL_CURVES, inequality)
    axis = [i / r for i in range(1, r)]
    margins = _row_cached_margins(*entry, axis)
    violations, worst, index = _tally(margins, -tolerance)
    i, j = divmod(index, r - 1)
    worst_point = (axis[i], axis[j]) if index >= 0 else (math.nan, math.nan)
    grid = (
        f"bernoulli open grid {r}x{r}, tolerance={tolerance!r}, "
        "skipped_infinite_kl=0"
    )
    return ScanReport(inequality, grid, violations, worst, worst_point)


# -- seeded random generation -----------------------------------------------


def _draw_weights(rng: random.Random, atoms: int, concentration: float) -> tuple:
    # Seeded weights floored at WEIGHT_FLOOR before the renormalisation; the
    # conditional picks what max(x, WEIGHT_FLOOR) would, without a call.
    exponent, draw, floor = 1.0 / concentration, rng.random, WEIGHT_FLOOR
    raw = [(1.0 - draw()) ** exponent for _ in range(atoms)]
    total = math.fsum(raw)
    if total == 0.0:
        raise OutOfRangeError(
            f"concentration: {concentration!r} too small, every weight underflows"
        )
    floored = [floor if floor > x else x for x in [w / total for w in raw]]
    total = math.fsum(floored)
    return tuple([w / total for w in floored])


def _draw_distribution(rng: random.Random, atoms: int, concentration: float) -> Distribution:
    # Valid by construction: distinct labels "0", "1", ..., and positive
    # finite weights divided by their sum, which is then 1 within rounding.
    if atoms == 1:
        return Distribution._trusted(("0",), (1.0,))
    return Distribution._trusted(
        _default_labels(atoms), _draw_weights(rng, atoms, concentration)
    )


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


# Label tuples by size, up to the 64-atom cap of the randomized checks. Both
# distributions of a seeded pair share one, so aligning them compares each
# label with itself.
_PAIR_LABELS = tuple(map(_default_labels, range(65)))


def _seeded_pairs(rng: random.Random, trials: int, atoms: int, concentrations):
    # Lazy: the consumer may draw from rng between two pairs.
    for t in range(trials):
        n, c = rng.randint(2, atoms), concentrations[t % len(concentrations)]
        labels = _PAIR_LABELS[n]
        # Valid by construction, as in _draw_distribution.
        p = Distribution._trusted(labels, _draw_weights(rng, n, c))
        yield p, Distribution._trusted(labels, _draw_weights(rng, n, c))


def _trial_report(inequality: InequalityId, grid: str, margins, floor: float) -> ScanReport:
    violations, worst, index = _tally(margins, floor)
    worst_point = (index,) if index >= 0 else ()
    return ScanReport(inequality, grid, violations, worst, worst_point)


#: Concentrations cycled by the randomized checks, mixing flat and spiky.
FALSIFY_CONCENTRATIONS = (1.0, 0.3, 3.0)

RANDOM_INEQUALITIES = (
    InequalityId.HELLINGER_CHAIN,
    InequalityId.DPI_QUANTIZED,
    InequalityId.TFL_LOWER,
)

#: The derivation steps, checked by the random engine outside ``all``.
DERIVATION_INEQUALITIES = (
    InequalityId.BH_DECOMPOSITION,
    InequalityId.IPM_IDENTITY,
    InequalityId.HOEFFDING_STEP,
)


#: The checks of ``falsify``: all but pinsker_binary, which only the grid scans.
_MULTI_ATOM = {i: i.value for i in InequalityId if i is not InequalityId.PINSKER_BINARY}


def _random_margin(
    inequality: InequalityId, rng: random.Random, p: Distribution, q: Distribution
) -> float:
    if inequality is InequalityId.BH_DECOMPOSITION:
        return _bh_decomposition(p, q)
    if inequality is InequalityId.IPM_IDENTITY:
        return _ipm_identity(p, q, [rng.uniform(-1.0, 1.0) for _ in range(len(p))])
    if inequality is InequalityId.HOEFFDING_STEP:
        return _hoeffding_step(p, q, [rng.uniform(-3.0, 3.0) for _ in range(len(p))])
    kl = kl_divergence(p, q)
    if inequality is InequalityId.TFL_LOWER:
        f = WitnessFunction(tuple(rng.uniform(-3.0, 3.0) for _ in range(len(p))))
        return kl - dv_value(p, q, f)
    tv = total_variation(p, q)
    if inequality is InequalityId.HELLINGER_CHAIN:
        return _hellinger_chain(tv, kl, hellinger_affinity(p, q) ** 2)
    if inequality is InequalityId.DPI_QUANTIZED:
        event = EventSubset(tuple(rng.random() < 0.5 for _ in range(len(p))))
        ps, qs = event_mass(p.probs, event), event_mass(q.probs, event)
        return min(kl - binary_kl(ps, qs), tv - binary_tv(ps, qs))
    return _tv_kl_margin(_TV_KL_CURVES[inequality], tv, kl)


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
    check, a random witness in [-3, 3] for the variational one and the
    Hoeffding step, and one in the unit ball for the IPM identity. A trial
    whose margin is not at least -tolerance, NaN included, is a violation;
    an exact identity of ``DERIVATION_INEQUALITIES`` has margin 0.0. The
    worst point records the offending trial index.
    """
    trials, atoms = _integer("trials", trials, 1), _integer("atoms", atoms, 2, 64)
    seed = _integer("seed", seed)
    tolerance = _check_tolerance(tolerance)
    _entry(_MULTI_ATOM, inequality)
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
    below 1. Pair sizes are uniform in [2, 64], always. The reported margin
    is the smallest observed 1 - TV, and -inf for a trial whose bh bound
    reaches 1; a margin that is not positive (TV = 1 included), or NaN, is a
    violation.
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
GRID_INEQUALITIES = tuple(_TV_KL_CURVES)


def run_suite(
    name: str,
    seed: int = 0,
    resolution: int = 500,
    trials: int = 1000,
    atoms: int = 64,
    tolerance: float | None = None,
) -> list[ScanReport]:
    """Run a named verification suite and return its reports in a fixed
    order: "grid" scans the six binary inequalities, "random" runs the three
    multi-atom randomized checks, "kl_finite" the finite-KL consequence,
    "all" these three suites, "derivation" the three derivation steps, and
    a single inequality identifier its own check of its suite, at the same
    seed. Deterministic given the seed. A ``tolerance`` replaces both the
    grid's ``GRID_TOLERANCE`` and the random engine's ``RANDOM_TOLERANCE``
    (``kl_finite`` takes none); it must be finite, resolution >= 2, trials
    >= 1 and atoms in [2, 64], whichever checks the suite runs.
    """
    seed = _integer("seed", seed)
    override = {} if tolerance is None else {"tolerance": _check_tolerance(tolerance)}
    resolution = _integer("resolution", resolution, 2)
    trials, atoms = _integer("trials", trials, 1), _integer("atoms", atoms, 2, 64)
    # (key, suite, check) in report order; falsify check k runs at seed + 101 k.
    plan = [
        (i.value, "grid", partial(scan_bernoulli, i, resolution, **override))
        for i in GRID_INEQUALITIES
    ]
    suites = [(i, "random") for i in RANDOM_INEQUALITIES]
    suites += [(i, "derivation") for i in DERIVATION_INEQUALITIES]
    for k, (i, suite) in enumerate(suites, 1):
        check = partial(falsify, i, trials, atoms, seed + 101 * k, **override)
        plan.append((i.value, suite, check))
    check = partial(kl_finite_implies_tv_lt_one, trials, seed + 909)
    plan.append(("kl_finite", "kl_finite", check))
    reports = [
        run() for key, suite, run in plan
        if name in (suite, key) or name == "all" and suite != "derivation"
    ]
    if not reports:
        raise OutOfRangeError(
            f"suite: {name!r} is not a suite name or inequality identifier"
        )
    return reports
