"""The three benchmark workloads: seeded inputs, one fixed job, output checks.

Each workload builds its inputs from the workload seed in ``setup`` and
hands the library only those inputs. ``run_job`` runs one fixed job and
times every op on its own, between ``Gauge`` readings of the machine's
speed; every job of a run gets the same inputs, so op k of one job
repeats op k of the others. ``run_job`` returns raw outputs and
does no checking, so the traced run can check after the tracer is removed.
``check`` turns the raw outputs into one verdict per op.

An op fails when it raises, exits non-zero or breaks its check. An op that
returned normally and still broke its check is also ``silent``: the program
presented a wrong answer as a right one, which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field


@dataclass
class OpRecord:
    """One timed op: what ran, how long it took and what it returned."""

    kind: str
    start: float
    seconds: float
    items: int
    output: object = None
    error: str | None = None
    #: Reference seconds per measured second, from the gauge readings before
    #: and after the op; see ``Gauge``.
    scale: float | None = None

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


@dataclass
class Verdict:
    failure: str | None = None
    silent: bool = False


@dataclass
class Job:
    ops: list[OpRecord] = field(default_factory=list)
    stdout: str | None = None
    gauge: Gauge | None = None

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def digest(self) -> str | None:
        if self.stdout is None:
            return None
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def _timed(job: Job, kind: str, items: int, fn, *args) -> OpRecord:
    start = time.perf_counter()
    try:
        output, error = fn(*args), None
    except Exception as exc:  # the op boundary: count it and go on
        output, error = None, f"{type(exc).__name__}: {exc}"
    op = OpRecord(kind, start, time.perf_counter() - start, items, output, error)
    job.ops.append(op)
    if job.gauge is not None:
        job.gauge.after(job.ops)
    return op


#: The gauge time, in seconds, that defines a reference second: about what
#: the gauge takes on a 2-vCPU Xeon VM in its fast phases.
GAUGE_REFERENCE_S = 5e-4
#: Least time between two gauge readings within a job, so that the readings
#: cost a few per cent of it.
GAUGE_INTERVAL_S = 0.05
#: Sizes of the probe's three parts, each about a third of its time.
GAUGE_KEYS = 2500
GAUGE_STEPS = 1250
GAUGE_ALLOCS = 1250


class Gauge:
    """Reads the machine's speed between the ops of a job.

    On a shared machine, pure-Python code runs up to twice as slow in
    phases of seconds to minutes while other tenants are busy. A phase that
    outlasts a run moves every time the run measures, whatever estimate it
    takes. So each op's time is scaled by ``GAUGE_REFERENCE_S`` over the time
    of a fixed probe, taking the mean of the scales of the probes run right
    before and right after it (with at most ``GAUGE_INTERVAL_S`` of ops in
    between): the op's time in reference seconds, those of a machine on
    which the probe takes ``GAUGE_REFERENCE_S``.

    The probe does in small what the library's hot paths do: dict lookups in
    a shuffled order, float arithmetic with ``math.log`` and allocation. It
    runs three times with the garbage collector paused and reads the faster
    of the last two runs, so that its time depends on the machine and not on
    what the op before it left in the caches or on the heap. It is the
    benchmark's own code; no change to the library moves it.
    """

    def __init__(self):
        rng = random.Random(0)
        keys = [f"x{i}" for i in range(GAUGE_KEYS)]
        self._table = {k: rng.random() for k in keys}
        rng.shuffle(keys)
        self._keys = keys
        self.readings: list[float] = []
        self.probe()

    def _body(self) -> float:
        table, total = self._table, 0.0
        for key in self._keys:
            total += table[key]
        for i in range(1, GAUGE_STEPS + 1):
            total += i * math.log(i)
        kept = [(i, str(i)) for i in range(GAUGE_ALLOCS)]
        return total + len(kept)

    def probe(self) -> float:
        """Seconds taken by the fixed probe."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._body()
            seconds = math.inf
            for _ in range(2):
                start = time.perf_counter()
                self._body()
                seconds = min(seconds, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        self._scale = GAUGE_REFERENCE_S / seconds
        self.readings.append(seconds)
        return seconds

    def scale(self) -> float:
        """Reference seconds per measured second since the last reading:
        the mean of the scales that reading and a new one give."""
        before = self._scale
        self.probe()
        return (before + self._scale) / 2

    def read(self, ops: list[OpRecord]) -> None:
        """Scale every op at the end of ``ops`` that has no reading yet."""
        scale = self.scale()
        for op in reversed(ops):
            if op.scale is not None:
                break
            op.scale = scale

    def after(self, ops: list[OpRecord]) -> None:
        """Read the gauge once ``GAUGE_INTERVAL_S`` have passed since the
        last reading."""
        if time.perf_counter() - self._last >= GAUGE_INTERVAL_S:
            self.read(ops)


# -- verify workloads ---------------------------------------------------------

#: The CLI defaults, passed explicitly so the job stays fixed.
RESOLUTION = 500
TRIALS = 1000
ATOMS = 64
RANDOM_REPORTS = 3


def _cli(tvkl, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tvkl.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_verify(output, reports: int) -> Verdict:
    """Exit 0, the expected number of reports, zero violations and a finite
    worst margin in each: the inequalities are theorems."""
    code, stdout, stderr = output
    if code != 0:
        first = stderr.strip().splitlines()[:1]
        return Verdict(f"exit {code}" + (f": {first[0]}" if first else ""))
    lines = stdout.splitlines()
    if len(lines) != reports:
        return Verdict(f"{len(lines)} reports, expected {reports}", True)
    for line in lines:
        try:
            rep = json.loads(line)
        except json.JSONDecodeError:
            return Verdict("report is not JSON", True)
        if rep.get("violations") != 0:
            return Verdict(f"{rep.get('inequality')}: violations on exit 0", True)
        margin = rep.get("worst_margin")
        if not isinstance(margin, float) or not math.isfinite(margin):
            return Verdict(f"{rep.get('inequality')}: worst margin {margin!r}", True)
    return Verdict()


class Verify:
    """``tvkl verify all`` at the CLI defaults, in process, as separate CLI
    invocations: one ``verify <inequality>`` per grid inequality, then
    ``verify random`` and ``verify kl_finite`` for each of K seeds.

    The six grid invocations print, in order, exactly the bytes of one
    ``verify grid``. Each takes well under a second, so the gauge readings
    before and after it (see ``Gauge``) catch the machine's speed during it
    better than around a single 2-4 s invocation. Splitting the seeded
    suites per seed lets one crash neither hide the other seeds nor stop
    them.

    Workload seed ``s`` covers the consecutive CLI seeds ``s * K`` to
    ``s * K + K - 1``, so workload seed 0 includes the CLI's default seed 0.
    Every job runs the same invocations, so its stdout must repeat exactly.
    """

    name = "verify"
    seeds_per_job = 3
    cells = (RESOLUTION - 1) ** 2
    suites = (("random", RANDOM_REPORTS, RANDOM_REPORTS * TRIALS),
              ("kl_finite", 1, TRIALS))

    def setup(self, tvkl, seed: int):
        first = seed * self.seeds_per_job
        grid = [ineq.value for ineq in tvkl.verify.GRID_INEQUALITIES]
        return tvkl, grid, list(range(first, first + self.seeds_per_job))

    def warm_up(self, state) -> None:
        tvkl, _, seeds = state
        _cli(tvkl, ["--json", "verify", "grid", "--resolution", "20"])
        for suite, _, _ in self.suites:
            _cli(tvkl, ["--json", "verify", suite, "--seed", str(seeds[0]),
                        "--trials", "20", "--atoms", str(ATOMS)])

    def invocations(self, state):
        """(op kind, reports printed, items, argv) for each op of a job."""
        _, grid, seeds = state
        for ineq in grid:
            yield (f"verify {ineq}", 1, self.cells,
                   ["--json", "verify", ineq, "--resolution", str(RESOLUTION)])
        for seed in seeds:
            for suite, reports, items in self.suites:
                yield (f"verify {suite}", reports, items,
                       ["--json", "verify", suite, "--seed", str(seed),
                        "--trials", str(TRIALS), "--atoms", str(ATOMS)])

    def run_job(self, state, gauge: Gauge | None) -> Job:
        job = Job(gauge=gauge)
        chunks = []
        for kind, _, items, argv in self.invocations(state):
            op = _timed(job, kind, items, _cli, state[0], argv)
            chunks.append(op.output[1] if op.output else "")
        job.stdout = "".join(chunks)
        return job

    def check(self, state, job: Job) -> list[Verdict]:
        expected = [reports for _, reports, _, _ in self.invocations(state)]
        return [Verdict(op.error) if op.error is not None
                else check_verify(op.output, reports)
                for op, reports in zip(job.ops, expected, strict=True)]


# -- large supports -------------------------------------------------------------

LARGE_ATOMS = 100_000
SAME_ORDER_PAIRS = 2
RELABELLED_PAIRS = 1
PRODUCT_BASE_ATOMS = 8
PRODUCT_POWER = 6
WEIGHT_FLOOR = 1e-12
PAIR_CONCENTRATIONS = (1.0, 0.3)
#: Ops per pair: the div set, then the optimal DV witness and the DV value.
PAIR_OPS = 6
#: Ops of the product: two tensor powers, then KL and TV of the products.
PRODUCT_OPS = 4


def _weights(rng: random.Random, n: int, concentration: float) -> list[float]:
    # Normalised powers of uniforms with a floor, so every atom carries mass
    # and the optimal witness exists.
    exponent = 1.0 / concentration
    raw = [(1.0 - rng.random()) ** exponent for _ in range(n)]
    total = math.fsum(raw)
    floored = [max(w / total, WEIGHT_FLOOR) for w in raw]
    total = math.fsum(floored)
    return [w / total for w in floored]


@dataclass
class LargeInputs:
    tvkl: object
    pairs: list  # (p, q) listed in the same label order
    relabelled: list  # (index of same-order twin, p, q in a seeded order)
    bases: tuple  # (p, q) on PRODUCT_BASE_ATOMS atoms


def pair_ops(job: Job, tvkl, mode: str, p, q) -> None:
    """Append the ``PAIR_OPS`` ops of one pair, one library call each."""
    div, var = tvkl.divergence, tvkl.variational
    for name, fn in (("tv", div.total_variation), ("kl", div.kl_divergence),
                     ("affinity", div.hellinger_affinity),
                     ("overlap", div.overlap_identities),
                     ("witness", var.dv_optimal_witness)):
        _timed(job, f"{name} {mode}", len(p), fn, p, q)
    _timed(job, f"dv {mode}", len(p), var.dv_value, p, q, job.ops[-1].output)


def pair_outputs(ops: list[OpRecord]) -> tuple:
    """(tv, kl, affinity, min_sum, max_sum, dv) from one pair's ops."""
    tv, kl, aff, (min_sum, max_sum), _, dv = (op.output for op in ops)
    return tv, kl, aff, min_sum, max_sum, dv


def product_ops(job: Job, tvkl, bases, power: int) -> None:
    """Append the ``PRODUCT_OPS`` ops of the product."""
    dist, div = tvkl.distributions, tvkl.divergence
    atoms = len(bases[0]) ** power
    for base in bases:
        _timed(job, "tensor_power", atoms, dist.tensor_power,
               dist.ProductSpec(base, power))
    pp, qp = job.ops[-2].output, job.ops[-1].output
    _timed(job, "kl product", atoms, div.kl_divergence, pp, qp)
    _timed(job, "tv product", atoms, div.total_variation, pp, qp)


def product_outputs(tvkl, bases, ops: list[OpRecord]) -> tuple:
    """(atoms, product KL, product TV, base KL, base TV); the base values
    are computed here, outside the timed ops."""
    div = tvkl.divergence
    pp, _, kl, tv = (op.output for op in ops)
    return (len(pp), kl, tv, div.kl_divergence(*bases),
            div.total_variation(*bases))


def check_pair(out: tuple, twin: tuple | None = None) -> str | None:
    """TV = 1 - min_sum = max_sum - 1 within 1e-12, the DV value at the
    optimal witness equals KL within 1e-9 relative, and a relabelled pair
    matches its same-order twin bit for bit on TV, KL, affinity and
    overlap."""
    tv, kl, aff, min_sum, max_sum, dv = out
    if not (0.0 <= tv <= 1.0 and 0.0 <= kl < math.inf and 0.0 <= aff <= 1.0 + 1e-12):
        return f"out of range: tv={tv!r} kl={kl!r} affinity={aff!r}"
    if abs(tv - (1.0 - min_sum)) > 1e-12 or abs(tv - (max_sum - 1.0)) > 1e-12:
        return f"overlap identities: tv={tv!r} min={min_sum!r} max={max_sum!r}"
    if not abs(dv - kl) <= 1e-9 * kl:
        return f"dv at optimal witness {dv!r} != kl {kl!r}"
    if twin is not None and out[:5] != twin[:5]:
        return f"relabelled {out[:5]!r} != same-order {twin[:5]!r}"
    return None


def check_product(out: tuple, atoms: int, power: int) -> str | None:
    """KL additivity within 1e-9 relative; product TV between the base TV
    and 1."""
    size, kl, tv, base_kl, base_tv = out
    if size != atoms:
        return f"product has {size} atoms, expected {atoms}"
    if not abs(kl - power * base_kl) <= 1e-9 * power * base_kl:
        return f"product kl {kl!r} != {power} x {base_kl!r}"
    if not (base_tv - 1e-12 <= tv <= 1.0):
        return f"product tv {tv!r} outside [{base_tv!r}, 1]"
    return None


def group_verdicts(ops: list[OpRecord], check) -> list[Verdict]:
    """Verdicts for ops checked together: each op that raised fails with
    its error and takes the rest of its group with it; otherwise every op
    gets the verdict of ``check()``."""
    if any(op.error is not None for op in ops):
        return [Verdict(op.error or "another op of its group raised")
                for op in ops]
    reason = check()
    return [Verdict(reason, reason is not None) for _ in ops]


class LargeSupport:
    """Pairs of ``LARGE_ATOMS`` atoms with explicit labels, two thirds in the
    same label order and one third relabelled, plus a tensor power.

    Every library call is an op of its own. The longest, a tensor power, takes
    about half a second; the shorter an op, the closer the gauge readings
    before and after it come to the machine's speed during it.
    """

    name = "large_support"

    def setup(self, tvkl, seed: int) -> LargeInputs:
        rng = random.Random(seed)
        atoms = LARGE_ATOMS
        new = tvkl.distributions.new_distribution
        labels = [f"x{i}" for i in range(atoms)]
        pairs = []
        for i in range(SAME_ORDER_PAIRS):
            c = PAIR_CONCENTRATIONS[i]
            pairs.append((new(_weights(rng, atoms, c), labels),
                          new(_weights(rng, atoms, c), labels)))
        relabelled = []
        for i in range(RELABELLED_PAIRS):
            p, q = pairs[i]
            order = list(range(atoms))
            rng.shuffle(order)
            q_perm = new([q.probs[j] for j in order], [labels[j] for j in order])
            relabelled.append((i, p, q_perm))
        base_labels = [f"b{i}" for i in range(PRODUCT_BASE_ATOMS)]
        bases = (new(_weights(rng, PRODUCT_BASE_ATOMS, 1.0), base_labels),
                 new(_weights(rng, PRODUCT_BASE_ATOMS, 1.0), base_labels))
        return LargeInputs(tvkl, pairs, relabelled, bases)

    def warm_up(self, state: LargeInputs) -> None:
        job = Job()
        pair_ops(job, state.tvkl, "warm-up", *state.bases)
        product_ops(job, state.tvkl, state.bases, 2)

    def run_job(self, state: LargeInputs, gauge: Gauge | None) -> Job:
        job = Job(gauge=gauge)
        for p, q in state.pairs:
            pair_ops(job, state.tvkl, "same-order", p, q)
        for _, p, q in state.relabelled:
            pair_ops(job, state.tvkl, "relabelled", p, q)
        product_ops(job, state.tvkl, state.bases, PRODUCT_POWER)
        return job

    def check(self, state: LargeInputs, job: Job) -> list[Verdict]:
        groups = [job.ops[k:k + PAIR_OPS]
                  for k in range(0, len(job.ops) - PRODUCT_OPS, PAIR_OPS)]
        n = len(state.pairs)
        verdicts = []
        for k, ops in enumerate(groups):
            if k < n:
                twin_ops = None
            else:
                twin_ops = groups[state.relabelled[k - n][0]]
                if any(op.error is not None for op in twin_ops):
                    verdicts += [Verdict("same-order twin raised")] * len(ops)
                    continue
            verdicts += group_verdicts(ops, lambda: check_pair(
                pair_outputs(ops), twin_ops and pair_outputs(twin_ops)))
        product = job.ops[-PRODUCT_OPS:]
        verdicts += group_verdicts(product, lambda: check_product(
            product_outputs(state.tvkl, state.bases, product),
            PRODUCT_BASE_ATOMS**PRODUCT_POWER, PRODUCT_POWER))
        return verdicts


# -- bound sweep ------------------------------------------------------------------

SWEEP_POINTS = 20_000
KL_RANGE = (1e-12, 50.0)
FIGURE_POINTS = 501


def _open_unit(rng: random.Random, top: float) -> float:
    # Uniform in the open interval (0, top).
    while True:
        x = rng.random() * top
        if 0.0 < x < top:
            return x


def sweep_op(tvkl, kl: float, tv: float, epsilon: float, delta: float) -> tuple:
    b, s = tvkl.bounds, tvkl.samples
    forward = b.compare_bounds(kl)
    inverse = [b.kl_lower(bound, tv) for bound in b.INVERSE_ORDER]
    report = s.report(s.SampleComplexityQuery(epsilon, delta))
    return forward, inverse, report


def check_sweep(tvkl, point: tuple, output: tuple) -> str | None:
    """The vajda inversion lies within ``VAJDA_BISECTION_TOL`` of its root
    and at most that far above the bh forward bound; the vajda inverse is at
    least the bh inverse; the sample-complexity routes are finite and >= 0."""
    kl, tv, _, _ = point
    forward, inverse, report = output
    b = tvkl.bounds
    tol = b.VAJDA_BISECTION_TOL
    fwd = {row.bound.value: row.output for row in forward}
    t = fwd["vajda"]
    lo, hi = max(t - tol, 0.0), min(t + tol, 1.0)
    if not (b.kl_lower_vajda(lo) <= kl <= b.kl_lower_vajda(hi)):
        return f"vajda inversion {t!r} not within {tol} of the root for kl={kl!r}"
    if not t <= fwd["bh"] + tol:
        return f"vajda inversion {t!r} above bh {fwd['bh']!r} for kl={kl!r}"
    inv = {row.bound.value: row.output for row in inverse}
    if not inv["vajda"] >= inv["bh"]:
        return f"vajda inverse {inv['vajda']!r} < bh inverse {inv['bh']!r} at tv={tv!r}"
    routes = (report.n_pinsker, report.n_bh, report.n_tsybakov, report.n_bh_simplified)
    if not all(0.0 <= n < math.inf for n in routes):
        return f"sample-complexity routes {routes!r}"
    return None


def check_figure(rows: list, points: int, columns: int) -> str | None:
    if len(rows) != points or any(len(row) != columns for row in rows):
        return f"figure shape {len(rows)} rows, expected {points} x {columns}"
    return None


class BoundSweep:
    """Seeded kl, tv and (epsilon, delta) points through the bound family and
    the sample-complexity report, then the four figures."""

    name = "bound_sweep"

    def setup(self, tvkl, seed: int):
        rng = random.Random(seed)
        lo, hi = math.log(KL_RANGE[0]), math.log(KL_RANGE[1])
        inputs = [
            (math.exp(rng.uniform(lo, hi)), rng.random(),
             _open_unit(rng, 1.0 / 3.0), _open_unit(rng, 0.5))
            for _ in range(SWEEP_POINTS)
        ]
        return tvkl, inputs

    def warm_up(self, state) -> None:
        tvkl, inputs = state
        for point in inputs[:200]:
            sweep_op(tvkl, *point)

    def run_job(self, state, gauge: Gauge | None) -> Job:
        tvkl, inputs = state
        job = Job(gauge=gauge)
        for point in inputs:
            _timed(job, "bound point", 1, sweep_op, tvkl, *point)
        for figure in tvkl.figures.FigureId:
            _timed(job, "figure", 0, tvkl.figures.figure_rows, figure, FIGURE_POINTS)
        return job

    def check(self, state, job: Job) -> list[Verdict]:
        tvkl, inputs = state
        verdicts = []
        figures = list(tvkl.figures.FigureId)
        for k, op in enumerate(job.ops):
            if op.error is not None:
                verdicts.append(Verdict(op.error))
                continue
            if k < len(inputs):
                reason = check_sweep(tvkl, inputs[k], op.output)
            else:
                header = tvkl.figures.figure_header(figures[k - len(inputs)])
                reason = check_figure(op.output, FIGURE_POINTS, len(header))
            verdicts.append(Verdict(reason, reason is not None))
        return verdicts


WORKLOADS = {w.name: w for w in (Verify(), LargeSupport(), BoundSweep())}
