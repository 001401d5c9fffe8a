import math

import pytest

from tvkl import (
    BoundId,
    InequalityId,
    OutOfRangeError,
    ScanReport,
    UnsupportedInequalityError,
    bernoulli_margin,
    binary_kl,
    falsify,
    kl_finite_implies_tv_lt_one,
    random_distribution,
    run_suite,
    scan_bernoulli,
)
from tvkl import verify
from tvkl.verify import (DERIVATION_INEQUALITIES, GRID_INEQUALITIES, GRID_TOLERANCE,
                         RANDOM_INEQUALITIES)

NOT_ON_THE_GRID = tuple(i for i in InequalityId if i not in GRID_INEQUALITIES)


def reference_scan(inequality, r, tolerance=GRID_TOLERANCE):
    # The scan as a plain per-cell loop over the validated public functions.
    worst, worst_point = math.inf, (math.nan, math.nan)
    violations = skipped = 0
    for i in range(1, r):
        p = i / r
        for j in range(1, r):
            q = j / r
            if math.isinf(binary_kl(p, q)):
                skipped += 1
                continue
            m = bernoulli_margin(inequality, p, q)
            if m < worst:
                worst, worst_point = m, (p, q)
            if not m >= -tolerance:
                violations += 1
    grid = (
        f"bernoulli open grid {r}x{r}, tolerance={tolerance!r}, "
        f"skipped_infinite_kl={skipped}"
    )
    return ScanReport(inequality, grid, violations, worst, worst_point)


def record_margins(monkeypatch):
    """Make verify's tally keep every margin of the next check, in order."""
    margins, tally = [], verify._tally

    def keep(values, floor):
        margins.extend(values)
        return tally(margins, floor)

    monkeypatch.setattr(verify, "_tally", keep)
    return margins


class TestRandomDistribution:
    def test_deterministic(self):
        assert random_distribution(42, 8, 1.0) == random_distribution(42, 8, 1.0)

    def test_different_seeds_differ(self):
        assert random_distribution(1, 8, 1.0) != random_distribution(2, 8, 1.0)

    def test_sums_to_one(self):
        d = random_distribution(42, 8, 1.0)
        assert abs(math.fsum(d.probs) - 1.0) <= 1e-12

    def test_single_atom_is_point_mass(self):
        assert random_distribution(5, 1, 1.0).probs == (1.0,)

    def test_full_support_even_when_spiky(self):
        d = random_distribution(7, 64, 0.01)
        assert min(d.probs) >= 9e-13

    def test_concentration_controls_spikiness(self):
        spiky = random_distribution(11, 32, 0.01)
        flat = random_distribution(11, 32, 50.0)
        assert max(spiky.probs) > 0.5
        assert max(flat.probs) < 0.05

    @pytest.mark.parametrize("atoms, conc", [(0, 1.0), (3, 0.0), (3, -1.0)])
    def test_validation(self, atoms, conc):
        with pytest.raises(OutOfRangeError):
            random_distribution(1, atoms, conc)

    def test_every_weight_underflowing_is_out_of_range(self):
        # each (1 - u) ** 1e4 rounds to 0.0, so the raw total is 0.0
        with pytest.raises(OutOfRangeError, match="underflows"):
            random_distribution(0, 5, 1e-4)


class TestBernoulliMargins:
    def test_tight_on_the_diagonal(self):
        for ineq in GRID_INEQUALITIES:
            margin = bernoulli_margin(ineq, 0.3, 0.3)
            if ineq is InequalityId.TSYBAKOV:
                assert margin == pytest.approx(0.5, abs=1e-15)
            else:
                assert abs(margin) <= 1e-15

    def test_pinsker_binary_is_the_squared_form(self):
        p, q = 0.3, 0.7
        from tvkl import binary_kl

        assert bernoulli_margin(InequalityId.PINSKER_BINARY, p, q) == (
            pytest.approx(binary_kl(p, q) - 2 * (p - q) ** 2, abs=1e-15)
        )

    def test_unsupported(self):
        with pytest.raises(UnsupportedInequalityError):
            bernoulli_margin(InequalityId.TFL_LOWER, 0.3, 0.4)

    def test_numeric_string_computes_as_its_float(self):
        assert bernoulli_margin(InequalityId.BH, "0.3", 0.5) == bernoulli_margin(
            InequalityId.BH, 0.3, 0.5
        )

    @pytest.mark.parametrize("ineq", GRID_INEQUALITIES)
    def test_near_equal_pair_has_a_margin(self, ineq):
        # the raw KL sum of this pair rounds below zero
        margin = bernoulli_margin(ineq, 0.3131716196965183, 0.3131716196965186)
        assert margin >= -GRID_TOLERANCE


class TestScanBernoulli:
    @pytest.mark.parametrize("ineq", GRID_INEQUALITIES)
    def test_no_violations_at_modest_resolution(self, ineq):
        report = scan_bernoulli(ineq, 120, 1e-12)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12
        assert "120x120" in report.grid

    @pytest.mark.parametrize("ineq", NOT_ON_THE_GRID)
    def test_only_the_grid_inequalities_have_a_bernoulli_margin(self, ineq):
        # the hellinger chain and the quantized DPI run through falsify alone
        with pytest.raises(UnsupportedInequalityError):
            scan_bernoulli(ineq, 10)
        with pytest.raises(UnsupportedInequalityError):
            bernoulli_margin(ineq, 0.3, 0.4)

    def test_worst_point_is_a_grid_cell(self):
        report = scan_bernoulli(InequalityId.BH, 50, 1e-12)
        p, q = report.worst_point
        assert p in [i / 50 for i in range(1, 50)]
        assert q in [i / 50 for i in range(1, 50)]

    def test_deterministic_reports(self):
        a = scan_bernoulli(InequalityId.VAJDA, 80, 1e-12)
        b = scan_bernoulli(InequalityId.VAJDA, 80, 1e-12)
        assert a == b

    @pytest.mark.parametrize("r", [2, 3, 7, 50, 101])
    @pytest.mark.parametrize("ineq", GRID_INEQUALITIES)
    def test_matches_the_per_cell_reference(self, ineq, r):
        assert scan_bernoulli(ineq, r) == reference_scan(ineq, r)

    def test_row_cached_kl_is_binary_kl_bit_for_bit(self, monkeypatch):
        kls = []

        def record(kl):
            kls.append(kl)
            return 0.0

        monkeypatch.setitem(verify._TV_KL_CURVES, InequalityId.BH, ("forward", record))
        margins = record_margins(monkeypatch)
        scan_bernoulli(InequalityId.BH, 101)
        # the scan visits the cells in row-major order, and a cell's margin
        # is 0.0 - tv, which is -tv exactly
        axis = [i / 101 for i in range(1, 101)]
        grid = [(p, q) for p in axis for q in axis]
        assert len(kls) == len(margins) == len(grid)
        for (p, q), kl, margin in zip(grid, kls, margins):
            assert -margin == abs(p - q)
            assert kl.hex() == binary_kl(p, q).hex()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_margins_are_violations(self, monkeypatch, bad):
        # NaN margins either way; -inf from a forward curve, kl - inf from an
        # inverse one
        for curve in (("forward", lambda kl: bad), ("inverse", lambda t, u: -bad)):
            monkeypatch.setitem(verify._TV_KL_CURVES, InequalityId.BH, curve)
            report = scan_bernoulli(InequalityId.BH, 5)
            assert report.violations == 16
            assert "skipped_infinite_kl=0" in report.grid

    @pytest.mark.parametrize("r, distinct", [(101, 315), (500, 1668)])
    def test_inverse_curve_runs_once_per_distinct_tv_per_scan(self, monkeypatch, r, distinct):
        calls = []
        _, curve = verify._TV_KL_CURVES[InequalityId.VAJDA]

        def counted(t, u):
            calls.append((t, u))
            return curve(t, u)

        monkeypatch.setitem(verify._TV_KL_CURVES, InequalityId.VAJDA, ("inverse", counted))
        report = scan_bernoulli(InequalityId.VAJDA, r)
        axis = [i / r for i in range(1, r)]
        tvs = {abs(p - q) for p in axis for q in axis}
        assert len(tvs) == distinct
        assert sorted(calls) == sorted((t, 1.0 - t) for t in tvs)
        # nothing is kept from one scan to the next
        assert scan_bernoulli(InequalityId.VAJDA, r) == report
        assert len(calls) == 2 * distinct
        monkeypatch.undo()
        assert scan_bernoulli(InequalityId.VAJDA, r) == report

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(OutOfRangeError):
            scan_bernoulli(InequalityId.BH, 5, tolerance)

    def test_tfl_rejected(self):
        with pytest.raises(UnsupportedInequalityError):
            scan_bernoulli(InequalityId.TFL_LOWER, 10)

    def test_resolution_floor(self):
        with pytest.raises(OutOfRangeError):
            scan_bernoulli(InequalityId.BH, 1)

    def test_refinement_only_tightens_the_worst_margin(self):
        # the coarse grid is a subset of the doubled grid, so the worst
        # margin can only move down, and no further than the local slope
        # around the coarse minimiser allows
        for ineq in (InequalityId.PINSKER, InequalityId.VAJDA):
            coarse = scan_bernoulli(ineq, 60, 1e-12)
            fine = scan_bernoulli(ineq, 120, 1e-12)
            assert fine.worst_margin <= coarse.worst_margin + 1e-15
            p, q = coarse.worst_point
            step = 1.0 / 60.0
            neighbours = [
                (p + dp, q + dq)
                for dp in (-step, 0.0, step)
                for dq in (-step, 0.0, step)
                if (dp or dq) and 0 < p + dp < 1 and 0 < q + dq < 1
            ]
            slope = max(
                abs(bernoulli_margin(ineq, np_, nq) - coarse.worst_margin)
                / math.hypot(np_ - p, nq - q)
                for np_, nq in neighbours
            )
            drop = coarse.worst_margin - fine.worst_margin
            assert drop <= 4.0 * slope * step + 1e-12


class TestFalsify:
    @pytest.mark.parametrize("ineq", RANDOM_INEQUALITIES)
    def test_no_violations(self, ineq):
        report = falsify(ineq, 200, 16, seed=7, tolerance=1e-10)
        assert report.violations == 0
        assert report.worst_margin >= -1e-10

    def test_supports_the_forward_bounds_as_well(self):
        for ineq in (
            InequalityId.PINSKER,
            InequalityId.BH,
            InequalityId.TSYBAKOV,
            InequalityId.WEAK_BH,
            InequalityId.VAJDA,
        ):
            assert falsify(ineq, 100, 16, seed=3).violations == 0

    def test_deterministic(self):
        a = falsify(InequalityId.TFL_LOWER, 50, 8, seed=5)
        b = falsify(InequalityId.TFL_LOWER, 50, 8, seed=5)
        assert a == b

    def test_pinsker_binary_rejected(self):
        with pytest.raises(UnsupportedInequalityError):
            falsify(InequalityId.PINSKER_BINARY, 10, 8, seed=1)

    def test_nan_margins_are_violations(self, monkeypatch):
        monkeypatch.setattr(verify, "_random_margin", lambda *args: math.nan)
        assert falsify(InequalityId.BH, 10, 8, seed=1).violations == 10

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(OutOfRangeError):
            falsify(InequalityId.BH, 10, 8, seed=1, tolerance=tolerance)

    @pytest.mark.parametrize("trials, atoms", [(0, 8), (10, 1), (10, 65)])
    def test_validation(self, trials, atoms):
        with pytest.raises(OutOfRangeError):
            falsify(InequalityId.BH, trials, atoms, seed=1)


class TestKlFiniteImpliesTvBelowOne:
    def test_no_violations_and_positive_margin(self):
        report = kl_finite_implies_tv_lt_one(300, seed=3)
        assert report.violations == 0
        assert report.worst_margin > 0.0

    def test_tv_of_exactly_one_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(verify, "total_variation", lambda p, q: 1.0)
        report = kl_finite_implies_tv_lt_one(5, seed=3)
        assert report.violations == 5
        assert report.worst_margin == 0.0

    def test_bh_bound_reaching_one_is_a_violation(self, monkeypatch):
        monkeypatch.setitem(verify._FORWARD, BoundId.BH, lambda kl: 1.0)
        report = kl_finite_implies_tv_lt_one(5, seed=3)
        assert report.violations == 5
        assert report.worst_point == (0,)

    def test_deterministic(self):
        a = kl_finite_implies_tv_lt_one(50, seed=9)
        b = kl_finite_implies_tv_lt_one(50, seed=9)
        assert a == b


class TestSuites:
    def test_all_covers_every_inequality_plus_the_finite_kl_check(self):
        # every inequality but the derivation steps, which run on their own
        reports = run_suite("all", seed=0, resolution=40, trials=20, atoms=8)
        assert len(reports) == 10
        scanned = [r.inequality for r in reports]
        for ineq in InequalityId:
            assert (ineq in scanned) == (ineq not in DERIVATION_INEQUALITIES)
        assert all(r.violations == 0 for r in reports)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_derivation_suite_runs_the_three_steps_clean(self, seed):
        reports = run_suite("derivation", seed=seed)
        assert [r.inequality for r in reports] == list(DERIVATION_INEQUALITIES)
        assert all(r.violations == 0 for r in reports)
        for k, report in enumerate(reports, 4):
            assert report == falsify(report.inequality, 1000, 64, seed + 101 * k)
            assert report.worst_margin >= -1e-15
        # the two identities are exact up to rounding, and the ipm one to the bit
        assert reports[0].worst_margin <= 0.0 and reports[1].worst_margin == 0.0

    def test_single_derivation_step_runs_at_its_suite_seed(self):
        suite = run_suite("derivation", seed=3, trials=40, atoms=8)
        for report in suite:
            assert run_suite(report.inequality.value, seed=3, trials=40, atoms=8) == [report]

    def test_individual_inequality_names(self):
        (report,) = run_suite("vajda", resolution=40)
        assert report.inequality is InequalityId.VAJDA
        (report,) = run_suite("tfl_lower", trials=20, atoms=8)
        assert report.inequality is InequalityId.TFL_LOWER

    def test_unknown_suite(self):
        with pytest.raises(OutOfRangeError):
            run_suite("nonsense")

    @pytest.mark.parametrize(
        "kwargs",
        [{"tolerance": math.nan}, {"tolerance": math.inf},
         {"resolution": 1}, {"trials": 0}, {"atoms": 1}, {"atoms": 65}],
    )
    def test_non_finite_tolerance_rejected_by_every_suite(self, kwargs):
        # Each argument is checked whichever checks the suite runs: the grid
        # reads no trials or atoms, kl_finite no resolution or atoms.
        for suite in ("all", "grid", "random", "kl_finite", "derivation", "bh", "tfl_lower"):
            with pytest.raises(OutOfRangeError):
                run_suite(suite, **{"resolution": 3, "trials": 2, "atoms": 2, **kwargs})

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: [scan_bernoulli(InequalityId.BH, 10, t)],
            lambda t: [falsify(InequalityId.BH, 10, 8, 1, t)],
            lambda t: run_suite(
                "all", resolution=10, trials=10, atoms=8, tolerance=t
            ),
        ],
        ids=["scan_bernoulli", "falsify", "run_suite"],
    )
    def test_numeric_string_tolerance_computes_as_its_float(self, call):
        assert call("0.1") == call(0.1)

    @pytest.mark.parametrize("tolerance", [None, -1.0])
    def test_one_tolerance_reaches_both_engines(self, tolerance):
        # None keeps each engine's default; a value replaces both. kl_finite
        # takes no tolerance. Random check k runs at seed 101 k.
        given = {} if tolerance is None else {"tolerance": tolerance}
        reports = run_suite("all", resolution=10, trials=10, atoms=8, tolerance=tolerance)
        assert reports[:6] == [scan_bernoulli(i, 10, **given) for i in GRID_INEQUALITIES]
        assert reports[6:9] == [falsify(i, 10, 8, 101 * k, **given)
                                for k, i in enumerate(RANDOM_INEQUALITIES, 1)]
        assert reports[9] == kl_finite_implies_tv_lt_one(10, 909)

    def test_deterministic_given_seed(self):
        a = run_suite("random", seed=4, trials=30, atoms=8)
        b = run_suite("random", seed=4, trials=30, atoms=8)
        assert a == b

    def test_identical_runs_return_equal_reports(self):
        # A report is a plain value: nothing in it depends on when it ran.
        args = dict(seed=42, resolution=40, trials=50, atoms=8)
        assert run_suite("all", **args) == run_suite("all", **args)
