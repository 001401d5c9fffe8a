import copy
import math
import pickle

import pytest

from tvkl import (
    BoundEvaluation,
    BoundId,
    OutOfRangeError,
    WEAK_BH_FACTOR,
    bernoulli,
    compare_bounds,
    forward_value,
    inverse_value,
    kl_divergence,
    kl_lower,
    kl_lower_bh,
    kl_lower_pinsker,
    kl_lower_tsybakov,
    kl_lower_vajda,
    total_variation,
    tv_upper_best,
    tv_upper_bh,
    tv_upper_from_vajda,
    tv_upper_pinsker,
    tv_upper_tsybakov,
    tv_upper_weak_bh,
)
from tvkl import bounds
import oracle
from conftest import seeded_pairs
from test_values import ValueContract

SQRT2 = math.sqrt(2.0)


class TestForwardBounds:
    @pytest.mark.parametrize(
        "kl, expected",
        [(0.0, 0.0), (2.0, 1.0), (0.02, 0.1), (math.inf, math.inf)],
    )
    def test_pinsker_values(self, kl, expected):
        assert tv_upper_pinsker(kl).output == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "kl, expected",
        [
            (0.0, 0.0),
            (math.log(2.0), 0.7071067811865476),
            (math.inf, 1.0),
            (3.0, 0.9747886599833505),
        ],
    )
    def test_bh_values(self, kl, expected):
        assert tv_upper_bh(kl).output == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "kl, expected", [(0.0, 0.5), (math.log(2.0), 0.75), (math.inf, 1.0)]
    )
    def test_tsybakov_values(self, kl, expected):
        assert tv_upper_tsybakov(kl).output == pytest.approx(expected, abs=1e-15)

    def test_weak_bh_values(self):
        assert tv_upper_weak_bh(0.0).output == 0.0
        assert tv_upper_weak_bh(2.0).output == pytest.approx(1.0, abs=1e-15)
        assert tv_upper_weak_bh(1.0).output == pytest.approx(
            0.8550196364002437, abs=1e-15
        )
        assert WEAK_BH_FACTOR == pytest.approx(1.075, abs=1e-3)

    @pytest.mark.parametrize("kl", [5e-324, 5 * 2.0**-1074, 2.0**-1030, 1.3 * 2.0**-1022])
    def test_subnormal_kl_loses_no_bits(self, kl):
        # kl / 2 and kl / (1 - e^-2) are subnormal here; the bounds are still
        # the correctly rounded roots, and the best bound is positive
        pinsker = float(oracle.pinsker_forward(kl))
        assert tv_upper_pinsker(kl).output == pinsker
        assert oracle.ulps(tv_upper_weak_bh(kl).output, oracle.weak_bh_forward(kl)) <= 1
        best = tv_upper_best(kl)
        assert best.bound is BoundId.PINSKER and best.output == pinsker

    def test_negative_kl_rejected(self):
        for fn in (tv_upper_pinsker, tv_upper_bh, tv_upper_tsybakov,
                   tv_upper_weak_bh, tv_upper_best):
            with pytest.raises(OutOfRangeError):
                fn(-0.1)
            with pytest.raises(OutOfRangeError):
                fn(math.nan)


class TestVacuity:
    def test_pinsker_vacuous_from_two(self):
        assert not tv_upper_pinsker(1.999999).vacuous
        assert tv_upper_pinsker(2.0).vacuous
        assert tv_upper_pinsker(math.inf).vacuous

    def test_weak_bh_vacuous_iff_kl_at_least_two(self):
        assert not tv_upper_weak_bh(1.999999999).vacuous
        assert tv_upper_weak_bh(2.0).vacuous
        assert tv_upper_weak_bh(5.0).vacuous

    def test_bh_never_vacuous(self):
        for kl in (0.0, 2.0, 5.0, 100.0, 700.0, math.inf):
            ev = tv_upper_bh(kl)
            assert not ev.vacuous
            if not math.isinf(kl):
                assert ev.output < 1.0

    def test_tsybakov_below_one_for_finite_kl(self):
        for kl in (0.0, 2.0, 40.0, 700.0):
            assert tv_upper_tsybakov(kl).output < 1.0


class TestBestBound:
    def test_pinsker_wins_for_small_kl(self):
        best = tv_upper_best(0.02)
        assert best.bound is BoundId.PINSKER
        assert best.output == pytest.approx(0.1, abs=1e-15)
        assert forward_value(BoundId.BH, 0.02) == pytest.approx(
            0.14071718691490637, abs=1e-15
        )

    def test_bh_wins_for_large_kl(self):
        best = tv_upper_best(3.0)
        assert best.bound is BoundId.BH
        assert best.output == pytest.approx(0.9747886599833505, abs=1e-15)

    def test_zero_ties_break_to_bh(self):
        best = tv_upper_best(0.0)
        assert best.bound is BoundId.BH
        assert best.output == 0.0

    def test_matches_its_compare_bounds_row(self):
        # one vacuity rule: at kl = inf bh wins with output 1.0, unflagged
        grid = [0.0] + [10.0 ** (k / 4) for k in range(-48, 12)] + [math.inf]
        for kl in grid:
            best = tv_upper_best(kl)
            rows = {row.bound: row for row in compare_bounds(kl)}
            assert best == rows[best.bound]

    def test_never_exceeds_trivial(self):
        for i in range(1001):
            assert tv_upper_best(i / 100.0).output <= 1.0


class TestInverseBounds:
    def test_pinsker(self):
        assert kl_lower_pinsker(0.5) == 0.5
        assert kl_lower_pinsker(1.0) == 2.0

    def test_bh(self):
        assert kl_lower_bh(0.6) == pytest.approx(0.4462871026284194, abs=1e-15)
        assert kl_lower_bh(1.0) == math.inf

    def test_tsybakov(self):
        assert kl_lower_tsybakov(0.5) == 0.0
        assert kl_lower_tsybakov(0.2) == 0.0
        assert kl_lower_tsybakov(0.75) == pytest.approx(math.log(2.0), abs=1e-15)
        assert kl_lower_tsybakov(1.0) == math.inf

    def test_vajda(self):
        assert kl_lower_vajda(0.0) == 0.0
        assert kl_lower_vajda(0.5) == pytest.approx(
            math.log(3.0) - 2.0 / 3.0, abs=1e-15
        )
        assert kl_lower_vajda(0.9) == pytest.approx(
            math.log(19.0) - 1.8 / 1.9, abs=1e-15
        )
        assert kl_lower_vajda(0.6) == pytest.approx(0.6362943611198907, abs=1e-15)
        assert kl_lower_vajda(1.0) == math.inf

    def test_out_of_range(self):
        for fn in (kl_lower_pinsker, kl_lower_bh, kl_lower_tsybakov, kl_lower_vajda):
            with pytest.raises(OutOfRangeError):
                fn(-0.01)
            with pytest.raises(OutOfRangeError):
                fn(1.01)

    def test_vajda_dominates_bh_inverse(self):
        for i in range(1000):
            t = i / 1000.0
            assert kl_lower_vajda(t) >= kl_lower_bh(t) - 1e-12

    def test_vajda_small_t_matches_pinsker_to_third_order(self):
        # vajda(t) = 2 t^2 - (4/3) t^3 + O(t^4): no sqrt(2) loss at 0
        t = 1e-4
        while t <= 0.1:
            assert abs(kl_lower_vajda(t) - 2.0 * t * t) <= 2.0 * t**3
            t *= 1.9

    def test_vajda_strictly_increasing(self):
        values = [kl_lower_vajda(i / 2000.0) for i in range(2000)]
        assert all(b > a for a, b in zip(values, values[1:]))


def oracle_tvs():
    """Log-spaced from 5e-324 to 1/2, then 1/2 +- 2^-k and 1 - 2^-k."""
    lo, hi = math.log(5e-324), math.log(0.5)
    tvs = {0.0, 5e-324, 0.5, 1.0}
    tvs.update(math.exp(lo + (hi - lo) * i / 300) for i in range(1, 300))
    tvs.update(0.5 + s * 2.0**-k for k in range(2, 55) for s in (-1.0, 1.0))
    tvs.update(1.0 - 2.0**-k for k in range(2, 54))
    return sorted(tvs)


class TestInverseOracle:
    @pytest.mark.parametrize(
        "index, bound", enumerate([kl_lower_pinsker, kl_lower_bh, kl_lower_tsybakov])
    )
    def test_within_2_ulps_and_never_negative_zero(self, index, bound):
        exact = (oracle.pinsker_inverse, oracle.bh_inverse, oracle.tsybakov_inverse)[index]
        for t in oracle_tvs():
            value = bound(t)
            assert math.copysign(1.0, value) == 1.0, (t, value)
            assert oracle.ulps(value, exact(t, 1.0 - t)) <= 2, (t, value)

    def test_pinned_points(self):
        assert kl_lower_bh(1e-12) == 1e-24
        assert repr(kl_lower_bh(0.0)) == "0.0"
        t = 0.5 + 2.0**-28
        assert oracle.ulps(kl_lower_tsybakov(t), oracle.tsybakov_inverse(t, 1.0 - t)) <= 1


class TestVajdaInversion:
    def test_zero(self):
        assert tv_upper_from_vajda(0.0) == 0.0

    def test_infinite(self):
        assert tv_upper_from_vajda(math.inf) == 1.0

    def test_round_trip_at_half(self):
        assert tv_upper_from_vajda(0.43194562200144315) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_round_trips_both_ways(self):
        # errors in k scale by dk/dt ~ 1/(1 - t), which grows like e^k
        for i in range(1, 100):
            t = i / 100.0
            assert tv_upper_from_vajda(kl_lower_vajda(t)) == pytest.approx(
                t, abs=1e-9
            )
        for k in (1e-6, 0.01, 0.5, 2.0, 5.0):
            assert kl_lower_vajda(tv_upper_from_vajda(k)) == pytest.approx(
                k, rel=1e-6, abs=1e-9
            )
        assert kl_lower_vajda(tv_upper_from_vajda(20.0)) == pytest.approx(
            20.0, abs=1e-3
        )

    @pytest.mark.parametrize("kl", [36.5, 37.0, 100.0, 700.0])
    def test_one_and_vacuous_above_the_last_double(self, kl):
        # vajda at the largest double below 1 is about 36.43
        assert kl_lower_vajda(math.nextafter(1.0, 0.0)) < kl
        assert tv_upper_from_vajda(kl) == 1.0
        (row,) = [row for row in compare_bounds(kl) if row.bound is BoundId.VAJDA]
        assert row.output == 1.0 and row.vacuous

    def test_never_exceeds_bh_forward(self):
        for i in range(0, 300):
            kl = i / 10.0
            assert tv_upper_from_vajda(kl) <= forward_value(BoundId.BH, kl)


class TestVajdaOracle:
    def test_inverse_close_and_never_below_bh(self):
        # Below 2^-9 the series is within 2 ulps. Above it the log form
        # subtracts terms of size t, so its error is a few ulps of the value
        # plus a few of t.
        tvs = oracle_tvs() + [2.0**-9 + s * 2.0**-k for k in range(10, 62) for s in (-1, 1)]
        for t in tvs:
            value, exact = kl_lower_vajda(t), oracle.vajda_inverse(t, 1.0 - t)
            assert math.copysign(1.0, value) == 1.0, (t, value)
            assert value >= kl_lower_bh(t), t
            slack = 2 if t < 2.0**-9 else 4 * (1 + math.ulp(t) / math.ulp(float(exact)))
            assert oracle.ulps(value, exact) <= slack, (t, value, exact)

    def test_pinned_points(self):
        assert kl_lower_vajda(1e-12) == 1.9999999999986664e-24
        assert kl_lower_vajda(1e-8) == 1.9999999866666673e-16

    def test_inversion_bounds_the_root_in_a_few_steps(self, monkeypatch):
        evaluations = []
        curve = bounds._vajda_inverse

        def counted(t, u):
            evaluations[-1] += 1
            return curve(t, u)

        monkeypatch.setattr(bounds, "_vajda_inverse", counted)
        lo, hi = math.log(5e-324), math.log(700.0)
        kls = [math.exp(lo + (hi - lo) * i / 400) for i in range(401)]
        kls += [36.3 + 0.3 * i / 60 for i in range(61)] + [math.inf]
        tol = bounds.VAJDA_BISECTION_TOL
        for kl in kls:
            evaluations.append(0)
            t, bh = tv_upper_from_vajda(kl), forward_value(BoundId.BH, kl)
            assert kl_lower_vajda(t) >= kl, kl
            assert t <= bh or (t == 1.0 and kl_lower_vajda(bh) < kl), kl
            lo_t, hi_t = max(t - tol, 0.0), min(t + tol, 1.0)
            assert kl_lower_vajda(lo_t) <= kl <= kl_lower_vajda(hi_t), kl
        assert sum(evaluations) / len(kls) <= 10
        assert max(evaluations) <= 12

    def test_below_the_kl_of_a_near_equal_pair(self):
        # the log form gave 1.99614e-23 here, above the pair's KL
        p, q = bernoulli(0.5002786495666032), bernoulli(0.5002786495697623)
        assert kl_lower_vajda(total_variation(p, q)) <= oracle.kl_divergence(p.probs, q.probs)


class TestCompareBounds:
    def test_at_five(self):
        rows = {ev.bound: ev for ev in compare_bounds(5.0)}
        assert rows[BoundId.PINSKER].output == pytest.approx(1.5811388300841898)
        assert rows[BoundId.PINSKER].vacuous
        assert rows[BoundId.BH].output == pytest.approx(0.9966253323094464)
        assert not rows[BoundId.BH].vacuous
        assert rows[BoundId.TSYBAKOV].output == pytest.approx(0.9966310265004572)
        assert rows[BoundId.WEAK_BH].output == pytest.approx(1.0717859339295843)
        assert rows[BoundId.WEAK_BH].vacuous
        assert rows[BoundId.TRIVIAL].output == 1.0

    def test_at_zero(self):
        rows = {ev.bound: ev.output for ev in compare_bounds(0.0)}
        assert rows[BoundId.PINSKER] == 0.0
        assert rows[BoundId.BH] == 0.0
        assert rows[BoundId.TSYBAKOV] == 0.5
        assert rows[BoundId.WEAK_BH] == 0.0
        assert rows[BoundId.VAJDA] == 0.0
        assert rows[BoundId.TRIVIAL] == 1.0

    def test_at_two_hits_both_vacuity_thresholds(self):
        rows = {ev.bound: ev for ev in compare_bounds(2.0)}
        assert rows[BoundId.PINSKER].output == pytest.approx(1.0, abs=1e-15)
        assert rows[BoundId.WEAK_BH].output == pytest.approx(1.0, abs=1e-15)
        assert rows[BoundId.PINSKER].vacuous
        assert rows[BoundId.WEAK_BH].vacuous

    def test_includes_all_six(self):
        assert [ev.bound for ev in compare_bounds(1.0)] == list(BoundId)


class TestRoundTrips:
    # the inverse-then-forward direction is exact across the whole t range
    # used; forward-then-inverse is information-limited by the double t near
    # 1, so the k grid stops where one ulp of t still resolves 1e-10 of k
    def test_forward_of_inverse_recovers_t(self):
        for i in range(0, 1001):
            t = min(i / 1000.0, 1.0 - 1e-6)
            assert forward_value(BoundId.PINSKER, kl_lower_pinsker(t)) == (
                pytest.approx(t, abs=1e-10)
            )
            assert forward_value(BoundId.BH, kl_lower_bh(t)) == pytest.approx(
                t, abs=1e-10
            )
            if t >= 0.5:
                assert forward_value(
                    BoundId.TSYBAKOV, kl_lower_tsybakov(t)
                ) == pytest.approx(t, abs=1e-10)

    def test_inverse_of_forward_recovers_k(self):
        # pinsker's inverse only accepts t <= 1, so its composable k range
        # ends at 2; bh and tsybakov are composable for all k
        for i in range(0, 2001):
            k = 2.0 * i / 2000.0
            assert kl_lower_pinsker(forward_value(BoundId.PINSKER, k)) == (
                pytest.approx(k, abs=1e-10)
            )
        for i in range(0, 1301):
            k = 13.0 * i / 1300.0
            assert kl_lower_bh(forward_value(BoundId.BH, k)) == pytest.approx(
                k, abs=1e-10
            )
            assert kl_lower_tsybakov(
                forward_value(BoundId.TSYBAKOV, k)
            ) == pytest.approx(k, abs=1e-10)


class TestOrderingsAndComparisons:
    def test_sqrt2_comparison(self):
        # bh never exceeds sqrt(2) times pinsker, and the ratio attains
        # sqrt(2) in the small-kl limit
        worst = 0.0
        for i in range(10_000):
            kl = 10.0 ** (-9.0 + 11.0 * i / 9999.0)
            ratio = forward_value(BoundId.BH, kl) / forward_value(
                BoundId.PINSKER, kl
            )
            worst = max(worst, ratio)
        assert worst <= SQRT2 + 1e-12
        at_tiny = forward_value(BoundId.BH, 1e-9) / forward_value(
            BoundId.PINSKER, 1e-9
        )
        assert at_tiny >= SQRT2 - 1e-4

    def test_bh_dominates_tsybakov(self):
        for i in range(2001):
            k = i / 100.0
            assert forward_value(BoundId.BH, k) <= forward_value(
                BoundId.TSYBAKOV, k
            )

    def test_weak_bh_relations(self):
        for i in range(1, 2000):
            k = i / 1000.0
            assert forward_value(BoundId.WEAK_BH, k) > forward_value(
                BoundId.PINSKER, k
            )
        for k in (2.0, 2.5, 10.0, 100.0):
            assert forward_value(BoundId.WEAK_BH, k) >= 1.0

    def test_weak_bh_auxiliary_inequality(self):
        # x <= (1 - e^-2)^-1 (1 - e^-2x) on [0, 1], tight at both ends
        c = 1.0 / -math.expm1(-2.0)
        for i in range(1001):
            x = i / 1000.0
            assert x <= c * -math.expm1(-2.0 * x) + 1e-15
        assert abs(0.0 - c * -math.expm1(0.0)) <= 1e-12
        assert abs(1.0 - c * -math.expm1(-2.0)) <= 1e-12

    def test_forward_bounds_nondecreasing(self):
        grid = [100.0 * i / 9999.0 for i in range(10_000)]
        for bound in (BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV,
                      BoundId.WEAK_BH):
            values = [forward_value(bound, k) for k in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_inverse_bounds_nondecreasing(self):
        grid = [i / 9999.0 for i in range(10_000)]
        for bound in (BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV,
                      BoundId.VAJDA):
            values = [inverse_value(bound, t) for t in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestSoundnessOnRealPairs:
    def test_bounds_hold_on_random_pairs(self):
        # forward bounds at the pair's KL dominate its TV; inverse bounds at
        # its TV stay below its KL
        forward = (BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV, BoundId.WEAK_BH)
        inverse = (BoundId.PINSKER, BoundId.BH, BoundId.TSYBAKOV, BoundId.VAJDA)
        for p, q in seeded_pairs(10_000, 16, seed=3):
            tv = total_variation(p, q)
            kl = kl_divergence(p, q)
            for bound in forward:
                assert forward_value(bound, kl) - tv >= -1e-12
            for bound in inverse:
                assert kl - inverse_value(bound, tv) >= -1e-12


class TestEvaluationValue(ValueContract):
    # A BoundEvaluation is a frozen value of its four fields.
    build = staticmethod(lambda: compare_bounds(0.37)[1])
    FIELDS = ["bound", "input", "output", "vacuous"]
    CHANGE = {"vacuous": True}

    def test_repr(self):
        assert repr(BoundEvaluation(BoundId.BH, 0.5, 0.6, False)) == (
            "BoundEvaluation(bound=<BoundId.BH: 'bh'>, input=0.5, output=0.6, vacuous=False)")


class TestBoundIdHash:
    # BoundId hashes by identity; members are singletons, so a member looked
    # up by value, copied or unpickled is the same object with the same hash.
    @pytest.mark.parametrize("b", list(BoundId))
    def test_identity_survives_lookup_copy_and_pickle(self, b):
        twins = [BoundId(b.value), BoundId[b.name], copy.copy(b), copy.deepcopy(b)]
        twins += [pickle.loads(pickle.dumps(b, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin is b and twin == b and hash(twin) == hash(b)

    def test_dict_lookup_by_value(self):
        table = {b: b.value for b in BoundId}
        assert table[BoundId("bh")] == "bh"
        assert bounds._FORWARD[BoundId("vajda")] is tv_upper_from_vajda
        assert BoundId("bh") in {BoundId.BH} and "bh" not in table


def _log_spaced_kl(points: int = 400) -> list[float]:
    lo, hi = math.log(5e-324), math.log(700.0)
    grid = {5e-324, 700.0, 0.0, 2.0, 36.43, 40.0, math.inf}
    grid.update(math.exp(lo + (hi - lo) * i / points) for i in range(1, points))
    return sorted(grid)


# Each forward bound's own entry point, and its vacuity as the module
# docstring states it.
_FORWARD_ENTRIES = {
    BoundId.PINSKER: (tv_upper_pinsker, lambda kl, out: kl >= 2.0),
    BoundId.BH: (tv_upper_bh, lambda kl, out: False),
    BoundId.TSYBAKOV: (tv_upper_tsybakov, lambda kl, out: math.isinf(kl)),
    BoundId.WEAK_BH: (tv_upper_weak_bh, lambda kl, out: kl >= 2.0),
    BoundId.VAJDA: (None, lambda kl, out: out >= 1.0),
    BoundId.TRIVIAL: (None, lambda kl, out: True),
}


class TestRowsMatchTheirEntries:
    # compare_bounds, tv_upper_best and kl_lower share their curves with the
    # single-bound entries; every row must be the entry's value to the bit.
    def test_compare_bounds_rows_are_their_entries(self):
        for kl in _log_spaced_kl():
            rows = compare_bounds(kl)
            assert [row.bound for row in rows] == list(bounds.FORWARD_ORDER)
            for row in rows:
                entry, vacuous = _FORWARD_ENTRIES[row.bound]
                assert row.input.hex() == kl.hex(), row
                assert row.output.hex() == forward_value(row.bound, kl).hex(), row
                assert row.vacuous is vacuous(kl, row.output), row
                assert row.vacuous is (row.bound is not BoundId.BH and row.output >= 1.0)
                if entry is not None:
                    assert entry(kl) == row, row
                    assert entry(kl).output.hex() == row.output.hex(), row
            by_bound = {row.bound: row for row in rows}
            assert by_bound[BoundId.VAJDA].output.hex() == tv_upper_from_vajda(kl).hex()
            assert by_bound[BoundId.TRIVIAL].output == 1.0

    def test_best_is_the_least_row_in_tie_order(self):
        for kl in _log_spaced_kl():
            by_bound = {row.bound: row for row in compare_bounds(kl)}
            least = min(by_bound[bound].output for bound in bounds.BEST_TIE_ORDER)
            first = next(b for b in bounds.BEST_TIE_ORDER if by_bound[b].output == least)
            best = tv_upper_best(kl)
            assert best == by_bound[first], kl
            assert best.output.hex() == least.hex(), kl

    def test_inverse_rows_are_their_entries(self):
        entries = {
            BoundId.PINSKER: kl_lower_pinsker,
            BoundId.BH: kl_lower_bh,
            BoundId.TSYBAKOV: kl_lower_tsybakov,
            BoundId.VAJDA: kl_lower_vajda,
        }
        grid = [0.0, -0.0, 5e-324, 2.0**-9, 0.5, math.nextafter(1.0, 0.0), 1.0]
        grid += [i / 997 for i in range(998)]
        for tv in grid:
            for bound in bounds.INVERSE_ORDER:
                row = kl_lower(bound, tv)
                value = inverse_value(bound, tv)
                assert row == BoundEvaluation(bound, tv or 0.0, value, False)
                assert math.copysign(1.0, row.input) == 1.0
                assert row.output.hex() == value.hex() == entries[bound](tv).hex()

