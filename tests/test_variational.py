import math
import random
import sys
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from tvkl import (
    BoundId,
    InequalityId,
    MisalignedWitnessError,
    OutOfRangeError,
    SupportMismatchError,
    WitnessFunction,
    bernoulli,
    dv_optimal_witness,
    dv_supremum,
    dv_value,
    falsify,
    forward_value,
    kl_divergence,
    new_distribution,
    pinsker_via_tfl,
    pinsker_via_tfl_optimal,
    total_variation,
)
from tvkl import verify
from tvkl.verify import _hoeffding_step, _ipm_identity
from conftest import dist, seeded_pairs

P3 = dist(0.2, 0.3, 0.5)
Q3 = dist(0.4, 0.4, 0.2)


class TestDvValue:
    def test_zero_witness_gives_zero(self):
        f = WitnessFunction((0.0, 0.0, 0.0))
        assert dv_value(P3, Q3, f) == 0.0

    def test_constant_witness_cancels(self):
        for c in (-7.0, 3.0, 123.0):
            f = WitnessFunction((c, c, c))
            assert dv_value(P3, Q3, f) == pytest.approx(0.0, abs=1e-12)

    def test_optimal_witness_attains_kl(self):
        p, q = bernoulli(0.5), bernoulli(0.6)
        f = dv_optimal_witness(p, q)
        assert dv_value(p, q, f) == pytest.approx(
            kl_divergence(p, q), abs=1e-13
        )

    def test_large_witness_values_are_stable(self):
        f = WitnessFunction((900.0, -900.0, 0.0))
        value = dv_value(P3, Q3, f)
        assert math.isfinite(value)
        assert value <= kl_divergence(P3, Q3) + 1e-10

    def test_misaligned(self):
        with pytest.raises(MisalignedWitnessError):
            dv_value(P3, Q3, WitnessFunction((0.0, 0.0)))

    def test_witness_values_must_be_finite(self):
        with pytest.raises(OutOfRangeError):
            WitnessFunction((math.inf, 0.0))

    def test_witness_needs_a_value(self):
        with pytest.raises(OutOfRangeError, match="^values: "):
            WitnessFunction(())

    @pytest.mark.parametrize("values, message", [
        (None, r"^values: None is not iterable$"),
        (3.0, r"^values: 3.0 is not iterable$"),
        ("12", r"^values: '12' is a str, not a sequence$"),
        (b"12", r"^values: b'12' is a bytes, not a sequence$"),
        ({3.0: 1, 1.0: 2}, r"^values: \{3.0: 1, 1.0: 2\} is a dict, not a sequence$"),
    ], ids=["None", "3.0", "str", "bytes", "mapping"])
    def test_witness_values_must_be_iterable(self, values, message):
        with pytest.raises(OutOfRangeError, match=message):
            WitnessFunction(values)

    def test_witness_reads_an_iterator_once(self):
        # the refused value is named, not lost to a used-up generator
        with pytest.raises(OutOfRangeError, match=r"^values\[1\]: "):
            WitnessFunction(x for x in [1.0, "a"])
        assert WitnessFunction(x for x in [1.0, -2.0]).values == (1.0, -2.0)

    def test_witness_values_are_stored_as_floats(self):
        f = WitnessFunction((1, "-3.5", True))
        assert f.values == (1.0, -3.5, 1.0)
        assert all(type(v) is float for v in f.values)
        assert f.sup_norm == 3.5

    def test_sup_norm_cached(self):
        assert WitnessFunction((-3.0, 2.0)).sup_norm == 3.0


class TestOptimalWitness:
    def test_identity_gives_zero_witness(self):
        f = dv_optimal_witness(P3, P3)
        assert f.values == (0.0, 0.0, 0.0)

    def test_bernoulli_closed_form(self):
        f = dv_optimal_witness(bernoulli(0.5), bernoulli(0.6))
        assert f.values[0] == pytest.approx(math.log(5.0 / 6.0), abs=1e-15)
        assert f.values[1] == pytest.approx(math.log(5.0 / 4.0), abs=1e-15)

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            dv_optimal_witness(bernoulli(0.5), bernoulli(0.0))

    def test_shared_dead_atoms_are_allowed(self):
        p = dist(0.5, 0.5, 0.0)
        q = dist(0.25, 0.75, 0.0)
        f = dv_optimal_witness(p, q)
        assert f.values[2] == 0.0
        assert dv_value(p, q, f) == pytest.approx(kl_divergence(p, q), abs=1e-12)


class TestDvSupremum:
    def test_identity(self):
        value, gaps = dv_supremum(P3, P3, trials=50, seed=1)
        assert value == 0.0
        assert len(gaps) == 50
        assert all(g >= 0.0 for g in gaps)

    def test_bernoulli_pair(self):
        value, gaps = dv_supremum(bernoulli(0.5), bernoulli(0.6), 100, seed=2)
        assert value == pytest.approx(0.020410997260127572, abs=1e-13)
        assert len(gaps) == 100
        assert all(g >= -1e-10 for g in gaps)

    def test_three_atom_value_is_kl(self):
        value, gaps = dv_supremum(P3, Q3, 100, seed=3)
        assert value == pytest.approx(0.2332113080895541, abs=1e-13)
        assert all(g >= -1e-10 for g in gaps)

    def test_deterministic(self):
        assert dv_supremum(P3, Q3, 25, seed=9) == dv_supremum(P3, Q3, 25, seed=9)

    def test_no_random_witness_beats_the_optimum(self):
        for p, q in seeded_pairs(30, 32, seed=13):
            _, gaps = dv_supremum(p, q, 30, seed=17)
            assert all(g >= -1e-10 for g in gaps)


class TestLowerBoundDirection:
    def test_random_witnesses_never_exceed_kl(self):
        rng = random.Random(29)
        count = 0
        for p, q in seeded_pairs(334, 16, seed=29):
            kl = kl_divergence(p, q)
            for _ in range(3):
                f = WitnessFunction(
                    tuple(rng.uniform(-4.0, 4.0) for _ in range(len(p)))
                )
                assert dv_value(p, q, f) <= kl + 1e-10
                count += 1
        assert count >= 1000

    def test_attainment_up_to_64_atoms(self):
        for p, q in seeded_pairs(100, 64, seed=37):
            f = dv_optimal_witness(p, q)
            assert dv_value(p, q, f) == pytest.approx(
                kl_divergence(p, q), abs=1e-12
            )


class TestPinskerViaTfl:
    def test_budgeted_value(self):
        assert pinsker_via_tfl(0.5, 1.0) == 0.5

    def test_accepts_bare_float_budget(self):
        # the budget is a real read as its float, with no wrapper type
        assert pinsker_via_tfl(0.5, 1) == pinsker_via_tfl(0.5, Fraction(1)) == 0.5
        assert pinsker_via_tfl(0.5, "2.0") == pinsker_via_tfl(0.5, 2.0) == 0.625

    def test_optimal_budget(self):
        lam, bound = pinsker_via_tfl_optimal(0.5)
        assert lam == 1.0
        assert bound == 0.5

    def test_optimal_at_two_is_the_vacuity_threshold(self):
        lam, bound = pinsker_via_tfl_optimal(2.0)
        assert lam == 2.0
        assert bound == 1.0

    def test_degenerate_at_zero(self):
        assert pinsker_via_tfl_optimal(0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("kl", [1e308, sys.float_info.max])
    def test_optimal_budget_stays_finite_where_two_kl_overflows(self, kl):
        # lambda* is sqrt(2 kl) correctly rounded, and accepted as a budget
        lam, bound = pinsker_via_tfl_optimal(kl)
        assert lam == float((2 * Decimal(kl)).sqrt(Context(prec=60)))
        assert pinsker_via_tfl(kl, lam) >= bound == forward_value(BoundId.PINSKER, kl)

    def test_matches_pinsker_forward_exactly(self):
        for kl in [i / 20.0 for i in range(200)] + [5e-324, 2.0**-1030]:
            _, bound = pinsker_via_tfl_optimal(kl)
            assert bound == forward_value(BoundId.PINSKER, kl)
        assert pinsker_via_tfl_optimal(5e-324)[1] > 0.0

    def test_every_other_budget_is_worse(self):
        for kl in (0.01, 0.5, 2.0, 7.0):
            _, best = pinsker_via_tfl_optimal(kl)
            for i in range(1, 400):
                lam = i / 40.0
                assert pinsker_via_tfl(kl, lam) >= best - 1e-12

    def test_convex_in_the_budget_with_golden_section_minimum(self):
        # golden-section search recovers the closed-form minimum value to
        # 1e-9; the minimiser location is only identifiable to ~1e-4 because
        # the objective is flat at the scale of float rounding
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        for kl in (0.125, 0.5, 3.0):
            lam_star, best = pinsker_via_tfl_optimal(kl)
            a, b = lam_star / 8.0, lam_star * 8.0
            values = [pinsker_via_tfl(kl, a + (b - a) * i / 400) for i in range(401)]
            diffs = [y - x for x, y in zip(values, values[1:])]
            # convexity: differences nondecreasing up to rounding
            assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
            for _ in range(200):
                c = b - phi * (b - a)
                d = a + phi * (b - a)
                if pinsker_via_tfl(kl, c) <= pinsker_via_tfl(kl, d):
                    b = d
                else:
                    a = c
            lam_gs = 0.5 * (a + b)
            assert abs(pinsker_via_tfl(kl, lam_gs) - best) <= 1e-9
            assert abs(lam_gs - lam_star) <= 1e-4 * max(1.0, lam_star)

    def test_rejects_bad_inputs(self):
        with pytest.raises(OutOfRangeError):
            pinsker_via_tfl(math.inf, 1.0)
        with pytest.raises(OutOfRangeError):
            pinsker_via_tfl(-1.0, 1.0)
        for lam in (0.0, -0.0, -1.0, math.inf, math.nan):
            with pytest.raises(OutOfRangeError, match=r"^lam: .* must be a positive real$"):
                pinsker_via_tfl(0.5, lam)
        # kl is checked first
        with pytest.raises(OutOfRangeError, match="^kl: "):
            pinsker_via_tfl(-1.0, 0.0)


class TestHoeffdingStep:
    """The margin E_q[f] + ||f||^2 / 2 - log E_q[e^f] of the Hoeffding step."""

    def test_zero_witness(self):
        assert _hoeffding_step(P3, Q3, (0.0,) * 3) == 0.0

    def test_constant_witness_margin_is_half_square(self):
        for c in (0.5, -2.0, 4.0):
            margin = _hoeffding_step(P3, Q3, (c,) * 3)
            assert margin == pytest.approx(0.5 * c * c, abs=1e-12)

    def test_random_witnesses_have_nonnegative_margin(self):
        rng = random.Random(41)
        p, q = seeded_pairs(1, 8, seed=41, min_atoms=8)[0]
        for _ in range(1000):
            values = tuple(rng.uniform(-2.0, 2.0) for _ in range(8))
            assert _hoeffding_step(p, q, values) >= -1e-12


class TestBoundedWitnessChain:
    def test_mean_gap_bounded_by_kl_plus_half_budget_squared(self):
        # E_p[f] - E_q[f] <= KL + ||f||^2 / 2 for every bounded witness
        rng = random.Random(43)
        for p, q in seeded_pairs(300, 12, seed=43):
            lam = rng.choice((0.25, 1.0, 3.0))
            raw = [rng.uniform(-lam, lam) for _ in range(len(p))]
            i = rng.randrange(len(raw))
            raw[i] = lam if rng.random() < 0.5 else -lam  # pin the sup norm
            f = WitnessFunction(tuple(raw))
            gap = sum(a * v for a, v in zip(p.probs, f.values)) - sum(
                b * v for b, v in zip(q.probs, f.values)
            )
            kl = kl_divergence(p, q)
            assert gap <= kl + 0.5 * f.sup_norm**2 + 1e-12


def unit_ball_witnesses(count, n, seed):
    rng = random.Random(seed)
    return [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(count)]


class TestIpmIdentity:
    """The margin of TV as half the sign witness's mean gap: the smaller of
    the sign witness's lead over a unit-ball witness and 0.0 - |gap/2 - TV|,
    so it is at most 0.0 and an exact identity reads 0.0."""

    def test_identical(self):
        for values in unit_ball_witnesses(20, 3, seed=5):
            margin = _ipm_identity(P3, P3, values)
            assert margin == 0.0 and math.copysign(1.0, margin) == 1.0

    def test_bernoulli_pair(self):
        for values in unit_ball_witnesses(50, 2, seed=7):
            assert -1e-12 <= _ipm_identity(bernoulli(0.5), bernoulli(0.6), values) <= 0.0

    def test_three_atom_pair(self):
        # gap is the sum of |p - q| that TV halves, so the identity is exact
        # and 0.0 - 0.0 keeps its margin at 0.0, not -0.0
        for values in unit_ball_witnesses(50, 3, seed=11):
            margin = _ipm_identity(P3, Q3, values)
            assert margin == 0.0 and math.copysign(1.0, margin) == 1.0

    def test_a_tv_off_the_half_gap_is_a_negative_margin(self, monkeypatch):
        # With TV 0.1 above half the sign witness's gap (0.3 here), the lead
        # of the sign witness over itself is 0.0 and the identity half of the
        # margin, 0.0 - |gap / 2 - TV|, is -0.1.
        exact = verify.total_variation
        monkeypatch.setattr(verify, "total_variation", lambda p, q: exact(p, q) + 0.1)
        sign = [(a > b) - (a < b) for a, b in zip(P3.probs, Q3.probs)]
        assert _ipm_identity(P3, Q3, sign) == pytest.approx(-0.1, abs=1e-15)
        assert falsify(InequalityId.IPM_IDENTITY, 5, 8, seed=1).violations == 5

    def test_sign_witness_attains_double_tv(self):
        sup = 2.0 * total_variation(P3, Q3)
        assert sup == pytest.approx(0.6, abs=1e-12)

    def test_gap_small_on_random_pairs(self):
        for i, (p, q) in enumerate(seeded_pairs(100, 16, seed=19)):
            for values in unit_ball_witnesses(20, len(p), seed=23 + i):
                assert -1e-12 <= _ipm_identity(p, q, values) <= 0.0

    def test_support_cap(self):
        # the identity has no cap of its own: a pair runs up to the random
        # engine's 64 atoms, and no further
        big = new_distribution([1.0] * 64, renormalize=True)
        assert _ipm_identity(big, big, unit_ball_witnesses(1, 64, seed=1)[0]) == 0.0
        assert falsify(InequalityId.IPM_IDENTITY, 5, 64, seed=1).violations == 0
        with pytest.raises(OutOfRangeError):
            falsify(InequalityId.IPM_IDENTITY, 1, 65, seed=1)
