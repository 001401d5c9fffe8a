import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from tvkl import (
    OutOfRangeError,
    ProductSpec,
    SampleComplexityQuery,
    SampleComplexityReport,
    bernoulli,
    inverse_value,
    kl_divergence,
    kl_per_toss,
    report,
    tensor_power,
    total_variation,
)
from tvkl.bounds import BoundId
from tvkl.errors import _real
from tvkl.samples import FLAG_SIMPLIFIED_EXCEEDS_EXACT, FLAG_TSYBAKOV_VACUOUS
import oracle
from test_values import ValueContract

Q_MAIN = SampleComplexityQuery(0.1, 0.01)

OUTSIDE_THE_BOX = [
    (0.0, 0.1),
    (1.0 / 3.0, 0.1),
    (0.4, 0.1),
    (0.1, 0.0),
    (0.1, 0.5),
    (0.1, 0.7),
    (-0.1, 0.1),
]
KL_UNDERFLOWS = [1e-200, 1.5e-162, 5e-324]


class TestQueryValidation:
    @pytest.mark.parametrize("eps, delta", OUTSIDE_THE_BOX)
    def test_open_intervals_enforced(self, eps, delta):
        with pytest.raises(OutOfRangeError):
            SampleComplexityQuery(eps, delta)

    @pytest.mark.parametrize("eps", KL_UNDERFLOWS)
    def test_epsilon_whose_kl_underflows(self, eps):
        # every route divides by eps^2 or the per-toss KL; eps^2 is 0.0 here
        with pytest.raises(OutOfRangeError):
            report(SampleComplexityQuery(eps, 0.01))

    def test_eps_squared_is_the_test_that_refuses(self):
        # Below the least eps whose square is not 0.0, 4 eps eps can still
        # round up, so the KL alone would let in a query whose simplified
        # route divides by 0.0; from it on, the KL is never 0.0.
        lo, hi = 1.5e-162, 1.6e-162  # eps^2 is 0.0 at lo and not at hi
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if mid**2 > 0.0 else (mid, hi)
        assert kl_per_toss(lo) > 0.0
        with pytest.raises(OutOfRangeError, match="too small"):
            SampleComplexityQuery(lo, 0.01)
        eps = hi
        for _ in range(1000):
            assert report(SampleComplexityQuery(eps, 0.01)).kl_per_toss > 0.0
            eps = math.nextafter(eps, 1.0)

    def test_smallest_epsilon_with_a_nonzero_kl(self):
        rep = report(SampleComplexityQuery(1.6e-162, 0.01))
        assert rep.kl_per_toss > 0.0
        assert rep.n_bh == math.inf

    def test_required_tv(self):
        assert report(Q_MAIN).required_tv == pytest.approx(0.98, abs=1e-15)


class TestQueryValue(ValueContract):
    # A query is a frozen value of two checked floats; every way of building
    # one, replace included, runs the same checks.
    build = staticmethod(lambda: SampleComplexityQuery(0.1, 0.01))
    FIELDS = ["epsilon", "delta"]
    CHANGE = {"delta": 0.25}

    def test_repr(self):
        assert repr(Q_MAIN) == "SampleComplexityQuery(epsilon=0.1, delta=0.01)"

    def test_replace_checks_again(self):
        assert dataclasses.replace(Q_MAIN, delta=0.25) == SampleComplexityQuery(0.1, 0.25)
        with pytest.raises(OutOfRangeError):
            dataclasses.replace(Q_MAIN, delta=0.5)
        with pytest.raises(OutOfRangeError):
            dataclasses.replace(Q_MAIN, epsilon=5e-324)

    def test_stores_floats(self):
        twin = SampleComplexityQuery(Fraction(1, 10), "0.01")
        assert twin == Q_MAIN and hash(twin) == hash(Q_MAIN)
        q = SampleComplexityQuery(Fraction(1, 8), Decimal("0.25"))
        assert type(q.epsilon) is float and type(q.delta) is float
        assert (q.epsilon, q.delta) == (0.125, 0.25)
        q = SampleComplexityQuery("0.1", 1 / 100)
        assert type(q.epsilon) is float and q == Q_MAIN

    @pytest.mark.parametrize("eps, delta", [(-0.0, 0.1), (0.1, -0.0)])
    def test_negative_zero_is_read_as_real_reads_it(self, eps, delta):
        # -0.0 is 0.0 to _real, so the message names 0.0, outside the box
        name, value = ("epsilon", eps) if eps == 0.0 else ("delta", delta)
        assert repr(_real(name, value)) == "0.0"
        with pytest.raises(OutOfRangeError, match=f"^{name}: 0.0 not in"):
            SampleComplexityQuery(eps, delta)

    @pytest.mark.parametrize(
        "eps, delta", OUTSIDE_THE_BOX + [(eps, 0.01) for eps in KL_UNDERFLOWS])
    def test_every_rejection_raises_by_any_construction(self, eps, delta):
        with pytest.raises(OutOfRangeError):
            SampleComplexityQuery(eps, delta)
        with pytest.raises(OutOfRangeError):
            SampleComplexityQuery(epsilon=eps, delta=delta)
        with pytest.raises(OutOfRangeError):
            dataclasses.replace(Q_MAIN, epsilon=eps, delta=delta)


class TestReportValue(ValueContract):
    # A report is a frozen value of its nine fields, in the order that
    # ``tvkl samples`` prints them.
    build = staticmethod(lambda: report(SampleComplexityQuery(0.125, 0.4)))
    FIELDS = [
        "epsilon", "delta", "required_tv", "kl_per_toss", "n_pinsker", "n_bh",
        "n_tsybakov", "n_bh_simplified", "notes",
    ]
    CHANGE = {"notes": ()}

    def test_repr(self):
        assert repr(self.build()) == (
            "SampleComplexityReport(epsilon=0.125, delta=0.4, "
            "required_tv=0.19999999999999996, kl_per_toss=0.03226926056878559, "
            "n_pinsker=2.4791395461160595, n_bh=1.2650427620812197, "
            "n_tsybakov=0.0, n_bh_simplified=7.140593642054711, "
            "notes=('simplified_exceeds_exact', 'tsybakov_vacuous'))")


class TestKlPerToss:
    def test_at_tenth_matches_generic_divergence(self):
        closed = kl_per_toss(0.1)
        generic = kl_divergence(bernoulli(0.5), bernoulli(0.6))
        assert abs(closed - generic) <= 1e-15
        assert closed == pytest.approx(0.020410997260127565, abs=1e-15)

    def test_at_quarter(self):
        assert kl_per_toss(0.25) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)

    def test_small_bias_limit_is_two_eps_squared(self):
        for eps in (1e-3, 1e-5, 1e-7):
            assert kl_per_toss(eps) / (eps * eps) == pytest.approx(2.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            kl_per_toss(1.0 / 3.0)


def routes(eps: float, delta: float) -> SampleComplexityReport:
    return report(SampleComplexityQuery(eps, delta))


class TestRoutes:
    # frozen from the closed forms evaluated at double precision
    def test_pinsker_anchor(self):
        assert report(Q_MAIN).n_pinsker == pytest.approx(94.10613188176944, abs=1e-10)

    def test_bh_anchor(self):
        assert report(Q_MAIN).n_bh == pytest.approx(158.19541395115158, abs=1e-9)

    def test_tsybakov_anchor(self):
        assert report(Q_MAIN).n_tsybakov == pytest.approx(157.7030158715568, abs=1e-9)

    def test_pinsker_vanishes_as_delta_grows(self):
        assert routes(0.1, 0.499999).n_pinsker < 1e-7

    def test_pinsker_delta_free_cap(self):
        cap = 2.0 / kl_per_toss(0.1)
        assert cap == pytest.approx(97.98639304640717, abs=1e-9)
        for delta in [10.0**-exponent for exponent in range(1, 11)] + [5e-324]:
            assert routes(0.1, delta).n_pinsker <= cap

    def test_bh_at_quarter_delta(self):
        # t = 1/2: bh is log(4/3) / kl_per_toss, below pinsker's 1/2 / kl_per_toss
        rep = routes(0.1, 0.25)
        assert rep.n_bh == pytest.approx(14.094464311832596, abs=1e-9)
        assert rep.n_bh < rep.n_pinsker == pytest.approx(24.496598261601793, abs=1e-9)

    def test_bh_with_unit_log_numerator(self):
        # delta chosen so 1 - (1 - 2 delta)^2 = 1/e, making the bh route
        # exactly 1 / kl_per_toss
        delta = (1.0 - math.sqrt(1.0 - math.exp(-1.0))) / 2.0
        assert routes(0.1, delta).n_bh == pytest.approx(1.0 / kl_per_toss(0.1), rel=1e-12)

    def test_tsybakov_vacuous_at_quarter(self):
        assert routes(0.1, 0.25).n_tsybakov == 0.0
        assert routes(0.1, 0.3).n_tsybakov == 0.0

    def test_tsybakov_at_milli_delta(self):
        assert routes(0.1, 0.001).n_tsybakov == pytest.approx(270.51401984401315, abs=1e-9)


class TestReport:
    def test_main_anchor_with_flag(self):
        rep = report(Q_MAIN)
        assert rep.n_bh_simplified == pytest.approx(195.60115027140725, abs=1e-9)
        assert rep.n_bh_simplified == pytest.approx(50.0 * math.log(50.0), abs=1e-9)
        assert FLAG_SIMPLIFIED_EXCEEDS_EXACT in rep.notes

    def test_simplified_form_exceeds_exact_across_the_domain(self):
        # the simplified closed form is NOT a lower bound on the exact bh
        # route anywhere in the open parameter box: flag-off would require
        # delta > 1/2
        for eps in (0.01, 0.1, 0.3):
            for delta in (0.001, 0.1, 0.25, 0.4, 0.49):
                rep = report(SampleComplexityQuery(eps, delta))
                assert rep.n_bh_simplified > rep.n_bh
                assert FLAG_SIMPLIFIED_EXCEEDS_EXACT in rep.notes

    def test_tsybakov_vacuity_flag(self):
        rep = report(SampleComplexityQuery(0.1, 0.4))
        assert FLAG_TSYBAKOV_VACUOUS in rep.notes
        assert FLAG_TSYBAKOV_VACUOUS not in report(Q_MAIN).notes

    def test_all_routes_vanish_as_delta_approaches_half(self):
        rep = report(SampleComplexityQuery(0.1, 0.4999999))
        assert rep.n_pinsker < 1e-7
        assert rep.n_bh < 1e-5
        assert rep.n_tsybakov == 0.0

    def test_exact_values_not_rounded(self):
        rep = report(Q_MAIN)
        assert rep.n_pinsker != math.ceil(rep.n_pinsker)

    def test_report_is_flat_and_starts_with_the_query(self):
        q = SampleComplexityQuery("0.1", 0.01)
        rep = report(q)
        assert (rep.epsilon, rep.delta) == (q.epsilon, q.delta) == (0.1, 0.01)
        assert report(q) == rep


class TestAdditivityCrossCheck:
    def test_materialised_powers_match_the_per_toss_rate(self):
        eps = 0.1
        p1, q1 = bernoulli(0.5), bernoulli(0.5 + eps)
        for n in range(1, 13):
            pn = tensor_power(ProductSpec(p1, n))
            qn = tensor_power(ProductSpec(q1, n))
            assert kl_divergence(pn, qn) == pytest.approx(
                n * kl_per_toss(eps), abs=1e-10
            )


class TestExactCoinAnswer:
    """Every sample route is a lower bound on one exact number, n*, computed
    here in exact rational arithmetic for dyadic eps."""

    DELTAS = (0.4, 0.25, 0.1, 0.01, 0.001)
    EXACT = {
        Fraction(1, 8): (4, 29, 104, 338, 597),
        Fraction(1, 4): (1, 7, 24, 78, 138),
    }

    @pytest.mark.parametrize("eps", EXACT, ids=str)
    def test_every_route_is_at_most_the_least_number_of_tosses(self, eps):
        for delta, expected in zip(self.DELTAS, self.EXACT[eps]):
            n_star = oracle.least_tosses(eps, delta)
            assert n_star == expected
            rep = report(SampleComplexityQuery(float(eps), delta))
            for route in (rep.n_pinsker, rep.n_bh, rep.n_tsybakov):
                assert route <= n_star

    def test_simplified_bh_form_can_exceed_the_exact_answer(self):
        rep = report(SampleComplexityQuery(0.125, 0.4))
        assert rep.n_bh_simplified > oracle.least_tosses(Fraction(1, 8), 0.4) == 4
        assert FLAG_SIMPLIFIED_EXCEEDS_EXACT in rep.notes

    @pytest.mark.parametrize("eps", EXACT, ids=str)
    def test_materialised_powers_match_the_binomial_tv(self, eps):
        p1, q1 = bernoulli(0.5), bernoulli(0.5 + float(eps))
        for n in range(1, 13):
            tv = total_variation(tensor_power(ProductSpec(p1, n)),
                                 tensor_power(ProductSpec(q1, n)))
            assert tv == float(oracle.binomial_tv(n, eps))


class TestRouteProperties:
    def test_bh_route_diverges_like_log_inverse_delta(self):
        # exact identity: n_bh = (log(1/delta) - log 4 - log(1-delta)) / klt;
        # the ratio to log(1/delta)/klt therefore climbs to 1 as delta -> 0
        klt = kl_per_toss(0.1)
        previous = 0.0
        for exponent in range(4, 11):
            delta = 10.0**-exponent
            n = routes(0.1, delta).n_bh
            log_inv = math.log(1.0 / delta)
            identity = (log_inv - math.log(4.0) - math.log1p(-delta)) / klt
            assert n == pytest.approx(identity, rel=1e-12)
            ratio = n / (log_inv / klt)
            assert ratio > previous
            previous = ratio
        assert previous > 0.9  # within 10 percent of the limit by 1e-10

    def test_per_toss_rate_is_at_most_4_eps_squared(self):
        for i in range(1, 1000):
            eps = i / 3000.0
            assert kl_per_toss(eps) <= 4.0 * eps * eps

    def test_bh_dominates_pinsker_for_small_delta(self):
        # Both routes divide by kl_per_toss, so bh >= pinsker iff
        # -log(1 - t^2) >= 2 t^2. That holds exactly for t >= t0 = 0.892643,
        # the positive root, that is for delta <= (1 - t0)/2 = 0.0536783.
        for delta in (0.0536783, 0.05, 0.01, 1e-4, 5e-324):
            rep = routes(0.2, delta)
            assert rep.n_bh >= rep.n_pinsker
        for delta in (0.0536784, 0.09, 0.25, 0.45):
            rep = routes(0.2, delta)
            assert rep.n_bh < rep.n_pinsker

    def test_routes_agree_with_the_inverse_bound_pipeline(self):
        # feeding the required TV through each public inverse bound and
        # dividing by the per-toss rate reproduces every route
        fields = {BoundId.PINSKER: "n_pinsker", BoundId.BH: "n_bh",
                  BoundId.TSYBAKOV: "n_tsybakov"}
        for q in (Q_MAIN, SampleComplexityQuery(0.25, 0.2), SampleComplexityQuery(0.05, 0.3)):
            rep = report(q)
            klt = kl_per_toss(q.epsilon)
            for bound, field in fields.items():
                assert inverse_value(bound, rep.required_tv) / klt == pytest.approx(
                    getattr(rep, field), abs=1e-12, rel=1e-12
                )


def oracle_deltas():
    """Log-spaced from 5e-324 to the largest double below 1/2, plus the
    doubles on either side of 1/4 and 1/2 - 2^-k up to that largest one."""
    lo, hi = math.log(5e-324), math.log(0.5)
    deltas = {5e-324}
    deltas.update(math.exp(lo + (hi - lo) * i / 200) for i in range(1, 200))
    deltas.update(0.5 - 2.0**-k for k in range(2, 55))
    deltas.update(0.25 - 2.0**-k for k in range(3, 56))
    deltas.update(0.25 + 2.0**-k for k in range(3, 55))
    return sorted(d for d in deltas if 0.0 < d < 0.5)


class TestRouteOracle:
    @pytest.mark.parametrize("eps", [1e-5, 0.01, 0.1, 0.25, 0.33])
    def test_every_route_is_its_recipe_within_8_ulps(self, eps):
        for delta in oracle_deltas():
            rep = report(SampleComplexityQuery(eps, delta))
            routes = (rep.n_pinsker, rep.n_bh, rep.n_tsybakov)
            for route, exact in zip(routes, oracle.routes(eps, delta)):
                assert math.copysign(1.0, route) == 1.0, (eps, delta, route)
                assert oracle.ulps(route, exact) <= 8, (eps, delta, route, exact)
