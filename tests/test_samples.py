import copy
import dataclasses
import decimal
import math
import pickle
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
    min_samples_bh,
    min_samples_pinsker,
    min_samples_tsybakov,
    report,
    required_tv,
    tensor_power,
    total_variation,
)
from tvkl.bounds import BoundId
from tvkl.errors import _real
from tvkl.samples import FLAG_SIMPLIFIED_EXCEEDS_EXACT, FLAG_TSYBAKOV_VACUOUS

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
        assert required_tv(Q_MAIN) == pytest.approx(0.98, abs=1e-15)


class TestQueryValue:
    # A query is a frozen value of two checked floats; every way of building
    # one, replace included, runs the same checks.
    def test_positional_and_keyword_construction(self):
        assert SampleComplexityQuery(epsilon=0.1, delta=0.01) == Q_MAIN
        assert SampleComplexityQuery(delta=0.01, epsilon=0.1) == Q_MAIN
        assert SampleComplexityQuery(0.1, delta=0.01) == Q_MAIN
        with pytest.raises(TypeError):
            SampleComplexityQuery(0.1)
        with pytest.raises(TypeError):
            SampleComplexityQuery(0.1, 0.01, 0.5)
        with pytest.raises(TypeError):
            SampleComplexityQuery(0.1, delt=0.01)

    def test_equal_and_hash_against_an_equal_instance(self):
        twin = SampleComplexityQuery(Fraction(1, 10), "0.01")
        assert twin == Q_MAIN and hash(twin) == hash(Q_MAIN)
        assert twin != SampleComplexityQuery(0.1, 0.02)
        assert twin != (0.1, 0.01)

    def test_repr(self):
        assert repr(Q_MAIN) == "SampleComplexityQuery(epsilon=0.1, delta=0.01)"

    @pytest.mark.parametrize("name", ["epsilon", "delta"])
    def test_frozen_against_assignment_and_deletion(self, name):
        q = SampleComplexityQuery(0.1, 0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, name, 0.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(q, name)
        assert q == Q_MAIN
        assert not hasattr(q, "__dict__")

    def test_copy_deepcopy_and_pickle_round_trips(self):
        copies = [copy.copy(Q_MAIN), copy.deepcopy(Q_MAIN)]
        copies += [pickle.loads(pickle.dumps(Q_MAIN, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert twin == Q_MAIN and hash(twin) == hash(Q_MAIN)
            assert type(twin) is SampleComplexityQuery

    def test_field_order(self):
        assert [f.name for f in dataclasses.fields(SampleComplexityQuery)] == [
            "epsilon", "delta"]

    def test_replace_checks_again(self):
        assert dataclasses.replace(Q_MAIN, delta=0.25) == SampleComplexityQuery(0.1, 0.25)
        with pytest.raises(OutOfRangeError):
            dataclasses.replace(Q_MAIN, delta=0.5)
        with pytest.raises(OutOfRangeError):
            dataclasses.replace(Q_MAIN, epsilon=5e-324)

    def test_stores_floats(self):
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


REPORT_FIELDS = [
    "epsilon", "delta", "required_tv", "kl_per_toss", "n_pinsker", "n_bh",
    "n_tsybakov", "n_bh_simplified", "notes",
]


class TestReportValue:
    # A report is a frozen value of its nine fields, in the order that
    # ``tvkl samples`` prints them.
    REP = report(SampleComplexityQuery(0.125, 0.4))

    def test_positional_and_keyword_construction(self):
        values = [getattr(self.REP, name) for name in REPORT_FIELDS]
        assert SampleComplexityReport(*values) == self.REP
        assert SampleComplexityReport(**dict(zip(REPORT_FIELDS, values))) == self.REP
        assert SampleComplexityReport(*values[:4], **dict(
            zip(REPORT_FIELDS[4:], values[4:]))) == self.REP
        with pytest.raises(TypeError):
            SampleComplexityReport(*values[:-1])
        with pytest.raises(TypeError):
            SampleComplexityReport(*values, ())

    def test_equal_and_hash_against_an_equal_instance(self):
        twin = report(SampleComplexityQuery(0.125, 0.4))
        assert twin is not self.REP
        assert twin == self.REP and hash(twin) == hash(self.REP)
        assert report(Q_MAIN) != self.REP

    def test_repr(self):
        assert repr(self.REP) == (
            "SampleComplexityReport(epsilon=0.125, delta=0.4, "
            "required_tv=0.19999999999999996, kl_per_toss=0.03226926056878559, "
            "n_pinsker=2.4791395461160595, n_bh=1.2650427620812197, "
            "n_tsybakov=0.0, n_bh_simplified=7.140593642054711, "
            "notes=('simplified_exceeds_exact', 'tsybakov_vacuous'))")

    @pytest.mark.parametrize("name", REPORT_FIELDS)
    def test_frozen_against_assignment_and_deletion(self, name):
        rep = report(SampleComplexityQuery(0.125, 0.4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rep, name)
        assert rep == self.REP
        assert not hasattr(rep, "__dict__")

    def test_copy_deepcopy_and_pickle_round_trips(self):
        copies = [copy.copy(self.REP), copy.deepcopy(self.REP)]
        copies += [pickle.loads(pickle.dumps(self.REP, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert twin == self.REP and hash(twin) == hash(self.REP)
            assert type(twin) is SampleComplexityReport

    def test_field_order(self):
        assert [f.name for f in dataclasses.fields(SampleComplexityReport)] == REPORT_FIELDS
        assert SampleComplexityReport.__match_args__ == tuple(REPORT_FIELDS)

    def test_replace(self):
        cleared = dataclasses.replace(self.REP, notes=())
        assert cleared.notes == () and cleared.n_bh == self.REP.n_bh
        assert cleared != self.REP


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


class TestRoutes:
    # frozen from the closed forms evaluated at double precision
    def test_pinsker_anchor(self):
        assert min_samples_pinsker(Q_MAIN) == pytest.approx(
            94.10613188176944, abs=1e-10
        )

    def test_bh_anchor(self):
        assert min_samples_bh(Q_MAIN) == pytest.approx(158.19541395115158, abs=1e-9)

    def test_tsybakov_anchor(self):
        assert min_samples_tsybakov(Q_MAIN) == pytest.approx(
            157.7030158715568, abs=1e-9
        )

    def test_pinsker_vanishes_as_delta_grows(self):
        assert min_samples_pinsker(SampleComplexityQuery(0.1, 0.499999)) < 1e-7

    def test_pinsker_delta_free_cap(self):
        cap = 2.0 / kl_per_toss(0.1)
        assert cap == pytest.approx(97.98639304640717, abs=1e-9)
        for delta in [10.0**-exponent for exponent in range(1, 11)] + [5e-324]:
            assert min_samples_pinsker(SampleComplexityQuery(0.1, delta)) <= cap

    def test_bh_at_quarter_delta(self):
        # t = 1/2: bh is log(4/3) / kl_per_toss, below pinsker's 1/2 / kl_per_toss
        q = SampleComplexityQuery(0.1, 0.25)
        assert min_samples_bh(q) == pytest.approx(14.094464311832596, abs=1e-9)
        assert min_samples_bh(q) < min_samples_pinsker(q) == pytest.approx(
            24.496598261601793, abs=1e-9
        )

    def test_bh_with_unit_log_numerator(self):
        # delta chosen so 1 - (1 - 2 delta)^2 = 1/e, making the bh route
        # exactly 1 / kl_per_toss
        delta = (1.0 - math.sqrt(1.0 - math.exp(-1.0))) / 2.0
        q = SampleComplexityQuery(0.1, delta)
        assert min_samples_bh(q) == pytest.approx(
            1.0 / kl_per_toss(0.1), rel=1e-12
        )

    def test_tsybakov_vacuous_at_quarter(self):
        assert min_samples_tsybakov(SampleComplexityQuery(0.1, 0.25)) == 0.0
        assert min_samples_tsybakov(SampleComplexityQuery(0.1, 0.3)) == 0.0

    def test_tsybakov_at_milli_delta(self):
        q = SampleComplexityQuery(0.1, 0.001)
        assert min_samples_tsybakov(q) == pytest.approx(270.51401984401315, abs=1e-9)


class TestReport:
    def test_main_anchor_with_flag(self):
        rep = report(Q_MAIN)
        assert rep.n_pinsker == pytest.approx(94.10613188176944, abs=1e-9)
        assert rep.n_bh == pytest.approx(158.19541395115158, abs=1e-9)
        assert rep.n_tsybakov == pytest.approx(157.7030158715568, abs=1e-9)
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
        assert [f.name for f in dataclasses.fields(rep)][:3] == [
            "epsilon", "delta", "required_tv"]
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


def binomial_tv(n, eps):
    """Exact TV(Bin(n, 1/2), Bin(n, 1/2 + eps)) for a rational eps: the TV of
    n tosses depends only on the count of heads. With 1/2 + eps = a/den and
    1/2 - eps = b/den, it is sum_k C(n, k) |a^k b^(n-k) - (den/2)^n| / (2 den^n)."""
    a, den = (Fraction(1, 2) + eps).as_integer_ratio()
    b, half = den - a, den // 2
    total = sum(math.comb(n, k) * abs(a**k * b ** (n - k) - half**n)
                for k in range(n + 1))
    return Fraction(total, 2 * den**n)


def least_tosses(eps, delta):
    """n*, the least n with TV(Bin(n, 1/2), Bin(n, 1/2 + eps)) >= 1 - 2 delta,
    by doubling and then bisection: the TV of n tosses does not decrease in n,
    because a tester may ignore tosses."""
    target = 1 - 2 * Fraction(delta)
    lo, hi = 0, 1  # TV(n = lo) < target <= TV(n = hi) once the doubling ends
    while binomial_tv(hi, eps) < target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if binomial_tv(mid, eps) >= target else (mid, hi)
    return hi


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
            n_star = least_tosses(eps, delta)
            assert n_star == expected
            rep = report(SampleComplexityQuery(float(eps), delta))
            for route in (rep.n_pinsker, rep.n_bh, rep.n_tsybakov):
                assert route <= n_star

    def test_simplified_bh_form_can_exceed_the_exact_answer(self):
        rep = report(SampleComplexityQuery(0.125, 0.4))
        assert rep.n_bh_simplified > least_tosses(Fraction(1, 8), 0.4) == 4
        assert FLAG_SIMPLIFIED_EXCEEDS_EXACT in rep.notes

    @pytest.mark.parametrize("eps", EXACT, ids=str)
    def test_materialised_powers_match_the_binomial_tv(self, eps):
        p1, q1 = bernoulli(0.5), bernoulli(0.5 + float(eps))
        for n in range(1, 13):
            tv = total_variation(tensor_power(ProductSpec(p1, n)),
                                 tensor_power(ProductSpec(q1, n)))
            assert tv == float(binomial_tv(n, eps))


class TestRouteProperties:
    def test_bh_route_diverges_like_log_inverse_delta(self):
        # exact identity: n_bh = (log(1/delta) - log 4 - log(1-delta)) / klt;
        # the ratio to log(1/delta)/klt therefore climbs to 1 as delta -> 0
        klt = kl_per_toss(0.1)
        previous = 0.0
        for exponent in range(4, 11):
            delta = 10.0**-exponent
            n = min_samples_bh(SampleComplexityQuery(0.1, delta))
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
            q = SampleComplexityQuery(0.2, delta)
            assert min_samples_bh(q) >= min_samples_pinsker(q)
        for delta in (0.0536784, 0.09, 0.25, 0.45):
            q = SampleComplexityQuery(0.2, delta)
            assert min_samples_bh(q) < min_samples_pinsker(q)

    def test_routes_agree_with_the_inverse_bound_pipeline(self):
        # feeding the required TV through each public inverse bound and
        # dividing by the per-toss rate reproduces every route
        routes = {BoundId.PINSKER: min_samples_pinsker, BoundId.BH: min_samples_bh,
                  BoundId.TSYBAKOV: min_samples_tsybakov}
        for q in (Q_MAIN, SampleComplexityQuery(0.25, 0.2), SampleComplexityQuery(0.05, 0.3)):
            t = required_tv(q)
            klt = kl_per_toss(q.epsilon)
            for bound, route in routes.items():
                assert inverse_value(bound, t) / klt == pytest.approx(
                    route(q), abs=1e-12, rel=1e-12
                )


def exact_routes(eps, delta):
    """kl_lower(bound, 1 - 2 delta) / kl_per_toss(eps) for the three routes,
    at 60 digits from the exact values of the two doubles. With u = 2 delta,
    1 - t^2 is taken as u (2 - u), which stays exact where t = 1 - u rounds
    to 1 even at 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e, u = Decimal(eps), 2 * Decimal(delta)
        klt = -(1 - 4 * e * e).ln() / 2
        return (2 * (1 - u) ** 2 / klt,
                -(u * (2 - u)).ln() / klt,
                max(Decimal(0), -(2 * u).ln()) / klt)


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
            for route, exact in zip(routes, exact_routes(eps, delta)):
                assert math.copysign(1.0, route) == 1.0, (eps, delta, route)
                ulps = abs(Decimal(route) - exact) / Decimal(math.ulp(float(exact)))
                assert ulps <= 8, (eps, delta, route, exact)
