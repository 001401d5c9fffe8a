"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Every tolerance is fixed here, not calibrated; the three
criteria whose bounds come from a derivation rather than a round number
state it inline:

* criterion 4: on the (1/2, 1/2 + eps) family kl/tv^2 is the series
  sum_{k>=1} 4^k eps^(2k-2) / (2k) = 2 + 4 eps^2 + (32/3) eps^4 + 32 eps^6
  + ..., each term below 4 eps^2 times the one before, so the remainder
  after 4 eps^2 lies in [(32/3) eps^4, (32/3) eps^4 + 32 eps^6/(1 - 4 eps^2)]
  (the small-TV end of Fedotov, Harremoes and Topsoe's joint range); the
  test takes eps as the pair's exact float TV and allows 1e-13 of rounding;
* criterion 6 (anchors): each route at (eps, delta) = (0.1, 0.01) is
  kl_lower(bound, 0.98) / kl_per_toss with kl_per_toss = -ln(0.96) / 2:
  bh is ln(1/0.0396) / kl_per_toss = 158.195 and pinsker 2 * 0.98^2 /
  kl_per_toss = 94.106, each pinned to +/- 0.01; pinsker's 2 t^2 is at most
  2, so its route is capped at 2 / kl_per_toss = 97.986 for every delta;
* criterion 7 (kl direction): the forward value t near 1 is a double with
  spacing 2^-53 there and dk/dt is at most 2 e^k, so no inversion recovers
  k better than about 2 e^k 2^-53; the tolerance is 1e-10 plus two such
  spacings, 1e-10 + 4 e^k 2^-53, which equals 1e-10 up to k of about 12.
"""

import json
import math
import subprocess
import sys

import pytest

from tvkl import (
    InequalityId,
    ProductSpec,
    SampleComplexityQuery,
    bernoulli,
    compare_bounds,
    dv_optimal_witness,
    dv_value,
    falsify,
    forward_value,
    inverse_value,
    kl_divergence,
    kl_lower_vajda,
    overlap_identities,
    report,
    scan_bernoulli,
    tensor_power,
    total_variation,
    tv_upper_from_vajda,
)
from tvkl.bounds import BoundId
from tvkl.samples import FLAG_SIMPLIFIED_EXCEEDS_EXACT
from tvkl.verify import DERIVATION_INEQUALITIES, GRID_INEQUALITIES, RANDOM_INEQUALITIES
from conftest import seeded_pairs
from oracle import tv_subset_oracle

SQRT2 = math.sqrt(2.0)


def test_criterion_1_inequality_scans_report_zero_violations():
    for ineq in GRID_INEQUALITIES:
        rep = scan_bernoulli(ineq, 500, tolerance=1e-12)
        assert rep.violations == 0, f"{ineq.value}: {rep}"
        assert rep.worst_margin >= -1e-12
    for offset, ineq in enumerate(RANDOM_INEQUALITIES):
        rep = falsify(ineq, 1000, 64, seed=101 * (offset + 1), tolerance=1e-10)
        assert rep.violations == 0, f"{ineq.value}: {rep}"
        assert rep.worst_margin >= -1e-10


def test_criterion_2_oracle_equivalences():
    pairs = seeded_pairs(200, 12, seed=2024)
    for p, q in pairs:
        tv = total_variation(p, q)
        assert abs(tv_subset_oracle(p, q) - tv) <= 1e-12
        min_sum, max_sum = overlap_identities(p, q)
        assert abs((1.0 - min_sum) - tv) <= 1e-12
        assert abs((max_sum - 1.0) - tv) <= 1e-12
        witness = dv_optimal_witness(p, q)
        assert abs(dv_value(p, q, witness) - kl_divergence(p, q)) <= 1e-12
    base_p, base_q = bernoulli(0.5), bernoulli(0.65)
    kl_one = kl_divergence(base_p, base_q)
    for n in range(1, 13):
        explicit = kl_divergence(
            tensor_power(ProductSpec(base_p, n)), tensor_power(ProductSpec(base_q, n))
        )
        assert abs(explicit - n * kl_one) <= 1e-10


def test_criterion_3_sqrt2_relation():
    points = 10_000
    worst = 0.0
    for i in range(points):
        kl = 10.0 ** (-9.0 + 11.0 * i / (points - 1))
        ratio = forward_value(BoundId.BH, kl) / forward_value(BoundId.PINSKER, kl)
        worst = max(worst, ratio)
    assert worst <= SQRT2 + 1e-12
    at_floor = forward_value(BoundId.BH, 1e-9) / forward_value(BoundId.PINSKER, 1e-9)
    assert at_floor >= SQRT2 - 1e-4


def test_criterion_4_pinsker_constant_tightness():
    # kl/tv^2 = 2 + 4 eps^2 + r with (32/3) eps^4 <= r <= (32/3) eps^4
    # + 32 eps^6 / (1 - 4 eps^2): the constant 2 is approached from above and
    # cannot be improved. eps is the pair's exact float bias, so the only
    # slack is the rounding of the KL sum and the ratio.
    allowance = 1e-13
    for target in (0.1, 0.01, 0.001):
        p, q = bernoulli(0.5), bernoulli(0.5 + target)
        eps = total_variation(p, q)
        ratio = kl_divergence(p, q) / eps**2
        remainder = ratio - 2.0 - 4.0 * eps * eps
        low = (32.0 / 3.0) * eps**4
        high = low + 32.0 * eps**6 / (1.0 - 4.0 * eps * eps)
        assert low - allowance <= remainder <= high + allowance, f"eps={eps}"


def test_criterion_5_vacuity_thresholds():
    assert abs(forward_value(BoundId.PINSKER, 2.0) - 1.0) <= 1e-12
    assert abs(forward_value(BoundId.WEAK_BH, 2.0) - 1.0) <= 1e-12
    k = 0.0
    while k <= 700.0:
        (ev,) = [row for row in compare_bounds(k) if row.bound is BoundId.BH]
        assert ev.output < 1.0
        assert not ev.vacuous
        k += 0.5
    assert forward_value(BoundId.BH, 700.0) < 1.0


def test_criterion_6_sample_complexity_anchors():
    # With kl_per_toss = -ln(0.96) / 2 = 0.0204110 at eps = 0.1 and the
    # required TV t = 0.98: the bh route is -ln(1 - t^2) / kl_per_toss =
    # ln(1/0.0396) / kl_per_toss = 158.19541 and the pinsker route
    # 2 t^2 / kl_per_toss = 94.10613.
    rep = report(SampleComplexityQuery(0.1, 0.01))
    assert FLAG_SIMPLIFIED_EXCEEDS_EXACT in rep.notes
    assert abs(rep.n_pinsker - 94.106) <= 0.01
    assert abs(rep.n_tsybakov - 157.70) <= 0.01
    assert abs(rep.n_bh_simplified - 195.60) <= 0.01
    assert abs(rep.n_bh - 158.195) <= 0.01


def test_criterion_6_route_behaviour_across_delta():
    deltas = [10.0**-e for e in range(1, 11)]
    for delta in deltas:
        q = SampleComplexityQuery(0.1, delta)
        # pinsker's cap, 2 / kl_per_toss(0.1) = 97.986
        assert report(q).n_pinsker <= 97.99
    assert report(SampleComplexityQuery(0.1, 10.0**-9.5)).n_bh > 1e3
    assert report(SampleComplexityQuery(0.1, 1e-10)).n_bh > 1e3


def forward_of_inverse(bound, t):
    return forward_value(bound, inverse_value(bound, t))


def inverse_of_forward(bound, k):
    return inverse_value(bound, forward_value(bound, k))


def test_criterion_7_forward_inverse_round_trips():
    # t direction: recover t from its own lower bound
    for i in range(0, 1000):
        t = min(i / 999.0, 1.0 - 1e-6)
        assert abs(forward_of_inverse(BoundId.PINSKER, t) - t) <= 1e-10
        assert abs(forward_of_inverse(BoundId.BH, t) - t) <= 1e-10
        if t >= 0.5:
            assert abs(forward_of_inverse(BoundId.TSYBAKOV, t) - t) <= 1e-10
    # pinsker's composable kl range ends at 2, where its forward value hits 1
    for i in range(0, 201):
        k = 2.0 * i / 200.0
        assert abs(inverse_of_forward(BoundId.PINSKER, k) - k) <= 1e-10


def test_criterion_7_kl_direction_round_trips():
    # The forward value t near 1 moves in steps of 2^-53, and dk/dt is 2 e^k
    # for tsybakov and at most 2 e^k for bh, so the recovered kl can only be
    # known to about 2 e^k 2^-53. Allow two such steps on top of 1e-10.
    for i in range(0, 3001):
        k = 30.0 * i / 3000.0
        tolerance = 1e-10 + 4.0 * math.exp(k) * 2.0**-53
        assert abs(inverse_of_forward(BoundId.BH, k) - k) <= tolerance, f"k={k}"
        assert abs(inverse_of_forward(BoundId.TSYBAKOV, k) - k) <= tolerance, f"k={k}"


def test_criterion_7_vajda_bisection_round_trip():
    for i in range(1, 200):
        t = i / 200.0
        assert abs(tv_upper_from_vajda(kl_lower_vajda(t)) - t) <= 1e-9


def _figure_rows(tmp_path, name, points=501):
    out = tmp_path / f"{name}.csv"
    code = subprocess.run(
        [
            sys.executable,
            "-m",
            "tvkl.cli",
            "figure",
            name,
            "--points",
            str(points),
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    ).returncode
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_criterion_8_figure_reproduction(tmp_path):
    header, rows = _figure_rows(tmp_path, "fig_pinsker")
    assert header == ["kl", "trivial", "pinsker"]
    for kl, trivial, pinsker in rows:
        assert trivial == 1.0
        assert (pinsker < 1.0) == (kl < 2.0)
        if kl == 2.0:
            assert pinsker == 1.0

    header, rows = _figure_rows(tmp_path, "fig_forward")
    assert header == ["kl", "trivial", "pinsker", "bh", "tsybakov"]
    for kl, trivial, pinsker, bh, tsybakov in rows:
        assert bh <= tsybakov
        assert bh <= trivial

    header, rows = _figure_rows(tmp_path, "fig_inverse")
    assert header == ["tv", "pinsker", "bh", "tsybakov"]
    for tv, pinsker, bh, tsybakov in rows:
        assert pinsker <= 2.0
        if tv <= 0.5:
            assert tsybakov == 0.0

    header, rows = _figure_rows(tmp_path, "fig_weak")
    assert header == ["kl", "trivial", "pinsker", "bh", "weak_bh"]
    for kl, trivial, pinsker, bh, weak in rows:
        if 0.0 < kl < 2.0:
            assert weak >= pinsker
        if kl >= 2.0:
            assert weak >= 1.0


def test_criterion_9_verify_suite_is_byte_deterministic():
    def run_once():
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tvkl.cli",
                "--json",
                "verify",
                "all",
                "--seed",
                "42",
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = run_once()
    second = run_once()
    assert first == second
    reports = [json.loads(line) for line in first.decode().strip().splitlines()]
    assert len(reports) == 10
    assert all(r["violations"] == 0 for r in reports)
    # every inequality but the derivation steps, which run outside "all"
    every = {i.value for i in InequalityId if i not in DERIVATION_INEQUALITIES}
    assert {r["inequality"] for r in reports} == every
