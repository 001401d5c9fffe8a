"""Every public scalar entry point turns a non-number into OutOfRangeError
with a one-line message naming the argument, and every integer entry point
does the same for a value that is not an integer."""

import pytest

from tvkl import (
    BoundId,
    FigureId,
    InequalityId,
    OutOfRangeError,
    ProductSpec,
    SampleComplexityQuery,
    TflParameter,
    bernoulli,
    bernoulli_margin,
    binary_kl,
    binary_tv,
    compare_bounds,
    dv_supremum,
    falsify,
    figure_rows,
    forward_value,
    ipm_identity_check,
    inverse_value,
    kl_finite_implies_tv_lt_one,
    kl_lower,
    kl_lower_bh,
    kl_lower_pinsker,
    kl_lower_tsybakov,
    kl_lower_vajda,
    kl_per_toss,
    pinsker_via_tfl,
    pinsker_via_tfl_optimal,
    random_distribution,
    run_suite,
    scan_bernoulli,
    tv_upper_best,
    tv_upper_bh,
    tv_upper_from_vajda,
    tv_upper_pinsker,
    tv_upper_tsybakov,
    tv_upper_weak_bh,
)

NON_NUMBERS = ["x", None, [1], 10**400]

ENTRY_POINTS = {
    "tv_upper_pinsker": ("kl", tv_upper_pinsker),
    "tv_upper_bh": ("kl", tv_upper_bh),
    "tv_upper_tsybakov": ("kl", tv_upper_tsybakov),
    "tv_upper_weak_bh": ("kl", tv_upper_weak_bh),
    "tv_upper_best": ("kl", tv_upper_best),
    "tv_upper_from_vajda": ("kl", tv_upper_from_vajda),
    "forward_value": ("kl", lambda x: forward_value(BoundId.VAJDA, x)),
    "compare_bounds": ("kl", compare_bounds),
    "kl_lower_pinsker": ("tv", kl_lower_pinsker),
    "kl_lower_bh": ("tv", kl_lower_bh),
    "kl_lower_tsybakov": ("tv", kl_lower_tsybakov),
    "kl_lower_vajda": ("tv", kl_lower_vajda),
    "kl_lower": ("tv", lambda x: kl_lower(BoundId.VAJDA, x)),
    "inverse_value": ("tv", lambda x: inverse_value(BoundId.BH, x)),
    "binary_tv-a": ("a", lambda x: binary_tv(x, 0.5)),
    "binary_tv-b": ("b", lambda x: binary_tv(0.5, x)),
    "binary_kl-a": ("a", lambda x: binary_kl(x, 0.5)),
    "binary_kl-b": ("b", lambda x: binary_kl(0.5, x)),
    "bernoulli": ("p", bernoulli),
    "kl_per_toss": ("epsilon", kl_per_toss),
    "query-epsilon": ("epsilon", lambda x: SampleComplexityQuery(x, 0.01)),
    "query-delta": ("delta", lambda x: SampleComplexityQuery(0.1, x)),
    "TflParameter": ("lam", TflParameter),
    "pinsker_via_tfl-kl": ("kl", lambda x: pinsker_via_tfl(x, 1.0)),
    "pinsker_via_tfl-lam": ("lam", lambda x: pinsker_via_tfl(0.5, x)),
    "pinsker_via_tfl_optimal": ("kl", pinsker_via_tfl_optimal),
    "scan_bernoulli": ("tolerance", lambda x: scan_bernoulli(InequalityId.BH, 10, x)),
    "falsify": ("tolerance", lambda x: falsify(InequalityId.BH, 10, 8, 1, x)),
    "run_suite-grid": ("tolerance", lambda x: run_suite("grid", grid_tolerance=x)),
    "run_suite-random": ("tolerance", lambda x: run_suite("random", random_tolerance=x)),
    "bernoulli_margin-p": ("p", lambda x: bernoulli_margin(InequalityId.BH, x, 0.5)),
    "bernoulli_margin-q": ("q", lambda x: bernoulli_margin(InequalityId.BH, 0.5, x)),
    "random_distribution": ("concentration", lambda x: random_distribution(0, 5, x)),
}


@pytest.mark.parametrize("value", NON_NUMBERS, ids=["str", "None", "list", "10^400"])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_number_is_out_of_range(entry, value):
    name, call = entry
    with pytest.raises(OutOfRangeError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name}: ")
    assert "\n" not in message


P, Q = bernoulli(0.3), bernoulli(0.6)

# 8.0 is integral but still refused: nothing is truncated or parsed.
NON_INTEGERS = ["x", None, [1], 2.5, "10", 8.0]

INTEGER_ENTRY_POINTS = {
    "scan_bernoulli-resolution": ("resolution", lambda x: scan_bernoulli(InequalityId.BH, x)),
    "falsify-trials": ("trials", lambda x: falsify(InequalityId.BH, x, 8, 1)),
    "falsify-atoms": ("atoms", lambda x: falsify(InequalityId.BH, 10, x, 1)),
    "falsify-seed": ("seed", lambda x: falsify(InequalityId.BH, 10, 8, x)),
    "random_distribution-seed": ("seed", lambda x: random_distribution(x, 5, 1.0)),
    "random_distribution-atoms": ("atoms", lambda x: random_distribution(0, x, 1.0)),
    "kl_finite-trials": ("trials", lambda x: kl_finite_implies_tv_lt_one(x, 0)),
    "kl_finite-seed": ("seed", lambda x: kl_finite_implies_tv_lt_one(5, x)),
    "run_suite-seed": ("seed", lambda x: run_suite("random", seed=x, trials=5, atoms=8)),
    "run_suite-resolution": ("resolution", lambda x: run_suite("grid", resolution=x)),
    "run_suite-trials": ("trials", lambda x: run_suite("random", trials=x, atoms=8)),
    "run_suite-atoms": ("atoms", lambda x: run_suite("random", trials=5, atoms=x)),
    "dv_supremum-trials": ("trials", lambda x: dv_supremum(P, Q, x, 0)),
    "dv_supremum-seed": ("seed", lambda x: dv_supremum(P, Q, 5, x)),
    "ipm_identity_check-trials": ("trials", lambda x: ipm_identity_check(P, Q, x, 0)),
    "ipm_identity_check-seed": ("seed", lambda x: ipm_identity_check(P, Q, 5, x)),
    "figure_rows": ("points", lambda x: figure_rows(FigureId.FIG_FORWARD, x)),
    "ProductSpec": ("power", lambda x: ProductSpec(P, x)),
}


@pytest.mark.parametrize("value", NON_INTEGERS, ids=["str", "None", "list", "2.5", "'10'", "8.0"])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS.keys())
def test_non_integer_is_out_of_range(entry, value):
    name, call = entry
    with pytest.raises(OutOfRangeError) as info:
        call(value)
    assert str(info.value) == f"{name}: {value!r} is not an integer"


RANGE_EDGES = {
    "scan_bernoulli": (lambda: scan_bernoulli(InequalityId.BH, 1), "resolution: 1 must be >= 2"),
    "falsify-trials": (lambda: falsify(InequalityId.BH, 0, 8, 1), "trials: 0 must be >= 1"),
    "falsify-atoms-low": (lambda: falsify(InequalityId.BH, 10, 1, 1), "atoms: 1 not in [2, 64]"),
    "falsify-atoms-high": (
        lambda: falsify(InequalityId.BH, 10, 65, 1), "atoms: 65 not in [2, 64]"
    ),
    "random_distribution": (lambda: random_distribution(0, 0, 1.0), "atoms: 0 must be >= 1"),
    "kl_finite": (lambda: kl_finite_implies_tv_lt_one(0, 0), "trials: 0 must be >= 1"),
    "dv_supremum": (lambda: dv_supremum(P, Q, -1, 0), "trials: -1 must be >= 0"),
    "ipm_identity_check": (lambda: ipm_identity_check(P, Q, -1, 0), "trials: -1 must be >= 0"),
    "figure_rows": (lambda: figure_rows(FigureId.FIG_FORWARD, 1), "points: 1 must be >= 2"),
    "ProductSpec": (lambda: ProductSpec(P, 0), "power: 0 must be >= 1"),
}


@pytest.mark.parametrize("entry", RANGE_EDGES.values(), ids=RANGE_EDGES.keys())
def test_integer_out_of_range_keeps_its_message(entry):
    call, message = entry
    with pytest.raises(OutOfRangeError) as info:
        call()
    assert str(info.value) == message


class _Index:
    """An integer type that is not an int, as numpy's are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_types_pass_and_are_converted():
    assert figure_rows(FigureId.FIG_FORWARD, _Index(3)) == figure_rows(FigureId.FIG_FORWARD, 3)
    assert ProductSpec(P, _Index(2)).power == 2
    assert random_distribution(True, 4, 1.0) == random_distribution(1, 4, 1.0)
    # a negative seed is an integer like any other
    report = falsify(InequalityId.BH, _Index(10), _Index(8), _Index(-3))
    assert report.to_json_dict() == falsify(InequalityId.BH, 10, 8, -3).to_json_dict()
    assert "seed=-3," in report.grid
