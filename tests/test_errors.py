"""Every public scalar entry point turns a non-number into OutOfRangeError
with a one-line message naming the argument."""

import pytest

from tvkl import (
    BoundId,
    InequalityId,
    OutOfRangeError,
    SampleComplexityQuery,
    TflParameter,
    bernoulli,
    bernoulli_margin,
    binary_kl,
    binary_tv,
    compare_bounds,
    falsify,
    forward_value,
    inverse_value,
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
