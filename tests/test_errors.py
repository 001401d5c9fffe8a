"""Every public scalar entry point turns a non-number into OutOfRangeError
with a one-line message naming the argument, and every integer entry point
does the same for a value that is not an integer. An id with no such curve
or check is refused as a ValidationError naming its argument, and so is
anything but an id member where an id is expected."""

import inspect
import math
from functools import partial

import pytest

import tvkl
from tvkl import (
    BoundId,
    EventSubset,
    FigureId,
    InequalityId,
    OutOfRangeError,
    ProductSpec,
    SampleComplexityQuery,
    TvklError,
    ValidationError,
    WitnessFunction,
    bernoulli,
    bernoulli_margin,
    binary_kl,
    binary_tv,
    compare_bounds,
    dv_supremum,
    falsify,
    figure_rows,
    forward_value,
    inverse_value,
    kl_finite_implies_tv_lt_one,
    kl_lower,
    kl_lower_vajda,
    kl_per_toss,
    pinsker_via_tfl,
    pinsker_via_tfl_optimal,
    random_distribution,
    run_suite,
    scan_bernoulli,
    tv_upper_from_vajda,
)
from tvkl.bounds import INVERSE_ORDER

NON_NUMBERS = {"str": "x", "None": None, "list": [1], "10^400": 10**400}

# Every curve of bounds is reached through forward_value or inverse_value,
# each keyed by the bound it gives: "tv_upper_bh" is the bh upper bound on
# TV, forward_value(BoundId.BH, kl), and "kl_lower_bh" the bh lower bound on
# KL, inverse_value(BoundId.BH, tv).
ENTRY_POINTS = {
    "tv_upper_pinsker": ("kl", partial(forward_value, BoundId.PINSKER)),
    "tv_upper_bh": ("kl", partial(forward_value, BoundId.BH)),
    "tv_upper_tsybakov": ("kl", partial(forward_value, BoundId.TSYBAKOV)),
    "tv_upper_weak_bh": ("kl", partial(forward_value, BoundId.WEAK_BH)),
    "tv_upper_trivial": ("kl", partial(forward_value, BoundId.TRIVIAL)),
    "tv_upper_from_vajda": ("kl", tv_upper_from_vajda),
    "forward_value": ("kl", partial(forward_value, BoundId.VAJDA)),
    "compare_bounds": ("kl", compare_bounds),
    "kl_lower_pinsker": ("tv", partial(inverse_value, BoundId.PINSKER)),
    "kl_lower_bh": ("tv", partial(inverse_value, BoundId.BH)),
    "kl_lower_tsybakov": ("tv", partial(inverse_value, BoundId.TSYBAKOV)),
    "kl_lower_vajda": ("tv", kl_lower_vajda),
    "kl_lower": ("tv", lambda x: kl_lower(BoundId.VAJDA, x)),
    "inverse_value": ("tv", partial(inverse_value, BoundId.VAJDA)),
    "binary_tv-a": ("a", lambda x: binary_tv(x, 0.5)),
    "binary_tv-b": ("b", lambda x: binary_tv(0.5, x)),
    "binary_kl-a": ("a", lambda x: binary_kl(x, 0.5)),
    "binary_kl-b": ("b", lambda x: binary_kl(0.5, x)),
    "bernoulli": ("p", bernoulli),
    "kl_per_toss": ("epsilon", kl_per_toss),
    "query-epsilon": ("epsilon", lambda x: SampleComplexityQuery(x, 0.01)),
    "query-delta": ("delta", lambda x: SampleComplexityQuery(0.1, x)),
    "pinsker_via_tfl-kl": ("kl", lambda x: pinsker_via_tfl(x, 1.0)),
    "pinsker_via_tfl-lam": ("lam", lambda x: pinsker_via_tfl(0.5, x)),
    "pinsker_via_tfl_optimal": ("kl", pinsker_via_tfl_optimal),
    "scan_bernoulli": ("tolerance", lambda x: scan_bernoulli(InequalityId.BH, 10, x)),
    "falsify": ("tolerance", lambda x: falsify(InequalityId.BH, 10, 8, 1, x)),
    # The one tolerance is checked whichever engine the suite runs.
    "run_suite-grid": ("tolerance", lambda x: run_suite("grid", tolerance=x)),
    "run_suite-random": ("tolerance", lambda x: run_suite("random", tolerance=x)),
    "bernoulli_margin-p": ("p", lambda x: bernoulli_margin(InequalityId.BH, x, 0.5)),
    "bernoulli_margin-q": ("q", lambda x: bernoulli_margin(InequalityId.BH, 0.5, x)),
    "random_distribution": ("concentration", lambda x: random_distribution(0, 5, x)),
    "WitnessFunction": ("values[1]", lambda x: WitnessFunction((0.0, x))),
}


#: Entry points whose argument reads None as "keep the default".
NONE_IS_DEFAULT = {"run_suite-grid", "run_suite-random"}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{key}-{value_id}")
    for key, entry in ENTRY_POINTS.items()
    for value_id, value in NON_NUMBERS.items()
    if not (value is None and key in NONE_IS_DEFAULT)
])
def test_non_number_is_out_of_range(entry, value):
    name, call = entry
    with pytest.raises(OutOfRangeError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name}: ")
    assert "\n" not in message


def test_entry_points_reach_every_curve():
    reached = {(call.func, call.args) for _, call in ENTRY_POINTS.values()
               if isinstance(call, partial)}
    assert {(forward_value, (b,)) for b in BoundId} <= reached
    assert {(inverse_value, (b,)) for b in INVERSE_ORDER} <= reached


def test_negative_zero_is_read_as_zero():
    # -0.0 is a valid 0, and no output or stored weight keeps its sign
    values = [row.output for row in compare_bounds(-0.0)]
    values += [*pinsker_via_tfl_optimal(-0.0), *bernoulli(-0.0).probs,
               inverse_value(BoundId.BH, -0.0)]
    assert all(math.copysign(1.0, v) == 1.0 for v in values), values


#: Calls naming an id that has no such curve or check: each is refused with
#: a one-line message naming the argument, not a KeyError or AttributeError.
UNKNOWN_IDS = {
    "kl_lower": ("bound", lambda: kl_lower(BoundId.WEAK_BH, 0.5)),
    "inverse_value": ("bound", lambda: inverse_value(BoundId.TRIVIAL, 0.5)),
    "inverse_value-str": ("bound", lambda: inverse_value("bh", 0.5)),
    "falsify": ("inequality", lambda: falsify("bh", 10, 8, 1)),
    "falsify-pinsker_binary": (
        "inequality", lambda: falsify(InequalityId.PINSKER_BINARY, 10, 8, 1)),
    "scan_bernoulli": ("inequality", lambda: scan_bernoulli("bh", 10)),
    "bernoulli_margin": ("inequality", lambda: bernoulli_margin("bh", 0.1, 0.2)),
    "bernoulli_margin-tfl_lower": (
        "inequality", lambda: bernoulli_margin(InequalityId.TFL_LOWER, 0.1, 0.2)),
}


@pytest.mark.parametrize("entry", UNKNOWN_IDS.values(), ids=UNKNOWN_IDS.keys())
def test_an_id_with_no_curve_or_check_is_refused(entry):
    name, call = entry
    with pytest.raises(ValidationError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name}: ")
    assert "\n" not in message


#: Each public function that takes an id, found by its annotation: any value
#: but a member of that enum is refused with a one-line TvklError naming the
#: parameter. A member's value ("bh") is refused too; the CLI converts
#: its strings itself.
ID_TYPES = {"BoundId": BoundId, "FigureId": FigureId, "InequalityId": InequalityId}
NOT_IDS = {"value": "bh", "list": [1], "dict": {}, "None": None, "object": object()}
#: A member of another id enum, per id enum.
FOREIGN = {BoundId: InequalityId.BH, FigureId: BoundId.PINSKER, InequalityId: BoundId.BH}
#: A valid value of every other required parameter of those functions.
VALID = {"kl": 0.5, "tv": 0.5, "points": 5, "resolution": 10, "p": 0.1, "q": 0.2,
         "trials": 10, "atoms": 8, "seed": 1}


def _id_parameters():
    for name in tvkl.__all__:
        entry = getattr(tvkl, name)
        if not inspect.isfunction(entry):
            continue
        for param in inspect.signature(entry).parameters.values():
            annotation = param.annotation
            if not isinstance(annotation, str):
                annotation = getattr(annotation, "__name__", None)
            if annotation in ID_TYPES:
                yield name, entry, param.name, ID_TYPES[annotation]


ID_PARAMETERS = list(_id_parameters())


def test_the_id_gate_finds_every_entry_that_takes_an_id():
    assert {name for name, *_ in ID_PARAMETERS} >= {
        "forward_value", "inverse_value", "kl_lower", "figure_header", "figure_rows",
        "write_figure_csv", "scan_bernoulli", "bernoulli_margin", "falsify"}


@pytest.mark.parametrize("entry, param, value", [
    pytest.param(entry, param, value, id=f"{name}-{value_id}")
    for name, entry, param, kind in ID_PARAMETERS
    for value_id, value in [*NOT_IDS.items(), ("member_value", list(kind)[-1].value),
                            ("foreign", FOREIGN[kind])]
])
def test_anything_but_an_id_member_is_refused(tmp_path, entry, param, value):
    valid = {**VALID, "path": tmp_path / "figure.csv"}
    arguments = {
        p.name: value if p.name == param else valid[p.name]
        for p in inspect.signature(entry).parameters.values()
        if p.default is inspect.Parameter.empty
    }
    with pytest.raises(TvklError) as info:
        entry(**arguments)
    message = str(info.value)
    assert message.startswith(f"{param}: ")
    assert "\n" not in message
    assert not any(tmp_path.iterdir())


P, Q = bernoulli(0.3), bernoulli(0.6)
# The IPM identity is checked through falsify, as the other derivation steps.
IPM_IDENTITY = InequalityId.IPM_IDENTITY

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
    "ipm_identity_check-trials": ("trials", lambda x: falsify(IPM_IDENTITY, x, 8, 0)),
    "ipm_identity_check-seed": ("seed", lambda x: falsify(IPM_IDENTITY, 5, 8, x)),
    "figure_rows": ("points", lambda x: figure_rows(FigureId.FIG_FORWARD, x)),
    "ProductSpec": ("power", lambda x: ProductSpec(P, x)),
    "EventSubset.empty": ("size", EventSubset.empty),
    "EventSubset.full": ("size", EventSubset.full),
    "EventSubset.from_indices-size": ("size", lambda x: EventSubset.from_indices(x, [0])),
    "EventSubset.from_indices-index": ("index", lambda x: EventSubset.from_indices(3, [0, x])),
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
    "ipm_identity_check": (lambda: falsify(IPM_IDENTITY, -1, 8, 0), "trials: -1 must be >= 1"),
    "figure_rows": (lambda: figure_rows(FigureId.FIG_FORWARD, 1), "points: 1 must be >= 2"),
    "ProductSpec": (lambda: ProductSpec(P, 0), "power: 0 must be >= 1"),
    "EventSubset.empty": (lambda: EventSubset.empty(-2), "size: -2 must be >= 0"),
    "EventSubset.full": (lambda: EventSubset.full(-2), "size: -2 must be >= 0"),
    "EventSubset.from_indices-size": (
        lambda: EventSubset.from_indices(-2, []), "size: -2 must be >= 0"
    ),
    "EventSubset.from_indices-index-high": (
        lambda: EventSubset.from_indices(3, [5]), "index: 5 not in [0, 2]"
    ),
    "EventSubset.from_indices-index-negative": (
        lambda: EventSubset.from_indices(3, [-1]), "index: -1 not in [0, 2]"
    ),
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
    assert report == falsify(InequalityId.BH, 10, 8, -3)
    assert "seed=-3," in report.grid
    assert EventSubset.from_indices(_Index(3), [_Index(2)]) == EventSubset.from_indices(3, [2])
    assert EventSubset.full(_Index(2)) == EventSubset.full(2)
