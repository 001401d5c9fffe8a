import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from tvkl import (
    Distribution,
    DuplicateLabelError,
    EmptySupportError,
    InvalidLabelError,
    LABEL_SEPARATOR,
    NegativeWeightError,
    OutOfRangeError,
    ProductSpec,
    SUM_TOLERANCE,
    SumToleranceError,
    TooLargeError,
    bernoulli,
    dump_distribution,
    dumps_distribution,
    kl_divergence,
    load_distribution,
    loads_distribution,
    new_distribution,
    tensor_power,
    total_variation,
)
from tvkl import distributions
from tvkl.distributions import _default_labels, from_json_dict, to_json_dict
from tvkl.divergence import _aligned
from tvkl.errors import ValidationError
from tvkl.verify import _draw_distribution, _seeded_pairs


class TestNewDistribution:
    def test_uniform_two_atoms(self):
        d = new_distribution([0.5, 0.5])
        assert d.support == ("0", "1")
        assert d.probs == (0.5, 0.5)

    def test_exact_three_atom_sum(self):
        d = new_distribution([0.2, 0.3, 0.5])
        assert d.probs == (0.2, 0.3, 0.5)

    def test_sum_out_of_tolerance_reports_sum(self):
        with pytest.raises(SumToleranceError) as exc:
            new_distribution([0.2, 0.3, 0.5000001])
        assert exc.value.total == pytest.approx(1.0000001)

    def test_sum_just_inside_tolerance(self):
        new_distribution([0.5, 0.5 + 9e-10])

    def test_renormalize_divides_by_the_sum(self):
        d = new_distribution([2.0, 6.0], renormalize=True)
        assert d.probs == (0.25, 0.75)

    def test_zero_weight_atoms_are_retained(self):
        d = new_distribution([0.0, 1.0, 0.0])
        assert len(d) == 3
        assert d.probs == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "weights, error",
        [
            ([], EmptySupportError),
            ([-0.1, 1.1], NegativeWeightError),
            ([math.nan, 1.0], NegativeWeightError),
            ([math.inf, 1.0], NegativeWeightError),
            ([0.0, 0.0], SumToleranceError),
        ],
    )
    def test_invalid_weights(self, weights, error):
        with pytest.raises(error):
            new_distribution(weights)

    @pytest.mark.parametrize(
        "weights, i", [(["x", 1], 0), ([None, 1], 0), ([1, 0, object()], 2)]
    )
    def test_weight_float_refuses_names_its_index(self, weights, i):
        with pytest.raises(NegativeWeightError) as exc:
            new_distribution(weights)
        assert str(exc.value) == (
            f"weights[{i}]: weight {weights[i]!r} is not a finite number"
        )

    def test_all_zero_rejected_even_with_renormalize(self):
        with pytest.raises(SumToleranceError):
            new_distribution([0.0, 0.0], renormalize=True)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            new_distribution([0.5, 0.5], labels=["a", "a"])

    def test_reserved_separator_rejected_in_labels(self):
        with pytest.raises(InvalidLabelError):
            new_distribution([0.5, 0.5], labels=["a", f"b{LABEL_SEPARATOR}c"])

    def test_label_count_must_match(self):
        with pytest.raises(ValidationError):
            new_distribution([0.5, 0.5], labels=["a"])

    def test_immutable(self):
        d = new_distribution([1.0])
        with pytest.raises(AttributeError):
            d.probs = (0.5, 0.5)


class TestBernoulli:
    def test_fair(self):
        d = bernoulli(0.5)
        assert d.support == ("1", "0")
        assert d.probs == (0.5, 0.5)

    def test_boundary_keeps_zero_atom(self):
        d = bernoulli(0.0)
        assert d.probs == (0.0, 1.0)

    def test_biased(self):
        assert bernoulli(0.6).probs == (0.6, 0.4)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_out_of_range(self, p):
        with pytest.raises(OutOfRangeError):
            bernoulli(p)


class TestTensorPower:
    def test_uniform_cube(self):
        d = tensor_power(ProductSpec(bernoulli(0.5), 3))
        assert len(d) == 8
        assert all(w == 0.125 for w in d.probs)
        assert d.support[0] == LABEL_SEPARATOR.join(["1", "1", "1"])

    def test_degenerate_base(self):
        d = tensor_power(ProductSpec(bernoulli(1.0), 2))
        weights = dict(zip(d.support, d.probs))
        assert weights[LABEL_SEPARATOR.join(["1", "1"])] == 1.0
        assert sorted(d.probs) == [0.0, 0.0, 0.0, 1.0]

    def test_kl_additivity_against_explicit_product(self):
        # oracle: the explicit 32-atom sum against 5x the 2-atom value
        base_p, base_q = bernoulli(0.5), bernoulli(0.6)
        five_p = tensor_power(ProductSpec(base_p, 5))
        five_q = tensor_power(ProductSpec(base_q, 5))
        explicit = kl_divergence(five_p, five_q)
        assert explicit == pytest.approx(5 * kl_divergence(base_p, base_q), abs=1e-12)
        assert explicit == pytest.approx(0.10205498630063786, abs=1e-12)

    def test_weight_sum_within_tolerance(self):
        d = tensor_power(ProductSpec(new_distribution([0.2, 0.3, 0.5]), 8))
        assert len(d) == 3**8
        assert abs(math.fsum(d.probs) - 1.0) <= 1e-9

    def test_marginals_recover_base(self):
        base = new_distribution([0.1, 0.2, 0.7])
        d = tensor_power(ProductSpec(base, 3))
        for position in range(3):
            marginal = {lab: 0.0 for lab in base.support}
            sums = {lab: [] for lab in base.support}
            for lab, w in zip(d.support, d.probs):
                sums[lab.split(LABEL_SEPARATOR)[position]].append(w)
            for lab in base.support:
                marginal[lab] = math.fsum(sums[lab])
            for lab, w in zip(base.support, base.probs):
                assert marginal[lab] == pytest.approx(w, abs=1e-12)

    def test_power_must_be_positive(self):
        with pytest.raises(OutOfRangeError, match=r"^power: 0 must be >= 1$"):
            ProductSpec(bernoulli(0.5), 0)

    def test_power_is_stored_as_an_int(self):
        spec = ProductSpec(bernoulli(0.5), True)
        assert spec.power == 1 and type(spec.power) is int

    @pytest.mark.parametrize(
        "support, probs",
        [
            (("a",), (1.0,)),
            (("h", "t"), (0.0, 1.0)),
            (("x", "y", "z"), (5e-324, 0.5, 0.5)),
            (("u", "v", "w"), (1 / 3, 1 / 3, 1 / 3)),
            (("0", "1", "2", "3"), (0.1, 0.2, 0.3, 0.4 + 1e-10)),
            (("m", "z", "o"), (-0.0, 0.0, 1.0)),  # products of both zero signs
            (("s", "l"), (1e-200, 1.0)),  # products that underflow to 0.0
        ],
    )
    def test_matches_reference_construction_bit_for_bit(self, support, probs):
        # oracle: each atom built from its own combination, as a join of the
        # component labels and math.prod of the component weights
        base = Distribution(support, probs)
        k = len(support)
        for power in range(1, 7):
            combos = list(itertools.product(range(k), repeat=power))
            labels = tuple(LABEL_SEPARATOR.join(support[i] for i in c) for c in combos)
            weights = [math.prod(probs[i] for i in c) for c in combos]
            d = tensor_power(ProductSpec(base, power))
            assert d.support == labels
            assert [w.hex() for w in d.probs] == [w.hex() for w in weights]

    def test_colliding_product_labels_rejected(self):
        # a base built directly may carry the separator in a label: ("a",
        # "a·a") squared gives the label "a·a·a" twice
        base = Distribution(("a", f"a{LABEL_SEPARATOR}a"), (0.5, 0.5))
        for power in (2, 3):
            with pytest.raises(DuplicateLabelError):
                tensor_power(ProductSpec(base, power))

    @pytest.mark.parametrize(
        "probs", [(0.5 + 4e-10, 0.5 + 4e-10), (0.5, 0.5 + 9e-10), (0.5 - 5e-10, 0.5 - 4e-10)]
    )
    def test_base_within_tolerance_is_valid_at_every_power(self, probs):
        # the base sums to S within tolerance and its raw products to S^n,
        # which leaves it by power 4 at most
        base = Distribution(("a", "b"), probs)
        for power in range(1, 13):
            d = tensor_power(ProductSpec(base, power))
            assert abs(math.fsum(d.probs) - 1.0) <= SUM_TOLERANCE
            assert_bit_identical(d, checked_tensor_power(base, power))

    @pytest.mark.parametrize("probs, power", [
        ((0.1, 0.15, 0.2, 0.25, 0.3), 5),
        ((0.3, 0.7), 12),  # a coin
        ((0.25, 0.25, 0.25, 0.25), 3),  # equal base weights share from the first level
    ])
    def test_equal_weights_share_their_products(self, probs, power):
        # atoms whose weights agree but for the last factor share that
        # product's float
        base = Distribution(_default_labels(len(probs)), probs)
        d = tensor_power(ProductSpec(base, power))
        assert_bit_identical(d, checked_tensor_power(base, power))
        floats = {}
        for c, w in zip(itertools.product(range(len(probs)), repeat=power), d.probs):
            floats.setdefault((math.prod(probs[i] for i in c[:-1]), c[-1]), set()).add(id(w))
        assert all(len(ids) == 1 for ids in floats.values())
        assert len(set(map(id, d.probs))) <= len(floats) <= len(d) // 2

    @pytest.mark.parametrize("power", [2, 5])
    def test_zero_weights_keep_their_signs_when_divided(self, power):
        # the base drifts past the tolerance by power 2, so every weight,
        # -0.0 and 0.0 among them, is divided by the sum
        probs = (-0.0, 0.0, 0.5, 0.5 + 9e-10)
        base = Distribution(_default_labels(len(probs)), probs)
        d = tensor_power(ProductSpec(base, power))
        assert_bit_identical(d, checked_tensor_power(base, power))
        assert {math.copysign(1.0, w) for w in d.probs if w == 0.0} == {1.0, -1.0}

    def test_product_weights_hold_one_float_per_distinct_row_entry(self):
        # a seeded 8^6 product, its labels lent by a live twin, so that only
        # its weights are new: 262,144 floats of their own would take 6.3 MB
        base = _draw_distribution(random.Random(1), 8, 1.0)
        first = tensor_power(ProductSpec(base, 6))
        tracemalloc.start()
        try:
            d = tensor_power(ProductSpec(base, 6))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert d.support is first.support
        assert held < 3_000_000
        assert len(set(map(id, d.probs))) < len(d) // 10
        assert_bit_identical(d, first)

    def test_one_atom_base_at_a_high_power(self):
        n = 40_000
        for weight in (1.0, 1.0 + 5e-10):
            d = tensor_power(ProductSpec(Distribution(("a",), (weight,)), n))
            assert d.support == (LABEL_SEPARATOR.join(["a"] * n),)
            assert d.probs == (1.0,)

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            tensor_power(ProductSpec(bernoulli(0.5), 21))
        # 2^20 atoms is exactly at the cap and allowed
        assert len(tensor_power(ProductSpec(bernoulli(0.5), 20))) == 2**20

    def test_cap_at_a_huge_power(self):
        # refused without forming 2^n, whose size grows with n
        with pytest.raises(TooLargeError, match=r"^power: 2\^100000000 atoms exceed"):
            tensor_power(ProductSpec(bernoulli(0.5), 10**8))

    def test_a_live_product_lends_its_labels_to_the_next(self):
        # both products of a coin pair have the same labels; the second
        # takes the first's tuple, and an aligned pair skips the comparison
        pp = tensor_power(ProductSpec(bernoulli(0.3), 5))
        qp = tensor_power(ProductSpec(bernoulli(0.7), 5))
        assert qp.support is pp.support
        assert_bit_identical(pp, checked_tensor_power(bernoulli(0.3), 5))
        assert_bit_identical(qp, checked_tensor_power(bernoulli(0.7), 5))
        assert _aligned(pp, qp)[0] is pp.support
        # equal labels in another tuple are equal base labels
        a = tensor_power(ProductSpec(Distribution(("x", "y"), (0.5, 0.5)), 3))
        b = tensor_power(ProductSpec(Distribution(tuple("xy"), (0.25, 0.75)), 3))
        assert b.support is a.support
        assert_bit_identical(b, checked_tensor_power(Distribution(("x", "y"), (0.25, 0.75)), 3))

    def test_no_sharing_across_powers_or_unequal_base_labels(self):
        # each case differs from the live product in its power or its labels
        for base, power in [(bernoulli(0.7), 3), (bernoulli(0.7), 5),
                            (Distribution(("0", "1"), (0.5, 0.5)), 4),
                            (Distribution(("1", "0", "2"), (0.5, 0.25, 0.25)), 4),
                            (Distribution(("a", "b"), (0.5, 0.5)), 4)]:
            first = tensor_power(ProductSpec(bernoulli(0.3), 4))
            d = tensor_power(ProductSpec(base, power))
            assert d.support is not first.support
            assert_bit_identical(d, checked_tensor_power(base, power))

    def test_the_entry_keeps_no_product_alive(self):
        # 2^16 atoms: once the product is dropped its labels are freed, and
        # the next product of equal base labels builds its own
        tracemalloc.start()
        try:
            first = tensor_power(ProductSpec(bernoulli(0.3), 16))
            label_bytes = sum(map(sys.getsizeof, first.support))
            held = tracemalloc.get_traced_memory()[0]
            del first
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed > label_bytes > 2**16 * 31
        assert distributions._last_product[2]() is None
        again = tensor_power(ProductSpec(bernoulli(0.7), 16))
        assert_bit_identical(again, checked_tensor_power(bernoulli(0.7), 16))


@st.composite
def weight_lists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    if math.fsum(raw) <= 0:
        raw[0] = 1.0
    return raw


class TestSerialization:
    @given(weight_lists())
    def test_round_trip_is_bit_exact(self, raw):
        d = new_distribution(raw, renormalize=True)
        back = loads_distribution(dumps_distribution(d))
        assert back.support == d.support
        assert back.probs == d.probs

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        d = Distribution(("a", "b", "c"), (5e-324, 0.1, 0.9 - 5e-324))
        path = tmp_path / "d.json"
        dump_distribution(d, path)
        back = load_distribution(path)
        assert back.support == d.support
        assert [w.hex() for w in back.probs] == [w.hex() for w in d.probs]
        assert path.read_text(encoding="utf-8").endswith("}\n")

    @pytest.mark.parametrize("raw", [b"\xff\xfe", b"\xff\xfe{}", b'{"probs": [1\xe9]}'])
    def test_a_file_that_is_not_utf8_is_invalid(self, tmp_path, raw):
        path = tmp_path / "d.json"
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="not UTF-8 text"):
            load_distribution(path)

    def test_support_defaults_to_indices(self):
        d = loads_distribution('{"probs": [0.5, 0.5]}')
        assert d.support == ("0", "1")

    def test_explicit_support(self):
        d = loads_distribution('{"support": ["a", "b"], "probs": [0.4, 0.6]}')
        assert d.support == ("a", "b")

    def test_renormalize_flag(self):
        d = loads_distribution('{"probs": [1, 3]}', renormalize=True)
        assert d.probs == (0.25, 0.75)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[1, 2]", "top level"),
            ("{}", "probs"),
            ('{"probs": "x"}', "probs"),
            ('{"probs": [0.5, "x"]}', "probs[1]"),
            ('{"support": "x", "probs": [1.0]}', "support"),
            ("{not json", "invalid JSON"),
        ],
    )
    def test_errors_name_the_offending_field(self, text, fragment):
        with pytest.raises(ValidationError, match=fragment.replace("[", "\\[")):
            loads_distribution(text)


class TestOverflowAndNesting:
    def test_integer_too_large_for_a_float(self):
        text = '{"probs": [1%s, 1]}' % ("0" * 400)
        with pytest.raises(NegativeWeightError):
            loads_distribution(text, renormalize=True)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_sum_beyond_the_largest_double(self, renormalize):
        with pytest.raises(SumToleranceError):
            new_distribution([1e308, 1e308], renormalize=renormalize)

    def test_deeply_nested_json(self):
        with pytest.raises(ValidationError, match="nested"):
            loads_distribution("[" * 100_000)


@given(st.text(), st.booleans())
def test_any_text_loads_or_raises_validation_error(text, renormalize):
    try:
        loads_distribution(text, renormalize=renormalize)
    except ValidationError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@given(
    st.fixed_dictionaries(
        {"probs": st.lists(st.integers(0, 10**400) | st.floats() | json_values)},
        optional={"support": st.lists(st.text() | json_values) | json_values},
    ),
    st.booleans(),
)
def test_any_json_document_loads_or_raises_validation_error(obj, renormalize):
    # near-miss documents reach the weight and label checks, which random
    # text rarely does
    try:
        loads_distribution(json.dumps(obj), renormalize=renormalize)
    except ValidationError:
        pass


def test_direct_construction_validates():
    with pytest.raises(SumToleranceError):
        Distribution(("a",), (0.5,))
    with pytest.raises(EmptySupportError):
        Distribution((), ())


@pytest.mark.parametrize(
    "support, probs, error, message",
    [
        (("a", 1), (0.5, 0.5), InvalidLabelError, "support[1]: labels must be strings"),
        (("a", "b"), (0.5, math.nan), NegativeWeightError,
         "probs[1]: weight nan is not a finite number"),
        (("a", "b", "c"), (1.0, -0.5, 0.5), NegativeWeightError,
         "probs[1]: negative weight -0.5"),
        (("a", "b"), (0.0, 1), NegativeWeightError,
         "probs[1]: weight 1 is not a finite number"),
    ],
)
def test_direct_construction_names_the_first_bad_atom(support, probs, error, message):
    with pytest.raises(error) as exc:
        Distribution(support, probs)
    assert type(exc.value) is error
    assert str(exc.value) == message


# -- refusals -------------------------------------------------------------

nan, inf, S = math.nan, math.inf, LABEL_SEPARATOR
RENORMALIZE = {"renormalize": True}


class F(float):
    """A float subclass: the weight checks take it as a float."""


# Each bad input with the exception class and message that the per-atom
# checks raised before the one-scan checks replaced them; each scan that
# fails walks the atoms as those checks did, so these stay as they were.
REFUSALS = [
    ("nan-bad-sum", Distribution, (("a", "b", "c"), (0.9, nan, 0.9)), {},
     NegativeWeightError, "probs[1]: weight nan is not a finite number"),
    ("inf-and-minus-inf", Distribution, (("a", "b"), (inf, -inf)), {},
     NegativeWeightError, "probs[0]: weight inf is not a finite number"),
    ("minus-inf-and-inf", Distribution, (("a", "b", "c"), (0.5, -inf, inf)), {},
     NegativeWeightError, "probs[1]: weight -inf is not a finite number"),
    ("two-1e308", Distribution, (("a", "b"), (1e308, 1e308)), {},
     SumToleranceError, "probs: weights sum to inf, more than 1e-09 away from 1"),
    ("minus-zero-bad-sum", Distribution, (("a", "b"), (-0.0, 0.5)), {},
     SumToleranceError, "probs: weights sum to 0.5, more than 1e-09 away from 1"),
    ("minus-zero-then-negative", Distribution, (("a", "b", "c"), (-0.0, -1e-300, 1.0)), {},
     NegativeWeightError, "probs[1]: negative weight -1e-300"),
    ("int", Distribution, (("a", "b"), (1, 0.0)), {},
     NegativeWeightError, "probs[0]: weight 1 is not a finite number"),
    ("bool", Distribution, (("a", "b"), (0.0, True)), {},
     NegativeWeightError, "probs[1]: weight True is not a finite number"),
    ("float-subclass-bad-sum", Distribution, (("a",), (F(0.5),)), {},
     SumToleranceError, "probs: weights sum to 0.5, more than 1e-09 away from 1"),
    ("float-subclass-negative", Distribution, (("a", "b"), (F(-0.5), 1.5)), {},
     NegativeWeightError, "probs[0]: negative weight -0.5"),
    ("separator-after-non-str", Distribution, ((1, "a" + S + "b"), (0.5, 0.5)), {},
     InvalidLabelError, "support[0]: labels must be strings"),
    ("duplicate", Distribution, (("a", "b", "a"), (0.25, 0.25, 0.5)), {},
     DuplicateLabelError, "support: duplicate label 'a'"),
    ("empty", Distribution, ((), ()), {},
     EmptySupportError, "support: must contain at least one atom"),
    ("empty-support", Distribution, ((), (1.0,)), {},
     EmptySupportError, "support: must contain at least one atom"),
    ("mismatch", Distribution, (("a",), (0.5, 0.5)), {},
     ValidationError, "probs: 2 weights for 1 labels"),
    ("nan-bad-sum", new_distribution, ([0.9, nan, 0.9],), {},
     NegativeWeightError, "probs[1]: weight nan is not a finite number"),
    ("nan-bad-sum-renormalize", new_distribution, ([0.9, nan, 0.9],), RENORMALIZE,
     NegativeWeightError, "probs[1]: weight nan is not a finite number"),
    ("inf-and-minus-inf", new_distribution, ([inf, -inf],), {},
     NegativeWeightError, "probs[0]: weight inf is not a finite number"),
    ("inf-and-minus-inf-renormalize", new_distribution, ([inf, -inf],), RENORMALIZE,
     NegativeWeightError, "probs[0]: weight inf is not a finite number"),
    ("two-1e308", new_distribution, ([1e308, 1e308],), {},
     SumToleranceError, "probs: weights sum to inf, more than 1e-09 away from 1"),
    ("two-1e308-renormalize", new_distribution, ([1e308, 1e308],), RENORMALIZE,
     SumToleranceError, "probs: weights sum to inf, more than 1e-09 away from 1"),
    ("minus-zero-bad-sum", new_distribution, ([-0.0, 0.5],), {},
     SumToleranceError, "probs: weights sum to 0.5, more than 1e-09 away from 1"),
    ("minus-zero-renormalize", new_distribution, ([-0.0, -0.0],), RENORMALIZE,
     SumToleranceError, "probs: weights sum to 0.0, more than 1e-09 away from 1"),
    ("int-bad-sum", new_distribution, ([1, 1],), {},
     SumToleranceError, "probs: weights sum to 2.0, more than 1e-09 away from 1"),
    ("bool-bad-sum", new_distribution, ([True, True],), {},
     SumToleranceError, "probs: weights sum to 2.0, more than 1e-09 away from 1"),
    ("negative-renormalize", new_distribution, ([2.0, -1.0],), RENORMALIZE,
     NegativeWeightError, "probs[1]: negative weight -1.0"),
    ("float-subclass-negative", new_distribution, ([F(1.5), F(-0.5)],), {},
     NegativeWeightError, "probs[1]: negative weight -0.5"),
    ("not-a-number", new_distribution, ([0.5, "x"],), {},
     NegativeWeightError, "weights[1]: weight 'x' is not a finite number"),
    ("too-large", new_distribution, ([1, 10**400],), RENORMALIZE,
     NegativeWeightError, "weights: a weight is too large for a float"),
    ("separator-after-non-str", new_distribution, ([0.5, 0.5], [1, "a" + S + "b"]), {},
     InvalidLabelError, "labels[1]: 'a·b' contains the reserved separator '·'"),
    ("non-str-label", new_distribution, ([0.5, 0.5], ["a", 1]), {},
     InvalidLabelError, "support[1]: labels must be strings"),
    ("duplicate", new_distribution, ([0.5, 0.5], ["a", "a"]), {},
     DuplicateLabelError, "support: duplicate label 'a'"),
    ("empty", new_distribution, ([],), {},
     EmptySupportError, "support: must contain at least one atom"),
    ("empty-renormalize", new_distribution, ([],), RENORMALIZE,
     EmptySupportError, "support: must contain at least one atom"),
    ("mismatch", new_distribution, ([1.0], ["a", "b"]), {},
     ValidationError, "probs: 1 weights for 2 labels"),
    ("mismatch-renormalize", new_distribution, ([1.0, 1.0], ["a"]), RENORMALIZE,
     ValidationError, "probs: 2 weights for 1 labels"),
    ("nan-bad-sum", from_json_dict, ({"probs": [0.9, nan, 0.9]},), {},
     NegativeWeightError, "probs[1]: weight nan is not a finite number"),
    ("inf-and-minus-inf", from_json_dict, ({"probs": [inf, -inf]},), RENORMALIZE,
     NegativeWeightError, "probs[0]: weight inf is not a finite number"),
    ("two-1e308", from_json_dict, ({"probs": [1e308, 1e308]},), {},
     SumToleranceError, "probs: weights sum to inf, more than 1e-09 away from 1"),
    ("minus-zero-bad-sum", from_json_dict, ({"probs": [-0.0, 0.5]},), {},
     SumToleranceError, "probs: weights sum to 0.5, more than 1e-09 away from 1"),
    ("bool", from_json_dict, ({"probs": [0.5, False, 0.5]},), {},
     ValidationError, "probs[1]: False is not a number"),
    ("int-bad-sum", from_json_dict, ({"probs": [1, 2]},), {},
     SumToleranceError, "probs: weights sum to 3.0, more than 1e-09 away from 1"),
    ("float-subclass-bad-sum", from_json_dict, ({"probs": [F(0.5)]},), {},
     SumToleranceError, "probs: weights sum to 0.5, more than 1e-09 away from 1"),
    ("string", from_json_dict, ({"probs": [0.5, "0.5"]},), {},
     ValidationError, "probs[1]: '0.5' is not a number"),
    ("separator-after-non-str", from_json_dict,
     ({"support": [1, "a" + S + "b"], "probs": [0.5, 0.5]},), {},
     InvalidLabelError, "labels[1]: 'a·b' contains the reserved separator '·'"),
    ("duplicate", from_json_dict, ({"support": ["a", "a"], "probs": [0.5, 0.5]},), {},
     DuplicateLabelError, "support: duplicate label 'a'"),
    ("empty", from_json_dict, ({"probs": []},), {},
     EmptySupportError, "support: must contain at least one atom"),
    ("mismatch", from_json_dict, ({"support": ["a"], "probs": [0.5, 0.5]},), {},
     ValidationError, "probs: 2 weights for 1 labels"),
    ("nan-bad-sum", loads_distribution, ('{"probs": [0.9, NaN, 0.9]}',), {},
     NegativeWeightError, "probs[1]: weight nan is not a finite number"),
    ("inf-and-minus-inf", loads_distribution, ('{"probs": [Infinity, -Infinity]}',), {},
     NegativeWeightError, "probs[0]: weight inf is not a finite number"),
    ("overflowing-literal", loads_distribution, ('{"probs": [1e400, 0.5]}',), RENORMALIZE,
     NegativeWeightError, "probs[0]: weight inf is not a finite number"),
    ("two-1e308", loads_distribution, ('{"probs": [1e308, 1e308]}',), RENORMALIZE,
     SumToleranceError, "probs: weights sum to inf, more than 1e-09 away from 1"),
    ("minus-zero-renormalize", loads_distribution, ('{"probs": [-0.0, 0]}',), RENORMALIZE,
     SumToleranceError, "probs: weights sum to 0.0, more than 1e-09 away from 1"),
    ("bool", loads_distribution, ('{"probs": [true, 0.0]}',), {},
     ValidationError, "probs[0]: True is not a number"),
    ("int-bad-sum", loads_distribution, ('{"probs": [1, 1]}',), {},
     SumToleranceError, "probs: weights sum to 2.0, more than 1e-09 away from 1"),
    ("separator-after-non-str", loads_distribution,
     ('{"support": [null, "a\\u00b7b"], "probs": [0.5, 0.5]}',), {},
     InvalidLabelError, "labels[1]: 'a·b' contains the reserved separator '·'"),
    ("duplicate", loads_distribution,
     ('{"support": ["a", "b", "b"], "probs": [0.5, 0.5, 0.0]}',), {},
     DuplicateLabelError, "support: duplicate label 'b'"),
    ("empty", loads_distribution, ('{"probs": []}',), RENORMALIZE,
     EmptySupportError, "support: must contain at least one atom"),
    ("mismatch", loads_distribution, ('{"support": ["a", "b"], "probs": [1.0]}',), {},
     ValidationError, "probs: 1 weights for 2 labels"),
]

# Refused since both fields are read through ``errors._tuple``: before, a
# str or bytes was read as its characters, a dict as its keys, and None or
# a float escaped as TypeError (or, as the support, gave EmptySupportError).
TUPLE_REFUSALS = [
    ("str-support", Distribution, ("ab", (0.5, 0.5)), {},
     OutOfRangeError, "support: 'ab' is a str, not a sequence"),
    ("none-support", Distribution, (None, (1.0,)), {},
     OutOfRangeError, "support: None is not iterable"),
    ("none-probs", Distribution, (("a",), None), {},
     OutOfRangeError, "probs: None is not iterable"),
    ("str-weights", new_distribution, ("1",), {},
     OutOfRangeError, "weights: '1' is a str, not a sequence"),
    ("bytes-weights", new_distribution, (b"\x01",), {},
     OutOfRangeError, "weights: b'\\x01' is a bytes, not a sequence"),
    ("dict-weights", new_distribution, ({1.0: "a"},), {},
     OutOfRangeError, "weights: {1.0: 'a'} is a dict, not a sequence"),
    ("str-labels", new_distribution, ([0.5, 0.5], "ab"), {},
     OutOfRangeError, "labels: 'ab' is a str, not a sequence"),
    ("float-weights", new_distribution, (0.5,), {},
     OutOfRangeError, "weights: 0.5 is not iterable"),
    ("none-weights", new_distribution, (None,), {},
     OutOfRangeError, "weights: None is not iterable"),
]


def refusal_params(rows):
    return [pytest.param(*row[1:], id=f"{row[1].__name__}-{row[0]}") for row in rows]


def assert_refused(call, args, kwargs, error, message):
    with pytest.raises(error) as exc:
        call(*args, **kwargs)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("call, args, kwargs, error, message", refusal_params(REFUSALS))
def test_refusals_are_unchanged(call, args, kwargs, error, message):
    assert_refused(call, args, kwargs, error, message)


@pytest.mark.parametrize("call, args, kwargs, error, message",
                         refusal_params(TUPLE_REFUSALS))
def test_a_field_that_is_no_sequence_is_refused(call, args, kwargs, error, message):
    assert_refused(call, args, kwargs, error, message)


class TestFieldsAreTuples:
    def test_lists_are_read_as_tuples(self):
        p, twin = Distribution(["a", "b"], [0.5, 0.5]), Distribution(("a", "b"), (0.5, 0.5))
        assert (type(p.support), type(p.probs)) == (tuple, tuple)
        assert p == twin and hash(p) == hash(twin)
        q = Distribution(("b", "c"), (0.5, 0.5))
        assert total_variation(p, q) == 0.5 and kl_divergence(p, q) == math.inf

    def test_a_tuple_is_kept_not_copied(self):
        # the alignment memo is keyed on the identity of p.support
        support, probs = ("a", "b"), (0.25, 0.75)
        p = Distribution(support, probs)
        assert p.support is support and p.probs is probs
        assert new_distribution(probs, support).support is support

    def test_iterators_are_read_once(self):
        d = new_distribution(iter([0.25, 0.75]), iter(["a", "b"]))
        assert (d.support, d.probs) == (("a", "b"), (0.25, 0.75))


# -- builders that skip the constructor's checks -----------------------------


def checked_tensor_power(base, power):
    """The product built atom by atom through the checked constructor, its
    weights divided by their sum if the constructor refuses that sum."""
    combos = list(itertools.product(range(len(base)), repeat=power))
    labels = tuple(LABEL_SEPARATOR.join(base.support[i] for i in c) for c in combos)
    weights = tuple(math.prod(base.probs[i] for i in c) for c in combos)
    try:
        return Distribution(labels, weights)
    except SumToleranceError:
        total = math.fsum(weights)
        return Distribution(labels, tuple(w / total for w in weights))


def assert_bit_identical(d, expected):
    assert d.support == expected.support
    assert [w.hex() for w in d.probs] == [w.hex() for w in expected.probs]


@st.composite
def product_bases(draw):
    raw = draw(weight_lists())
    labels = draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                           min_size=len(raw), max_size=len(raw), unique=True))
    power = draw(st.integers(min_value=1, max_value=4 if len(raw) <= 4 else 2))
    return new_distribution(raw, labels, renormalize=True), power


class TestTrustedBuilders:
    """Builders whose output is valid by construction skip the checks; each
    must give what the checked constructor gives, and accept no input the
    checked path refuses."""

    @given(product_bases())
    def test_tensor_power_matches_the_checked_path(self, base_power):
        base, power = base_power
        d = tensor_power(ProductSpec(base, power))
        assert_bit_identical(d, checked_tensor_power(base, power))
        assert Distribution(d.support, d.probs) == d

    def test_seeded_draws_match_the_checked_path(self):
        cases = itertools.product(range(10), (1, 2, 17, 64), (1.0, 0.3, 0.01))
        for seed, atoms, concentration in cases:
            d = _draw_distribution(random.Random(seed), atoms, concentration)
            assert d.support == _default_labels(atoms)
            assert_bit_identical(d, Distribution(d.support, d.probs))
        for p, q in _seeded_pairs(random.Random(7), 200, 64, (1.0, 0.1, 0.01)):
            assert_bit_identical(p, Distribution(p.support, p.probs))
            assert_bit_identical(q, Distribution(q.support, q.probs))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bernoulli_matches_the_checked_path(self, p):
        assert_bit_identical(bernoulli(p), Distribution(("1", "0"), (p, 1.0 - p)))

    def test_a_filled_memo_changes_no_public_behaviour(self):
        p = Distribution(("a", "b"), (0.25, 0.75))
        q = Distribution(("b", "c", "a"), (0.5, 0.25, 0.25))
        twin = Distribution(q.support, q.probs)
        _aligned(p, q)
        assert q._align is not None and twin._align is None
        assert q == twin and hash(q) == hash(twin)
        assert repr(q) == repr(twin)
        assert to_json_dict(q) == to_json_dict(twin)
        assert dumps_distribution(q) == dumps_distribution(twin)

    def test_copy_and_pickle_give_an_equal_distribution(self):
        p = Distribution(("a", "b"), (0.25, 0.75))
        q = Distribution(("b", "c", "a"), (0.5, 0.25, 0.25))
        _aligned(p, q)
        for other in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert other == q and hash(other) == hash(q)
            assert other._align is None
        trusted = bernoulli(0.25)
        assert pickle.loads(pickle.dumps(trusted)) == trusted == copy.copy(trusted)

    def test_the_memo_is_no_dataclass_field(self):
        p = Distribution(("a", "b"), (0.25, 0.75))
        q = Distribution(("b", "c", "a"), (0.5, 0.25, 0.25))
        assert tuple(f.name for f in dataclasses.fields(Distribution)) == (
            "support", "probs",
        )
        before = dataclasses.asdict(q), dataclasses.astuple(q)
        _aligned(p, q)
        assert q._align is not None
        assert (dataclasses.asdict(q), dataclasses.astuple(q)) == before
        for other in (dataclasses.replace(q), copy.copy(q), copy.deepcopy(q),
                      pickle.loads(pickle.dumps(q))):
            assert other == q and other._align is None

    def test_a_weakly_referenceable_distribution_is_still_a_two_field_value(self):
        d, twin = Distribution(("a", "b"), (0.25, 0.75)), Distribution(("a", "b"), (0.25, 0.75))
        ref = weakref.ref(d)
        assert ref() is d
        assert tuple(f.name for f in dataclasses.fields(d)) == ("support", "probs")
        assert dataclasses.asdict(d) == {"support": ("a", "b"), "probs": (0.25, 0.75)}
        assert dataclasses.astuple(d) == (("a", "b"), (0.25, 0.75))
        assert d == twin and hash(d) == hash(twin)
        assert repr(d) == "Distribution(support=('a', 'b'), probs=(0.25, 0.75))"
        assert d.__reduce__() == (Distribution, (("a", "b"), (0.25, 0.75)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(d, protocol) == pickle.dumps(twin, protocol)
        for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert other == d and hash(other) == hash(d) and repr(other) == repr(d)
            assert weakref.ref(other)() is other
        assert ref() is d
