import itertools
import json
import math

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
)
from tvkl.errors import ValidationError


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
        # a base built directly may carry the separator in a label
        base = Distribution(("a", f"a{LABEL_SEPARATOR}a"), (0.5, 0.5))
        with pytest.raises(DuplicateLabelError):
            tensor_power(ProductSpec(base, 3))

    def test_weight_sum_drift_rejected_at_high_power(self):
        # 1 + 9e-10 is within tolerance; its fourth power is not
        base = Distribution(("a", "b"), (0.5, 0.5 + 9e-10))
        assert len(tensor_power(ProductSpec(base, 1))) == 2
        with pytest.raises(SumToleranceError):
            tensor_power(ProductSpec(base, 4))

    def test_cap_enforced(self):
        with pytest.raises(TooLargeError):
            tensor_power(ProductSpec(bernoulli(0.5), 21))
        # 2^20 atoms is exactly at the cap and allowed
        assert len(tensor_power(ProductSpec(bernoulli(0.5), 20))) == 2**20

    def test_cap_at_a_huge_power(self):
        # refused without forming 2^n, whose size grows with n
        with pytest.raises(TooLargeError, match=r"^power: 2\^100000000 atoms exceed"):
            tensor_power(ProductSpec(bernoulli(0.5), 10**8))


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
