"""One value contract for the report types built through their slots, and
what every frozen slotted dataclass of the package does with a name that is
not a field."""

import copy
import dataclasses
import pickle

import pytest

from tvkl import (EventSubset, InequalityId, ProductSpec, SampleComplexityQuery,
                  WitnessFunction, bernoulli, compare_bounds, report, scan_bernoulli)


class ValueContract:
    """A frozen value of its fields: built by position, keyword or a mix,
    compared and hashed by its fields, frozen, copied and pickled as itself,
    and replaced. A subclass gives ``build``, which makes one through the
    library, ``FIELDS`` in order, and ``CHANGE``, a new value for one field."""

    def values(self):
        return [getattr(self.build(), name) for name in self.FIELDS]

    def pytest_generate_tests(self, metafunc):
        if "name" in metafunc.fixturenames:
            metafunc.parametrize("name", self.FIELDS)
        if "kwargs" in metafunc.fixturenames:
            values, first, last = self.values(), self.FIELDS[0], self.FIELDS[-1]
            metafunc.parametrize("args, kwargs", [  # too few, too many, misspelled, twice
                (values[:-1], {}), (values + [1], {}),
                (values[:-1], {last[:-1]: values[-1]}), (values, {first: values[0]})])

    def test_positional_and_keyword_construction(self):
        cls, values, half = type(self.build()), self.values(), len(self.FIELDS) // 2
        by_name = list(zip(self.FIELDS, values))
        mixed = cls(*values[:half], **dict(reversed(by_name[half:])))
        assert cls(*values) == cls(**dict(by_name)) == cls(**dict(reversed(by_name))) == mixed
        assert mixed == self.build()

    def test_wrong_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            type(self.build())(*args, **kwargs)

    def test_equal_and_hash_against_an_equal_instance(self):
        value, again, twin = self.build(), self.build(), type(self.build())(*self.values())
        assert again is not value and twin is not value and len({value, again, twin}) == 1
        assert hash(value) == hash(again) == hash(twin) and value == again == twin
        assert dataclasses.replace(twin, **self.CHANGE) != value != tuple(self.values())

    def test_frozen_against_assignment_and_deletion(self, name):
        value = self.build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        assert value == self.build() and not hasattr(value, "__dict__")

    def test_copy_deepcopy_and_pickle_round_trips(self):
        value = self.build()
        for twin in [copy.copy(value), copy.deepcopy(value)] + [
                pickle.loads(pickle.dumps(value, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
            assert [getattr(twin, name) for name in self.FIELDS] == self.values()

    def test_field_order(self):
        cls = type(self.build())
        assert [f.name for f in dataclasses.fields(cls)] == self.FIELDS
        assert cls.__match_args__ == tuple(self.FIELDS)

    def test_replace(self):
        value, changed = self.build(), dataclasses.replace(self.build(), **self.CHANGE)
        assert changed == type(value)(**{**dict(zip(self.FIELDS, self.values())), **self.CHANGE})
        assert changed != value == self.build()


P = bernoulli(0.3)


# On Python 3.10 to 3.13, setting or deleting a name that is not a field
# raises TypeError, not FrozenInstanceError: the generated __setattr__ and
# __delattr__ call super() on the class that slots=True replaced. A Python
# that changes this fails here.
@pytest.mark.parametrize("value", [
    compare_bounds(0.5)[1], SampleComplexityQuery(0.1, 0.01),
    report(SampleComplexityQuery(0.1, 0.01)), P, EventSubset((True, False)),
    WitnessFunction((0.1, -0.2)), ProductSpec(P, 2),
    scan_bernoulli(InequalityId.BH, 5),
], ids=lambda value: type(value).__name__)
def test_a_name_that_is_not_a_field_raises_type_error(value):
    with pytest.raises(TypeError, match=r"^super\(type, obj\)"):
        value.extra = 1
    with pytest.raises(TypeError, match=r"^super\(type, obj\)"):
        del value.extra
