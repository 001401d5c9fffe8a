"""The exact oracle's own check: where an inverse of ``oracle`` switches from
its series to its closed form, the two agree to the digits its docstring
claims, at the cut-off in t and one double either side of it."""

import math
from decimal import Decimal

import pytest

import oracle


@pytest.mark.parametrize("inverse, cutoff, digits", [
    (oracle.bh_inverse, 1e-3, 53),
    (oracle.vajda_inverse, 1e-6, 47),
], ids=["bh_inverse", "vajda_inverse"])
def test_series_meets_the_closed_form_at_the_cutoff(inverse, cutoff, digits):
    below, above = math.nextafter(cutoff, 0.0), math.nextafter(cutoff, 1.0)
    for t in (below, cutoff, above):
        series = inverse(t, 1.0 - t, series=True)
        closed = inverse(t, 1.0 - t, series=False)
        assert abs(series - closed) <= Decimal(10) ** -digits * closed, t
    assert inverse(below, 1.0 - below) == inverse(below, 1.0 - below, series=True)
    assert inverse(above, 1.0 - above) == inverse(above, 1.0 - above, series=False)
