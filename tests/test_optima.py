"""The exact optima: the fixed-resource closed form against its known values
and against the ceiling it sits under."""

from fractions import Fraction

import pytest

from pbtkit.optima import p_fixed
from pbtkit.signaling import bound

KNOWN = {
    1: ["1/4", "1/3", "13/32", "9/20", "47/96", "29/56", "557/1024", "325/576"],
    2: ["1/16", "1/10", "43/320", "271/1680"],
}


@pytest.mark.parametrize("n, N, value", [(n, N, value) for n, values in KNOWN.items()
                                         for N, value in enumerate(values, start=1)])
def test_fixed_resource_optimum_is_exact(n, N, value):
    assert p_fixed(n, N) == Fraction(value)
    assert isinstance(p_fixed(n, N), Fraction)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_port_attains_the_ceiling(n):
    assert p_fixed(n, 1) == bound(n, 1)


@pytest.mark.parametrize("n, N", [(n, N) for n in (1, 2, 3) for N in range(2, 9)])
def test_more_ports_stay_strictly_below_the_ceiling(n, N):
    assert p_fixed(n, N) < bound(n, N)


@pytest.mark.parametrize("n, N", [(0, 1), (1, 0), (-1, 2)])
def test_rejects_empty_systems(n, N):
    with pytest.raises(ValueError, match="n >= 1 and N >= 1"):
        p_fixed(n, N)
