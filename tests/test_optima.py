"""The exact optima: the fixed-resource closed form against its known values
and against the ceiling it sits under, its exact weights, and the isotypic
projectors its measurement is built from."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest

from pbtkit.optima import (
    _grown,
    _irrep_dims,
    _partitions,
    _port_sum_eigenvalue,
    fixed_weights,
    isotypic_projectors,
    p_fixed,
)
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


@pytest.mark.parametrize("n, N", [(n, N) for n in (1, 2, 3) for N in range(1, 9)])
def test_weights_meet_the_tightest_spectral_bound(n, N):
    d = 2**n
    weights = fixed_weights(n, N)
    assert list(weights) == list(_partitions(N - 1, d, N - 1))
    for alpha, theta in weights.items():
        products = [theta * _port_sum_eigenvalue(alpha, mu, d) for mu in _grown(alpha, d)]
        assert all(isinstance(x, Fraction) and x <= Fraction(1, d**N) for x in products)
        assert max(products) == Fraction(1, d**N)
    assert N * sum(theta * prod(_irrep_dims(alpha, d))
                   for alpha, theta in weights.items()) == p_fixed(n, N)


@pytest.mark.parametrize("d, M", [(2, M) for M in range(7)] + [(4, M) for M in range(4)])
def test_isotypic_projectors(d, M):
    """Orthogonal idempotents summing to the identity, one per diagram of at
    most d rows, each of trace d_alpha m_alpha and commuting with every
    adjacent swap."""
    projectors = isotypic_projectors(d, M)
    assert sorted(projectors) == sorted(_partitions(M, d, M))
    dim = d**M
    np.testing.assert_allclose(sum(projectors.values()), np.eye(dim), rtol=0, atol=1e-12)
    index = np.arange(dim).reshape((d,) * M)
    swaps = [np.swapaxes(index, i, i + 1).reshape(-1) for i in range(M - 1)]
    for alpha, p in projectors.items():
        assert p.shape == (dim, dim) and p.dtype == np.float64
        assert np.trace(p) == pytest.approx(prod(_irrep_dims(alpha, d)), abs=1e-12)
        for beta, q in projectors.items():
            np.testing.assert_allclose(p @ q, p if alpha == beta else 0, rtol=0, atol=1e-12)
        for swap in swaps:
            np.testing.assert_allclose(p[swap][:, swap], p, rtol=0, atol=1e-12)
