"""Pauli set, twirl identity, and Haar sampler tests."""

import numpy as np
import pytest

from pbtkit.pauli import (
    PauliIndex,
    SIGMA,
    haar_states,
    pauli_element,
    sample_haar_state,
    twirl,
)
from pbtkit.tensor import HermitianMatrix, SystemLayout, basis_state
from reference import maximally_mixed, outer


def rand_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return HermitianMatrix(SystemLayout.of(("q", d)), rho / np.trace(rho))


def test_pauli_index_range():
    with pytest.raises(ValueError):
        PauliIndex(0, 1)
    with pytest.raises(ValueError):
        PauliIndex(5, 1)
    PauliIndex(16, 2)  # fine


def test_pauli_element_identity_and_x():
    np.testing.assert_allclose(pauli_element(PauliIndex(1, 1)), np.eye(2))
    np.testing.assert_allclose(pauli_element(PauliIndex(2, 1)), SIGMA[1])


def test_pauli_element_base4_digits():
    # 6 - 1 = 5 = (1,1) in base 4 -> sigma_1 x sigma_1
    got = pauli_element(PauliIndex(6, 2))
    expected = np.kron(SIGMA[1], SIGMA[1])
    np.testing.assert_allclose(got, expected)
    # independent digit oracle for every two-qubit index
    for l in range(1, 17):
        hi, lo = divmod(l - 1, 4)
        np.testing.assert_allclose(pauli_element(PauliIndex(l, 2)),
                                   np.kron(SIGMA[hi], SIGMA[lo]))


def test_pauli_elements_unitary_hermitian_traceless():
    for n in (1, 2):
        for l in range(1, 4**n + 1):
            v = pauli_element(PauliIndex(l, n))
            np.testing.assert_allclose(v @ v.conj().T, np.eye(2**n), atol=1e-14)
            np.testing.assert_allclose(v, v.conj().T, atol=1e-14)
            if l > 1:
                assert abs(np.trace(v)) < 1e-14


def test_twirl_basis_state_single_qubit():
    rho = outer(basis_state(SystemLayout.of(("q", 2)), 0))
    out = twirl(rho)
    np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)


def test_twirl_fixed_point():
    for n in (1, 2):
        mixed = maximally_mixed(SystemLayout.of(("q", 2**n)))
        np.testing.assert_allclose(twirl(mixed).entries, mixed.entries, atol=1e-15)


def test_twirl_matches_explicit_sum_oracle():
    rng = np.random.default_rng(3)
    rho = rand_density(4, rng)
    # independent 16-term oracle built from kron products directly
    acc = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            v = np.kron(SIGMA[a], SIGMA[b])
            acc += v @ rho.entries @ v.conj().T
    np.testing.assert_allclose(twirl(rho).entries, acc / 16, atol=1e-14)
    np.testing.assert_allclose(twirl(rho).entries, np.eye(4) / 4, atol=1e-13)


def test_twirl_identity_over_random_densities():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        d = 2**n
        for _ in range(100):
            rho = rand_density(d, rng)
            dev = np.max(np.abs(twirl(rho).entries - np.eye(d) / d))
            assert dev < 1e-12


def test_twirl_rejects_non_density():
    h = HermitianMatrix(SystemLayout.of(("q", 2)), np.diag([2.0, -1.0]).astype(complex))
    with pytest.raises(ValueError):
        twirl(h)


def test_twirl_rejects_wrong_dimension():
    from pbtkit.errors import LayoutError

    with pytest.raises(LayoutError):
        twirl(maximally_mixed(SystemLayout.of(("q", 3))))


def test_haar_sampling_deterministic():
    a = sample_haar_state(4, seed=123)
    b = sample_haar_state(4, seed=123)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = sample_haar_state(4, seed=124)
    assert np.max(np.abs(a.amplitudes - c.amplitudes)) > 1e-3


def test_haar_dim_one_is_trivial():
    psi = sample_haar_state(1, seed=0)
    assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12


def test_haar_mean_density_near_maximally_mixed():
    # Monte-Carlo check of unitary invariance: trace-norm distance below 0.02
    states = haar_states(2, 10_000, seed=77)
    mean = sum(np.outer(s.amplitudes, s.amplitudes.conj()) for s in states) / len(states)
    diffs = np.linalg.eigvalsh(mean - np.eye(2) / 2)
    assert np.sum(np.abs(diffs)) < 0.02


def test_haar_batch_reproducible():
    xs = haar_states(3, 5, seed=42)
    ys = haar_states(3, 5, seed=42)
    for x, y in zip(xs, ys):
        np.testing.assert_array_equal(x.amplitudes, y.amplitudes)
