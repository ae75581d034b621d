"""Tensor substrate tests: frozen examples, independent oracles, properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbtkit import tensor
from pbtkit.errors import LayoutError, UnitarityError
from pbtkit.tensor import (
    HermitianMatrix,
    StateVector,
    SystemLayout,
    apply_on_subsystems,
    basis_state,
    check_budget,
    maximally_entangled,
    permute_subsystems,
    reduced_density,
    schmidt_decompose,
    tensor_product,
)
from reference import (
    fidelity,
    maximally_mixed,
    merge_subsystems,
    operator_product,
    outer,
    partial_trace,
    permute_operator,
    state_fidelity,
    states_equal,
)


def rand_state(layout, rng):
    vec = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    return StateVector(layout, vec / np.linalg.norm(vec))


def rand_density(layout, rng):
    d = layout.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return HermitianMatrix(layout, rho / np.trace(rho))


def rand_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# layouts


def test_layout_rejects_duplicate_labels():
    with pytest.raises(LayoutError):
        SystemLayout.of(("a", 2), ("a", 3))


def test_layout_total_dim_is_product():
    lay = SystemLayout.of(("a", 2), ("b", 3), ("c", 4))
    assert lay.total_dim == 24
    assert lay.dim("b") == 3
    assert lay.restrict({"c", "a"}).labels == ("a", "c")
    assert lay.without({"b"}).labels == ("a", "c")


def test_memory_budget_names_what_and_both_sizes():
    budget = tensor.MEMORY_BUDGET
    assert budget == 1 << 30
    with pytest.raises(LayoutError, match=f"^the big array needs {budget + 1} bytes, "
                                          f"above the cap of {budget} bytes$"):
        check_budget("the big array", budget + 1)
    check_budget("the big array", budget)  # at the cap: fine


def test_memory_cap_is_read_when_checked(monkeypatch):
    monkeypatch.setattr(tensor, "MEMORY_BUDGET", 4)
    with pytest.raises(LayoutError, match="needs 8 bytes, above the cap of 4 bytes"):
        check_budget("an array", 8)
    check_budget("an array", 4)  # at the cap: fine


def test_state_rejects_wrong_length_and_bad_norm():
    lay = SystemLayout.of(("a", 2))
    with pytest.raises(LayoutError):
        StateVector(lay, np.ones(3))
    with pytest.raises(ValueError):
        StateVector(lay, np.array([1.0, 1.0]))
    StateVector(lay, np.array([1.0, 1.0]) / np.sqrt(2))  # fine


def test_hermitian_rejects_non_hermitian():
    lay = SystemLayout.of(("a", 2))
    with pytest.raises(ValueError):
        HermitianMatrix(lay, np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# tensor_product


def test_tensor_product_basis_states():
    lay = SystemLayout.of(("a", 2))
    zero = basis_state(lay, 0)
    out = tensor_product([zero, StateVector(SystemLayout.of(("b", 2)), zero.amplitudes)])
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])
    assert out.layout.labels == ("a", "b")


def test_tensor_product_plus_times_one():
    plus = StateVector(SystemLayout.of(("a", 2)), np.array([1, 1]) / np.sqrt(2))
    one = basis_state(SystemLayout.of(("b", 2)), 1)
    out = tensor_product([plus, one])
    np.testing.assert_allclose(out.amplitudes, np.array([0, 1, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_tensor_product_matches_index_summation_oracle():
    rng = np.random.default_rng(11)
    a = rand_state(SystemLayout.of(("a", 3)), rng)
    b = rand_state(SystemLayout.of(("b", 4)), rng)
    out = tensor_product([a, b])
    # independent oracle: explicit index arithmetic
    expected = np.zeros(12, dtype=complex)
    for i in range(3):
        for j in range(4):
            expected[i * 4 + j] = a.amplitudes[i] * b.amplitudes[j]
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_tensor_then_trace_roundtrip():
    rng = np.random.default_rng(5)
    rho = rand_density(SystemLayout.of(("x", 2)), rng)
    prod = operator_product([rho, maximally_mixed(SystemLayout.of(("y", 2)))])
    back = partial_trace(prod, {"x"})
    np.testing.assert_allclose(back.entries, rho.entries, atol=1e-12)


# ---------------------------------------------------------------------------
# partial_trace / reduced_density


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    psi = rand_state(SystemLayout.of(("a", 2)), rng)
    phi = rand_state(SystemLayout.of(("b", 3)), rng)
    joint = outer(tensor_product([psi, phi]))
    np.testing.assert_allclose(partial_trace(joint, {"a"}).entries, outer(psi).entries,
                               atol=1e-12)


def test_partial_trace_maximally_entangled_gives_mixed():
    pair = maximally_entangled(("a", 2), ("b", 2))
    rho = partial_trace(outer(pair), {"a"})
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-14)


def naive_partial_trace(mat, dims, keep_axes):
    """O(d^4) double-index-sum oracle written against the definition."""
    trace_axes = [i for i in range(len(dims)) if i not in keep_axes]
    dk = int(np.prod([dims[i] for i in keep_axes]))
    out = np.zeros((dk, dk), dtype=complex)
    full = int(np.prod(dims))

    def unpack(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def pack(idx, axes):
        flat = 0
        for ax in axes:
            flat = flat * dims[ax] + idx[ax]
        return flat

    for r in range(full):
        ri = unpack(r)
        for c in range(full):
            ci = unpack(c)
            if all(ri[t] == ci[t] for t in trace_axes):
                out[pack(ri, keep_axes), pack(ci, keep_axes)] += mat[r, c]
    return out


def test_partial_trace_matches_naive_oracle():
    rng = np.random.default_rng(13)
    lay = SystemLayout.of(("a", 2), ("b", 2), ("c", 2))
    rho = rand_density(lay, rng)
    got = partial_trace(rho, {"a", "c"})
    expected = naive_partial_trace(rho.entries, (2, 2, 2), [0, 2])
    np.testing.assert_allclose(got.entries, expected, atol=1e-12)
    assert got.layout.labels == ("a", "c")


def test_reduced_density_agrees_with_partial_trace_of_outer():
    rng = np.random.default_rng(17)
    lay = SystemLayout.of(("a", 2), ("b", 3), ("c", 2))
    psi = rand_state(lay, rng)
    direct = reduced_density(psi, {"b"})
    via_outer = partial_trace(outer(psi), {"b"})
    np.testing.assert_allclose(direct.entries, via_outer.entries, atol=1e-12)


def test_partial_trace_unknown_label():
    rho = maximally_mixed(SystemLayout.of(("a", 2)))
    with pytest.raises(LayoutError):
        partial_trace(rho, {"nope"})


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_trace_preservation_property(da, db, seed):
    rng = np.random.default_rng(seed)
    rho = rand_density(SystemLayout.of(("a", da), ("b", db)), rng)
    for keep in ({"a"}, {"b"}, {"a", "b"}):
        assert abs(np.trace(partial_trace(rho, keep).entries) - np.trace(rho.entries)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**31 - 1))
def test_tensor_then_trace_property(da, db, seed):
    rng = np.random.default_rng(seed)
    rho = rand_density(SystemLayout.of(("x", da)), rng)
    sig = rand_density(SystemLayout.of(("y", db)), rng)
    joint = operator_product([rho, sig])
    np.testing.assert_allclose(partial_trace(joint, {"x"}).entries, rho.entries, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, {"y"}).entries, sig.entries, atol=1e-12)


# ---------------------------------------------------------------------------
# apply_on_subsystems


def test_apply_identity_and_flip():
    lay = SystemLayout.of(("a", 2), ("b", 2))
    state = basis_state(lay, 0)  # |0>_a |0>_b
    same = apply_on_subsystems(state, np.eye(2), ["a"])
    assert states_equal(same, state)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    flipped = apply_on_subsystems(state, sigma_x, ["a"])
    assert states_equal(flipped, basis_state(lay, 2))  # |1>_a |0>_b


def test_apply_matches_explicit_kron_oracle():
    rng = np.random.default_rng(23)
    lay = SystemLayout.of(("q1", 2), ("q2", 2), ("q3", 2))
    psi = rand_state(lay, rng)
    u = rand_unitary(2, rng)
    got = apply_on_subsystems(psi, u, ["q2"])
    full = np.kron(np.kron(np.eye(2), u), np.eye(2))
    np.testing.assert_allclose(got.amplitudes, full @ psi.amplitudes, atol=1e-12)


def test_apply_rejects_non_unitary():
    state = basis_state(SystemLayout.of(("a", 2)), 0)
    with pytest.raises(UnitarityError):
        apply_on_subsystems(state, np.array([[1, 0], [0, 2]], dtype=complex), ["a"])


def test_apply_rejects_a_nan_matrix_before_the_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the matrix was applied before the unitarity gate")

    monkeypatch.setattr(tensor, "_apply_matrix", refuse)
    state = basis_state(SystemLayout.of(("a", 2)), 0)
    with pytest.raises(UnitarityError, match="within 1e-10"):
        apply_on_subsystems(state, np.array([[np.nan, 0], [0, 1]], dtype=complex), ["a"])


def test_apply_preserves_norm_and_commutes_on_disjoint_targets():
    rng = np.random.default_rng(29)
    lay = SystemLayout.of(("a", 2), ("b", 3))
    psi = rand_state(lay, rng)
    u = rand_unitary(2, rng)
    v = rand_unitary(3, rng)
    ab = apply_on_subsystems(apply_on_subsystems(psi, u, ["a"]), v, ["b"])
    ba = apply_on_subsystems(apply_on_subsystems(psi, v, ["b"]), u, ["a"])
    assert abs(ab.norm() - 1.0) < 1e-12
    np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


def test_apply_two_target_order():
    # matrix index convention follows the target order, not the layout order
    rng = np.random.default_rng(31)
    lay = SystemLayout.of(("a", 2), ("b", 2))
    psi = rand_state(lay, rng)
    u = rand_unitary(4, rng)
    forward = apply_on_subsystems(psi, u, ["a", "b"])
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1
    backward = apply_on_subsystems(psi, swap @ u @ swap, ["b", "a"])
    np.testing.assert_allclose(forward.amplitudes, backward.amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# schmidt_decompose


def test_schmidt_maximally_entangled():
    pair = maximally_entangled(("a", 2), ("b", 2))
    coeffs, left, right = schmidt_decompose(pair, {"a"})
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_state():
    rng = np.random.default_rng(37)
    psi = rand_state(SystemLayout.of(("a", 2)), rng)
    phi = rand_state(SystemLayout.of(("b", 2)), rng)
    coeffs, left, right = schmidt_decompose(tensor_product([psi, phi]), {"a"})
    np.testing.assert_allclose(coeffs, [1, 0], atol=1e-12)
    assert state_fidelity(left[0], psi) > 1 - 1e-12


def test_schmidt_coefficients_match_reduced_spectrum_oracle():
    rng = np.random.default_rng(41)
    lay = SystemLayout.of(("a", 3), ("b", 3))
    psi = rand_state(lay, rng)
    coeffs, _, _ = schmidt_decompose(psi, {"a"})
    # independent oracle: eigenvalues of the reduced density operator
    lam = np.linalg.eigvalsh(reduced_density(psi, {"a"}).entries)[::-1]
    np.testing.assert_allclose(coeffs**2, np.clip(lam, 0, None), atol=1e-10)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(43)
    lay = SystemLayout.of(("x", 2), ("y", 3), ("z", 2))
    for trial in range(100):
        psi = rand_state(lay, rng)
        coeffs, left, right = schmidt_decompose(psi, {"y"})
        rebuilt = sum(
            c * tensor_product([l, r]).amplitudes for c, l, r in zip(coeffs, left, right)
        )
        target = permute_subsystems(psi, ["y", "x", "z"])
        assert np.sum(np.abs(coeffs**2)) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(rebuilt, target.amplitudes, atol=1e-10)


def test_schmidt_needs_proper_bipartition():
    psi = maximally_entangled(("a", 2), ("b", 2))
    with pytest.raises(LayoutError):
        schmidt_decompose(psi, {"a", "b"})


# ---------------------------------------------------------------------------
# fidelity & friends


def test_fidelity_trivials():
    lay = SystemLayout.of(("a", 2))
    zero, one = basis_state(lay, 0), basis_state(lay, 1)
    assert fidelity(zero, outer(zero)) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(zero, outer(one)) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(zero, maximally_mixed(lay)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_mismatch():
    zero = basis_state(SystemLayout.of(("a", 2)), 0)
    with pytest.raises(LayoutError):
        fidelity(zero, maximally_mixed(SystemLayout.of(("a", 3))))


def test_states_equal_ignores_global_phase():
    lay = SystemLayout.of(("a", 2))
    psi = StateVector(lay, np.array([1, 1j]) / np.sqrt(2))
    rotated = StateVector(lay, np.exp(0.7j) * psi.amplitudes)
    assert states_equal(psi, rotated)


# ---------------------------------------------------------------------------
# permute, and the reference merge


def test_permute_roundtrip():
    rng = np.random.default_rng(61)
    lay = SystemLayout.of(("a", 2), ("b", 3), ("c", 2))
    psi = rand_state(lay, rng)
    back = permute_subsystems(permute_subsystems(psi, ["c", "a", "b"]), ["a", "b", "c"])
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes)


def test_permute_operator_consistent_with_state():
    rng = np.random.default_rng(67)
    lay = SystemLayout.of(("a", 2), ("b", 3))
    psi = rand_state(lay, rng)
    flipped = permute_operator(outer(psi), ["b", "a"])
    np.testing.assert_allclose(flipped.entries,
                               outer(permute_subsystems(psi, ["b", "a"])).entries,
                               atol=1e-12)


def test_merge_requires_consecutive_labels():
    rng = np.random.default_rng(71)
    lay = SystemLayout.of(("a", 2), ("b", 2), ("c", 2))
    psi = rand_state(lay, rng)
    merged = merge_subsystems(psi, ["a", "b"], "ab")
    assert merged.layout.labels == ("ab", "c")
    assert merged.layout.dim("ab") == 4
    np.testing.assert_allclose(merged.amplitudes, psi.amplitudes)
    with pytest.raises(LayoutError):
        merge_subsystems(psi, ["a", "c"], "ac")
