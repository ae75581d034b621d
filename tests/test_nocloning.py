"""Pointer-form decomposition and impossibility-theorem verifier tests."""

import numpy as np
import pytest

from pbtkit.engine import bell_pbt_protocol
from pbtkit.errors import ProtocolError, UnitarityError
from pbtkit.nocloning import (
    PointerOperation,
    computational_pointer_basis,
    decompose_by_pointer,
    pointer_form,
    pointer_from_dict,
    pointer_to_dict,
    verify_theorem,
)
from pbtkit.pauli import haar_states
from pbtkit.tensor import (
    StateVector,
    SystemLayout,
    basis_state,
    outer,
    reduced_density,
)

BELL_VECS = [
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
]


def ket(amps, label="a"):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(SystemLayout.of((label, amps.size)), amps / np.linalg.norm(amps))


def identity_pointer_op(chi_index, dim_b=2, npi=2):
    d = 2 * dim_b * npi
    return PointerOperation(
        dim_a=2,
        dim_b=dim_b,
        u=np.eye(d, dtype=complex),
        xi_b=basis_state(SystemLayout.of(("b", dim_b)), 0),
        chi_pi=basis_state(SystemLayout.of(("pi", npi)), chi_index),
        pointer_basis=computational_pointer_basis(npi),
    )


def test_identity_operation_single_branch():
    op = identity_pointer_op(chi_index=1)
    psi = ket([0.6, 0.8j])
    records = decompose_by_pointer(op, psi)
    assert records[0].probability == 0.0 and records[0].conditional_state is None
    assert records[1].probability == pytest.approx(1.0, abs=1e-12)
    rho_a = reduced_density(records[1].conditional_state, {"a"})
    assert np.max(np.abs(rho_a.entries - outer(psi).entries)) < 1e-12


def test_probabilities_sum_to_one_for_random_unitary():
    rng = np.random.default_rng(4)
    d = 2 * 3 * 2
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    op = PointerOperation(
        dim_a=2, dim_b=3, u=u,
        xi_b=basis_state(SystemLayout.of(("b", 3)), 0),
        chi_pi=basis_state(SystemLayout.of(("pi", 2)), 0),
        pointer_basis=computational_pointer_basis(2),
    )
    for psi in haar_states(2, 10, seed=6):
        total = sum(rec.probability for rec in decompose_by_pointer(op, psi))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        PointerOperation(
            dim_a=2, dim_b=1, u=np.diag([1, 1, 1, 2.0]).astype(complex),
            xi_b=basis_state(SystemLayout.of(("b", 1)), 0),
            chi_pi=basis_state(SystemLayout.of(("pi", 2)), 0),
            pointer_basis=computational_pointer_basis(2),
        )


def test_bell_pointer_form_reproduces_branch_statistics():
    op = pointer_form(bell_pbt_protocol(1))
    zero = ket([1, 0])
    records = decompose_by_pointer(op, zero)
    assert records[1].probability == pytest.approx(0.25, abs=1e-10)
    assert records[0].probability == pytest.approx(0.75, abs=1e-10)
    # success branch leaves the input on a, intact
    rho_a = reduced_density(records[1].conditional_state, {"a"})
    assert np.max(np.abs(rho_a.entries - outer(zero).entries)) < 1e-10


def test_bell_pointer_failure_overlap_identity():
    op = pointer_form(bell_pbt_protocol(1))
    zero, one = ket([1, 0]), ket([0, 1])
    f_zero = decompose_by_pointer(op, zero)[0].conditional_state
    f_one = decompose_by_pointer(op, one)[0].conditional_state
    assert abs(np.vdot(f_one.amplitudes, f_zero.amplitudes)) < 1e-10
    # non-orthogonal pair: the failure overlap equals the input overlap
    psi, phi = haar_states(2, 2, seed=11)
    f_psi = decompose_by_pointer(op, psi)[0].conditional_state
    f_phi = decompose_by_pointer(op, phi)[0].conditional_state
    lhs = np.vdot(f_phi.amplitudes, f_psi.amplitudes)
    rhs = np.vdot(phi.amplitudes, psi.amplitudes)
    assert abs(lhs - rhs) < 1e-10


def test_verify_theorem_bell_pointer_form():
    op = pointer_form(bell_pbt_protocol(1))
    rep = verify_theorem(op, samples=30, seed=3)
    assert rep.preconditions_met
    assert rep.passed, rep.to_dict()


def test_verify_theorem_identity_untouched_pointer():
    rep = verify_theorem(identity_pointer_op(chi_index=1), samples=10, seed=9)
    assert rep.passed


def test_verify_theorem_identity_failure_pointer():
    # chi = |0>: the single branch is the failure branch; conclusions hold trivially
    rep = verify_theorem(identity_pointer_op(chi_index=0), samples=10, seed=9)
    assert rep.passed


def test_cheating_cloner_fails_hypothesis():
    # pointer flip controlled on the input being |1>: reads out <1|psi> information
    d = 2 * 2 * 2
    u = np.zeros((d, d), dtype=complex)
    for a in range(2):
        for b in range(2):
            for p in range(2):
                target = p if a == 0 else 1 - p
                u[(a * 2 + b) * 2 + target, (a * 2 + b) * 2 + p] = 1.0
    op = PointerOperation(
        dim_a=2, dim_b=2, u=u,
        xi_b=basis_state(SystemLayout.of(("b", 2)), 0),
        chi_pi=basis_state(SystemLayout.of(("pi", 2)), 0),
        pointer_basis=computational_pointer_basis(2),
    )
    rep = verify_theorem(op, samples=5, seed=1)
    assert not rep.preconditions_met
    assert "hypothesis" in rep.note


def test_fine_grained_failure_ancilla_keeps_branch_pure():
    proto = bell_pbt_protocol(1)
    # the three failing Bell projections act on (a, A), resolving M_0
    fine = {0: [np.outer(v, v.conj()) for v in BELL_VECS[1:]]}
    op = pointer_form(proto, fine_grained=fine)
    assert op.dim_b == 4 * 3  # (A, B1) times the 3-dim fine-grain ancilla
    rep = verify_theorem(op, samples=20, seed=7)
    assert rep.passed, rep.to_dict()
    # the failure branch is pure by construction and still preserves overlaps
    psi, phi = haar_states(2, 2, seed=15)
    f_psi = decompose_by_pointer(op, psi)[0].conditional_state
    f_phi = decompose_by_pointer(op, phi)[0].conditional_state
    assert abs(np.vdot(f_phi.amplitudes, f_psi.amplitudes)
               - np.vdot(phi.amplitudes, psi.amplitudes)) < 1e-10


def test_fine_grained_must_resolve_the_povm_element():
    proto = bell_pbt_protocol(1)
    with pytest.raises(ProtocolError, match="resolve"):
        pointer_form(proto, fine_grained={0: [np.eye(4, dtype=complex)]})


def test_pointer_json_roundtrip():
    op = pointer_form(bell_pbt_protocol(1))
    doc = pointer_to_dict(op)
    back = pointer_from_dict(doc)
    np.testing.assert_allclose(back.u, op.u)
    np.testing.assert_allclose(back.xi_b.amplitudes, op.xi_b.amplitudes)
    psi = ket([1, 1])
    orig = decompose_by_pointer(op, psi)
    again = decompose_by_pointer(back, psi)
    for x, y in zip(orig, again):
        assert x.probability == pytest.approx(y.probability, abs=1e-14)


def test_pointer_from_dict_names_missing_field():
    doc = pointer_to_dict(pointer_form(bell_pbt_protocol(1)))
    del doc["chi"]
    with pytest.raises(ProtocolError, match="chi"):
        pointer_from_dict(doc)


def dense_pointer_unitary(proto):
    """Reference dilation: the isometry completed by its SVD complement, then
    the outcome-controlled swap of a and B_k as a dense permutation matrix."""
    da, big_n = proto.port_dim, proto.N
    db_ports = da**big_n
    d_ab = da * proto.alice_dim * db_ports
    npi = big_n + 1
    d_full = d_ab * npi
    iso = np.zeros((d_full, d_ab), dtype=complex)
    for k, root in enumerate(proto.kraus):
        iso[np.arange(d_ab) * npi + k, :] = np.kron(root, np.eye(db_ports))
    known = np.arange(d_ab) * npi
    u0 = np.zeros((d_full, d_full), dtype=complex)
    u0[:, known] = iso
    u0[:, sorted(set(range(d_full)) - set(known.tolist()))] = (
        np.linalg.svd(iso, full_matrices=True)[0][:, d_ab:])
    dims_ab = (da, proto.alice_dim) + (da,) * big_n
    swap = np.zeros((d_full, d_full))
    for k in range(npi):
        axes = list(range(len(dims_ab)))
        if k:
            axes[0], axes[1 + k] = axes[1 + k], axes[0]
        perm_flat = np.transpose(np.arange(d_ab).reshape(dims_ab), axes).reshape(-1)
        perm = np.zeros((d_ab, d_ab))
        perm[np.arange(d_ab), perm_flat] = 1.0
        proj = np.zeros((npi, npi))
        proj[k, k] = 1.0
        swap += np.kron(perm, proj)
    return swap @ u0


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pointer_form_swap_equals_dense_permutation(N):
    proto = bell_pbt_protocol(N)
    np.testing.assert_array_equal(pointer_form(proto).u, dense_pointer_unitary(proto))
