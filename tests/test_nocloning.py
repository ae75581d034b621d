"""Pointer-form decomposition and impossibility-theorem verifier tests."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from pbtkit import branches, nocloning
from pbtkit.branches import BRANCH_PRUNE
from pbtkit.engine import bell_pbt_protocol
from pbtkit.errors import LayoutError, ProtocolError, SampleCountError, UnitarityError
from pbtkit.nocloning import (
    PointerOperation,
    computational_pointer_basis,
    decompose_by_pointer,
    load_pointer,
    pointer_form,
    pointer_from_dict,
    pointer_to_dict,
    save_pointer,
    unitarity_deviation,
    verify_theorem,
)
from pbtkit.pauli import haar_amplitudes, haar_states
from pbtkit.tensor import MEMORY_BUDGET, StateVector, SystemLayout, basis_state, reduced_density
from reference import (
    LAYOUTS,
    branches_of,
    complex_pairs,
    haar_unitary,
    in_layout,
    outer,
    set_part,
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


def pointer_records(op, psi):
    """The pointer branches of one input: (k, probability, conditional (a, b) state)."""
    return branches_of(decompose_by_pointer(op, psi.amplitudes[None]))


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
    records = pointer_records(op, psi)
    assert records[0].probability == 0.0 and records[0].post_state is None
    assert records[1].probability == pytest.approx(1.0, abs=1e-12)
    rho_a = reduced_density(records[1].post_state, {"a"})
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
        total = sum(rec.probability for rec in pointer_records(op, psi))
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
    records = pointer_records(op, zero)
    assert records[1].probability == pytest.approx(0.25, abs=1e-10)
    assert records[0].probability == pytest.approx(0.75, abs=1e-10)
    # success branch leaves the input on a, intact
    rho_a = reduced_density(records[1].post_state, {"a"})
    assert np.max(np.abs(rho_a.entries - outer(zero).entries)) < 1e-10


def test_bell_pointer_failure_overlap_identity():
    op = pointer_form(bell_pbt_protocol(1))
    zero, one = ket([1, 0]), ket([0, 1])
    f_zero = pointer_records(op, zero)[0].post_state
    f_one = pointer_records(op, one)[0].post_state
    assert abs(np.vdot(f_one.amplitudes, f_zero.amplitudes)) < 1e-10
    # non-orthogonal pair: the failure overlap equals the input overlap
    psi, phi = haar_states(2, 2, seed=11)
    f_psi = pointer_records(op, psi)[0].post_state
    f_phi = pointer_records(op, phi)[0].post_state
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
    f_psi = pointer_records(op, psi)[0].post_state
    f_phi = pointer_records(op, phi)[0].post_state
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
    orig = pointer_records(op, psi)
    again = pointer_records(back, psi)
    for x, y in zip(orig, again):
        assert x.probability == pytest.approx(y.probability, abs=1e-14)


def test_pointer_from_dict_names_missing_field():
    doc = pointer_to_dict(pointer_form(bell_pbt_protocol(1)))
    del doc["chi"]
    with pytest.raises(ProtocolError, match="chi"):
        pointer_from_dict(doc)


@pytest.mark.parametrize("edit,named", [
    (lambda doc: {**doc, "dims": {**doc["dims"], "a": "two"}}, "'dims.a'.*integer"),
    (lambda doc: {**doc, "lift": 3}, "'lift'.*object"),
    (lambda doc: {**doc, "lift": {**doc["lift"], "ports": None}}, "'lift.ports'.*integer"),
    (lambda doc: 7, "pointer document.*JSON object, got int"),
    (lambda doc: [doc], "pointer document.*JSON object, got list"),
    (lambda doc: {**doc, "dims": 7}, "'dims'.*JSON object, got int"),
    (lambda doc: {**doc, "pointer_basis": 5}, "'pointer_basis'.*list, got int"),
])
def test_pointer_from_dict_names_a_malformed_entry(edit, named):
    doc = edit(pointer_to_dict(pointer_form(bell_pbt_protocol(1))))
    with pytest.raises(ProtocolError, match=named):
        pointer_from_dict(doc)


def fine_failure(N):
    """Outcome 0 of the bell protocol as the three failing Bell projections on (a, A1)."""
    return {0: [np.kron(np.outer(v, v.conj()), np.eye(2 ** (N - 1))) for v in BELL_VECS[1:]]}


def stacked_isometry(kraus, d, danc, npi):
    """|v> -> sum_{k, kappa} K_{k,kappa}|v> |kappa>_anc |k>_pi for operators on dim d."""
    iso = np.zeros((d * danc * npi, d), dtype=complex)
    for k, ops in enumerate(kraus):
        for kap, kop in enumerate(ops):
            iso[(np.arange(d) * danc + kap) * npi + k] += kop
    return iso


def svd_completion(iso, danc, npi):
    """The isometry in the start columns (ancilla and pointer at 0), its SVD
    complement in the other columns in index order."""
    d = iso.shape[1]
    start = np.arange(d) * danc * npi
    free = sorted(set(range(iso.shape[0])) - set(start.tolist()))
    u0 = np.zeros((iso.shape[0],) * 2, dtype=complex)
    u0[:, start] = iso
    u0[:, free] = np.linalg.svd(iso, full_matrices=True)[0][:, d:]
    return u0


def dilation_parts(proto, fine_grained):
    fine_grained = fine_grained or {}
    kraus = [list(fine_grained.get(k, [root])) for k, root in enumerate(proto.kraus)]
    return kraus, max(len(ops) for ops in kraus)


def dense_swap(proto, danc):
    """Outcome k >= 1 exchanges a and B_k: a dense permutation on (a, A, ports, anc, pi)."""
    da, big_n = proto.port_dim, proto.N
    dims_ab = (da, proto.alice_dim) + (da,) * big_n
    d_ab = int(np.prod(dims_ab))
    npi = big_n + 1
    d_full = d_ab * danc * npi
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
        swap += np.kron(perm, np.kron(np.eye(danc), proj))
    return swap


def dense_pointer_unitary(proto, fine_grained=None):
    """Reference dilation: the isometry on (a, A) x ancilla x pointer completed
    by its SVD complement, tensored with the identity on the ports, then the
    outcome-controlled swap of a and B_k as a dense permutation matrix."""
    kraus, danc = dilation_parts(proto, fine_grained)
    ds, ports, npi = proto.port_dim * proto.alice_dim, proto.port_dim**proto.N, proto.N + 1
    u_small = svd_completion(stacked_isometry(kraus, ds, danc, npi), danc, npi)
    d_full = ds * ports * danc * npi
    # kron rows ((x, kappa, k), p) reordered to (x, p, kappa, k), columns alike
    u0 = (np.kron(u_small, np.eye(ports))
          .reshape(ds, danc * npi, ports, ds, danc * npi, ports)
          .transpose(0, 2, 1, 3, 5, 4).reshape(d_full, d_full))
    return dense_swap(proto, danc) @ u0


def full_svd_pointer_unitary(proto, fine_grained=None):
    """The dilation as built before the small-space completion: the isometry on
    the whole (a, A, ports) x ancilla x pointer space, completed by the SVD
    complement of that isometry, then the swap as a row gather."""
    kraus, danc = dilation_parts(proto, fine_grained)
    ports, npi = proto.port_dim**proto.N, proto.N + 1
    d_ab = proto.port_dim * proto.alice_dim * ports
    lifted = [[np.kron(kop, np.eye(ports)) for kop in ops] for ops in kraus]
    u0 = svd_completion(stacked_isometry(lifted, d_ab, danc, npi), danc, npi)
    return u0[np.argmax(dense_swap(proto, danc), axis=1)]


def scatter_lift(op):
    """The dense unitary of ``op`` on (a, b, pi): its unitary on (a, A,
    ancilla, pi) lifted to the identity on the ports by one index scatter
    whose row indices also carry the swap of a and B_k."""
    if not op.ports:
        return np.array(op.u)
    da, npi, danc, ports = op.dim_a, op.dim_pointer, op.ancilla, op.dim_ports
    ds = op.u.shape[0] // (danc * npi)
    # row (v, kappa, k) of u, v over (a, A, ports), is small row (x, kappa, k)
    # on the columns of port index p, where (x, p) is v with a and B_k exchanged
    flat = np.arange(ds * ports).reshape((da, ds // da) + (da,) * op.ports)
    perms = np.stack([flat.reshape(-1)] + [np.swapaxes(flat, 0, 1 + k).reshape(-1)
                                           for k in range(1, npi)], axis=1)
    x_src, p_src = np.divmod(perms[:, None, :], ports)
    rows = ((x_src * danc + np.arange(danc)[:, None]) * npi + np.arange(npi)).reshape(-1)
    p_row = np.broadcast_to(p_src, (ds * ports, danc, npi)).reshape(-1)
    u = np.zeros((rows.size, ds, ports, danc * npi), dtype=complex)
    u[np.arange(rows.size), :, p_row, :] = op.u[rows].reshape(rows.size, ds, -1)
    return u.reshape(rows.size, rows.size)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pointer_form_swap_equals_dense_permutation(N):
    proto = bell_pbt_protocol(N)
    np.testing.assert_array_equal(scatter_lift(pointer_form(proto)), dense_pointer_unitary(proto))


def test_pointer_form_fine_grained_equals_dense_reference():
    for N in (1, 2, 3):
        proto = bell_pbt_protocol(N)
        lifted = scatter_lift(pointer_form(proto, fine_grained=fine_failure(N)))
        np.testing.assert_array_equal(lifted, dense_pointer_unitary(proto, fine_failure(N)))


@pytest.mark.parametrize("fine", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_pointer_start_columns_match_full_svd_construction(N, fine):
    proto = bell_pbt_protocol(N)
    fine_grained = fine_failure(N) if fine else None
    u = scatter_lift(pointer_form(proto, fine_grained=fine_grained))
    old = full_svd_pointer_unitary(proto, fine_grained)
    # columns reached from xi_b x chi_pi: ancilla and pointer both at 0
    start = np.arange(0, u.shape[1], (3 if fine else 1) * (N + 1))
    assert u[:, start].tobytes() == old[:, start].tobytes()


@pytest.mark.parametrize("fine", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_pointer_form_svd_stays_on_the_small_space(monkeypatch, N, fine):
    shapes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    proto = bell_pbt_protocol(N)
    danc = 3 if fine else 1
    op = pointer_form(proto, fine_grained=fine_failure(N) if fine else None)
    assert shapes
    assert all(rows <= proto.port_dim * proto.alice_dim * danc * (N + 1)
               for rows, _ in shapes)
    d = op.u.shape[0]
    assert np.max(np.abs(op.u.conj().T @ op.u - np.eye(d))) < 1e-12


def test_pointer_form_refuses_an_oversized_unitary_before_building_it(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the dilation was started")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    # the failure element split 725 ways: a 5800 x 5800 unitary on (a, A, ancilla, pi)
    # and the SVD's U of the same size, 1.08e9 bytes together
    proto = bell_pbt_protocol(1)
    fine = {0: [proto.kraus[0] / np.sqrt(725)] * 725}
    with pytest.raises(LayoutError, match=f"needs {2 * 16 * 5800**2} bytes.*{MEMORY_BUDGET}"):
        pointer_form(proto, fine_grained=fine)


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_theorem_rejects_sample_count_below_one(samples):
    with pytest.raises(SampleCountError, match="samples must be at least 1"):
        verify_theorem(pointer_form(bell_pbt_protocol(1)), samples, seed=1)


@pytest.mark.parametrize("fine", [False, True])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_start_column_evolution_equals_the_dense_product(N, fine):
    op = pointer_form(bell_pbt_protocol(N), fine_grained=fine_failure(N) if fine else None)
    u = scatter_lift(op)
    inputs = list(haar_states(2, 3, seed=N)) + [ket([1, 0]), ket([0, 1]), ket([1, 1j])]
    for psi in inputs:
        start = np.kron(psi.amplitudes, np.kron(op.xi_b.amplitudes, op.chi_pi.amplitudes))
        mat = (u @ start).reshape(-1, op.dim_pointer)
        for rec, kvec in zip(pointer_records(op, psi), op.pointer_basis):
            vec = mat @ kvec.amplitudes.conj()
            prob = float(np.vdot(vec, vec).real)
            if rec.post_state is None:
                assert rec.probability == 0.0 and prob < BRANCH_PRUNE
            else:
                assert rec.probability == prob
                assert rec.post_state.amplitudes.tobytes() == (
                    vec / np.sqrt(prob)).tobytes()


# ---------------------------------------------------------------------------
# unitarity, checked on the unitary of the factors the operation touches


def dense_deviation(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def pointer_op_with(u, dim_b=2, npi=2):
    return PointerOperation(
        dim_a=2,
        dim_b=dim_b,
        u=u,
        xi_b=basis_state(SystemLayout.of(("b", dim_b)), 0),
        chi_pi=basis_state(SystemLayout.of(("pi", npi)), 0),
        pointer_basis=computational_pointer_basis(npi),
    )


@pytest.mark.parametrize("N,fine", [(1, False), (2, False), (3, False), (4, False),
                                    (1, True), (2, True), (3, True)])
def test_blockwise_unitarity_matches_the_dense_product(N, fine):
    # the lift is a permutation times u x I: u is its one distinct block
    op = pointer_form(bell_pbt_protocol(N), fine_grained=fine_failure(N) if fine else None)
    deviation = unitarity_deviation(op.u)
    assert deviation <= 1e-10
    assert abs(deviation - dense_deviation(scatter_lift(op))) <= 1e-15


def test_haar_random_dense_unitary_is_accepted():
    u = haar_unitary(8, seed=5)
    assert np.count_nonzero(u) == u.size
    op = pointer_op_with(u)
    assert abs(unitarity_deviation(op.u) - dense_deviation(u)) <= 1e-15


def test_perturbation_inside_one_block_is_rejected():
    op = pointer_form(bell_pbt_protocol(2))
    u = np.array(op.u)
    u[np.unravel_index(np.argmax(np.abs(u)), u.shape)] += 1e-9
    assert np.array_equal(u != 0, op.u != 0)
    with pytest.raises(UnitarityError, match="within 1e-10"):
        dataclasses.replace(op, u=u)


def test_zero_column_is_rejected():
    u = np.eye(8, dtype=complex)
    u[:, 5] = 0.0
    with pytest.raises(UnitarityError, match="within 1e-10"):
        pointer_op_with(u)
    op = pointer_form(bell_pbt_protocol(2))
    u = np.array(op.u)
    u[:, 7] = 0.0
    with pytest.raises(UnitarityError, match="within 1e-10"):
        dataclasses.replace(op, u=u)


def version_1_document(op):
    """``op`` as a format-1 file holds it: its whole unitary, no lift, and
    [re, im] pairs."""
    doc = in_layout(pointer_to_dict(op), "pairs")
    del doc["lift"]
    doc.update(version="1", unitary=complex_pairs(scatter_lift(op)))
    return doc


def test_non_finite_entry_is_rejected(tmp_path):
    u = np.eye(8, dtype=complex)
    u[3, 3] = np.nan
    with pytest.raises(UnitarityError, match="within 1e-10"):
        pointer_op_with(u)
    op = pointer_form(bell_pbt_protocol(1))
    for doc in (version_1_document(op), pointer_to_dict(op)):
        set_part(doc["unitary"], 5, 1, float("nan"))
        path = tmp_path / "pointer.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProtocolError, match="'unitary'.*finite"):
            load_pointer(path)


@pytest.mark.parametrize("ports,ancilla,npi", [(-1, 1, 2), (0, 0, 2), (1, 1, 3), (3, 1, 4)])
def test_lift_that_does_not_fit_the_dims_is_rejected(ports, ancilla, npi):
    # b = (A, B_1, ancilla) needs dim_b divisible by 2^ports * ancilla and N + 1 outcomes
    with pytest.raises(ProtocolError, match="lift over"):
        PointerOperation(
            dim_a=2, dim_b=4, u=np.eye(2 * 4 * npi), ports=ports, ancilla=ancilla,
            xi_b=basis_state(SystemLayout.of(("b", 4)), 0),
            chi_pi=basis_state(SystemLayout.of(("pi", npi)), 0),
            pointer_basis=computational_pointer_basis(npi),
        )


def test_version_1_file_loads_as_the_zero_port_case(tmp_path):
    op = pointer_form(bell_pbt_protocol(2), fine_grained=fine_failure(2))
    path = tmp_path / "pointer-v1.json"
    path.write_text(json.dumps(version_1_document(op), sort_keys=True))
    dense = load_pointer(path)
    assert (dense.ports, dense.ancilla) == (0, 1)
    assert dense.u.tobytes() == scatter_lift(op).tobytes()
    inputs = haar_amplitudes(2, 6, 4)
    a, b = decompose_by_pointer(op, inputs), decompose_by_pointer(dense, inputs)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(a.q, b.q, rtol=0, atol=1e-15)


def test_save_and_load_pointer_round_trip(tmp_path):
    op = pointer_form(bell_pbt_protocol(2), fine_grained=fine_failure(2))
    path = tmp_path / "pointer.json"
    save_pointer(op, path)
    assert json.loads(path.read_text())["version"] == "3"
    back = load_pointer(path)
    assert (back.ports, back.ancilla) == (op.ports, op.ancilla) == (2, 3)
    assert back.u.tobytes() == op.u.tobytes()
    assert back.xi_b.amplitudes.tobytes() == op.xi_b.amplitudes.tobytes()
    assert back.chi_pi.amplitudes.tobytes() == op.chi_pi.amplitudes.tobytes()
    assert (back.dim_a, back.dim_b, back.dim_pointer) == (op.dim_a, op.dim_b, op.dim_pointer)
    psi = haar_states(2, 1, 3)[0]
    for x, y in zip(pointer_records(op, psi), pointer_records(back, psi)):
        assert x.probability == y.probability


# ---------------------------------------------------------------------------
# batched pointer branches and theorem checks against per-input references


def random_pointer_op(seed):
    """A Haar unitary on (a, b, pi) with a random start state and pointer basis."""
    rng = np.random.default_rng(seed)
    chi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return PointerOperation(
        dim_a=2, dim_b=2, u=haar_unitary(12, seed),
        xi_b=basis_state(SystemLayout.of(("b", 2)), 1),
        chi_pi=StateVector(SystemLayout.of(("pi", 3)), chi / np.linalg.norm(chi)),
        pointer_basis=tuple(StateVector(SystemLayout.of(("pi", 3)), col)
                            for col in haar_unitary(3, seed + 1).T),
    )


POINTER_CASES = [lambda: pointer_form(bell_pbt_protocol(2)),
                 lambda: pointer_form(bell_pbt_protocol(3), fine_grained=fine_failure(3)),
                 lambda: identity_pointer_op(chi_index=1),
                 lambda: random_pointer_op(5)]


@pytest.mark.parametrize("make_op", POINTER_CASES)
def test_pointer_batch_equals_the_dense_product_and_the_single_input_records(make_op):
    op = make_op()
    inputs = haar_amplitudes(2, 5, 17)
    batch = decompose_by_pointer(op, inputs)
    aux = np.kron(op.xi_b.amplitudes, op.chi_pi.amplitudes)
    u = scatter_lift(op)
    for s, amps in enumerate(inputs):
        mat = (u @ np.kron(amps, aux)).reshape(-1, op.dim_pointer)
        records = pointer_records(op, ket(amps))
        for k, kvec in enumerate(op.pointer_basis):
            vec = mat @ kvec.amplitudes.conj()
            prob = float(np.vdot(vec, vec).real)
            assert batch.q[s, k] == pytest.approx(prob, abs=1e-13)
            assert records[k].probability == pytest.approx(prob, abs=1e-13)
            if prob < BRANCH_PRUNE:
                assert records[k].post_state is None and not batch.amplitudes[s, k].any()
            else:
                np.testing.assert_allclose(batch.amplitudes[s, k], vec, atol=1e-13)
                np.testing.assert_allclose(records[k].post_state.amplitudes,
                                           vec / np.sqrt(prob), atol=1e-13)


def reference_hypothesis_failure(op):
    """The per-input hypothesis loop: the first state and success branch that
    changes the input or is entangled with b (purity read on b)."""
    lay = SystemLayout.of(("a", op.dim_a))
    states = [basis_state(lay, i) for i in range(op.dim_a)]
    for l in range(op.dim_a):
        for m in range(l + 1, op.dim_a):
            for factor in (1.0, 1.0j):
                amps = np.zeros(op.dim_a, dtype=complex)
                amps[l], amps[m] = 1.0, factor
                states.append(StateVector(lay, amps / np.sqrt(2)))
    for psi in states:
        for rec in pointer_records(op, psi)[1:]:
            if rec.post_state is None:
                continue
            rho_a = reduced_density(rec.post_state, {"a"})
            intact = float(np.max(np.abs(rho_a.entries - outer(psi).entries)))
            rho_b = reduced_density(rec.post_state, {"b"}).entries
            purity_gap = 1.0 - float(np.trace(rho_b @ rho_b).real)
            if intact > 1e-8 or purity_gap > 1e-8:
                return rec.k, intact, purity_gap
    return None


def cheating_cloner():
    u = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for b in range(2):
            for p in range(2):
                u[(a * 2 + b) * 2 + (p if a == 0 else 1 - p), (a * 2 + b) * 2 + p] = 1.0
    return pointer_op_with(u)


@pytest.mark.parametrize("make_op", [cheating_cloner, lambda: random_pointer_op(8),
                                     lambda: pointer_op_with(haar_unitary(8, 3))])
def test_hypothesis_failure_matches_the_per_input_loop(make_op):
    op = make_op()
    rep = verify_theorem(op, samples=4, seed=2)
    k, intact, purity_gap = reference_hypothesis_failure(op)
    assert not rep.preconditions_met and len(rep.checks) == 1
    details = rep.checks[0].details
    assert details["k"] == k
    assert details["input_deviation"] == pytest.approx(intact, abs=1e-13)
    assert details["purity_gap"] == pytest.approx(purity_gap, abs=1e-13)


def reference_failure_overlap(op, samples, seed):
    """Eq.a8 as the O(S^2) pair loop over failure states."""
    failures = []
    for psi in haar_states(op.dim_a, samples, seed):
        rec = pointer_records(op, psi)[0]
        if rec.post_state is not None:
            failures.append((psi.amplitudes, rec.post_state.amplitudes))
    worst = 0.0
    for i in range(len(failures)):
        for j in range(i + 1, len(failures)):
            lhs = np.vdot(failures[i][1], failures[j][1])
            rhs = np.vdot(failures[i][0], failures[j][0])
            worst = max(worst, float(abs(lhs - rhs)))
    return worst, len(failures) * (len(failures) - 1) // 2


@pytest.mark.parametrize("make_op", [lambda: pointer_form(bell_pbt_protocol(1)),
                                     lambda: pointer_form(bell_pbt_protocol(3)),
                                     lambda: identity_pointer_op(chi_index=0),
                                     lambda: identity_pointer_op(chi_index=1)])
def test_failure_overlap_gram_matches_the_pair_loop(make_op):
    op = make_op()
    rep = verify_theorem(op, samples=12, seed=6)
    worst, pairs = reference_failure_overlap(op, 12, 6)
    check = rep.checks[-1]
    assert check.tag == "Eq.a8" and check.details["pairs"] == pairs
    assert check.deviation == pytest.approx(worst, abs=1e-13)


def whole_gram_drift(f: np.ndarray, psi: np.ndarray) -> float:
    """The pairwise check as one Gram difference over all failure states."""
    gram = f.conj() @ f.T - psi.conj() @ psi.T
    return float(np.max(np.abs(np.triu(gram, 1)), initial=0.0))


@pytest.mark.parametrize("rows", [0, 1, 5, 7, 8, 23])
def test_tiled_overlap_drift_matches_the_whole_gram(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    f = rng.standard_normal((rows, 6)) + 1j * rng.standard_normal((rows, 6))
    psi = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    whole = whole_gram_drift(f, psi)
    assert nocloning._overlap_drift(f, psi) == whole  # one tile: the same sums
    monkeypatch.setattr(nocloning, "GRAM_TILE", 4)
    assert nocloning._overlap_drift(f, psi) == pytest.approx(whole, rel=1e-15)


def test_verify_theorem_memory_stays_flat_in_the_sample_count():
    op = pointer_form(bell_pbt_protocol(1))
    tracemalloc.start()
    try:
        rep = verify_theorem(op, samples=4000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole Gram of the ~3000 failure states alone would take over 140 MB
    assert peak <= 50e6
    check = rep.checks[-1]
    assert check.passed and check.details["pairs"] > 1024 * 1023 // 2


@pytest.mark.parametrize("N", [1, 2, 3])
def test_chunked_verify_theorem_matches_one_batch(monkeypatch, N):
    op = pointer_form(bell_pbt_protocol(N))
    whole = verify_theorem(op, samples=10, seed=N).to_dict()
    monkeypatch.setattr(branches, "BATCH_BYTES", 16 * op.dim * 3)
    got = verify_theorem(op, samples=10, seed=N).to_dict()
    for a, b in zip(got["checks"], whole["checks"]):
        assert a["details"] == b["details"] and a["passed"] == b["passed"]
        assert (a["deviation"] or 0.0) == pytest.approx(b["deviation"] or 0.0, abs=1e-13)
    assert len(got["checks"]) == len(whole["checks"]) == 4


@pytest.mark.parametrize("field", ["unitary", "xi", "chi"])
def test_pointer_from_dict_rejects_non_finite_entries(field):
    for layout in LAYOUTS:
        doc = in_layout(pointer_to_dict(pointer_form(bell_pbt_protocol(1))), layout)
        set_part(doc[field], 0, 0, float("nan"))
        with pytest.raises(ProtocolError, match=f"'{field}'.*finite"):
            pointer_from_dict(doc)
