"""Protocol engine tests: branch statistics, marginals, decomposition, Lemma-style checks."""

import json
import re

import numpy as np
import pytest

from pbtkit import branches, engine
from pbtkit.branches import BRANCH_PRUNE
from pbtkit.errors import LayoutError, ProtocolError, SampleCountError
from pbtkit.engine import (
    PURITY_ATOL,
    PbtProtocol,
    bell_pbt_protocol,
    measure,
    mixture_residuals,
    port_marginals,
    port_table,
    protocol_from_dict,
    protocol_to_dict,
    standard_resource,
    teleport_report,
    verify_port_decomposition,
    verify_psi_independence,
)
from pbtkit.nocloning import decompose_by_pointer, pointer_form
from pbtkit.pauli import SIGMA, haar_amplitudes, haar_states
from pbtkit.primed import build_primed, run_primed
from pbtkit.tensor import (
    HermitianMatrix,
    StateVector,
    SystemLayout,
    basis_state,
    permute_subsystems,
    reduced_density,
    schmidt_decompose,
)
from reference import (
    LAYOUTS,
    branches_of,
    fidelity,
    in_layout,
    paired_resource,
    permute_operator,
    set_part,
    state_fidelity,
    states_equal,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def ket(amps, label="a"):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(SystemLayout.of((label, amps.size)), amps / np.linalg.norm(amps))


def bell_oracle_branches(psi_amps):
    """Brute-force oracle for the single-pair protocol: project (a, A) onto each
    Bell vector of the 3-qubit state psi_a x pair_{A,B1}, bookkeeping by hand."""
    state = np.kron(psi_amps, BELL)  # order (a, A, B1)
    bells = [
        np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
        np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
        np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
        np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    ]
    outcomes = []
    for b in bells:
        proj = np.kron(np.outer(b, b.conj()), np.eye(2))
        vec = proj @ state
        prob = float(np.vdot(vec, vec).real)
        outcomes.append((prob, vec / np.sqrt(prob) if prob > 1e-12 else None))
    return outcomes


def trivial_protocol():
    """The single-pair resource with a measurement that always reports outcome 1
    and leaves the state alone (its root is the identity)."""
    proto = bell_pbt_protocol(1)
    lay = proto.povm[0].layout
    povm = (HermitianMatrix(lay, np.zeros((4, 4), dtype=complex)),
            HermitianMatrix(lay, np.eye(4, dtype=complex)))
    return PbtProtocol(n=1, N=1, resource=proto.resource, povm=povm)


def test_build_global_state_trivial_product():
    # the joint state before measurement, as the branch of the identity root
    zero = basis_state(SystemLayout.of(("a", 2)), 0)
    g = branches_of(measure(trivial_protocol(), zero.amplitudes[None]))[1].post_state
    assert g.layout.labels == ("a", "A", "B1")
    assert abs(g.norm() - 1.0) < 1e-12
    # amplitudes match the independent Kronecker expansion
    np.testing.assert_allclose(g.amplitudes, np.kron(zero.amplitudes, BELL), atol=1e-15)


def test_measure_bell_protocol_matches_projection_oracle():
    proto = bell_pbt_protocol(1)
    zero = basis_state(SystemLayout.of(("a", 2)), 0)
    branches = branches_of(measure(proto, zero.amplitudes[None]))
    oracle = bell_oracle_branches(zero.amplitudes)
    assert branches[1].probability == pytest.approx(0.25, abs=1e-12)
    assert branches[0].probability == pytest.approx(0.75, abs=1e-12)
    # success branch: |0> at the port, maximally entangled residual on (a, A)
    rho_port = reduced_density(branches[1].post_state, {"B1"})
    assert fidelity(zero, rho_port) == pytest.approx(1.0, abs=1e-12)
    phi_plus = ket(BELL, label="pair")
    rho_rest = reduced_density(branches[1].post_state, {"a", "A"})
    assert fidelity(phi_plus, rho_rest) == pytest.approx(1.0, abs=1e-12)
    # oracle cross-check of the success amplitude vector
    assert abs(np.vdot(oracle[0][1], branches[1].post_state.amplitudes)) == pytest.approx(
        1.0, abs=1e-12)


def test_branch_probabilities_sum_to_one():
    proto = bell_pbt_protocol(2)
    for psi in haar_states(2, 10, seed=1):
        probs = measure(proto, psi.amplitudes[None]).q[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert probs[1:].sum() == pytest.approx(0.25, abs=1e-10)


def test_trivial_measurement_single_branch():
    trivial = trivial_protocol()
    psi = ket([0.6, 0.8])
    branches = branches_of(measure(trivial, psi.amplitudes[None]))
    assert branches[1].probability == pytest.approx(1.0, abs=1e-12)
    assert branches[0].post_state is None and branches[0].probability == 0.0
    joint = np.kron(psi.amplitudes, trivial.resource.amplitudes)
    assert states_equal(branches[1].post_state, StateVector(trivial.global_layout(), joint))


def test_measure_linearity_over_mixtures():
    # ensemble average of branch probabilities == density-path probabilities
    proto = bell_pbt_protocol(2)
    psi1, psi2 = haar_states(2, 2, seed=8)
    w1, w2 = 0.3, 0.7
    q = measure(proto, np.array([psi1.amplitudes, psi2.amplitudes])).q
    ensemble = w1 * q[0] + w2 * q[1]
    # independent density-path oracle: q_k = Tr[(M_k x I)(rho_a x xi xi)]
    rho_a = w1 * np.outer(psi1.amplitudes, psi1.amplitudes.conj()) \
        + w2 * np.outer(psi2.amplitudes, psi2.amplitudes.conj())
    xi = np.outer(proto.resource.amplitudes, proto.resource.amplitudes.conj())
    global_rho = np.kron(rho_a, xi)
    dim_b = 4
    for k, m in enumerate(proto.povm):
        mk_full = np.kron(m.entries, np.eye(dim_b))
        q = float(np.trace(mk_full @ global_rho).real)
        assert q == pytest.approx(ensemble[k], abs=1e-10)


def test_teleport_report_bell():
    proto = bell_pbt_protocol(1)
    inputs = ket([1, 1j]).amplitudes[None]
    batch = measure(proto, inputs)
    fid, purity = teleport_report(batch, inputs)
    assert fid[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - purity[0, 0] <= PURITY_ATOL  # the residual can be extracted
    residual = StateVector(proto.global_layout().without({"B1"}), batch.residuals("B1", 1)[0])
    assert residual.layout.labels == ("a", "A")
    assert state_fidelity(residual, ket(BELL, label="x")) == pytest.approx(1.0, abs=1e-10)
    assert fid.shape == purity.shape == (1, 1)  # success outcomes only


def test_teleport_report_orthogonal_flip():
    # a protocol teleporting sigma_x psi: fidelity 0 for psi = |0>
    base = bell_pbt_protocol(1)
    flip = np.kron(np.eye(2), SIGMA[1])  # sigma_x on A before the Bell projection
    povm = tuple(
        HermitianMatrix(m.layout, flip.conj().T @ m.entries @ flip) for m in base.povm
    )
    proto = PbtProtocol(n=1, N=1, resource=base.resource, povm=povm)
    inputs = basis_state(SystemLayout.of(("a", 2)), 0).amplitudes[None]
    fid = teleport_report(measure(proto, inputs), inputs)[0]
    assert fid[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_port_marginals_bell():
    proto = bell_pbt_protocol(1)
    zero = basis_state(SystemLayout.of(("a", 2)), 0).amplitudes[None]
    marg = port_marginals(proto, zero, 1)[0]
    eta = reduced_density(proto.resource, {"B1"})
    np.testing.assert_allclose(eta.entries, np.eye(2) / 2, atol=1e-12)
    assert marg.shape == (2, 2, 2)  # failure and port 1's own outcome: no miss outcome
    # failure marginal: (1/3) diag(1, 2), from enumerating the three failure branches
    np.testing.assert_allclose(marg[0], np.diag([1, 2]) / 3, atol=1e-12)
    with pytest.raises(LayoutError):
        port_marginals(proto, zero, 2)


def test_port_marginal_eta_is_input_independent():
    proto = bell_pbt_protocol(2)
    # the branch mixture of port 2's marginals is the same for both inputs
    eta = measure(proto, haar_amplitudes(2, 2, 21)).marginals("B2").sum(axis=1)
    assert np.max(np.abs(eta[0] - eta[1])) < 1e-12


def test_eta_equals_premeasurement_marginal():
    proto = bell_pbt_protocol(2)
    psi = haar_states(2, 1, seed=33)[0]
    g = StateVector(proto.global_layout(), np.kron(psi.amplitudes, proto.resource.amplitudes))
    batch = measure(proto, psi.amplitudes[None])
    for j in (1, 2):
        direct = reduced_density(g, {f"B{j}"})
        eta = reduced_density(proto.resource, {f"B{j}"})
        np.testing.assert_allclose(direct.entries, eta.entries, atol=1e-13)
        np.testing.assert_allclose(batch.marginals(f"B{j}").sum(axis=1)[0], eta.entries,
                                   atol=1e-13)


def test_port_decomposition_bell_all_ports():
    for N in (1, 2, 3):
        proto = bell_pbt_protocol(N)
        for psi in haar_states(2, 5, seed=100 + N):
            for j in range(1, N + 1):
                rep = verify_port_decomposition(proto, psi, j)
                assert rep.passed, rep.to_dict()
                assert rep.max_deviation() < 1e-12


def test_port_decomposition_measures_once(monkeypatch):
    calls = []

    def counted(proto, inputs):
        calls.append(len(inputs))
        return measure(proto, inputs)

    monkeypatch.setattr(engine, "measure", counted)
    proto = bell_pbt_protocol(2)
    rep = verify_port_decomposition(proto, ket([0.6, 0.8j]), 2)
    assert calls == [1]
    assert rep.passed and rep.checks[0].details["q"] == pytest.approx([0.75, 0.25, 0.0])


def test_port_decomposition_trivial_measurement():
    # measurement that never fails: decomposition degenerates to gamma terms only
    base = bell_pbt_protocol(2)
    d = base.povm[0].dim
    lay = base.povm[0].layout
    povm = (HermitianMatrix(lay, np.zeros((d, d), dtype=complex)),
            HermitianMatrix(lay, np.eye(d, dtype=complex)),
            HermitianMatrix(lay, np.zeros((d, d), dtype=complex)))
    proto = PbtProtocol(n=1, N=2, resource=base.resource, povm=povm)
    psi = ket([1, 2j])
    rep = verify_port_decomposition(proto, psi, 2)
    assert rep.passed


def test_port_decomposition_detects_corruption():
    proto = bell_pbt_protocol(2)
    inputs = ket([0.6, 0.8]).amplitudes[None]
    q = measure(proto, inputs).q[0]
    marg = port_marginals(proto, inputs, 2)[0]
    q1 = q[1]
    corrupted = marg[1] + 1e-3 * np.diag([1.0, -1.0])
    mix = q1 * corrupted + q[0] * marg[0]
    residual = np.max(np.abs(reduced_density(proto.resource, {"B2"}).entries - mix))
    assert residual == pytest.approx(q1 * 1e-3, rel=1e-6)


def test_psi_independence_bell():
    rep = verify_psi_independence(bell_pbt_protocol(1), sample_count=50, seed=5)
    assert rep.preconditions_met
    assert rep.passed, rep.to_dict()
    info = [c for c in rep.checks if "informational" in c.name]
    assert info and info[0].details["spread"] > 0.1  # failure marginal really varies


def test_psi_independence_precondition_rejects_non_perfect():
    # M_1 projects onto |0><0|_a x I: outcome statistics depend on the input
    base = bell_pbt_protocol(1)
    lay = base.povm[0].layout
    m1 = np.kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2))
    povm = (HermitianMatrix(lay, np.eye(4) - m1), HermitianMatrix(lay, m1))
    proto = PbtProtocol(n=1, N=1, resource=base.resource, povm=povm)
    rep = verify_psi_independence(proto, sample_count=5, seed=2)
    assert not rep.preconditions_met
    assert "not applicable" in rep.note


def test_bell_protocol_values():
    for N in (1, 2, 3):
        proto = bell_pbt_protocol(N)
        q = measure(proto, ket([1, -1]).amplitudes[None]).q[0]
        assert q[1:].sum() == pytest.approx(0.25, abs=1e-12)
    # completeness is exact by construction
    total = sum(m.entries for m in bell_pbt_protocol(3).povm)
    np.testing.assert_array_equal(total, np.eye(16))


#: the most ports whose one-input branches fit the memory budget, per n: the
#: N whose reference protocol, input included, stayed within 2^22 amplitudes
LAST_RESOURCE_PORTS = {1: 10, 2: 5, 3: 3}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_resource_is_the_product_of_its_pairs_bit_for_bit(n):
    for big_n in range(1, LAST_RESOURCE_PORTS[n] + 1):
        got, expected = standard_resource(n, big_n), paired_resource(n, big_n)
        assert got.layout == expected.layout
        assert got.amplitudes.tobytes() == expected.amplitudes.tobytes(), big_n
    with pytest.raises(LayoutError, match="cap"):
        standard_resource(n, LAST_RESOURCE_PORTS[n] + 1)


def test_standard_resource_above_the_cap_is_refused_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the resource was allocated before the cap check")

    monkeypatch.setattr(engine.np, "eye", refuse)
    # 13 branches of 2^25 amplitudes
    with pytest.raises(LayoutError, match=f"needs {16 * 13 * 2**25} bytes, above the cap"):
        standard_resource(1, 12)


def test_protocol_invariant_violations_raise():
    proto = bell_pbt_protocol(1)
    bad = tuple(
        HermitianMatrix(m.layout, m.entries * 1.01) for m in proto.povm
    )
    with pytest.raises(ProtocolError, match="completeness"):
        PbtProtocol(n=1, N=1, resource=proto.resource, povm=bad)
    neg = (HermitianMatrix(proto.povm[0].layout, -0.01 * np.eye(4)),
           HermitianMatrix(proto.povm[0].layout, 1.01 * np.eye(4)))
    with pytest.raises(ProtocolError, match="PSD"):
        PbtProtocol(n=1, N=1, resource=proto.resource, povm=neg)


def test_protocol_json_roundtrip():
    proto = bell_pbt_protocol(2)
    doc = protocol_to_dict(proto)
    assert doc["dims"] == {"a": 2, "A": 4, "B": 2}
    back = protocol_from_dict(doc)
    np.testing.assert_allclose(back.resource.amplitudes, proto.resource.amplitudes)
    for m1, m2 in zip(back.povm, proto.povm):
        np.testing.assert_allclose(m1.entries, m2.entries)


def test_protocol_from_dict_names_missing_field():
    doc = protocol_to_dict(bell_pbt_protocol(1))
    del doc["povm"]
    with pytest.raises(ProtocolError, match="povm"):
        protocol_from_dict(doc)


@pytest.mark.parametrize("field,value,named", [
    ("resource", 5.0, "'resource'.*norm"),
    ("povm", 0.5, "'povm\\[1\\]'.*conjugate transpose"),
    ("n", "two", "'n'.*integer"),
    ("N", None, "'N'.*integer"),
])
def test_protocol_from_dict_names_an_invalid_field(field, value, named):
    for layout in LAYOUTS:
        doc = in_layout(protocol_to_dict(bell_pbt_protocol(2)), layout)
        if field == "resource":
            set_part(doc["resource"], 3, 0, value)
        elif field == "povm":
            set_part(doc["povm"][1], 5, 1, value)
        else:
            doc[field] = value
        with pytest.raises(ProtocolError, match=named):
            protocol_from_dict(doc)


def test_kraus_roots_square_to_povm_and_are_cached():
    proto = bell_pbt_protocol(3)
    roots = proto.kraus
    assert proto.kraus is roots
    assert len(roots) == len(proto.povm)
    for root, m in zip(roots, proto.povm):
        np.testing.assert_allclose(root @ root, m.entries, atol=1e-12)


def test_kraus_roots_and_povm_entries_are_read_only():
    proto = bell_pbt_protocol(2)
    for root, m in zip(proto.kraus, proto.povm):
        with pytest.raises(ValueError):
            root[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0


def test_measure_computes_each_root_once_and_never_revalidates(monkeypatch):
    base = bell_pbt_protocol(2)
    calls = {"eigh": 0, "validate": 0}
    real_eigh = np.linalg.eigh

    def counting_eigh(mat, *args, **kwargs):
        calls["eigh"] += 1
        return real_eigh(mat, *args, **kwargs)

    def counting_validate(self):
        calls["validate"] += 1

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    proto = PbtProtocol(n=1, N=2, resource=base.resource, povm=base.povm)
    roots = proto.kraus
    monkeypatch.setattr(PbtProtocol, "validate", counting_validate)
    for psi in haar_states(2, 4, seed=12):
        measure(proto, psi.amplitudes[None])
        port_marginals(proto, psi.amplitudes[None], 1)
    assert calls == {"eigh": len(proto.povm), "validate": 0}
    assert proto.kraus is roots


def test_validate_builds_the_roots_from_its_psd_check():
    proto = random_protocol(2, 7)
    for root, m in zip(proto.kraus, proto.povm):
        # the square root from a second eigendecomposition, bit for bit
        w, v = np.linalg.eigh(m.entries)
        np.testing.assert_array_equal(root, (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    base = bell_pbt_protocol(2)
    lay, shift = base.povm[0].layout, 0.05 * np.eye(8)
    povm = (HermitianMatrix(lay, base.povm[0].entries + shift), base.povm[1],
            HermitianMatrix(lay, -shift))
    with pytest.raises(ProtocolError, match="POVM element 2 is not PSD: min eigenvalue -5"):
        PbtProtocol(n=1, N=2, resource=base.resource, povm=povm)


@pytest.mark.parametrize("run", [
    lambda rows: measure(bell_pbt_protocol(1), rows),
    lambda rows: run_primed(build_primed(bell_pbt_protocol(1)), rows),
    lambda rows: decompose_by_pointer(pointer_form(bell_pbt_protocol(1)), rows),
], ids=["measure", "run_primed", "decompose_by_pointer"])
@pytest.mark.parametrize("shape", [(1, 4), (3, 1), (2,)])
def test_each_measurement_routine_names_both_input_widths(run, shape):
    with pytest.raises(LayoutError, match=rf"rows of 2 amplitudes.*shape {re.escape(str(shape))}"):
        run(np.ones(shape, dtype=complex) / 2)


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_psi_independence_rejects_sample_count_below_one(samples):
    with pytest.raises(SampleCountError, match="samples must be at least 1"):
        verify_psi_independence(bell_pbt_protocol(1), samples, seed=1)


# ---------------------------------------------------------------------------
# batched branches against single-input and brute-force references


def random_protocol(N, seed, dim_alice=2):
    """A non-perfect protocol: Haar resource, POVM from a random isometry."""
    rng = np.random.default_rng(seed)
    layout = SystemLayout((("A", dim_alice),) + tuple((f"B{j}", 2) for j in range(1, N + 1)))
    amps = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    resource = StateVector(layout, amps / np.linalg.norm(amps))
    d = 2 * dim_alice
    z = rng.standard_normal(((N + 1) * d, d)) + 1j * rng.standard_normal(((N + 1) * d, d))
    blocks = np.linalg.qr(z)[0].reshape(N + 1, d, d)
    povm_layout = SystemLayout.of(("a", 2), ("A", dim_alice))
    povm = tuple(HermitianMatrix(povm_layout, 0.5 * (b.conj().T @ b + b.T @ b.conj()))
                 for b in blocks)
    return PbtProtocol(n=1, N=N, resource=resource, povm=povm)


def brute_branches(proto, psi_amps):
    """(probability, normalized branch over (a, A, ports) or None) per outcome,
    from the dense operators (K_k x I) on psi x resource."""
    state = np.kron(psi_amps, proto.resource.amplitudes)
    rest = np.eye(proto.resource.dim // proto.alice_dim)
    out = []
    for root in proto.kraus:
        vec = np.kron(root, rest) @ state
        q = float(np.vdot(vec, vec).real)
        out.append((q, vec / np.sqrt(q)) if q >= BRANCH_PRUNE else (0.0, None))
    return out


BATCH_CASES = ([("random", N, 40 + N) for N in (1, 2, 3)]
               + [("bell", N, 50 + N) for N in (1, 2, 3, 4)])


def batch_case(kind, N, seed):
    return random_protocol(N, seed) if kind == "random" else bell_pbt_protocol(N)


@pytest.mark.parametrize("kind,N,seed", BATCH_CASES)
def test_batched_branches_equal_single_input_and_brute_force_references(kind, N, seed):
    proto = batch_case(kind, N, seed)
    inputs = haar_amplitudes(2, 6, seed)
    batch = measure(proto, inputs)
    fid, purity = teleport_report(batch, inputs)
    ports = port_table(batch)
    layout = proto.global_layout()
    for s, amps in enumerate(inputs):
        psi = ket(amps)
        single = branches_of(measure(proto, amps[None]))
        single_fid = teleport_report(measure(proto, amps[None]), amps[None])[0][0]
        for k, (q, vec) in enumerate(brute_branches(proto, amps)):
            assert batch.q[s, k] == pytest.approx(q, abs=1e-13)
            assert single[k].probability == pytest.approx(q, abs=1e-13)
            if vec is None:
                assert single[k].post_state is None and not batch.present[s, k]
                assert not batch.amplitudes[s, k].any() and not ports[s, k].any()
                continue
            post = StateVector(layout, vec)
            assert state_fidelity(single[k].post_state, post) == pytest.approx(1.0, abs=1e-13)
            for j in range(1, N + 1):
                rho = reduced_density(post, {f"B{j}"}).entries
                np.testing.assert_allclose(ports[s, k, j - 1] / q, rho, atol=1e-13)
            if k == 0:
                continue
            own = reduced_density(post, {f"B{k}"})
            assert fid[s, k - 1] == pytest.approx(fidelity(psi, own), abs=1e-13)
            assert purity[s, k - 1] == pytest.approx(
                np.trace(own.entries @ own.entries).real, abs=1e-13)
            assert single_fid[k - 1] == pytest.approx(fid[s, k - 1], abs=1e-13)
            _, _, right = schmidt_decompose(post, {f"B{k}"})
            residual = StateVector(right[0].layout, batch.residuals(f"B{k}", k)[s])
            assert state_fidelity(residual, right[0]) == pytest.approx(1.0, abs=1e-13)
        for j in range(1, N + 1):
            marg = port_marginals(proto, amps[None], j)[0]
            for i in np.flatnonzero(batch.present[s, 1:]) + 1:
                if i != j:
                    np.testing.assert_allclose(marg[i], ports[s, i, j - 1] / batch.q[s, i],
                                               atol=1e-13)
            rep = verify_port_decomposition(proto, psi, j)
            assert rep.checks[0].deviation == pytest.approx(
                mixture_residuals(proto, inputs)[s, j - 1], abs=1e-13)


def test_branch_matrices_over_a_tuple_of_labels():
    proto = bell_pbt_protocol(3)
    layout = proto.global_layout()
    labels = ("B3", "a", "B1")
    rest = [lbl for lbl in layout.labels if lbl not in labels]
    batch = measure(proto, haar_amplitudes(2, 3, 5))
    for s in range(3):
        for k in np.flatnonzero(batch.present[s]).tolist():
            # the normalized branch; dividing by one scalar commutes with any reordering
            scale = np.sqrt(batch.q[s, k])
            post = StateVector(layout, batch.amplitudes[s, k] / scale)
            ordered = permute_subsystems(post, list(labels) + rest).amplitudes.reshape(8, -1)
            np.testing.assert_array_equal(batch.split(labels, k)[s] / scale, ordered)
            rho = permute_operator(reduced_density(post, set(labels)), labels).entries
            np.testing.assert_allclose(batch.marginals(labels, k)[s], batch.q[s, k] * rho,
                                       atol=1e-13)
    # a hit leaves the input alone on B1: the branch factorizes across the rest
    others = ("B2", "A", "B3", "a")
    for s, amps in enumerate(haar_amplitudes(2, 3, 5)):
        residual = StateVector(SystemLayout.of(("B1", 2)), batch.residuals(others, 1)[s])
        assert state_fidelity(residual, ket(amps)) == pytest.approx(1.0, abs=1e-13)


def test_pruned_branches_add_nothing():
    proto = bell_pbt_protocol(4)
    inputs = haar_amplitudes(2, 5, 3)
    batch = measure(proto, inputs)
    assert np.all(batch.q[:, 2:] == 0.0) and not batch.present[:, 2:].any()
    assert not batch.amplitudes[:, 2:].any()
    assert not port_table(batch)[:, 2:].any()
    marg = port_marginals(proto, inputs[:1], 3)[0]
    assert [i for i in (1, 2, 4) if marg[i].any()] == [1]  # the miss outcomes present
    assert [b.post_state is None for b in branches_of(measure(proto, inputs[:1]))] == [
        False, False, True, True, True]


def test_residuals_factor_the_reached_outcomes_and_drift_as_factoring_all():
    # outcome 0 reached by every input, outcome 1 by inputs 0 and 2, outcome 2 by none
    rng = np.random.default_rng(8)
    amps = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
    amps[[1, 3], 1] = amps[:, 2] = 0.0
    batch = branches.BranchBatch.of(SystemLayout.of(("x", 2), ("y", 3)), amps)
    assert batch.present.tolist() == [[True, True, False], [True, False, False]] * 2
    every = np.linalg.svd(batch.split("x"), full_matrices=False)[2][..., 0, :]
    got = batch.residuals("x", slice(None))
    np.testing.assert_array_equal(got[:, :2], every[:, :2])
    assert not got[:, 2].any()
    np.testing.assert_array_equal(batch.residuals("x", 1), every[:, 1])
    assert not batch.residuals("x", 2).any()
    drifts = []
    for values in (got, every):
        drift = branches.Drift(branches.infidelity)
        drift.add(values[:2], batch.present[:2])
        drift.add(values[2:], batch.present[2:])
        drifts.append(drift.worst)
    assert drifts[0] == drifts[1] > 0.1


def shrink_chunks(monkeypatch, proto, rows):
    """Make every chunk of a sample set hold ``rows`` inputs of ``proto``."""
    per_row = 16 * (proto.N + 1) * proto.global_layout().total_dim
    monkeypatch.setattr(branches, "BATCH_BYTES", rows * per_row + per_row // 2)


@pytest.mark.parametrize("kind,N,seed", [("bell", 3, 5), ("random", 2, 6)])
def test_chunked_sample_sets_match_one_batch(monkeypatch, kind, N, seed):
    proto = batch_case(kind, N, seed)
    inputs = haar_amplitudes(2, 10, seed)
    whole = (mixture_residuals(proto, inputs),
             verify_psi_independence(proto, 10, seed).to_dict())
    shrink_chunks(monkeypatch, proto, 3)
    assert [len(part) for part in branches.input_chunks(
        inputs, (N + 1) * proto.global_layout().total_dim)] == [3, 3, 3, 1]
    np.testing.assert_allclose(mixture_residuals(proto, inputs), whole[0], rtol=0, atol=1e-13)
    assert_reports_close(verify_psi_independence(proto, 10, seed).to_dict(), whole[1])


def assert_reports_close(got, want, atol=1e-13):
    """Equal structure, strings, flags and counts; floats within ``atol``."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_reports_close(got[key], want[key], atol)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_reports_close(g, w, atol)
    elif isinstance(want, float):
        assert type(got) is float and got == pytest.approx(want, abs=atol)
    else:
        assert type(got) is type(want) and got == want


def reference_precondition(proto, inputs):
    """(k, fidelity) where the per-input loop of ``verify_psi_independence``
    stopped: the first sample, then the first success branch, whose port
    marginal is not the input or not pure; None if every one passed."""
    for amps in inputs:
        psi = ket(amps)
        for k, (q, vec) in enumerate(brute_branches(proto, amps)):
            if k == 0 or vec is None:
                continue
            rho = reduced_density(StateVector(proto.global_layout(), vec), {f"B{k}"})
            fid = fidelity(psi, rho)
            if fid < 1.0 - 1e-8 or 1.0 - np.trace(rho.entries @ rho.entries).real > 1e-8:
                return k, fid
    return None


def second_outcome_imperfect():
    """Outcome 1 teleports perfectly to B1; outcome 2 (a weak singlet projection
    on (a, A1)) does not deliver at B2, so every input stops at k = 2."""
    base = bell_pbt_protocol(2)
    singlet = np.kron(np.array([0, 1, -1, 0]) / np.sqrt(2), [1, 0])
    m2 = 0.5 * np.outer(singlet, singlet).astype(complex)
    lay = base.povm[0].layout
    povm = (HermitianMatrix(lay, base.povm[0].entries - m2), base.povm[1],
            HermitianMatrix(lay, m2))
    return PbtProtocol(n=1, N=2, resource=base.resource, povm=povm)


@pytest.mark.parametrize("rows", [None, 1, 4])
@pytest.mark.parametrize("proto_of", [second_outcome_imperfect,
                                      lambda: random_protocol(3, 9)])
def test_precondition_failure_matches_the_per_input_loop(monkeypatch, proto_of, rows):
    proto = proto_of()
    if rows:
        shrink_chunks(monkeypatch, proto, rows)
    rep = verify_psi_independence(proto, 9, seed=4)
    k, fid = reference_precondition(proto, haar_amplitudes(2, 9, 4))
    assert not rep.preconditions_met and len(rep.checks) == 1
    assert rep.checks[0].details["k"] == k
    assert rep.checks[0].details["fidelity"] == pytest.approx(fid, abs=1e-13)


def tiny_third_outcome():
    """Bell protocol on three ports with outcome 3 weighted 1e-14: always pruned."""
    base = bell_pbt_protocol(3)
    lay = base.povm[0].layout
    m3 = 1e-14 * np.eye(lay.total_dim, dtype=complex)
    povm = (HermitianMatrix(lay, base.povm[0].entries - m3),) + base.povm[1:3] + (
        HermitianMatrix(lay, m3),)
    return PbtProtocol(n=1, N=3, resource=base.resource, povm=povm)


def test_branches_below_the_prune_threshold_are_zeroed():
    proto = tiny_third_outcome()
    inputs = haar_amplitudes(2, 4, 1)
    batch = measure(proto, inputs)
    assert np.all(batch.q[:, 3] == 0.0) and not batch.amplitudes[:, 3].any()
    assert not port_table(batch)[:, 3].any()
    assert branches_of(measure(proto, inputs[:1]))[3].post_state is None
    assert not port_marginals(proto, inputs[:1], 1)[0, 2:].any()  # no miss outcome present


def input_dependent_failures():
    """Outcome 1 (weight 1/2 on |1>_a|0>|0>) and outcome 2 (on |0>_a|0>|1>)
    never deliver the input; each is absent for one basis input."""
    base = bell_pbt_protocol(2)
    lay = base.povm[0].layout
    m1, m2 = np.zeros((8, 8), dtype=complex), np.zeros((8, 8), dtype=complex)
    m1[4, 4] = m2[1, 1] = 0.5
    povm = (HermitianMatrix(lay, np.eye(8) - m1 - m2), HermitianMatrix(lay, m1),
            HermitianMatrix(lay, m2))
    return PbtProtocol(n=1, N=2, resource=base.resource, povm=povm)


@pytest.mark.parametrize("rows", [None, 1])
def test_precondition_failure_is_found_sample_by_sample(monkeypatch, rows):
    # input |0> stops at k = 2 only, input |1> at k = 1: sample order decides
    import pbtkit.engine as engine

    proto = input_dependent_failures()
    inputs = np.vstack([[1.0, 0.0], [0.0, 1.0], haar_amplitudes(2, 3, 2)]).astype(complex)
    monkeypatch.setattr(engine, "haar_amplitudes", lambda dim, count, seed: inputs)
    if rows:
        shrink_chunks(monkeypatch, proto, rows)
    rep = verify_psi_independence(proto, len(inputs), seed=0)
    k, fid = reference_precondition(proto, inputs)
    assert (k, rep.checks[0].details["k"]) == (2, 2)
    assert rep.checks[0].details["fidelity"] == pytest.approx(fid, abs=1e-13)
