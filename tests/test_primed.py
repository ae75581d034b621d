"""Twirl-layer tests: resource construction, marginals, term-by-term failure check."""

import numpy as np
import pytest

from pbtkit import branches
from pbtkit.engine import (
    HermitianMatrix,
    PbtProtocol,
    bell_pbt_protocol,
    measure,
    port_table,
    teleport_report,
)
from pbtkit.errors import LayoutError, ProtocolError
from pbtkit.pauli import SIGMA, haar_amplitudes, haar_states
from pbtkit.primed import (
    PrimedProtocol,
    build_primed,
    commutation_witness,
    input_side_unitary,
    primed_from_dict,
    primed_port_marginals,
    primed_to_dict,
    run_primed,
    verify_eq5,
    verify_failure_marginal_twirl,
)
from pbtkit.tensor import (
    StateVector,
    SystemLayout,
    _apply_matrix,
    apply_on_subsystems,
    basis_state,
    reduced_density,
    tensor_product,
)
from reference import branches_of, fidelity

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PAULIS = [SIGMA[0], SIGMA[1], SIGMA[2], SIGMA[3]]


def ket(amps, label="a"):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(SystemLayout.of((label, amps.size)), amps / np.linalg.norm(amps))


def test_build_primed_matches_four_term_sum_oracle():
    primed = build_primed(bell_pbt_protocol(1))
    # independent oracle: explicit 4-term controlled-Pauli sum over the ports
    expected = np.zeros(4 * 4, dtype=complex)
    for l in range(4):
        e_l = np.zeros(4, dtype=complex)
        e_l[l] = 1.0
        rotated = np.kron(np.eye(2), PAULIS[l]) @ BELL  # V_l on the port half
        expected += np.kron(e_l, rotated) / 2
    np.testing.assert_allclose(primed.primed_resource.amplitudes, expected, atol=1e-14)
    assert abs(primed.primed_resource.norm() - 1.0) < 1e-12
    assert primed.primed_resource.layout.labels == ("ap", "A", "B1")


def test_primed_eta_is_maximally_mixed():
    for N in (1, 2):
        primed = build_primed(bell_pbt_protocol(N))
        for j in range(1, N + 1):
            eta = reduced_density(primed.primed_resource, {f"B{j}"})
            np.testing.assert_allclose(eta.entries, np.eye(2) / 2, atol=1e-12)


def test_primed_eta_mixed_even_for_product_resource():
    # base resource |00>: eta_1 = |0><0|, yet the twirl layer flattens it
    resource = tensor_product([
        basis_state(SystemLayout.of(("A", 2)), 0),
        basis_state(SystemLayout.of(("B1", 2)), 0),
    ])
    lay = SystemLayout.of(("a", 2), ("A", 2))
    povm = (HermitianMatrix(lay, np.zeros((4, 4), dtype=complex)),
            HermitianMatrix(lay, np.eye(4, dtype=complex)))
    base = PbtProtocol(n=1, N=1, resource=resource, povm=povm)
    primed = build_primed(base)
    eta = reduced_density(primed.primed_resource, {"B1"})
    np.testing.assert_allclose(eta.entries, np.eye(2) / 2, atol=1e-12)


def test_run_primed_preserves_probabilities_and_teleports():
    primed = build_primed(bell_pbt_protocol(1))
    plus = ket([1, 1])
    branches = branches_of(run_primed(primed, plus.amplitudes[None]))
    assert branches[1].probability == pytest.approx(0.25, abs=1e-12)
    rho_port = reduced_density(branches[1].post_state, {"B1"})
    assert fidelity(plus, rho_port) == pytest.approx(1.0, abs=1e-10)
    base_q = measure(primed.base, plus.amplitudes[None]).q[0]
    primed_q = [b.probability for b in branches]
    np.testing.assert_allclose(primed_q, base_q, atol=1e-12)


def test_primed_success_probability_invariant():
    for N in (1, 2, 3):
        primed = build_primed(bell_pbt_protocol(N))
        for psi in haar_states(2, 5, seed=200 + N):
            p_base = measure(primed.base, psi.amplitudes[None]).q[0, 1:].sum()
            p_primed = run_primed(primed, psi.amplitudes[None]).q[0, 1:].sum()
            assert abs(p_base - p_primed) < 1e-12


def test_failure_marginal_solves_mixture_identity():
    # identity: I/2 = q_1 psi psi + (1 - p) omega'  =>  omega'(|0>) = diag(1, 2)/3
    primed = build_primed(bell_pbt_protocol(1))
    zero = ket([1, 0])
    marg = primed_port_marginals(primed, zero.amplitudes[None], 1)[0]
    np.testing.assert_allclose(marg[0], np.diag([1, 2]) / 3, atol=1e-12)


def test_gamma_primed_maximally_mixed_two_ports():
    primed = build_primed(bell_pbt_protocol(2))
    psi = ket([2, 1j])
    marg = primed_port_marginals(primed, psi.amplitudes[None], 2)[0]
    np.testing.assert_allclose(marg[1], np.eye(2) / 2, atol=1e-12)


def test_verify_eq5_bell_family():
    for N in (1, 2):
        primed = build_primed(bell_pbt_protocol(N))
        rep = verify_eq5(primed, haar_states(2, 5, seed=50 + N))
        assert rep.preconditions_met
        assert rep.passed, rep.to_dict()
        if N == 1:
            gamma_check = [c for c in rep.checks if c.tag == "Eq.b7"][0]
            assert gamma_check.details.get("note", "").startswith("no gamma terms")


def test_verify_eq5_rejects_imperfect_base():
    # never-fails trivial measurement does not teleport at all
    resource = bell_pbt_protocol(1).resource
    lay = SystemLayout.of(("a", 2), ("A", 2))
    povm = (HermitianMatrix(lay, np.zeros((4, 4), dtype=complex)),
            HermitianMatrix(lay, np.eye(4, dtype=complex)))
    base = PbtProtocol(n=1, N=1, resource=resource, povm=povm)
    rep = verify_eq5(build_primed(base), haar_states(2, 3, seed=1))
    assert not rep.preconditions_met


def test_failure_marginal_twirl_term_by_term():
    for N in (1, 2):
        primed = build_primed(bell_pbt_protocol(N))
        for psi in haar_states(2, 3, seed=77 + N):
            reports = verify_failure_marginal_twirl(primed, psi)
            assert [rep.subject for rep in reports] == [
                f"failure marginal twirl decomposition, port {j}" for j in range(1, N + 1)]
            for rep in reports:
                assert rep.passed, rep.to_dict()


def test_commutation_witness():
    primed = build_primed(bell_pbt_protocol(2))
    for psi in haar_states(2, 3, seed=31):
        rep = commutation_witness(primed, psi)
        assert rep.passed, rep.to_dict()
        assert rep.max_deviation() < 1e-12


def test_primed_serialization_roundtrip():
    primed = build_primed(bell_pbt_protocol(2))
    doc = primed_to_dict(primed)
    assert doc["primed"] is True
    assert doc["ancilla"] == {"label": "ap", "dim": 4}
    back = primed_from_dict(doc)
    np.testing.assert_allclose(back.primed_resource.amplitudes,
                               primed.primed_resource.amplitudes, atol=1e-14)
    with pytest.raises(ProtocolError, match="primed"):
        primed_from_dict({**doc, "primed": False})


def test_twirl_layer_is_derived_from_the_base():
    base = bell_pbt_protocol(2)
    primed = PrimedProtocol(base)
    np.testing.assert_array_equal(primed.primed_resource.amplitudes,
                                  build_primed(base).primed_resource.amplitudes)
    np.testing.assert_array_equal(primed.w, input_side_unitary(1))
    assert not primed.w.flags.writeable
    with pytest.raises(TypeError):
        PrimedProtocol(base, w=primed.w)


@pytest.mark.parametrize("j", [0, 3])
def test_primed_port_marginals_rejects_port_out_of_range(j):
    primed = build_primed(bell_pbt_protocol(2))
    with pytest.raises(LayoutError, match="out of range"):
        primed_port_marginals(primed, ket([1, 0]).amplitudes[None], j)


def test_verify_eq5_runs_the_primed_protocol_once_per_chunk(monkeypatch):
    import pbtkit.primed as primed_mod

    primed = build_primed(bell_pbt_protocol(3))
    samples = haar_states(2, 5, seed=61)
    shrink_chunks(monkeypatch, primed, 2)
    calls = []
    real_batch = primed_mod.run_primed

    def counting_batch(p, inputs):
        calls.append(len(inputs))
        return real_batch(p, inputs)

    monkeypatch.setattr(primed_mod, "run_primed", counting_batch)
    assert verify_eq5(primed, samples).passed
    assert calls == [2, 2, 1]


# ---------------------------------------------------------------------------
# batched primed branches against per-input references


def shrink_chunks(monkeypatch, primed, rows):
    """Make every chunk of a sample set hold ``rows`` inputs of ``primed``."""
    per_row = 16 * (primed.base.N + 1) * primed.global_layout().total_dim
    monkeypatch.setattr(branches, "BATCH_BYTES", rows * per_row + per_row // 2)


def per_root_branches(state, roots):
    """(probability, normalized branch or None) per root on (a, A), one root at a time."""
    axes = [state.layout.axis("a"), state.layout.axis("A")]
    out = []
    for root in roots:
        vec = _apply_matrix(state.tensorized(), state.layout.dims, axes, root).reshape(-1)
        q = float(np.vdot(vec, vec).real)
        out.append((q, StateVector(state.layout, vec / np.sqrt(q))) if q >= 1e-12 else (0.0, None))
    return out


def primed_reference(p, amps):
    state = tensor_product([ket(amps), p.primed_resource])
    return per_root_branches(apply_on_subsystems(state, p.w, ["a", "ap"]), p.base.kraus)


def base_reference(base, amps):
    return per_root_branches(tensor_product([ket(amps), base.resource]), base.kraus)


def imperfect_second_port():
    """Outcome 2 projects (a, A1, A2) onto |1, 0, 0>: absent for input |0>, and
    for any other input it leaves |0> at B2 instead of the input."""
    base = bell_pbt_protocol(2)
    x = np.zeros(8)
    x[4] = 1.0
    m2 = 0.5 * np.outer(x, x).astype(complex)
    lay = base.povm[0].layout
    povm = (HermitianMatrix(lay, base.povm[0].entries - m2), base.povm[1],
            HermitianMatrix(lay, m2))
    return PbtProtocol(n=1, N=2, resource=base.resource, povm=povm)


@pytest.mark.parametrize("base", [bell_pbt_protocol(1), bell_pbt_protocol(3),
                                  imperfect_second_port()])
def test_primed_batch_equals_the_per_input_reference(base):
    primed = build_primed(base)
    inputs = np.vstack([[1.0, 0.0], haar_amplitudes(2, 4, 8)])
    batch = run_primed(primed, inputs)
    ports, fid = port_table(batch), teleport_report(batch, inputs)[0]
    for s, amps in enumerate(inputs):
        single = branches_of(run_primed(primed, amps[None]))
        for k, (q, post) in enumerate(primed_reference(primed, amps)):
            assert batch.q[s, k] == pytest.approx(q, abs=1e-13)
            assert single[k].probability == pytest.approx(q, abs=1e-13)
            if post is None:
                assert single[k].post_state is None and not ports[s, k].any()
                continue
            np.testing.assert_allclose(single[k].post_state.amplitudes, post.amplitudes,
                                       atol=1e-13)
            for j in range(1, base.N + 1):
                rho = reduced_density(post, {f"B{j}"}).entries
                np.testing.assert_allclose(ports[s, k, j - 1] / q, rho, atol=1e-13)
            if k:
                own = reduced_density(post, {f"B{k}"})
                assert fid[s, k - 1] == pytest.approx(fidelity(ket(amps), own), abs=1e-13)


def reference_eq5_stop(base, inputs):
    """worst_fidelity where the per-input loop of ``verify_eq5`` stopped: the
    first input whose base branches do not all deliver it; None if none."""
    for amps in inputs:
        worst = 1.0
        for k, (q, post) in enumerate(base_reference(base, amps)):
            if k and post is not None:
                worst = min(worst, fidelity(ket(amps), reduced_density(post, {f"B{k}"})))
        if 1.0 - worst > 1e-8:
            return 1.0 - (1.0 - worst)
    return None


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_verify_eq5_stops_at_the_same_input_as_the_per_input_loop(monkeypatch, rows):
    primed = build_primed(imperfect_second_port())
    if rows:
        shrink_chunks(monkeypatch, primed, rows)
    inputs = np.vstack([[1.0, 0.0], [1.0, 0.0], haar_amplitudes(2, 4, 12)])
    rep = verify_eq5(primed, [ket(a) for a in inputs])
    worst = reference_eq5_stop(primed.base, inputs)
    assert worst == pytest.approx(abs(inputs[2, 0]) ** 2, abs=1e-13)
    assert not rep.preconditions_met and [c.tag for c in rep.checks] == ["Eq.b4", "Eq.8"]
    assert rep.checks[1].details["worst_fidelity"] == pytest.approx(worst, abs=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_chunked_verify_eq5_matches_one_batch(monkeypatch, N):
    primed = build_primed(bell_pbt_protocol(N))
    samples = haar_states(2, 7, seed=70 + N)
    whole = verify_eq5(primed, samples).to_dict()
    shrink_chunks(monkeypatch, primed, 2)
    got = verify_eq5(primed, samples).to_dict()
    assert got.keys() == whole.keys() and got["checks"][1]["details"] == whole["checks"][1]["details"]
    for a, b in zip(got["checks"], whole["checks"]):
        assert a["passed"] == b["passed"] and a["deviation"] == pytest.approx(b["deviation"], abs=1e-13)


def reference_twirl_deviations(p, psi, j):
    """The three Eq.b8/b9 deviations, one ancilla value and one base run at a time."""
    fail = primed_reference(p, psi.amplitudes)[0][1]
    tens = np.moveaxis(fail.tensorized(), fail.layout.axis("ap"), 0)
    anc = p.ancilla_dim
    term_dev = weight_dev = 0.0
    agg = expected_agg = 0.0
    for l in range(anc):
        v = PAULIS[l]
        component = tens[l].reshape(-1)
        weight = float(np.vdot(component, component).real)
        weight_dev = max(weight_dev, abs(weight - 1.0 / anc))
        cond = StateVector(fail.layout.without({"ap"}), component / np.sqrt(weight))
        rho_l = reduced_density(cond, {f"B{j}"}).entries
        rotated = v.conj().T @ psi.amplitudes
        omega = reduced_density(base_reference(p.base, rotated)[0][1], {f"B{j}"}).entries
        expected = v @ omega @ v.conj().T
        term_dev = max(term_dev, float(np.max(np.abs(rho_l - expected))))
        agg = agg + weight * rho_l
        expected_agg = expected_agg + expected / anc
    return term_dev, weight_dev, float(np.max(np.abs(agg - expected_agg)))


@pytest.mark.parametrize("base", [bell_pbt_protocol(1), bell_pbt_protocol(2),
                                  bell_pbt_protocol(3), imperfect_second_port()])
def test_failure_twirl_batch_matches_the_per_ancilla_loop(base):
    primed = build_primed(base)
    for psi in haar_states(2, 2, seed=90 + base.N):
        for j, rep in enumerate(verify_failure_marginal_twirl(primed, psi), start=1):
            np.testing.assert_allclose([c.deviation for c in rep.checks],
                                       reference_twirl_deviations(primed, psi, j), atol=1e-13)
