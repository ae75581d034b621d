"""Twirl-layer tests: resource construction, marginals, term-by-term failure check."""

import numpy as np
import pytest

from pbtkit.engine import (
    HermitianMatrix,
    PbtProtocol,
    bell_pbt_protocol,
    measure,
    success_probability,
)
from pbtkit.errors import LayoutError, ProtocolError
from pbtkit.pauli import SIGMA, haar_states
from pbtkit.primed import (
    build_primed,
    commutation_witness,
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
    basis_state,
    fidelity,
    reduced_density,
    tensor_product,
)

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
    branches = run_primed(primed, plus)
    assert branches[1].probability == pytest.approx(0.25, abs=1e-12)
    rho_port = reduced_density(branches[1].post_state, {"B1"})
    assert fidelity(plus, rho_port) == pytest.approx(1.0, abs=1e-10)
    base_q = [b.probability for b in measure(primed.base, plus)]
    primed_q = [b.probability for b in branches]
    np.testing.assert_allclose(primed_q, base_q, atol=1e-12)


def test_primed_success_probability_invariant():
    for N in (1, 2, 3):
        primed = build_primed(bell_pbt_protocol(N))
        for psi in haar_states(2, 5, seed=200 + N):
            p_base = success_probability(measure(primed.base, psi))
            p_primed = success_probability(run_primed(primed, psi))
            assert abs(p_base - p_primed) < 1e-12


def test_failure_marginal_solves_mixture_identity():
    # identity: I/2 = q_1 psi psi + (1 - p) omega'  =>  omega'(|0>) = diag(1, 2)/3
    primed = build_primed(bell_pbt_protocol(1))
    zero = ket([1, 0])
    marg = primed_port_marginals(primed, zero, 1)
    np.testing.assert_allclose(marg.omega.entries, np.diag([1, 2]) / 3, atol=1e-12)


def test_gamma_primed_maximally_mixed_two_ports():
    primed = build_primed(bell_pbt_protocol(2))
    psi = ket([2, 1j])
    marg = primed_port_marginals(primed, psi, 2)
    np.testing.assert_allclose(marg.gamma[1].entries, np.eye(2) / 2, atol=1e-12)


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
            for j in range(1, N + 1):
                rep = verify_failure_marginal_twirl(primed, psi, j)
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


@pytest.mark.parametrize("j", [0, 3])
def test_primed_port_marginals_rejects_port_out_of_range(j):
    primed = build_primed(bell_pbt_protocol(2))
    with pytest.raises(LayoutError, match="out of range"):
        primed_port_marginals(primed, ket([1, 0]), j)


def test_verify_eq5_runs_the_primed_protocol_once_per_input(monkeypatch):
    import pbtkit.primed as primed_mod

    primed = build_primed(bell_pbt_protocol(3))
    samples = haar_states(2, 3, seed=61)
    calls = []
    real_run = primed_mod.run_primed

    def counting_run(p, psi):
        calls.append(psi)
        return real_run(p, psi)

    monkeypatch.setattr(primed_mod, "run_primed", counting_run)
    assert verify_eq5(primed, samples).passed
    assert len(calls) == len(samples)
