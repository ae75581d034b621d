"""Chain-protocol tests: superdense encodings, exact audit, bound arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from pbtkit.branches import BRANCH_PRUNE
from pbtkit.engine import (
    HermitianMatrix,
    PbtProtocol,
    bell_pbt_protocol,
    port_label,
    povm_branches,
    standard_resource,
)
from pbtkit import signaling
from pbtkit.errors import ChainPreconditionError, SampleCountError
from pbtkit.pauli import SIGMA, pauli_set
from pbtkit.primed import build_primed
from pbtkit.signaling import (
    ChainBranches,
    analyze_chain,
    bound,
    compute_chain_exact,
    f_of_R,
    monte_carlo_check,
    run_chain_batch,
    sdc_basis,
    sdc_encode,
)
from pbtkit.tensor import (
    StateVector,
    SystemLayout,
    apply_on_subsystems,
    permute_subsystems,
    reduced_density,
    schmidt_decompose,
    tensor_product,
)
from reference import branches_of, outer, partial_trace, permute_operator


def primed_bell(N):
    return build_primed(bell_pbt_protocol(N))


def analyze(primed, message, j):
    """The exact tree of one (protocol, message, port) chain."""
    return analyze_chain(ChainBranches(primed, message), j)


# ---------------------------------------------------------------------------
# superdense coding


def test_sdc_identity_encoding_is_phi_plus():
    out = sdc_encode(1, 1)
    np.testing.assert_allclose(out.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2),
                               atol=1e-15)


def test_sdc_gram_matrix_is_identity():
    basis = sdc_basis(1)
    gram = basis.conj() @ basis.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)


def test_sdc_message_three_matches_matrix_oracle():
    out = sdc_encode(3, 1)
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    expected = np.kron(SIGMA[2], np.eye(2)) @ phi
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_sdc_rejects_out_of_range():
    with pytest.raises(ValueError):
        sdc_encode(0, 1)
    with pytest.raises(ValueError):
        sdc_encode(5, 1)


# ---------------------------------------------------------------------------
# bound and the balance curve


def test_bound_values():
    assert bound(1, 3) == Fraction(1, 2)
    assert bound(1, 1) == Fraction(1, 4)
    assert bound(2, 1) == Fraction(1, 16)
    assert all(bound(n, N) < 1 for n in (1, 2, 3) for N in (1, 2, 5, 100))
    # agreement with the n = 1 closed form N/(N+3)
    for N in range(1, 8):
        assert bound(1, N) == Fraction(N, N + 3)


def test_f_of_zero_equals_bound_exactly():
    for n in (1, 2, 3):
        for N in (1, 2, 3, 4, 5, 6, 7, 8):
            val = f_of_R(n, N, 0.0)
            assert val.exact == bound(n, N)
            assert val.value == float(bound(n, N))
            assert val.feasible and not val.boundary


def test_f_monotone_decreasing_on_grid():
    for n, N in ((1, 3), (2, 4)):
        limit = 4.0**-n * N
        grid = np.linspace(0.0, limit, 101)[:-1]
        vals = [f_of_R(n, N, r).value for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    assert f_of_R(1, 3, 0.1).value < f_of_R(1, 3, 0.0).value


def test_f_boundary_and_feasibility_flags():
    v = f_of_R(1, 2, 0.5)  # R = 4^-n N exactly
    assert v.boundary and v.feasible and v.value == 0.0
    assert not f_of_R(1, 2, 0.6).feasible
    assert not f_of_R(1, 2, -0.1).feasible


def test_per_qubit_power_beats_global_bound():
    pmax = Fraction(4, 4 + 3)
    assert float(pmax) ** 2 > float(bound(2, 4))
    assert abs(float(pmax) ** 2 - 0.3265) < 1e-4
    assert abs(float(bound(2, 4)) - 0.2105) < 1e-4


# ---------------------------------------------------------------------------
# exact chain audit


def test_chain_requires_twirled_protocol():
    base = bell_pbt_protocol(1)
    # un-twirled protocols do not satisfy the maximally-mixed precondition
    # (eta_1 = I/2 for the shared pair, but a product resource breaks it)
    from pbtkit.tensor import basis_state, tensor_product

    resource = tensor_product([
        basis_state(SystemLayout.of(("A", 2)), 0),
        basis_state(SystemLayout.of(("B1", 2)), 0),
    ])
    lay = SystemLayout.of(("a", 2), ("A", 2))
    povm = (HermitianMatrix(lay, np.zeros((4, 4), dtype=complex)),
            HermitianMatrix(lay, np.eye(4, dtype=complex)))
    bad = PbtProtocol(n=1, N=1, resource=resource, povm=povm)
    primed_bad = build_primed(bad)  # twirl fixes eta', but the base never teleports
    with pytest.raises(ChainPreconditionError):
        compute_chain_exact(primed_bad, message=1)
    # the honest protocol qualifies
    compute_chain_exact(primed_bell(1), message=1)


def test_chain_exact_single_port():
    report = compute_chain_exact(primed_bell(1), message=1)
    assert report.audit.passed, report.audit.to_dict()
    port = report.ports[0]
    assert port.q[port.j] == pytest.approx(0.25, abs=1e-12)
    assert report.p == pytest.approx(0.25, abs=1e-12)
    assert port.p_prime_simulated == pytest.approx(0.25, abs=1e-10)
    # balance forces r_1 = 0: 0.25 + 0 + 0.75 r = 0.25
    assert port.r_j == pytest.approx(0.0, abs=1e-10)
    assert report.R == pytest.approx(0.0, abs=1e-10)
    assert report.p_implied == pytest.approx(0.25, abs=1e-10)


def test_chain_exact_every_port_and_message():
    primed = primed_bell(2)
    for message in (1, 2, 3, 4):
        report = compute_chain_exact(primed, message)
        assert report.audit.passed, report.audit.to_dict()
        for port in report.ports:
            assert port.p_prime_simulated == pytest.approx(0.25, abs=1e-10)


def test_chain_message_independence():
    primed = primed_bell(2)
    values = [compute_chain_exact(primed, m).ports[1].p_prime_simulated
              for m in (1, 2, 3, 4)]
    assert max(values) - min(values) < 1e-12


def test_chain_case2_structure():
    # with two ports, a miss at port 1 forces the fallback onto port 2
    ana = analyze(primed_bell(2), message=2, j=2)
    assert 1 in ana.case2
    c2 = ana.case2[1]
    # generalized-Bell outcomes are uniform and nothing leaks outside them
    np.testing.assert_allclose(c2.teleport_probs, np.full(4, 0.25), atol=1e-10)
    assert c2.leak_prob < 1e-12
    assert c2.success == pytest.approx(0.25, abs=1e-10)
    # failure decoding: balance gives r_2 = (4^-n - q_j - 4^-n(p - q_j)) / (1 - p)
    assert ana.r_j == pytest.approx(0.25, abs=1e-10)


def test_adversarial_decoding_permutation_cannot_beat_guess():
    # decoding through any relabeling permutes the distribution; every entry is 4^-n
    primed = primed_bell(2)
    ana = analyze(primed, message=1, j=2)
    total = np.zeros(4)
    if ana.case1_probs is not None:
        total += ana.q[2] * ana.case1_probs
    for i, c2 in ana.case2.items():
        total += ana.q[i] * (c2.teleport_probs @ c2.bob_probs)
    total += ana.q[0] * ana.case0_probs
    np.testing.assert_allclose(total, np.full(4, 0.25), atol=1e-10)


def test_run_chain_port_hit_always_correct():
    # free draws on one port: every hit (k = j = 1) decodes the message
    drawn = run_chain_batch(analyze(primed_bell(1), message=2, j=1), rounds=200, seed=3)
    hits = drawn[drawn[:, 0] == 1]
    assert len(hits) > 0 and np.all(hits[:, 1] == 2)


def test_run_chain_port_miss_rate():
    # free draws at j = 2 on two ports: the misses (k = 1, a quarter of the
    # rounds) decode the message at the guess 1/4
    drawn = run_chain_batch(analyze(primed_bell(2), message=1, j=2), rounds=80_000, seed=5)
    misses = drawn[drawn[:, 0] == 1]
    assert len(misses) >= 19_000
    rate = np.mean(misses[:, 1] == 1)
    assert abs(rate - 0.25) < 0.01


def test_run_chain_failure_estimates_r():
    ana = analyze(primed_bell(2), message=1, j=2)
    drawn = run_chain_batch(ana, rounds=27_000, seed=7)
    failures = drawn[drawn[:, 0] == 0]
    assert len(failures) >= 19_000
    rate = np.mean(failures[:, 1] == 1)
    sigma = np.sqrt(ana.r_j * (1 - ana.r_j) / len(failures))
    assert abs(rate - ana.r_j) < 4 * sigma + 1e-9


def test_run_chain_deterministic_and_single():
    ana = analyze(primed_bell(1), message=3, j=1)
    a = run_chain_batch(ana, rounds=1, seed=11)
    b = run_chain_batch(ana, rounds=1, seed=11)
    assert a.shape == (1, 2) and np.array_equal(a, b)


def miss_case(teleport_probs, bob_probs, leak_prob=0.0):
    """A miss's fallback tree; the fields the sampler does not read are 0."""
    return signaling.Case2Analysis(teleport_probs=np.array(teleport_probs),
                                   leak_prob=leak_prob, bob_probs=bob_probs,
                                   success=0.0, schmidt_deviation=0.0)


def chain_tree(q, case1_probs, case2, case0_probs):
    """A receiver port-3 tree for message 1; the fields the sampler does not
    read are 0."""
    return signaling.ChainAnalysis(n=1, j=3, message=1, q=np.array(q),
                                   case1_probs=case1_probs, case2=case2,
                                   case0_probs=case0_probs, r_j=0.0, p=0.0,
                                   p_prime_simulated=0.0, p_prime_formula=0.0)


def assert_frequencies(drawn, probs):
    """Each outcome's frequency among ``drawn`` lies within 4.5 sigma of its
    probability."""
    freq = np.bincount(drawn, minlength=len(probs)) / len(drawn)
    sigma = np.sqrt(probs * (1 - probs) / len(drawn))
    np.testing.assert_array_less(np.abs(freq - probs), 4.5 * sigma + 1e-12)


def test_run_chain_batch_draws_each_case_from_its_tree():
    # a hit (k = 3), misses from ports 1 and 2, and failures, each with its
    # own probabilities; port 1's fallback outcome t decodes message t + 1,
    # so its rounds show t
    mixed = np.random.default_rng(0).random((4, 4))
    mixed /= mixed.sum(axis=1, keepdims=True)
    ana = chain_tree([0.4, 0.2, 0.15, 0.25], np.array([0.1, 0.2, 0.3, 0.4]),
                     {1: miss_case([0.4, 0.3, 0.2, 0.1], np.eye(4)),
                      2: miss_case([0.1, 0.2, 0.3, 0.4], mixed)},
                     np.array([0.05, 0.15, 0.3, 0.5]))
    k, r = run_chain_batch(ana, 400_000, 1).T
    assert_frequencies(k, ana.q)
    assert_frequencies(r[k == 3] - 1, ana.case1_probs)
    assert_frequencies(r[k == 0] - 1, ana.case0_probs)
    assert_frequencies(r[k == 1] - 1, ana.case2[1].teleport_probs)
    assert_frequencies(r[k == 2] - 1, ana.case2[2].teleport_probs @ mixed)


def test_run_chain_batch_refuses_a_sampled_leak():
    ana = chain_tree([0.5, 0.5, 0.0, 0.0], None,
                     {1: miss_case([0.0, 0.0, 0.0, 0.0], np.eye(4), leak_prob=1.0)},
                     np.full(4, 0.25))
    with pytest.raises(ChainPreconditionError, match="sampled the leak branch"):
        run_chain_batch(ana, 100, 0)


def test_ports_draw_from_their_own_calibrated_streams():
    # bell N=2, message 1, over a fixed seed range: each port's z is standard
    # normal and the two ports' hits are uncorrelated, each statistic within
    # 3.5 of its standard errors; the ports' first outcomes k agree as often
    # as independent draws from q do (within 4.5 sigma), not on every seed
    branches = ChainBranches(primed_bell(2), 1)
    ports = [analyze_chain(branches, j) for j in (1, 2)]
    seeds, rounds = 600, 20_000
    hits, first = np.empty((seeds, 2)), np.empty((seeds, 2))
    for seed in range(seeds):
        drawn = [run_chain_batch(ana, rounds, seed) for ana in ports]
        hits[seed] = [np.count_nonzero(d[:, 1] == 1) for d in drawn]
        first[seed] = [d[0, 0] for d in drawn]
    z = (hits / rounds - 0.25) / np.sqrt(0.25 * 0.75 / rounds)
    assert np.all(np.abs(z.mean(axis=0)) < 3.5 / np.sqrt(seeds))
    assert np.all(np.abs(z.std(axis=0) - 1) < 3.5 / np.sqrt(2 * seeds))
    assert abs(np.corrcoef(hits.T)[0, 1]) < 3.5 / np.sqrt(seeds)
    agree = np.sum(ports[0].q ** 2)
    assert (abs(np.mean(first[:, 0] == first[:, 1]) - agree)
            < 4.5 * np.sqrt(agree * (1 - agree) / seeds))


def cases_drawn(drawn, j):
    return {"port_hit" if k == j else "failure" if k == 0 else "port_miss"
            for k in np.unique(drawn[:, 0]).tolist()}


def test_run_chain_batch_free_k_visits_every_case():
    # j = 2 on two ports: free draws give hits never (q_2 = 0), misses and failures
    primed = primed_bell(2)
    drawn = run_chain_batch(analyze(primed, 1, 2), 2000, 4)
    assert cases_drawn(drawn, 2) == {"port_miss", "failure"}
    drawn = run_chain_batch(analyze(primed, 1, 1), 2000, 4)
    assert cases_drawn(drawn, 1) == {"port_hit", "failure"}


def refuse_draws(*args, **kwargs):
    raise AssertionError("a bad count must be rejected before any work")


@pytest.mark.parametrize("rounds", [0, -5])
def test_round_count_below_one_is_rejected(monkeypatch, rounds):
    ana = analyze(primed_bell(1), message=1, j=1)
    monkeypatch.setattr(np.random, "PCG64", refuse_draws)
    with pytest.raises(SampleCountError, match="rounds must be at least 1"):
        run_chain_batch(ana, rounds=rounds, seed=0)
    with pytest.raises(SampleCountError, match="rounds must be at least 1"):
        monte_carlo_check(ana, rounds=rounds, seed=0)


@pytest.mark.parametrize("N,j", [(1, 0), (1, 2), (1, -1), (2, 3)])
def test_receiver_port_out_of_range_is_rejected(N, j):
    with pytest.raises(ValueError, match=rf"receiver port {j} out of range \[1, {N}\]"):
        analyze(primed_bell(N), message=1, j=j)


def test_monte_carlo_check_passes():
    rep = monte_carlo_check(analyze(primed_bell(1), message=2, j=1), rounds=20_000, seed=13)
    assert rep.passed, rep.to_dict()


def test_signaling_report_serializes():
    report = compute_chain_exact(primed_bell(1), message=1)
    doc = report.to_dict()
    assert doc["bound"] == {"numerator": 1, "denominator": 4, "value": 0.25}
    assert doc["ports"][0]["j"] == 1
    assert doc["audit"]["passed"] is True


def untwirlable_primed():
    """A twirled protocol whose base never teleports (fails the chain precondition)."""
    from pbtkit.tensor import basis_state, tensor_product

    resource = tensor_product([basis_state(SystemLayout.of(("A", 2)), 0),
                               basis_state(SystemLayout.of(("B1", 2)), 0)])
    lay = SystemLayout.of(("a", 2), ("A", 2))
    povm = (HermitianMatrix(lay, np.zeros((4, 4), dtype=complex)),
            HermitianMatrix(lay, np.eye(4, dtype=complex)))
    return build_primed(PbtProtocol(n=1, N=1, resource=resource, povm=povm))


def test_chain_precondition_runs_once_per_protocol(monkeypatch):
    import pbtkit.primed as primed_mod

    calls = []
    real_eq5 = primed_mod.verify_eq5

    def counting_eq5(p, samples, *args, **kwargs):
        calls.append(len(samples))
        return real_eq5(p, samples, *args, **kwargs)

    monkeypatch.setattr(primed_mod, "verify_eq5", counting_eq5)
    primed = primed_bell(2)
    for message in (1, 2, 3, 4):
        compute_chain_exact(primed, message)
    monte_carlo_check(analyze(primed, message=1, j=2), rounds=100, seed=1)
    analyze(primed, message=3, j=1)
    assert calls == [2]


def test_failed_chain_precondition_raises_on_every_call():
    bad = untwirlable_primed()
    for _ in range(3):
        with pytest.raises(ChainPreconditionError):
            signaling.check_chain_preconditions(bad)
        with pytest.raises(ChainPreconditionError):
            compute_chain_exact(bad, message=1)
        with pytest.raises(ChainPreconditionError):
            ChainBranches(bad, message=1)


def test_chain_branches_are_measured_once_per_message(monkeypatch):
    calls = []
    real = signaling.povm_branches

    def counting(states, layout, roots, targets):
        calls.append(layout.total_dim)
        return real(states, layout, roots, targets)

    monkeypatch.setattr(signaling, "povm_branches", counting)
    primed = primed_bell(3)
    reports = [compute_chain_exact(primed, m).to_dict() for m in (1, 2)]
    assert len(calls) == 2
    monkeypatch.setattr(signaling, "povm_branches", real)
    for m, doc in zip((1, 2), reports):
        per_port = [analyze(primed, m, j) for j in (1, 2, 3)]
        assert [port["p_prime_simulated"] for port in doc["ports"]] == [
            a.p_prime_simulated for a in per_port]


# ---------------------------------------------------------------------------
# the exact chain against the per-state object path it replaced


def reference_decoding(state, j, n):
    """Receiver decoding distribution from the (B_j, b) marginal of a branch."""
    rho = reduced_density(state, {port_label(j), "b"})
    rho = permute_operator(rho, [port_label(j), "b"])
    return np.array([float(np.vdot(v, rho.entries @ v).real) for v in sdc_basis(n)])


def reference_case2(post, i, j, n, message):
    """The fallback from source port i, one generalized-Bell outcome at a time:
    B_j's basis state |m> pairs with Alice's partner, the residual's row m."""
    d = 2**n
    src = port_label(i)
    coeffs, _, right = schmidt_decompose(post, {src, "b"})
    assert 1.0 - coeffs[0] ** 2 <= 1e-8
    residual = right[0]
    alice_labels = [lbl for lbl in residual.layout.labels if lbl != port_label(j)]
    coeffs2 = schmidt_decompose(residual, set(alice_labels))[0]
    schmidt_dev = float(np.max(np.abs(coeffs2[:d] - 1.0 / np.sqrt(d))))
    omega = permute_subsystems(residual, [port_label(j)] + alice_labels).amplitudes
    omega = omega.reshape(d, -1)
    dim_alice = omega.shape[1]
    ordered = permute_subsystems(post, [src] + alice_labels + [port_label(j), "b"])
    mat = ordered.amplitudes.reshape(d * dim_alice, d * d)
    rho_bob = reduced_density(post, {port_label(j), "b"})
    rho_bob = permute_operator(rho_bob, [port_label(j), "b"]).entries.copy()
    teleport_probs = np.zeros(4**n)
    bob_probs = np.zeros((4**n, 4**n))
    for t, v in enumerate(pauli_set(n), start=1):
        beta = (v @ omega).reshape(-1)
        bob_vec = beta.conj() @ mat
        p_t = float(np.vdot(bob_vec, bob_vec).real)
        teleport_probs[t - 1] = p_t
        if p_t < BRANCH_PRUNE:
            continue
        cond = bob_vec / np.sqrt(p_t)
        bob_probs[t - 1] = [abs(np.vdot(v, cond)) ** 2 for v in sdc_basis(n)]
        rho_bob -= p_t * np.outer(cond, cond.conj())
    leak = float(max(0.0, 1.0 - teleport_probs.sum()))
    success = float(teleport_probs @ bob_probs[:, message - 1])
    if leak > BRANCH_PRUNE:
        rho_out = rho_bob / leak
        success += leak * float(np.vdot(sdc_basis(n)[message - 1],
                                        rho_out @ sdc_basis(n)[message - 1]).real)
    return signaling.Case2Analysis(teleport_probs, leak, bob_probs, success, schmidt_dev)


def reference_branches(primed, message):
    """The sender's branches on the encoded message, as normalized states."""
    state = tensor_product([sdc_encode(message, primed.base.n), primed.primed_resource])
    state = apply_on_subsystems(state, primed.w, ["a", "ap"])
    return branches_of(povm_branches(state.amplitudes[None], state.layout, primed.base.kraus,
                                     ("a", "A")))


def reference_chain(primed, message, j):
    """The exact chain through per-state objects: one ``StateVector`` per
    branch, reduced densities, and two Schmidt decompositions per miss."""
    n, big_n = primed.base.n, primed.base.N
    branches = reference_branches(primed, message)
    q = np.array([b.probability for b in branches])
    post = [b.post_state for b in branches]
    p_success = float(q[1:].sum())
    case1 = None if post[j] is None else reference_decoding(post[j], j, n)
    case2 = {i: reference_case2(post[i], i, j, n, message)
             for i in range(1, big_n + 1) if i != j and post[i] is not None}
    case0 = None if post[0] is None else reference_decoding(post[0], j, n)
    r_j = 0.0 if case0 is None else float(case0[message - 1])
    p_prime = 0.0
    if case1 is not None:
        p_prime += q[j] * float(case1[message - 1])
    for i, c2 in case2.items():
        p_prime += q[i] * c2.success
    p_prime += q[0] * r_j
    formula = float(q[j] + 4.0**-n * (p_success - q[j]) + (1.0 - p_success) * r_j)
    return signaling.ChainAnalysis(n, j, message, q, case1, case2, case0, r_j, p_success,
                                   p_prime, formula)


def haar_unitary(d, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated_protocol(base, seed):
    """``base`` with a Haar unitary U on the sender's system A: resource
    (U x I)|r>, POVM (I x U) M_k (I x U)^dag.  Still perfect, same q."""
    u = haar_unitary(base.alice_dim, seed)
    lift = np.kron(np.eye(base.port_dim), u)
    povm = []
    for m in base.povm:
        rotated = lift @ m.entries @ lift.conj().T
        povm.append(HermitianMatrix(m.layout, 0.5 * (rotated + rotated.conj().T)))
    return PbtProtocol(n=base.n, N=base.N, resource=apply_on_subsystems(base.resource, u, ["A"]),
                       povm=tuple(povm))


def every_port_protocol(N):
    """N qubit pairs; outcome k projects (a, A_k) onto the maximally entangled
    vector with weight 1/N.  Perfect, p = 1/4, and every port succeeds."""
    hit = bell_pbt_protocol(N).povm[1]  # (a, A_1) projected, identity on A_2..A_N
    t = hit.entries.reshape((2,) * (2 * N + 2))
    povm = []
    for k in range(1, N + 1):
        axes = list(range(2 * N + 2))
        axes[1], axes[k] = k, 1
        axes[N + 2], axes[N + 1 + k] = N + 1 + k, N + 2
        povm.append(np.transpose(t, axes).reshape(hit.entries.shape) / N)
    povm.insert(0, np.eye(len(hit.entries)) - sum(povm))
    return PbtProtocol(n=1, N=N, resource=standard_resource(1, N),
                       povm=tuple(HermitianMatrix(hit.layout, m) for m in povm))


def assert_chains_agree(got, ref, atol):
    np.testing.assert_allclose(got.q, ref.q, rtol=0, atol=atol)
    for name in ("case1_probs", "case0_probs"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=0, atol=atol)
    for name in ("r_j", "p", "p_prime_simulated", "p_prime_formula"):
        assert abs(getattr(got, name) - getattr(ref, name)) <= atol, name
    assert got.case2.keys() == ref.case2.keys()
    for i, c in got.case2.items():
        r = ref.case2[i]
        np.testing.assert_allclose(c.teleport_probs, r.teleport_probs, rtol=0, atol=atol)
        for name in ("leak_prob", "success", "schmidt_deviation"):
            assert abs(getattr(c, name) - getattr(r, name)) <= atol, (i, name)
        np.testing.assert_allclose(c.bob_probs, r.bob_probs, rtol=0, atol=atol)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_chain_equals_the_object_path_on_the_reference_protocol(N):
    primed = primed_bell(N)
    for message in range(1, 5):
        for j in range(1, N + 1):
            assert_chains_agree(analyze(primed, message, j),
                                reference_chain(primed, message, j), 1e-13)


@pytest.mark.parametrize("N", [2, 3])
def test_chain_equals_the_object_path_on_a_rotated_protocol(N):
    primed = build_primed(rotated_protocol(bell_pbt_protocol(N), seed=40 + N))
    for message in range(1, 5):
        for j in range(1, N + 1):
            assert_chains_agree(analyze(primed, message, j),
                                reference_chain(primed, message, j), 1e-13)


def test_chain_equals_the_object_path_when_every_port_succeeds():
    primed = build_primed(every_port_protocol(3))
    assert np.all(analyze(primed, 1, 1).q[1:] > 0.0)
    for message in (1, 4):
        for j in (1, 2, 3):
            got = analyze(primed, message, j)
            assert len(got.case2) == 2
            assert_chains_agree(got, reference_chain(primed, message, j), 1e-13)


def oracle_decoding(post, j, n):
    """<enc_r| partial_trace(|post><post|, {B_j, b}) |enc_r>, densely."""
    rho = permute_operator(partial_trace(outer(post), {port_label(j), "b"}),
                           [port_label(j), "b"])
    return np.array([float(np.vdot(v, rho.entries @ v).real) for v in sdc_basis(n)])


@pytest.mark.parametrize("make", [
    lambda: rotated_protocol(bell_pbt_protocol(3), seed=7),
    lambda: rotated_protocol(every_port_protocol(2), seed=8),
])
def test_chain_decoding_matches_a_dense_partial_trace(make):
    primed = build_primed(make())
    n, big_n = primed.base.n, primed.base.N
    for message in (1, 3):
        branches = reference_branches(primed, message)
        for j in range(1, big_n + 1):
            ana = analyze(primed, message, j)
            if branches[j].post_state is not None:
                np.testing.assert_allclose(ana.case1_probs,
                                           oracle_decoding(branches[j].post_state, j, n),
                                           rtol=0, atol=1e-13)
            np.testing.assert_allclose(ana.case0_probs,
                                       oracle_decoding(branches[0].post_state, j, n),
                                       rtol=0, atol=1e-13)
            # the fallback and the leak together decode the whole marginal
            for i, c2 in ana.case2.items():
                whole = oracle_decoding(branches[i].post_state, j, n)
                assert abs(c2.success - whole[message - 1]) <= 1e-12
                assert np.abs(c2.teleport_probs @ c2.bob_probs - whole).max() <= 1e-12


@pytest.mark.parametrize("make", [lambda: bell_pbt_protocol(4), lambda: every_port_protocol(3)])
def test_one_schmidt_decomposition_per_miss(monkeypatch, make):
    # the residual of miss source i is read off one SVD of its branch, shared
    # by every receiver port; the pairing reads singular values only
    primed = build_primed(make())
    signaling.check_chain_preconditions(primed)
    calls = []
    real = np.linalg.svd

    def counting(a, full_matrices=True, compute_uv=True, **kwargs):
        if compute_uv:
            calls.append(message)
        return real(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    misses, sources = 0, []
    for message in range(1, 5):
        report = compute_chain_exact(primed, message)
        assert report.audit.passed
        misses += sum(len(port.case2) for port in report.ports)
        sources += [(message, i) for i in sorted(set().union(*(p.case2 for p in report.ports)))]
    assert misses > 0
    assert [m for m, _ in sources] == calls
    assert len(calls) <= misses


def residual_from_unnormalized_rows(branches, i):
    """``ChainBranches.residual`` from the other split: rows (B_i, b), the
    branch's amplitudes as they are."""
    pair = (port_label(i), "b")
    right = np.linalg.svd(branches.batch.split(pair, i)[0], full_matrices=False)[2][0]
    return StateVector(branches.batch.layout.without(pair), right)


@pytest.mark.parametrize("make", [
    lambda: rotated_protocol(bell_pbt_protocol(2), seed=42),
    lambda: rotated_protocol(bell_pbt_protocol(3), seed=43),
    lambda: every_port_protocol(3),
], ids=["rotated bell 2", "rotated bell 3", "every port 3"])
def test_equivalent_residual_splits_give_the_same_fallback(monkeypatch, make):
    primed = build_primed(make())
    ports = range(1, primed.base.N + 1)
    chains = [[analyze(primed, message, j) for j in ports] for message in range(1, 5)]
    monkeypatch.setattr(ChainBranches, "residual", residual_from_unnormalized_rows)
    for message, per_port in enumerate(chains, start=1):
        for j, got in zip(ports, per_port):
            other = analyze(primed, message, j)
            assert got.case2.keys() == other.case2.keys()
            for i, c in got.case2.items():
                np.testing.assert_allclose(c.bob_probs, other.case2[i].bob_probs,
                                           rtol=0, atol=1e-15)
            assert np.array_equal(run_chain_batch(got, 20_000, 7),
                                  run_chain_batch(other, 20_000, 7)), (message, j)


@pytest.mark.parametrize("make", [
    *[lambda N=N: bell_pbt_protocol(N) for N in (2, 3, 4)],
    *[lambda N=N: rotated_protocol(bell_pbt_protocol(N), seed=40 + N) for N in (2, 3)],
], ids=["bell 2", "bell 3", "bell 4", "rotated bell 2", "rotated bell 3"])
def test_each_fallback_outcome_decodes_one_message(make):
    # outcome t = 1 (V_1 = I) hands B_i's state to B_j unchanged
    primed = build_primed(make())
    misses = 0
    for message in range(1, 5):
        branches = ChainBranches(primed, message)
        for j in range(1, primed.base.N + 1):
            for c2 in analyze_chain(branches, j).case2.values():
                decoded = c2.bob_probs.argmax(axis=1)
                np.testing.assert_allclose(c2.bob_probs, np.eye(4)[decoded], rtol=0, atol=1e-12)
                assert sorted(decoded) == [0, 1, 2, 3]
                assert decoded[0] + 1 == message
                misses += 1
    assert misses > 0
