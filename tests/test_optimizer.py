"""Optimizer tests: the constructed fixed-resource optimum, the joint constraint
assembly and its splitting solver, extraction, certification."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from pbtkit.cli import dispatch
from pbtkit.engine import (
    HermitianMatrix,
    PbtProtocol,
    bell_pbt_protocol,
    measure,
    standard_resource,
)
from pbtkit.errors import LayoutError
from pbtkit.pauli import haar_states
from pbtkit import optimizer
from pbtkit.optima import p_fixed
from pbtkit.optimizer import (
    ADAPT_EVERY,
    OBJECTIVE_TOLERANCE,
    PRIMAL_TOLERANCE,
    REFINE_FRACTION,
    _FaceProblem,
    _joint_array_bytes,
    _PsdClip,
    _port_choi,
    _round_on_face,
    _run_splitting,
    _score,
    build_joint_sdp,
    build_sdp,
    certify,
    extract_protocol,
    herm_to_vec,
    hermitian_basis,
    solve,
    solve_joint,
    vec_to_herm,
)
from pbtkit.signaling import bound
from pbtkit.tensor import MEMORY_BUDGET, reduced_density
from reference import reference_psd_clip, reference_splitting

FAST = 4000  # iteration cap for the shared fixtures


@pytest.fixture(scope="module")
def fixed_result_n1():
    return solve(build_sdp(1, 1))


@pytest.fixture(scope="module")
def joint_result_12():
    return solve_joint(build_joint_sdp(1, 2), max_iterations=FAST)


def brute_port_output(m, x, resource, n, N, k):
    """Port-k output Tr_{a, A, other ports}[(M x I)(X x xi)] of element M on input X."""
    d = 2**n
    amps = resource.amplitudes
    big = np.kron(m, np.eye(d**N)) @ np.kron(x, np.outer(amps, amps.conj()))
    dims = (d, resource.layout.dim("A")) + (d,) * N
    naxes = len(dims)
    t = big.reshape(dims + dims)
    keep_ax = 1 + k
    row_idx = list(range(naxes))
    col_idx = [naxes + i if i == keep_ax else i for i in range(naxes)]
    return np.einsum(t, row_idx + col_idx, [keep_ax, naxes + keep_ax])


def brute_constraint_residual(proto, qs):
    """Independent oracle: plug the POVM into the teleportation identity."""
    d = 2**proto.n
    worst = 0.0
    for k in range(1, proto.N + 1):
        for x in hermitian_basis(d):
            out = brute_port_output(proto.povm[k].entries, x, proto.resource,
                                    proto.n, proto.N, k)
            worst = max(worst, float(np.max(np.abs(out - qs[k - 1] * x))))
    return worst


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_hermitian_basis_orthonormal():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for i, a in enumerate(basis):
            np.testing.assert_allclose(a, a.conj().T, atol=1e-15)
            for j, b in enumerate(basis):
                ip = np.trace(a.conj().T @ b).real
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def reference_herm_to_vec(m):
    """Entry-by-entry expansion in the basis: diagonal, then sqrt(2) (Re, Im)
    of each upper entry in row-major order."""
    d = m.shape[0]
    vec = [m[i, i].real for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            vec += [np.sqrt(2.0) * m[i, j].real, np.sqrt(2.0) * m[i, j].imag]
    return np.array(vec)


def reference_vec_to_herm(vec, d):
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, vec[:d])
    idx = d
    for i in range(d):
        for j in range(i + 1, d):
            m[i, j] = (vec[idx] + 1j * vec[idx + 1]) * (1.0 / np.sqrt(2.0))
            m[j, i] = np.conj(m[i, j])
            idx += 2
    return m


@pytest.mark.parametrize("d", range(1, 17))
def test_coordinate_map_matches_reference_expansion(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    hs = g + g.conj().swapaxes(1, 2)
    vecs = rng.standard_normal((3, d * d))
    for h, vec in zip(hs, vecs):
        np.testing.assert_array_equal(herm_to_vec(h), reference_herm_to_vec(h))
        np.testing.assert_array_equal(vec_to_herm(vec, d), reference_vec_to_herm(vec, d))
    # batched calls agree exactly with the single ones
    np.testing.assert_array_equal(herm_to_vec(hs),
                                  [reference_herm_to_vec(h) for h in hs])
    np.testing.assert_array_equal(vec_to_herm(vecs, d),
                                  [reference_vec_to_herm(v, d) for v in vecs])
    np.testing.assert_array_equal(hermitian_basis(d),
                                  [reference_vec_to_herm(e, d) for e in np.eye(d * d)])


def clip_blocks(vecs, d):
    """``_PsdClip`` on blocks laid back to back, reshaped to one per row."""
    out = np.empty(vecs.size)
    _PsdClip((d, len(vecs)))(vecs.reshape(-1), out)
    return out.reshape(vecs.shape)


@pytest.mark.parametrize("d, blocks", [(1, 3), (2, 2), (4, 3), (8, 2)])
def test_stacked_psd_clip_equals_per_block_clip(d, blocks):
    rng = np.random.default_rng(10 * d + blocks)
    vecs = rng.standard_normal((blocks, d * d))
    stacked = clip_blocks(vecs, d)
    np.testing.assert_array_equal(stacked, [clip_blocks(v[None], d)[0] for v in vecs])
    for vec in stacked:
        assert np.linalg.eigvalsh(vec_to_herm(vec, d))[0] > -1e-12
    assert stacked.tobytes() == reference_psd_clip(vecs, d).tobytes()


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_psd_clip_matches_reference_on_zero_and_negative_eigenvalues(d):
    """Blocks with exact-zero, negative and all-negative spectra clip to the
    same bits as the reference, in place too."""
    rng = np.random.default_rng(d)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spectra = [np.zeros(d), np.arange(d) - d // 2, -1.0 - np.arange(d),
               np.r_[np.zeros(d - 1), 3.0]]
    vecs = np.stack([herm_to_vec((u * lam) @ u.conj().T) for lam in spectra]
                    + [herm_to_vec(np.diag(lam).astype(complex)) for lam in spectra])
    expected = reference_psd_clip(vecs, d)
    assert clip_blocks(vecs, d).tobytes() == expected.tobytes()
    for vec, want in zip(vecs, expected):
        flat = vec.copy()
        _PsdClip((d, 1))(flat, flat)
        assert flat.tobytes() == want.tobytes()


def test_vec_roundtrip():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (g + g.conj().T) / 2
    vec = herm_to_vec(h)
    np.testing.assert_allclose(vec_to_herm(vec, 5), h, atol=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(h), abs=1e-12)


def test_standard_resource_layout():
    res = standard_resource(1, 3)
    assert res.layout.labels == ("A", "B1", "B2", "B3")
    assert res.layout.dim("A") == 8
    for j in (1, 2, 3):
        marg = reduced_density(res, {f"B{j}"})
        np.testing.assert_allclose(marg.entries, np.eye(2) / 2, atol=1e-14)


ASSEMBLY_CASES = [(1, 1), (1, 2), (1, 3), (2, 1)]


@pytest.mark.parametrize("n, N", ASSEMBLY_CASES)
def test_fixed_blocks_match_brute_port_output(n, N):
    """Every constructed element, plugged into the standard resource, outputs
    q_k X on its port for every Hermitian input X."""
    res = solve(build_sdp(n, N))
    assert brute_constraint_residual(res.protocol, res.q) <= 1e-10
    assert res.residuals["teleportation"] <= 1e-15


@pytest.mark.parametrize("n, N", ASSEMBLY_CASES)
def test_joint_blocks_match_port_choi_and_embed_matches_kron(n, N):
    rng = np.random.default_rng(20 * n + N)
    d = 2**n
    sdp = build_joint_sdp(n, N)
    j_op = random_hermitian(rng, sdp.dim_choi)
    for k, block in enumerate(sdp.blocks, start=1):
        np.testing.assert_allclose(block @ herm_to_vec(j_op),
                                   herm_to_vec(_port_choi(j_op, d, N, k)),
                                   rtol=0, atol=1e-13)
    sigma = random_hermitian(rng, sdp.dim_sigma)
    np.testing.assert_allclose(sdp.embed @ herm_to_vec(sigma),
                               herm_to_vec(np.kron(np.eye(d), sigma)), rtol=0, atol=1e-13)
    for face in sdp.faces():
        np.testing.assert_allclose(face.conj().T @ face, np.eye(face.shape[1]),
                                   rtol=0, atol=1e-13)


def test_build_sdp_dimension_guard():
    with pytest.raises(LayoutError, match="cap"):
        build_sdp(2, 4)


def test_solve_fixed_single_port(fixed_result_n1):
    res = fixed_result_n1
    assert res.p_opt == pytest.approx(float(p_fixed(1, 1)), abs=1e-12)
    assert res.residuals["teleportation"] < 1e-10
    assert res.residuals["psd"] < 1e-12
    rep = certify(res.protocol.povm, res.protocol.resource, 1, 1, samples=10)
    assert rep.passed, rep.to_dict()
    # re-simulation through the engine reproduces the reported optimum
    wrapped = PbtProtocol(n=1, N=1, resource=res.protocol.resource,
                          povm=res.protocol.povm)
    for psi in haar_states(2, 5, seed=9):
        p_sim = measure(wrapped, psi.amplitudes[None]).q[0, 1:].sum()
        assert abs(p_sim - res.p_opt) < 1e-8


def test_solve_fixed_two_ports_true_value():
    # with the resource pinned to two maximally entangled pairs the exact
    # optimum is 1/3: the constraint forces M_k = (projector) x Q_k and the
    # completeness cap tops out at Q_k = (2/3) I
    assert p_fixed(1, 2) == Fraction(1, 3)
    res = solve(build_sdp(1, 2))
    assert res.p_opt == pytest.approx(float(p_fixed(1, 2)), abs=1e-12)
    proto_q = res.q
    assert proto_q.sum() == pytest.approx(res.p_opt, abs=1e-12)
    rep = certify(res.protocol.povm, res.protocol.resource, 1, 2, samples=10)
    assert rep.passed, rep.to_dict()


def test_solve_trace_and_determinism(joint_result_12):
    res = joint_result_12
    assert len(res.trace) == res.iterations
    again = solve_joint(build_joint_sdp(1, 2), max_iterations=FAST)
    assert again.p_opt == res.p_opt
    np.testing.assert_array_equal(again.q, res.q)


def test_solve_joint_two_ports(joint_result_12):
    res = joint_result_12
    assert res.p_opt == pytest.approx(float(bound(1, 2)), abs=1e-3)
    assert res.protocol is not None
    rep = certify(res.protocol.povm, res.protocol.resource, 1, 2, samples=10)
    assert rep.passed, rep.to_dict()


def test_joint_beats_fixed_resource(joint_result_12):
    # optimizing the resource strictly helps for two ports: 0.4 > 1/3
    assert joint_result_12.p_opt > float(p_fixed(1, 2)) + 0.05


def test_joint_extracted_protocol_passes_brute_force_oracle(joint_result_12):
    res = joint_result_12
    worst = brute_constraint_residual(res.protocol, res.q)
    assert worst < 1e-8


def test_joint_two_qubit_single_port():
    res = solve_joint(build_joint_sdp(2, 1), max_iterations=FAST)
    assert res.p_opt == pytest.approx(float(bound(2, 1)), abs=1e-4)
    rep = certify(res.protocol.povm, res.protocol.resource, 2, 1, samples=5)
    assert rep.passed, rep.to_dict()


def test_extract_protocol_roundtrip_from_known_choi():
    # Choi blocks of the reference single-pair protocol: J_1 = (1/4) Omega Omega
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0
    j1 = 0.25 * np.outer(omega, omega.conj())
    sigma = np.eye(2, dtype=complex) / 2
    proto, qs = extract_protocol(1, 1, [j1], sigma)
    assert qs[0] == pytest.approx(0.25, rel=1e-5)
    q = measure(proto, haar_states(2, 1, seed=4)[0].amplitudes[None]).q[0]
    assert q[1] == pytest.approx(0.25, abs=1e-6)


def test_certify_rejects_broken_completeness():
    proto = bell_pbt_protocol(1)
    bad = tuple(HermitianMatrix(m.layout, m.entries * 1.01) for m in proto.povm)
    rep = certify(bad, proto.resource, 1, 1)
    assert not rep.passed
    flag = rep.checks[0]
    assert not flag.passed and "completeness" in flag.details["error"]


def test_bound_never_exceeded_across_runs(fixed_result_n1, joint_result_12):
    assert fixed_result_n1.p_opt <= float(bound(1, 1)) + 1e-8
    assert joint_result_12.p_opt <= float(bound(1, 2)) + 1e-8


def test_upper_end_is_set_where_theory_gives_it():
    for n, N in [(1, 1), (1, 2), (1, 3), (2, 1)]:
        assert build_sdp(n, N).p_upper == float(p_fixed(n, N))
        assert build_joint_sdp(n, N).p_upper == float(bound(n, N))


def solve_case(joint, n, N, sdp=None):
    if sdp is None:
        sdp = build_joint_sdp(n, N) if joint else build_sdp(n, N)
    return (solve_joint if joint else solve)(sdp)


@pytest.mark.parametrize("joint, n, N", [(False, 1, 1), (False, 1, 2), (False, 2, 1),
                                         (True, 1, 1), (True, 1, 2), (True, 2, 1)])
def test_default_solve_stops_on_the_certificate(joint, n, N):
    res = solve_case(joint, n, N)
    assert res.p_upper == float(bound(n, N) if joint else p_fixed(n, N))
    assert res.stopped_by == "certificate" and res.converged is True
    assert res.iterations % ADAPT_EVERY == 0 and len(res.trace) == res.iterations
    assert 0 <= res.p_upper - res.p_opt <= OBJECTIVE_TOLERANCE
    assert certify(res.protocol.povm, res.protocol.resource, n, N, samples=5).passed


@pytest.mark.parametrize("joint, N", [(True, 1), (True, 2), (True, 3)])
def test_default_solve_stops_when_converged(joint, N):
    """Runs the certificate does not end take the stall test: N=3 never
    meets its upper end, and N=1, 2 run here with theirs taken away."""
    sdp = build_joint_sdp(1, N)
    res = solve_joint(sdp if N == 3 else dataclasses.replace(sdp, p_upper=None))
    assert res.stopped_by == "stall" and res.converged is True
    assert res.iterations < 20_000  # the default cap
    # the switch comes from a stalled adaptive phase, not from the cap
    assert 1 < res.switch_iteration < 20_000 * (1 - REFINE_FRACTION)
    assert res.iterations - res.switch_iteration >= 2 * ADAPT_EVERY
    assert res.trace[-1][2] < PRIMAL_TOLERANCE


def result_bytes(res):
    return (res.p_opt, res.q.tobytes(), [m.entries.tobytes() for m in res.protocol.povm],
            res.protocol.resource.amplitudes.tobytes(), res.residuals, res.trace,
            res.iterations, res.switch_iteration, res.converged, res.stopped_by)


@pytest.mark.parametrize("joint", [True])
def test_runs_the_certificate_does_not_end_are_unchanged(joint):
    """Joint N=3 never meets its upper end: it returns what the run without
    an upper end returns, and its iterations are the reference's."""
    sdp = build_joint_sdp(1, 3)
    fp = _FaceProblem(sdp)
    res = solve_joint(sdp)
    plain = solve_joint(dataclasses.replace(sdp, p_upper=None))
    assert res.stopped_by == "stall"
    assert result_bytes(res) == result_bytes(plain)
    _, run_ref = reference_splitting(fp, 20_000)
    assert np.array(res.trace).tobytes() == np.array(run_ref["trace"]).tobytes()
    assert (res.iterations, res.switch_iteration) == (run_ref["iterations"],
                                                      run_ref["switch_iteration"])


def perturbed(a, rng):
    """``a`` with each nonzero entry below 2 moved one unit in the last place
    (toward zero at and above 1), so by at most eps = 2.2e-16."""
    target = np.where(np.abs(a) >= 1, 0.0, rng.choice([-np.inf, np.inf], size=a.shape))
    out = np.where((a != 0) & (np.abs(a) < 2), np.nextafter(a, target), a)
    assert 0 < np.max(np.abs(out - a)) <= np.finfo(float).eps
    return out


@pytest.mark.parametrize("joint, N", [(True, 1), (True, 2)])
def test_certificate_stop_survives_rounding_noise_in_the_blocks(joint, N):
    """Iteration counts follow the last bits of the blocks; the certified
    stop does not."""
    rng = np.random.default_rng(10 * joint + N)
    sdp = build_joint_sdp(1, N)
    noise = dict(blocks=[perturbed(b, rng) for b in sdp.blocks],
                 rhs_pattern=perturbed(sdp.rhs_pattern, rng), embed=perturbed(sdp.embed, rng))
    for problem in (sdp, dataclasses.replace(sdp, **noise)):
        res = solve_joint(problem)
        assert res.stopped_by == "certificate"
        assert res.p_upper - res.p_opt <= OBJECTIVE_TOLERANCE


def test_budget_ending_before_stall_is_not_converged():
    res = solve_joint(build_joint_sdp(1, 2), max_iterations=60)
    assert res.converged is False and res.stopped_by == "cap"
    assert res.iterations == 60 == len(res.trace)
    # the cap still leaves a refinement phase
    assert res.switch_iteration == int(60 * (1 - REFINE_FRACTION))


#: the splitting solver runs only the joint form
REFERENCE_CASES = [(True, 1, 1), (True, 1, 2), (True, 1, 3), (True, 2, 1)]


@pytest.mark.parametrize("joint, n, N", REFERENCE_CASES)
def test_splitting_matches_the_reference_bit_for_bit(joint, n, N):
    """The iteration on bound buffers computes the reference's iterates: the
    final iterate has the same bytes and the run record is the same, whether
    the stop test or the iteration cap ends the run."""
    fp = _FaceProblem(build_joint_sdp(n, N))
    for cap in (20_000, 60):
        z, run = _run_splitting(fp, cap, np.copy)
        z_ref, run_ref = reference_splitting(fp, cap)
        assert run["converged"] is (cap == 20_000)
        assert z.tobytes() == z_ref.tobytes()
        assert run == run_ref
        assert np.array(run["trace"]).tobytes() == np.array(run_ref["trace"]).tobytes()


@pytest.mark.parametrize("joint, n, N", REFERENCE_CASES)
def test_checkpoints_never_write_the_iterates(joint, n, N):
    """An upper end no answer meets rounds the iterate at every checkpoint
    and changes nothing: the run is still the reference's, bit for bit."""
    fp = _FaceProblem(build_joint_sdp(n, N))
    seen = []

    def finish(z):
        seen.append(z.tobytes())
        return {"p_opt": float(_round_on_face(fp, z)[1].sum()), "z": z.copy()}

    answer, run = _run_splitting(fp, 20_000, finish, p_upper=2.0)
    z_ref, run_ref = reference_splitting(fp, 20_000)
    assert answer["z"].tobytes() == z_ref.tobytes() == seen[-1]
    assert run == run_ref
    # one answer per checkpoint, and the final one unless a checkpoint made it
    assert len(seen) == -(-run["iterations"] // ADAPT_EVERY)


@pytest.mark.parametrize("n, N", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_checkpoint_score_is_the_built_answers_p_opt(n, N):
    """At every checkpoint of the default joint solve, and at its end, the
    score's p_opt is the float the full steering construction of the same
    rounded blocks gives, bit for bit."""
    sdp = build_joint_sdp(n, N)
    fp = _FaceProblem(sdp)
    pairs = []

    def score(z):
        scored = _score(fp, z)
        _, qs = extract_protocol(n, N, scored["js"], scored["sigma"])
        pairs.append((scored["p_opt"].hex(), float(qs.sum()).hex()))
        return scored

    answer, run = _run_splitting(fp, 20_000, score, sdp.p_upper)
    assert len(pairs) == -(-run["iterations"] // ADAPT_EVERY) >= 1
    assert all(scored == built for scored, built in pairs)
    assert answer["p_opt"] == solve_joint(sdp).p_opt


@pytest.mark.parametrize("N, cap, stopped_by", [(2, 20_000, "certificate"), (3, 20_000, "stall"),
                                                (2, 60, "cap")])
def test_joint_solve_builds_one_protocol(monkeypatch, N, cap, stopped_by):
    """Checkpoints only score the iterate: whichever test ends the run, the
    solve constructs (and validates) one protocol, the one it returns."""
    validate, built = PbtProtocol.validate, []

    def counted(self):
        built.append(self)
        return validate(self)

    sdp = build_joint_sdp(1, N)
    monkeypatch.setattr(PbtProtocol, "validate", counted)
    res = solve_joint(sdp, max_iterations=cap)
    assert res.stopped_by == stopped_by and res.iterations > ADAPT_EVERY
    assert len(built) == 1 and built[0] is res.protocol


@pytest.mark.parametrize("budget", [0, -5])
def test_solve_rejects_non_positive_budget(monkeypatch, budget):
    def no_work(*args):
        raise AssertionError("the budget is checked before the splitting starts")

    monkeypatch.setattr(optimizer, "_FaceProblem", no_work)
    with pytest.raises(ValueError, match="max_iterations"):
        solve_joint(build_joint_sdp(1, 1), max_iterations=budget)


def test_joint_psd_residual_is_measured(joint_result_12):
    res = joint_result_12
    elements = [m.entries for m in res.protocol.povm[1:]]
    slack = np.eye(elements[0].shape[0]) - sum(elements)
    expected = max(max(0.0, -np.linalg.eigvalsh(m)[0]) for m in elements + [slack])
    assert res.residuals["psd"] == expected
    assert res.residuals["psd"] < 1e-12


#: every fixed-resource case under the optimizer cap but (3, 2) and (5, 1),
#: which take about 1 s and 5 s
FIXED_GRID = [(1, N) for N in range(1, 8)] + [(2, 1), (2, 2), (2, 3), (3, 1), (4, 1)]


@pytest.mark.parametrize("n, N", FIXED_GRID)
def test_constructed_fixed_optimum_certifies_at_p_fixed(n, N):
    res = solve(build_sdp(n, N))
    assert abs(res.p_opt - float(p_fixed(n, N))) <= 1e-12
    assert res.p_upper == float(p_fixed(n, N))
    assert (res.iterations, res.converged, res.stopped_by, res.trace) == (0, True,
                                                                         "certificate", [])
    assert res.residuals["psd"] <= 1e-14
    resource = res.protocol.resource.amplitudes
    assert resource.tobytes() == standard_resource(n, N).amplitudes.tobytes()
    assert certify(res.protocol.povm, res.protocol.resource, n, N, samples=3).passed


@pytest.mark.parametrize("n, N", [(1, 1), (1, 2), (2, 1)])
def test_joint_array_bytes_is_the_largest_array_built(n, N):
    """The guard's estimate is the size of the largest array of the assembly
    (the complex adjoint and sigma embedding, twice their real coordinates)
    and of the splitting solver."""
    sdp = build_joint_sdp(n, N)
    fp = _FaceProblem(sdp)
    built = [2 * sdp.blocks[0].nbytes, 2 * sdp.embed.nbytes, fp.w_cols.nbytes,
             fp.h_inv.nbytes]
    assert _joint_array_bytes(n, N) == max(built)


@pytest.mark.parametrize("n, N", [(1, 6), (1, 7), (2, 3), (3, 2), (4, 1), (5, 1)])
def test_joint_guard_refuses_before_allocating(monkeypatch, capsys, tmp_path, n, N):
    def no_basis(d):
        raise AssertionError("the joint problem allocated before its memory guard")

    monkeypatch.setattr(optimizer, "hermitian_basis", no_basis)
    needed = _joint_array_bytes(n, N)
    assert needed > MEMORY_BUDGET
    with pytest.raises(LayoutError, match=f"{needed} bytes"):
        build_joint_sdp(n, N)
    code = dispatch(["optimize", "--qubits", str(n), "--ports", str(N),
                     "--out", str(tmp_path)])
    assert code == 2
    assert f"needs {needed} bytes, above the cap of {MEMORY_BUDGET} bytes" in \
        capsys.readouterr().err


@pytest.mark.parametrize("n, N", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
def test_joint_guard_admits_the_cases_that_solve(n, N):
    assert _joint_array_bytes(n, N) <= MEMORY_BUDGET
