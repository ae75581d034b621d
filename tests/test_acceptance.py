"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success).  The optimizer runs are shared across criteria via module
fixtures so the whole suite stays well inside its runtime budget.
"""

import csv
import time
from fractions import Fraction

import numpy as np
import pytest

from pbtkit.cli import dispatch
from pbtkit.engine import bell_pbt_protocol, measure, teleport_report
from pbtkit.nocloning import pointer_form, verify_theorem
from pbtkit.optimizer import build_joint_sdp, certify, solve_joint
from pbtkit.pauli import haar_states, twirl
from pbtkit.primed import build_primed, verify_eq5, verify_failure_marginal_twirl
from pbtkit.signaling import bound, compute_chain_exact, f_of_R, monte_carlo_check
from pbtkit.tensor import HermitianMatrix, SystemLayout


def announce(criterion: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {label}: {status} ({detail})")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def optimizer_results():
    results = {}
    start = time.time()
    for N in (1, 2, 3):
        res = solve_joint(build_joint_sdp(1, N))
        cert = certify(res.protocol.povm, res.protocol.resource, 1, N, samples=20, seed=11)
        results[N] = (res, cert)
    results["elapsed"] = time.time() - start
    return results


def test_criterion_1_twirl_identity():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (1, 2):
        d = 2**n
        lay = SystemLayout.of(("q", d))
        for _ in range(100):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            rho = HermitianMatrix(lay, rho / np.trace(rho))
            worst = max(worst, float(np.max(np.abs(twirl(rho).entries - np.eye(d) / d))))
    elapsed = time.time() - start
    announce(1, "twirl maps every state to the maximally mixed state",
             worst < 1e-12 and elapsed < 1.0,
             f"max deviation {worst:.2e} < 1e-12, {elapsed:.2f}s < 1s")


def test_criterion_2_reference_protocol():
    start = time.time()
    proto = bell_pbt_protocol(1)
    worst_q = 0.0
    worst_fid = 1.0
    for psi in haar_states(2, 20, seed=2):
        inputs = psi.amplitudes[None]
        batch = measure(proto, inputs)
        worst_q = max(worst_q, abs(batch.q[0, 1] - 0.25))
        fid = teleport_report(batch, inputs)[0][0, 0]
        worst_fid = min(worst_fid, fid)
    elapsed = time.time() - start
    announce(2, "reference single-pair protocol hits q = 1/4 with perfect delivery",
             worst_q < 1e-10 and worst_fid > 1 - 1e-10 and elapsed < 1.0,
             f"|q-0.25| <= {worst_q:.2e}, fidelity >= {worst_fid:.12f}, "
             f"{elapsed:.2f}s < 1s")


def test_criterion_3_port_marginal_decomposition():
    from pbtkit.engine import verify_port_decomposition

    start = time.time()
    worst = 0.0
    for N in (1, 2, 3):
        proto = bell_pbt_protocol(N)
        for psi in haar_states(2, 20, seed=30 + N):
            for j in range(1, N + 1):
                rep = verify_port_decomposition(proto, psi, j, tolerance=1e-10)
                assert rep.passed
                worst = max(worst, rep.max_deviation())
    elapsed = time.time() - start
    announce(3, "port marginal equals its success/miss/failure mixture",
             worst < 1e-10 and elapsed < 10.0,
             f"max residual {worst:.2e} < 1e-10 over N in (1,2,3), {elapsed:.1f}s < 10s")


def test_criterion_4_impossibility_theorem_suite():
    start = time.time()
    op = pointer_form(bell_pbt_protocol(1))
    rep = verify_theorem(op, samples=30, seed=4)
    elapsed = time.time() - start
    devs = {c.tag: c.deviation for c in rep.checks if c.deviation is not None}
    announce(4, "pointer-form conclusions: constant q, constant residuals, "
                "overlap preservation",
             rep.passed and elapsed < 5.0,
             f"q spread {devs.get('Eq.a6'):.2e} < 1e-10, residual gap "
             f"{devs.get('Eq.a7'):.2e} < 1e-10, overlap gap {devs.get('Eq.a8'):.2e}"
             f" < 1e-8, {elapsed:.1f}s < 5s")


def test_criterion_5_twirled_construction():
    start = time.time()
    worst_marginal = 0.0
    worst_prob = 0.0
    worst_b9 = 0.0
    for N in (1, 2, 3):
        primed = build_primed(bell_pbt_protocol(N))
        samples = haar_states(2, 5, seed=50 + N)
        rep = verify_eq5(primed, samples)
        assert rep.passed, rep.to_dict()
        for check in rep.checks:
            if check.tag in ("Eq.b4", "Eq.b7", "Eq.11"):
                worst_marginal = max(worst_marginal, check.deviation)
            if check.tag == "Eq.b6" and "probabilities" in check.name:
                worst_prob = max(worst_prob, check.deviation)
        for twirl_rep in verify_failure_marginal_twirl(primed, samples[0]):
            assert twirl_rep.passed, twirl_rep.to_dict()
            worst_b9 = max(worst_b9, twirl_rep.max_deviation())
    elapsed = time.time() - start
    announce(5, "twirled protocols: mixed marginals, preserved probabilities, "
                "failure-marginal decomposition",
             worst_marginal < 1e-10 and worst_prob < 1e-12 and worst_b9 < 1e-10
             and elapsed < 30.0,
             f"marginals {worst_marginal:.2e} < 1e-10, probabilities "
             f"{worst_prob:.2e} < 1e-12, per-term failure twirl {worst_b9:.2e}"
             f" < 1e-10, {elapsed:.1f}s < 30s")


def test_criterion_6_no_signaling_master_check():
    start = time.time()
    worst_exact = 0.0
    worst_balance = 0.0
    for N in (1, 2, 3):
        primed = build_primed(bell_pbt_protocol(N))
        for message in (1, 2, 3, 4):
            report = compute_chain_exact(primed, message)
            assert report.audit.passed, report.audit.to_dict()
            for port in report.ports:
                worst_exact = max(worst_exact, abs(port.p_prime_simulated - 0.25))
                worst_balance = max(worst_balance,
                                    abs(port.p_prime_simulated - port.p_prime_formula))
    mc = []
    primed2 = build_primed(bell_pbt_protocol(2))
    for port in compute_chain_exact(primed2, message=1).ports:
        mc.append(monte_carlo_check(port, rounds=100_000, seed=6))
    elapsed = time.time() - start
    announce(6, "receiver success pinned to the random guess 4^-n",
             worst_exact < 1e-10 and worst_balance < 1e-10
             and all(r.passed for r in mc) and elapsed < 120.0,
             f"exact gap {worst_exact:.2e} < 1e-10 over every message and port, "
             f"balance gap {worst_balance:.2e} < 1e-10, Monte-Carlo 10^5 rounds "
             f"within 3 sigma, {elapsed:.1f}s < 2min")


def test_criterion_7_optimizer_reproduces_known_optimum(optimizer_results):
    # the optimum over resources is the ceiling N/(N+3) at n=1
    targets = {N: (float(bound(1, N)), tol) for N, tol in ((1, 1e-4), (2, 1e-3), (3, 1e-3))}
    details = []
    ok = True
    for N, (target, tol) in targets.items():
        res, cert = optimizer_results[N]
        gap = abs(res.p_opt - target)
        fid_check = [c for c in cert.checks if "perfectly" in c.name][0]
        ok = (ok and gap < tol and cert.passed and fid_check.deviation < 1e-6
              and res.converged)
        details.append(f"N={N}: p={res.p_opt:.6f} (|gap|={gap:.1e} < {tol:g}, "
                       f"certified, 1-fid={fid_check.deviation:.1e}, "
                       f"converged in {res.iterations} iterations)")
    elapsed = optimizer_results["elapsed"]
    ok = ok and elapsed < 600.0
    announce(7, "optimizer recovers N/(N+3) with certified measurements",
             ok, "; ".join(details) + f"; {elapsed:.0f}s < 10min")


def test_criterion_8_bound_property(optimizer_results, tmp_path):
    start = time.time()
    ok = True
    details = []
    for N in (1, 2, 3):
        res, cert = optimizer_results[N]
        limit = float(bound(1, N))
        ok = ok and res.p_opt <= limit + 1e-8 and cert.passed
        details.append(f"p({N})={res.p_opt:.6f} <= {limit:.4f}+1e-8")
    # reference protocols also sit under the bound
    for N in (1, 2, 3):
        proto = bell_pbt_protocol(N)
        rep = certify(proto.povm, proto.resource, 1, N, samples=10, seed=8)
        ok = ok and rep.passed
    # the table reproduces N/(N+3) exactly at n=1
    assert dispatch(["bound-table", "--n", "1", "--max-ports", "5",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    for row in rows:
        if row["n"] == "1":
            exact = float(Fraction(int(row["N"]), int(row["N"]) + 3))
            ok = ok and float(row["bound"]) == exact
    # the balance curve starts exactly at the bound and decreases
    for n, N in ((1, 1), (1, 3), (2, 4)):
        ok = ok and f_of_R(n, N, 0.0).exact == bound(n, N)
        limit = 4.0**-n * N
        grid = np.linspace(0.0, limit, 101)[:-1]
        vals = [f_of_R(n, N, r).value for r in grid]
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
    elapsed = time.time() - start
    announce(8, "nothing exceeds N/(4^n + N - 1); table and balance curve agree",
             ok and elapsed < 60.0, "; ".join(details) + f"; table exact at n=1; "
             f"monotone balance curve; {elapsed:.1f}s")


def test_criterion_9_per_qubit_power_observation(tmp_path):
    assert dispatch(["bound-table", "--n", "1", "--max-qubits", "2",
                     "--max-ports", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    rows = {(r["n"], r["N"]): r for r in csv.DictReader(lines[1:])}
    row = rows[("2", "4")]
    power = float(row["p_max_n1_pow_n"])
    limit = float(row["bound"])
    ok = (abs(power - 0.3265) < 1e-4 and abs(limit - 0.2105) < 1e-4
          and power > limit)
    announce(9, "per-port single-qubit power beats the global bound at (2, 4)",
             ok, f"(4/7)^2 = {power:.6f} vs bound {limit:.6f}, both within 1e-4 "
                 "of their quoted values")
