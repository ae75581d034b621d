"""No-signaling audit: the communication-free message chain and the bound.

The sender tries to push a 2n-bit message to the receiver without any
communication: she encodes it superdensely into a shared entangled pair, then
teleports her half through a twirled protocol in which she holds every port
except B_j.  On a hit (outcome j) the receiver's decoding succeeds; on a miss
she silently re-teleports the state from the port she received onto B_j,
pairing each basis state |m> of B_j with its partner in the residual, with
no correction message; on a failure the receiver decodes whatever is left.
No-signaling pins the receiver's total success probability to exactly 4^-n,
and summing the resulting balance equation over ports yields the
success-probability bound N/(4^n + N - 1).

A chain is one data flow: ``ChainBranches`` checks the protocol and
measures the sender's branches on one message, ``analyze_chain`` reads one
receiver port's exact distribution tree off them, and exact branch summation
over that tree gives the verdict.  Seeded Monte-Carlo rounds drawn from the
same trees (``run_chain_batch``) give the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

import numpy as np

from .branches import BRANCH_PRUNE, povm_branches, require_samples
from .engine import port_label
from .errors import ChainPreconditionError
from .pauli import PauliIndex, pauli_element, pauli_set
from .primed import ANCILLA_LABEL, PrimedProtocol
from .report import AuditReport
from .tensor import (
    StateVector,
    _apply_matrix,
    apply_on_subsystems,
    check_budget,
    maximally_entangled,
)

#: tolerance for the exact no-signaling checks
EXACT_ATOL = 1e-10
#: how far a success probability may sit above ``bound`` and still respect it
BOUND_ATOL = 1e-8
#: the most bytes per round that ``run_chain_batch`` holds at once: its
#: tracemalloc peak, 49.003 bytes per round at 1M rounds when every round is
#: a miss with one fallback outcome, rounded up
ROUND_BYTES = 50


def sdc_encode(message: int, n: int) -> StateVector:
    """Superdense encoding: V_message applied to one half of a maximally
    entangled pair of 2^n-dimensional systems.  The 4^n encodings are
    mutually orthonormal."""
    v = pauli_element(PauliIndex(message, n))  # validates the range
    phi = maximally_entangled(("a", 2**n), ("b", 2**n))
    return apply_on_subsystems(phi, v, ["a"])


@cache
def sdc_basis(n: int) -> np.ndarray:
    """The 4^n superdense encodings as rows over (a, b), built once per n
    (read-only)."""
    basis = np.array([sdc_encode(r, n).amplitudes for r in range(1, 4**n + 1)])
    basis.setflags(write=False)
    return basis


def bound(n: int, N: int) -> Fraction:
    """The success-probability upper bound N/(4^n + N - 1), exactly."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    return Fraction(N, 4**n + N - 1)


@dataclass(frozen=True)
class FValue:
    """One evaluation of the port-sum balance curve."""

    value: float
    exact: Optional[Fraction]
    feasible: bool
    boundary: bool


def f_of_R(n: int, N: int, R: float) -> FValue:
    """Evaluate (1 + (4^n - 1)/(N - 4^n R))^-1 with exact rational arithmetic.

    ``feasible`` flags 0 <= R <= 4^-n N (outside, no probability in [0, 1]
    solves the balance); at R = 4^-n N the expression degenerates and the
    continuous limit 0 is returned, flagged as the boundary case.
    """
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    r_exact = Fraction(R)
    limit = Fraction(N, 4**n)
    feasible = 0 <= r_exact <= limit
    if r_exact == limit:
        return FValue(value=0.0, exact=Fraction(0), feasible=feasible, boundary=True)
    exact = 1 / (1 + Fraction(4**n - 1) / (N - 4**n * r_exact))
    return FValue(value=float(exact), exact=exact, feasible=feasible, boundary=False)


# ---------------------------------------------------------------------------
# chain protocol


@dataclass
class Case2Analysis:
    """Fallback teleportation from source port i onto the receiver's port."""

    teleport_probs: np.ndarray        # per generalized-Bell outcome, conditional on k=i
    leak_prob: float                  # weight outside the Bell family (0 for valid chains)
    bob_probs: np.ndarray             # [outcome t, decoded message r]
    success: float                    # receiver success conditional on k=i
    schmidt_deviation: float          # max |coeff - 2^(-n/2)| of the residual


@dataclass
class ChainAnalysis:
    """Exact conditional distributions of one (protocol, message, port) chain;
    ``n`` sets the random guess 4^-n and is not part of the report entry."""

    n: int
    j: int
    message: int
    q: np.ndarray
    case1_probs: Optional[np.ndarray]   # receiver decoding distribution given k=j
    case2: dict[int, Case2Analysis]
    case0_probs: Optional[np.ndarray]   # receiver decoding distribution given k=0
    r_j: float
    p: float
    p_prime_simulated: float
    p_prime_formula: float

    def to_dict(self) -> dict:
        """The receiver port's entry in a ``SignalingReport``."""
        return {
            "j": self.j,
            "q_j": float(self.q[self.j]),
            "r_j": self.r_j,
            "p_prime_simulated": self.p_prime_simulated,
            "p_prime_formula": self.p_prime_formula,
            "case2_success": {str(i): c.success for i, c in self.case2.items()},
            "case2_teleport_probs": {
                str(i): [float(x) for x in c.teleport_probs] for i, c in self.case2.items()
            },
        }


def check_chain_preconditions(primed: PrimedProtocol) -> None:
    """The chain argument needs maximally mixed port marginals and a perfect
    base: ``PrimedProtocol.chain_probe_report``, evaluated once per protocol."""
    rep = primed.chain_probe_report
    if not rep.passed:
        raise ChainPreconditionError(
            "chain protocol requires a twirled perfect protocol; marginal check failed: "
            + (rep.note or "see report")
        )


def _decode(m: np.ndarray, n: int) -> np.ndarray:
    """The receiver's decoding distribution ``<enc_r|rho|enc_r>``, r = 1..4^n,
    of ``rho = m m^dag`` for each matrix m (rows over (B_j, b)): non-negative
    sums of squares."""
    return (np.abs(sdc_basis(n).conj() @ m) ** 2).sum(axis=-1)


class ChainBranches:
    """The sender's branches on one encoded message, the same for every
    receiver port: one input of a ``BranchBatch``.  The only way into a
    chain, so the protocol's preconditions are checked here, once.  Each
    miss branch is factored across (B_i, b) once, on first use."""

    def __init__(self, primed: PrimedProtocol, message: int):
        check_chain_preconditions(primed)
        enc = sdc_encode(message, primed.base.n)
        layout = enc.layout.concat(primed.primed_resource.layout)
        state = np.kron(enc.amplitudes, primed.primed_resource.amplitudes).reshape(layout.dims)
        state = _apply_matrix(state, layout.dims, [layout.axis("a"), layout.axis(ANCILLA_LABEL)],
                              primed.w)
        self.n, self.message = primed.base.n, message
        self.batch = povm_branches(state[None], layout, primed.base.kraus, ("a", "A"))
        self._residuals: dict[int, StateVector] = {}

    def residual(self, i: int) -> StateVector:
        """Branch i without (b, B_i), which it must factorize from: the top
        right singular vector of the normalized branch split across them.
        Any split gives it up to a global phase, which the fallback does not
        see."""
        if i not in self._residuals:
            pair = ("b", port_label(i))
            split = self.batch.split(pair, i)[0] / np.sqrt(self.batch.q[0, i])
            coeffs, right = np.linalg.svd(split, full_matrices=False)[1:]
            if 1.0 - coeffs[0] ** 2 > 1e-8:
                raise ChainPreconditionError(
                    f"branch {i} does not factorize from (B_{i}, b); cannot run the fallback"
                )
            self._residuals[i] = StateVector(self.batch.layout.without(pair), right[0])
        return self._residuals[i]


def _analyze_case2(branches: ChainBranches, i: int, j: int,
                   decoded: np.ndarray) -> Case2Analysis:
    """Exactly resolve the fallback teleportation + decoding for source port i;
    ``decoded`` is branch i's own decoding distribution."""
    n, message = branches.n, branches.message
    d = 2**n
    batch = branches.batch
    residual = branches.residual(i)
    alice = residual.layout.without({port_label(j)})
    # row m, B_j's axis first: Alice's partner of |m> on B_j, times 2^(-n/2)
    omega = np.moveaxis(residual.tensorized(), residual.layout.axis(port_label(j)), 0)
    omega = omega.reshape(d, -1)
    schmidt_dev = float(np.max(np.abs(np.linalg.svd(omega, compute_uv=False) - 1 / np.sqrt(d))))
    # the generalized-Bell vectors V_t omega on (B_i, Alice's systems), every
    # outcome t at once, against the branch as a matrix with rows over them
    bell = (pauli_set(n) @ omega).reshape(4**n, -1)
    rows = (port_label(i),) + alice.labels + (port_label(j), "b")
    mat = batch.split(rows, i)[0].reshape(-1, d * d) / np.sqrt(batch.q[0, i])
    # the receiver's unnormalized state per outcome, over (B_j, b)
    heard = bell.conj() @ mat
    teleport_probs = (np.abs(heard) ** 2).sum(axis=1)
    kept = teleport_probs >= BRANCH_PRUNE
    bob_probs = np.zeros((4**n, 4**n))
    bob_probs[kept] = _decode(heard[kept, :, None], n) / teleport_probs[kept, None]
    leak = float(max(0.0, 1.0 - teleport_probs.sum()))
    success = float(teleport_probs @ bob_probs[:, message - 1])
    if leak > BRANCH_PRUNE:
        # the leak adds the rest of the branch's (B_j, b) marginal: with it,
        # the receiver decodes the whole marginal
        success = float(decoded[message - 1])
    return Case2Analysis(teleport_probs=teleport_probs, leak_prob=leak,
                         bob_probs=bob_probs, success=success, schmidt_deviation=schmidt_dev)


def analyze_chain(branches: ChainBranches, j: int) -> ChainAnalysis:
    """Exact conditional distribution tree of the chain to receiver port j."""
    n, batch, message = branches.n, branches.batch, branches.message
    big_n = batch.q.shape[1] - 1
    if not 1 <= j <= big_n:
        raise ValueError(f"receiver port {j} out of range [1, {big_n}]")
    q, present = batch.q[0], batch.present[0]
    # the receiver's decoding distribution of each branch that happens
    ks = np.flatnonzero(present)
    decoded = np.zeros((big_n + 1, 4**n))
    decoded[ks] = _decode(batch.split((port_label(j), "b"), ks)[0], n) / q[ks, None]
    case1 = decoded[j] if present[j] else None
    case0 = decoded[0] if present[0] else None
    case2 = {i: _analyze_case2(branches, i, j, decoded[i])
             for i in range(1, big_n + 1) if i != j and present[i]}
    r_j = float(case0[message - 1]) if present[0] else 0.0
    p_success = float(q[1:].sum())

    p_prime = 0.0
    if case1 is not None:
        p_prime += q[j] * float(case1[message - 1])
    for i, c2 in case2.items():
        p_prime += q[i] * c2.success
    p_prime += q[0] * r_j
    formula = float(q[j] + 4.0**-n * (p_success - q[j]) + (1.0 - p_success) * r_j)
    return ChainAnalysis(n=n, j=j, message=message, q=q, case1_probs=case1, case2=case2,
                         case0_probs=case0, r_j=r_j, p=p_success,
                         p_prime_simulated=p_prime, p_prime_formula=formula)


def run_chain_batch(analysis: ChainAnalysis, rounds: int, seed: int) -> np.ndarray:
    """Sample ``rounds`` rounds of the analysed chain: a ``(rounds, 2)``
    integer array of the sender's outcome k and the decoded message r.

    ``rounds`` must be at least 1 (``SampleCountError`` otherwise), and
    ``LayoutError`` is raised before anything is drawn if the sampler's
    arrays, ``ROUND_BYTES`` per round, exceed the memory budget.  Each
    (seed, message, port) draws from its own ``PCG64`` stream: every
    round's k at once, then per case one ``Generator.choice`` for r, or on a
    miss one for the fallback outcome t and one per t for r.
    """
    require_samples(rounds, "rounds")
    check_budget(f"the draws of {rounds} chain rounds", ROUND_BYTES * rounds)
    j = analysis.j
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, analysis.message, j))))

    def draw(weights: np.ndarray, size: int) -> np.ndarray:
        return rng.choice(len(weights), size=size, p=weights / weights.sum())

    k = draw(analysis.q, rounds)
    r = np.empty(rounds, dtype=np.intp)
    for case_k in np.unique(k).tolist():
        rows = np.flatnonzero(k == case_k)
        if case_k in (j, 0):
            probs = analysis.case1_probs if case_k == j else analysis.case0_probs
            r[rows] = draw(probs, rows.size)
            continue
        c2 = analysis.case2[case_k]
        t = draw(np.append(c2.teleport_probs, c2.leak_prob), rows.size)
        if np.any(t == len(c2.teleport_probs)):
            raise ChainPreconditionError("sampled the leak branch of an invalid chain")
        for tt in np.unique(t).tolist():
            r[rows[t == tt]] = draw(c2.bob_probs[tt], np.count_nonzero(t == tt))
    r += 1
    return np.column_stack((k, r))


# ---------------------------------------------------------------------------
# full report


@dataclass
class SignalingReport:
    """Exact chain audit over every receiver port, for one message."""

    n: int
    N: int
    message: int
    q: list[float]
    p: float
    ports: list[ChainAnalysis]
    R: float
    p_implied: float
    bound: Fraction
    audit: AuditReport

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "message": self.message,
            "q": self.q,
            "p": self.p,
            "ports": [port.to_dict() for port in self.ports],
            "R": self.R,
            "p_implied": self.p_implied,
            "bound": {"numerator": self.bound.numerator,
                      "denominator": self.bound.denominator,
                      "value": float(self.bound)},
            "audit": self.audit.to_dict(),
        }


def compute_chain_exact(primed: PrimedProtocol, message: int) -> SignalingReport:
    """Exact branch summation of the chain for every receiver port.

    Verifies: receiver success is exactly the random guess 4^-n for every
    port (and never below it), the three-case balance reproduces it, the
    miss case collectively contributes 4^-n (p - q_j), and the port sum
    lands back on the protocol's success probability.
    """
    branches = ChainBranches(primed, message)
    n, big_n = primed.base.n, primed.base.N
    guess = 4.0**-n
    audit = AuditReport(subject=f"no-signaling chain audit, message {message}")
    ports = []
    r_total = 0.0
    q = branches.batch.q[0]
    p_success = float(q[1:].sum())
    for j in range(1, big_n + 1):
        ana = analyze_chain(branches, j)
        ports.append(ana)
        r_total += ana.r_j
        audit.add(f"port {j}: receiver success equals the random guess", "NS",
                  abs(ana.p_prime_simulated - guess), EXACT_ATOL, port=j)
        audit.add(f"port {j}: receiver success never beats the guess from below", "NS",
                  guess - ana.p_prime_simulated, EXACT_ATOL, port=j)
        audit.add(f"port {j}: three-case balance reproduces the simulation", "Eq.6",
                  abs(ana.p_prime_simulated - ana.p_prime_formula), EXACT_ATOL, port=j)
        case2_total = sum(ana.q[i] * c.success for i, c in ana.case2.items())
        audit.add(f"port {j}: miss outcomes contribute 4^-n (p - q_j)", "Eq.6",
                  abs(case2_total - guess * (ana.p - ana.q[j])), EXACT_ATOL, port=j)
        for i, c in ana.case2.items():
            audit.add(
                f"port {j}: residual from port {i} is maximally entangled with B_{j}",
                "Eq.5", c.schmidt_deviation, 1e-8, source_port=i)
            audit.add(f"port {j}: fallback outcomes stay in the Bell family", "Eq.5",
                      c.leak_prob, EXACT_ATOL, source_port=i)
    implied = f_of_R(n, big_n, r_total)
    audit.add("port sum lands on p = f(R)", "Eq.6.5", abs(p_success - implied.value),
              EXACT_ATOL, R=r_total)
    b = bound(n, big_n)
    audit.add("success probability respects the bound", "Eq.2",
              p_success - float(b), BOUND_ATOL)
    return SignalingReport(n=n, N=big_n, message=message, q=q.tolist(), p=p_success,
                           ports=ports, R=r_total, p_implied=implied.value, bound=b,
                           audit=audit)


def monte_carlo_check(analysis: ChainAnalysis, rounds: int, seed: int) -> AuditReport:
    """Sampled cross-check of one analysed chain: empirical success within
    3 sigma of 4^-n.  ``rounds`` must be at least 1 (``SampleCountError``
    otherwise)."""
    decoded = run_chain_batch(analysis, rounds, seed)[:, 1]
    hits = int(np.count_nonzero(decoded == analysis.message))
    guess = 4.0**-analysis.n
    sigma = np.sqrt(guess * (1 - guess) / rounds)
    rep = AuditReport(subject=f"sampled chain cross-check, message {analysis.message}, "
                              f"port {analysis.j}", seed=seed)
    rep.add("empirical success within 3 sigma of the guess", "NS",
            abs(hits / rounds - guess), 3 * sigma, rounds=rounds, hits=hits)
    return rep
