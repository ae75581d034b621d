"""Exact simulation of port-based teleportation protocols.

A protocol is (n, N, resource state, POVM): the sender measures her input
qubit(s) together with her half of the resource, outcome ``k >= 1`` means the
input state now sits at port ``B_k`` on the receiver's side, outcome 0 means
failure.  This module computes measurement branches, per-port marginals, and
the two structural facts every valid protocol must satisfy: the mixture
decomposition of the untouched port marginal, and the input-independence of
success probabilities and residual states for perfectly teleporting
protocols.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import LayoutError, ProtocolError, SampleCountError
from .pauli import haar_states
from .report import AuditReport
from .tensor import (
    HermitianMatrix,
    StateVector,
    SystemLayout,
    check_memory_cap,
    fidelity,
    max_abs_diff,
    maximally_entangled,
    merge_subsystems,
    outer,
    permute_subsystems,
    reduced_density,
    schmidt_decompose,
    state_fidelity,
    tensor_product,
    _apply_matrix,
)

#: branches below this probability are "impossible": reported as 0, no state
BRANCH_PRUNE = 1e-12
#: residual extraction requires the receiving-port marginal to be this pure
PURITY_ATOL = 1e-8
#: POVM elements must be PSD / complete within this tolerance
POVM_ATOL = 1e-10

PROTOCOL_FORMAT_VERSION = "1"


def port_label(j: int) -> str:
    return f"B{j}"


@dataclass(frozen=True)
class PbtProtocol:
    """A port-based teleportation protocol instance.

    ``resource`` lives on layout (A, B1..BN) with every port of dimension 2^n;
    the POVM elements M_0..M_N live on (a, A), where a is the input system.
    """

    n: int
    N: int
    resource: StateVector
    povm: tuple[HermitianMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "povm", tuple(self.povm))
        self.validate()

    @property
    def port_dim(self) -> int:
        return 2**self.n

    @property
    def alice_dim(self) -> int:
        return self.resource.layout.dim("A")

    def global_layout(self) -> SystemLayout:
        return SystemLayout.of(("a", self.port_dim)).concat(self.resource.layout)

    @cached_property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """Measurement update maps sqrt(M_k), computed on first use (read-only)."""
        roots = tuple(sqrt_psd(m.entries) for m in self.povm)
        for root in roots:
            root.setflags(write=False)
        return roots

    def validate(self) -> None:
        """Raise ProtocolError naming the first violated invariant."""
        if self.n < 1 or self.N < 1:
            raise ProtocolError(f"need n >= 1 and N >= 1, got n={self.n}, N={self.N}")
        expected = ("A",) + tuple(port_label(j) for j in range(1, self.N + 1))
        if self.resource.layout.labels != expected:
            raise ProtocolError(
                f"resource layout {self.resource.layout.labels} != expected {expected}"
            )
        for j in range(1, self.N + 1):
            if self.resource.layout.dim(port_label(j)) != self.port_dim:
                raise ProtocolError(f"port {port_label(j)} dimension != 2^n = {self.port_dim}")
        if abs(self.resource.norm() - 1.0) > 1e-10:
            raise ProtocolError("resource state is not normalized")
        if len(self.povm) != self.N + 1:
            raise ProtocolError(f"POVM needs N+1 = {self.N + 1} elements, got {len(self.povm)}")
        d = self.port_dim * self.alice_dim
        total = np.zeros((d, d), dtype=np.complex128)
        for k, m in enumerate(self.povm):
            if m.layout.labels != ("a", "A") or m.dim != d:
                raise ProtocolError(f"POVM element {k} must live on (a, A) with dimension {d}")
            lowest = m.min_eigenvalue()
            if lowest < -POVM_ATOL:
                raise ProtocolError(
                    f"POVM element {k} is not PSD: min eigenvalue {lowest:.3e}"
                )
            total += m.entries
        dev = float(np.max(np.abs(total - np.eye(d))))
        if dev > POVM_ATOL:
            raise ProtocolError(f"POVM completeness violated: max deviation {dev:.3e}")
        check_memory_cap(self.global_layout())


@dataclass(frozen=True)
class MeasurementBranch:
    """Outcome k with its probability and the normalized post-measurement state."""

    k: int
    probability: float
    post_state: Optional[StateVector]


@dataclass(frozen=True)
class PortMarginals:
    """States of port B_j as seen before/after the sender's measurement.

    ``eta`` is the marginal of the resource alone; ``gamma[i]`` the marginal
    after outcome i (teleportation to a different port); ``omega`` the
    marginal after failure, absent when the failure branch has no weight.
    """

    j: int
    eta: HermitianMatrix
    gamma: dict[int, HermitianMatrix]
    omega: Optional[HermitianMatrix]


def _as_input_state(psi: StateVector, n: int) -> StateVector:
    if psi.dim != 2**n:
        raise LayoutError(f"input state dimension {psi.dim} != 2^n = {2 ** n}")
    if len(psi.layout) != 1:
        raise LayoutError("input state must be a single subsystem")
    if psi.layout.labels != ("a",):
        return StateVector(SystemLayout.of(("a", psi.dim)), psi.amplitudes,
                           normalized=psi.normalized)
    return psi


def sqrt_psd(mat: np.ndarray, clip_atol: float = POVM_ATOL) -> np.ndarray:
    """Hermitian square root via eigendecomposition; small negatives are clipped."""
    w, v = np.linalg.eigh(mat)
    if w[0] < -clip_atol:
        raise ProtocolError(f"operator is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def povm_branches(state: StateVector, roots: Sequence[np.ndarray],
                  targets: Sequence[str]) -> list[MeasurementBranch]:
    """Generalized measurement on the target subsystems of a pure state.

    Returns one branch per update map, normally the Hermitian roots
    ``PbtProtocol.kraus``.  Branches with probability below BRANCH_PRUNE get
    probability 0 and no state.
    """
    axes = [state.layout.axis(lbl) for lbl in targets]
    dims = state.layout.dims
    out: list[MeasurementBranch] = []
    for k, root in enumerate(roots):
        arr = _apply_matrix(state.tensorized(), dims, axes, root).reshape(-1)
        prob = float(np.vdot(arr, arr).real)
        if prob < BRANCH_PRUNE:
            out.append(MeasurementBranch(k, 0.0, None))
        else:
            post = StateVector(state.layout, arr / np.sqrt(prob))
            out.append(MeasurementBranch(k, prob, post))
    return out


def build_global_state(psi: StateVector, proto: PbtProtocol) -> StateVector:
    """Input tensored with the resource: the joint state before measurement."""
    psi = _as_input_state(psi, proto.n)
    return tensor_product([psi, proto.resource])


def measure(proto: PbtProtocol, psi: StateVector) -> list[MeasurementBranch]:
    """All measurement branches of one protocol run on input psi."""
    return povm_branches(build_global_state(psi, proto), proto.kraus, ("a", "A"))


def branch_probabilities(proto: PbtProtocol, psi: StateVector) -> np.ndarray:
    return np.array([b.probability for b in measure(proto, psi)])


def success_probability(branches: Sequence[MeasurementBranch]) -> float:
    return float(sum(b.probability for b in branches if b.k >= 1))


def teleport_report(branch: MeasurementBranch, psi: StateVector,
                    proto: PbtProtocol) -> tuple[float, Optional[StateVector]]:
    """Teleportation fidelity at port k, and the residual state when it exists.

    The residual (everything except the receiving port) is extracted only
    when the port marginal is pure within PURITY_ATOL, i.e. when the branch
    actually factorizes as (teleported state) x (residual).
    """
    if branch.k < 1:
        raise ValueError("teleport_report needs a success branch (k >= 1)")
    if branch.post_state is None:
        raise ValueError(f"branch {branch.k} has no post state (probability 0)")
    psi = _as_input_state(psi, proto.n)
    port = port_label(branch.k)
    rho_port = reduced_density(branch.post_state, {port})
    fid = fidelity(psi, rho_port)
    purity = float(np.trace(rho_port.entries @ rho_port.entries).real)
    residual = None
    if 1.0 - purity <= PURITY_ATOL:
        _, _, right = schmidt_decompose(branch.post_state, {port})
        residual = right[0]
    return fid, residual


def marginals_from_branches(resource: StateVector,
                            branches: Sequence[MeasurementBranch], j: int) -> PortMarginals:
    """Marginals of port B_j: of the pre-measurement ``resource``, per miss
    outcome, and on failure, read off already computed ``branches``."""
    big_n = len(branches) - 1
    if not 1 <= j <= big_n:
        raise LayoutError(f"port index {j} out of range [1, {big_n}]")
    port = {port_label(j)}
    gamma = {i: reduced_density(branches[i].post_state, port)
             for i in range(1, big_n + 1)
             if i != j and branches[i].post_state is not None}
    omega = None
    if branches[0].post_state is not None:
        omega = reduced_density(branches[0].post_state, port)
    return PortMarginals(j=j, eta=reduced_density(resource, port), gamma=gamma, omega=omega)


def port_marginals(proto: PbtProtocol, psi: StateVector, j: int) -> PortMarginals:
    """Marginals of port B_j: before measurement, per miss outcome, and on failure."""
    return marginals_from_branches(proto.resource, measure(proto, psi), j)


def verify_port_decomposition(proto: PbtProtocol, psi: StateVector, j: int,
                              tolerance: float = 1e-10) -> AuditReport:
    """Check the port-marginal mixture identity for port j on input psi."""
    psi = _as_input_state(psi, proto.n)
    branches = measure(proto, psi)
    marg = marginals_from_branches(proto.resource, branches, j)
    mix = branches[j].probability * outer(psi).entries
    for i, gam in marg.gamma.items():
        mix = mix + branches[i].probability * gam.entries
    if marg.omega is not None:
        mix = mix + branches[0].probability * marg.omega.entries
    residual = float(np.max(np.abs(marg.eta.entries - mix)))
    rep = AuditReport(subject=f"port marginal decomposition, port {j}")
    rep.add("eta_j equals success/miss/failure mixture", "Eq.3", residual, tolerance,
            port=j, q=[b.probability for b in branches])
    return rep


def require_samples(samples: int, name: str = "samples") -> None:
    """Raise ``SampleCountError``, naming the count, unless it is at least 1."""
    if samples < 1:
        raise SampleCountError(f"{name} must be at least 1, got {samples}")


def constancy_deviations(q_rows: Sequence[np.ndarray],
                         residuals: dict[int, list[StateVector]]) -> tuple[float, float]:
    """How far per-input results drift: the largest spread of one outcome
    probability across the rows of ``q_rows``, and the largest infidelity
    between an outcome's residual states and its first one."""
    q_matrix = np.vstack(q_rows)
    spread = float(np.max(q_matrix.max(axis=0) - q_matrix.min(axis=0)))
    worst = 0.0
    for states in residuals.values():
        for other in states[1:]:
            worst = max(worst, 1.0 - state_fidelity(states[0], other))
    return spread, worst


def verify_psi_independence(proto: PbtProtocol, sample_count: int, seed: int,
                            q_tolerance: float = 1e-10,
                            fid_tolerance: float = 1e-10) -> AuditReport:
    """Check that success probabilities and residual states do not depend on the input.

    Applies only to perfectly teleporting protocols; the perfection
    precondition is checked first and a failing protocol is reported as
    out of scope rather than asserted against.  The failure-branch port
    marginal is allowed to vary: its spread is reported, never asserted.
    ``sample_count`` must be at least 1 (``SampleCountError`` otherwise).
    """
    require_samples(sample_count)
    rep = AuditReport(subject="input independence of success branches", seed=seed)
    samples = haar_states(proto.port_dim, sample_count, seed)
    qs: list[np.ndarray] = []
    residuals: dict[int, list[StateVector]] = {k: [] for k in range(1, proto.N + 1)}
    omegas: dict[int, list[HermitianMatrix]] = {j: [] for j in range(1, proto.N + 1)}
    for psi in samples:
        branches = measure(proto, psi)
        qs.append(np.array([b.probability for b in branches]))
        for k in range(1, proto.N + 1):
            if branches[k].post_state is None:
                continue
            fid, residual = teleport_report(branches[k], psi, proto)
            if fid < 1.0 - PURITY_ATOL or residual is None:
                rep.preconditions_met = False
                rep.note = "not a perfect-PBT protocol; input independence not applicable"
                rep.add_flag("perfect teleportation precondition", "Eq.8", False,
                             k=k, fidelity=fid)
                return rep
            residuals[k].append(residual)
        if branches[0].post_state is not None:
            for j in range(1, proto.N + 1):
                omegas[j].append(reduced_density(branches[0].post_state, {port_label(j)}))
    spread, worst = constancy_deviations(qs, residuals)
    rep.add("outcome probabilities constant across inputs", "Lemma", spread, q_tolerance,
            samples=sample_count)
    rep.add("residual states constant across inputs", "Lemma", worst, fid_tolerance)
    omega_spread = 0.0
    for j, mats in omegas.items():
        for idx in range(1, len(mats)):
            omega_spread = max(omega_spread, max_abs_diff(mats[0], mats[idx]))
    rep.add_flag("failure-branch port marginal varies with input (informational)",
                 "Eq.8.9", True, spread=omega_spread)
    return rep


def bell_pbt_protocol(N: int) -> PbtProtocol:
    """Reference protocol: N shared qubit pairs, project (a, A1) onto one
    maximally entangled vector to teleport onto port 1.

    Perfect single-qubit PBT with success probability 1/4 for every N.
    """
    if N < 1:
        raise ValueError(f"need at least one port, got N={N}")
    pairs = [maximally_entangled((f"A{j}", 2), (port_label(j), 2)) for j in range(1, N + 1)]
    resource = tensor_product(pairs)
    order = [f"A{j}" for j in range(1, N + 1)] + [port_label(j) for j in range(1, N + 1)]
    resource = permute_subsystems(resource, order)
    resource = merge_subsystems(resource, [f"A{j}" for j in range(1, N + 1)], "A")
    dim_a_alice = 2 * 2**N
    povm_layout = SystemLayout.of(("a", 2), ("A", 2**N))
    phi = maximally_entangled(("a", 2), ("A1", 2))
    bell_proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
    m1 = np.kron(bell_proj, np.eye(2 ** (N - 1), dtype=np.complex128))
    zero = np.zeros((dim_a_alice, dim_a_alice), dtype=np.complex128)
    povm = [HermitianMatrix(povm_layout, np.eye(dim_a_alice) - m1),
            HermitianMatrix(povm_layout, m1)]
    povm += [HermitianMatrix(povm_layout, zero) for _ in range(2, N + 1)]
    return PbtProtocol(n=1, N=N, resource=resource, povm=tuple(povm))


# ---------------------------------------------------------------------------
# serialization: complex numbers as [re, im] pairs, matrices row-major


def complex_pairs(arr: np.ndarray) -> list[list[float]]:
    flat = np.asarray(arr).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def from_complex_pairs(pairs, field: str) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"field {field!r}: expected a list of [re, im] pairs") from exc


def protocol_to_dict(proto: PbtProtocol) -> dict:
    return {
        "version": PROTOCOL_FORMAT_VERSION,
        "kind": "pbt-protocol",
        "n": proto.n,
        "N": proto.N,
        "dims": {"a": proto.port_dim, "A": proto.alice_dim, "B": proto.port_dim},
        "resource": complex_pairs(proto.resource.amplitudes),
        "povm": [complex_pairs(m.entries) for m in proto.povm],
    }


def protocol_from_dict(doc: dict) -> PbtProtocol:
    for field in ("n", "N", "dims", "resource", "povm"):
        if field not in doc:
            raise ProtocolError(f"protocol document is missing field {field!r}")
    n, big_n = int(doc["n"]), int(doc["N"])
    dims = doc["dims"]
    for field in ("a", "A", "B"):
        if field not in dims:
            raise ProtocolError(f"protocol field 'dims' is missing entry {field!r}")
    dim_alice = int(dims["A"])
    layout = SystemLayout(
        (("A", dim_alice),) + tuple((port_label(j), 2**n) for j in range(1, big_n + 1))
    )
    resource = StateVector(layout, from_complex_pairs(doc["resource"], "resource"))
    d = 2**n * dim_alice
    povm_layout = SystemLayout.of(("a", 2**n), ("A", dim_alice))
    povm = []
    for k, mat in enumerate(doc["povm"]):
        flat = from_complex_pairs(mat, f"povm[{k}]")
        if flat.size != d * d:
            raise ProtocolError(f"field 'povm[{k}]': expected {d * d} entries, got {flat.size}")
        povm.append(HermitianMatrix(povm_layout, flat.reshape(d, d)))
    return PbtProtocol(n=n, N=big_n, resource=resource, povm=tuple(povm))


def save_protocol(proto: PbtProtocol, path) -> None:
    with open(path, "w") as fh:
        json.dump(protocol_to_dict(proto), fh, sort_keys=True)
        fh.write("\n")


def load_protocol(path) -> PbtProtocol:
    with open(path) as fh:
        return protocol_from_dict(json.load(fh))
