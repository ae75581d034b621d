"""Twirl-augmented ("primed") protocols: force maximally mixed port marginals.

Given any protocol, prepare a 4^n-dimensional control ancilla a' in a uniform
superposition and, controlled on its basis state l, conjugate every port of
the resource by the Pauli V_l.  The sender compensates by applying V_l^dag to
her input, controlled on the same ancilla.  Success probabilities and
teleportation quality are untouched, but the port marginal before measurement
and after any miss outcome become exactly I/2^n: the Pauli average of any
state.  The failure marginal becomes the Pauli average of the base failure
marginals over rotated inputs, checked here term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    MeasurementBranch,
    PbtProtocol,
    PortMarginals,
    marginals_from_branches,
    measure,
    port_label,
    povm_branches,
    protocol_to_dict,
    protocol_from_dict,
    teleport_report,
)
from .errors import ProtocolError
from .pauli import PauliIndex, pauli_element
from .report import AuditReport
from .tensor import (
    StateVector,
    SystemLayout,
    apply_on_subsystems,
    check_memory_cap,
    fidelity,
    outer,
    reduced_density,
    tensor_product,
)

ANCILLA_LABEL = "ap"


@dataclass(frozen=True)
class PrimedProtocol:
    """A base protocol plus its twirl layer: control ancilla state, twirled
    resource, and the compensating input-side controlled unitary."""

    base: PbtProtocol
    primed_resource: StateVector
    w: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.w, dtype=np.complex128))
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        n = self.base.n
        expected = (ANCILLA_LABEL, "A") + tuple(
            port_label(j) for j in range(1, self.base.N + 1))
        if self.primed_resource.layout.labels != expected:
            raise ProtocolError(
                f"primed resource layout {self.primed_resource.layout.labels} != {expected}"
            )
        if self.primed_resource.layout.dim(ANCILLA_LABEL) != 4**n:
            raise ProtocolError(f"control ancilla dimension must be 4^n = {4 ** n}")
        d = 2**n * 4**n
        if w.shape != (d, d) or np.max(np.abs(w.conj().T @ w - np.eye(d))) > 1e-10:
            raise ProtocolError("input-side controlled unitary is not unitary on (a, a')")

    @property
    def ancilla_dim(self) -> int:
        return 4**self.base.n

    def global_layout(self) -> SystemLayout:
        return SystemLayout.of(("a", self.base.port_dim)).concat(
            self.primed_resource.layout)


def _port_paulis(n: int, big_n: int, l: int) -> np.ndarray:
    """V_l applied to every port, as one matrix over (B1..BN)."""
    v = pauli_element(PauliIndex(l, n))
    out = np.array([[1.0 + 0j]])
    for _ in range(big_n):
        out = np.kron(out, v)
    return out


def control_port_pauli(n: int, big_n: int) -> np.ndarray:
    """sum_l |mu_l><mu_l|_{a'} x (V_l x ... x V_l)_{ports}, over (a', B1..BN)."""
    anc = 4**n
    ports_dim = (2**n) ** big_n
    out = np.zeros((anc * ports_dim, anc * ports_dim), dtype=np.complex128)
    for l in range(1, anc + 1):
        sel = np.zeros((anc, anc))
        sel[l - 1, l - 1] = 1.0
        out += np.kron(sel, _port_paulis(n, big_n, l))
    return out


def input_side_unitary(n: int) -> np.ndarray:
    """W = sum_l (V_l^dag)_a x (|mu_l><mu_l|)_{a'}, over (a, a')."""
    anc = 4**n
    d = 2**n
    out = np.zeros((d * anc, d * anc), dtype=np.complex128)
    for l in range(1, anc + 1):
        sel = np.zeros((anc, anc))
        sel[l - 1, l - 1] = 1.0
        out += np.kron(pauli_element(PauliIndex(l, n)).conj().T, sel)
    return out


def build_primed(base: PbtProtocol) -> PrimedProtocol:
    """Construct the twirl layer for a base protocol."""
    n, big_n = base.n, base.N
    anc = 4**n
    layout = SystemLayout.of((ANCILLA_LABEL, anc)).concat(base.resource.layout)
    check_memory_cap(SystemLayout.of(("a", 2**n)).concat(layout))
    port_names = [port_label(j) for j in range(1, big_n + 1)]
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    block = base.resource.layout.total_dim
    for l in range(1, anc + 1):
        v = pauli_element(PauliIndex(l, n))
        rotated = base.resource
        for name in port_names:
            rotated = apply_on_subsystems(rotated, v, [name])
        amps[(l - 1) * block : l * block] = rotated.amplitudes / 2**n
    resource = StateVector(layout, amps)
    return PrimedProtocol(base=base, primed_resource=resource, w=input_side_unitary(n))


def primed_global_state(p: PrimedProtocol, psi: StateVector) -> StateVector:
    """Input x primed resource, with the compensating unitary applied on (a, a')."""
    if psi.dim != p.base.port_dim:
        raise ProtocolError(f"input dimension {psi.dim} != 2^n = {p.base.port_dim}")
    psi_a = StateVector(SystemLayout.of(("a", psi.dim)), psi.amplitudes)
    state = tensor_product([psi_a, p.primed_resource])
    return apply_on_subsystems(state, p.w, ["a", ANCILLA_LABEL])


def run_primed(p: PrimedProtocol, psi: StateVector) -> list[MeasurementBranch]:
    """Measurement branches of the primed protocol (base POVM on (a, A) only)."""
    return povm_branches(primed_global_state(p, psi), p.base.kraus, ("a", "A"))


def primed_port_marginals(p: PrimedProtocol, psi: StateVector, j: int) -> PortMarginals:
    """Marginals of port B_j in the primed protocol."""
    return marginals_from_branches(p.primed_resource, run_primed(p, psi), j)


def _perfection_gap(base: PbtProtocol, probe: StateVector,
                    branches: Sequence[MeasurementBranch]) -> float:
    worst = 1.0
    for b in branches[1:]:
        if b.post_state is None:
            continue
        fid, _ = teleport_report(b, probe, base)
        worst = min(worst, fid)
    return 1.0 - worst


def verify_eq5(p: PrimedProtocol, psi_samples: Sequence[StateVector],
               marginal_tolerance: float = 1e-10,
               probability_tolerance: float = 1e-12) -> AuditReport:
    """Check the primed protocol's defining claims on the given input states:
    maximally mixed pre-measurement and miss marginals, unchanged outcome
    probabilities, perfect delivery at the announced port, and the mixture
    identity that pins down the failure marginal."""
    rep = AuditReport(subject="twirled protocol marginals")
    n, big_n = p.base.n, p.base.N
    d = 2**n
    mixed = np.eye(d) / d

    eta_dev = 0.0
    for j in range(1, big_n + 1):
        eta = reduced_density(p.primed_resource, {port_label(j)})
        eta_dev = max(eta_dev, float(np.max(np.abs(eta.entries - mixed))))
    rep.add("pre-measurement port marginals maximally mixed", "Eq.b4", eta_dev,
            marginal_tolerance)

    gamma_dev = 0.0
    gamma_terms = 0
    prob_dev = 0.0
    fid_dev = 0.0
    eq11_dev = 0.0
    for psi in psi_samples:
        base_branches = measure(p.base, psi)
        gap = _perfection_gap(p.base, psi, base_branches)
        if gap > 1e-8:
            rep.preconditions_met = False
            rep.note = "base protocol does not teleport perfectly; claims not applicable"
            rep.add_flag("base protocol teleports perfectly", "Eq.8", False,
                         worst_fidelity=1.0 - gap)
            return rep
        base_q = np.array([b.probability for b in base_branches])
        branches = run_primed(p, psi)
        primed_q = np.array([b.probability for b in branches])
        prob_dev = max(prob_dev, float(np.max(np.abs(primed_q - base_q))))
        for j in range(1, big_n + 1):
            if branches[j].post_state is not None:
                rho_port = reduced_density(branches[j].post_state, {port_label(j)})
                fid_dev = max(fid_dev, 1.0 - fidelity(psi, rho_port))
            marg = marginals_from_branches(p.primed_resource, branches, j)
            for i, gam in marg.gamma.items():
                gamma_terms += 1
                gamma_dev = max(gamma_dev, float(np.max(np.abs(gam.entries - mixed))))
            mix = primed_q[j] * outer(psi).entries
            for i in marg.gamma:
                mix = mix + primed_q[i] * mixed
            if marg.omega is not None:
                mix = mix + branches[0].probability * marg.omega.entries
            eq11_dev = max(eq11_dev, float(np.max(np.abs(mixed - mix))))
    check = rep.add("miss-outcome port marginals maximally mixed", "Eq.b7", gamma_dev,
                    marginal_tolerance, terms=gamma_terms)
    if gamma_terms == 0:
        check.details["note"] = "no gamma terms (single port or unused outcomes)"
    rep.add("outcome probabilities preserved by the twirl layer", "Eq.b6", prob_dev,
            probability_tolerance)
    rep.add("input delivered at the announced port", "Eq.b6", fid_dev, 1e-10)
    rep.add("maximally mixed marginal decomposes over outcomes", "Eq.11", eq11_dev,
            marginal_tolerance)
    return rep


def verify_failure_marginal_twirl(p: PrimedProtocol, psi: StateVector, j: int,
                                  tolerance: float = 1e-10) -> AuditReport:
    """Term-by-term check of the failure marginal against base runs on rotated inputs.

    Conditioned on ancilla value l, the primed failure marginal at B_j must be
    V_l (base failure marginal for input V_l^dag psi) V_l^dag, each ancilla
    value carrying weight 4^-n; the aggregate is their average.
    """
    rep = AuditReport(subject=f"failure marginal twirl decomposition, port {j}")
    n = p.base.n
    anc = p.ancilla_dim
    psi_a = StateVector(SystemLayout.of(("a", psi.dim)), psi.amplitudes)
    branches = run_primed(p, psi)
    if branches[0].post_state is None:
        rep.add_flag("failure branch present", "Eq.b8", False)
        rep.preconditions_met = False
        rep.note = "protocol never fails on this input; twirl decomposition not applicable"
        return rep
    fail = branches[0].post_state
    lay = fail.layout
    anc_axis = lay.axis(ANCILLA_LABEL)
    tens = np.moveaxis(fail.tensorized(), anc_axis, 0)

    term_dev = 0.0
    weight_dev = 0.0
    agg = np.zeros((2**n, 2**n), dtype=np.complex128)
    expected_agg = np.zeros_like(agg)
    for l in range(1, anc + 1):
        v = pauli_element(PauliIndex(l, n))
        component = tens[l - 1].reshape(-1)
        weight = float(np.vdot(component, component).real)
        weight_dev = max(weight_dev, abs(weight - 1.0 / anc))
        cond = StateVector(lay.without({ANCILLA_LABEL}), component / np.sqrt(weight))
        rho_l = reduced_density(cond, {port_label(j)}).entries
        agg += weight * rho_l
        rotated_in = apply_on_subsystems(psi_a, v.conj().T, ["a"])
        base_fail = measure(p.base, rotated_in)[0].post_state
        omega_l = reduced_density(base_fail, {port_label(j)}).entries
        expected_l = v @ omega_l @ v.conj().T
        expected_agg += expected_l / anc
        term_dev = max(term_dev, float(np.max(np.abs(rho_l - expected_l))))
    rep.add("per-ancilla-value failure marginal matches rotated base run", "Eq.b9",
            term_dev, tolerance, terms=anc)
    rep.add("ancilla values carry uniform weight", "Eq.b8", weight_dev, tolerance)
    rep.add("aggregate failure marginal is the Pauli average", "Eq.b9",
            float(np.max(np.abs(agg - expected_agg))), tolerance)
    return rep


def commutation_witness(p: PrimedProtocol, psi: StateVector) -> AuditReport:
    """Port-side controlled Paulis before vs after the sender's measurement.

    The two orders must produce identical branch probabilities and identical
    post states: the port operations commute with everything the sender does.
    """
    rep = AuditReport(subject="port operations commute with the sender's measurement")
    base = p.base
    n, big_n = base.n, base.N
    psi_a = StateVector(SystemLayout.of(("a", psi.dim)), psi.amplitudes)
    uniform = StateVector(SystemLayout.of((ANCILLA_LABEL, p.ancilla_dim)),
                          np.full(p.ancilla_dim, 1.0 / 2**n, dtype=np.complex128))
    start = tensor_product([psi_a, uniform, base.resource])
    start = apply_on_subsystems(start, p.w, ["a", ANCILLA_LABEL])
    cv = control_port_pauli(n, big_n)
    port_names = [port_label(j) for j in range(1, big_n + 1)]

    before = run_primed(p, psi)
    after = povm_branches(start, base.kraus, ("a", "A"))
    prob_dev = 0.0
    state_dev = 0.0
    for k, branch in enumerate(after):
        prob_dev = max(prob_dev, abs(branch.probability - before[k].probability))
        if branch.post_state is None or before[k].post_state is None:
            continue
        twirled = apply_on_subsystems(branch.post_state, cv, [ANCILLA_LABEL] + port_names)
        state_dev = max(state_dev,
                        float(np.max(np.abs(twirled.amplitudes
                                            - before[k].post_state.amplitudes))))
    rep.add("branch probabilities agree across orders", "Eq.b5", prob_dev, 1e-12)
    rep.add("branch states agree across orders", "Eq.b5", state_dev, 1e-12)
    return rep


# ---------------------------------------------------------------------------
# serialization: base-protocol document plus a primed flag and ancilla metadata


def primed_to_dict(p: PrimedProtocol) -> dict:
    doc = protocol_to_dict(p.base)
    doc["primed"] = True
    doc["ancilla"] = {"label": ANCILLA_LABEL, "dim": p.ancilla_dim}
    return doc


def primed_from_dict(doc: dict) -> PrimedProtocol:
    if not doc.get("primed"):
        raise ProtocolError("document does not carry the 'primed' flag")
    return build_primed(protocol_from_dict(doc))
