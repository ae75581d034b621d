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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .branches import BranchBatch, input_chunks, povm_branches, require_width
from .engine import (
    PbtProtocol,
    checked_port,
    measure,
    port_label,
    port_table,
    protocol_to_dict,
    protocol_from_dict,
    teleport_report,
)
from .errors import ProtocolError
from .pauli import haar_states, pauli_set
from .report import AuditReport
from .tensor import StateVector, SystemLayout, check_budget, reduced_density

ANCILLA_LABEL = "ap"


@dataclass(frozen=True)
class PrimedProtocol:
    """A base protocol plus its twirl layer, derived from the base on
    construction: ``primed_resource``, the resource on (a', A, B1..BN) with
    the control ancilla a' in uniform superposition and every port twirled,
    and ``w``, the compensating input-side controlled unitary on (a, a')
    (read-only).  ``LayoutError`` before anything is built if the chain's
    branches exceed the memory budget (``check_chain_bytes``)."""

    base: PbtProtocol
    primed_resource: StateVector = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base, n = self.base, self.base.n
        check_chain_bytes(n, base.N, base.alice_dim)
        layout = SystemLayout.of((ANCILLA_LABEL, 4**n)).concat(base.resource.layout)
        uniform = np.full((4**n, 1), 2.0**-n) * base.resource.amplitudes
        amps = _twirl_ports(uniform.reshape(layout.dims), layout, n, base.N)
        object.__setattr__(self, "primed_resource", StateVector(layout, amps))
        w = input_side_unitary(n)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def ancilla_dim(self) -> int:
        return 4**self.base.n

    @cached_property
    def chain_probe_report(self) -> AuditReport:
        """``verify_eq5`` on two seed-0 Haar probes, run once: the chain's precondition."""
        return verify_eq5(self, haar_states(self.base.port_dim, 2, 0))

    def global_layout(self) -> SystemLayout:
        return SystemLayout.of(("a", self.base.port_dim)).concat(
            self.primed_resource.layout)


def check_chain_bytes(n: int, N: int, alice_dim: int) -> None:
    """``LayoutError`` unless the no-signaling chain's branches fit the memory
    budget: N + 1 complex vectors over the encoded pair (a, b), the control
    ancilla a' and the base resource (A, B1..BN), the largest array a twirled
    protocol of this shape runs into."""
    check_budget(f"the chain's branches at n={n}, N={N}",
                 16 * (N + 1) * 16**n * alice_dim * 2 ** (n * N))


def _twirl_ports(amps: np.ndarray, layout: SystemLayout, n: int, big_n: int) -> np.ndarray:
    """V_l on every port of the part of ``amps`` (tensorized over ``layout``
    after any batch axes) where the control ancilla reads l."""
    lead, paulis = amps.ndim - len(layout), pauli_set(n)
    for j in range(1, big_n + 1):
        axes = (lead + layout.axis(ANCILLA_LABEL), lead + layout.axis(port_label(j)))
        t = np.moveaxis(amps, axes, (-2, -1))
        amps = np.moveaxis(np.einsum("lij,...lj->...li", paulis, t), (-2, -1), axes)
    return amps


def input_side_unitary(n: int) -> np.ndarray:
    """W = sum_l (V_l^dag)_a x (|mu_l><mu_l|)_{a'}, over (a, a')."""
    w = np.zeros((2**n, 4**n, 2**n, 4**n), dtype=np.complex128)
    for l, v in enumerate(pauli_set(n)):
        w[:, l, :, l] = v.conj().T + 0.0  # -0.0 -> 0.0, as a sum of Kronecker terms gives
    return w.reshape(2**n * 4**n, -1)


def build_primed(base: PbtProtocol) -> PrimedProtocol:
    """Construct the twirl layer for a base protocol."""
    return PrimedProtocol(base)


def run_primed(p: PrimedProtocol, inputs: np.ndarray) -> BranchBatch:
    """Measurement branches of the primed protocol (base POVM on (a, A) only)
    on each row of ``inputs``, after the compensating unitary on (a, a')
    (``LayoutError`` unless each row has 2^n amplitudes)."""
    require_width(inputs, p.base.port_dim)
    states = inputs[:, :, None] * p.primed_resource.amplitudes
    states = p.w @ states.reshape(len(inputs), p.base.port_dim * p.ancilla_dim, -1)
    return povm_branches(states, p.global_layout(), p.base.kraus, ("a", "A"))


def primed_port_marginals(p: PrimedProtocol, inputs: np.ndarray, j: int) -> np.ndarray:
    """The state of port B_j in every branch of the primed protocol on each
    row of ``inputs``, (inputs, N + 1, d, d), 0 where a branch is pruned."""
    batch = run_primed(p, inputs)
    return batch.normalized(batch.marginals(checked_port(j, p.base.N)))


def verify_eq5(p: PrimedProtocol, psi_samples: Sequence[StateVector],
               marginal_tolerance: float = 1e-10,
               probability_tolerance: float = 1e-12) -> AuditReport:
    """Check the primed protocol's defining claims on the given input states:
    maximally mixed pre-measurement and miss marginals, unchanged outcome
    probabilities, perfect delivery at the announced port, and the mixture
    identity that pins down the failure marginal."""
    rep = AuditReport(subject="twirled protocol marginals")
    big_n, d = p.base.N, p.base.port_dim
    mixed = np.eye(d) / d

    etas = [reduced_density(p.primed_resource, {port_label(j)}) for j in range(1, big_n + 1)]
    eta_dev = max(float(np.max(np.abs(eta.entries - mixed))) for eta in etas)
    rep.add("pre-measurement port marginals maximally mixed", "Eq.b4", eta_dev,
            marginal_tolerance)

    gamma_dev = prob_dev = fid_dev = eq11_dev = 0.0
    gamma_terms = 0
    inputs = np.array([psi.amplitudes for psi in psi_samples])
    for part in input_chunks(inputs, (big_n + 1) * p.global_layout().total_dim):
        base = measure(p.base, part)
        gap = 1.0 - np.min(teleport_report(base, part)[0], axis=1, where=base.present[:, 1:],
                           initial=1.0)
        if np.any(gap > 1e-8):
            return rep.not_applicable(
                "base protocol does not teleport perfectly; claims not applicable",
                "base protocol teleports perfectly", "Eq.8",
                worst_fidelity=1.0 - float(gap[np.argmax(gap > 1e-8)]))
        primed = run_primed(p, part)
        ports, fid = port_table(primed), teleport_report(primed, part)[0]
        prob_dev = max(prob_dev, float(np.max(np.abs(primed.q - base.q))))
        fid_dev = max(fid_dev, float(np.max(1.0 - fid, where=primed.present[:, 1:],
                                            initial=0.0)))
        # miss[s, i - 1, j - 1]: outcome i >= 1 happened, and it is not port j's own
        miss = primed.present[:, 1:, None] & ~np.eye(big_n, dtype=bool)
        gamma = np.abs(primed.normalized(ports)[:, 1:] - mixed).max(axis=(3, 4))
        gamma_dev = max(gamma_dev, float(np.max(gamma, where=miss, initial=0.0)))
        gamma_terms += int(miss.sum())
        proj = part[:, None, :, None] * part.conj()[:, None, None, :]
        mix = (primed.q[:, 1:, None, None] * proj + ports[:, 0]
               + np.einsum("sij,si->sj", miss, primed.q[:, 1:])[:, :, None, None] * mixed)
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


def verify_failure_marginal_twirl(p: PrimedProtocol, psi: StateVector,
                                  tolerance: float = 1e-10) -> list[AuditReport]:
    """Term-by-term check of the failure marginal against base runs on rotated
    inputs: one report per port B_j, j = 1..N.

    Conditioned on ancilla value l, the primed failure marginal at B_j must be
    V_l (base failure marginal for input V_l^dag psi) V_l^dag, each ancilla
    value carrying weight 4^-n; the aggregate is their average.  One twirled
    run of psi and one batch of the 4^n rotated base runs serve every port.
    """
    reports = [AuditReport(subject=f"failure marginal twirl decomposition, port {j}")
               for j in range(1, p.base.N + 1)]
    anc = p.ancilla_dim
    branches = run_primed(p, psi.amplitudes[None])
    if not branches.present[0, 0]:
        return [rep.not_applicable(
            "protocol never fails on this input; twirl decomposition not applicable",
            "failure branch present", "Eq.b8") for rep in reports]
    # the normalized failure branch, split by ancilla value into one state each
    lay = p.global_layout()
    fail = np.moveaxis(branches.amplitudes[0, 0].reshape(lay.dims), lay.axis(ANCILLA_LABEL), 0)
    per_l = BranchBatch.of(lay.without({ANCILLA_LABEL}),
                           fail.reshape(anc, 1, -1) / np.sqrt(branches.q[0, 0]))
    weights = per_l.q[:, 0]
    paulis = pauli_set(p.base.n)
    rotated = measure(p.base, paulis.conj().swapaxes(1, 2) @ psi.amplitudes)
    for j, rep in enumerate(reports, start=1):
        rho = per_l.normalized(per_l.marginals(port_label(j), 0), 0)
        omega = rotated.normalized(rotated.marginals(port_label(j), 0), 0)
        expected = paulis @ omega @ paulis.conj().swapaxes(1, 2)
        rep.add("per-ancilla-value failure marginal matches rotated base run", "Eq.b9",
                float(np.max(np.abs(rho - expected))), tolerance, terms=anc)
        rep.add("ancilla values carry uniform weight", "Eq.b8",
                float(np.max(np.abs(weights - 1.0 / anc))), tolerance)
        rep.add("aggregate failure marginal is the Pauli average", "Eq.b9",
                float(np.max(np.abs(np.tensordot(weights, rho, 1) - expected.mean(axis=0)))),
                tolerance)
    return reports


def commutation_witness(p: PrimedProtocol, psi: StateVector) -> AuditReport:
    """Port-side controlled Paulis before vs after the sender's measurement.

    The two orders must produce identical branch probabilities and identical
    post states: the port operations commute with everything the sender does.
    """
    rep = AuditReport(subject="port operations commute with the sender's measurement")
    lay = p.global_layout()
    # the untwirled resource next to the uniform ancilla; the twirl comes after
    start = psi.amplitudes[:, None, None] * np.full((p.ancilla_dim, 1), 2.0**-p.base.n)
    start = p.w @ (start * p.base.resource.amplitudes).reshape(1, p.ancilla_dim * psi.dim, -1)
    after = povm_branches(start, lay, p.base.kraus, ("a", "A"))
    twirled = _twirl_ports(after.amplitudes.reshape(after.q.shape + lay.dims), lay,
                           p.base.n, p.base.N).reshape(after.amplitudes.shape)
    before = run_primed(p, psi.amplitudes[None])
    both = after.present & before.present
    diff = (twirled / np.sqrt(np.where(both, after.q, 1.0))[..., None]
            - before.amplitudes / np.sqrt(np.where(both, before.q, 1.0))[..., None])
    rep.add("branch probabilities agree across orders", "Eq.b5",
            float(np.max(np.abs(after.q - before.q))), 1e-12)
    rep.add("branch states agree across orders", "Eq.b5",
            float(np.max(np.abs(diff), where=both[..., None], initial=0.0)), 1e-12)
    return rep


# ---------------------------------------------------------------------------
# serialization: base-protocol document plus a primed flag and ancilla metadata


def primed_to_dict(p: PrimedProtocol) -> dict:
    doc = protocol_to_dict(p.base)
    doc["primed"] = True
    doc["ancilla"] = {"label": ANCILLA_LABEL, "dim": p.ancilla_dim}
    return doc


def primed_from_dict(doc: dict) -> PrimedProtocol:
    if isinstance(doc, dict) and not doc.get("primed"):
        raise ProtocolError("document does not carry the 'primed' flag")
    return build_primed(protocol_from_dict(doc))
