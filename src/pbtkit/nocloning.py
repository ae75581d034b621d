"""Empirical verifier for the information-extraction impossibility theorem.

Any candidate physical operation is given in unitary-plus-pointer form: a
unitary on (input a, auxiliary b, pointer pi) followed by reading the pointer
in a fixed orthonormal basis.  If, on a spanning set of inputs plus their
pairwise superpositions, every branch k >= 1 leaves the input system intact
and unentangled with b, then three conclusions are forced: branch
probabilities and residual b-states cannot depend on the input, and the
failure branch preserves inner products between inputs.  This module checks
the hypothesis honestly (it is never assumed) and then measures each
conclusion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .branches import (
    BranchBatch,
    Drift,
    infidelity,
    input_chunks,
    require_samples,
    require_width,
)
from .engine import (
    PbtProtocol,
    _int_field,
    _typed_field,
    complex_floats,
    complex_reader,
    write_document,
)
from .errors import ProtocolError, UnitarityError
from .pauli import haar_amplitudes
from .report import AuditReport
from .tensor import StateVector, SystemLayout, basis_state, check_budget, unitarity_deviation

POINTER_FORMAT_VERSION = "3"

#: tolerance for the theorem's hypothesis (input intact, branch factorizes)
HYPOTHESIS_ATOL = 1e-8
#: failure states per side of one tile of the pairwise inner-product check
GRAM_TILE = 1024


@dataclass(frozen=True)
class PointerOperation:
    """Unitary + pointer readout form of a physical operation.

    The operation acts on (a, b, pi) with the pointer as the last tensor
    factor; ``xi_b`` and ``chi_pi`` are the fixed starting states of the
    auxiliary system and the pointer; outcome k means projecting the pointer
    onto ``pointer_basis[k]``.  With ``ports = 0``, ``u`` is the unitary on
    (a, b, pi).  Otherwise b is (A, B_1..B_ports, ancilla), every port of
    dimension ``dim_a``, and the operation lifts ``u`` on (a, A, ancilla, pi):
    identity on the ports, then on pointer value k >= 1 the swap of a and B_k.
    A permutation times ``u x I`` is unitary exactly when ``u`` is.
    """

    dim_a: int
    dim_b: int
    u: np.ndarray
    xi_b: StateVector
    chi_pi: StateVector
    pointer_basis: tuple[StateVector, ...]
    ports: int = 0
    ancilla: int = 1

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=np.complex128))
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "pointer_basis", tuple(self.pointer_basis))
        if (self.ports < 0 or self.ancilla < 1
                or self.dim_b % (self.dim_ports * self.ancilla)
                or (self.ports and self.dim_pointer != self.ports + 1)):
            raise ProtocolError(
                f"a lift over {self.ports} ports needs b = (A, ports, ancilla {self.ancilla}) "
                f"and {self.ports + 1} pointer outcomes"
            )
        d = self.dim_a * self.dim_b // self.dim_ports * self.dim_pointer
        if u.shape != (d, d):
            raise ProtocolError(f"unitary shape {u.shape} != ({d}, {d})")
        if not unitarity_deviation(u) <= 1e-10:
            raise UnitarityError("pointer-form operation matrix is not unitary within 1e-10")
        if self.xi_b.dim != self.dim_b or self.chi_pi.dim != self.dim_pointer:
            raise ProtocolError("auxiliary/pointer start states do not match declared dims")
        basis = np.array([v.amplitudes for v in self.pointer_basis])
        if not unitarity_deviation(basis.T) <= 1e-12:
            raise ProtocolError("pointer basis is not orthonormal within 1e-12")

    @cached_property
    def _start_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero rows of ``xi_b x chi_pi`` as a matrix, rows over the
        factors of ``u`` besides a, columns over the ports; and a contiguous
        copy of the columns of ``u`` those rows meet for each basis input: the
        only columns an input reaches (read-only)."""
        aux = np.kron(self.xi_b.amplitudes, self.chi_pi.amplitudes)
        aux = (aux.reshape(-1, self.dim_ports, self.ancilla * self.dim_pointer)
               .swapaxes(1, 2).reshape(-1, self.dim_ports))
        rows = np.flatnonzero(aux.any(axis=1))
        cols = (np.arange(self.dim_a)[:, None] * len(aux) + rows).ravel()
        block = np.ascontiguousarray(self.u[:, cols])
        block.setflags(write=False)
        return aux[rows], block

    @property
    def dim_pointer(self) -> int:
        return len(self.pointer_basis)

    @property
    def dim_ports(self) -> int:
        return self.dim_a**self.ports

    @property
    def dim(self) -> int:
        """Dimension of (a, b, pi), the space the lifted operation acts on."""
        return self.dim_a * self.dim_b * self.dim_pointer


def computational_pointer_basis(dim: int) -> tuple[StateVector, ...]:
    lay = SystemLayout.of(("pi", dim))
    return tuple(basis_state(lay, k) for k in range(dim))


def decompose_by_pointer(op: PointerOperation, inputs: np.ndarray) -> BranchBatch:
    """Run the operation on each row of ``inputs`` and resolve it into pointer
    branches: the conditional (a, b) state of every pointer outcome
    (``LayoutError`` unless each row has ``dim_a`` amplitudes)."""
    require_width(inputs, op.dim_a)
    aux, block = op._start_columns
    # u on (a, A, ancilla, pi) times the start columns; the ports ride along
    start = (inputs[:, :, None, None] * aux).reshape(len(inputs), -1, op.dim_ports)
    evolved = (block @ start.transpose(1, 0, 2).reshape(block.shape[1], -1)).reshape(
        (op.dim_a, -1, op.ancilla, op.dim_pointer, len(inputs)) + (op.dim_a,) * op.ports)
    # to (inputs, a, A, B_1..B_ports, ancilla, pi); outcome k >= 1 of a lift
    # exchanges a (axis 1) and B_k (axis 2 + k)
    full = np.moveaxis(evolved, (4, 2, 3), (0, -2, -1))
    full = np.stack([full[..., k].swapaxes(1, 2 + k) if k and op.ports else full[..., k]
                     for k in range(op.dim_pointer)], axis=-1)
    pointer = np.array([v.amplitudes for v in op.pointer_basis]).conj().T
    branches = (full.reshape(len(inputs), -1, op.dim_pointer) @ pointer).swapaxes(1, 2)
    return BranchBatch.of(SystemLayout.of(("a", op.dim_a), ("b", op.dim_b)),
                          np.ascontiguousarray(branches))


def _hypothesis_states(dim: int) -> np.ndarray:
    """Computational basis plus all real and imaginary pairwise superpositions, as rows."""
    basis = np.eye(dim, dtype=np.complex128)
    l, m = np.triu_indices(dim, 1)
    pairs = basis[l, None] + np.array([1.0, 1.0j])[:, None] * basis[m, None]
    return np.vstack([basis, pairs.reshape(-1, dim) / np.sqrt(2)])


def _hypothesis_failure(op: PointerOperation, states: np.ndarray) -> dict:
    """Details of the first success branch, over the rows of ``states``, that
    changes the input on a or is entangled with b; empty if there is none."""
    for part in input_chunks(states, op.dim):
        batch = decompose_by_pointer(op, part)
        rho_a = batch.normalized(batch.marginals("a"))[:, 1:]
        proj = part[:, None, :, None] * part.conj()[:, None, None, :]
        intact = np.abs(rho_a - proj).max(axis=(2, 3))
        # a pure (a, b) state has equally pure marginals on a and on b
        purity_gap = 1.0 - np.einsum("skij,skji->sk", rho_a, rho_a).real
        failed = np.argwhere(batch.present[:, 1:] & ((intact > HYPOTHESIS_ATOL)
                                                     | (purity_gap > HYPOTHESIS_ATOL)))
        if len(failed):
            s, k = failed[0]
            return {"k": int(k) + 1, "input_deviation": float(intact[s, k]),
                    "purity_gap": float(purity_gap[s, k])}
    return {}


def verify_theorem(op: PointerOperation, samples: int, seed: int,
                   q_tolerance: float = 1e-10,
                   residual_tolerance: float = 1e-10,
                   overlap_tolerance: float = 1e-8) -> AuditReport:
    """Check hypothesis on basis + superpositions, then the three conclusions on
    Haar-sampled inputs: constant branch probabilities, constant residual
    states, and inner-product preservation between failure states.
    ``samples`` must be at least 1 (``SampleCountError`` otherwise), and
    ``LayoutError`` is raised before anything is built if the failure
    states, at most one (a, b) vector per sample, exceed the memory budget.
    The pairwise check runs in tiles of at most GRAM_TILE x GRAM_TILE pairs."""
    require_samples(samples)
    check_budget(f"the failure states of {samples} samples", 16 * samples * op.dim_a * op.dim_b)
    rep = AuditReport(subject="information-extraction impossibility", seed=seed)
    hypothesis_states = _hypothesis_states(op.dim_a)
    if info := _hypothesis_failure(op, hypothesis_states):
        return rep.not_applicable("hypothesis not satisfied; conclusion checks skipped",
                                  "input intact and unentangled on every success branch",
                                  "Thm", **info)
    rep.add_flag("hypothesis holds on basis and pairwise superpositions", "Thm", True,
                 states_checked=len(hypothesis_states))

    q_rows, residuals, failures, failed_inputs = [], Drift(infidelity), [], []
    for part in input_chunks(haar_amplitudes(op.dim_a, samples, seed), op.dim):
        batch = decompose_by_pointer(op, part)
        q_rows.append(batch.q)
        residuals.add(batch.residuals("a", slice(1, None)), batch.present[:, 1:])
        failed = batch.present[:, 0]
        failures.append(batch.amplitudes[failed, 0] / np.sqrt(batch.q[failed, :1]))
        failed_inputs.append(part[failed])
    q = np.vstack(q_rows)
    rep.add("branch probabilities constant across inputs", "Eq.a6",
            float(np.max(q.max(axis=0) - q.min(axis=0))), q_tolerance, samples=samples)
    rep.add("residual auxiliary states constant across inputs", "Eq.a7", residuals.worst,
            residual_tolerance,
            outcomes_present=[k for k in range(1, op.dim_pointer) if residuals.seen[k - 1]])

    f = np.vstack(failures)
    rep.add("failure states preserve input inner products", "Eq.a8",
            _overlap_drift(f, np.vstack(failed_inputs)),
            overlap_tolerance, pairs=len(f) * (len(f) - 1) // 2)
    return rep


def _overlap_drift(f: np.ndarray, psi: np.ndarray) -> float:
    """``max |<f_i|f_j> - <psi_i|psi_j>|`` over the pairs i < j of rows, one
    tile of at most GRAM_TILE x GRAM_TILE pairs at a time (0 without pairs)."""
    worst = 0.0
    for i in range(0, len(f), GRAM_TILE):
        for j in range(i, len(f), GRAM_TILE):
            gram = f[i:i + GRAM_TILE].conj() @ f[j:j + GRAM_TILE].T
            gram -= psi[i:i + GRAM_TILE].conj() @ psi[j:j + GRAM_TILE].T
            gram = np.abs(gram)
            worst = max(worst, float(np.max(np.triu(gram, 1) if i == j else gram,
                                            initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# converter from POVM protocols


def check_dilation_bytes(dim_s: int, outcomes: int, ancilla: int) -> None:
    """``LayoutError`` unless the pointer-form dilation of a measurement on a
    ``dim_s``-dimensional (a, A) with ``outcomes`` outcomes, routed into an
    ``ancilla``-dimensional ancilla, fits the memory budget: its unitary on
    (a, A, ancilla, pi) and the SVD's U of the same size, both complex and
    square."""
    check_budget("the pointer-form dilation", 2 * 16 * (dim_s * ancilla * outcomes) ** 2)


def pointer_form(proto: PbtProtocol,
                 fine_grained: Optional[dict[int, Sequence[np.ndarray]]] = None
                 ) -> PointerOperation:
    """Dilate a protocol into unitary + pointer form.

    The auxiliary system b is (A, ports, ancilla); outcome k >= 1 additionally
    swaps the input system with port B_k, so success branches carry the input
    on a as the theorem requires.  ``fine_grained`` may decompose outcome k
    into several update operators K with sum K^dag K = M_k; these are routed
    into the ancilla, keeping every conditional branch pure.

    Every K acts on (a, A) only: the isometry is completed to a unitary on
    (a, A) x ancilla x pointer (SVD complement in the free columns), and the
    operation is its lift over the ports (``PointerOperation.ports``).  Only
    the free columns depend on the completion.  ``LayoutError`` before
    anything is built if the dilation exceeds the memory budget
    (``check_dilation_bytes``).
    """
    da, npi = proto.port_dim, proto.N + 1
    ds = da * proto.alice_dim
    kraus: list[list[np.ndarray]] = []
    for k, (m, root) in enumerate(zip(proto.povm, proto.kraus)):
        if fine_grained and k in fine_grained:
            ops = [np.asarray(x, dtype=np.complex128) for x in fine_grained[k]]
            total = sum(x.conj().T @ x for x in ops)
            if np.max(np.abs(total - m.entries)) > 1e-10:
                raise ProtocolError(
                    f"fine-grained operators for outcome {k} do not resolve its POVM element"
                )
            kraus.append(ops)
        else:
            kraus.append([root])
    danc = max(len(ops) for ops in kraus)
    check_dilation_bytes(ds, npi, danc)
    d = ds * danc * npi

    # isometry |x> -> sum_{k, kappa} K_{k,kappa}|x> |kappa>_anc |k>_pi in the start
    # columns (kappa = k = 0), left singular vectors past ds in the others, in order
    iso = np.zeros((d, ds), dtype=np.complex128)
    for k, ops in enumerate(kraus):
        for kap, kop in enumerate(ops):
            iso[(np.arange(ds) * danc + kap) * npi + k] += kop
    start = np.arange(d) % (danc * npi) == 0
    u = np.empty((d, d), dtype=np.complex128)
    u[:, start] = iso
    u[:, ~start] = np.linalg.svd(iso, full_matrices=True)[0][:, ds:]
    xi = np.kron(proto.resource.amplitudes, np.eye(danc)[0])
    return PointerOperation(
        dim_a=da,
        dim_b=xi.size,
        u=u,
        xi_b=StateVector(SystemLayout.of(("b", xi.size)), xi),
        chi_pi=basis_state(SystemLayout.of(("pi", npi)), 0),
        pointer_basis=computational_pointer_basis(npi),
        ports=proto.N,
        ancilla=danc,
    )


# ---------------------------------------------------------------------------
# serialization


def pointer_to_dict(op: PointerOperation) -> dict:
    return {
        "version": POINTER_FORMAT_VERSION,
        "kind": "pointer-operation",
        "dims": {"a": op.dim_a, "b": op.dim_b, "pi": op.dim_pointer},
        "lift": {"ports": op.ports, "ancilla": op.ancilla},
        "unitary": complex_floats(op.u),
        "xi": complex_floats(op.xi_b.amplitudes),
        "chi": complex_floats(op.chi_pi.amplitudes),
        "pointer_basis": [complex_floats(v.amplitudes) for v in op.pointer_basis],
    }


def pointer_from_dict(doc: dict) -> PointerOperation:
    """Read any format version: a version-1 document has no ``lift`` and
    holds the operation's whole unitary, which is the zero-port case, and
    versions 1 and 2 hold [re, im] pairs.  Raise ProtocolError, naming the
    field, for a malformed document."""
    _typed_field(doc, dict, "pointer document")
    read = complex_reader(doc, ("1", "2"), POINTER_FORMAT_VERSION)

    def state(label: str, dim: int, values, name: str) -> StateVector:
        amplitudes = read(values, name)
        try:
            return StateVector(SystemLayout.of((label, dim)), amplitudes)
        except ValueError as exc:  # unnormalized, or not the dimension's size
            raise ProtocolError(f"field {name!r}: {exc}") from exc

    for field_name in ("dims", "unitary", "xi", "chi"):
        if field_name not in doc:
            raise ProtocolError(f"pointer document is missing field {field_name!r}")
    dims = _typed_field(doc["dims"], dict, "field 'dims'")
    for field_name in ("a", "b", "pi"):
        if field_name not in dims:
            raise ProtocolError(f"pointer field 'dims' is missing entry {field_name!r}")
    da, db, npi = (_int_field(dims[name], f"dims.{name}", 1) for name in ("a", "b", "pi"))
    lift = _typed_field(doc.get("lift", {}), dict, "field 'lift'")
    u = read(doc["unitary"], "unitary")
    side = math.isqrt(u.size)
    if side * side != u.size:
        raise ProtocolError(f"field 'unitary': {u.size} entries are not a square matrix")
    if "pointer_basis" in doc:
        basis = tuple(
            state("pi", npi, vec, f"pointer_basis[{i}]")
            for i, vec in enumerate(_typed_field(doc["pointer_basis"], list,
                                                 "field 'pointer_basis'"))
        )
    else:
        basis = computational_pointer_basis(npi)
    return PointerOperation(
        dim_a=da,
        dim_b=db,
        u=u.reshape(side, side),
        xi_b=state("b", db, doc["xi"], "xi"),
        chi_pi=state("pi", npi, doc["chi"], "chi"),
        pointer_basis=basis,
        ports=_int_field(lift.get("ports", 0), "lift.ports", 0),
        ancilla=_int_field(lift.get("ancilla", 1), "lift.ancilla", 1),
    )


def save_pointer(op: PointerOperation, path) -> None:
    write_document(pointer_to_dict(op), path)


def load_pointer(path) -> PointerOperation:
    with open(path) as fh:
        return pointer_from_dict(json.load(fh))
