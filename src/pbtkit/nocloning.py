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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .engine import (
    BRANCH_PRUNE,
    PbtProtocol,
    complex_pairs,
    constancy_deviations,
    from_complex_pairs,
    require_samples,
)
from .errors import LayoutError, ProtocolError, UnitarityError
from .pauli import haar_states
from .report import AuditReport
from .tensor import (
    StateVector,
    SystemLayout,
    basis_state,
    outer,
    reduced_density,
    schmidt_decompose,
    tensor_product,
)

POINTER_FORMAT_VERSION = "1"

#: tolerance for the theorem's hypothesis (input intact, branch factorizes)
HYPOTHESIS_ATOL = 1e-8
#: largest dense pointer-form unitary, in bytes, that ``pointer_form`` allocates
POINTER_U_CAP_BYTES = 1 << 30


def unitarity_deviation(u: np.ndarray) -> float:
    """``max |u^dag u - I|`` of a square matrix, over the blocks of its nonzero pattern.

    Columns that share a nonzero row form one block (rows go with their
    columns); Gram entries between columns of different blocks are exactly
    zero, so the result is exact for any ``u``.  A dense ``u`` is one block.
    A zero row or column, or a block with more rows than columns or fewer,
    cannot be unitary and raises ``UnitarityError``.
    """
    d = u.shape[0]
    rows, cols = np.nonzero(u != 0)
    if not (np.bincount(rows, minlength=d).all() and np.bincount(cols, minlength=d).all()):
        raise UnitarityError("pointer-form operation matrix has a zero row or column")
    # min-label propagation: every column takes the smallest column index of
    # its block; nonzero() lists entries row-major, so row runs are contiguous
    by_col = np.argsort(cols, kind="stable")
    row_starts = np.searchsorted(rows, np.arange(d))
    col_starts = np.searchsorted(cols[by_col], np.arange(d))
    label = np.arange(d)
    while True:
        row_label = np.minimum.reduceat(label[cols], row_starts)
        new = np.minimum.reduceat(row_label[rows[by_col]], col_starts)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    sizes = np.bincount(label, minlength=d)
    if not np.array_equal(sizes, np.bincount(row_label, minlength=d)):
        raise UnitarityError("pointer-form operation matrix has a non-square block")
    # blocks in label order, each one contiguous in these index orders
    col_order = np.argsort(label, kind="stable")
    row_order = np.argsort(row_label, kind="stable")
    block_sizes = sizes[sizes > 0]
    offsets = np.cumsum(block_sizes) - block_sizes
    worst = []
    for s in np.unique(block_sizes):
        idx = offsets[block_sizes == s][:, None] + np.arange(s)
        blocks = u[row_order[idx][:, :, None], col_order[idx][:, None, :]]
        gram = blocks.conj().transpose(0, 2, 1) @ blocks
        gram.reshape(len(idx), -1)[:, ::s + 1] -= 1.0
        worst.append(np.max(np.abs(gram)))
    return float(np.max(worst))


@dataclass(frozen=True)
class PointerOperation:
    """Unitary + pointer readout form of a physical operation.

    ``u`` acts on (a, b, pi) with the pointer as the last tensor factor;
    ``xi_b`` and ``chi_pi`` are the fixed starting states of the auxiliary
    system and the pointer; outcome k means projecting the pointer onto
    ``pointer_basis[k]``.
    """

    dim_a: int
    dim_b: int
    u: np.ndarray
    xi_b: StateVector
    chi_pi: StateVector
    pointer_basis: tuple[StateVector, ...]

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=np.complex128))
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "pointer_basis", tuple(self.pointer_basis))
        d = self.dim_a * self.dim_b * self.dim_pointer
        if u.shape != (d, d):
            raise ProtocolError(f"unitary shape {u.shape} != ({d}, {d})")
        if not unitarity_deviation(u) <= 1e-10:
            raise UnitarityError("pointer-form operation matrix is not unitary within 1e-10")
        if self.xi_b.dim != self.dim_b or self.chi_pi.dim != self.dim_pointer:
            raise ProtocolError("auxiliary/pointer start states do not match declared dims")
        basis = np.array([v.amplitudes for v in self.pointer_basis])
        gram = basis.conj() @ basis.T
        gram.flat[::len(basis) + 1] -= 1.0
        if np.max(np.abs(gram)) > 1e-12:
            raise ProtocolError("pointer basis is not orthonormal within 1e-12")

    @cached_property
    def _start_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the columns of ``u`` where ``psi x xi_b x chi_pi`` can be
        nonzero (the only ones an input reaches), and a contiguous copy of
        those columns (read-only)."""
        aux = np.kron(self.xi_b.amplitudes, self.chi_pi.amplitudes)
        cols = (np.arange(self.dim_a)[:, None] * aux.size + np.flatnonzero(aux)).ravel()
        block = np.ascontiguousarray(self.u[:, cols])
        block.setflags(write=False)
        return cols, block

    @property
    def dim_pointer(self) -> int:
        return len(self.pointer_basis)

    @property
    def outcomes(self) -> int:
        """Number of success outcomes N (pointer dimension is N + 1)."""
        return self.dim_pointer - 1

    def layout(self) -> SystemLayout:
        return SystemLayout.of(("a", self.dim_a), ("b", self.dim_b),
                               ("pi", self.dim_pointer))


@dataclass(frozen=True)
class BranchRecord:
    """Pointer outcome k with its probability and the conditional (a, b) state."""

    k: int
    probability: float
    conditional_state: Optional[StateVector]


def computational_pointer_basis(dim: int) -> tuple[StateVector, ...]:
    lay = SystemLayout.of(("pi", dim))
    return tuple(basis_state(lay, k) for k in range(dim))


def decompose_by_pointer(op: PointerOperation, psi: StateVector) -> list[BranchRecord]:
    """Run the operation on psi and resolve it into pointer branches."""
    if psi.dim != op.dim_a:
        raise ProtocolError(f"input dimension {psi.dim} != declared a-dimension {op.dim_a}")
    psi_a = StateVector(SystemLayout.of(("a", op.dim_a)), psi.amplitudes,
                        normalized=psi.normalized)
    chi = StateVector(SystemLayout.of(("pi", op.dim_pointer)), op.chi_pi.amplitudes)
    xi = StateVector(SystemLayout.of(("b", op.dim_b)), op.xi_b.amplitudes)
    cols, block = op._start_columns
    evolved = block @ tensor_product([psi_a, xi, chi]).amplitudes[cols]
    mat = evolved.reshape(op.dim_a * op.dim_b, op.dim_pointer)
    ab_layout = SystemLayout.of(("a", op.dim_a), ("b", op.dim_b))
    out = []
    for k, kvec in enumerate(op.pointer_basis):
        vec = mat @ kvec.amplitudes.conj()
        prob = float(np.vdot(vec, vec).real)
        if prob < BRANCH_PRUNE:
            out.append(BranchRecord(k, 0.0, None))
        else:
            out.append(BranchRecord(k, prob, StateVector(ab_layout, vec / np.sqrt(prob))))
    return out


def _hypothesis_states(dim: int) -> list[StateVector]:
    """Computational basis plus all real and imaginary pairwise superpositions."""
    lay = SystemLayout.of(("a", dim))
    states = [basis_state(lay, i) for i in range(dim)]
    for l in range(dim):
        for m in range(l + 1, dim):
            for factor in (1.0, 1.0j):
                amps = np.zeros(dim, dtype=np.complex128)
                amps[l] = 1.0
                amps[m] = factor
                states.append(StateVector(lay, amps / np.sqrt(2)))
    return states


def _check_hypothesis(op: PointerOperation, psi: StateVector) -> tuple[bool, dict]:
    """Branches k >= 1 must keep the input intact and factorize from b."""
    for rec in decompose_by_pointer(op, psi):
        if rec.k == 0 or rec.conditional_state is None:
            continue
        rho_a = reduced_density(rec.conditional_state, {"a"})
        intact = float(np.max(np.abs(rho_a.entries - outer(psi).entries)))
        rho_b = reduced_density(rec.conditional_state, {"b"})
        purity_gap = 1.0 - float(np.trace(rho_b.entries @ rho_b.entries).real)
        if intact > HYPOTHESIS_ATOL or purity_gap > HYPOTHESIS_ATOL:
            return False, {"k": rec.k, "input_deviation": intact, "purity_gap": purity_gap}
    return True, {}


def _extract_residual(conditional: StateVector) -> StateVector:
    """The b-part of an (a, b) product branch (factorization already verified)."""
    _, _, right = schmidt_decompose(conditional, {"a"})
    return right[0]


def verify_theorem(op: PointerOperation, samples: int, seed: int,
                   q_tolerance: float = 1e-10,
                   residual_tolerance: float = 1e-10,
                   overlap_tolerance: float = 1e-8) -> AuditReport:
    """Check hypothesis on basis + superpositions, then the three conclusions on
    Haar-sampled inputs: constant branch probabilities, constant residual
    states, and inner-product preservation between failure states.
    ``samples`` must be at least 1 (``SampleCountError`` otherwise)."""
    require_samples(samples)
    rep = AuditReport(subject="information-extraction impossibility", seed=seed)
    hypothesis_states = _hypothesis_states(op.dim_a)
    for psi in hypothesis_states:
        ok, info = _check_hypothesis(op, psi)
        if not ok:
            rep.preconditions_met = False
            rep.note = "hypothesis not satisfied; conclusion checks skipped"
            rep.add_flag("input intact and unentangled on every success branch",
                         "Thm", False, **info)
            return rep
    rep.add_flag("hypothesis holds on basis and pairwise superpositions", "Thm", True,
                 states_checked=len(hypothesis_states))

    sampled = haar_states(op.dim_a, samples, seed)
    q_rows = []
    residuals: dict[int, list[StateVector]] = {k: [] for k in range(1, op.dim_pointer)}
    failures: list[tuple[StateVector, StateVector]] = []
    for psi in sampled:
        records = decompose_by_pointer(op, psi)
        q_rows.append(np.array([r.probability for r in records]))
        for rec in records[1:]:
            if rec.conditional_state is not None:
                residuals[rec.k].append(_extract_residual(rec.conditional_state))
        if records[0].conditional_state is not None:
            failures.append((psi, records[0].conditional_state))

    q_spread, worst_res = constancy_deviations(q_rows, residuals)
    rep.add("branch probabilities constant across inputs", "Eq.a6", q_spread, q_tolerance,
            samples=samples)
    rep.add("residual auxiliary states constant across inputs", "Eq.a7", worst_res,
            residual_tolerance,
            outcomes_present=[k for k, v in residuals.items() if v])

    worst_overlap = 0.0
    for i in range(len(failures)):
        for j in range(i + 1, len(failures)):
            psi_i, f_i = failures[i]
            psi_j, f_j = failures[j]
            lhs = np.vdot(f_i.amplitudes, f_j.amplitudes)
            rhs = np.vdot(psi_i.amplitudes, psi_j.amplitudes)
            worst_overlap = max(worst_overlap, float(abs(lhs - rhs)))
    rep.add("failure states preserve input inner products", "Eq.a8", worst_overlap,
            overlap_tolerance, pairs=len(failures) * (len(failures) - 1) // 2)
    return rep


# ---------------------------------------------------------------------------
# converter from POVM protocols


def pointer_form(proto: PbtProtocol,
                 fine_grained: Optional[dict[int, Sequence[np.ndarray]]] = None
                 ) -> PointerOperation:
    """Dilate a protocol into unitary + pointer form.

    The auxiliary system b is (A, ports); outcome k >= 1 additionally swaps
    the input system with port B_k, so success branches carry the input on a
    as the theorem requires.  ``fine_grained`` may decompose outcome k into
    several update operators K with sum K^dag K = M_k; these are routed into
    an extra ancilla inside b, keeping every conditional branch pure.

    Every K acts on (a, A) only: the isometry is completed to a unitary on
    (a, A) x ancilla x pointer (SVD complement in the free columns) and lifted
    to the full space, identity on the ports, by one index scatter that also
    applies the swap.  Only the free columns depend on the completion.
    A dense complex ``u`` larger than ``POINTER_U_CAP_BYTES`` raises
    ``LayoutError`` before anything is built.
    """
    da, npi = proto.port_dim, proto.N + 1
    ds, db_ports = da * proto.alice_dim, da**proto.N
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
    u_bytes = 16 * (ds * db_ports * danc * npi) ** 2
    if u_bytes > POINTER_U_CAP_BYTES:
        raise LayoutError(
            f"the pointer-form unitary needs {u_bytes} bytes, above the cap of "
            f"{POINTER_U_CAP_BYTES} bytes"
        )

    # isometry |x> -> sum_{k, kappa} K_{k,kappa}|x> |kappa>_anc |k>_pi in the start
    # columns (kappa = k = 0), left singular vectors past ds in the others, in order
    iso = np.zeros((ds * danc * npi, ds), dtype=np.complex128)
    for k, ops in enumerate(kraus):
        for kap, kop in enumerate(ops):
            iso[(np.arange(ds) * danc + kap) * npi + k] += kop
    start = np.arange(iso.shape[0]) % (danc * npi) == 0
    u_small = np.empty((iso.shape[0],) * 2, dtype=np.complex128)
    u_small[:, start] = iso
    u_small[:, ~start] = np.linalg.svd(iso, full_matrices=True)[0][:, ds:]

    # row (v, kappa, k) of u, v over (a, A, ports), is small row (x, kappa, k)
    # on the columns of port index p, where (x, p) is v with a and B_k exchanged
    flat = np.arange(ds * db_ports).reshape((da, proto.alice_dim) + (da,) * proto.N)
    perms = np.stack([flat.reshape(-1)] + [np.swapaxes(flat, 0, 1 + k).reshape(-1)
                                           for k in range(1, npi)], axis=1)
    x_src, p_src = np.divmod(perms[:, None, :], db_ports)
    rows = ((x_src * danc + np.arange(danc)[:, None]) * npi + np.arange(npi)).reshape(-1)
    u = np.zeros((rows.size, rows.size), dtype=np.complex128)
    u.reshape(rows.size, ds, db_ports, -1)[
        np.arange(rows.size), :, np.broadcast_to(p_src, (ds * db_ports, danc, npi)).reshape(-1)
    ] = u_small[rows].reshape(rows.size, ds, -1)
    xi = np.kron(proto.resource.amplitudes, np.eye(danc)[0])
    return PointerOperation(
        dim_a=da,
        dim_b=xi.size,
        u=u,
        xi_b=StateVector(SystemLayout.of(("b", xi.size)), xi),
        chi_pi=basis_state(SystemLayout.of(("pi", npi)), 0),
        pointer_basis=computational_pointer_basis(npi),
    )


# ---------------------------------------------------------------------------
# serialization


def pointer_to_dict(op: PointerOperation) -> dict:
    return {
        "version": POINTER_FORMAT_VERSION,
        "kind": "pointer-operation",
        "dims": {"a": op.dim_a, "b": op.dim_b, "pi": op.dim_pointer},
        "unitary": complex_pairs(op.u),
        "xi": complex_pairs(op.xi_b.amplitudes),
        "chi": complex_pairs(op.chi_pi.amplitudes),
        "pointer_basis": [complex_pairs(v.amplitudes) for v in op.pointer_basis],
    }


def pointer_from_dict(doc: dict) -> PointerOperation:
    for field_name in ("dims", "unitary", "xi", "chi"):
        if field_name not in doc:
            raise ProtocolError(f"pointer document is missing field {field_name!r}")
    dims = doc["dims"]
    for field_name in ("a", "b", "pi"):
        if field_name not in dims:
            raise ProtocolError(f"pointer field 'dims' is missing entry {field_name!r}")
    da, db, npi = int(dims["a"]), int(dims["b"]), int(dims["pi"])
    d = da * db * npi
    u = from_complex_pairs(doc["unitary"], "unitary")
    if u.size != d * d:
        raise ProtocolError(f"field 'unitary': expected {d * d} entries, got {u.size}")
    if "pointer_basis" in doc:
        basis = tuple(
            StateVector(SystemLayout.of(("pi", npi)),
                        from_complex_pairs(vec, f"pointer_basis[{i}]"))
            for i, vec in enumerate(doc["pointer_basis"])
        )
    else:
        basis = computational_pointer_basis(npi)
    return PointerOperation(
        dim_a=da,
        dim_b=db,
        u=u.reshape(d, d),
        xi_b=StateVector(SystemLayout.of(("b", db)), from_complex_pairs(doc["xi"], "xi")),
        chi_pi=StateVector(SystemLayout.of(("pi", npi)), from_complex_pairs(doc["chi"], "chi")),
        pointer_basis=basis,
    )


def save_pointer(op: PointerOperation, path) -> None:
    with open(path, "w") as fh:
        json.dump(pointer_to_dict(op), fh, sort_keys=True)
        fh.write("\n")


def load_pointer(path) -> PointerOperation:
    with open(path) as fh:
        return pointer_from_dict(json.load(fh))
