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
import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .branches import BranchBatch, Drift, constancy_deviations, infidelity, input_chunks
from .engine import PbtProtocol, complex_pairs, from_complex_pairs, require_samples
from .errors import LayoutError, ProtocolError, UnitarityError
from .pauli import haar_amplitudes
from .report import AuditReport
from .tensor import StateVector, SystemLayout, basis_state

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
    rows, cols = np.nonzero(u)
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
        """The nonzero entries of ``xi_b x chi_pi``, and a contiguous copy of
        the columns of ``u`` they meet for each basis input: the only columns
        an input reaches (read-only)."""
        aux = np.kron(self.xi_b.amplitudes, self.chi_pi.amplitudes)
        cols = (np.arange(self.dim_a)[:, None] * aux.size + np.flatnonzero(aux)).ravel()
        block = np.ascontiguousarray(self.u[:, cols])
        block.setflags(write=False)
        return aux[aux != 0], block

    @property
    def dim_pointer(self) -> int:
        return len(self.pointer_basis)


@dataclass(frozen=True)
class BranchRecord:
    """Pointer outcome k with its probability and the conditional (a, b) state."""

    k: int
    probability: float
    conditional_state: Optional[StateVector]


def computational_pointer_basis(dim: int) -> tuple[StateVector, ...]:
    lay = SystemLayout.of(("pi", dim))
    return tuple(basis_state(lay, k) for k in range(dim))


def pointer_batch(op: PointerOperation, inputs: np.ndarray) -> BranchBatch:
    """Run the operation on each row of ``inputs`` and resolve it into pointer
    branches: the conditional (a, b) state of every pointer outcome."""
    if inputs.shape[1] != op.dim_a:
        raise ProtocolError(f"input dimension {inputs.shape[1]} != a-dimension {op.dim_a}")
    aux, block = op._start_columns
    evolved = (block @ np.kron(inputs, aux).T).T.reshape(len(inputs), -1, op.dim_pointer)
    pointer = np.array([v.amplitudes for v in op.pointer_basis])
    branches = np.ascontiguousarray((evolved @ pointer.conj().T).swapaxes(1, 2))
    return BranchBatch.of(SystemLayout.of(("a", op.dim_a), ("b", op.dim_b)), branches)


def decompose_by_pointer(op: PointerOperation, psi: StateVector) -> list[BranchRecord]:
    """Run the operation on psi and resolve it into pointer branches."""
    return [BranchRecord(*b) for b in pointer_batch(op, psi.amplitudes[None]).first()]


def _hypothesis_states(dim: int) -> np.ndarray:
    """Computational basis plus all real and imaginary pairwise superpositions, as rows."""
    basis = np.eye(dim, dtype=np.complex128)
    l, m = np.triu_indices(dim, 1)
    pairs = basis[l, None] + np.array([1.0, 1.0j])[:, None] * basis[m, None]
    return np.vstack([basis, pairs.reshape(-1, dim) / np.sqrt(2)])


def _hypothesis_failure(op: PointerOperation, states: np.ndarray) -> dict:
    """Details of the first success branch, over the rows of ``states``, that
    changes the input on a or is entangled with b; empty if there is none."""
    for part in input_chunks(states, op.u.shape[0]):
        batch = pointer_batch(op, part)
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
    ``samples`` must be at least 1 (``SampleCountError`` otherwise)."""
    require_samples(samples)
    rep = AuditReport(subject="information-extraction impossibility", seed=seed)
    hypothesis_states = _hypothesis_states(op.dim_a)
    if info := _hypothesis_failure(op, hypothesis_states):
        return rep.not_applicable("hypothesis not satisfied; conclusion checks skipped",
                                  "input intact and unentangled on every success branch",
                                  "Thm", **info)
    rep.add_flag("hypothesis holds on basis and pairwise superpositions", "Thm", True,
                 states_checked=len(hypothesis_states))

    q_rows, residuals, failures, failed_inputs = [], Drift(infidelity), [], []
    for part in input_chunks(haar_amplitudes(op.dim_a, samples, seed), op.u.shape[0]):
        batch = pointer_batch(op, part)
        q_rows.append(batch.q)
        residuals.add(batch.residuals("a", slice(1, None)), batch.present[:, 1:])
        failed = batch.present[:, 0]
        failures.append(batch.amplitudes[failed, 0] / np.sqrt(batch.q[failed, :1]))
        failed_inputs.append(part[failed])
    q_spread, worst_res = constancy_deviations(np.vstack(q_rows), residuals)
    rep.add("branch probabilities constant across inputs", "Eq.a6", q_spread, q_tolerance,
            samples=samples)
    rep.add("residual auxiliary states constant across inputs", "Eq.a7", worst_res,
            residual_tolerance,
            outcomes_present=[k for k in range(1, op.dim_pointer) if residuals.seen[k - 1]])

    # <f_i|f_j> = <psi_i|psi_j> for every pair i < j of failure states
    f, psi = np.vstack(failures), np.vstack(failed_inputs)
    gram = f.conj() @ f.T - psi.conj() @ psi.T
    rep.add("failure states preserve input inner products", "Eq.a8",
            float(np.max(np.abs(np.triu(gram, 1)), initial=0.0)),
            overlap_tolerance, pairs=len(f) * (len(f) - 1) // 2)
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
    # u is zero until written (private mapping), and only nonzero bit patterns are
    # written, so only the pages holding them become resident
    u = np.frombuffer(mmap.mmap(-1, u_bytes, flags=mmap.MAP_PRIVATE), dtype=np.complex128)
    vals = u_small[rows].reshape(rows.size, ds, -1)
    r, x, c = np.nonzero(vals.view(np.uint64).reshape(vals.shape + (2,)).any(axis=-1))
    p_row = np.broadcast_to(p_src, (ds * db_ports, danc, npi)).reshape(-1)
    u.reshape(rows.size, ds, db_ports, -1)[r, x, p_row[r], c] = vals[r, x, c]
    xi = np.kron(proto.resource.amplitudes, np.eye(danc)[0])
    return PointerOperation(
        dim_a=da,
        dim_b=xi.size,
        u=u.reshape(rows.size, rows.size),
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
