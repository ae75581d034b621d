"""Reference helpers for the tests: dense per-state oracles the toolkit itself
does not need (partial trace, pure-state fidelities, the maximally mixed
state) and a per-outcome view of one input's branches."""

from typing import Iterable, NamedTuple, Optional

import numpy as np

from pbtkit.branches import BranchBatch
from pbtkit.errors import LayoutError
from pbtkit.tensor import HermitianMatrix, StateVector, SystemLayout


class Branch(NamedTuple):
    """Outcome k of one input: its probability and normalized state (None when pruned)."""

    k: int
    probability: float
    post_state: Optional[StateVector]


def branches_of(batch: BranchBatch, s: int = 0) -> list[Branch]:
    """The branches of input ``s`` of ``batch``, one record per outcome."""
    return [Branch(k, float(q), StateVector(batch.layout, amps / np.sqrt(q)) if q > 0.0 else None)
            for k, (q, amps) in enumerate(zip(batch.q[s], batch.amplitudes[s]))]


def maximally_mixed(layout: SystemLayout) -> HermitianMatrix:
    d = layout.total_dim
    return HermitianMatrix(layout, np.eye(d, dtype=np.complex128) / d)


def partial_trace(op: HermitianMatrix, keep: Iterable[str]) -> HermitianMatrix:
    """Trace out every subsystem not in ``keep``; kept labels retain their order."""
    keep = set(keep)
    out_layout = op.layout.restrict(keep)
    dims = op.layout.dims
    n = len(dims)
    t = op.entries.reshape(dims + dims)
    row_idx = list(range(n))
    col_idx = [n + i if op.layout.labels[i] in keep else i for i in range(n)]
    out_idx = [i for i in range(n) if op.layout.labels[i] in keep]
    out_idx += [n + i for i in range(n) if op.layout.labels[i] in keep]
    d = out_layout.total_dim
    reduced = np.einsum(t, row_idx + col_idx, out_idx).reshape(d, d)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return HermitianMatrix(out_layout, reduced)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; phase-free pure-state fidelity."""
    if a.dim != b.dim:
        raise LayoutError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def states_equal(a: StateVector, b: StateVector, atol: float = 1e-10) -> bool:
    """Equality up to global phase: fidelity >= 1 - atol."""
    return state_fidelity(a, b) >= 1.0 - atol


def fidelity(pure: StateVector, rho: HermitianMatrix) -> float:
    """<pure|rho|pure>, real in [0, 1] for density operators."""
    if pure.dim != rho.dim:
        raise LayoutError(f"dimension mismatch: state {pure.dim} vs operator {rho.dim}")
    return float(np.vdot(pure.amplitudes, rho.entries @ pure.amplitudes).real)
