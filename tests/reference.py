"""Reference helpers for the tests: dense per-state oracles the toolkit itself
does not need (outer products, operator tensor products and reorderings,
partial trace, pure-state fidelities, the maximally mixed state), the
three-step construction of the standard resource, and a per-outcome view of
one input's branches."""

import functools
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from pbtkit.branches import BranchBatch
from pbtkit.engine import port_label
from pbtkit.errors import LayoutError
from pbtkit.tensor import (
    HermitianMatrix,
    StateVector,
    SystemLayout,
    maximally_entangled,
    permute_subsystems,
    tensor_product,
)


class Branch(NamedTuple):
    """Outcome k of one input: its probability and normalized state (None when pruned)."""

    k: int
    probability: float
    post_state: Optional[StateVector]


def branches_of(batch: BranchBatch, s: int = 0) -> list[Branch]:
    """The branches of input ``s`` of ``batch``, one record per outcome."""
    return [Branch(k, float(q), StateVector(batch.layout, amps / np.sqrt(q)) if q > 0.0 else None)
            for k, (q, amps) in enumerate(zip(batch.q[s], batch.amplitudes[s]))]


def outer(state: StateVector) -> HermitianMatrix:
    """|psi><psi| as a HermitianMatrix; a density operator when psi is normalized."""
    return HermitianMatrix(state.layout, np.outer(state.amplitudes, state.amplitudes.conj()))


def operator_product(factors: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """Kronecker product of operators, layouts concatenated in order."""
    layout = functools.reduce(SystemLayout.concat, (f.layout for f in factors))
    return HermitianMatrix(layout, functools.reduce(np.kron, (f.entries for f in factors)))


def permute_operator(op: HermitianMatrix, new_order: Sequence[str]) -> HermitianMatrix:
    """Reorder an operator's subsystems to the given label order; entries follow."""
    layout = op.layout
    if sorted(new_order) != sorted(layout.labels):
        raise LayoutError(f"{tuple(new_order)} is not a permutation of {layout.labels}")
    perm = [layout.axis(lbl) for lbl in new_order]
    new_layout = SystemLayout(tuple(layout.subsystems[p] for p in perm))
    t = op.entries.reshape(layout.dims + layout.dims)
    full_perm = perm + [len(layout) + p for p in perm]
    d = layout.total_dim
    return HermitianMatrix(new_layout, np.transpose(t, full_perm).reshape(d, d))


def merge_subsystems(state: StateVector, labels: Sequence[str], new_label: str) -> StateVector:
    """Fuse consecutive subsystems into one label; pure metadata, data unchanged."""
    layout = state.layout
    axes = [layout.axis(lbl) for lbl in labels]
    if axes != list(range(axes[0], axes[0] + len(axes))):
        raise LayoutError(f"labels {tuple(labels)} are not consecutive in {layout.labels}")
    merged_dim = 1
    for lbl in labels:
        merged_dim *= layout.dim(lbl)
    subs = (
        layout.subsystems[: axes[0]]
        + ((new_label, merged_dim),)
        + layout.subsystems[axes[-1] + 1 :]
    )
    return StateVector(SystemLayout(subs), state.amplitudes)


def paired_resource(n: int, N: int) -> StateVector:
    """The standard resource built pair by pair: the N maximally entangled
    pairs (A_j, B_j) as one product, reordered to (A_1..A_N, B_1..B_N), with
    A_1..A_N merged into A."""
    d = 2**n
    halves = [f"A{j}" for j in range(1, N + 1)]
    pairs = [maximally_entangled((f"A{j}", d), (port_label(j), d)) for j in range(1, N + 1)]
    resource = permute_subsystems(tensor_product(pairs),
                                  halves + [port_label(j) for j in range(1, N + 1)])
    return merge_subsystems(resource, halves, "A")


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
