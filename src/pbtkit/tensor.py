"""Dense complex linear algebra over labeled tensor-product spaces.

Every state and operator carries a :class:`SystemLayout` naming its
subsystems; all addressing is by label, never by positional index, so that
reordered layouts cannot silently transpose anything.  All values are
immutable and all operations are pure functions, safe to share across
threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, UnitarityError

#: normalization / hermiticity tolerance at construction time
STRICT_ATOL = 1e-12
#: the most bytes that one array, or one run of what a call builds, may
#: take; every site checks its size against it, read at call time, before it
#: allocates anything
MEMORY_BUDGET = 1 << 30


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of labeled subsystems with dimensions."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((str(lbl), int(dim)) for lbl, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [lbl for lbl, _ in subs]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate labels in layout: {labels}")
        for lbl, dim in subs:
            if dim < 1:
                raise LayoutError(f"subsystem {lbl!r} has non-positive dimension {dim}")

    @classmethod
    def of(cls, *subsystems: tuple[str, int]) -> "SystemLayout":
        return cls(tuple(subsystems))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, dim in self.subsystems:
            out *= dim
        return out

    def dim(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"label {label!r} not in layout {self.labels}") from None

    def restrict(self, labels: Iterable[str]) -> "SystemLayout":
        """Sub-layout containing the given labels, in this layout's order."""
        wanted = set(labels)
        for lbl in wanted:
            self.axis(lbl)
        return SystemLayout(tuple(s for s in self.subsystems if s[0] in wanted))

    def without(self, labels: Iterable[str]) -> "SystemLayout":
        dropped = set(labels)
        for lbl in dropped:
            self.axis(lbl)
        return SystemLayout(tuple(s for s in self.subsystems if s[0] not in dropped))

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.subsystems + other.subsystems)

    def __len__(self) -> int:
        return len(self.subsystems)


def check_budget(what: str, needed: int) -> None:
    """Raise ``LayoutError``, naming ``what`` and both sizes, if ``needed``
    bytes exceed MEMORY_BUDGET."""
    if needed > MEMORY_BUDGET:
        raise LayoutError(f"{what} needs {needed} bytes, above the cap of "
                          f"{MEMORY_BUDGET} bytes")


def _as_complex(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128)
    out = np.ascontiguousarray(out)
    out.setflags(write=False)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a layout, of unit Euclidean norm within 1e-12."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes, "amplitudes").reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != self.layout.total_dim:
            raise LayoutError(
                f"amplitude count {amps.size} != layout dimension {self.layout.total_dim}"
            )
        if abs(self.norm() - 1.0) > STRICT_ATOL:
            raise ValueError(f"state norm {self.norm()} deviates from 1 beyond 1e-12")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensorized(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)


@dataclass(frozen=True)
class HermitianMatrix:
    """Complex Hermitian operator over a layout, stored dense row-major."""

    layout: SystemLayout
    entries: np.ndarray

    def __post_init__(self):
        d = self.layout.total_dim
        raw = np.asarray(self.entries)
        if raw.size != d * d:
            raise LayoutError(
                f"entry count {raw.size} != {d}x{d} for layout {self.layout.labels}"
            )
        ent = _as_complex(raw, "entries").reshape(d, d)
        if np.max(np.abs(ent - ent.conj().T)) > STRICT_ATOL:
            raise ValueError("matrix deviates from its conjugate transpose beyond 1e-12")
        object.__setattr__(self, "entries", ent)

    @property
    def dim(self) -> int:
        return self.layout.total_dim


# ---------------------------------------------------------------------------
# construction helpers


def basis_state(layout: SystemLayout, index: int) -> StateVector:
    """Computational basis state with the given flat index."""
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(layout, amps)


def maximally_entangled(left: tuple[str, int], right: tuple[str, int]) -> StateVector:
    """Canonical maximally entangled state (1/sqrt(d)) sum_i |i>|i> of two d-dim systems."""
    if left[1] != right[1]:
        raise LayoutError(f"subsystem dimensions differ: {left} vs {right}")
    d = left[1]
    amps = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)
    return StateVector(SystemLayout.of(left, right), amps)


# ---------------------------------------------------------------------------
# operations


def tensor_product(factors: Sequence[StateVector]) -> StateVector:
    """Kronecker product of states, layouts concatenated in order."""
    factors = list(factors)
    if not factors:
        raise ValueError("tensor_product needs at least one factor")
    layout = functools.reduce(SystemLayout.concat, (f.layout for f in factors))
    return StateVector(layout, functools.reduce(np.kron, (f.amplitudes for f in factors)))


def reduced_density(state: StateVector, keep: Iterable[str]) -> HermitianMatrix:
    """Marginal density operator of a pure state, without forming the full outer product."""
    keep = set(keep)
    out_layout = state.layout.restrict(keep)
    labels = state.layout.labels
    kept_axes = [i for i, lbl in enumerate(labels) if lbl in keep]
    other_axes = [i for i, lbl in enumerate(labels) if lbl not in keep]
    t = np.transpose(state.tensorized(), kept_axes + other_axes)
    mat = t.reshape(out_layout.total_dim, -1)
    rho = mat @ mat.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return HermitianMatrix(out_layout, rho)


def permute_subsystems(state: StateVector, new_order: Sequence[str]) -> StateVector:
    """Reorder subsystems to the given label order; amplitudes follow."""
    layout = state.layout
    if sorted(new_order) != sorted(layout.labels):
        raise LayoutError(f"{tuple(new_order)} is not a permutation of {layout.labels}")
    perm = [layout.axis(lbl) for lbl in new_order]
    new_layout = SystemLayout(tuple(layout.subsystems[p] for p in perm))
    return StateVector(new_layout, np.transpose(state.tensorized(), perm).reshape(-1))


def _apply_matrix(tensorized: np.ndarray, dims: Sequence[int], axes: Sequence[int],
                  matrix: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` on the given axes of a tensorized pure state.

    Axes of ``tensorized`` before its last ``len(dims)`` index a batch of
    states, and axes of ``matrix`` before its last two a stack of matrices;
    the result has the batch axes, then the stack axes, then ``dims``.
    """
    lead, stack = tensorized.ndim - len(dims), matrix.shape[:-2]
    order = list(axes) + [i for i in range(len(dims)) if i not in axes]
    t = np.transpose(tensorized, list(range(lead)) + [lead + i for i in order])
    mat = t.reshape(t.shape[:lead] + (1,) * len(stack) + (matrix.shape[-1], -1))
    out = (matrix @ mat).reshape(t.shape[:lead] + stack + t.shape[lead:])
    lead += len(stack)
    return np.transpose(out, list(range(lead)) + [lead + i for i in np.argsort(order)])


def unitarity_deviation(u: np.ndarray) -> float:
    """``max |u^dag u - I|`` of a square matrix (NaN if an entry is not finite),
    so a gate reads ``not unitarity_deviation(u) <= tol``."""
    gram = u.conj().T @ u
    gram.flat[::len(u) + 1] -= 1.0
    return float(np.max(np.abs(gram)))


def apply_on_subsystems(state: StateVector, u: np.ndarray,
                        targets: Sequence[str]) -> StateVector:
    """Apply a unitary to the target subsystems (in the given order), identity elsewhere."""
    u = np.asarray(u, dtype=np.complex128)
    target_dim = 1
    for lbl in targets:
        target_dim *= state.layout.dim(lbl)
    if u.shape != (target_dim, target_dim):
        raise LayoutError(f"matrix shape {u.shape} does not match target dimension {target_dim}")
    if not unitarity_deviation(u) <= 1e-10:
        raise UnitarityError("matrix is not unitary within 1e-10")
    axes = [state.layout.axis(lbl) for lbl in targets]
    out = _apply_matrix(state.tensorized(), state.layout.dims, axes, u)
    return StateVector(state.layout, out.reshape(-1))


def schmidt_decompose(state: StateVector, left_labels: Iterable[str]):
    """Schmidt decomposition across the bipartition (left_labels | rest).

    Returns ``(coefficients, left_basis, right_basis)`` with descending
    non-negative coefficients and orthonormal bases such that
    ``sum_l c_l |l>_L |l>_R`` reconstructs the state with subsystems permuted
    to left-then-right order.  The bases are the SVD's: the phase of each
    pair, and the basis of a degenerate coefficient, are its choice.
    """
    left = set(left_labels)
    labels = state.layout.labels
    left_order = [lbl for lbl in labels if lbl in left]
    right_order = [lbl for lbl in labels if lbl not in left]
    if not left_order or not right_order:
        raise LayoutError("bipartition must leave at least one subsystem on each side")
    for lbl in left:
        state.layout.axis(lbl)
    left_layout = state.layout.restrict(left_order)
    right_layout = state.layout.restrict(right_order)
    perm = permute_subsystems(state, left_order + right_order)
    mat = perm.amplitudes.reshape(left_layout.total_dim, right_layout.total_dim)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    left_basis = [StateVector(left_layout, u[:, i]) for i in range(len(s))]
    right_basis = [StateVector(right_layout, vh[i, :]) for i in range(len(s))]
    return s, left_basis, right_basis
