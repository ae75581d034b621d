"""Measurement branches of many inputs at once.

A generalized measurement with update maps K_k is linear in the measured
state, so the branches (K_k x I)|state_s> of S pure states are one stacked
matrix product.  A :class:`BranchBatch` holds them as one (inputs, outcomes,
dim) array, and probabilities, marginals and residual states are read off it
with array operations.  Large sample sets are processed in chunks whose
branch amplitudes fit in BATCH_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .errors import LayoutError, SampleCountError
from .tensor import SystemLayout, _apply_matrix

#: branches below this probability are "impossible": reported as 0, no state
BRANCH_PRUNE = 1e-12
#: bytes of branch amplitudes (inputs x outcomes x dim) that one chunk of a
#: sample set may hold; a chunk has at least one input
BATCH_BYTES = 2 << 20

#: one subsystem label, or a tuple of them
Labels = Union[str, Sequence[str]]


@dataclass(frozen=True)
class BranchBatch:
    """``amplitudes[s, k]``: the unnormalized branch k of input s over
    ``layout``; ``q[s, k]``: its probability.  A branch below BRANCH_PRUNE
    has probability 0 and zero amplitudes, so it adds to no marginal."""

    layout: SystemLayout
    amplitudes: np.ndarray
    q: np.ndarray

    @classmethod
    def of(cls, layout: SystemLayout, amplitudes: np.ndarray) -> "BranchBatch":
        """Wrap writable branch amplitudes, pruning them; each probability is
        one BLAS dot, the same sum ``np.vdot`` forms."""
        q = (amplitudes.conj()[..., None, :] @ amplitudes[..., None])[..., 0, 0].real.copy()
        amplitudes[q < BRANCH_PRUNE] = 0.0
        q[q < BRANCH_PRUNE] = 0.0
        return cls(layout, amplitudes, q)

    @property
    def present(self) -> np.ndarray:
        return self.q > 0.0

    def split(self, labels: Labels, k=slice(None)) -> np.ndarray:
        """The branches (or only those of outcome ``k``) as matrices: rows over
        the subsystem(s) ``labels`` in the given order, columns over the others
        in layout order."""
        labels = (labels,) if isinstance(labels, str) else tuple(labels)
        amps = self.amplitudes[:, k]
        lead = amps.ndim - 1
        t = np.moveaxis(amps.reshape(amps.shape[:lead] + self.layout.dims),
                        [lead + self.layout.axis(lbl) for lbl in labels],
                        range(lead, lead + len(labels)))
        rows = math.prod(self.layout.dim(lbl) for lbl in labels)
        return t.reshape(amps.shape[:lead] + (rows, -1))

    def marginals(self, labels: Labels, k=slice(None)) -> np.ndarray:
        """Marginals of the subsystem(s) ``labels``, each times its branch probability."""
        m = self.split(labels, k)
        return m @ m.conj().swapaxes(-1, -2)

    def normalized(self, values: np.ndarray, k=slice(None)) -> np.ndarray:
        """Per-branch ``values``, leading axes those of ``q[:, k]``, over the
        branch probabilities (pruned branches stay 0)."""
        q = np.where(self.q[:, k] > 0.0, self.q[:, k], 1.0)
        return values / q.reshape(q.shape + (1,) * (values.ndim - q.ndim))

    def residuals(self, labels: Labels, k) -> np.ndarray:
        """The state of the other subsystems in the branches of outcome(s)
        ``k`` that factorize across ``labels``: the top right singular vector.
        Only outcomes that some input reached are factored; the rows of the
        others stay 0."""
        m = self.split(labels, k)
        out = np.zeros(m.shape[:-2] + m.shape[-1:], m.dtype)
        # a scalar k gives a 0-d mask, which indexes as a new axis of length 0 or 1
        reached = self.present[:, k].any(axis=0)
        if reached.any():
            out[:, reached] = np.linalg.svd(m[:, reached], full_matrices=False)[2][..., 0, :]
        return out


def povm_branches(states: np.ndarray, layout: SystemLayout, roots: np.ndarray,
                  targets: Sequence[str]) -> BranchBatch:
    """Branches of each pure state in ``states`` (rows, over ``layout``)
    under the update maps ``roots`` on the target subsystems."""
    roots = np.asarray(roots)
    axes = [layout.axis(lbl) for lbl in targets]
    amps = _apply_matrix(states.reshape((-1,) + layout.dims), layout.dims, axes, roots)
    amps = np.ascontiguousarray(amps).reshape(len(states), len(roots), -1)
    return BranchBatch.of(layout, amps)


def require_samples(samples: int, name: str = "samples") -> None:
    """Raise ``SampleCountError``, naming the count, unless it is at least 1."""
    if samples < 1:
        raise SampleCountError(f"{name} must be at least 1, got {samples}")


def require_width(inputs: np.ndarray, width: int) -> None:
    """Raise ``LayoutError``, naming both widths, unless ``inputs`` are rows
    of ``width`` amplitudes."""
    if np.ndim(inputs) != 2 or inputs.shape[1] != width:
        raise LayoutError(f"inputs must be rows of {width} amplitudes (the input "
                          f"dimension), got an array of shape {np.shape(inputs)}")


def input_chunks(inputs: np.ndarray, branch_dim: int) -> Iterator[np.ndarray]:
    """Consecutive blocks of rows of ``inputs`` whose branches, ``branch_dim``
    complex amplitudes per row, fit in BATCH_BYTES (at least one row each)."""
    size = max(1, BATCH_BYTES // (16 * branch_dim))
    return (inputs[start:start + size] for start in range(0, len(inputs), size))


class Drift:
    """The largest ``distance(first, values)`` of per-input values from each
    outcome's first present value.  ``add`` takes the next inputs in sample
    order: values (inputs, outcomes, ...) and the mask of the present ones;
    ``seen`` marks the outcomes present so far."""

    def __init__(self, distance: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.distance, self.first, self.worst = distance, None, 0.0

    def add(self, values: np.ndarray, present: np.ndarray) -> None:
        if self.first is None:
            self.first, self.seen = np.zeros_like(values[0]), np.zeros(present.shape[1], bool)
        new = present.any(axis=0) & ~self.seen
        self.first[new] = values[present.argmax(axis=0)[new], new]
        self.seen |= new
        distance = self.distance(self.first, values)
        self.worst = max(self.worst, float(np.max(distance, where=present, initial=0.0)))


def infidelity(first: np.ndarray, states: np.ndarray) -> np.ndarray:
    """1 - |<first_k|state_sk>|^2 of (outcomes, dim) and (inputs, outcomes, dim) states."""
    return 1.0 - np.abs(np.einsum("kr,skr->sk", first.conj(), states)) ** 2
