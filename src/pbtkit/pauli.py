"""The n-qubit Pauli operator set, the twirl identity, and Haar-random states.

The 4^n operators ``V_l`` are indexed by ``l = 1..4^n``: the base-4 digits of
``l - 1`` (most significant digit first) pick the single-qubit factor on each
qubit, so the Kronecker ordering matches :class:`~pbtkit.tensor.SystemLayout`
ordering.  Averaging any density operator over conjugation by the full set
yields the maximally mixed state exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import LayoutError
from .tensor import HermitianMatrix, StateVector, SystemLayout, check_budget

#: name of the pseudorandom bit generator; recorded in every audit report so
#: sampled results are reproducible from (algorithm, seed) alone.
RNG_ALGORITHM = "PCG64"

SIGMA = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

@dataclass(frozen=True)
class PauliIndex:
    """Index l in [1, 4^n] into the n-qubit Pauli set."""

    l: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        if not 1 <= self.l <= 4**self.n:
            raise ValueError(f"index {self.l} out of range [1, {4 ** self.n}]")

    def digits(self) -> tuple[int, ...]:
        """Base-4 digits of l-1, most significant digit = first qubit."""
        rem = self.l - 1
        out = []
        for _ in range(self.n):
            out.append(rem % 4)
            rem //= 4
        return tuple(reversed(out))


def pauli_element(idx: PauliIndex) -> np.ndarray:
    """The 2^n x 2^n unitary V_l as an explicit matrix."""
    out = np.array([[1.0 + 0j]])
    for d in idx.digits():
        out = np.kron(out, SIGMA[d])
    return out


@cache
def pauli_set(n: int) -> np.ndarray:
    """V_1 .. V_{4^n}, stacked, built once per n (read-only)."""
    paulis = np.array([pauli_element(PauliIndex(l, n)) for l in range(1, 4**n + 1)])
    paulis.setflags(write=False)
    return paulis


def twirl(rho: HermitianMatrix) -> HermitianMatrix:
    """(1/4^n) sum_l V_l rho V_l^dag; equals I/2^n for any density operator."""
    d = rho.dim
    n = d.bit_length() - 1
    if 2**n != d:
        raise LayoutError(f"twirl needs a 2^n-dimensional operator, got dimension {d}")
    ent = rho.entries
    if abs(np.trace(ent).real - 1.0) > 1e-10 or np.linalg.eigvalsh(ent)[0] < -1e-10:
        raise ValueError("twirl input must be a density operator (unit trace, PSD within 1e-10)")
    paulis = pauli_set(n)
    acc = (paulis @ ent @ paulis.conj().swapaxes(1, 2)).sum(axis=0)
    return HermitianMatrix(rho.layout, acc / 4**n)


def sample_haar_state(dim: int, seed: int) -> StateVector:
    """Haar-random pure state on system "a": a normalized complex standard-normal vector.

    Deterministic given the seed; the generator is the seedable,
    platform-independent PCG64 algorithm.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return haar_states(dim, 1, seed)[0]


def haar_amplitudes(dim: int, count: int, seed: int) -> np.ndarray:
    """``haar_states`` as one array, a state per row, normalized bit for bit as
    ``np.linalg.norm`` does it (one strided BLAS dot per real and imaginary part).
    ``LayoutError`` before anything is drawn if the draws exceed the memory budget."""
    check_budget(f"the draws of {count} Haar states of dimension {dim}", 16 * count * dim)
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = rng.standard_normal((count, 2, dim))
    vec = parts[:, 0] + 1j * parts[:, 1]
    sq = [(x[:, None, :] @ x[:, :, None])[:, 0] for x in (vec.real, vec.imag)]
    return vec / np.sqrt(sq[0] + sq[1])


def haar_states(dim: int, count: int, seed: int) -> list[StateVector]:
    """A reproducible batch of independent Haar-random states on system "a"."""
    layout = SystemLayout.of(("a", dim))
    return [StateVector(layout, vec) for vec in haar_amplitudes(dim, count, seed)]
