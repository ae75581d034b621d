"""Exact optimal success probabilities of port-based teleportation, and the
measurement that attains the fixed-resource one.

With N maximally entangled pairs of d = 2^n-dimensional systems (Studzinski,
Strelchuk, Mozrzymas & Horodecki, Sci. Rep. 7, 10871, 2017), the optimal
Choi block of port k is Phi on (input, port k) tensor
Theta = sum_alpha theta_alpha P_alpha on the other ports: alpha runs over the
Young diagrams of N-1 boxes in at most d rows, and P_alpha is the isotypic
projector of the permutations of those ports.  On its mu = alpha + box block,
sum_k Phi_k x P_alpha has the eigenvalue
lambda_mu(alpha) = N m_mu d_alpha / (m_alpha d_mu), with d_mu and m_mu the
symmetric-group (hook-length) and U(d) (hook-content) irrep dimensions.  The
optimal weights meet the least bound theta_alpha lambda_mu(alpha) <= d^-N,
and p_fixed = N sum_alpha theta_alpha m_alpha d_alpha.  With the resource
optimized too, the optimum is the ceiling ``signaling.bound(n, N)``
(Ishizaka & Hiroshima, PRA 79, 042306, 2009).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import numpy as np


def _partitions(total: int, rows: int, largest: int):
    """Young diagrams of ``total`` boxes in at most ``rows`` rows, each row at
    most ``largest`` boxes long, as non-increasing tuples."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        if rows > 1 or first == total:
            for rest in _partitions(total - first, rows - 1, first):
                yield (first,) + rest


def _irrep_dims(shape: tuple[int, ...], d: int) -> tuple[int, int]:
    """(d_mu, m_mu): the symmetric-group and U(d) irrep dimensions of ``shape``."""
    boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    hooks = prod(shape[i] - j + sum(1 for row in shape[i + 1:] if row > j) for i, j in boxes)
    return factorial(len(boxes)) // hooks, prod(d + j - i for i, j in boxes) // hooks


def _grown(alpha: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The diagrams mu = alpha + box with at most d rows."""
    out = [alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:] for i in range(len(alpha))
           if i == 0 or alpha[i - 1] > alpha[i]]
    return out + ([alpha + (1,)] if len(alpha) < d else [])


def _port_sum_eigenvalue(alpha: tuple[int, ...], mu: tuple[int, ...], d: int) -> Fraction:
    """lambda_mu(alpha), the eigenvalue of sum_k Phi_k x P_alpha on its mu block."""
    d_alpha, m_alpha = _irrep_dims(alpha, d)
    d_mu, m_mu = _irrep_dims(mu, d)
    return Fraction(sum(mu) * m_mu * d_alpha, m_alpha * d_mu)


def fixed_weights(n: int, N: int) -> dict[tuple[int, ...], Fraction]:
    """theta_alpha of the optimal fixed-resource measurement, exactly, for
    every alpha of N-1 boxes in at most 2^n rows."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    d = 2**n
    return {alpha: min(Fraction(1, d**N) / _port_sum_eigenvalue(alpha, mu, d)
                       for mu in _grown(alpha, d))
            for alpha in _partitions(N - 1, d, N - 1)}


def p_fixed(n: int, N: int) -> Fraction:
    """The optimal success probability with N maximally entangled pairs of
    n qubits each, exactly."""
    d = 2**n
    return N * sum(theta * prod(_irrep_dims(alpha, d))
                   for alpha, theta in fixed_weights(n, N).items())


def _shape_of(value: int, M: int) -> tuple[int, ...]:
    """The shape of the standard tableau of M boxes whose content vector
    (0, c_2, .., c_M) has the balanced base-2M digits c_2 + c_3 (2M) + ..."""
    rows: list[int] = []
    for k in range(M):
        content = 0
        if k:
            content = (value + M) % (2 * M) - M
            value = (value - content) // (2 * M)
        # the box goes at the end of the row whose next box has this content
        i = next((i for i, row in enumerate(rows) if row - i == content), len(rows))
        if i == len(rows):
            rows.append(0)
        rows[i] += 1
    return tuple(rows)


def isotypic_projectors(d: int, M: int) -> dict[tuple[int, ...], np.ndarray]:
    """P_alpha for every alpha of M boxes in at most d rows: the isotypic
    projectors of the permutations of the factors of (C^d)^M, real d^M x d^M.

    The Jucys-Murphy elements X_k = sum_{i<k} SWAP(i, k) commute, and their
    joint eigenvalues are the content vectors of standard tableaux.  One
    ``eigh`` of sum_k (2M)^(k-2) X_k reads each vector's contents as balanced
    digits, and the contents place the boxes of its shape."""
    dim = d**M
    weighted = np.zeros((dim, dim))
    rows, index = np.arange(dim), np.arange(dim).reshape((d,) * M)
    for k in range(1, M):
        for i in range(k):
            weighted[rows, np.swapaxes(index, i, k).reshape(-1)] += (2 * M) ** (k - 1)
    values, vectors = np.linalg.eigh(weighted)
    shapes = [_shape_of(round(value), M) for value in values]
    projectors = {}
    for alpha in dict.fromkeys(shapes):
        picked = vectors[:, [shape == alpha for shape in shapes]]
        projectors[alpha] = picked @ picked.T
    return projectors
