"""Exact optimal success probabilities of port-based teleportation.

``p_fixed(n, N)`` is the optimum over measurements when the resource is N
maximally entangled pairs of 2^n-dimensional systems, in closed form
(Studzinski, Strelchuk, Mozrzymas & Horodecki, Sci. Rep. 7, 10871, 2017):

    p = d^-N sum_{alpha |- N-1, <= d rows} m_alpha^2 min_{mu = alpha + box} d_mu / m_mu

with d_mu the dimension of the symmetric-group irrep of the Young diagram mu
(hook-length formula) and m_mu that of the U(d) irrep (hook-content formula).
With the resource optimized too, the optimum is the ceiling
``signaling.bound(n, N)`` (Ishizaka & Hiroshima, PRA 79, 042306, 2009).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod


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


def p_fixed(n: int, N: int) -> Fraction:
    """The optimal success probability with N maximally entangled pairs of
    n qubits each, exactly."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    d = 2**n
    total = Fraction(0)
    for alpha in _partitions(N - 1, d, N - 1):
        grown = [alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:] for i in range(len(alpha))
                 if i == 0 or alpha[i - 1] > alpha[i]]
        grown += [alpha + (1,)] if len(alpha) < d else []
        ratio = min(Fraction(*_irrep_dims(mu, d)) for mu in grown)
        total += _irrep_dims(alpha, d)[1] ** 2 * ratio
    return total / d**N
