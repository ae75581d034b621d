"""Success-probability maximization over the sender's measurement.

A measurement teleports perfectly on every success outcome when, for every
operator X on the input space, the port-k output of element M_k is q_k X.
With positivity of the M_k and of the leftover failure element, maximizing
sum_k q_k is a semidefinite program, in two forms.  ``build_sdp``/``solve``
keep the resource fixed to N maximally entangled pairs, whose optimum
``optima`` gives in closed form: the optimal measurement is constructed, not
iterated toward.  ``build_joint_sdp``/``solve_joint`` optimize the resource
too, over the conditional Choi operators of the input-to-port maps (a valid
protocol exactly when they are PSD and sum below identity x resource
marginal), by a first-order consensus splitting scheme in the exact PSD-cone
faces that the teleportation constraint pins.  A rounding pass makes the
answer exactly feasible, so it is a true lower bound under the ceiling
N/(4^n + N - 1), and a steering construction turns it into a concrete
resource state and measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .branches import input_chunks
from .engine import PbtProtocol, measure, port_label, standard_resource, teleport_report
from .errors import LayoutError, ProtocolError
from .optima import fixed_weights, isotypic_projectors, p_fixed
from .pauli import haar_amplitudes
from .report import AuditReport
from .signaling import BOUND_ATOL, bound
from .tensor import HermitianMatrix, StateVector, SystemLayout, check_budget

#: largest total protocol dimension accepted by the optimizer
DIMENSION_CAP = 1 << 15
#: weight of the maximally mixed state mixed into the marginal before the
#: steering construction, so that its inverse square root exists
EXTRACTION_PAD = 1e-7


# ---------------------------------------------------------------------------
# orthonormal real parameterization of Hermitian matrices


@lru_cache(maxsize=None)
def _coordinate_map(d: int, count: int = 1) -> tuple[np.ndarray, ...]:
    """Index arrays of the Hermitian coordinate map over the interleaved
    (Re, Im) storage of ``count`` d x d complex matrices, back to back.

    Coordinates are the diagonal, then sqrt(2) (Re, Im) of each upper entry
    in row-major order, per matrix.  Returns, for ``herm_to_vec``, the storage
    slot and weight of each coordinate, and for ``vec_to_herm``, the coordinate
    and weight of each slot (weight 0 for the diagonal's imaginary parts)."""
    rows, cols = np.triu_indices(d, 1)
    upper = np.stack([2 * (rows * d + cols), 2 * (rows * d + cols) + 1], -1).ravel()
    lower = np.stack([2 * (cols * d + rows), 2 * (cols * d + rows) + 1], -1).ravel()
    slots = np.concatenate([2 * (d + 1) * np.arange(d), upper])
    slot_weights = np.concatenate([np.ones(d), np.full(upper.size, np.sqrt(2.0))])
    coords = np.zeros(2 * d * d, dtype=np.intp)
    weights = np.zeros(2 * d * d)
    coords[slots] = np.arange(d * d)
    weights[slots] = np.concatenate([np.ones(d), np.full(upper.size, 1.0 / np.sqrt(2.0))])
    coords[lower] = coords[upper]
    weights[lower] = weights[upper] * np.tile([1.0, -1.0], rows.size)  # conjugate
    blocks = np.arange(count)[:, None]
    return ((slots + 2 * d * d * blocks).ravel(), np.tile(slot_weights, count),
            (coords + d * d * blocks).ravel(), np.tile(weights, count))


def herm_to_vec(m: np.ndarray) -> np.ndarray:
    """Coordinates in the orthonormal Hermitian basis (a Frobenius isometry);
    leading axes are batch axes."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    d = m.shape[-1]
    slots, slot_weights, _, _ = _coordinate_map(d)
    storage = m.reshape(m.shape[:-2] + (d * d,)).view(np.float64)
    return storage[..., slots] * slot_weights


def vec_to_herm(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of ``herm_to_vec``; leading axes are batch axes."""
    vec = np.asarray(vec, dtype=np.float64)
    _, _, coords, weights = _coordinate_map(d)
    storage = np.ascontiguousarray(vec[..., coords] * weights)
    return storage.view(np.complex128).reshape(vec.shape[:-1] + (d, d))


def _eigh(a: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh`` of a stack of complex Hermitian matrices (only
    ``eigvalsh``'s eigenvalues without ``vectors``), read from the lower
    triangle: the LAPACK gufunc numpy's function calls, without its Python
    wrapper, so the same bits.  An output that is not finite (a non-finite
    input, or LAPACK not converging) is computed again by numpy's function,
    which returns the same NaNs or raises the same ``LinAlgError``; on that
    path alone the gufunc may warn first, as it clears the floating-point
    flags whenever LAPACK succeeds."""
    if vectors:
        out = _umath_linalg.eigh_lo(a, signature="D->dD")
        w = out[0]
    else:
        out = w = _umath_linalg.eigvalsh_lo(a, signature="D->d")
    if math.isfinite(np.add.reduce(w, None)):
        return out
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def hermitian_basis(d: int) -> np.ndarray:
    """The orthonormal Hermitian basis of C^{d x d}, stacked as (d^2, d, d)."""
    return vec_to_herm(np.eye(d * d), d)


def _lift_matrix(basis: np.ndarray) -> np.ndarray:
    """Real-coordinate matrix of Y -> V Y V^dag for an isometry V (big^2 x r^2)."""
    ys = hermitian_basis(basis.shape[1])
    return np.ascontiguousarray(herm_to_vec(basis @ ys @ basis.conj().T).T)


def _omega_vec(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128).reshape(-1)


def _place_port(t: np.ndarray, d: int, N: int, k: int, axis: int) -> np.ndarray:
    """Reorder one axis of ``t`` from (input, port k, other ports) to
    (input, ports 1..N)."""
    shape = t.shape
    t = t.reshape(shape[:axis] + (d,) * (N + 1) + shape[axis + 1:])
    return np.moveaxis(t, axis + 1, axis + k).reshape(shape)


def _choi_face(d: int, N: int, k: int) -> np.ndarray:
    """Orthonormal columns (Omega on input x port k)/sqrt(d) tensor |t> on the
    other ports, one column per basis state t of the other ports."""
    face = np.kron(_omega_vec(d)[:, None] / np.sqrt(d), np.eye(d ** (N - 1)))
    return _place_port(face, d, N, k, 0)


# ---------------------------------------------------------------------------
# the fixed-resource optimum, constructed


@dataclass
class PbtSdp:
    """The fixed-resource problem: the standard resource of N maximally
    entangled pairs, the operator Theta = sum_alpha theta_alpha P_alpha on
    N-1 ports that its optimal measurement is built from, and the exact
    optimum ``p_fixed``."""

    n: int
    N: int
    resource: StateVector
    theta: np.ndarray             # real d^(N-1) x d^(N-1)
    p_upper: float


def build_sdp(n: int, N: int) -> PbtSdp:
    """The fixed-resource problem for N pairs of n qubits: the exact weights
    of ``optima.fixed_weights`` on the isotypic projectors they multiply.
    ``LayoutError`` above the optimizer cap, before anything is built."""
    d = 2**n
    global_dim = d ** (2 * N + 1)
    if global_dim > DIMENSION_CAP:
        raise LayoutError(
            f"global dimension {global_dim} exceeds the optimizer cap {DIMENSION_CAP}"
        )
    projectors = isotypic_projectors(d, N - 1)
    theta = sum(float(weight) * projectors[alpha]
                for alpha, weight in fixed_weights(n, N).items())
    return PbtSdp(n=n, N=N, resource=standard_resource(n, N), theta=theta,
                  p_upper=float(p_fixed(n, N)))


# ---------------------------------------------------------------------------
# problem assembly: joint (resource-optimizing) form


@dataclass
class JointPbtSdp:
    """Choi-form teleportation SDP with the resource marginal as a variable.

    Variables: Choi blocks J_1..J_N on (input x ports), the port-side
    marginal sigma, and the success weights q.  A family is realizable by
    some resource and measurement exactly when every J_k is PSD and
    sum_k J_k <= identity x sigma.  The per-port teleportation constraints
    read blocks[k] @ herm_to_vec(J_k) = q_k * rhs_pattern."""

    n: int
    N: int
    dim_choi: int                  # 2^n * 2^(nN)
    dim_sigma: int                 # 2^(nN)
    blocks: list[np.ndarray]       # per port: rows x dim_choi^2
    rhs_pattern: np.ndarray        # Choi of the identity map, in row coordinates
    embed: np.ndarray              # sigma coordinates -> (identity x sigma) coordinates
    p_upper: Optional[float] = None  # the optimum over resources, the ceiling

    def faces(self) -> list[np.ndarray]:
        return [_choi_face(2**self.n, self.N, k) for k in range(1, self.N + 1)]

    def port_map_residual(self, ops: Sequence[np.ndarray], qs: Sequence[float]) -> float:
        """Max violation of the teleportation constraints, in basis coordinates."""
        return max(float(np.max(np.abs(block @ herm_to_vec(op) - q * self.rhs_pattern)))
                   for block, op, q in zip(self.blocks, ops, qs))

    def fit_q(self, op: np.ndarray, k: int) -> float:
        lhs = self.blocks[k] @ herm_to_vec(op)
        return float(lhs @ self.rhs_pattern / (self.rhs_pattern @ self.rhs_pattern))


def _psd_violation(ms: Sequence[np.ndarray]) -> float:
    """Most negative eigenvalue over the elements and the leftover
    identity - sum(ms), as a non-negative violation."""
    slack = np.eye(ms[0].shape[0]) - sum(ms)
    return max(float(max(0.0, -np.linalg.eigvalsh(m)[0])) for m in [*ms, slack])


def _joint_array_bytes(n: int, N: int) -> int:
    """Bytes of the largest array ``build_joint_sdp`` and ``_FaceProblem`` build:
    the complex port adjoint or sigma embedding, the lifts W or their Gram inverse."""
    d = 2**n
    choi_entries = d ** (2 * N + 2)
    sigma_coords = d ** (2 * N)
    face_coords = N * d ** (2 * N - 2) + sigma_coords
    return max(16 * d**4 * choi_entries, 16 * sigma_coords * choi_entries,
               8 * face_coords * choi_entries, 8 * face_coords**2)


def build_joint_sdp(n: int, N: int) -> JointPbtSdp:
    """Assemble the joint constraint system over Choi variables.
    ``LayoutError`` above the optimizer cap, or when its largest array
    (``_joint_array_bytes``) exceeds the memory budget, before anything is
    built."""
    d = 2**n
    dim_sigma = d**N
    dim_choi = d * dim_sigma
    if d * dim_sigma * dim_sigma > DIMENSION_CAP:
        raise LayoutError(
            f"extracted protocol dimension {d * dim_sigma**2} exceeds the cap "
            f"{DIMENSION_CAP}"
        )
    check_budget(f"the largest array of the joint problem at n={n}, N={N}",
                 _joint_array_bytes(n, N))
    # row c of block k is <H_c, port-k Choi of J> = Tr((H_c x I_others) J)
    adjoint = np.kron(hermitian_basis(d * d), np.eye(d ** (N - 1)))
    blocks = [herm_to_vec(_place_port(_place_port(adjoint, d, N, k, 1), d, N, k, 2))
              for k in range(1, N + 1)]
    omega = _omega_vec(d)
    rhs = herm_to_vec(np.outer(omega, omega.conj()))
    # column e is the coordinates of I_d x (sigma basis element e)
    embed = np.ascontiguousarray(
        herm_to_vec(np.kron(np.eye(d), hermitian_basis(dim_sigma))).T)
    return JointPbtSdp(n=n, N=N, dim_choi=dim_choi, dim_sigma=dim_sigma, blocks=blocks,
                       rhs_pattern=rhs, embed=embed, p_upper=float(bound(n, N)))


# ---------------------------------------------------------------------------
# solver


# The splitting scheme's settings.  The run has two phases: an
# adaptive-penalty phase that makes objective progress, then a stiff-penalty
# refinement phase (no over-relaxation, no adaptation) that drives the
# iterate onto the constraint set so the final rounding loses almost nothing.
#
# The switch fires once the adaptive phase stalls: the best relative primal
# residual of a window of ``4 * ADAPT_EVERY`` iterations fails to halve the
# previous window's best.  REFINE_FRACTION only bounds it: the switch happens
# at the latest when that fraction of ``max_iterations`` is left.  The run
# stops (``converged``) on the first of two tests.  The certificate (problems
# that know their exact optimum ``p_upper``): every ADAPT_EVERY iterations,
# the answer rounded from the iterate is within OBJECTIVE_TOLERANCE of it.
# The stall test: after at least ``2 * ADAPT_EVERY`` stiff iterations, the
# relative primal residual is below PRIMAL_TOLERANCE and the objective moved
# less than OBJECTIVE_TOLERANCE over those iterations.  Otherwise
# ``max_iterations`` ends the run.
PRIMAL_TOLERANCE = 1e-6
OBJECTIVE_TOLERANCE = 1e-6
PENALTY = 1.0
OVER_RELAXATION = 1.6
ADAPT_EVERY = 25
REFINE_FRACTION = 0.35
REFINE_PENALTY = 1000.0
#: most affine-projection / PSD-clip passes per port in the final rounding
ROUNDING_PASSES = 500


@dataclass
class SolveResult:
    p_opt: float
    protocol: PbtProtocol
    q: np.ndarray
    residuals: dict[str, float]
    converged: bool
    iterations: int
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    switch_iteration: int = 0     # first iteration of the stiff phase, 0 if none
    p_upper: Optional[float] = None  # the exact optimum, where theory gives it
    stopped_by: str = "cap"       # "certificate", "stall" or "cap"


class _FaceProblem:
    """The splitting scheme in exact face coordinates.

    Variables: per-port face blocks Y_k (PSD), the resource marginal sigma
    (PSD, unit trace), and the weights q (box [0, 1]).  Consensus slots add
    the shared big-space slack, which must stay PSD:
    slack = embed(sigma) - sum_k lift_k(Y_k).  Cone-side iterates are flat
    vectors laid out as [Y_1 .. Y_N, slack, sigma, q].
    """

    def __init__(self, sdp: JointPbtSdp):
        self.n, self.N, self.rhs, self.rows = sdp.n, sdp.N, sdp.rhs_pattern, sdp.rhs_pattern.size
        self.dim_big, self.dim_sigma, self.embed = sdp.dim_choi, sdp.dim_sigma, sdp.embed
        self.faces = sdp.faces()
        # every port face is spanned by the same number of vectors
        self.face_dim = self.faces[0].shape[1]
        self.lifts = [_lift_matrix(v) for v in self.faces]
        self.red_blocks = [sdp.blocks[k] @ self.lifts[k] for k in range(self.N)]
        self.n_y = n_y = self.N * self.face_dim**2
        self.n_s = n_s = self.embed.shape[1]
        n_slack = self.dim_big**2
        self.sl_y = slice(0, n_y)
        self.sl_slack = slice(n_y, n_y + n_slack)
        self.sl_s = slice(n_y + n_slack, n_y + n_slack + n_s)
        self.sl_q = slice(n_y + n_slack + n_s, n_y + n_slack + n_s + self.N)
        self.x_slots = np.r_[self.sl_y, self.sl_s, self.sl_q]  # the affine step's [Y, sigma, q]
        # the affine step's iterate, written in place: [Y, sigma] then q
        self.x = np.empty(n_y + n_s + self.N)
        self.x_ys, self.x_q = self.x[: n_y + n_s], self.x[n_y + n_s :]

        # H = I + W^T W with W = [-L_1 .. -L_N, embed]: small, materialized
        self.w_cols = w_cols = np.hstack([-lift for lift in self.lifts] + [self.embed])
        self.h_inv = np.linalg.inv(np.eye(n_y + n_s) + w_cols.T @ w_cols)

        # constraint rows: per port [B_k | -rhs on q_k], plus unit trace of sigma
        n_rows = self.N * self.rows + 1
        a_mat = np.zeros((n_rows, n_y + n_s + self.N))
        for k, red in enumerate(self.red_blocks):
            rows = slice(k * self.rows, (k + 1) * self.rows)
            a_mat[rows, k * red.shape[1] : (k + 1) * red.shape[1]] = red
            a_mat[rows, n_y + n_s + k] = -self.rhs
        a_mat[-1, n_y : n_y + self.dim_sigma] = 1.0
        self.a_mat, self.b_vec = a_mat, np.r_[np.zeros(n_rows - 1), 1.0]
        h_inv_full = np.eye(n_y + n_s + self.N)
        h_inv_full[: n_y + n_s, : n_y + n_s] = self.h_inv
        gram = a_mat @ h_inv_full @ a_mat.T
        self.gram_inv = np.linalg.inv(gram + 1e-13 * np.eye(n_rows))
        self.hia_t = h_inv_full @ a_mat.T
        # the rounding's per-port rows [B_k | -rhs on q_k] and their Gram inverses
        self.bars = [np.hstack([red, -self.rhs[:, None]]) for red in self.red_blocks]
        self.bar_factors = [np.linalg.inv(bar @ bar.T + 1e-14 * np.eye(bar.shape[0]))
                            for bar in self.bars]
        # the PSD blocks Y_1..Y_N, slack, sigma lie back to back before q
        self.sl_psd = slice(0, self.sl_q.start)
        self.clip = _PsdClip((self.face_dim, self.N), (self.dim_big, 1), (self.dim_sigma, 1))

    def slack_of(self, y: np.ndarray, s: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.matmul(self.embed, s, out=out)
        for lift, yk in zip(self.lifts, y.reshape(self.N, -1)):
            out -= lift @ yk
        return out

    def affine_step(self, v: np.ndarray, rho: float, out: np.ndarray) -> None:
        """Penalized minimization over the affine constraint set, from the
        cone-side point ``v``; writes the matching flat iterate to ``out``."""
        x = self.x
        g_ys = v[self.x_slots[: -self.N]] + self.w_cols.T @ v[self.sl_slack]
        np.matmul(self.h_inv, g_ys, out=self.x_ys)
        np.add(v[self.sl_q], 1.0 / rho, out=self.x_q)
        x -= self.hia_t @ (self.gram_inv @ (self.a_mat @ x - self.b_vec))
        out[self.x_slots] = x
        self.slack_of(x[: self.n_y], x[self.n_y : -self.N], out[self.sl_slack])

    def project(self, x: np.ndarray, out: np.ndarray) -> None:
        """Cone-side step: PSD clips of every block, box clip of q (the
        bits of ``np.clip(x, 0, 1)``: a scalar-first ``maximum`` keeps -0.0)."""
        self.clip(x[self.sl_psd], out[self.sl_psd])
        q = out[self.sl_q]
        np.minimum(1.0, np.maximum(0.0, x[self.sl_q], out=q), out=q)


class _PsdClip:
    """Nearest PSD matrices, in coordinates, of Hermitian blocks laid back to
    back in a flat vector: per ``(d, count)`` group, ``count`` d x d blocks.
    One gather fills one storage buffer, each group goes through one stacked
    ``eigh``, and one scatter writes the coordinates back."""

    def __init__(self, *groups: tuple[int, int]):
        slots, slot_weights, coords, weights = zip(*(_coordinate_map(d, count)
                                                     for d, count in groups))
        sizes = [d * d * count for d, count in groups]  # coordinates per group
        starts = np.cumsum([0] + sizes[:-1])
        self.slots = np.concatenate([sl + 2 * at for sl, at in zip(slots, starts)])
        self.slot_weights = np.concatenate(slot_weights)
        self.coords = np.concatenate([co + at for co, at in zip(coords, starts)])
        self.weights = np.concatenate(weights)
        self.storage = np.empty(2 * sum(sizes))
        self.herms = [self.storage[2 * at : 2 * (at + size)].view(np.complex128)
                      .reshape(count, d, d)
                      for (d, count), at, size in zip(groups, starts, sizes)]

    def __call__(self, vec: np.ndarray, out: np.ndarray) -> None:
        np.multiply(vec[self.coords], self.weights, out=self.storage)
        for herm in self.herms:
            w, v = _eigh(herm)
            np.maximum(w, 0.0, out=w)
            np.matmul(v * w[:, None, :], v.conj().swapaxes(-1, -2), out=herm)
        np.multiply(self.storage[self.slots], self.slot_weights, out=out)


def _run_splitting(fp: _FaceProblem, max_iterations: int, score: Callable[[np.ndarray], dict],
                   p_upper: Optional[float] = None):
    """Iterate the consensus splitting; returns ``score`` (a dict with
    ``p_opt``) of the final cone-side iterate, or of the checkpoint that met
    ``p_upper``, and the run record: whether a stop test fired, which one or
    the cap ended the run, the iteration count, the first stiff iteration and
    the (iteration, objective, relative primal residual) trace."""
    r = fp.face_dim
    init = np.broadcast_to(np.eye(r) / (fp.N + 1), (fp.N, r, r))
    y = herm_to_vec(init).reshape(-1)
    s = herm_to_vec(np.eye(fp.dim_sigma) / fp.dim_sigma)
    q = [float((red @ yk) @ fp.rhs / (fp.rhs @ fp.rhs))
         for red, yk in zip(fp.red_blocks, y.reshape(fp.N, -1))]
    z = np.concatenate([y, fp.slack_of(y, s), s, q])
    u = np.zeros_like(z)
    # iterate buffers; z and z_next alternate, as the dual residual reads both
    z_next, x, x_hat, shifted, work = np.empty((5, z.size))
    watched = slice(0, fp.sl_slack.stop)  # Y and slack: residuals are measured here

    window = 4 * ADAPT_EVERY     # stall test: best residual per window
    min_stiff = 2 * ADAPT_EVERY  # stiff iterations before the stop test
    latest_switch = max(1, int(max_iterations * (1.0 - REFINE_FRACTION)))
    best_prev = best_now = np.inf
    stalled = False
    rho, alpha, switch = PENALTY, OVER_RELAXATION, 0
    trace: list[tuple[int, float, float]] = []
    stopped_by = "cap"
    answered = 0  # the iteration whose iterate ``answer`` scores
    for iteration in range(1, max_iterations + 1):
        if not switch and (stalled or iteration >= latest_switch):
            u *= rho / REFINE_PENALTY
            rho, alpha, switch = REFINE_PENALTY, 1.0, iteration
        fp.affine_step(np.subtract(z, u, out=shifted), rho, x)
        np.multiply(x, alpha, out=x_hat)
        x_hat += np.multiply(z, 1 - alpha, out=work)
        fp.project(np.add(x_hat, u, out=shifted), z_next)
        u += np.subtract(x_hat, z_next, out=work)

        diff = np.subtract(x[watched], z_next[watched], out=work[watched])
        primal = math.sqrt(_norm(diff[fp.sl_y]) ** 2 + _norm(diff[fp.sl_slack]) ** 2)
        dual = rho * _norm(np.subtract(z_next[watched], z[watched], out=diff))
        z, z_next = z_next, z
        scale = max(1.0, _norm(x[fp.sl_y]), _norm(z[fp.sl_y]))
        obj, relative = float(x[fp.sl_q].sum()), primal / scale
        trace.append((iteration, obj, relative))

        if p_upper is not None and iteration % ADAPT_EVERY == 0:
            answer, answered = score(z), iteration
            if p_upper - answer["p_opt"] <= OBJECTIVE_TOLERANCE:
                stopped_by = "certificate"
                break
        if switch:
            if (iteration - switch >= min_stiff and relative < PRIMAL_TOLERANCE
                    and abs(obj - trace[-1 - min_stiff][1]) < OBJECTIVE_TOLERANCE):
                stopped_by = "stall"
                break
            continue
        best_now = min(best_now, relative)
        if iteration % window == 0:
            stalled = best_now >= 0.5 * best_prev
            best_prev, best_now = best_now, np.inf
        if iteration % ADAPT_EVERY == 0:
            if primal > 10 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10 * primal:
                rho /= 2.0
                u *= 2.0

    if answered != iteration:
        answer = score(z)
    return answer, dict(converged=stopped_by != "cap", stopped_by=stopped_by,
                        iterations=iteration, switch_iteration=switch, trace=trace)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a flat vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v.dot(v))


def _round_on_face(fp: _FaceProblem, z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Alternate affine projection and PSD clipping per port, in face coords.
    One buffer holds [Y_k, q_k] through the passes, which index the cached
    coordinate maps of ``vec_to_herm``/``herm_to_vec`` directly."""
    r, ys, qs = fp.face_dim, [], np.zeros(fp.N)
    slots, slot_weights, coords, weights = _coordinate_map(r)
    x = np.empty(r * r + 1)
    y_vec = x[:-1]
    for k, z_y in enumerate(z[fp.sl_y].reshape(fp.N, -1)):
        bar, factor = fp.bars[k], fp.bar_factors[k]
        y_vec[:] = z_y
        x[-1] = z[fp.sl_q][k]
        for _ in range(ROUNDING_PASSES):
            x -= bar.T @ (factor @ (bar @ x))
            q = float(x[-1])
            lam_y, v_y = _eigh((x[coords] * weights).view(np.complex128).reshape(r, r))
            clip = float(max(0.0, -lam_y[0]))
            np.maximum(lam_y, 0.0, out=lam_y)
            y_herm = (v_y * lam_y) @ v_y.conj().T
            np.multiply(y_herm.reshape(-1).view(np.float64)[slots], slot_weights, out=y_vec)
            residual = float(np.maximum.reduce(np.abs(fp.red_blocks[k] @ y_vec - q * fp.rhs)))
            if residual < 1e-13 and clip < 1e-13:
                break
        ys.append(vec_to_herm(y_vec, r))
        qs[k] = max(q, 0.0)
    return ys, qs


def solve(sdp: PbtSdp) -> SolveResult:
    """The optimal measurement on the standard resource, constructed:
    M_k = d^N Phi x Theta with Phi = |sum_i ii><sum_i ii| on (input, A_k), and
    the failure element the exact leftover.  The Choi block of port k is
    Phi x Theta / d^N, so every M_k teleports exactly, with q_k = tr Theta."""
    n, N, d = sdp.n, sdp.N, 2**sdp.n
    phi = np.outer(_omega_vec(d), _omega_vec(d)).real
    block = d**N * np.kron(phi, sdp.theta)
    ms = [_place_port(_place_port(block, d, N, k, 0), d, N, k, 1) for k in range(1, N + 1)]
    qs = np.full(N, np.trace(sdp.theta))
    layout = SystemLayout.of(("a", d), ("A", d**N))
    povm = tuple(HermitianMatrix(layout, m) for m in [np.eye(d * d**N) - sum(ms), *ms])
    protocol = PbtProtocol(n=n, N=N, resource=sdp.resource, povm=povm)
    teleportation = max(float(np.max(np.abs(_port_choi(m, d, N, k) / d**N - q * phi)))
                        for k, (m, q) in enumerate(zip(ms, qs), start=1))
    residuals = {"teleportation": teleportation, "completeness": 0.0,
                 "psd": _psd_violation(ms)}
    return SolveResult(p_opt=float(qs.sum()), protocol=protocol, q=qs, residuals=residuals,
                       converged=True, iterations=0, p_upper=sdp.p_upper,
                       stopped_by="certificate")


def solve_joint(sdp: JointPbtSdp, max_iterations: int = 20_000) -> SolveResult:
    """Optimize measurement and resource together by the splitting scheme;
    an answer is the protocol extracted from the rounded Choi blocks.  Each
    checkpoint only scores its iterate (``_score``); the protocol is built
    once, for the answer returned.  ``ValueError`` before any work unless
    ``max_iterations`` is at least 1."""
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    fp = _FaceProblem(sdp)
    scored, run = _run_splitting(fp, max_iterations, lambda z: _score(fp, z), sdp.p_upper)
    js = scored["js"]
    protocol, qs = extract_protocol(sdp.n, sdp.N, js, scored["sigma"])
    qs_fit = [sdp.fit_q(j, k) for k, j in enumerate(js)]
    residuals = {"teleportation": sdp.port_map_residual(js, qs_fit), "completeness": 0.0,
                 "psd": _psd_violation([m.entries for m in protocol.povm[1:]])}
    return SolveResult(p_opt=float(qs.sum()), protocol=protocol, q=qs, residuals=residuals,
                       **run, p_upper=sdp.p_upper)


def _score(fp: _FaceProblem, z: np.ndarray) -> dict:
    """The answer the cone-side iterate ``z`` rounds to, up to its objective:
    the rounded Choi blocks ``js``, the marginal ``sigma`` and ``p_opt``, the
    same float ``extract_protocol`` gives them."""
    ys, _ = _round_on_face(fp, z)
    js = [face @ y @ face.conj().T for face, y in zip(fp.faces, ys)]
    js = [0.5 * (j + j.conj().T) for j in js]
    sigma = vec_to_herm(z[fp.sl_s], fp.dim_sigma)
    return dict(p_opt=float(_steering(fp.n, fp.N, js, sigma)[-1].sum()), js=js, sigma=sigma)


def _steering(n: int, N: int, js: Sequence[np.ndarray], sigma: np.ndarray):
    """The part of the steering construction that sets the success weights:
    the padded marginal's eigendecomposition (w, v), the lift by its inverse
    square root, the shrink factor and the weights q."""
    d = 2**n
    ds = d**N
    sigma = 0.5 * (sigma + sigma.conj().T)
    sigma = (1.0 - EXTRACTION_PAD) * sigma + EXTRACTION_PAD * np.eye(ds) / ds
    sigma = sigma / np.trace(sigma).real
    w, v = _eigh(sigma)
    w = np.maximum(w, EXTRACTION_PAD / (2 * ds))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T

    lift = np.kron(np.eye(d), inv_sqrt)
    sandwich = lift @ sum(js) @ lift.conj().T
    lam_max = float(_eigh(sandwich, vectors=False)[-1])
    shrink = 1.0 if lam_max <= 1.0 else (1.0 - 1e-12) / lam_max
    omega = _omega_vec(d)
    qs = np.array([float(np.vdot(omega, _port_choi(j_op * shrink, d, N, k + 1) @ omega).real)
                   / (d * d) for k, j_op in enumerate(js)])
    return (w, v), lift, shrink, qs


def extract_protocol(n: int, N: int, js: Sequence[np.ndarray],
                     sigma: np.ndarray) -> tuple[PbtProtocol, np.ndarray]:
    """Steering construction: turn Choi blocks and a port marginal into a
    concrete resource state and measurement.

    The resource is the canonical purification of the (slightly padded,
    hence full-rank) marginal with the purifying system as A; each element is
    its Choi block conjugated by the marginal's inverse square root, then
    complex-conjugated.  The family is shrunk by the exact factor that keeps
    the failure element PSD; the homogeneous teleportation constraints
    survive with rescaled success weights."""
    d = 2**n
    ds = d**N
    (w, v), lift, shrink, qs = _steering(n, N, js, sigma)
    sqrt_sigma = (v * np.sqrt(w)) @ v.conj().T

    layout = SystemLayout(
        (("A", ds),) + tuple((port_label(j), d) for j in range(1, N + 1)))
    amps = sqrt_sigma.T.reshape(-1)
    resource = StateVector(layout, amps / np.linalg.norm(amps))

    povm_layout = SystemLayout.of(("a", d), ("A", ds))
    ms = [np.conj(lift @ (shrink * j_op) @ lift.conj().T) for j_op in js]
    ms = [0.5 * (m + m.conj().T) for m in ms]
    slack = np.eye(d * ds) - sum(ms)
    povm = [HermitianMatrix(povm_layout, 0.5 * (slack + slack.conj().T))]
    povm += [HermitianMatrix(povm_layout, m) for m in ms]
    return PbtProtocol(n=n, N=N, resource=resource, povm=tuple(povm)), qs


def _port_choi(j_op: np.ndarray, d: int, N: int, k: int) -> np.ndarray:
    """Trace over all ports except k, keeping (input, port k)."""
    n_axes = N + 1
    t = j_op.reshape((d,) * (2 * n_axes))
    row_idx = list(range(n_axes))
    col_idx = [n_axes + i if i in (0, k) else i for i in range(n_axes)]
    out_idx = [0, k, n_axes, n_axes + k]
    return np.einsum(t, row_idx + col_idx, out_idx).reshape(d * d, d * d)


# ---------------------------------------------------------------------------
# certification


def certify(povm: Sequence[HermitianMatrix], resource: StateVector, n: int, N: int,
            samples: int = 20, seed: int = 0) -> AuditReport:
    """Re-simulate a measurement and check feasibility, perfection, and the bound."""
    rep = AuditReport(subject=f"optimizer certification, n={n}, N={N}", seed=seed)
    try:
        proto = PbtProtocol(n=n, N=N, resource=resource, povm=tuple(povm))
    except ProtocolError as exc:
        rep.add_flag("measurement satisfies the protocol invariants", "Eq.8", False,
                     error=str(exc))
        return rep
    rep.add_flag("measurement satisfies the protocol invariants", "Eq.8", True)
    worst_fid = 1.0
    p_values = []
    inputs = haar_amplitudes(2**n, samples, seed)
    for part in input_chunks(inputs, (N + 1) * proto.global_layout().total_dim):
        batch = measure(proto, part)
        p_values.append(batch.q[:, 1:].sum(axis=1))
        fid = teleport_report(batch, part)[0]
        worst_fid = min(worst_fid, float(np.min(fid, where=batch.present[:, 1:], initial=1.0)))
    p_values = np.concatenate(p_values)
    p_mean = float(np.mean(p_values))
    rep.add("success branches teleport perfectly", "Eq.8", 1.0 - worst_fid, 1e-6,
            samples=samples)
    rep.add("success probability is input-independent", "Lemma",
            float(np.max(p_values) - np.min(p_values)), 1e-8)
    limit = float(bound(n, N))
    rep.add("success probability respects the bound", "Eq.2", p_mean - limit, BOUND_ATOL,
            p=p_mean, bound=limit, gap=limit - p_mean)
    return rep
