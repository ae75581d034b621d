"""Reference helpers for the tests: dense per-state oracles the toolkit itself
does not need (outer products, operator tensor products and reorderings,
partial trace, pure-state fidelities, the maximally mixed state), the
three-step construction of the standard resource, a per-outcome view of
one input's branches, the optimizer's splitting iteration written with
fresh arrays at every step, and the [re, im]-pair layout of the earlier
document formats."""

import functools
import json
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from pbtkit.branches import BranchBatch
from pbtkit.engine import port_label
from pbtkit.errors import LayoutError
from pbtkit.optimizer import (
    ADAPT_EVERY,
    OBJECTIVE_TOLERANCE,
    OVER_RELAXATION,
    PENALTY,
    PRIMAL_TOLERANCE,
    REFINE_FRACTION,
    REFINE_PENALTY,
    herm_to_vec,
    vec_to_herm,
)
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


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """A Haar-random d x d unitary."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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


# ---------------------------------------------------------------------------
# the splitting iteration with fresh arrays at every step: the oracle that
# optimizer._run_splitting must match bit for bit


def reference_psd_clip(vec: np.ndarray, d: int) -> np.ndarray:
    """Nearest PSD matrix in coordinates; leading axes are batch axes, so
    equal-size blocks share one stacked ``eigh``."""
    w, v = np.linalg.eigh(vec_to_herm(vec, d))
    w = np.clip(w, 0.0, None)
    return herm_to_vec((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _slack_of(fp, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = fp.embed @ s
    for lift, yk in zip(fp.lifts, y.reshape(fp.N, -1)):
        out -= lift @ yk
    return out


def _affine_step(fp, v: np.ndarray, rho: float) -> np.ndarray:
    g_ys = np.concatenate([v[fp.sl_y], v[fp.sl_s]])
    g_ys = g_ys + fp.w_cols.T @ v[fp.sl_slack]
    x = np.concatenate([fp.h_inv @ g_ys, v[fp.sl_q] + 1.0 / rho])
    lam = fp.gram_inv @ (fp.a_mat @ x - fp.b_vec)
    x = x - fp.hia_t @ lam
    y, s = x[: fp.n_y], x[fp.n_y : fp.n_y + fp.n_s]
    return np.concatenate([y, _slack_of(fp, y, s), s, x[fp.n_y + fp.n_s :]])


def reference_project(fp, x: np.ndarray) -> np.ndarray:
    z = np.empty_like(x)
    z[fp.sl_y] = reference_psd_clip(x[fp.sl_y].reshape(fp.N, -1), fp.face_dim).reshape(-1)
    z[fp.sl_slack] = reference_psd_clip(x[fp.sl_slack], fp.dim_big)
    z[fp.sl_s] = reference_psd_clip(x[fp.sl_s], fp.dim_sigma)
    z[fp.sl_q] = np.clip(x[fp.sl_q], 0.0, 1.0)
    return z


def reference_splitting(fp, max_iterations: int):
    """The consensus splitting on a ``optimizer._FaceProblem`` without an
    upper end; returns the final cone-side iterate and the run record, as
    ``_run_splitting`` does."""
    r = fp.face_dim
    init = np.broadcast_to(np.eye(r) / (fp.N + 1), (fp.N, r, r))
    y = herm_to_vec(init).reshape(-1)
    s = herm_to_vec(np.eye(fp.dim_sigma) / fp.dim_sigma)
    q = [float((red @ yk) @ fp.rhs / (fp.rhs @ fp.rhs))
         for red, yk in zip(fp.red_blocks, y.reshape(fp.N, -1))]
    z = np.concatenate([y, _slack_of(fp, y, s), s, q])
    u = np.zeros_like(z)
    watched = slice(0, fp.sl_slack.stop)

    window = 4 * ADAPT_EVERY
    min_stiff = 2 * ADAPT_EVERY
    latest_switch = max(1, int(max_iterations * (1.0 - REFINE_FRACTION)))
    best_prev = best_now = np.inf
    stalled = False
    rho = PENALTY
    alpha = OVER_RELAXATION
    switch = 0
    trace = []
    stopped_by = "cap"
    for iteration in range(1, max_iterations + 1):
        if not switch and (stalled or iteration >= latest_switch):
            u *= rho / REFINE_PENALTY
            rho = REFINE_PENALTY
            alpha = 1.0
            switch = iteration
        x = _affine_step(fp, z - u, rho)
        x_hat = alpha * x + (1 - alpha) * z
        z_prev = z[watched]
        z = reference_project(fp, x_hat + u)
        u += x_hat - z

        primal = float(np.sqrt(np.linalg.norm(x[fp.sl_y] - z[fp.sl_y]) ** 2
                               + np.linalg.norm(x[fp.sl_slack] - z[fp.sl_slack]) ** 2))
        dual = float(rho * np.linalg.norm(z[watched] - z_prev))
        scale = max(1.0, float(np.linalg.norm(x[fp.sl_y])),
                    float(np.linalg.norm(z[fp.sl_y])))
        obj, relative = float(x[fp.sl_q].sum()), primal / scale
        trace.append((iteration, obj, relative))

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

    return z, dict(converged=stopped_by != "cap", stopped_by=stopped_by, iterations=iteration,
                   switch_iteration=switch, trace=trace)


# ---------------------------------------------------------------------------
# the earlier document formats: complex numbers as [re, im] pairs

#: the last format version of each document kind that holds [re, im] pairs
PAIR_VERSIONS = {"pbt-protocol": "1", "pointer-operation": "2"}
LAYOUTS = ("pairs", "flat")


def complex_pairs(arr: np.ndarray) -> list[list[float]]:
    """A complex array as the earlier formats wrote it: [re, im] pairs, row-major."""
    return np.ascontiguousarray(arr, np.complex128).view(np.float64).reshape(-1, 2).tolist()


def in_layout(doc: dict, layout: str) -> dict:
    """A copy of a protocol, primed-protocol or pointer document in ``layout``:
    ``"flat"`` as written, ``"pairs"`` with every array's floats regrouped into
    [re, im] pairs under the kind's last pair-layout version."""
    doc = json.loads(json.dumps(doc))
    if layout == "flat":
        return doc

    def pairs(values):
        return [values[i:i + 2] for i in range(0, len(values), 2)]

    for name in ("resource", "unitary", "xi", "chi"):
        if name in doc:
            doc[name] = pairs(doc[name])
    for name in ("povm", "pointer_basis"):
        if name in doc:
            doc[name] = [pairs(values) for values in doc[name]]
    doc["version"] = PAIR_VERSIONS[doc["kind"]]
    return doc


def set_part(values: list, entry: int, part: int, value) -> None:
    """Set the real (``part`` 0) or imaginary (1) part of complex entry
    ``entry`` of one array field, in either layout."""
    if isinstance(values[0], list):
        values[entry][part] = value
    else:
        values[2 * entry + part] = value
