"""Exact simulation of port-based teleportation protocols.

A protocol is (n, N, resource state, POVM): the sender measures her input
qubit(s) together with her half of the resource, outcome ``k >= 1`` means the
input state now sits at port ``B_k`` on the receiver's side, outcome 0 means
failure.  This module computes measurement branches, per-port marginals, and
the two structural facts every valid protocol must satisfy: the mixture
decomposition of the untouched port marginal, and the input-independence of
success probabilities and residual states for perfectly teleporting
protocols.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .branches import (
    BranchBatch,
    Drift,
    infidelity,
    input_chunks,
    povm_branches,
    require_samples,
    require_width,
)
from .errors import LayoutError, ProtocolError
from .pauli import haar_amplitudes
from .report import AuditReport
from .tensor import (
    HermitianMatrix,
    StateVector,
    SystemLayout,
    check_budget,
    maximally_entangled,
    reduced_density,
)

#: residual extraction requires the receiving-port marginal to be this pure
PURITY_ATOL = 1e-8
#: POVM elements must be PSD / complete within this tolerance
POVM_ATOL = 1e-10

PROTOCOL_FORMAT_VERSION = "2"


def port_label(j: int) -> str:
    return f"B{j}"


def checked_port(j: int, big_n: int) -> str:
    """The label of port B_j; ``LayoutError`` unless 1 <= j <= N."""
    if not 1 <= j <= big_n:
        raise LayoutError(f"port index {j} out of range [1, {big_n}]")
    return port_label(j)


@dataclass(frozen=True)
class PbtProtocol:
    """A port-based teleportation protocol instance.

    ``resource`` lives on layout (A, B1..BN) with every port of dimension 2^n;
    the POVM elements M_0..M_N live on (a, A), where a is the input system.
    ``kraus`` holds the measurement update maps sqrt(M_k), stacked and
    read-only, computed once by ``validate``.
    """

    n: int
    N: int
    resource: StateVector
    povm: tuple[HermitianMatrix, ...]
    kraus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "povm", tuple(self.povm))
        object.__setattr__(self, "kraus", self.validate())

    @property
    def port_dim(self) -> int:
        return 2**self.n

    @property
    def alice_dim(self) -> int:
        return self.resource.layout.dim("A")

    def global_layout(self) -> SystemLayout:
        return SystemLayout.of(("a", self.port_dim)).concat(self.resource.layout)

    def validate(self) -> np.ndarray:
        """Raise ProtocolError naming the first violated invariant, and
        LayoutError, before the first eigendecomposition, if the roots and one
        input's branches together exceed the memory budget.  Returns the roots
        sqrt(M_k), stacked (read-only), from the eigendecomposition of each
        element that its PSD check makes; small negative eigenvalues are
        clipped."""
        if self.n < 1 or self.N < 1:
            raise ProtocolError(f"need n >= 1 and N >= 1, got n={self.n}, N={self.N}")
        expected = ("A",) + tuple(port_label(j) for j in range(1, self.N + 1))
        if self.resource.layout.labels != expected:
            raise ProtocolError(
                f"resource layout {self.resource.layout.labels} != expected {expected}"
            )
        for j in range(1, self.N + 1):
            if self.resource.layout.dim(port_label(j)) != self.port_dim:
                raise ProtocolError(f"port {port_label(j)} dimension != 2^n = {self.port_dim}")
        if abs(self.resource.norm() - 1.0) > 1e-10:
            raise ProtocolError("resource state is not normalized")
        if len(self.povm) != self.N + 1:
            raise ProtocolError(f"POVM needs N+1 = {self.N + 1} elements, got {len(self.povm)}")
        check_protocol_bytes(self.n, self.N, self.alice_dim)
        d = self.port_dim * self.alice_dim
        total = np.zeros((d, d), dtype=np.complex128)
        roots = np.zeros((self.N + 1, d, d), dtype=np.complex128)
        for k, m in enumerate(self.povm):
            if m.layout.labels != ("a", "A") or m.dim != d:
                raise ProtocolError(f"POVM element {k} must live on (a, A) with dimension {d}")
            total += m.entries
            if m.entries.any():  # an exactly zero element is PSD, and its root stays 0
                w, v = np.linalg.eigh(m.entries)
                if w[0] < -POVM_ATOL:
                    raise ProtocolError(f"POVM element {k} is not PSD: min eigenvalue {w[0]:.3e}")
                np.matmul(v * np.sqrt(np.clip(w, 0.0, None)), v.conj().T, out=roots[k])
        dev = float(np.max(np.abs(total - np.eye(d))))
        if dev > POVM_ATOL:
            raise ProtocolError(f"POVM completeness violated: max deviation {dev:.3e}")
        roots.setflags(write=False)
        return roots


def check_branch_bytes(n: int, N: int, alice_dim: int) -> None:
    """``LayoutError`` unless one input's measurement branches under an
    (n, N) protocol whose sender holds ``alice_dim`` dimensions, N + 1
    complex vectors over (a, A, B1..BN), fit the memory budget."""
    check_budget(f"one input's branches at n={n}, N={N}",
                 16 * (N + 1) * 2**n * alice_dim * 2 ** (n * N))


def check_protocol_bytes(n: int, N: int, alice_dim: int) -> None:
    """``LayoutError`` unless the stack of N + 1 POVM roots on (a, A) and one
    input's branches fit the memory budget together: ``measure`` holds both."""
    d = 2**n * alice_dim
    check_budget(f"the POVM roots and one input's branches at n={n}, N={N}",
                 16 * (N + 1) * d * (d + 2 ** (n * N)))


def measure(proto: PbtProtocol, inputs: np.ndarray) -> BranchBatch:
    """All measurement branches of the protocol on each row of ``inputs``
    (``LayoutError`` unless each row has 2^n amplitudes)."""
    require_width(inputs, proto.port_dim)
    states = inputs[:, :, None] * proto.resource.amplitudes
    return povm_branches(states, proto.global_layout(), proto.kraus, ("a", "A"))


def teleport_report(batch: BranchBatch, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per input and success outcome k, the fidelity of the input with
    branch k's normalized port-B_k marginal and that marginal's purity,
    (inputs, N) each (0 where pruned).  The residual state of branch k can
    be extracted when the purity is within PURITY_ATOL of 1."""
    own = np.stack([batch.marginals(port_label(k), k)
                    for k in range(1, batch.q.shape[1])], axis=1)
    rho = batch.normalized(own, slice(1, None))
    fid = np.einsum("si,skij,sj->sk", inputs.conj(), rho, inputs).real
    return fid, np.einsum("skij,skji->sk", rho, rho).real


def port_table(batch: BranchBatch, k=slice(None)) -> np.ndarray:
    """The marginal of every port B_j in branch(es) ``k`` times its
    probability: (inputs, N + 1, N, d, d) for all branches, (inputs, N, d, d)
    for one."""
    return np.stack([batch.marginals(port_label(j), k)
                     for j in range(1, batch.q.shape[1])], axis=-3)


def port_marginals(proto: PbtProtocol, inputs: np.ndarray, j: int) -> np.ndarray:
    """The state of port B_j in every branch of each row of ``inputs``,
    (inputs, N + 1, d, d), 0 where a branch is pruned."""
    batch = measure(proto, inputs)
    return batch.normalized(batch.marginals(checked_port(j, proto.N)))


def _resource_marginals(proto: PbtProtocol) -> np.ndarray:
    """The resource marginals eta_1..eta_N, stacked."""
    return np.array([reduced_density(proto.resource, {port_label(j)}).entries
                     for j in range(1, proto.N + 1)])


def _mixture_residuals(eta: np.ndarray, batch: BranchBatch, inputs: np.ndarray,
                       ports: np.ndarray) -> np.ndarray:
    """Eq.3 residual per input (rows of ``inputs``, with branches ``batch``
    and ``port_table`` ``ports``) and port j, shape (inputs, N): ``max |eta_j
    - (q_j psi psi^dag + sum_{i != j} q_i rho_i)|``, with eta_j the resource
    marginal and rho_i the port-j marginal of branch i."""
    others = 1 - np.eye(len(eta), len(eta) + 1, 1)
    proj = inputs[:, None, :, None] * inputs.conj()[:, None, None, :]
    mix = (np.einsum("jk,skjab->sjab", others, ports)
           + batch.q[:, 1:, None, None] * proj)
    return np.abs(eta - mix).max(axis=(2, 3))


def verify_port_decomposition(proto: PbtProtocol, psi: StateVector, j: int,
                              tolerance: float = 1e-10) -> AuditReport:
    """Check the port-marginal mixture identity for port j on input psi."""
    checked_port(j, proto.N)
    inputs = psi.amplitudes[None]
    batch = measure(proto, inputs)
    rep = AuditReport(subject=f"port marginal decomposition, port {j}")
    residual = _mixture_residuals(_resource_marginals(proto), batch, inputs, port_table(batch))
    rep.add("eta_j equals success/miss/failure mixture", "Eq.3",
            float(residual[0, j - 1]), tolerance, port=j, q=batch.q[0].tolist())
    return rep


def verify_eq3_and_lemma(proto: PbtProtocol, sample_count: int, seed: int,
                         eq3_tolerance: float = 1e-10, q_tolerance: float = 1e-10,
                         fid_tolerance: float = 1e-10) -> tuple[AuditReport, AuditReport]:
    """The Eq.3 and Lemma reports on ``sample_count`` Haar inputs, each measured once.

    Eq.3, the port-marginal mixture identity, is checked on every input.  The
    Lemma (success probabilities and residual states do not depend on the
    input) applies only to perfectly teleporting protocols; one that is not
    is reported out of scope, naming the first failing input's first failing
    outcome.  The failure-branch port marginal's spread is reported, never
    asserted.  ``SampleCountError`` unless ``sample_count`` is at least 1.
    """
    require_samples(sample_count)
    eq3 = AuditReport(subject="port marginal decomposition", seed=seed)
    lemma = AuditReport(subject="input independence of success branches", seed=seed)
    eta, eq3_rows, q_rows, residuals = _resource_marginals(proto), [], [], Drift(infidelity)
    omegas = Drift(lambda first, rho: np.abs(rho - first).max(axis=(-2, -1)))
    inputs = haar_amplitudes(proto.port_dim, sample_count, seed)
    for part in input_chunks(inputs, (proto.N + 1) * proto.global_layout().total_dim):
        batch = measure(proto, part)
        ports = port_table(batch)
        eq3_rows.append(_mixture_residuals(eta, batch, part, ports))
        if not lemma.preconditions_met:
            continue
        fid, purity = teleport_report(batch, part)
        success = batch.present[:, 1:]
        imperfect = (fid < 1.0 - PURITY_ATOL) | (1.0 - purity > PURITY_ATOL)
        failed = np.argwhere(success & imperfect)
        if len(failed):
            s, k = failed[0]
            lemma.not_applicable(
                "not a perfect-PBT protocol; input independence not applicable",
                "perfect teleportation precondition", "Eq.8",
                k=int(k) + 1, fidelity=float(fid[s, k]))
            continue
        q_rows.append(batch.q)
        residuals.add(np.stack([batch.residuals(port_label(k), k)
                                for k in range(1, proto.N + 1)], axis=1), success)
        omegas.add(batch.normalized(ports[:, 0], 0),
                   np.repeat(batch.present[:, :1], proto.N, axis=1))
    eq3.add("decomposition residual over all ports and inputs", "Eq.3",
            float(np.vstack(eq3_rows).max()), eq3_tolerance, ports=proto.N, samples=sample_count)
    if lemma.preconditions_met:
        q = np.vstack(q_rows)
        lemma.add("outcome probabilities constant across inputs", "Lemma",
                  float(np.max(q.max(axis=0) - q.min(axis=0))), q_tolerance, samples=sample_count)
        lemma.add("residual states constant across inputs", "Lemma", residuals.worst,
                  fid_tolerance)
        lemma.add_flag("failure-branch port marginal varies with input (informational)",
                       "Eq.8.9", True, spread=omegas.worst)
    return eq3, lemma


def standard_resource(n: int, N: int) -> StateVector:
    """N maximally entangled pairs of 2^n-dimensional systems, as (A, B1..BN)
    with A the sender's N halves: amplitude d^(-N/2) where the index of A
    equals that of (B1..BN), the product of the pair amplitudes taken in the
    order a Kronecker product of the pairs multiplies them.  ``LayoutError``,
    before anything is allocated, if one input's branches under it exceed
    the memory budget."""
    d = 2**n
    check_branch_bytes(n, N, d**N)
    layout = SystemLayout((("A", d**N),) + tuple((port_label(j), d) for j in range(1, N + 1)))
    return StateVector(layout, np.eye(d**N).ravel() * math.prod([1 / np.sqrt(d)] * N))


def bell_pbt_protocol(N: int) -> PbtProtocol:
    """Reference protocol: N shared qubit pairs, project (a, A1) onto one
    maximally entangled vector to teleport onto port 1.

    Perfect single-qubit PBT with success probability 1/4 for every N.
    ``LayoutError`` before anything is built if the protocol exceeds the
    memory budget.
    """
    if N < 1:
        raise ValueError(f"need at least one port, got N={N}")
    check_protocol_bytes(1, N, 2**N)
    resource = standard_resource(1, N)
    dim_a_alice = 2 * 2**N
    povm_layout = SystemLayout.of(("a", 2), ("A", 2**N))
    phi = maximally_entangled(("a", 2), ("A1", 2))
    bell_proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
    m1 = np.kron(bell_proj, np.eye(2 ** (N - 1), dtype=np.complex128))
    zero = np.zeros((dim_a_alice, dim_a_alice), dtype=np.complex128)
    # one shared element for the N - 1 ports the protocol never teleports to
    povm = (HermitianMatrix(povm_layout, np.eye(dim_a_alice) - m1),
            HermitianMatrix(povm_layout, m1)) + (HermitianMatrix(povm_layout, zero),) * (N - 1)
    return PbtProtocol(n=1, N=N, resource=resource, povm=povm)


# ---------------------------------------------------------------------------
# serialization: a complex array is one flat list of floats, its row-major
# float64 view with real and imaginary parts interleaved.  Format-1 protocol
# documents (and format-1 and -2 pointer documents) hold [re, im] pairs.


def complex_floats(arr: np.ndarray) -> list[float]:
    return np.ascontiguousarray(arr, np.complex128).view(np.float64).ravel().tolist()


def from_complex_floats(values, field: str) -> np.ndarray:
    """The complex array ``complex_floats`` wrote; ProtocolError, naming
    ``field``, unless ``values`` is a flat list of an even number of finite
    JSON numbers (``np.array`` alone would read the string "1.5", ``true``
    as 1 and ``null`` as NaN)."""
    if not isinstance(values, list) or not set(map(type, values)) <= {float, int}:
        raise ProtocolError(f"field {field!r}: expected a flat list of numbers")
    if len(values) % 2:
        raise ProtocolError(f"field {field!r}: expected an even number of floats "
                            f"(re, im interleaved), got {len(values)}")
    try:
        out = np.array(values, np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ProtocolError(f"field {field!r}: entries must be finite") from exc
    if not np.all(np.isfinite(out)):
        raise ProtocolError(f"field {field!r}: entries must be finite")
    return out.view(np.complex128)


def from_complex_pairs(pairs, field: str) -> np.ndarray:
    """The format-1 layout: a list of [re, im] pairs of JSON numbers;
    ProtocolError, naming ``field``, otherwise (``complex`` alone would read
    ``true`` as 1)."""
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and set(map(type, pair)) <= {float, int}
            for pair in pairs):
        raise ProtocolError(f"field {field!r}: expected a list of [re, im] pairs of numbers")
    return from_complex_floats([part for pair in pairs for part in pair], field)


def complex_reader(doc: dict, pair_versions: tuple[str, ...], flat_version: str):
    """The array decoder of ``doc``'s format version (``"1"`` when absent):
    ``from_complex_floats`` for ``flat_version``, ``from_complex_pairs`` for
    the earlier ``pair_versions``; ProtocolError for any other version."""
    version = doc.get("version", "1")
    if version == flat_version:
        return from_complex_floats
    if version in pair_versions:
        return from_complex_pairs
    raise ProtocolError(f"field 'version': expected one of "
                        f"{[*pair_versions, flat_version]}, got {version!r}")


def protocol_to_dict(proto: PbtProtocol) -> dict:
    return {
        "version": PROTOCOL_FORMAT_VERSION,
        "kind": "pbt-protocol",
        "n": proto.n,
        "N": proto.N,
        "dims": {"a": proto.port_dim, "A": proto.alice_dim, "B": proto.port_dim},
        "resource": complex_floats(proto.resource.amplitudes),
        "povm": [complex_floats(m.entries) for m in proto.povm],
    }


def _int_field(value, name: str, minimum: int) -> int:
    """``value``; ProtocolError naming ``name`` unless it is a JSON integer
    of at least ``minimum`` (``int`` would read 2.9 and "2" as 2 and
    ``true`` as 1)."""
    if type(value) is not int or value < minimum:
        raise ProtocolError(f"field {name!r}: expected an integer >= {minimum}, "
                            f"got {value!r}")
    return value


def _typed_field(value, kind: type, name: str):
    """``value``; ProtocolError naming ``name`` unless it is a ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        expected = "a JSON object" if kind is dict else "a list"
        raise ProtocolError(f"{name}: expected {expected}, got {type(value).__name__}")
    return value


def protocol_from_dict(doc: dict) -> PbtProtocol:
    """Read either format version.  Raise ProtocolError, naming the field,
    for a malformed document."""
    _typed_field(doc, dict, "protocol document")
    read = complex_reader(doc, ("1",), PROTOCOL_FORMAT_VERSION)
    for field_name in ("n", "N", "dims", "resource", "povm"):
        if field_name not in doc:
            raise ProtocolError(f"protocol document is missing field {field_name!r}")
    n, big_n = _int_field(doc["n"], "n", 1), _int_field(doc["N"], "N", 1)
    dims = _typed_field(doc["dims"], dict, "field 'dims'")
    povm_doc = _typed_field(doc["povm"], list, "field 'povm'")
    for field_name in ("a", "A", "B"):
        if field_name not in dims:
            raise ProtocolError(f"protocol field 'dims' is missing entry {field_name!r}")
    dim_a, dim_alice, dim_b = (_int_field(dims[name], f"dims.{name}", 1)
                               for name in ("a", "A", "B"))
    for name, dim in (("a", dim_a), ("B", dim_b)):
        if dim != 2**n:
            raise ProtocolError(f"field 'dims.{name}': expected 2^n = {2**n}, got {dim}")
    layout = SystemLayout(
        (("A", dim_alice),) + tuple((port_label(j), 2**n) for j in range(1, big_n + 1))
    )
    try:
        resource = StateVector(layout, read(doc["resource"], "resource"))
    except ValueError as exc:  # unnormalized, or not the layout's size
        raise ProtocolError(f"field 'resource': {exc}") from exc
    d = 2**n * dim_alice
    povm_layout = SystemLayout.of(("a", 2**n), ("A", dim_alice))
    povm = []
    for k, mat in enumerate(povm_doc):
        flat = read(mat, f"povm[{k}]")
        if flat.size != d * d:
            raise ProtocolError(f"field 'povm[{k}]': expected {d * d} entries, got {flat.size}")
        try:
            povm.append(HermitianMatrix(povm_layout, flat.reshape(d, d)))
        except ValueError as exc:  # not Hermitian
            raise ProtocolError(f"field 'povm[{k}]': {exc}") from exc
    return PbtProtocol(n=n, N=big_n, resource=resource, povm=tuple(povm))


def write_document(doc: dict, path) -> None:
    """Write a protocol or pointer document: compact JSON with sorted keys,
    encoded in one call, and a final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def save_protocol(proto: PbtProtocol, path) -> None:
    write_document(protocol_to_dict(proto), path)


def load_protocol(path) -> PbtProtocol:
    with open(path) as fh:
        return protocol_from_dict(json.load(fh))
