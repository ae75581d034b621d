"""The benchmark's workloads: fixed, seeded job lists for the pbtkit CLI, the
inputs they read, and the correctness gate every job's output must pass.

Each job is one ``pbtkit.cli.dispatch`` call, run in-process.  The job list
of a workload depends only on the workload seed, and every job's ``--seed``
is drawn from it, so the same seed gives the same jobs, exit codes and
answers.

Why these workloads (each layer dominates one and is absent from another):

- ``optimize``: the splitting solver, absent from every other workload.
  Joint and fixed-resource solves cover the ``embed`` path and the
  identity-base path.
- ``verify``: the verification suites on the reference protocol.  Many Haar
  inputs per protocol (engine, tensor, primed reuse), the dense pointer-form
  dilation at N=4 (nocloning, peak memory), and the no-signaling audit: the
  exact chain and the Monte-Carlo sampler (signaling).
- ``simulate``: one input per protocol, so per-protocol work (JSON load,
  validation, one measurement, report I/O) dominates.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from pbtkit import cli
from pbtkit.engine import PbtProtocol, bell_pbt_protocol, protocol_to_dict
from pbtkit.tensor import HermitianMatrix, apply_on_subsystems

WORKLOADS = ("optimize", "verify", "simulate")

#: simulate: one protocol file per job, N = 1..4 cycled
SIMULATE_FILES = 200
SIMULATE_PORTS = (1, 2, 3, 4)
#: every rotated reference protocol teleports perfectly with p = 1/4
SIMULATE_P = 0.25
SIMULATE_ATOL = 1e-10

#: optimize jobs: extra CLI flags, known optimum, tolerance.  The optima are
#: N/(N+3) for the joint problem and 1/3 for N=2 maximally entangled pairs;
#: the tolerances are the repository's own (acceptance criterion 7 and the
#: fixed-resource optimizer test).
OPTIMIZE_JOBS = (
    (("--ports", "1"), 0.25, 1e-4),
    (("--ports", "2"), 0.4, 1e-3),
    (("--ports", "2", "--fixed-resource"), 1.0 / 3.0, 1e-5),
)

VERIFY_PORTS = (1, 2, 3, 4)
VERIFY_SAMPLES = 50
AUDIT_PORTS = (1, 2, 3, 4, 5)
AUDIT_MC_PORTS = 2
AUDIT_MC_ROUNDS = 20_000

#: report file each subcommand writes; the gate reads it
OUTPUT_FILE = {
    "optimize": "certification.json",
    "verify": "verify.json",
    "prime": "eq5_report.json",
    "audit-signaling": "signaling_report.json",
    "simulate": "simulate.json",
}


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``argv`` excludes ``--out``, which the runner adds;
    ``known``/``tolerance`` are the expected optimum of an optimize job."""

    argv: tuple[str, ...]
    known: Optional[float] = None
    tolerance: Optional[float] = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Outcome:
    """Result of one job: exit code (None if it raised), wall time, gate
    verdict, and the report it wrote with the run manifest stripped."""

    exit_code: Optional[int]
    seconds: float
    passed: bool
    answer: Optional[dict]


def _job_seeds(seed: int, count: int) -> list[str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return [str(int(s)) for s in rng.integers(0, 2**31 - 1, size=count)]


def _input_path(inputs: Path, index: int) -> Path:
    return inputs / f"protocol-{index:03d}.json"


def build_jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    """The fixed job list of one workload; ``inputs`` holds simulate's files."""
    if workload == "optimize":
        seeds = _job_seeds(seed, len(OPTIMIZE_JOBS))
        return [Job(("optimize", "--qubits", "1", *flags, "--seed", s), known, tol)
                for (flags, known, tol), s in zip(OPTIMIZE_JOBS, seeds)]
    if workload == "verify":
        specs = [(cmd, n) for cmd in ("verify", "prime") for n in VERIFY_PORTS]
        seeds = _job_seeds(seed, len(specs) + len(AUDIT_PORTS) + 1)
        jobs = [Job((cmd, "--builtin", "bell", "--ports", str(n),
                     "--samples", str(VERIFY_SAMPLES), "--seed", s))
                for (cmd, n), s in zip(specs, seeds)]
        jobs += [Job(("audit-signaling", "--builtin", "bell", "--ports", str(n),
                      "--all-messages", "--seed", s))
                 for n, s in zip(AUDIT_PORTS, seeds[len(specs):])]
        jobs.append(Job(("audit-signaling", "--builtin", "bell",
                         "--ports", str(AUDIT_MC_PORTS),
                         "--mc-rounds", str(AUDIT_MC_ROUNDS), "--seed", seeds[-1])))
        return jobs
    if workload == "simulate":
        seeds = _job_seeds(seed, SIMULATE_FILES)
        return [Job(("simulate", "--protocol", str(_input_path(inputs, i)),
                     "--psi", "haar", "--seed", s))
                for i, s in enumerate(seeds)]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def warmup_jobs(workload: str, inputs: Path) -> list[Job]:
    """Small calls through the same code paths, run untimed before measuring."""
    if workload == "optimize":
        return [Job(("optimize", "--qubits", "1", "--ports", "1",
                     "--max-iterations", "100"))]
    if workload == "verify":
        return [Job((cmd, "--builtin", "bell", "--ports", "1", "--samples", "2"))
                for cmd in ("verify", "prime")] + [
            Job(("audit-signaling", "--builtin", "bell", "--ports", "1",
                 "--all-messages", "--mc-rounds", "100"))]
    if workload == "simulate":
        return [Job(("simulate", "--protocol", str(_input_path(inputs, 0)),
                     "--psi", "haar"))]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rotated_bell_protocol(big_n: int, rng: np.random.Generator) -> PbtProtocol:
    """The reference protocol with a Haar unitary U on the sender's system A:
    resource (U x I)|r> and POVM (I x U) M_k (I x U)^dag.  U acts after the
    measurement in effect, so the protocol stays perfect with p = 1/4."""
    base = bell_pbt_protocol(big_n)
    u = _haar_unitary(base.alice_dim, rng)
    resource = apply_on_subsystems(base.resource, u, ["A"])
    lift = np.kron(np.eye(base.port_dim), u)
    povm = []
    for m in base.povm:
        rotated = lift @ m.entries @ lift.conj().T
        povm.append(HermitianMatrix(m.layout, 0.5 * (rotated + rotated.conj().T)))
    return PbtProtocol(n=base.n, N=big_n, resource=resource, povm=tuple(povm))


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Generate the workload's input files from the seed (simulate only)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload != "simulate":
        return
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(SIMULATE_FILES):
        big_n = SIMULATE_PORTS[i % len(SIMULATE_PORTS)]
        doc = protocol_to_dict(rotated_bell_protocol(big_n, rng))
        _input_path(inputs, i).write_text(json.dumps(doc, sort_keys=True) + "\n")


def call_cli(job: Job, out_dir: Path) -> tuple[Optional[int], float]:
    """Run one job in-process with its console output discarded; returns the
    exit code (None when the call raised) and its wall time.

    ``cli.dispatch`` is looked up on every call so a traced run reaches the
    wrapped function."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.dispatch([*job.argv, "--out", str(out_dir)])
    except Exception:  # noqa: BLE001 - a crashing job is a failed job
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def _passes_gate(job: Job, doc: dict) -> bool:
    if job.subcommand == "optimize":
        return (doc["certification"]["passed"] is True
                and abs(doc["p_opt"] - job.known) <= job.tolerance)
    if job.subcommand == "simulate":
        if abs(doc["success_probability"] - SIMULATE_P) > SIMULATE_ATOL:
            return False
        return all(row.get("teleport_fidelity", -1.0) >= 1.0 - SIMULATE_ATOL
                   for row in doc["branches"]
                   if row["k"] >= 1 and row["probability"] > 0.0)
    return True  # verify, prime, audit-signaling: exit code 0 means all passed


def check(job: Job, exit_code: Optional[int], seconds: float, out_dir: Path) -> Outcome:
    """Apply the job's correctness gate to the report it wrote."""
    if exit_code != 0:
        return Outcome(exit_code, seconds, False, None)
    try:
        with open(out_dir / OUTPUT_FILE[job.subcommand]) as fh:
            doc = json.load(fh)
        doc.pop("manifest", None)
        passed = _passes_gate(job, doc)
    except (OSError, ValueError, KeyError, TypeError):
        return Outcome(exit_code, seconds, False, None)
    return Outcome(exit_code, seconds, passed, doc)
