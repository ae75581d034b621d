"""Batch front-end: build or load protocols, run the verification suites,
audit the no-signaling chain, run the optimizer, and emit machine-readable
reports (JSON for structured results, CSV for tables).

Every output embeds the run manifest: command, parameters, seeds, tolerance
overrides, toolkit version, and timestamp, so identical manifests produce
byte-identical reports.  Set SOURCE_DATE_EPOCH to pin the timestamp.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .engine import (
    PURITY_ATOL,
    PbtProtocol,
    _int_field,
    bell_pbt_protocol,
    from_complex_floats,
    from_complex_pairs,
    load_protocol,
    measure,
    mixture_residuals,
    protocol_to_dict,
    teleport_report,
    verify_psi_independence,
    write_document,
)
from .errors import ProtocolError, ToolkitError
from .nocloning import pointer_form, verify_theorem
from .optima import p_fixed
from .pauli import RNG_ALGORITHM, haar_amplitudes, haar_states, sample_haar_state
from .primed import build_primed, primed_to_dict, verify_eq5, verify_failure_marginal_twirl
from .report import AuditReport
from .signaling import BOUND_ATOL, bound, compute_chain_exact, monte_carlo_check
from .optimizer import (
    build_joint_sdp,
    build_sdp,
    certify,
    solve,
    solve_joint,
)
from .tensor import StateVector, SystemLayout

#: the tolerances ``verify`` reads, with their defaults
VERIFY_TOLERANCES = {
    "eq3": 1e-10,
    "lemma_q": 1e-10,
    "lemma_residual": 1e-10,
    "theorem_q": 1e-10,
    "theorem_residual": 1e-10,
    "theorem_overlap": 1e-8,
}
#: the tolerances ``prime`` reads, with their defaults
PRIME_TOLERANCES = {
    "eq5_marginal": 1e-10,
    "eq5_probability": 1e-12,
    "b9": 1e-10,
}

OUTPUT_DIR_ENV = "PBTKIT_OUT"


class UsageError(Exception):
    """Bad flags or malformed input; mapped to exit code 2."""


@dataclass
class RunManifest:
    """Reproducibility record embedded in every output."""

    command: str
    parameters: dict
    input_paths: list[str]
    output_dir: str
    toolkit_version: str = __version__
    rng_algorithm: str = RNG_ALGORITHM
    timestamp: int = field(default_factory=lambda: int(
        os.environ.get("SOURCE_DATE_EPOCH", int(time.time()))))

    def to_dict(self) -> dict:
        return dict(vars(self))


def _output_dir(args) -> Path:
    base = args.out or os.environ.get(OUTPUT_DIR_ENV) or "pbtkit-out"
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_input_protocol(args) -> tuple[PbtProtocol, list[str]]:
    """Resolve --protocol/--builtin into a protocol; returns (proto, paths).
    A primed document is read as its base protocol."""
    if args.protocol and args.builtin:
        raise UsageError("give either --protocol or --builtin, not both")
    if args.protocol:
        try:
            return load_protocol(args.protocol), [args.protocol]
        except FileNotFoundError as exc:
            raise UsageError(f"{args.protocol}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.protocol}: malformed JSON: {exc}") from exc
        except ToolkitError as exc:
            raise UsageError(f"{args.protocol}: {exc}") from exc
    if args.builtin == "bell":
        return bell_pbt_protocol(args.ports), []
    raise UsageError("one of --protocol or --builtin is required")


def _psi_state(spec: str, n: int, seed: int) -> StateVector:
    d = 2**n
    lay = SystemLayout.of(("a", d))
    named = {
        "zero": np.eye(d)[:, 0],
        "one": np.eye(d)[:, min(1, d - 1)],
        "plus": np.full(d, 1.0 / np.sqrt(d)),
    }
    if spec in named:
        return StateVector(lay, named[spec].astype(complex))
    if spec == "haar":
        return sample_haar_state(d, seed)
    try:
        with open(spec) as fh:
            values = json.load(fh)
        pairs = isinstance(values, list) and values and isinstance(values[0], list)
        amps = (from_complex_pairs if pairs else from_complex_floats)(values, "--psi")
    except FileNotFoundError as exc:
        raise UsageError(f"--psi {spec!r}: no such named state and no such file") from exc
    except (json.JSONDecodeError, ProtocolError) as exc:
        raise UsageError(f"--psi {spec!r}: {exc}") from exc
    if amps.size != d:
        raise UsageError(f"--psi file has dimension {amps.size}, protocol needs {d}")
    if not amps.any():
        raise UsageError(f"--psi {spec!r}: amplitudes are all zero")
    return StateVector(lay, amps / np.linalg.norm(amps))


def _report_exit(reports: list[AuditReport]) -> int:
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    proto, paths = _load_input_protocol(args)
    out_dir = _output_dir(args)
    inputs = _psi_state(args.psi, proto.n, args.seed).amplitudes[None]
    batch = measure(proto, inputs)
    fid, purity = teleport_report(batch, inputs)
    rows = [{"k": k, "probability": float(q)} for k, q in enumerate(batch.q[0])]
    for k in range(1, proto.N + 1):
        if batch.present[0, k]:
            rows[k].update(teleport_fidelity=float(fid[0, k - 1]),
                           residual_extracted=bool(1.0 - purity[0, k - 1] <= PURITY_ATOL))
    manifest = RunManifest("simulate", {"psi": args.psi, "seed": args.seed,
                                        "n": proto.n, "N": proto.N},
                           paths, str(out_dir))
    payload = {
        "manifest": manifest.to_dict(),
        "success_probability": sum(row["probability"] for row in rows[1:]),
        "branches": rows,
    }
    _write_json(out_dir / "simulate.json", payload)
    print(f"simulate: p = {payload['success_probability']:.12g} "
          f"({len(rows)} branches) -> {out_dir / 'simulate.json'}")
    return 0


def _verify_reports(proto: PbtProtocol, samples: int, seed: int,
                    tol: dict[str, float]) -> list[AuditReport]:
    eq3 = AuditReport(subject="port marginal decomposition", seed=seed)
    residuals = mixture_residuals(proto, haar_amplitudes(proto.port_dim, samples, seed))
    eq3.add("decomposition residual over all ports and inputs", "Eq.3",
            float(residuals.max()), tol["eq3"], ports=proto.N, samples=samples)
    lemma = verify_psi_independence(proto, samples, seed,
                                    q_tolerance=tol["lemma_q"],
                                    fid_tolerance=tol["lemma_residual"])
    theorem = verify_theorem(pointer_form(proto), samples, seed,
                             q_tolerance=tol["theorem_q"],
                             residual_tolerance=tol["theorem_residual"],
                             overlap_tolerance=tol["theorem_overlap"])
    return [eq3, lemma, theorem]


def _cmd_verify(args) -> int:
    proto, paths = _load_input_protocol(args)
    out_dir = _output_dir(args)
    tol = {**VERIFY_TOLERANCES, **dict(args.tolerance or ())}
    reports = _verify_reports(proto, args.samples, args.seed, tol)
    manifest = RunManifest("verify", {"samples": args.samples, "seed": args.seed,
                                      "n": proto.n, "N": proto.N,
                                      "tolerances": tol},
                           paths, str(out_dir))
    payload = {"manifest": manifest.to_dict(),
               "reports": [r.to_dict() for r in reports]}
    _write_json(out_dir / "verify.json", payload)
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"verify: [{status}] {rep.subject}")
    return _report_exit(reports)


def _cmd_prime(args) -> int:
    proto, paths = _load_input_protocol(args)
    out_dir = _output_dir(args)
    tol = {**PRIME_TOLERANCES, **dict(args.tolerance or ())}
    primed = build_primed(proto)
    samples = haar_states(proto.port_dim, args.samples, args.seed)
    rep = verify_eq5(primed, samples,
                     marginal_tolerance=tol["eq5_marginal"],
                     probability_tolerance=tol["eq5_probability"])
    twirl_reports = verify_failure_marginal_twirl(primed, samples[0], tolerance=tol["b9"])
    manifest = RunManifest("prime", {"samples": args.samples, "seed": args.seed,
                                     "n": proto.n, "N": proto.N, "tolerances": tol},
                           paths, str(out_dir))
    doc = primed_to_dict(primed)
    doc["manifest"] = manifest.to_dict()
    write_document(doc, out_dir / "primed_protocol.json")
    payload = {"manifest": manifest.to_dict(),
               "marginals": rep.to_dict(),
               "failure_twirl": [r.to_dict() for r in twirl_reports]}
    _write_json(out_dir / "eq5_report.json", payload)
    reports = [rep] + twirl_reports
    print(f"prime: marginal checks {'pass' if rep.passed else 'FAIL'} "
          f"-> {out_dir / 'primed_protocol.json'}")
    return _report_exit(reports)


def _cmd_audit_signaling(args) -> int:
    proto, paths = _load_input_protocol(args)
    messages = (list(range(1, 4**proto.n + 1)) if args.all_messages
                else [args.message])
    if messages[-1] > 4**proto.n:  # --message is at least 1 once parsed
        raise UsageError(f"message {messages[-1]} out of range [1, {4 ** proto.n}]")
    out_dir = _output_dir(args)
    primed = build_primed(proto)
    sig_reports = [compute_chain_exact(primed, m) for m in messages]

    # the sampled cross-check samples the first message's port analyses
    mc_reports = [monte_carlo_check(port, args.mc_rounds, args.seed)
                  for port in sig_reports[0].ports] if args.mc_rounds else []
    manifest = RunManifest("audit-signaling",
                           {"messages": messages, "seed": args.seed,
                            "mc_rounds": args.mc_rounds,
                            "n": proto.n, "N": proto.N},
                           paths, str(out_dir))
    payload = {"manifest": manifest.to_dict(),
               "signaling": [r.to_dict() for r in sig_reports],
               "monte_carlo": [r.to_dict() for r in mc_reports]}
    _write_json(out_dir / "signaling_report.json", payload)
    audits = [r.audit for r in sig_reports] + mc_reports
    for rep in sig_reports:
        status = "pass" if rep.audit.passed else "FAIL"
        print(f"audit-signaling: [{status}] message {rep.message}: "
              f"p'_j = {rep.ports[0].p_prime_simulated:.12g} (guess {4.0 ** -proto.n})")
    return _report_exit(audits)


def _cmd_optimize(args) -> int:
    out_dir = _output_dir(args)
    n, big_n = args.qubits, args.ports
    if args.fixed_resource:
        result = solve(build_sdp(n, big_n))
    else:
        result = solve_joint(build_joint_sdp(n, big_n), args.max_iterations)
    cert = certify(result.protocol.povm, result.protocol.resource, n, big_n, seed=args.seed)
    manifest = RunManifest("optimize",
                           {"n": n, "N": big_n, "seed": args.seed,
                            "fixed_resource": bool(args.fixed_resource),
                            "max_iterations": args.max_iterations},
                           [], str(out_dir))
    doc = protocol_to_dict(result.protocol)
    doc["manifest"] = manifest.to_dict()
    doc["p_opt"] = result.p_opt
    doc["q"] = [float(x) for x in result.q]
    write_document(doc, out_dir / "optimized_protocol.json")
    with open(out_dir / "solver_trace.csv", "w", newline="") as fh:
        fh.write(f"# manifest: {json.dumps(manifest.to_dict(), sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "residual", "phase"])
        for it, obj, res in result.trace:
            stiff = result.switch_iteration and it >= result.switch_iteration
            phase = "stiff" if stiff else "adaptive"
            writer.writerow([it, repr(obj), repr(res), phase])
    payload = {"manifest": manifest.to_dict(),
               "p_opt": result.p_opt,
               "p_upper": result.p_upper,
               "bound": float(bound(n, big_n)),
               "converged": result.converged,
               "stopped_by": result.stopped_by,
               "iterations": result.iterations,
               "switch_iteration": result.switch_iteration,
               "residuals": result.residuals,
               "certification": cert.to_dict()}
    _write_json(out_dir / "certification.json", payload)
    print(f"optimize: p_opt = {result.p_opt:.9g} (bound {float(bound(n, big_n)):.9g}) "
          f"certified={'yes' if cert.passed else 'NO'}")
    return 0 if cert.passed else 1


def _finite_number(value, name: str) -> float:
    """``value`` as a float; ProtocolError naming ``name`` unless it is a
    finite JSON number (``float`` would read "0.4" and ``true``)."""
    # NaN fails the comparison; an integer beyond the float range exceeds it
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ProtocolError(f"field {name!r}: expected a finite number, got {value!r}")
    return float(value)


def _cmd_bound_table(args) -> int:
    out_dir = _output_dir(args)
    n_lo = args.qubits
    n_hi = args.max_qubits or n_lo
    if n_hi < n_lo:
        raise UsageError("--max-qubits must be >= --n")
    rows = {}
    for n in range(n_lo, n_hi + 1):
        for big_n in range(1, args.max_ports + 1):
            pmax = bound(1, big_n)
            rows[n, big_n] = {
                "n": n,
                "N": big_n,
                "bound": float(bound(n, big_n)),
                "p_fixed": float(p_fixed(n, big_n)),
                "p_max_n1_formula": float(pmax),
                "p_max_n1_pow_n": float(pmax) ** n,
                "optimizer_value": "",
            }
    paths = args.optimizer_json or []
    filled_by = {}
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            key = (_int_field(doc["n"], "n", 1), _int_field(doc["N"], "N", 1))
            p_opt = _finite_number(doc["p_opt"], "p_opt")
        except FileNotFoundError as exc:
            raise UsageError(f"{path}: {exc.strerror}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{path}: not an optimizer output: {exc}") from exc
        if key not in rows:
            raise UsageError(f"{path}: fields 'n', 'N': {key} is outside the table")
        if key in filled_by:
            raise UsageError(f"{path}: fields 'n', 'N': {key} is already given by "
                             f"{filled_by[key]}")
        filled_by[key] = path
        row = rows[key]
        if p_opt - row["bound"] > BOUND_ATOL:
            raise UsageError(f"{path}: field 'p_opt': {p_opt!r} exceeds bound {row['bound']!r}")
        row["optimizer_value"] = p_opt
    manifest = RunManifest("bound-table",
                           {"n": n_lo, "max_qubits": n_hi, "max_ports": args.max_ports},
                           paths, str(out_dir))
    table_path = out_dir / "bounds.csv"
    with open(table_path, "w", newline="") as fh:
        fh.write(f"# manifest: {json.dumps(manifest.to_dict(), sort_keys=True)}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[n_lo, 1]))
        writer.writeheader()
        for row in rows.values():
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})
    print(f"bound-table: {len(rows)} rows -> {table_path}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``, checked at parse time."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _tolerance_override(defaults: dict[str, float]):
    """argparse type: a NAME=VALUE override of one of ``defaults``'
    tolerances, by a finite positive number."""
    def parse(text: str) -> tuple[str, float]:
        name, _, value = text.partition("=")
        if name not in defaults:
            raise argparse.ArgumentTypeError(
                f"unknown tolerance {name!r}; known: {sorted(defaults)}")
        try:
            tolerance = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"tolerance {name!r}: {value!r} is not a number") from None
        if not (np.isfinite(tolerance) and tolerance > 0):
            raise argparse.ArgumentTypeError(
                f"tolerance {name!r}: {value!r} is not a finite positive number")
        return name, tolerance
    return parse


def _add_flags(parser: argparse.ArgumentParser, *flags: str,
               tolerances: Optional[dict[str, float]] = None) -> None:
    """Add the named shared flags, and ``--tolerance`` over ``tolerances``
    when given; each subcommand lists the ones it reads."""
    shared = {
        "protocol": (("--protocol",), dict(help="protocol JSON file")),
        "builtin": (("--builtin",), dict(choices=["bell"], help="built-in protocol")),
        "ports": (("--ports",), dict(type=_at_least(1), default=1,
                                     help="number of ports N")),
        "qubits": (("--qubits", "--n"), dict(dest="qubits", type=_at_least(1), default=1,
                                             help="qubits per port n")),
        "seed": (("--seed",), dict(type=_at_least(0), default=0)),
        "samples": (("--samples",), dict(type=_at_least(1), default=20)),
        "out": (("--out",), dict(help=f"output directory (default ${OUTPUT_DIR_ENV} "
                                      "or ./pbtkit-out)")),
    }
    for flag in flags:
        names, options = shared[flag]
        parser.add_argument(*names, **options)
    if tolerances:
        parser.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                            type=_tolerance_override(tolerances),
                            help=f"override one of {', '.join(tolerances)} (repeatable)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="pbtkit",
        description="Simulate and verify port-based teleportation protocols.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run one protocol and report branches")
    _add_flags(p, "protocol", "builtin", "ports", "seed", "out")
    p.add_argument("--psi", default="haar",
                   help="input state: zero|one|plus|haar|<file.json>")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the structural verification suites")
    _add_flags(p, "protocol", "builtin", "ports", "seed", "samples", "out",
               tolerances=VERIFY_TOLERANCES)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("prime", help="emit the twirled protocol and its report")
    _add_flags(p, "protocol", "builtin", "ports", "seed", "samples", "out",
               tolerances=PRIME_TOLERANCES)
    p.set_defaults(func=_cmd_prime)

    p = sub.add_parser("audit-signaling", help="exact no-signaling chain audit")
    _add_flags(p, "protocol", "builtin", "ports", "seed", "out")
    p.add_argument("--message", type=_at_least(1), default=1)
    p.add_argument("--all-messages", action="store_true")
    p.add_argument("--mc-rounds", type=_at_least(0), default=0,
                   help="also sample this many chain rounds as a cross-check")
    p.set_defaults(func=_cmd_audit_signaling)

    p = sub.add_parser("optimize", help="maximize success probability")
    _add_flags(p, "qubits", "ports", "seed", "out")
    p.add_argument("--fixed-resource", action="store_true",
                   help="keep the resource pinned to maximally entangled pairs")
    p.add_argument("--max-iterations", type=_at_least(1), default=20_000,
                   help="iteration cap of the joint solve; it stops earlier once converged")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("bound-table", help="CSV of bounds over an (n, N) grid")
    _add_flags(p, "qubits", "out")
    p.add_argument("--max-ports", type=_at_least(1), required=True)
    p.add_argument("--max-qubits", type=_at_least(1))
    p.add_argument("--optimizer-json", action="append",
                   help="optimizer output JSON to fill the optimizer column")
    p.set_defaults(func=_cmd_bound_table)
    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; exit code 0 = all checks pass, 1 = a verification
    failed, 2 = usage or input error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
