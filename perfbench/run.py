"""Benchmark entry point: one workload, one process, jobs run one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (import, input generation, warm-up) is timed in fresh processes, then
this process repeats whole passes over the workload's fixed job list until
another pass would overrun ``--seconds`` (at least one pass), checking every
job's output.  ``--trace 1`` spends the first half of the time untraced and
the second half with spans on pbtkit's public functions, and reports
per-layer counts and self times instead of the end-to-end metrics.

BLAS is pinned to one thread before numpy loads: a single-threaded baseline
that other tenants of a small machine cannot perturb through a second BLAS
thread.
"""

import os
import sys

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(ROOT)]

try:
    import numpy as np  # noqa: E402
    import pbtkit  # noqa: E402
    from perfbench import tracing, workloads  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import pbtkit from {SRC}: {exc}")

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
#: units of the per-layer metrics that are neither call counts nor self times
COUNT_UNITS = {"optimizer.iterations": "count", "optimizer.converged": "count",
               "optimizer.gap_max": "1", "signaling.mc_rounds_per_s": "1/s",
               "nocloning.u_bytes": "bytes", "trace.overhead": "ratio"}
COUNT_SOURCES = {
    "optimizer.iterations": "sum over optimize jobs, from certification.json",
    "optimizer.converged": "optimize jobs reporting converged, from certification.json",
    "optimizer.gap_max": "max |p_opt - known optimum|, from certification.json",
    "signaling.mc_rounds_per_s": "sampled rounds / run_chain_batch span time",
    "nocloning.u_bytes": "computed from array size: 16*dim^2 of the largest "
                         "pointer-form unitary",
    "trace.overhead": "median traced pass_s / median untraced pass_s - 1",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: one timed set-up in a fresh process")
    p.add_argument("--workdir", type=Path, help="internal: directory for inputs")
    return p.parse_args(argv)


def _warm_up(workload: str, workdir: Path) -> None:
    for i, job in enumerate(workloads.warmup_jobs(workload, workdir / "inputs")):
        workloads.call_cli(job, workdir / "warmup" / str(i))


def _timed_setups(args, workdir: Path) -> list[float]:
    """Process start to ready, in fresh interpreters (monotonic clock is
    shared between processes)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--workdir", str(workdir)],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return samples


def _run_pass(jobs, out_root: Path, pass_no: int, tracer=None):
    """One pass over the job list; outputs are checked after the timed part."""
    timed = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (pass_no, i)
        timed.append(workloads.call_cli(job, out_root / str(i)))
    wall = time.perf_counter() - start
    outcomes = [workloads.check(job, code, secs, out_root / str(i))
                for i, (job, (code, secs)) in enumerate(zip(jobs, timed))]
    return wall, outcomes


def _run_passes(jobs, out_root: Path, seconds: float, first_pass: int, tracer=None):
    """Whole passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(jobs, out_root, first_pass + len(passes), tracer))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(w for w, _ in passes) > seconds:
            return passes


def _optimizer_counts(jobs, outcomes) -> dict[str, float]:
    answers = [(job, o.answer) for job, o in zip(jobs, outcomes)
               if job.subcommand == "optimize" and o.answer is not None]
    return {
        "optimizer.iterations": sum(a["iterations"] for _, a in answers),
        "optimizer.converged": sum(1 for _, a in answers if a["converged"]),
        "optimizer.gap_max": max((abs(a["p_opt"] - job.known) for job, a in answers),
                                 default=0.0),
    }


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pbtkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "pbtkit_source_sha256": _source_sha256(),
        "pbtkit_path": str(Path(pbtkit.__file__).resolve().parent),
    }


def _layer_unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


def _job_latency_ms(passes) -> tuple[float, float]:
    """Median and nearest-rank 95th percentile of one pass's job latencies,
    each a median over passes, so they do not depend on the number of passes.
    At 200 jobs a pass, ten latencies lie beyond the 95th percentile."""
    p50 = statistics.median(statistics.median(o.seconds for o in outcomes)
                            for _, outcomes in passes)
    p95 = statistics.median(
        float(np.percentile([o.seconds for o in outcomes], 95, method="inverted_cdf"))
        for _, outcomes in passes)
    return p50 * 1e3, p95 * 1e3


def _median_of(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _measure(args, workdir: Path) -> dict:
    inputs = workdir / "inputs"
    jobs = workloads.build_jobs(args.workload, args.seed, inputs)
    setup = _timed_setups(args, workdir)
    _warm_up(args.workload, workdir)  # inputs exist; fill this process's caches
    out_root = workdir / "out"
    record: dict = {"jobs_per_pass": len(jobs), "setup_samples_s": setup}
    if args.trace:
        plain = _run_passes(jobs, out_root, args.seconds / 2, 0)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = _run_passes(jobs, out_root, args.seconds / 2, len(plain), tracer)
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        passes = plain + traced
        per_pass = []
        for pass_no, (_, outcomes) in enumerate(traced, start=len(plain)):
            spans = [s for s in tracer.spans if s.job[0] == pass_no]
            per_pass.append({**tracing.layer_totals(spans),
                             **_optimizer_counts(jobs, outcomes)})
        layer = _median_of(per_pass)
        layer["trace.overhead"] = (statistics.median(w for w, _ in traced)
                                   / statistics.median(w for w, _ in plain) - 1.0)
        record.update(untraced_pass_s=[w for w, _ in plain],
                      traced_pass_s=[w for w, _ in traced], spans=len(tracer.spans),
                      count_sources=COUNT_SOURCES)
        metrics = {name: {"value": value, "unit": COUNT_UNITS.get(name, _layer_unit(name))}
                   for name, value in layer.items()}
    else:
        passes = _run_passes(jobs, out_root, args.seconds, 0)
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(w for w, _ in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        p50, p95 = _job_latency_ms(passes)
        record.update(pass_s=[w for w, _ in passes], job_p50_ms=p50, job_p95_ms=p95,
                      job_latency_samples_per_pass=len(jobs),
                      job_median_ms={" ".join(job.argv): statistics.median(
                          outcomes[i].seconds for _, outcomes in passes) * 1e3
                          for i, job in enumerate(jobs)},
                      counts=_median_of([_optimizer_counts(jobs, o) for _, o in passes]),
                      count_sources=COUNT_SOURCES)
    outcomes = [(job, o) for _, pass_outcomes in passes
                for job, o in zip(jobs, pass_outcomes)]
    failed = [(" ".join(job.argv), o.exit_code) for job, o in outcomes if not o.passed]
    record.update(passes=len(passes), attempted=len(outcomes), failed=len(failed),
                  fail_frac=len(failed) / len(outcomes), failures=failed[:20],
                  metrics=metrics)
    return record


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only:  # the import already happened when this module loaded
        workloads.write_inputs(args.workload, args.seed, args.workdir / "inputs")
        _warm_up(args.workload, args.workdir)
        print(time.monotonic())
        return 0
    if not Path(pbtkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: pbtkit imported from {pbtkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    try:
        record = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = _environment(args)
    result_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed}: {record['passes']} passes, "
          f"{record['failed']}/{record['attempted']} failed -> {result_path}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
