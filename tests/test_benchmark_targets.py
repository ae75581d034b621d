"""The benchmark's view of pbtkit must stay resolvable: ``perfbench/run.py
--trace 1`` patches every ``"module:attr"`` in ``perfbench/tracing.py``
``TARGETS`` and reads ``u.nbytes`` from what ``pointer_form`` returns and
the round count from what ``run_chain_batch`` returns, and
``perfbench/workloads.py`` imports pbtkit names to build its jobs and inputs,
and its gate and ``perfbench/run.py`` read fields of the reports jobs write.
A pbtkit name moved or renamed under the benchmark fails here, and so do a
report field the benchmark reads going missing and a traced run that leaves
a wrapper behind or misses the routine it names."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from pbtkit.engine import (
    PROTOCOL_FORMAT_VERSION,
    bell_pbt_protocol,
    load_protocol,
    measure,
    save_protocol,
)
from pbtkit.nocloning import pointer_form
from pbtkit.primed import build_primed
from pbtkit.signaling import compute_chain_exact, run_chain_batch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """``perfbench/<name>.py``, read from its file (perfbench is not installed)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_trace_target_resolves_to_a_callable(name):
    target = tracing.TARGETS[name]
    _, member, original = tracing.resolve(target)
    assert callable(original), f"{name}: {target} is not callable"
    assert member == target.rsplit(":", 1)[1].rsplit(".", 1)[-1]


def test_run_chain_batch_still_reports_the_round_count():
    port = compute_chain_exact(build_primed(bell_pbt_protocol(2)), message=1).ports[1]
    drawn = run_chain_batch(port, rounds=333, seed=7)
    assert tracing.OBSERVE["signaling.run_chain_batch"](drawn) == 333


def test_pointer_form_still_reports_the_unitary_bytes():
    # the unitary on (a, A, ancilla, pi): 2 * 4 * 1 * 3 = 24 at N = 2
    op = pointer_form(bell_pbt_protocol(2))
    assert tracing.OBSERVE["nocloning.pointer_form"](op) == 16 * 24**2 == op.u.nbytes


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_job_lists_build(name, tmp_path):
    jobs = workloads.build_jobs(name, 7, tmp_path) + workloads.warmup_jobs(name, tmp_path)
    assert jobs and all(job.subcommand in workloads.OUTPUT_FILE for job in jobs)


def test_benchmark_reads_its_fields_from_the_reports(monkeypatch, tmp_path):
    # run.py pins the BLAS threads in os.environ and extends sys.path on loading
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = load_perfbench("run")
    monkeypatch.setattr(run.workloads, "SIMULATE_FILES", 1)
    inputs = tmp_path / "inputs"
    run.workloads.write_inputs("simulate", 3, inputs)
    # the joint N=1 optimize job, and one simulate job
    jobs = [run.workloads.build_jobs(name, 3, inputs)[0] for name in ("optimize", "simulate")]
    outcomes = []
    for i, job in enumerate(jobs):
        code, seconds = run.workloads.call_cli(job, tmp_path / str(i))
        outcomes.append(run.workloads.check(job, code, seconds, tmp_path / str(i)))
    assert [o.passed for o in outcomes] == [True, True]
    counts = run._optimizer_counts(jobs, outcomes)
    assert counts["optimizer.iterations"] > 0 and counts["optimizer.converged"] == 1
    assert counts["optimizer.gap_max"] <= jobs[0].tolerance


def test_rotated_reference_protocol_builds_and_teleports():
    proto = workloads.rotated_bell_protocol(2, np.random.Generator(np.random.PCG64(7)))
    q = measure(proto, np.eye(2, dtype=complex)).q
    np.testing.assert_allclose(q[:, 1:].sum(axis=1), workloads.SIMULATE_P, atol=1e-12)


def test_simulate_inputs_carry_the_current_format_and_load_bit_identically(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIMULATE_FILES", 6)
    workloads.write_inputs("simulate", 41, tmp_path)
    rng = np.random.Generator(np.random.PCG64(41))
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == 6
    ports = workloads.SIMULATE_PORTS
    for i, path in enumerate(paths):
        built = workloads.rotated_bell_protocol(ports[i % len(ports)], rng)
        assert json.loads(path.read_text())["version"] == PROTOCOL_FORMAT_VERSION == "2"
        loaded = load_protocol(path)
        assert loaded.resource.amplitudes.tobytes() == built.resource.amplitudes.tobytes()
        assert len(loaded.povm) == len(built.povm) == built.N + 1
        for a, b in zip(loaded.povm, built.povm):
            assert a.entries.tobytes() == b.entries.tobytes()


def bindings():
    """Identity of every name bound in every loaded pbtkit module and of every
    member of its classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "pbtkit" and not mod_name.startswith("pbtkit."):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for member, obj in vars(value).items():
                    out[(mod_name, f"{key}.{member}")] = id(obj)
    return out


def test_traced_jobs_reach_every_routine_and_restore_every_binding(tmp_path):
    import pbtkit.cli  # noqa: F401 - make every pbtkit module loaded
    originals = [tracing.resolve(t)[2] for t in tracing.TARGETS.values()]
    assert len({id(obj) for obj in originals}) == len(tracing.TARGETS)
    path = tmp_path / "protocol.json"
    save_protocol(workloads.rotated_bell_protocol(3, np.random.Generator(np.random.PCG64(2))),
                  path)
    simulate = workloads.Job(("simulate", "--protocol", str(path), "--psi", "haar",
                              "--seed", "3"))
    verify = workloads.Job(("verify", "--builtin", "bell", "--ports", "1", "--samples", "5",
                            "--seed", "3"))
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert workloads.call_cli(simulate, tmp_path / "simulate")[0] == 0
        simulate_spans = len(tracer.spans)
        assert workloads.call_cli(verify, tmp_path / "verify")[0] == 0
    assert bindings() == before
    totals = tracing.layer_totals(tracer.spans[:simulate_spans])
    assert totals["engine.measure.calls"] == totals["engine.teleport_report.calls"] == 1
    verified = tracing.layer_totals(tracer.spans[simulate_spans:])
    for name in ("engine.measure", "engine.povm_branches", "engine.teleport_report",
                 "nocloning.decompose_by_pointer"):
        assert verified[f"{name}.calls"] > 0, name
