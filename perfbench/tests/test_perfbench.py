"""Checks on the benchmark itself: deterministic job lists and answers, the
correctness gates, the tracer's bindings and spans, and the output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pbtkit
from perfbench import tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _subset(workload, seed, inputs):
    """The cheap jobs of each workload (N <= 3, one optimize solve)."""
    jobs = workloads.build_jobs(workload, seed, inputs)
    if workload == "optimize":
        return jobs[:1]
    if workload == "verify":
        return [j for j in jobs if j.argv[4] in ("1", "2", "3")]
    return jobs[:8]


def _run(jobs, out):
    outcomes = []
    for i, job in enumerate(jobs):
        code, secs = workloads.call_cli(job, out / str(i))
        outcomes.append(workloads.check(job, code, secs, out / str(i)))
    return outcomes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """simulate's protocol files for seeds 7 and 8."""
    base = tmp_path_factory.mktemp("inputs")
    for seed in (7, 8):
        workloads.write_inputs("simulate", seed, base / str(seed))
    return base


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload, tmp_path):
    assert (workloads.build_jobs(workload, 7, tmp_path)
            == workloads.build_jobs(workload, 7, tmp_path))
    assert (workloads.build_jobs(workload, 7, tmp_path)
            != workloads.build_jobs(workload, 8, tmp_path))


def test_same_seed_same_inputs(inputs, tmp_path):
    workloads.write_inputs("simulate", 7, tmp_path)
    files = sorted(p.name for p in (inputs / "7").iterdir())
    assert len(files) == workloads.SIMULATE_FILES
    for name in files:
        assert (tmp_path / name).read_bytes() == (inputs / "7" / name).read_bytes()
    assert (inputs / "8" / files[0]).read_bytes() != (inputs / "7" / files[0]).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_exit_codes_and_answers(workload, inputs, tmp_path):
    jobs = _subset(workload, 7, inputs / "7")
    first = _run(jobs, tmp_path / "a")
    second = _run(jobs, tmp_path / "b")
    assert [o.exit_code for o in first] == [o.exit_code for o in second]
    assert [o.answer for o in first] == [o.answer for o in second]
    assert all(o.passed for o in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_passes_every_gate(workload, inputs, tmp_path):
    outcomes = _run(_subset(workload, 8, inputs / "8"), tmp_path)
    assert outcomes and all(o.exit_code == 0 and o.passed for o in outcomes)


def _gate(job, doc, tmp_path):
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / workloads.OUTPUT_FILE[job.subcommand]).write_text(json.dumps(doc))
    return workloads.check(job, 0, 1.0, out).passed


def test_gates_reject_wrong_answers(tmp_path):
    job = workloads.build_jobs("optimize", 7, tmp_path)[0]
    good = {"p_opt": 0.25, "certification": {"passed": True}}
    assert _gate(job, good, tmp_path / "1")
    assert not _gate(job, {**good, "p_opt": 0.2498}, tmp_path / "2")
    assert not _gate(job, {**good, "certification": {"passed": False}}, tmp_path / "3")
    job = workloads.build_jobs("simulate", 7, tmp_path)[0]
    branches = [{"k": 0, "probability": 0.75}, {"k": 1, "probability": 0.25}]
    assert not _gate(job, {"success_probability": 0.25, "branches": branches},
                     tmp_path / "4")  # success branch without a fidelity
    branches[1]["teleport_fidelity"] = 1.0
    assert _gate(job, {"success_probability": 0.25, "branches": branches}, tmp_path / "5")
    assert not _gate(job, {"success_probability": 0.26, "branches": branches},
                     tmp_path / "6")
    assert not workloads.check(job, 1, 1.0, tmp_path).passed
    assert not workloads.check(job, 0, 1.0, tmp_path / "missing").passed


def _bindings():
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


def test_tracer_rebinds_every_name_and_restores_them():
    import pbtkit.cli  # noqa: F401 - make every pbtkit module loaded
    before = _bindings()
    originals = {name: tracing.resolve(t) for name, t in tracing.TARGETS.items()}
    modules = [m for n, m in sys.modules.items() if n.startswith("pbtkit")]
    with tracing.Tracer().installed():
        for name, (owner, member, original) in originals.items():
            if isinstance(owner, type):
                assert vars(owner)[member] is not original, name
            for mod in modules:
                bound = [k for k, v in vars(mod).items() if v is original]
                assert not bound, (name, mod.__name__, bound)
        assert pbtkit.cli.measure is pbtkit.engine.measure
        assert pbtkit.cli.measure is not originals["engine.measure"][2]
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("job crashed")
    assert _bindings() == before


def test_spans_nest_and_self_times_add_up(inputs, tmp_path):
    job = workloads.build_jobs("simulate", 7, inputs / "7")[3]
    tracer = tracing.Tracer()
    tracer.job = ("pass", 0)
    with tracer.installed():
        code, _ = workloads.call_cli(job, tmp_path)
    assert code == 0
    by_id = {s.span_id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent_id is None]
    assert [s.name for s in roots] == ["cli.dispatch"]
    for s in tracer.spans:
        assert s.job == ("pass", 0)
        assert 0 <= s.self_ns <= s.duration_ns
        if s.parent_id is not None:
            parent = by_id[s.parent_id]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
    assert sum(s.self_ns for s in tracer.spans) == roots[0].duration_ns
    totals = tracing.layer_totals(tracer.spans)
    assert totals["engine.measure.calls"] == 1
    assert totals["engine.protocol_from_dict.calls"] == 1
    assert totals["optimizer.solve.calls"] == 0
    assert totals["engine.self_s"] == pytest.approx(sum(
        totals[f"{name}.self_s"] for name in tracing.TARGETS if name.startswith("engine.")))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "simulate", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workloads.SIMULATE_FILES
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
