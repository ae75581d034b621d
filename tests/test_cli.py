"""CLI tests: subcommands, exit codes, report files, reproducibility."""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pbtkit import branches, cli, primed, signaling, tensor
from pbtkit.cli import PRIME_TOLERANCES, VERIFY_TOLERANCES, build_parser, dispatch
from pbtkit.engine import bell_pbt_protocol, protocol_to_dict
from pbtkit.optima import p_fixed
from pbtkit.signaling import bound
from reference import LAYOUTS, in_layout, set_part

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    with open(path, "w") as fh:
        json.dump(protocol_to_dict(bell_pbt_protocol(1)), fh)
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_builtin(tmp_path):
    code = dispatch(["simulate", "--builtin", "bell", "--ports", "2",
                     "--psi", "plus", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "simulate.json")
    assert doc["success_probability"] == pytest.approx(0.25, abs=1e-10)
    assert doc["branches"][1]["teleport_fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert doc["manifest"]["command"] == "simulate"


def test_simulate_protocol_file_and_psi_file(tmp_path, bell_file):
    reports = []
    for name, amplitudes in (("pairs", [[0.6, 0.0], [0.0, 0.8]]), ("flat", [0.6, 0.0, 0.0, 0.8])):
        psi_path = tmp_path / f"psi-{name}.json"
        with open(psi_path, "w") as fh:
            json.dump(amplitudes, fh)
        code = dispatch(["simulate", "--protocol", str(bell_file),
                         "--psi", str(psi_path), "--out", str(tmp_path / name)])
        assert code == 0
        reports.append(read_json(tmp_path / name / "simulate.json")["branches"])
    assert reports[0] == reports[1]


def test_verify_bell_passes(tmp_path):
    code = dispatch(["verify", "--builtin", "bell", "--ports", "1",
                     "--seed", "7", "--samples", "10", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "verify.json")
    assert len(doc["reports"]) == 3
    assert all(rep["passed"] for rep in doc["reports"])
    tags = {check["tag"] for rep in doc["reports"] for check in rep["checks"]}
    assert "Eq.3" in tags and "Lemma" in tags


def test_verify_is_byte_identical_for_same_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert dispatch(["verify", "--builtin", "bell", "--ports", "1",
                         "--seed", "3", "--samples", "5", "--out", str(out)]) == 0
    blob1 = (out1 / "verify.json").read_bytes()
    blob2 = (out2 / "verify.json").read_bytes()
    # same manifest except the output path; normalize it away
    assert blob1.replace(b'"a"', b'"x"') != b""
    doc1, doc2 = json.loads(blob1), json.loads(blob2)
    doc1["manifest"]["output_dir"] = doc2["manifest"]["output_dir"] = ""
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


@pytest.mark.parametrize("flags", [["--ports", "1"], ["--ports", "2"],
                                   ["--ports", "2", "--fixed-resource"]],
                         ids=["joint-1", "joint-2", "fixed-2"])
def test_optimize_is_byte_identical_for_same_manifest(tmp_path, monkeypatch, flags):
    """Two runs into the same directory, so even the manifests agree."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out, runs = tmp_path / "out", []
    for _ in range(2):
        assert dispatch(["optimize", "--qubits", "1", *flags, "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in
                     ("certification.json", "optimized_protocol.json", "solver_trace.csv")})
        shutil.rmtree(out)
    assert runs[0] == runs[1]


def test_malformed_povm_gives_exit_2(tmp_path, capsys):
    for layout in LAYOUTS:
        doc = in_layout(protocol_to_dict(bell_pbt_protocol(1)), layout)
        doc["povm"] = [(1.01 * np.array(mat)).tolist() for mat in doc["povm"]]
        path = tmp_path / "bad.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "completeness" in capsys.readouterr().err


def test_malformed_json_gives_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "broken.json" in capsys.readouterr().err


@pytest.mark.parametrize("edit,named", [
    (lambda doc: [1, 2], "JSON object"),
    (lambda doc: {**doc, "povm": 5}, "'povm'"),
    (lambda doc: {**doc, "dims": 7}, "'dims'"),
])
def test_protocol_document_of_the_wrong_shape_gives_exit_2(tmp_path, capsys, edit, named):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(edit(protocol_to_dict(bell_pbt_protocol(1)))))
    code = dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "shape.json" in err


def test_missing_field_names_field(tmp_path, capsys):
    doc = protocol_to_dict(bell_pbt_protocol(1))
    del doc["resource"]
    path = tmp_path / "partial.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code = dispatch(["verify", "--protocol", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "resource" in err and "partial.json" in err


def test_prime_emits_protocol_and_report(tmp_path):
    code = dispatch(["prime", "--builtin", "bell", "--ports", "2",
                     "--samples", "5", "--out", str(tmp_path)])
    assert code == 0
    primed = read_json(tmp_path / "primed_protocol.json")
    assert primed["primed"] is True
    report = read_json(tmp_path / "eq5_report.json")
    assert report["marginals"]["passed"]
    assert all(r["passed"] for r in report["failure_twirl"])


@pytest.mark.parametrize("command,report,flags", [
    ("simulate", "simulate.json", ()),
    ("verify", "verify.json", ("--samples", "5")),
])
def test_primed_document_reads_back_as_its_base_protocol(tmp_path, monkeypatch, command,
                                                         report, flags):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    primed = tmp_path / "prime" / "primed_protocol.json"
    assert dispatch(["prime", "--builtin", "bell", "--ports", "2", "--samples", "2",
                     "--out", str(primed.parent)]) == 0
    runs = {}
    for source in (("--builtin", "bell", "--ports", "2"), ("--protocol", str(primed))):
        assert dispatch([command, *source, "--seed", "7", *flags,
                         "--out", str(tmp_path / "run")]) == 0
        runs[source[0]] = read_json(tmp_path / "run" / report)
    assert runs["--builtin"]["manifest"].pop("input_paths") == []
    assert runs["--protocol"]["manifest"].pop("input_paths") == [str(primed)]
    assert runs["--protocol"] == runs["--builtin"]


def test_audit_signaling(tmp_path):
    code = dispatch(["audit-signaling", "--builtin", "bell", "--ports", "1",
                     "--message", "2", "--mc-rounds", "5000",
                     "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "signaling_report.json")
    sig = doc["signaling"][0]
    assert sig["ports"][0]["p_prime_simulated"] == pytest.approx(0.25, abs=1e-10)
    assert doc["monte_carlo"][0]["passed"]


def test_audit_signaling_samples_the_reported_port_analyses(tmp_path, monkeypatch):
    # the cross-check draws from the exact audit's trees, analysed once each
    analysed, sampled = [], []
    real_analyze, real_batch = signaling.analyze_chain, signaling.run_chain_batch

    def analyze(branches, j):
        analysed.append(real_analyze(branches, j))
        return analysed[-1]

    def batch(analysis, rounds, seed):
        sampled.append(analysis)
        return real_batch(analysis, rounds, seed)

    monkeypatch.setattr(signaling, "analyze_chain", analyze)
    monkeypatch.setattr(signaling, "run_chain_batch", batch)
    assert dispatch(["audit-signaling", "--builtin", "bell", "--ports", "3",
                     "--mc-rounds", "100", "--out", str(tmp_path)]) == 0
    assert [a.j for a in analysed] == [1, 2, 3]
    assert len(sampled) == 3 and all(a is b for a, b in zip(sampled, analysed))


def test_audit_signaling_all_messages_parallel(tmp_path):
    code = dispatch(["audit-signaling", "--builtin", "bell", "--ports", "2",
                     "--all-messages", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "signaling_report.json")
    assert len(doc["signaling"]) == 4


def optimize_run(tmp_path, *flags):
    """Certificate and trace phases of one optimize run that exits 0."""
    code = dispatch(["optimize", "--qubits", "1", *flags, "--max-iterations", "3000",
                     "--out", str(tmp_path)])
    assert code == 0
    cert = read_json(tmp_path / "certification.json")
    assert cert["certification"]["passed"]
    rows = (tmp_path / "solver_trace.csv").read_text().splitlines()
    assert rows[0].startswith("# manifest:")
    assert rows[1] == "iteration,objective,residual,phase"
    # the solver stops on its own, well inside the cap
    assert cert["converged"] is True
    assert len(rows) - 2 == cert["iterations"] < 3000
    assert read_json(tmp_path / "optimized_protocol.json")["kind"] == "pbt-protocol"
    return cert, [row.rsplit(",", 1)[1] for row in rows[2:]]


def test_optimize_fixed_resource(tmp_path):
    """N=1 with the standard resource: the optimum is constructed, so no
    iteration runs and the trace has only its header."""
    cert, phases = optimize_run(tmp_path, "--ports", "1", "--fixed-resource")
    assert cert["p_opt"] == pytest.approx(float(p_fixed(1, 1)), abs=1e-12)
    assert cert["p_upper"] == float(p_fixed(1, 1))
    assert cert["stopped_by"] == "certificate"
    assert (cert["iterations"], cert["switch_iteration"]) == (0, 0)
    assert phases == []


def test_optimize_stall_stop_labels_the_phases(tmp_path):
    """Joint N=3 never meets its upper end: the stall test ends the run and
    the rows switch from adaptive to stiff at the switch iteration."""
    cert, phases = optimize_run(tmp_path, "--ports", "3")
    assert cert["p_upper"] == float(bound(1, 3))
    assert cert["stopped_by"] == "stall"
    switch = cert["switch_iteration"]
    assert 1 < switch <= cert["iterations"]
    assert phases == ["adaptive"] * (switch - 1) + ["stiff"] * (len(phases) - switch + 1)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_optimize_rejects_non_positive_iteration_budget(tmp_path, capsys, budget):
    code = dispatch(["optimize", "--qubits", "1", "--ports", "1",
                     "--max-iterations", budget, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "--max-iterations" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bound_table(tmp_path):
    code = dispatch(["bound-table", "--n", "1", "--max-qubits", "2",
                     "--max-ports", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 10
    by_key = {(row["n"], row["N"]): row for row in rows}
    assert float(by_key[("1", "3")]["bound"]) == 0.5
    assert float(by_key[("2", "4")]["bound"]) == pytest.approx(4 / 19, abs=1e-12)
    assert float(by_key[("2", "4")]["p_max_n1_pow_n"]) == pytest.approx(
        (4 / 7) ** 2, abs=1e-12)
    for (n, big_n), row in by_key.items():
        assert float(row["p_max_n1_formula"]) == float(bound(1, int(big_n)))
        assert float(row["p_fixed"]) == float(p_fixed(int(n), int(big_n)))
    assert by_key[("1", "3")]["p_fixed"] == repr(13 / 32)


def test_bound_table_with_optimizer_value(tmp_path):
    opt = {"n": 1, "N": 1, "p_opt": 0.25}
    path = tmp_path / "opt.json"
    with open(path, "w") as fh:
        json.dump(opt, fh)
    code = dispatch(["bound-table", "--n", "1", "--max-ports", "2",
                     "--optimizer-json", str(path), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert rows[0]["optimizer_value"] == "0.25"
    assert rows[1]["optimizer_value"] == ""


@pytest.mark.parametrize("opt,field", [
    ({"n": 2.9, "N": "2", "p_opt": "0.4"}, "n"),
    ({"n": 2, "N": "2", "p_opt": 0.1}, "N"),
    ({"n": 0, "N": 2, "p_opt": 0.1}, "n"),
    ({"n": 2, "N": -1, "p_opt": 0.1}, "N"),
    ({"n": 2, "N": 2, "p_opt": "0.4"}, "p_opt"),
    ({"n": 2, "N": 2, "p_opt": True}, "p_opt"),
    ({"n": 2, "N": 2, "p_opt": None}, "p_opt"),
    ({"n": 2, "N": 2, "p_opt": float("nan")}, "p_opt"),
    ({"n": 2, "N": 2, "p_opt": float("-inf")}, "p_opt"),
    ({"n": 2, "N": 2, "p_opt": 10**400}, "p_opt"),
], ids=["fraction n", "string N", "zero n", "negative N", "string p_opt", "boolean p_opt",
        "null p_opt", "nan p_opt", "infinite p_opt", "huge p_opt"])
def test_bound_table_refuses_a_malformed_optimizer_field(tmp_path, capsys, opt, field):
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(opt))
    code = dispatch(["bound-table", "--n", "1", "--max-qubits", "2", "--max-ports", "2",
                     "--optimizer-json", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "opt.json" in err and f"field {field!r}" in err
    assert not (tmp_path / "out" / "bounds.csv").exists()


@pytest.mark.parametrize("opt,named", [
    ({"n": 2, "N": 2, "p_opt": 0.4}, "field 'p_opt'"),
    ({"n": 3, "N": 9, "p_opt": 0.1}, "fields 'n', 'N'"),
], ids=["p_opt above the bound", "(n, N) outside the table"])
def test_bound_table_refuses_an_optimizer_value_it_cannot_place(tmp_path, capsys, opt, named):
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(opt))
    code = dispatch(["bound-table", "--n", "1", "--max-qubits", "2", "--max-ports", "2",
                     "--optimizer-json", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "opt.json" in err and named in err
    assert not (tmp_path / "out" / "bounds.csv").exists()


def test_bound_table_refuses_two_optimizer_values_for_one_row(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"n": 1, "N": 2, "p_opt": 0.3}))
    second.write_text(json.dumps({"n": 1, "N": 2, "p_opt": 0.39}))
    code = dispatch(["bound-table", "--n", "1", "--max-ports", "2",
                     "--optimizer-json", str(first), "--optimizer-json", str(second),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "first.json" in err and "second.json" in err and "(1, 2)" in err
    assert not (tmp_path / "out" / "bounds.csv").exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "pbtkit", "bound-table", "--max-ports", "2",
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "bounds.csv").exists()


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("argv", [
    ["simulate", "--builtin", "bell", "--ports", "2"],
    ["verify", "--builtin", "bell", "--ports", "2", "--samples", "2"],
    ["prime", "--builtin", "bell", "--ports", "2", "--samples", "2"],
    ["audit-signaling", "--builtin", "bell", "--ports", "2", "--mc-rounds", "1000"],
    ["optimize", "--ports", "1", "--max-iterations", "100"],
    ["optimize", "--fixed-resource", "--ports", "2"],
], ids=["simulate", "verify", "prime", "audit-signaling", "optimize", "optimize fixed"])
def test_every_subcommand_writes_strict_json(tmp_path, argv):
    # NaN and Infinity are not JSON: a report carrying one fails to parse here
    assert dispatch([*argv, "--out", str(tmp_path)]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert written
    for path in written:
        json.loads(path.read_text(), parse_constant=refuse_constant)


def test_usage_errors(tmp_path, capsys):
    assert dispatch(["verify", "--out", str(tmp_path)]) == 2  # no protocol source
    assert dispatch(["simulate", "--builtin", "bell", "--qubits", "2",
                     "--out", str(tmp_path)]) == 2  # simulate has no --qubits
    assert dispatch(["verify", "--builtin", "bell", "--tolerance", "nope=1",
                     "--out", str(tmp_path)]) == 2
    assert dispatch(["no-such-command"]) == 2


def test_verify_refuses_an_oversized_pointer_form_with_exit_2(tmp_path, capsys, monkeypatch):
    # at N = 2 the dilation is a 24 x 24 unitary plus the SVD's U of the same size
    monkeypatch.setattr(tensor, "MEMORY_BUDGET", 2 * 16 * 24**2 - 1)
    assert dispatch(["verify", "--builtin", "bell", "--ports", "2",
                     "--out", str(tmp_path)]) == 2
    assert (f"pointer-form dilation needs {2 * 16 * 24**2} bytes, above the cap of "
            f"{2 * 16 * 24**2 - 1} bytes") in capsys.readouterr().err


def test_verify_bell_five_ports_passes(tmp_path):
    assert dispatch(["verify", "--builtin", "bell", "--ports", "5",
                     "--out", str(tmp_path)]) == 0
    assert all(rep["passed"] for rep in read_json(tmp_path / "verify.json")["reports"])


def test_parser_is_reused_without_carrying_options_over(tmp_path):
    assert dispatch(["verify", "--builtin", "bell", "--samples", "2",
                     "--tolerance", "eq3=1e-3", "--out", str(tmp_path / "a")]) == 0
    assert dispatch(["verify", "--builtin", "bell", "--samples", "2",
                     "--out", str(tmp_path / "b")]) == 0
    first, second = (read_json(tmp_path / out / "verify.json")["manifest"]["parameters"]
                     for out in ("a", "b"))
    assert first["tolerances"] == {**VERIFY_TOLERANCES, "eq3": 1e-3}
    assert second["tolerances"] == VERIFY_TOLERANCES
    assert build_parser() is build_parser()


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PBTKIT_OUT", str(tmp_path / "envout"))
    code = dispatch(["bound-table", "--n", "1", "--max-ports", "1"])
    assert code == 0
    assert (tmp_path / "envout" / "bounds.csv").exists()



#: every subcommand's option strings; each one is read by its subcommand
SUBCOMMAND_FLAGS = {
    "simulate": {"--protocol", "--builtin", "--ports", "--seed", "--psi", "--out"},
    "verify": {"--protocol", "--builtin", "--ports", "--seed", "--samples", "--tolerance",
               "--out"},
    "prime": {"--protocol", "--builtin", "--ports", "--seed", "--samples", "--tolerance",
              "--out"},
    "audit-signaling": {"--protocol", "--builtin", "--ports", "--seed", "--message",
                        "--all-messages", "--mc-rounds", "--out"},
    "optimize": {"--qubits", "--n", "--ports", "--seed", "--fixed-resource",
                 "--max-iterations", "--out"},
    "bound-table": {"--qubits", "--n", "--max-qubits", "--max-ports", "--optimizer-json",
                    "--out"},
}
#: the smallest valid call of each subcommand
MINIMAL_ARGV = {
    "simulate": ["--builtin", "bell"],
    "verify": ["--builtin", "bell"],
    "prime": ["--builtin", "bell"],
    "audit-signaling": ["--builtin", "bell"],
    "optimize": ["--max-iterations", "1"],
    "bound-table": ["--max-ports", "1"],
}


def test_each_subcommand_has_exactly_the_flags_it_reads():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    flags = {name: {opt for action in parser._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, parser in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS
    assert sum(len(opts - {"--n"}) for opts in flags.values()) == 39


@pytest.mark.parametrize("subcommand,flag", [
    *[(cmd, flag) for cmd in ("simulate", "audit-signaling", "optimize")
      for flag in ("--samples", "--tolerance")],
    *[("bound-table", flag) for flag in ("--ports", "--seed", "--samples", "--tolerance")],
    *[(cmd, "--qubits") for cmd in ("simulate", "verify", "prime", "audit-signaling")],
])
def test_removed_flags_exit_2(tmp_path, capsys, subcommand, flag):
    value = "x=1" if flag == "--tolerance" else "1"
    out = tmp_path / "out"
    argv = [subcommand, *MINIMAL_ARGV[subcommand], flag, value, "--out", str(out)]
    assert dispatch(argv) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,name", [("verify", "b9"), ("prime", "eq3"),
                                             ("verify", "signaling")])
def test_tolerance_of_another_subcommand_exits_2(tmp_path, capsys, subcommand, name):
    out = tmp_path / "out"
    assert dispatch([subcommand, "--builtin", "bell", "--tolerance", f"{name}=1",
                     "--out", str(out)]) == 2
    assert f"unknown tolerance {name!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,name", [("verify", "eq3"), ("prime", "b9")])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
def test_non_finite_or_non_positive_tolerance_exits_2(tmp_path, capsys, subcommand, name,
                                                      value):
    out = tmp_path / "out"
    assert dispatch([subcommand, "--builtin", "bell", "--samples", "2",
                     "--tolerance", f"{name}={value}", "--out", str(out)]) == 2
    assert (f"tolerance {name!r}: {value!r} is not a finite positive number"
            in capsys.readouterr().err)
    assert not out.exists()


def test_prime_manifest_records_its_own_tolerances(tmp_path):
    assert dispatch(["prime", "--builtin", "bell", "--samples", "2",
                     "--tolerance", "b9=1e-9", "--out", str(tmp_path)]) == 0
    for name in ("eq5_report.json", "primed_protocol.json"):
        params = read_json(tmp_path / name)["manifest"]["parameters"]
        assert params["tolerances"] == {**PRIME_TOLERANCES, "b9": 1e-9}


def test_audit_message_out_of_range_exits_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(proto):
        raise AssertionError("the message is checked before the twirled protocol is built")

    monkeypatch.setattr(cli, "build_primed", no_work)
    out = tmp_path / "out"
    assert dispatch(["audit-signaling", "--builtin", "bell", "--message", "5",
                     "--out", str(out)]) == 2
    assert "message 5 out of range [1, 4]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "bell", "--samples", "0"],
    ["prime", "--builtin", "bell", "--samples", "0"],
    ["simulate", "--builtin", "bell", "--ports", "-1"],
    ["simulate", "--builtin", "bell", "--ports", "0"],
    ["optimize", "--ports", "0"],
    ["optimize", "--qubits", "0"],
    ["verify", "--builtin", "bell", "--seed", "-1"],
    ["bound-table", "--max-ports", "0"],
    ["bound-table", "--max-ports", "2", "--max-qubits", "0"],
    ["audit-signaling", "--builtin", "bell", "--mc-rounds", "-5"],
    ["verify", "--builtin", "bell", "--samples", "two"],
    ["optimize", "--max-iterations", "0"],
    ["audit-signaling", "--builtin", "bell", "--message", "0"],
])
def test_bad_counts_are_rejected_at_parse_time(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 2
    assert "error: argument --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pairs", [[[0, 0], [0, 0]], [[float("nan"), 0], [1, 0]],
                                   [[1, 0], [0, float("inf")]]])
def test_psi_file_that_is_zero_or_not_finite_exits_2(tmp_path, capsys, pairs):
    path = tmp_path / "psi.json"
    for amplitudes in (pairs, [x for pair in pairs for x in pair]):
        path.write_text(json.dumps(amplitudes))
        code = dispatch(["simulate", "--builtin", "bell", "--ports", "2", "--psi", str(path),
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--psi" in err and ("finite" in err or "zero" in err)
        assert not (tmp_path / "simulate.json").exists()


def corrupted(doc, field, value, layout):
    """``doc`` in ``layout`` with the real part of resource entry 3, or the
    imaginary part of entry 5 of POVM element 1, set to ``value``."""
    doc = in_layout(doc, layout)
    if field == "resource":
        set_part(doc["resource"], 3, 0, value)
    else:
        set_part(doc["povm"][1], 5, 1, value)
    return doc


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("field,value,named", [("resource", float("nan"), "'resource'"),
                                               ("povm", float("inf"), "'povm[1]'"),
                                               ("povm", float("nan"), "'povm[1]'")])
def test_protocol_file_with_non_finite_entries_exits_2(tmp_path, capsys, command, field,
                                                       value, named):
    path = tmp_path / "bad.json"
    for layout in LAYOUTS:
        doc = corrupted(protocol_to_dict(bell_pbt_protocol(2)), field, value, layout)
        path.write_text(json.dumps(doc))
        code = dispatch([command, "--protocol", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "finite" in err and "bad.json" in err


@pytest.mark.parametrize("field,value,message", [("resource", 5.0, "norm"),
                                                 ("povm", 0.5, "conjugate transpose")])
def test_protocol_file_with_invalid_state_or_operator_exits_2(tmp_path, capsys, field, value,
                                                              message):
    path = tmp_path / "bad.json"
    for layout in LAYOUTS:
        doc = corrupted(protocol_to_dict(bell_pbt_protocol(2)), field, value, layout)
        path.write_text(json.dumps(doc))
        assert dispatch(["simulate", "--protocol", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# each step computes what its report reads, once


def test_verify_factors_only_the_outcomes_an_input_reached(monkeypatch, tmp_path):
    # bell N=4 reaches outcome 1 alone: the Lemma factors the port-B1 branches
    # and the theorem the pointer-outcome-1 branches, one matrix per input
    # each (factoring every outcome took 50 per port B1..B4 and 200 over a)
    factored, inside = {}, []
    real_residuals, real_svd = branches.BranchBatch.residuals, np.linalg.svd

    def residuals(batch, labels, k):
        inside.append(labels)
        try:
            return real_residuals(batch, labels, k)
        finally:
            inside.pop()

    def svd(a, *args, **kwargs):
        if inside:
            factored[inside[-1]] = factored.get(inside[-1], 0) + int(np.prod(a.shape[:-2]))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(branches.BranchBatch, "residuals", residuals)
    monkeypatch.setattr(np.linalg, "svd", svd)
    argv = ["verify", "--builtin", "bell", "--ports", "4", "--samples", "50"]
    assert dispatch([*argv, "--out", str(tmp_path)]) == 0
    assert factored == {"B1": 50, "a": 50}


def test_prime_runs_the_failure_twirl_once(monkeypatch, tmp_path):
    # one twirled run of the input and one batch of rotated base runs serve
    # all four ports (one per port each took 4 + 4)
    calls, inside = [], []
    real_twirl = cli.verify_failure_marginal_twirl

    def twirl(*args, **kwargs):
        inside.append(True)
        try:
            return real_twirl(*args, **kwargs)
        finally:
            inside.pop()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "verify_failure_marginal_twirl", twirl)
    monkeypatch.setattr(primed, "run_primed", counting("run_primed", primed.run_primed))
    monkeypatch.setattr(primed, "measure", counting("measure", primed.measure))
    assert dispatch(["prime", "--builtin", "bell", "--ports", "4", "--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["measure", "run_primed"]
    twirl_reports = json.loads((tmp_path / "eq5_report.json").read_text())["failure_twirl"]
    assert [rep["subject"] for rep in twirl_reports] == [
        f"failure marginal twirl decomposition, port {j}" for j in range(1, 5)]
