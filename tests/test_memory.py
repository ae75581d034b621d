"""The memory budget: one byte limit, ``tensor.MEMORY_BUDGET``, checked by
every site that can be asked for a large array before it allocates one.

Each site is refused just below its own largest array, with its allocations
staying below the budget; the guard arithmetic alone admits every size the
former caps admitted on the shipped grid; and the oversized commands exit 2
at once."""

import ast
import dataclasses
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pbtkit import nocloning, tensor
from pbtkit.cli import dispatch
from pbtkit.engine import (
    PbtProtocol,
    bell_pbt_protocol,
    check_protocol_bytes,
    standard_resource,
)
from pbtkit.errors import LayoutError
from pbtkit.nocloning import check_dilation_bytes, pointer_form, verify_theorem
from pbtkit.optimizer import DIMENSION_CAP, _joint_array_bytes, build_joint_sdp, build_sdp
from pbtkit.pauli import haar_amplitudes
from pbtkit.primed import build_primed, check_chain_bytes
from pbtkit.signaling import ROUND_BYTES, ChainBranches, analyze_chain, run_chain_batch

SRC = Path(__file__).resolve().parents[1] / "src" / "pbtkit"


# ---------------------------------------------------------------------------
# one budget, assigned in one place


def assigned_names(source: str) -> list[str]:
    """Every name or attribute that an assignment in ``source`` binds."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for leaf in (leaf for target in targets for leaf in ast.walk(target)):
            if isinstance(leaf, ast.Name):
                names.append(leaf.id)
            elif isinstance(leaf, ast.Attribute):
                names.append(leaf.attr)
    return names


def test_the_assignment_scan_sees_every_target():
    source = "A_CAP = 1\nx.B_CAP = 2\nC, (D_CAP, e) = f\nG_CAP: int = 3\nH_CAP += 1\n"
    assert [name for name in assigned_names(source) if "_CAP" in name] == [
        "A_CAP", "B_CAP", "D_CAP", "G_CAP", "H_CAP"]


def test_the_budget_is_assigned_once_in_tensor_and_no_other_cap_but_the_optimizers():
    budgets, caps = [], []
    for path in sorted(SRC.glob("*.py")):
        names = assigned_names(path.read_text())
        budgets += [path.stem for name in names if name == "MEMORY_BUDGET"]
        caps += [f"{path.stem}.{name}" for name in names if "_CAP" in name]
    assert budgets == ["tensor"]
    assert caps == ["optimizer.DIMENSION_CAP"]


# ---------------------------------------------------------------------------
# every site refuses before it allocates


def _chain_analysis():
    return analyze_chain(ChainBranches(build_primed(bell_pbt_protocol(1)), 1), 1)


#: site -> (its inputs, built under the default budget; the call; the bytes of
#: the largest array the call, or one run of what it builds, needs)
SITES = {
    # 7 branches over (a, A, B1..B6) of 2 x 64 x 64 amplitudes
    "standard_resource": (lambda: None, lambda _: standard_resource(1, 6), 16 * 7 * 2 * 64 * 64),
    # 7 POVM roots on (a, A), 128 x 128 each, and one input's 7 branches:
    # measure holds both, so they are counted together
    "bell_pbt_protocol roots": (lambda: None, lambda _: bell_pbt_protocol(6),
                                16 * 7 * 128**2 + 16 * 7 * 2 * 64 * 64),
    "PbtProtocol roots": (lambda: bell_pbt_protocol(6),
                          lambda base: PbtProtocol(n=1, N=6, resource=base.resource,
                                                   povm=base.povm),
                          16 * 7 * 128**2 + 16 * 7 * 2 * 64 * 64),
    # 5 chain branches over (a, b, a', A, B1..B4) of 2 x 2 x 4 x 16 x 16 amplitudes
    "PrimedProtocol": (lambda: bell_pbt_protocol(4), build_primed, 16 * 5 * 2 * 2 * 4 * 16 * 16),
    # the 160 x 160 unitary on (a, A, ancilla, pi) and the SVD's U
    "pointer_form": (lambda: bell_pbt_protocol(4), pointer_form, 2 * 16 * 160**2),
    # the sigma embedding: 64 sigma coordinates x 256 Choi entries, complex
    "build_joint_sdp": (lambda: None, lambda _: build_joint_sdp(1, 3), 16 * 64 * 256),
    # two normal draws per amplitude
    "haar_amplitudes": (lambda: None, lambda _: haar_amplitudes(2, 10_000, 0), 16 * 10_000 * 2),
    # the sampler's peak per round
    "run_chain_batch": (_chain_analysis, lambda ana: run_chain_batch(ana, 100_000, 0),
                        ROUND_BYTES * 100_000),
    # at most one failure state over (a, b) of 2 x 4 amplitudes per sample
    "verify_theorem": (lambda: pointer_form(bell_pbt_protocol(1)),
                       lambda op: verify_theorem(op, 10_000, 0), 16 * 10_000 * 2 * 4),
}


def no_eigh(*args, **kwargs):
    raise AssertionError("an eigendecomposition ran before the memory check")


@pytest.mark.parametrize("site", SITES)
def test_site_is_refused_just_below_its_array_before_allocating(monkeypatch, site):
    setup, call, needed = SITES[site]
    inputs = setup()
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    budget = needed - 1
    monkeypatch.setattr(tensor, "MEMORY_BUDGET", budget)
    tracemalloc.start()
    try:
        with pytest.raises(LayoutError, match=f"needs {needed} bytes, above the cap of "
                                              f"{budget} bytes"):
            call(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_bell_build_peaks_within_twice_its_roots_stack():
    tracemalloc.start()
    try:
        proto = bell_pbt_protocol(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * proto.kraus.nbytes


def test_run_chain_batch_holds_at_most_what_the_guard_counts():
    # bell N=2's two ports, and the tree whose rounds are all misses with one
    # fallback outcome, the sampler's largest
    branches = ChainBranches(build_primed(bell_pbt_protocol(2)), 1)
    port1, port2 = analyze_chain(branches, 1), analyze_chain(branches, 2)
    one_outcome = dataclasses.replace(port2.case2[1], teleport_probs=np.eye(4)[0])
    all_miss = dataclasses.replace(port2, q=np.eye(3)[1], case2={1: one_outcome})
    rounds = 1_000_000
    for name, ana in {"port 1": port1, "port 2": port2, "all misses": all_miss}.items():
        tracemalloc.start()
        try:
            run_chain_batch(ana, rounds, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ROUND_BYTES * rounds, name


# ---------------------------------------------------------------------------
# the budget admits what the former caps admitted


def fits(check, *args) -> bool:
    try:
        check(*args)
    except LayoutError:
        return False
    return True


def bell_fits(command: str, N: int) -> bool:
    """Whether the size checks ``command`` runs on the bell protocol with N
    ports admit it; nothing is built."""
    alice = 2**N
    ok = fits(check_protocol_bytes, 1, N, alice)
    if command in ("prime", "audit-signaling"):
        ok = ok and fits(check_chain_bytes, 1, N, alice)
    if command == "verify":
        ok = ok and fits(check_dilation_bytes, 2 * alice, N + 1, 1)
    return ok


#: the most bell ports each command accepted under the former caps: 2^22
#: amplitudes over (a, A, B1..BN), the same over (a, a', A, B1..BN) for the
#: twirled protocol, and 1 GiB for the pointer-form dilation.  simulate stops
#: one port short of its former 10: the roots and branches are counted together
@pytest.mark.parametrize("command, last", [("simulate", 9), ("prime", 9),
                                           ("audit-signaling", 9), ("verify", 8)])
def test_budget_admits_the_bell_ports_the_former_caps_admitted(command, last):
    assert all(bell_fits(command, N) for N in range(1, last + 1))
    assert not bell_fits(command, last + 1)


def test_roots_and_branches_are_counted_together(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    # bell N=10: 704 MiB of roots and 352 MiB of branches fit the budget one
    # at a time, not together
    roots, branches = 16 * 11 * 2048**2, 16 * 11 * 2 * 4**10
    assert max(roots, branches) <= tensor.MEMORY_BUDGET < roots + branches
    with pytest.raises(LayoutError, match=f"needs {roots + branches} bytes"):
        bell_pbt_protocol(10)
    # (n, N) = (3, 3): the roots alone fill the budget
    assert 16 * 4 * (8 * 8**3) ** 2 == tensor.MEMORY_BUDGET
    assert not fits(check_protocol_bytes, 3, 3, 8**3)


class Admitted(Exception):
    """Raised in place of a site's first allocation once its check has passed."""


def test_budget_admits_ten_thousand_verify_samples(monkeypatch):
    assert bell_fits("verify", 1)
    op = pointer_form(bell_pbt_protocol(1))

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(nocloning, "_hypothesis_states", admitted)
    monkeypatch.setattr(np.random, "PCG64", admitted)
    with pytest.raises(Admitted):
        verify_theorem(op, 10_000, 0)
    with pytest.raises(Admitted):
        haar_amplitudes(2, 10_000, 0)
    # a whole Gram matrix of the failure states would not fit
    assert 16 * 10_000**2 > tensor.MEMORY_BUDGET


def test_budget_admits_every_optimize_case_within_the_dimension_cap():
    joint = []
    for n in range(1, 6):
        d, N = 2**n, 1
        while d ** (2 * N + 1) <= DIMENSION_CAP:
            # the fixed-resource protocol, and the one either form extracts
            assert fits(check_protocol_bytes, n, N, d**N), (n, N)
            if _joint_array_bytes(n, N) <= tensor.MEMORY_BUDGET:
                joint.append((n, N))
            N += 1
        # the next size is the dimension cap's, refused before anything is built
        for build in (build_sdp, build_joint_sdp):
            with pytest.raises(LayoutError, match="exceeds the"):
                build(n, N)
    assert joint == [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (3, 1)]


# ---------------------------------------------------------------------------
# oversized commands exit 2 at once


@pytest.mark.parametrize("argv, needed", [
    (["simulate", "--builtin", "bell", "--ports", "10"], 16 * 11 * 2048 * (2048 + 1024)),
    (["verify", "--builtin", "bell", "--samples", "1000000000000"], 16 * 10**12 * 2),
    (["audit-signaling", "--builtin", "bell", "--mc-rounds", "1000000000000"],
     ROUND_BYTES * 10**12),
], ids=["simulate ports", "verify samples", "audit-signaling rounds"])
def test_oversized_command_exits_2_at_once(tmp_path, capsys, argv, needed):
    start = time.perf_counter()
    code = dispatch([*argv, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert elapsed < 2.0
    assert f"needs {needed} bytes, above the cap of {tensor.MEMORY_BUDGET} bytes" in err
    assert "Traceback" not in err
