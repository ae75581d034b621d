"""The benchmark's trace targets must stay resolvable: ``perfbench/run.py
--trace 1`` patches every ``"module:attr"`` in ``perfbench/tracing.py``
``TARGETS`` and reads ``u.nbytes`` from what ``pointer_form`` returns."""

import importlib.util
import sys
from pathlib import Path

import pytest

from pbtkit.engine import bell_pbt_protocol
from pbtkit.nocloning import pointer_form

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py``, read from its file (perfbench is not installed)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.TARGETS))
def test_trace_target_resolves_to_a_callable(name):
    target = tracing.TARGETS[name]
    _, member, original = tracing.resolve(target)
    assert callable(original), f"{name}: {target} is not callable"
    assert member == target.rsplit(":", 1)[1].rsplit(".", 1)[-1]


def test_pointer_form_still_reports_the_unitary_bytes():
    # the unitary on (a, A, ancilla, pi): 2 * 4 * 1 * 3 = 24 at N = 2
    op = pointer_form(bell_pbt_protocol(2))
    assert tracing.OBSERVE["nocloning.pointer_form"](op) == 16 * 24**2 == op.u.nbytes
