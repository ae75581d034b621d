"""Spans around pbtkit's public functions, installed from outside the package.

``Tracer.installed()`` wraps each function in ``TARGETS`` and rebinds every
name a pbtkit module holds for it (``from .x import y`` copies included),
patches methods on their class, and restores the original bindings on exit.
Every span records its name, start, end, parent and the job that caused it;
spans stay in memory until ``write`` saves them.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

#: span name -> "module:attribute"; a dotted attribute patches a class member.
#: PointerOperation's __init__ runs its __post_init__ (the unitarity check).
TARGETS = {
    "optimizer.solve": "pbtkit.optimizer:solve",
    "optimizer.solve_joint": "pbtkit.optimizer:solve_joint",
    "optimizer.build_sdp": "pbtkit.optimizer:build_sdp",
    "optimizer.build_joint_sdp": "pbtkit.optimizer:build_joint_sdp",
    "optimizer.extract_protocol": "pbtkit.optimizer:extract_protocol",
    "optimizer.certify": "pbtkit.optimizer:certify",
    "nocloning.pointer_form": "pbtkit.nocloning:pointer_form",
    "nocloning.PointerOperation": "pbtkit.nocloning:PointerOperation.__init__",
    "nocloning.verify_theorem": "pbtkit.nocloning:verify_theorem",
    "nocloning.decompose_by_pointer": "pbtkit.nocloning:decompose_by_pointer",
    "engine.measure": "pbtkit.engine:measure",
    "engine.povm_branches": "pbtkit.engine:povm_branches",
    "engine.PbtProtocol.validate": "pbtkit.engine:PbtProtocol.validate",
    "engine.port_marginals": "pbtkit.engine:port_marginals",
    "engine.teleport_report": "pbtkit.engine:teleport_report",
    "engine.protocol_from_dict": "pbtkit.engine:protocol_from_dict",
    "engine.protocol_to_dict": "pbtkit.engine:protocol_to_dict",
    "tensor._apply_matrix": "pbtkit.tensor:_apply_matrix",
    "tensor.reduced_density": "pbtkit.tensor:reduced_density",
    "tensor.schmidt_decompose": "pbtkit.tensor:schmidt_decompose",
    "tensor.tensor_product": "pbtkit.tensor:tensor_product",
    "tensor.apply_on_subsystems": "pbtkit.tensor:apply_on_subsystems",
    "primed.build_primed": "pbtkit.primed:build_primed",
    "primed.run_primed": "pbtkit.primed:run_primed",
    "primed.primed_port_marginals": "pbtkit.primed:primed_port_marginals",
    "primed.verify_eq5": "pbtkit.primed:verify_eq5",
    "primed.verify_failure_marginal_twirl": "pbtkit.primed:verify_failure_marginal_twirl",
    "signaling.compute_chain_exact": "pbtkit.signaling:compute_chain_exact",
    "signaling.check_chain_preconditions": "pbtkit.signaling:check_chain_preconditions",
    "signaling.analyze_chain": "pbtkit.signaling:analyze_chain",
    "signaling.run_chain_batch": "pbtkit.signaling:run_chain_batch",
    "pauli.haar_states": "pbtkit.pauli:haar_states",
    "cli.dispatch": "pbtkit.cli:dispatch",
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in TARGETS))

#: values taken from a span's return value: sampled chain rounds, and the
#: bytes of the pointer-form unitary (computed from its array size)
OBSERVE: dict[str, Callable[[Any], float]] = {
    "signaling.run_chain_batch": len,
    "nocloning.pointer_form": lambda op: op.u.nbytes,
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: Optional[int]
    job: Any
    name: str
    start_ns: int
    end_ns: int
    self_ns: int
    value: Optional[float] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute name, original object) of a "module:attribute" target."""
    mod_name, _, attr = target.partition(":")
    *owner_path, member = attr.split(".")
    owner = functools.reduce(getattr, owner_path, importlib.import_module(mod_name))
    return owner, member, vars(owner)[member]


class Tracer:
    """Collects spans; ``job`` tags every span started while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: Any = None
        self._ids = itertools.count()
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVE.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent_id = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    value = observe(result)
                return result
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append(Span(span_id, parent_id, self.job, name, start, end,
                                       duration - frame[1], value))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        resolved = {name: resolve(target) for name, target in TARGETS.items()}
        modules = [mod for mod_name, mod in list(sys.modules.items())
                   if mod_name == "pbtkit" or mod_name.startswith("pbtkit.")]
        restore: list[tuple[Any, str, Any]] = []
        try:
            for name, (owner, member, original) in resolved.items():
                if isinstance(owner, type):
                    bindings = [(owner, member)]
                else:
                    bindings = [(mod, key) for mod in modules
                                for key, value in vars(mod).items() if value is original]
                wrapper = self._wrap(name, original)
                for obj, key in bindings:
                    restore.append((obj, key, original))
                    setattr(obj, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def write(self, path: Path) -> None:
        """Save every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent_id, "job": s.job,
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "self_ns": s.self_ns, "value": s.value}) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Calls and self time per traced function and self time per module, plus
    the values observed from return values, over the given spans."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += s.self_ns
    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(ns for name, ns in self_ns.items()
                                     if name.startswith(layer + ".")) / 1e9
    batches = [s for s in spans if s.name == "signaling.run_chain_batch"]
    batch_s = sum(s.duration_ns for s in batches) / 1e9
    out["signaling.mc_rounds_per_s"] = (
        sum(s.value for s in batches) / batch_s if batch_s > 0 else 0.0)
    out["nocloning.u_bytes"] = max(
        (s.value for s in spans if s.name == "nocloning.pointer_form"), default=0)
    return out
