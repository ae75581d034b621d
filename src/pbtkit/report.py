"""Structured pass/fail records emitted by every verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .pauli import RNG_ALGORITHM


@dataclass
class CheckResult:
    """One verified claim: a named check with its measured deviation and tolerance.

    ``tag`` is the stable identifier of the claim being checked (reports keep
    these strings fixed across versions so they can be diffed).
    """

    name: str
    tag: str
    passed: bool
    deviation: Optional[float] = None
    tolerance: Optional[float] = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self))


@dataclass
class AuditReport:
    """A batch of checks on one subject, plus the sampling configuration used."""

    subject: str
    checks: list[CheckResult] = field(default_factory=list)
    seed: Optional[int] = None
    rng_algorithm: str = RNG_ALGORITHM
    preconditions_met: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.preconditions_met and all(c.passed for c in self.checks)

    def add(self, name: str, tag: str, deviation: float, tolerance: float,
            **details: Any) -> CheckResult:
        """Record a deviation-vs-tolerance check and return it."""
        res = CheckResult(
            name=name,
            tag=tag,
            passed=bool(deviation < tolerance),
            deviation=float(deviation),
            tolerance=float(tolerance),
            details=details,
        )
        self.checks.append(res)
        return res

    def add_flag(self, name: str, tag: str, passed: bool, **details: Any) -> CheckResult:
        res = CheckResult(name=name, tag=tag, passed=bool(passed), details=details)
        self.checks.append(res)
        return res

    def not_applicable(self, note: str, name: str, tag: str, **details: Any) -> "AuditReport":
        """Mark the claims out of scope: ``note`` plus the failed precondition."""
        self.preconditions_met = False
        self.note = note
        self.add_flag(name, tag, False, **details)
        return self

    def max_deviation(self) -> float:
        devs = [c.deviation for c in self.checks if c.deviation is not None]
        return max(devs) if devs else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {**vars(self), "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}
