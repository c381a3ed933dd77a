"""The report of a verification run: its verdict, the checks it made and
the counterexample it found, as JSON or as text."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class PeriodicityReport:
    """Machine-checkable verdict of a verification run."""

    pair: Tuple[str, str]
    system: str
    period_bound: int
    rounds: int
    minimal_period: Optional[int]
    divides: bool
    verified: bool
    checks: List[CheckResult] = field(default_factory=list)
    counterexample: Optional[dict] = None
    rng_seed: Optional[int] = None
    trials: Optional[int] = None

    def to_json(self) -> dict:
        out = {
            "pair": list(self.pair),
            "system": self.system,
            "period_bound": self.period_bound,
            "rounds": self.rounds,
            "minimal_period": self.minimal_period,
            "divides": self.divides,
            "verified": self.verified,
            "checks": [c.to_json() for c in self.checks],
            "counterexample": self.counterexample,
        }
        if self.rng_seed is not None:
            out["rng_seed"] = self.rng_seed
        if self.trials is not None:
            out["trials"] = self.trials
        return out

    def text(self) -> str:
        lines = [
            f"pair: {self.pair[0]} x {self.pair[1]}   system: {self.system}",
            f"period bound: {self.period_bound}   rounds executed: {self.rounds}",
            f"minimal period: {self.minimal_period}   divides bound: {self.divides}",
        ]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  check {c.name}: {status}{detail}")
        if self.counterexample is not None:
            lines.append(f"counterexample: {self.counterexample}")
        lines.append("verdict: " + ("verified" if self.verified else "NOT verified"))
        return "\n".join(lines)
