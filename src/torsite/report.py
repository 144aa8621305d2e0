"""Validation reports: a pass/fail flag plus a list of witnessed violations."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Violation:
    rule: str
    witness: tuple = ()
    detail: str = ""

    def __str__(self):
        parts = [self.rule]
        if self.witness:
            parts.append("at " + ", ".join(str(w) for w in self.witness))
        if self.detail:
            parts.append(self.detail)
        return ": ".join(parts)


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def add(self, rule: str, witness: tuple = (), detail: str = ""):
        self.violations.append(Violation(rule, witness, detail))

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.subject}: {state} ({self.checked} checks)"
