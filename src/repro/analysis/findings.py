"""Finding/report model for :mod:`repro.analysis`.

A lint run produces a :class:`Report`: an ordered list of :class:`Finding`
records plus scan statistics.  Findings render in the conventional
``path:line:col: RULE severity: message`` form so editors and CI logs can
link straight to the offending line.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["Severity", "Finding", "Report"]


class Severity(enum.Enum):
    """How bad a finding is: every rule reports errors, which fail the gate."""

    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    fix_hint: str = ""

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        # message is the final tie-break so two findings of one rule at one
        # location (e.g. two stale __all__ names) order deterministically
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.severity}: {self.message}"
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


@dataclass
class Report:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    n_files: int = 0
    n_rules: int = 0

    def __post_init__(self) -> None:
        self.findings = sorted(self.findings, key=lambda f: f.sort_key)

    @property
    def ok(self) -> bool:
        """True when the run found nothing."""
        return not self.findings

    def summary(self) -> str:
        if not self.findings:
            return f"reprolint: clean ({self.n_files} files, {self.n_rules} rules)"
        return f"reprolint: {len(self.findings)} error(s) in {self.n_files} files"

    def to_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        payload = {
            "ok": self.ok,
            "n_files": self.n_files,
            "n_rules": self.n_rules,
            "n_errors": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
        }
        return json.dumps(payload, indent=indent)
