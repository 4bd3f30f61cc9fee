"""Combined audit report — JSON payload + human text.

One :class:`AuditReport` bundles the lint layer's
:class:`~repro.audit.linter.LintReport` and the parity layer's
:class:`~repro.audit.parity.ParityReport` (either may be absent when a
run is ``--lint-only``/``--parity-only``).  The JSON payload carries a
top-level ``audit_version`` marker: the schema version of the payload,
bumped when its layout changes so readers can tell which layout they
hold.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.audit.linter import LintReport
from repro.audit.parity import ParityReport

#: Schema version of the JSON payload.
AUDIT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Outcome of one ``greenfpga audit`` run."""

    lint: LintReport | None
    parity: ParityReport | None

    @property
    def ok(self) -> bool:
        """True when every executed layer passed."""
        lint_ok = self.lint.ok if self.lint is not None else True
        parity_ok = self.parity.ok if self.parity is not None else True
        return lint_ok and parity_ok

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (with the ``audit_version`` marker)."""
        return {
            "audit_version": AUDIT_VERSION,
            "ok": self.ok,
            "lint": self.lint.as_dict() if self.lint is not None else None,
            "parity": self.parity.as_dict() if self.parity is not None else None,
        }

    def render(self) -> str:
        """Multi-line human rendering of both layers."""
        sections = []
        if self.lint is not None:
            sections.append(self.lint.render())
        if self.parity is not None:
            sections.append(self.parity.render())
        sections.append("audit: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(sections)

    def write_json(self, path: Path) -> None:
        """Write the JSON payload to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
