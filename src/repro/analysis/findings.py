"""The :class:`Finding`: one rule violation at one source location.

A finding carries the rule id, the ``file:line:column`` anchor, a one-line
message and a *fix hint* pointing at the invariant's documentation
(``docs/CONCURRENCY.md``).  The ``snippet`` field carries the stripped
source line the finding anchors to -- that, not the line number, is what the
one exemption (:data:`repro.analysis.runner.EXEMPTION`) matches on, so it
survives unrelated edits above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    #: How to fix it (or where the invariant is documented).
    hint: str = ""
    #: The stripped source line the finding anchors to; the exemption key.
    snippet: str = ""

    @property
    def posix_path(self) -> str:
        return self.path.replace("\\", "/")

    def format(self) -> str:
        """``path:line:col: RULE message  [hint]`` -- the text-report line."""
        location = f"{self.path}:{self.line}:{self.column}"
        line = f"{location}: {self.rule} {self.message}"
        if self.hint:
            line = f"{line}\n    hint: {self.hint}"
        return line

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.posix_path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }


__all__ = ["Finding"]
