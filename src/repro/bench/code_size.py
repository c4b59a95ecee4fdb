"""Programming-effort comparison (paper, Section 4.4).

"Writing the very same application with JXTA implies writing about 5000
lines of code more than using directly TPS.  [...] Otherwise (not having the
functionnalities of TPS), the API saves, at least, to code 900 lines."

The exact counts depend on the language and the code base, so this experiment
reproduces the *claim structure* rather than the absolute numbers:

* the application written on TPS (``tps_app.py``) is counted against the
  application written directly on JXTA (``jxta_app.py``) -- the minimal
  saving ("at least 900 lines" in the paper's Java);
* the full saving additionally counts the TPS layer itself
  (:mod:`repro.core`), i.e. everything a JXTA programmer would have to write
  and maintain to obtain the same functionality with the full API.

Lines are counted as non-blank, non-comment source lines (docstrings count as
comments), which is the fairest proxy for "code the programmer writes".
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import repro.apps.skirental.jxta_app as _jxta_app
import repro.apps.skirental.tps_app as _tps_app
import repro.apps.skirental.wire_app as _wire_app
import repro.core as _core_package


def count_code_lines(path: Path) -> int:
    """Count non-blank, non-comment, non-docstring source lines of a Python file."""
    source = path.read_text(encoding="utf-8")
    code_lines: set[int] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type in (
                tokenize.COMMENT,
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                continue
            if token.type == tokenize.STRING and _is_docstring_token(source, token):
                continue
            for line in range(token.start[0], token.end[0] + 1):
                code_lines.add(line)
    except tokenize.TokenError:
        # Fall back to a crude count for files the tokenizer rejects.
        return sum(1 for line in source.splitlines() if line.strip() and not line.strip().startswith("#"))
    return len(code_lines)


def _is_docstring_token(source: str, token: tokenize.TokenInfo) -> bool:
    """Heuristic: a STRING token that starts a logical line is a docstring."""
    line = source.splitlines()[token.start[0] - 1]
    prefix = line[: token.start[1]]
    return prefix.strip() == ""


def count_package_lines(package) -> Dict[str, int]:
    """Count code lines of every module in a package directory."""
    package_dir = Path(package.__file__).parent
    counts: Dict[str, int] = {}
    for path in sorted(package_dir.rglob("*.py")):
        counts[str(path.relative_to(package_dir))] = count_code_lines(path)
    return counts


@dataclass
class CodeSizeReport:
    """The programming-effort comparison, in source lines of code."""

    #: LoC of the application written on the TPS API.
    tps_application: int
    #: LoC of the same application written directly on JXTA.
    jxta_application: int
    #: LoC of the bare wire-only application (no SR functionality).
    wire_application: int
    #: LoC of the TPS layer itself (what a JXTA programmer would have to
    #: write to get the full API's functionality).
    tps_library: int
    per_module: Dict[str, int] = field(default_factory=dict)

    @property
    def minimal_saving(self) -> int:
        """Lines saved by using TPS for this one application (paper: >= 900)."""
        return self.jxta_application - self.tps_application

    @property
    def full_saving(self) -> int:
        """Lines saved including the reusable TPS layer (paper: ~5000)."""
        return (self.jxta_application + self.tps_library) - self.tps_application

    @property
    def application_ratio(self) -> float:
        """How many times larger the direct-JXTA application is."""
        return self.jxta_application / self.tps_application if self.tps_application else 0.0


def measure_code_size() -> CodeSizeReport:
    """Measure the repository's own code sizes for the Section 4.4 comparison."""
    tps_application = count_code_lines(Path(_tps_app.__file__))
    jxta_application = count_code_lines(Path(_jxta_app.__file__))
    wire_application = count_code_lines(Path(_wire_app.__file__))
    core_counts = count_package_lines(_core_package)
    report = CodeSizeReport(
        tps_application=tps_application,
        jxta_application=jxta_application,
        wire_application=wire_application,
        tps_library=sum(core_counts.values()),
        per_module={f"repro/core/{name}": lines for name, lines in core_counts.items()},
    )
    report.per_module["apps/skirental/tps_app.py"] = tps_application
    report.per_module["apps/skirental/jxta_app.py"] = jxta_application
    report.per_module["apps/skirental/wire_app.py"] = wire_application
    return report


__all__ = ["CodeSizeReport", "count_code_lines", "count_package_lines", "measure_code_size"]
