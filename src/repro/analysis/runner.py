"""Running the rule pack: file walker, pragmas, reports, ``python -m repro lint``.

Per file the runner reads the source, scans its inline pragmas, parses one
AST, runs every in-scope rule of :data:`repro.analysis.rules.RULES` over it,
and drops suppressed findings (counting them).  A file that does not parse
yields a single ``RL000`` parse-error finding -- a broken file must fail the
gate, not silently skip it.

Pragmas (syntax in ``docs/CONCURRENCY.md``, "Suppressions") are read from
real COMMENT tokens (``tokenize``), so pragma text inside string literals
never counts.  A line pragma (``disable=RL002``, ``disable=RL001,RL005`` or
``disable=all``) silences those rules for findings *anchored on that line*,
next to the code it excuses; a file pragma (``disable-file=RL004``) anywhere
in the file silences them for the whole module (e.g. :mod:`repro.net.entropy`,
the audited home of the escape hatches RL004 bans everywhere else).  Every
pragma carries a reason after its rule list.

Exit-code contract of ``python -m repro lint`` (the part CI scripts depend
on): **0** no findings after pragmas and the :data:`EXEMPTION`; **1**
findings remain, listed in the text report or the ``repro-lint/v1`` JSON
document (``--json``); **2** usage error: unknown rule, unreadable path.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import sys
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro._version import __version__
from repro.analysis.findings import Finding
from repro.analysis.rules import RULES, Rule

#: The JSON document schema identifier emitted by ``python -m repro lint --json``.
SCHEMA = "repro-lint/v1"

#: Rule id reserved for files that do not parse (a syntax error precedes
#: every other invariant).
PARSE_ERROR_RULE = "RL000"

#: The one tolerated finding: (rule, path suffix, stripped line).  The
#: protected ski-rental JXTA app transliterates the paper's Figure 16, and its
#: line count feeds the Section 4.4 programming-effort comparison, so the
#: file stays byte-comparable to the paper's code -- not even a pragma
#: comment may go in.  The broad catch mirrors the Java app's catch block.
#: Matched on the line text, not its number: rewording the line, or moving it
#: to another file, revokes the exemption.
EXEMPTION = (
    "RL005",
    "repro/apps/skirental/jxta_app.py",
    "except Exception:  # pragma: no cover - mirrors the paper's broad catch",
)

#: One pragma inside a comment; ``disable`` and ``disable-file`` differ only
#: in scope.
_PRAGMA = re.compile(
    r"repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Tree linted when no paths are given and it exists (repo-root layout).
DEFAULT_TREE = os.path.join("src", "repro")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


@dataclass
class LintRun:
    """Everything one run produced, before the exemption is applied."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by inline pragmas.
    suppressed: int = 0
    #: Python files actually linted.
    files: int = 0


def module_name(path: str) -> str:
    """Derive a dotted module name from a file path.

    Anchored at the last path component named ``repro`` (the package this
    repo ships), so ``src/repro/net/faults.py`` -> ``repro.net.faults``
    regardless of where the tree is checked out.  Files outside the package
    get their bare stem, which only matches rules with an empty scope.
    """
    normalized = os.path.normpath(path).replace("\\", "/")
    parts = normalized.split("/")
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    parts = parts[:-1] + [stem]
    anchor = None
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor is None:
        return stem
    dotted = parts[anchor:]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def select_rules(rule_ids: Optional[Sequence[str]] = None) -> Tuple[Type[Rule], ...]:
    """The rules named by ``rule_ids`` (case-insensitive), in pack order;
    all of :data:`RULES` when ``None``.  An unknown id raises ValueError."""
    if rule_ids is None:
        return RULES
    wanted = {rule_id.strip().upper() for rule_id in rule_ids}
    unknown = wanted - {rule.rule_id for rule in RULES}
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {', '.join(sorted(unknown))}; rules: "
            + ", ".join(rule.rule_id for rule in RULES)
        )
    return tuple(rule for rule in RULES if rule.rule_id in wanted)


def _comments(source: str) -> Iterable[Tuple[int, str]]:
    """(line, text) of every comment token; falls back to a line scan when
    the file does not tokenize (the syntax error is reported as RL000, but
    pragmas should still work on the lines that are plainly comments)."""
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):
        lines = (line.strip() for line in source.splitlines())
        return [(number, line) for number, line in enumerate(lines, 1) if line.startswith("#")]
    return [(token.start[0], token.string) for token in tokens if token.type == tokenize.COMMENT]


def _pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """The rules each line silences, and the rules the whole file silences."""
    line_rules: Dict[int, Set[str]] = {}
    file_rules: Set[str] = set()
    for line, comment in _comments(source):
        for match in _PRAGMA.finditer(comment):
            rules = {part.strip().upper() for part in match.group("rules").split(",")}
            if match.group("scope") == "disable-file":
                file_rules |= rules
            else:
                line_rules.setdefault(line, set()).update(rules)
    return line_rules, file_rules


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: Optional[str] = None,
    rules: Sequence[Type[Rule]] = RULES,
) -> LintRun:
    """Lint one in-memory source text.

    ``module`` overrides the path-derived dotted module name -- tests use
    this to place fixture snippets inside a scoped package
    (``module="repro.net.fixture"``) without touching the tree.
    """
    run = LintRun(files=1)
    module = module if module is not None else module_name(path)
    line_rules, file_rules = _pragmas(source)

    def keep(finding: Finding) -> None:
        silenced = file_rules | line_rules.get(finding.line, set())
        if "ALL" in silenced or finding.rule in silenced:
            run.suppressed += 1
        else:
            run.findings.append(finding)

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        keep(
            Finding(
                rule=PARSE_ERROR_RULE,
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
                hint="fix the syntax error; unparseable files fail the lint gate",
                snippet=(error.text or "").strip(),
            )
        )
        return run
    lines = source.splitlines()
    for rule in rules:
        if not rule.applies_to(module):
            continue
        for node, message, hint in rule().check(tree, module):
            line = getattr(node, "lineno", 1)
            keep(
                Finding(
                    rule=rule.rule_id,
                    path=path,
                    line=line,
                    column=getattr(node, "col_offset", 0),
                    message=message,
                    hint=hint,
                    snippet=lines[line - 1].strip() if 1 <= line <= len(lines) else "",
                )
            )
    run.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return run


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted, deduplicated ``*.py`` list.

    A path that exists but is neither a ``.py`` file nor a directory, or
    does not exist at all, is a usage error (ValueError).
    """
    collected: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, directories, files in os.walk(path):
                directories[:] = [d for d in directories if d != "__pycache__"]
                collected.update(
                    os.path.join(root, name) for name in files if name.endswith(".py")
                )
        elif os.path.isfile(path):
            if not path.endswith(".py"):
                raise ValueError(f"not a Python file: {path!r}")
            collected.add(path)
        else:
            raise ValueError(f"no such file or directory: {path!r}")
    return sorted(collected)


def _display_path(path: str) -> str:
    """Relative-to-cwd when that stays inside it."""
    try:
        relative = os.path.relpath(path)
    except ValueError:  # pragma: no cover - different drive on Windows
        return path
    return path if relative.startswith("..") else relative


def lint_paths(paths: Iterable[str], rules: Sequence[Type[Rule]] = RULES) -> LintRun:
    """Lint files and directory trees (``*.py``, sorted, deduplicated)."""
    run = LintRun()
    for file_path in collect_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            source = handle.read()
        file_run = lint_source(source, path=_display_path(file_path), rules=rules)
        run.findings.extend(file_run.findings)
        run.suppressed += file_run.suppressed
        run.files += 1
    run.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return run


def is_exempt(finding: Finding) -> bool:
    """Whether ``finding`` is the one :data:`EXEMPTION`."""
    rule, suffix, snippet = EXEMPTION
    path = finding.posix_path
    return (
        finding.rule == rule
        and finding.snippet == snippet
        and (path == suffix or path.endswith("/" + suffix))
    )


def count_by_rule(findings: Iterable[Finding]) -> Dict[str, int]:
    """Finding counts keyed by rule id, sorted by rule id."""
    return dict(sorted(Counter(finding.rule for finding in findings).items()))


def run(args: Any) -> int:
    """Execute ``python -m repro lint`` from parsed argparse ``args``."""
    if args.list_rules:
        for rule in RULES:
            where = ", ".join(rule.packages) or "everywhere"
            print(f"{rule.rule_id}  {rule.title} -- {rule.rationale}  [{where}]")
        return EXIT_CLEAN

    rule_ids = [
        part for value in args.rules or () for part in value.split(",") if part.strip()
    ]
    paths = list(args.paths or ([DEFAULT_TREE] if os.path.isdir(DEFAULT_TREE) else ["."]))
    try:
        rules = select_rules(rule_ids or None)
        lint_run = lint_paths(paths, rules)
    except (OSError, ValueError) as error:
        print(f"lint: error: {error}", file=sys.stderr)
        return EXIT_USAGE

    findings = [finding for finding in lint_run.findings if not is_exempt(finding)]
    baselined = len(lint_run.findings) - len(findings)
    if args.json:
        document = {
            "schema": SCHEMA,
            "version": __version__,
            "paths": [path.replace("\\", "/") for path in paths],
            "rules": [rule.rule_id for rule in rules],
            "files": lint_run.files,
            "findings": [finding.to_json() for finding in findings],
            "counts": count_by_rule(findings),
            "suppressed": lint_run.suppressed,
            # Findings the EXEMPTION covered (the key predates it).
            "baselined": baselined,
        }
        print(json.dumps(document, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print()
        print(
            f"{len(findings)} finding(s) in {lint_run.files} file(s)"
            f" ({lint_run.suppressed} suppressed inline, {baselined} baselined)"
        )
    return EXIT_FINDINGS if findings else EXIT_CLEAN


__all__ = [
    "EXEMPTION",
    "LintRun",
    "PARSE_ERROR_RULE",
    "SCHEMA",
    "collect_files",
    "count_by_rule",
    "is_exempt",
    "lint_paths",
    "lint_source",
    "module_name",
    "run",
    "select_rules",
]
