"""The lint pipeline: discover files, walk each tree once, filter.

For every Python file the runner parses the source, builds one
:class:`~repro.lint.context.ModuleContext`, instantiates the active
checkers fresh (so per-module state cannot leak between files), and
performs a *single* ``ast.walk`` dispatching each node to the checkers
interested in its type.  Every rule is per module: a file's findings
depend on that file alone.  Raw findings then pass through the config
exemptions, inline suppressions, and the baseline; whatever survives
is "new" and gates the run.

A file that fails to parse produces a synthetic ``RPR000`` ERROR
finding instead of crashing the run -- a broken file must fail lint,
not hide from it.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.baseline import Baseline, load_baseline
from repro.lint.config import LintConfig
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_checkers, instantiate
from repro.lint.suppressions import SuppressionIndex

#: Synthetic rule id for unparseable files.
PARSE_ERROR_RULE = "RPR000"


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``new_findings`` is what gates; ``baselined`` and ``suppressed``
    counts are reported so debt stays visible even while tolerated.
    """

    findings: List[Finding] = field(default_factory=list)
    new_findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0
    rules: Tuple[str, ...] = ()

    def counts_by_rule(self) -> Dict[str, int]:
        """New findings per rule id (stable sorted keys)."""
        counts: Dict[str, int] = defaultdict(int)
        for finding in self.new_findings:
            counts[finding.rule] += 1
        return dict(sorted(counts.items()))

    def failed(self, fail_severity: Severity) -> bool:
        """Does any new finding reach the gate severity?"""
        return any(
            finding.severity >= fail_severity for finding in self.new_findings
        )


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden directories, ``__pycache__``, and egg-info metadata are
    skipped; a path that exists but matches nothing is simply empty
    (the CLI validates existence before calling).
    """
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
            continue
        for root, directories, files in os.walk(path):
            directories[:] = sorted(
                d
                for d in directories
                if not d.startswith(".")
                and d != "__pycache__"
                and not d.endswith(".egg-info")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    collected.append(os.path.join(root, name))
    return sorted(dict.fromkeys(collected))


def _normalise_path(path: str) -> str:
    return os.path.normpath(path).replace(os.sep, "/")


def lint_source(
    source: str, path: str, config: Optional[LintConfig] = None
) -> List[Finding]:
    """Lint one in-memory module; returns raw-minus-suppressed findings.

    The fixture tests lint snippets for every rule this way without
    touching the filesystem.  Config exemptions and inline suppressions
    apply; the baseline is a cross-file concern and does not.
    """
    findings, _ = _lint_sources(
        [(_normalise_path(path), source)], config or LintConfig()
    )
    return sorted(findings, key=lambda f: (f.line, f.column, f.rule))


def _lint_sources(
    sources: Sequence[Tuple[str, str]], config: LintConfig
) -> Tuple[List[Finding], int]:
    """Lint ``(path, source)`` pairs: (survived, suppressed)."""
    findings: List[Finding] = []
    suppressed = 0
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    path=path,
                    line=error.lineno or 1,
                    column=(error.offset or 1) - 1,
                    message=f"file does not parse: {error.msg}",
                    content="",
                )
            )
            continue
        raw = _module_stage(tree, source, path, config)
        index = SuppressionIndex(source.splitlines())
        kept = [f for f in raw if not index.is_suppressed(f.rule, f.line)]
        suppressed += len(raw) - len(kept)
        findings.extend(kept)
    return findings, suppressed


def _module_stage(
    tree: ast.Module, source: str, path: str, config: LintConfig
) -> List[Finding]:
    """Raw findings of every active rule on one parsed file."""
    ctx = ModuleContext(path=path, source=source, tree=tree)
    active = config.active_rules(all_checkers())
    checkers = [
        checker
        for checker in instantiate(active)
        if not config.is_exempt(checker.rule, path)
    ]
    if not checkers:
        return []
    by_interest: Dict[str, List] = defaultdict(list)
    for checker in checkers:
        checker.begin_module(ctx)
        for interest in checker.interests:
            by_interest[interest].append(checker)
    raw: List[Finding] = []
    for node in ast.walk(tree):
        for checker in by_interest.get(type(node).__name__, ()):
            raw.extend(checker.check_node(node, ctx))
    for checker in checkers:
        raw.extend(checker.end_module(ctx))
    raw.sort(key=lambda f: (f.line, f.column, f.rule))
    return raw


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint files/directories and filter through the baseline."""
    config = config or LintConfig()
    if baseline is None:
        baseline = (
            load_baseline(config.baseline_path)
            if config.baseline_path
            else Baseline()
        )
    report = LintReport(rules=config.active_rules(all_checkers()))
    sources: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        normalised = _normalise_path(file_path)
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                sources.append((normalised, handle.read()))
        except (OSError, UnicodeDecodeError) as error:
            report.findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    path=normalised,
                    line=1,
                    column=0,
                    message=f"file is unreadable: {error}",
                )
            )
    report.files_checked = len(sources)
    findings, report.suppressed = _lint_sources(sources, config)
    report.findings.extend(findings)
    report.new_findings = baseline.filter_new(report.findings)
    report.baselined = len(report.findings) - len(report.new_findings)
    return report
