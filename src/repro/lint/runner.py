"""The lint pipeline: discover files, walk each tree once, filter.

For every Python file the runner parses the source, builds one
:class:`~repro.lint.context.ModuleContext`, instantiates the active
checkers fresh (so per-module state cannot leak between files), and
performs a *single* ``ast.walk`` dispatching each node to the checkers
interested in its type.  After the per-module stage a *whole-program*
stage hands every parsed file to the interprocedural engine
(:mod:`repro.lint.dataflow`) and runs the project rules (RPR010+) over
the converged facts.  Raw findings from both stages then pass through
the config exemptions, inline suppressions, and the baseline; whatever
survives is "new" and gates the run.

Both stages replay from the content-hash cache
(:mod:`repro.lint.cache`) when the inputs are unchanged, so a warm
full-tree run costs file hashing plus one JSON read.

A file that fails to parse produces a synthetic ``RPR000`` ERROR
finding instead of crashing the run -- a broken file must fail lint,
not hide from it.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.lint.baseline import Baseline, load_baseline
from repro.lint.cache import LintCache, content_hash
from repro.lint.config import LintConfig
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import (
    ProjectChecker,
    all_checkers,
    get_checker,
    instantiate,
    is_project_rule,
)
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

    The building block for both :func:`lint_paths` and the fixture
    tests (which lint snippets without touching the filesystem).
    Config exemptions and inline suppressions apply; the baseline is a
    cross-file concern and does not.
    """
    findings, _ = _lint_source_counts(source, path, config or LintConfig())
    return findings


def _lint_source_counts(
    source: str, path: str, config: LintConfig
) -> Tuple[List[Finding], int]:
    """(post-suppression findings, raw pre-suppression count)."""
    path = _normalise_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        finding = Finding(
            rule=PARSE_ERROR_RULE,
            severity=Severity.ERROR,
            path=path,
            line=error.lineno or 1,
            column=(error.offset or 1) - 1,
            message=f"file does not parse: {error.msg}",
            content="",
        )
        return [finding], 1
    ctx = ModuleContext(path=path, source=source, tree=tree)
    active = config.active_rules(all_checkers())
    checkers = [
        checker
        for checker in instantiate(active)
        if not isinstance(checker, ProjectChecker)
        and not ctx.path_endswith(config.exempt_suffixes(checker.rule))
    ]
    if not checkers:
        return [], 0
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
    suppressions = SuppressionIndex(ctx.lines)
    survived = [
        finding
        for finding in raw
        if not suppressions.is_suppressed(finding.rule, finding.line)
    ]
    return survived, len(raw)


def _path_endswith(path: str, suffixes: Sequence[str]) -> bool:
    """Config-exemption suffix match for project-stage findings."""
    normalised = path.replace(os.sep, "/")
    return any(
        normalised == suffix or normalised.endswith("/" + suffix)
        for suffix in suffixes
    )


def _project_stage(
    sources: Sequence[Tuple[str, str]],
    config: LintConfig,
    project_rules: Sequence[str],
) -> Tuple[List[Finding], int]:
    """Run the whole-program rules; returns (survived, suppressed)."""
    from repro.lint.dataflow import analyze_project

    analysis = analyze_project(sources)
    raw: List[Finding] = []
    for rule in project_rules:
        checker = get_checker(rule)()
        for finding in checker.check_project(analysis):
            if _path_endswith(finding.path, config.exempt_suffixes(rule)):
                continue
            raw.append(finding)
    raw.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    suppressions: Dict[str, SuppressionIndex] = {}
    text = dict(sources)
    survived: List[Finding] = []
    for finding in raw:
        index = suppressions.get(finding.path)
        if index is None:
            index = SuppressionIndex(
                text.get(finding.path, "").splitlines()
            )
            suppressions[finding.path] = index
        if not index.is_suppressed(finding.rule, finding.line):
            survived.append(finding)
    return survived, len(raw) - len(survived)


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
    cache: Optional[LintCache] = None,
    restrict: Optional[AbstractSet[str]] = None,
) -> LintReport:
    """Lint files/directories and filter through the baseline.

    ``cache`` replays per-file and whole-program results whose inputs
    are content-identical.  ``restrict`` (the ``--changed-only`` set of
    normalised paths) limits which files' findings are *reported*; the
    whole-program stage still analyses everything given, because
    interprocedural facts about a changed file depend on its unchanged
    callers and callees.
    """
    config = config or LintConfig()
    if baseline is None:
        baseline = (
            load_baseline(config.baseline_path)
            if config.baseline_path
            else Baseline()
        )
    active = config.active_rules(all_checkers())
    report = LintReport(rules=active)
    sources: List[Tuple[str, str]] = []
    hashes: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        normalised = _normalise_path(file_path)
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
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
            continue
        sources.append((normalised, source))
        file_hash = content_hash(source) if cache is not None else ""
        if cache is not None:
            hashes.append((normalised, file_hash))
        if restrict is not None and normalised not in restrict:
            continue
        cached = (
            cache.lookup(normalised, file_hash, active)
            if cache is not None
            else None
        )
        if cached is not None:
            survived, raw_count = cached
        else:
            survived, raw_count = _lint_source_counts(
                source, file_path, config
            )
            if cache is not None:
                cache.store(
                    normalised, file_hash, active, survived, raw_count
                )
        report.files_checked += 1
        report.suppressed += raw_count - len(survived)
        report.findings.extend(survived)
    project_rules = [rule for rule in active if is_project_rule(get_checker(rule))]
    if project_rules and sources:
        project_findings: Optional[List[Finding]] = None
        combined = cache.project_hash(hashes) if cache is not None else ""
        if cache is not None:
            project_findings = cache.lookup_project(combined, active)
        if project_findings is None:
            project_findings, project_suppressed = _project_stage(
                sources, config, project_rules
            )
            report.suppressed += project_suppressed
            if cache is not None:
                cache.store_project(combined, active, project_findings)
        if restrict is not None:
            project_findings = [
                finding
                for finding in project_findings
                if finding.path in restrict
            ]
        report.findings.extend(project_findings)
    if cache is not None:
        cache.save()
    report.new_findings = baseline.filter_new(report.findings)
    report.baselined = len(report.findings) - len(report.new_findings)
    return report
