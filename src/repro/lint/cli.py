"""``repro lint`` subcommand glue.

Kept separate from :mod:`repro.cli` so the top-level parser only pays
for argparse plumbing: this module imports nothing but the stdlib at
load time, and the lint pipeline loads when the subcommand runs.

Exit codes: 0 clean (or baseline written), 1 new findings at or above
the gate severity, 2 usage error (unknown rule, missing path, bad
baseline file).
"""

from __future__ import annotations

import argparse
import os
import sys

#: Default committed baseline, resolved relative to the working
#: directory (the repo root in CI and normal development).
DEFAULT_BASELINE = "lint-baseline.json"

#: ``--format`` choices; equal to ``sorted(reporting.FORMATTERS)``
#: (pinned by a test), spelled out so parser setup imports nothing.
FORMATS = ("github", "json", "sarif", "text")


def configure_lint_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` arguments to a subparser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline", default="", metavar="FILE",
        help=f"baseline file of grandfathered findings (default: "
             f"{DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to grandfather all current findings "
             "and exit 0",
    )
    parser.add_argument(
        "--select", nargs="+", default=None, metavar="RULE",
        help="run only these rule ids (e.g. RPR001 RPR003)",
    )
    parser.add_argument(
        "--disable", nargs="+", default=[], metavar="RULE",
        help="skip these rule ids",
    )
    parser.add_argument(
        "--fail-on", default="warning", metavar="SEVERITY",
        help="minimum severity that fails the run: info, warning "
             "(default), or error",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` from parsed arguments."""
    from repro.lint.baseline import (
        BaselineError,
        from_findings,
        load_baseline,
        write_baseline,
    )
    from repro.lint.config import LintConfig
    from repro.lint.findings import Severity
    from repro.lint.registry import all_checkers, known_rules
    from repro.lint.reporting import FORMATTERS
    from repro.lint.runner import lint_paths

    if args.list_rules:
        for checker in all_checkers():
            print(
                f"{checker.rule}  {checker.name:<22} "
                f"[{checker.severity}]  {checker.description}"
            )
        return 0

    known = known_rules()
    unknown = [
        rule for rule in [*(args.select or []), *args.disable]
        if rule not in known
    ]
    if unknown:
        print(
            f"repro lint: error: unknown rule {unknown[0]!r} "
            f"(known: {', '.join(known)})",
            file=sys.stderr,
        )
        return 2
    try:
        fail_severity = Severity.parse(args.fail_on)
    except ValueError as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2
    for path in args.paths:
        if not os.path.exists(path):
            print(
                f"repro lint: error: no such path {path!r}", file=sys.stderr
            )
            return 2

    baseline_path = args.baseline
    if not baseline_path and not args.no_baseline:
        baseline_path = (
            DEFAULT_BASELINE if os.path.exists(DEFAULT_BASELINE) else ""
        )
    if args.no_baseline:
        baseline_path = ""

    config = LintConfig(
        select=frozenset(args.select) if args.select else None,
        disable=frozenset(args.disable),
        baseline_path="" if args.write_baseline else baseline_path,
        fail_severity=fail_severity,
    )

    try:
        report = lint_paths(args.paths, config)
    except BaselineError as error:
        print(f"repro lint: error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or DEFAULT_BASELINE
        write_baseline(target, from_findings(report.findings))
        print(
            f"repro lint: wrote baseline {target} "
            f"({len(report.findings)} finding(s) grandfathered)"
        )
        return 0

    print(FORMATTERS[args.format](report))
    if baseline_path:
        stale = load_baseline(baseline_path).stale_entries(report.findings)
        if stale:
            print(
                f"repro lint: note: {len(stale)} stale baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'} (fixed findings); "
                "refresh with --write-baseline",
                file=sys.stderr,
            )
    return 1 if report.failed(fail_severity) else 0
