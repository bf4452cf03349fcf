"""Inline suppressions: ``# repro-lint: disable=RULE[,RULE...]``.

A finding is suppressed when a disable comment names its rule (or
``all``) either on the finding's own line or on the immediately
preceding line when that line is a comment *only* -- the idiom for
expressions too long to carry a trailing comment::

    rng = np.random.default_rng(seed)  # repro-lint: disable=RPR002

    # The serial path must stay bit-identical to the historical CLI.
    # repro-lint: disable=RPR002
    rng = np.random.default_rng(
        seed,
    )

Suppressions are parsed from raw source lines (not the token stream);
a disable marker inside a string literal would be honoured too, which
is acceptable for a repo-internal linter and keeps the parser trivial.
"""

from __future__ import annotations

import re
from typing import Dict, Sequence, Set

#: Matches the directive anywhere after a ``#`` on the line.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)"
)

#: The wildcard rule name disabling every rule on the line.
ALL = "all"


class SuppressionIndex:
    """Per-line map of disabled rules for one module."""

    def __init__(self, lines: Sequence[str]) -> None:
        #: 1-based line -> set of rule ids (or :data:`ALL`).
        self._by_line: Dict[int, Set[str]] = {}
        #: lines that are comment-only (candidate carriers for the
        #: next line's findings).
        self._comment_only: Set[int] = set()
        for number, text in enumerate(lines, start=1):
            stripped = text.strip()
            if stripped.startswith("#"):
                self._comment_only.add(number)
            match = _DIRECTIVE.search(text)
            if match:
                rules = {
                    token.strip()
                    for token in match.group(1).split(",")
                    if token.strip()
                }
                self._by_line.setdefault(number, set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Is ``rule`` disabled at 1-based ``line``?"""
        for candidate in (line, line - 1):
            if candidate == line - 1 and candidate not in self._comment_only:
                continue
            rules = self._by_line.get(candidate)
            if rules and (rule in rules or ALL in rules):
                return True
        return False

    def __len__(self) -> int:
        return len(self._by_line)
