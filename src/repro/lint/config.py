"""Lint run configuration and the blessed-module exemptions.

Every rule polices a pattern whose *one* legitimate implementation
lives in a specific module -- the outcome taxonomy in
``core/outcomes.py``, the atomic writer in ``obs/atomicio.py``, the
popcount kernel in ``coding/bitvec.py``, the documented-unseeded
fallback in ``core/rng.py``.  Those modules are exempt from their own
rule by default (:data:`DEFAULT_EXEMPTIONS`); everything else needs an
inline suppression or a baseline entry to ship a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.lint.findings import Severity

#: rule id -> path suffixes of the module(s) allowed to embody the
#: pattern the rule forbids everywhere else.
DEFAULT_EXEMPTIONS: Mapping[str, Tuple[str, ...]] = {
    # The taxonomy itself defines the labels.
    "RPR001": ("repro/core/outcomes.py",),
    # The one sanctioned unseeded fallback (it warns).
    "RPR002": ("repro/core/rng.py",),
    # The atomic writer's tmp-file handle is the mechanism.
    "RPR003": ("repro/obs/atomicio.py",),
    # The popcount kernel's byte table is built with bin().count("1"),
    # and bit_positions() is the blessed manual bit loop.
    "RPR004": ("repro/coding/bitvec.py",),
    # flip_bits' own definition/width plumbing.
    "RPR005": ("repro/coding/bitvec.py",),
    # The scenario layer is where fault primitives are legitimately
    # built from specs (seeded off the campaign tree, fingerprinted).
    "RPR008": ("repro/reliability/scenario.py",),
    # The reference backend *is* the sanctioned per-line scalar loop.
    "RPR009": ("repro/kernels/reference.py",),
}


@dataclass
class LintConfig:
    """Configuration for one lint run.

    :param select: restrict to these rule ids (``None``: all registered).
    :param disable: rule ids to skip entirely.
    :param exemptions: rule -> path suffixes exempt from that rule
        (defaults to :data:`DEFAULT_EXEMPTIONS`).
    :param baseline_path: committed grandfather file (``""``: none).
    :param fail_severity: minimum severity that makes the run fail;
        default ``WARNING`` so every finding gates.
    """

    select: Optional[FrozenSet[str]] = None
    disable: FrozenSet[str] = frozenset()
    exemptions: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXEMPTIONS)
    )
    baseline_path: str = ""
    fail_severity: Severity = Severity.WARNING

    def active_rules(self, registered) -> Tuple[str, ...]:
        """The rule ids this run executes, in sorted order."""
        rules = []
        for checker in registered:
            rule = checker.rule
            if self.select is not None and rule not in self.select:
                continue
            if rule in self.disable:
                continue
            rules.append(rule)
        return tuple(sorted(rules))

    def is_exempt(self, rule: str, path: str) -> bool:
        """Is ``path`` one of the modules exempt from ``rule``?"""
        normalised = path.replace("\\", "/")
        return any(
            normalised == suffix or normalised.endswith("/" + suffix)
            for suffix in self.exemptions.get(rule, ())
        )
