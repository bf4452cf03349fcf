"""The per-module RPR domain rules (RPR001, RPR003-RPR005, RPR007-RPR009).

Each rule mechanizes a bug this repository actually shipped and fixed
by hand in an earlier PR (the ``rationale`` attribute names it); the
rule exists so the *class* cannot recur.  The whole-program rules
(RPR002, RPR011, RPR012) live in :mod:`repro.lint.dataflow`.  See
docs/static-analysis.md for the catalog and the repair direction of
every rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.core.outcomes import Outcome
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Checker, register

#: The taxonomy labels, imported from the single source of truth so a
#: future outcome is policed the moment it is added to the enum.
OUTCOME_LABELS = frozenset(outcome.value for outcome in Outcome)

#: Minimum length of a ``startswith`` prefix before RPR001 treats it as
#: outcome-prefix matching; shorter prefixes ("#", ".") are overwhelmingly
#: unrelated string handling.
_MIN_OUTCOME_PREFIX = 3


def _const_str(node: ast.AST) -> Optional[str]:
    """The value of a string ``Constant`` node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@register
class OutcomeLiteralChecker(Checker):
    """RPR001: outcome labels compared or looked up as raw strings.

    Flags an :class:`~repro.core.outcomes.Outcome` label string used as
    a comparison operand, a ``dict.get``/``pop``/``setdefault`` key, a
    subscript index, or a member of an ``in`` container -- and a
    ``startswith`` call whose constant argument is a prefix (>= 3
    characters) of a taxonomy label, the "corrected*" classification
    idiom that belongs to ``is_corrected_label``.  Display-only uses
    (table headers, docstrings) are deliberately not flagged.
    """

    rule = "RPR001"
    name = "outcome-literal"
    severity = Severity.ERROR
    description = (
        "outcome label used as a raw string in a comparison or lookup"
    )
    rationale = (
        "PR 4: ScrubReport.failed counted 'due' and 'sdc' by hand-picked "
        "string keys and silently dropped the PR-2 'metadata_due' outcome "
        "from failure accounting"
    )
    interests = ("Compare", "Call", "Subscript")

    def _flag(self, node: ast.AST, ctx: ModuleContext, label: str, how: str):
        member = Outcome(label).name
        return self.finding(
            node,
            ctx,
            f"outcome label '{label}' {how} as a raw string; use "
            f"Outcome.{member}.value or the is_due_label/is_failure_label "
            "helpers from repro.core.outcomes",
        )

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for operand in operands:
                label = _const_str(operand)
                if label in OUTCOME_LABELS:
                    yield self._flag(operand, ctx, label, "compared")
                # ``x in ("due", "sdc")`` -- containers of labels.
                if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                    for element in operand.elts:
                        element_label = _const_str(element)
                        if element_label in OUTCOME_LABELS:
                            yield self._flag(
                                element, ctx, element_label, "tested"
                            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "pop", "setdefault")
                and node.args
            ):
                label = _const_str(node.args[0])
                if label in OUTCOME_LABELS:
                    yield self._flag(node.args[0], ctx, label, "looked up")
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "startswith"
                and node.args
            ):
                first = node.args[0]
                elements = (
                    first.elts if isinstance(first, ast.Tuple) else (first,)
                )
                for element in elements:
                    prefix = _const_str(element)
                    if (
                        prefix is not None
                        and len(prefix) >= _MIN_OUTCOME_PREFIX
                        and any(
                            label.startswith(prefix)
                            for label in OUTCOME_LABELS
                        )
                    ):
                        # Not _flag: a prefix ("corrected") is usually
                        # not itself a valid Outcome value.
                        yield self.finding(
                            element,
                            ctx,
                            f"outcome prefix {prefix!r} matched with "
                            "startswith; use is_corrected_label/"
                            "is_due_label/is_failure_label from "
                            "repro.core.outcomes",
                        )
        elif isinstance(node, ast.Subscript):
            index = node.slice
            label = _const_str(index)
            if label in OUTCOME_LABELS:
                yield self._flag(index, ctx, label, "indexed")


@register
class NonAtomicWriteChecker(Checker):
    """RPR003: artifact written with a bare ``open(path, 'w')``.

    Any write-mode ``open`` outside :mod:`repro.obs.atomicio` can leave
    a truncated artifact next to a valid manifest when the process dies
    mid-write; route it through ``atomic_write_text``/``_json``.
    """

    rule = "RPR003"
    name = "non-atomic-write"
    severity = Severity.ERROR
    description = "write-mode open() outside the atomic writer"
    rationale = (
        "PR 2 made every exporter crash-safe via obs/atomicio after "
        "checkpoint corruption from mid-write kills; "
        "analysis/reporting.py regressed the pattern"
    )
    interests = ("Call",)

    _WRITE_MODES = frozenset("wax")

    def _mode_of(self, node: ast.Call, mode_index: int) -> Optional[str]:
        if len(node.args) > mode_index:
            return _const_str(node.args[mode_index])
        for keyword in node.keywords:
            if keyword.arg == "mode":
                return _const_str(keyword.value)
        return None

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        is_builtin_open = resolved in ("open", "io.open")
        is_method_open = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "open"
        )
        if not (is_builtin_open or is_method_open):
            return
        # ``open(path, mode)`` takes the mode second; ``Path.open(mode)``
        # takes it first.
        mode = self._mode_of(node, 1 if is_builtin_open else 0)
        if mode is None or not (set(mode) & self._WRITE_MODES):
            return
        yield self.finding(
            node,
            ctx,
            f"open(..., {mode!r}) writes non-atomically; a crash mid-write "
            "leaves a truncated artifact -- use atomic_write_text/"
            "atomic_write_json from repro.obs.atomicio",
        )


@register
class RawPopcountChecker(Checker):
    """RPR004: set bits counted without the shared popcount kernel.

    Flags ``bin(x).count('1')`` / ``format(x, 'b').count('1')`` and the
    manual ``while x: ... x >>= 1`` bit-walk.  PR 3 unified these on
    ``repro.coding.bitvec.popcount`` / ``bit_positions`` (``int.bit_count``
    on 3.10+, a byte table on 3.9) -- several times faster at line widths
    and one place to keep correct.
    """

    rule = "RPR004"
    name = "raw-popcount"
    severity = Severity.WARNING
    description = "manual popcount instead of repro.coding.bitvec"
    rationale = (
        "PR 3 replaced bin(x).count('1') hot-path popcounts with the "
        "unified bitvec.popcount kernel (int.bit_count + 3.9 fallback)"
    )
    interests = ("Call", "While")

    def _is_bin_count(self, node: ast.Call, ctx: ModuleContext) -> bool:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "count"):
            return False
        if not (node.args and _const_str(node.args[0]) == "1"):
            return False
        inner = func.value
        if not isinstance(inner, ast.Call):
            return False
        resolved = ctx.resolve(inner.func)
        if resolved == "bin":
            return True
        if resolved == "format" and len(inner.args) >= 2:
            spec = _const_str(inner.args[1])
            return spec is not None and spec.endswith("b")
        return False

    def _is_bit_walk(self, node: ast.While) -> bool:
        """``while x:`` whose body both tests ``x & 1`` and ``x >>= ...``."""
        if not isinstance(node.test, ast.Name):
            return False
        variable = node.test.id
        shifts_right = False
        tests_low_bit = False
        for child in ast.walk(node):
            if (
                isinstance(child, ast.AugAssign)
                and isinstance(child.op, ast.RShift)
                and isinstance(child.target, ast.Name)
                and child.target.id == variable
            ):
                shifts_right = True
            if isinstance(child, ast.BinOp) and isinstance(
                child.op, ast.BitAnd
            ):
                operands = (child.left, child.right)
                has_variable = any(
                    isinstance(op, ast.Name) and op.id == variable
                    for op in operands
                )
                has_one = any(
                    isinstance(op, ast.Constant) and op.value == 1
                    for op in operands
                )
                if has_variable and has_one:
                    tests_low_bit = True
        return shifts_right and tests_low_bit

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call) and self._is_bin_count(node, ctx):
            yield self.finding(
                node,
                ctx,
                "manual popcount; use repro.coding.bitvec.popcount "
                "(int.bit_count on 3.10+, byte table on 3.9)",
            )
        elif isinstance(node, ast.While) and self._is_bit_walk(node):
            yield self.finding(
                node,
                ctx,
                "manual bit-position walk; use repro.coding.bitvec."
                "bit_positions (or popcount) instead of shifting through "
                "the word",
            )


@register
class UnvalidatedWidthChecker(Checker):
    """RPR005: ``flip_bits`` called without a width guard.

    ``flip_bits`` without ``width=`` silently widens the value when a
    position is out of range, corrupting fixed-width line state the
    golden-copy heal invariant cannot restore (the PR-3 bug class).
    """

    rule = "RPR005"
    name = "unvalidated-width"
    severity = Severity.ERROR
    description = "flip_bits(...) without the width= guard"
    rationale = (
        "PR 3 added width validation to flip_bits after out-of-range "
        "positions silently widened lines past the codec width"
    )
    interests = ("Call",)

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        resolved = ctx.resolve(node.func)
        if resolved is None or resolved.rsplit(".", 1)[-1] != "flip_bits":
            return
        if len(node.args) >= 3:
            return
        if any(keyword.arg == "width" for keyword in node.keywords):
            return
        yield self.finding(
            node,
            ctx,
            "flip_bits without width=: an out-of-range position silently "
            "widens the line instead of raising; pass the line width",
        )


@register
class WallClockDurationChecker(Checker):
    """RPR007: ``time.time()`` used where a duration source belongs.

    ``time.time()`` follows the wall clock: NTP slews, DST, and manual
    adjustments make deltas taken from it wrong by arbitrary amounts,
    which silently corrupts benchmark timings, deadline accounting, and
    span durations.  Durations must come from ``time.perf_counter()``
    (or an injected clock); calendar timestamps from
    ``datetime.now(timezone.utc)``.
    """

    rule = "RPR007"
    name = "wall-clock-duration"
    severity = Severity.ERROR
    description = "time.time() used instead of perf_counter/injected clock"
    rationale = (
        "PR 6's benchmark trajectory store keys regressions off recorded "
        "wall times; a time.time() delta is not monotonic, so one NTP "
        "step can fabricate or mask a 2x slowdown"
    )
    interests = ("Call",)

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.resolve(node.func) != "time.time":
            return
        yield self.finding(
            node,
            ctx,
            "time.time() is wall-clock and non-monotonic; use "
            "time.perf_counter() (or the component's injected clock) for "
            "durations, datetime.now(timezone.utc) for timestamps",
        )


#: Fault-source primitives whose campaign-facing constructor lives in
#: the scenario layer (RPR008).
_FAULT_PRIMITIVES = frozenset(
    {"PermanentFaultMap", "BurstFaultInjector", "burst_error_vector"}
)


@register
class RawFaultPrimitiveChecker(Checker):
    """RPR008: fault primitive constructed directly in campaign code.

    Inside :mod:`repro.reliability` / :mod:`repro.parallel`, stuck-at
    maps and burst injectors must come from a
    :class:`repro.reliability.scenario.FaultScenario` (``build_stuck_map``
    / ``build_burst_injector`` / the ``sample_*_py`` overlays), which
    seeds them off the campaign's SeedSequence tree and serializes them
    into checkpoint fingerprints.  A direct ``PermanentFaultMap(...)`` or
    ``BurstFaultInjector(...)`` in a campaign path bypasses both: the
    fault source is invisible to resume-compatibility checks and its
    stream is not a pure function of ``(seed, interval)``, so sharded and
    resumed runs can silently diverge from serial.
    """

    rule = "RPR008"
    name = "raw-fault-primitive"
    severity = Severity.ERROR
    description = (
        "fault primitive built in campaign code outside the scenario layer"
    )
    rationale = (
        "PR 7 threaded stuck-at/burst faults through FaultScenario so "
        "campaign checkpoints fingerprint the fault source and shards "
        "replay identical fault streams; an ad-hoc injector in a campaign "
        "path sidesteps both guarantees"
    )
    interests = ("Call",)

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not (
            ctx.path_contains("reliability") or ctx.path_contains("parallel")
        ):
            return
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        parts = resolved.split(".")
        # ``PermanentFaultMap.random(...)`` resolves with the classmethod
        # as the tail segment; strip it so the class name matches.
        name = parts[-1]
        if name == "random" and len(parts) >= 2:
            name = parts[-2]
        if name not in _FAULT_PRIMITIVES:
            return
        yield self.finding(
            node,
            ctx,
            f"{name}(...) built directly in campaign code; declare the "
            "fault source on a FaultScenario (BurstSpec/StuckSpec) and let "
            "repro.reliability.scenario construct it, so it is seeded off "
            "the campaign seed tree and fingerprinted into checkpoints",
        )


@register
class PerLineLoopChecker(Checker):
    """RPR009: per-line Python loop over array storage.

    Flags ``for ... in range(<...>.num_lines)`` (statements and
    comprehensions alike).  Walking the array one line at a time in
    Python makes the cost follow the line count instead of the fault
    count: bulk work belongs on the array's dirty-frame index
    (``dirty_frames``, ``scrub_frames``) or in a :mod:`repro.kernels`
    batch (``batch_decode``), where the numpy backend can vectorize it
    over bit-planes.  The reference backend is the one sanctioned home
    of the scalar loops (exempt by config); the few sites where
    O(lines) is the semantics carry an inline suppression.
    """

    rule = "RPR009"
    name = "per-line-loop"
    severity = Severity.ERROR
    description = (
        "per-line Python loop over array storage (range over num_lines)"
    )
    rationale = (
        "the bit-plane kernel backends vectorize the per-line hot "
        "loops; a new range(num_lines) walk in scrub or campaign code "
        "silently reverts the fast path to O(lines) Python"
    )
    interests = ("For", "comprehension")

    @staticmethod
    def _mentions_num_lines(node: ast.AST) -> bool:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "num_lines"
            ):
                return True
            if isinstance(child, ast.Name) and child.id == "num_lines":
                return True
        return False

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        iterator = node.iter  # type: ignore[attr-defined]
        if not isinstance(iterator, ast.Call):
            return
        if ctx.resolve(iterator.func) != "range":
            return
        if not any(
            self._mentions_num_lines(argument) for argument in iterator.args
        ):
            return
        yield self.finding(
            iterator,
            ctx,
            "per-line Python loop over array storage; walk the dirty-frame "
            "index (dirty_frames, scrub_frames) or a repro.kernels batch "
            "decode instead of range(num_lines)",
        )
