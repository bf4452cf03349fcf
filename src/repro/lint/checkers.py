"""The RPR domain rules, every one of them per module.

Each rule mechanizes a bug this repository actually shipped and fixed
by hand in an earlier PR (the ``rationale`` attribute names it); the
rule exists so the *class* cannot recur.  Seven rules match one node
shape each; RPR002, RPR011 and RPR012 read the *local flow* of one
function body (:func:`flow_findings`).  See docs/static-analysis.md for
the catalog and the repair direction of every rule.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

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


# -- local flow: RPR002, RPR011, RPR012 ----------------------------------------
#
# Tags mark where a value inside one function body came from.  They
# follow assignments in statement order (an assignment into an item or
# attribute of a local adds to that local); a call's value carries the
# tags of its arguments and receiver.  Parameters, attributes of
# ``self`` and what other functions return carry none: a rule sees only
# what one body shows.

SEED_TREE = "seed-tree"
UNORDERED = "unordered"
WALLCLOCK = "wallclock"
ENV = "env"
DIGEST_OBJ = "digest-obj"

_NO_TAGS: FrozenSet[str] = frozenset()
_IMPURE = frozenset({WALLCLOCK, ENV})

#: Calls (by last dotted segment) whose value is rooted in the campaign
#: seed tree; ``.spawn(...)`` on any receiver is rooted too.
_SEED_TREE_PRODUCERS = frozenset(
    {"SeedSequence", "interval_seed_sequence", "interval_python_seed"}
)

_STDLIB_RANDOM = "random.Random"
_RNG_CONSTRUCTORS = frozenset({"numpy.random.default_rng", _STDLIB_RANDOM})

#: Calendar-time sources.
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Environment and locale sources (``os.environ`` is an attribute).
_ENV_CALLS = frozenset(
    {
        "os.getenv",
        "locale.getlocale",
        "locale.getdefaultlocale",
        "locale.getpreferredencoding",
    }
)

_DIGEST_CONSTRUCTORS = frozenset(
    {
        "hashlib.sha1",
        "hashlib.sha224",
        "hashlib.sha256",
        "hashlib.sha384",
        "hashlib.sha512",
        "hashlib.md5",
        "hashlib.blake2b",
        "hashlib.blake2s",
        "hashlib.new",
    }
)

#: Values whose element order is not a pure function of the inputs
#: (``.iterdir()`` on any receiver too).
_UNORDERED_CALLS = frozenset(
    {"set", "frozenset", "os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Calls (by last dotted segment) whose value does not depend on the
#: order of their argument's elements.
_ORDER_NEUTRAL_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "popcount"}
)

#: Persist sinks (RPR011): canonical names, or last-segment prefixes.
_PERSIST_CALLS = frozenset({"json.dump", "json.dumps", "pickle.dump", "pickle.dumps"})
_PERSIST_PREFIXES = ("atomic_write", "write_checkpoint", "save_checkpoint")

#: Digest sinks (RPR012) besides hashlib: callees whose last segment
#: contains one of these; checkpoint sinks contain "checkpoint".
_DIGEST_MARKERS = ("digest", "fingerprint")

#: One flow event: (rule id, the node it anchors at, message).
FlowEvent = Tuple[str, ast.AST, str]


def _is_unseeded(call: ast.Call) -> bool:
    """No seed argument, or only ``None`` ones (``default_rng(None)``)."""
    seeds = [*call.args, *(keyword.value for keyword in call.keywords)]
    return all(
        isinstance(seed, ast.Constant) and seed.value is None for seed in seeds
    )


def _flow_scopes(tree: ast.Module) -> List[Tuple[str, Sequence[ast.stmt]]]:
    """``(qualname, body)`` of the module and of every function in it."""
    scopes: List[Tuple[str, Sequence[ast.stmt]]] = [("<module>", tree.body)]

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((prefix + child.name, child.body))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return scopes


class _LocalFlow:
    """Tags of the local names of one scope, and the sinks they reach."""

    def __init__(
        self, ctx: ModuleContext, scope: str, events: Dict[Tuple, FlowEvent]
    ) -> None:
        self.ctx = ctx
        self.scope = scope
        self.events = events
        self.env: Dict[str, FrozenSet[str]] = {}
        self.parallel = ctx.path_contains("parallel")
        self.inline = self.parallel or ctx.path_contains("reliability")

    def emit(self, rule: str, node: ast.AST, detail: str) -> None:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), rule)
        self.events.setdefault(key, (rule, node, f"in {self.scope}: {detail}"))

    # -- statements -------------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self.execute(statement)

    def execute(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # The body is a scope of its own; decorators and defaults
            # run here, at definition time (``def f(rng=default_rng())``).
            for child in [
                *node.decorator_list,
                *node.args.defaults,
                *node.args.kw_defaults,
            ]:
                if child is not None:
                    self.eval(child)
        elif isinstance(node, ast.ClassDef):
            for child in [*node.decorator_list, *node.bases]:
                self.eval(child)
            outer = dict(self.env)
            self.run(node.body)
            self.env = outer
        elif isinstance(node, ast.Assign):
            tags = self.eval(node.value)
            for target in node.targets:
                self.assign(target, tags)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is not None:
                tags = self.eval(node.value)
                if isinstance(node, ast.AugAssign):
                    tags |= self.eval(node.target)
                self.assign(node.target, tags)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.assign(node.target, self.eval(node.iter))
            self.run(node.body + node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                tags = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, tags)
            self.run(node.body)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)
                elif isinstance(child, ast.stmt):
                    self.execute(child)
                elif isinstance(child, ast.excepthandler):
                    self.run(child.body)

    def assign(self, target: ast.AST, tags: FrozenSet[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, tags)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, tags)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, _NO_TAGS) | tags

    # -- expressions ------------------------------------------------------------

    def eval(self, node: ast.AST) -> FrozenSet[str]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _NO_TAGS)
        if isinstance(node, ast.Call):
            return self.call(node)
        if isinstance(node, ast.Attribute):
            if self.ctx.resolve(node) == "os.environ":
                return frozenset({ENV})
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            tags = self.eval(node.value)
            self.assign(node.target, tags)
            return tags
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self.comprehension(node)
        if isinstance(node, ast.SetComp):
            return self.comprehension(node) | {UNORDERED}
        if isinstance(node, ast.Lambda):
            # Evaluated for the sites in its body; its parameters shadow
            # the enclosing names.
            outer = self.env
            shadowed = {
                arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
            }
            self.env = {n: t for n, t in outer.items() if n not in shadowed}
            self.eval(node.body)
            self.env = outer
            return _NO_TAGS
        tags = _NO_TAGS
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                tags |= self.eval(child)
        return tags | {UNORDERED} if isinstance(node, ast.Set) else tags

    def comprehension(self, node: ast.AST) -> FrozenSet[str]:
        outer = self.env
        self.env = dict(outer)
        tags = _NO_TAGS
        for generator in node.generators:  # type: ignore[attr-defined]
            iterable = self.eval(generator.iter)
            self.assign(generator.target, iterable)
            tags |= iterable
            for condition in generator.ifs:
                self.eval(condition)
        if isinstance(node, ast.DictComp):
            tags |= self.eval(node.key) | self.eval(node.value)
        else:
            tags |= self.eval(node.elt)  # type: ignore[attr-defined]
        self.env = outer
        return tags

    def call(self, node: ast.Call) -> FrozenSet[str]:
        resolved = self.ctx.resolve(node.func) or ""
        if isinstance(node.func, ast.Attribute):
            method, receiver = node.func.attr, self.eval(node.func.value)
        else:
            method, receiver = "", _NO_TAGS
        last = method or resolved.rsplit(".", 1)[-1]
        arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
        argument_tags = [self.eval(argument) for argument in arguments]
        tags = receiver.union(*argument_tags)
        self.check_rng(node, resolved, last, tags, arguments, argument_tags)
        self.check_sinks(node, resolved, last, method, receiver, tags)
        if resolved in _WALLCLOCK_CALLS:
            return frozenset({WALLCLOCK})
        if resolved in _ENV_CALLS:
            return frozenset({ENV})
        if resolved in _DIGEST_CONSTRUCTORS:
            return frozenset({DIGEST_OBJ})
        # A hashlib object's methods return plain values.
        tags -= {DIGEST_OBJ}
        if last in _SEED_TREE_PRODUCERS or method == "spawn":
            return tags | {SEED_TREE}
        if resolved in _UNORDERED_CALLS or method == "iterdir":
            return tags | {UNORDERED}
        if last in _ORDER_NEUTRAL_CALLS:
            return tags - {UNORDERED}
        return tags

    # -- the rules --------------------------------------------------------------

    def check_rng(
        self,
        node: ast.Call,
        resolved: str,
        last: str,
        tags: FrozenSet[str],
        arguments: List[ast.expr],
        argument_tags: List[FrozenSet[str]],
    ) -> None:
        """RPR002's four shapes at one call."""
        if resolved in _RNG_CONSTRUCTORS:
            if _is_unseeded(node):
                self.emit(
                    "RPR002",
                    node,
                    f"{last}() constructed without a seed; accept "
                    "rng=/seed= and route the fallback through "
                    "repro.core.rng.resolve_rng (warns on the truly "
                    "unseeded interactive path)",
                )
            elif self.parallel and SEED_TREE not in tags:
                self.emit(
                    "RPR002",
                    node,
                    f"{last}(...) in a parallel path is not derived from the "
                    "campaign SeedSequence tree; use parallel.sharding."
                    "interval_generator / interval_python_seed",
                )
        elif resolved.startswith("numpy.random.") and last[:1].islower():
            self.emit(
                "RPR002",
                node,
                f"numpy.random.{last}() draws from the process-global RNG; "
                "construct a Generator from an explicit seed instead",
            )
        if not self.inline:
            return
        for argument, argument_tag in zip(arguments, argument_tags):
            if (
                isinstance(argument, ast.Call)
                and (argument.args or argument.keywords)
                and SEED_TREE not in argument_tag
                and self.ctx.resolve(argument.func) == _STDLIB_RANDOM
            ):
                self.emit(
                    "RPR002",
                    argument,
                    "random.Random(...) constructed inline in a campaign "
                    "entry point without seed-tree provenance; seed it from "
                    "repro.parallel.sharding.interval_python_seed so every "
                    "unit's stream is a child of the campaign seed",
                )

    def check_sinks(
        self,
        node: ast.Call,
        resolved: str,
        last: str,
        method: str,
        receiver: FrozenSet[str],
        tags: FrozenSet[str],
    ) -> None:
        """RPR011 and RPR012 at one call."""
        if UNORDERED in tags and (
            resolved in _PERSIST_CALLS or last.startswith(_PERSIST_PREFIXES)
        ):
            self.emit(
                "RPR011",
                node,
                f"value with set/scandir iteration order reaches {last}() "
                "and becomes a persisted artifact",
            )
        if not tags & _IMPURE:
            return
        if resolved in _DIGEST_CONSTRUCTORS or any(
            marker in last for marker in _DIGEST_MARKERS
        ):
            sink = "contaminates a content digest"
        elif "checkpoint" in last:
            sink = "enters a checkpoint payload"
        elif method == "update" and DIGEST_OBJ in receiver:
            sink = "is folded into a content digest"
        else:
            return
        self.emit(
            "RPR012",
            node,
            f"wall-clock/environment-derived value reaches {last}() and {sink}",
        )


@lru_cache(maxsize=1)
def flow_events(ctx: ModuleContext) -> Tuple[FlowEvent, ...]:
    """Every local-flow event of one module, once per site.

    Cached for the module being linted: the three flow rules share one
    pass over it.
    """
    events: Dict[Tuple, FlowEvent] = {}
    for scope, body in _flow_scopes(ctx.tree):
        _LocalFlow(ctx, scope, events).run(body)
    return tuple(events[key] for key in sorted(events))


class _FlowChecker(Checker):
    """A rule reporting its own events of :func:`flow_events`."""

    interests = ("Module",)
    #: Appended to every message: the repair direction.
    advice = ""

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        for rule, site, message in flow_events(ctx):
            if rule == self.rule:
                yield self.finding(site, ctx, message + self.advice)


@register
class UnrootedRngChecker(_FlowChecker):
    """RPR002: randomness not rooted in the campaign SeedSequence tree.

    Four shapes, each reported once per site:

    * a zero-argument or ``None``-seeded ``default_rng`` /
      ``random.Random``, anywhere;
    * a call through numpy's process-global RNG (``np.random.normal``),
      anywhere;
    * a seeded constructor in a ``parallel`` path whose argument is not
      locally ``seed-tree`` (two shards would get correlated streams);
    * a seeded ``random.Random(...)`` passed inline as a call argument
      in reliability/parallel code, not locally ``seed-tree``.

    ``seed-tree`` is a local flow fact: ``ss = tree.spawn(1)[0]; rng =
    default_rng(ss)`` is rooted through both assignments, while a
    parameter is not, however its callers fill it.  A draw is never
    flagged: every unseeded chain starts at a constructor, and the
    first shape flags that.  The retired ids RPR006 and RPR010 named two
    of these shapes.
    """

    rule = "RPR002"
    name = "unrooted-rng"
    severity = Severity.ERROR
    description = (
        "RNG not rooted in the SeedSequence tree (unseeded, global, or "
        "seeded off the tree in campaign code)"
    )
    rationale = (
        "ten `rng or np.random.default_rng()` fallback sites, the "
        "estimate_fit inline random.Random(seed), and ad-hoc per-worker "
        "streams each broke the guarantee that shards1==serial and resume "
        "are bit-identical: every draw must be a pure function of the "
        "SeedSequence tree"
    )


@register
class UnorderedPersistChecker(_FlowChecker):
    """RPR011: unordered iteration flowing into persisted artifacts.

    Set and directory-scan iteration order is not a pure function of
    the campaign inputs (string hashing is salted per process; the
    filesystem returns entries in arbitrary order).  A value whose
    order descends from one of those, persisted without an intervening
    ``sorted()``, makes checkpoints, BenchRecords, and serve result
    bodies compare unequal across bit-identical runs -- the exact
    property the dedup store and resume tests pin.
    """

    rule = "RPR011"
    name = "unordered-persist"
    severity = Severity.ERROR
    description = (
        "set/scandir iteration order reaches a persisted artifact unsorted"
    )
    rationale = (
        "serve-store dedup hashes normalized result bodies and resume "
        "compares checkpoint fingerprints byte-for-byte; one set-ordered "
        "list in either payload breaks both silently and only under "
        "hash-seed variation"
    )
    advice = (
        "; sort the iteration (sorted(...)) before it enters the "
        "persisted payload"
    )


@register
class ImpureDigestChecker(_FlowChecker):
    """RPR012: wall-clock/environment values in digests or checkpoints.

    A content digest must cover exactly what determines the result
    bits, and a checkpoint payload must be reproducible from
    ``(seed, interval)``.  Calendar time, ``os.environ``, and locale
    state are none of those: folding them in makes byte-identical
    submissions miss the dedup store and resumed runs fail fingerprint
    checks they should pass.
    """

    rule = "RPR012"
    name = "impure-digest"
    severity = Severity.ERROR
    description = (
        "wall-clock/os.environ/locale value flows into a digest or checkpoint"
    )
    rationale = (
        "the serve store keys results on sha256 of the normalized spec "
        "and RESULT_VERSION precisely so identical submissions dedup to "
        "byte-identical bodies; one timestamp in the hashed payload "
        "voids the content-addressing contract"
    )
    advice = (
        "; digests and checkpoint payloads must be pure functions of the "
        "campaign inputs -- stamp timestamps outside the hashed/"
        "fingerprinted structure"
    )
