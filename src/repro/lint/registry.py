"""Checker registry and base class.

A checker is a class with rule metadata (id, name, severity, the
originating bug it mechanizes) and a ``check_node`` method invoked for
every AST node whose type name appears in its ``interests``.  The
runner walks each module's tree exactly once and dispatches node events
to every interested checker, so adding a rule never adds a tree walk.
The three flow rules (RPR002, RPR011, RPR012) take the ``Module`` node
and share one pass of their own over each function body.

Registration is declarative::

    @register
    class MyChecker(Checker):
        rule = "RPR007"
        name = "my-invariant"
        severity = Severity.ERROR
        description = "one-line summary"
        rationale = "the bug this rule descends from"
        interests = ("Call",)

        def check_node(self, node, ctx):
            yield self.finding(node, ctx, "message")

Rule ids are unique; re-registering an id raises (catching accidental
collisions between future PRs each adding "the next" rule).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Tuple, Type

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding, Severity

_REGISTRY: Dict[str, Type["Checker"]] = {}


class Checker:
    """Base class for domain rules.

    Subclasses set the class attributes below and implement
    :meth:`check_node`; per-module state can be initialised in
    :meth:`begin_module` (a fresh checker instance is created per file,
    so instance attributes are naturally module-scoped).
    """

    #: Unique rule identifier, e.g. ``"RPR001"``.
    rule: str = ""
    #: Short kebab-case rule name, e.g. ``"outcome-literal"``.
    name: str = ""
    #: Gate level for every finding this checker emits.
    severity: Severity = Severity.ERROR
    #: One-line summary shown by ``repro lint --list-rules``.
    description: str = ""
    #: The real bug this rule mechanizes (shown in the rule catalog).
    rationale: str = ""
    #: AST node type names this checker wants to see (e.g. ``("Call",)``).
    interests: Tuple[str, ...] = ()

    def begin_module(self, ctx: ModuleContext) -> None:
        """Hook invoked once before the walk of each module."""

    def check_node(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterator[Finding]:
        """Yield findings for one node of an interested type."""
        raise NotImplementedError

    def end_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Hook invoked once after the walk; may yield module findings."""
        return iter(())

    def finding(
        self, node: ast.AST, ctx: ModuleContext, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.rule,
            severity=self.severity,
            path=ctx.path,
            line=line,
            column=getattr(node, "col_offset", 0),
            message=message,
            content=ctx.line_text(line),
        )


def register(checker: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not checker.rule:
        raise ValueError(f"{checker.__name__} must set a rule id")
    if checker.rule in _REGISTRY:
        raise ValueError(f"duplicate rule id {checker.rule!r}")
    if not checker.interests:
        raise ValueError(f"{checker.__name__} must declare node interests")
    _REGISTRY[checker.rule] = checker
    return checker


def all_checkers() -> List[Type[Checker]]:
    """Every registered checker class, sorted by rule id."""
    _ensure_builtin_checkers()
    return [_REGISTRY[rule] for rule in sorted(_REGISTRY)]


def get_checker(rule: str) -> Type[Checker]:
    """Look up one checker class by rule id."""
    _ensure_builtin_checkers()
    try:
        return _REGISTRY[rule]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule!r} (known: {', '.join(sorted(_REGISTRY))})"
        )


def known_rules() -> List[str]:
    """Sorted rule ids (flag validation)."""
    _ensure_builtin_checkers()
    return sorted(_REGISTRY)


def _ensure_builtin_checkers() -> None:
    """Import the built-in rules exactly once (registration side effect).

    Deferred so ``registry`` and ``checkers`` avoid a circular import
    while callers never have to remember to import the rule module.
    """
    import repro.lint.checkers  # noqa: F401  (registration side effect)


def instantiate(
    rules: Iterable[str],
) -> List[Checker]:
    """Fresh checker instances for the selected rule ids."""
    return [get_checker(rule)() for rule in rules]
