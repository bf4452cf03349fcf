"""Per-module analysis context shared by every checker.

The context owns the parsed tree, the source lines, and -- the part
every interesting rule needs -- *import-alias resolution*: mapping the
local spelling of a callable back to its canonical dotted path, so that
``np.random.default_rng``, ``numpy.random.default_rng``, and
``from numpy.random import default_rng`` all resolve to the same
``"numpy.random.default_rng"`` string a checker can match on.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """The source-level dotted name of a ``Name``/``Attribute`` chain.

    ``np.random.default_rng`` -> ``"np.random.default_rng"``; anything
    that is not a pure attribute chain (calls, subscripts) is ``None``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


class ModuleContext:
    """Everything a checker may ask about the module being linted."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        #: local name -> canonical dotted prefix, from import statements
        #: anywhere in the module (function-local imports included: this
        #: codebase imports lazily inside CLI handlers).
        self.aliases: Dict[str, str] = {}
        self._collect_imports(tree)

    # -- imports ---------------------------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    # ``import numpy.random`` binds ``numpy``; with
                    # ``as`` the alias names the full dotted module.
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    # Relative imports stay repo-internal; resolve with
                    # a best-effort module-less prefix.
                    module = node.module or ""
                else:
                    module = node.module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    prefix = f"{module}." if module else ""
                    self.aliases[local] = f"{prefix}{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a callable expression, or ``None``.

        The head of the dotted chain is rewritten through the module's
        import aliases; unknown heads (builtins, locals) pass through
        unchanged, so ``open`` resolves to ``"open"``.
        """
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self.aliases.get(head, head)
        return f"{target}.{rest}" if rest else target

    # -- source access ---------------------------------------------------------

    def line_text(self, line: int) -> str:
        """Stripped text of a 1-based source line ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def path_contains(self, fragment: str) -> bool:
        """Does the path contain a ``/fragment/`` directory component?"""
        normalised = "/" + self.path.replace("\\", "/")
        return f"/{fragment}/" in normalised
