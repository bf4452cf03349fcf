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

from repro.lint.callgraph import _collect_aliases, dotted_name, module_name_for


class ModuleContext:
    """Everything a checker may ask about the module being linted."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        #: local name -> canonical dotted prefix, from import statements
        #: anywhere in the module (function-local imports included: this
        #: codebase imports lazily inside CLI handlers); relative imports
        #: resolve against the module's package, as in the project index.
        self.aliases: Dict[str, str] = _collect_aliases(
            tree, module_name_for(path)
        )

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
