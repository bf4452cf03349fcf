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
import os
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


def module_name_for(path: str) -> str:
    """Dotted module name for a file path.

    Prefers the on-disk package structure (climbing while an
    ``__init__.py`` sibling exists); falls back to stripping everything
    up to a ``src`` component for in-memory sources.  Paths are
    posix-normalised before splitting.
    """
    normalised = path.replace("\\", "/")
    if os.path.exists(normalised):
        absolute = os.path.abspath(normalised)
        directory = os.path.dirname(absolute)
        stem = os.path.basename(absolute)[: -len(".py")]
        parts = [] if stem == "__init__" else [stem]
        while os.path.exists(os.path.join(directory, "__init__.py")):
            parts.insert(0, os.path.basename(directory))
            directory = os.path.dirname(directory)
        if parts:
            return ".".join(parts)
    parts = normalised[: -len(".py")].split("/") if normalised.endswith(".py") else normalised.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(part for part in parts if part and part not in (".", ".."))


def _collect_aliases(
    tree: ast.Module, module_name: str
) -> Dict[str, str]:
    """Import aliases with proper absolute *and* relative resolution."""
    package_parts = module_name.split(".")[:-1]
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # ``from .sharding import x`` / ``from ..core import y``:
                # climb ``level`` packages from the defining module.
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


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
        #: resolve against the module's package.
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
