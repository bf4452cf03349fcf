"""Project symbol table and call graph for whole-program rules.

The per-module checkers see one file at a time; the bug classes the
whole-program rules police (an unseeded RNG smuggled through two call
hops into a campaign loop) are *interprocedural* by construction.  This
module builds the cross-file facts those rules need:

* a **module index**: every ``.py`` file mapped to its dotted module
  name, with import-alias resolution (absolute *and* relative imports,
  ``as`` renames, ``__init__``/re-export chains);
* a **symbol table**: every function, method, and class definition
  under a canonical qualified name
  (``repro.parallel.runner.run_sharded``,
  ``repro.sttram.array.STTRAMArray.write``);
* a **call graph**: for every call site, the resolved callee qualname
  plus the *parameter binding* -- which argument expression flows into
  which callee parameter -- the edge the data-flow pass propagates
  taint across.

Resolution is deliberately best-effort and deterministic: a call that
cannot be resolved to a project symbol (builtins, third-party, dynamic
dispatch) keeps its canonical dotted spelling so rules can still match
known externals (``numpy.random.default_rng``, ``hashlib.sha256``),
and anything truly opaque resolves to ``None`` rather than guessing.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


#: Maximum re-export/alias chain length followed during resolution --
#: a cycle guard, far above any real chain in this repository.
_MAX_ALIAS_HOPS = 16


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


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Positional-bindable parameter names, in order (posonly + args),
    #: with ``self``/``cls`` already stripped for methods.
    params: Tuple[str, ...]
    #: Keyword-only parameter names.
    kwonly: Tuple[str, ...]
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def all_params(self) -> Tuple[str, ...]:
        return self.params + self.kwonly


@dataclass
class CallSite:
    """One resolved call edge with its argument-to-parameter binding."""

    caller: str  # qualname of the enclosing function, or "<module>"
    module: str
    path: str
    node: ast.Call
    #: Canonical dotted callee: a project qualname when resolvable,
    #: else the alias-resolved external spelling.
    callee: str
    #: Callee parameter name -> argument expression, for the params the
    #: binding could determine (missing for *args/**kwargs overflow).
    bindings: Dict[str, ast.AST] = field(default_factory=dict)
    #: True when ``callee`` names a function defined in this project.
    internal: bool = False


@dataclass
class ModuleInfo:
    """Everything the index knows about one module."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: local name -> canonical dotted target (import aliases).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: class name -> {method name -> FunctionInfo}.
    classes: Dict[str, Dict[str, FunctionInfo]] = field(default_factory=dict)
    #: class name -> base-class dotted names (alias-resolved).
    bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


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


def _function_params(node: ast.AST, is_method: bool) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    arguments = node.args  # type: ignore[attr-defined]
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    return tuple(positional), tuple(a.arg for a in arguments.kwonlyargs)


class ProjectIndex:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: canonical qualname -> FunctionInfo (functions and methods).
        self.functions: Dict[str, FunctionInfo] = {}
        #: canonical class qualname -> {method name -> FunctionInfo}.
        self.classes: Dict[str, Dict[str, FunctionInfo]] = {}
        #: class qualname -> resolved base-class qualnames.
        self.class_bases: Dict[str, Tuple[str, ...]] = {}
        self.call_sites: List[CallSite] = []
        #: callee qualname -> call sites targeting it.
        self.calls_to: Dict[str, List[CallSite]] = {}

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls, sources: Iterable[Tuple[str, str, ast.Module]]
    ) -> "ProjectIndex":
        """Index ``(path, source, tree)`` triples into a project."""
        index = cls()
        for path, source, tree in sources:
            index._add_module(path, source, tree)
        index._resolve_bases()
        for info in index.modules.values():
            index._collect_calls(info)
        return index

    def _add_module(self, path: str, source: str, tree: ast.Module) -> None:
        name = module_name_for(path)
        info = ModuleInfo(
            name=name,
            path=path.replace("\\", "/"),
            tree=tree,
            source=source,
            aliases=_collect_aliases(tree, name),
        )
        for node in tree.body:
            self._collect_defs(info, node, prefix=name, class_name=None)
        self.modules[name] = info

    def _collect_defs(
        self,
        info: ModuleInfo,
        node: ast.AST,
        prefix: str,
        class_name: Optional[str],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional, kwonly = _function_params(node, class_name is not None)
            function = FunctionInfo(
                qualname=f"{prefix}.{node.name}",
                module=info.name,
                path=info.path,
                node=node,
                params=positional,
                kwonly=kwonly,
                class_name=class_name,
            )
            self.functions[function.qualname] = function
            if class_name is None:
                info.functions[node.name] = function
            else:
                info.classes.setdefault(class_name, {})[node.name] = function
                self.classes.setdefault(f"{info.name}.{class_name}", {})[
                    node.name
                ] = function
            # Nested defs are indexed (they can be called locally) but
            # not descended into for class context.
            for child in node.body:
                self._collect_defs(
                    info, child, f"{prefix}.{node.name}", class_name=None
                )
        elif isinstance(node, ast.ClassDef):
            info.classes.setdefault(node.name, {})
            self.classes.setdefault(f"{info.name}.{node.name}", {})
            bases = []
            for base in node.bases:
                dotted = dotted_name(base)
                if dotted is not None:
                    bases.append(self._rewrite_head(info, dotted))
            info.bases[node.name] = tuple(bases)
            for child in node.body:
                self._collect_defs(
                    info,
                    child,
                    f"{prefix}.{node.name}",
                    class_name=node.name,
                )

    def _resolve_bases(self) -> None:
        for info in self.modules.values():
            for class_name, bases in info.bases.items():
                resolved = []
                for base in bases:
                    canonical = self.canonicalize(base)
                    if canonical not in self.classes:
                        # A base named without an import is a class
                        # defined in the same module.
                        local = f"{info.name}.{base}"
                        if local in self.classes:
                            canonical = local
                    if canonical in self.classes:
                        resolved.append(canonical)
                self.class_bases[f"{info.name}.{class_name}"] = tuple(resolved)

    # -- name resolution --------------------------------------------------------

    @staticmethod
    def _rewrite_head(info: ModuleInfo, dotted: str) -> str:
        """Rewrite the head through imports, or qualify a local def.

        A bare ``helper()`` naming a function or class defined in the
        same module resolves to ``<module>.helper``; without that, a
        same-module call would look like an unknown external.
        """
        head, _, rest = dotted.partition(".")
        if head in info.aliases:
            target = info.aliases[head]
        elif head in info.functions or head in info.classes:
            target = f"{info.name}.{head}"
        else:
            target = head
        return f"{target}.{rest}" if rest else target

    def canonicalize(self, dotted: str) -> str:
        """Follow re-export/alias chains to a canonical qualname.

        ``pkg.api.run`` where ``pkg/api/__init__.py`` does
        ``from pkg.impl import run`` resolves to ``pkg.impl.run``; names
        that never land on a project definition are returned as-is
        after the last resolvable hop.
        """
        current = dotted
        for _ in range(_MAX_ALIAS_HOPS):
            if current in self.functions or current in self.classes:
                return current
            # Longest module prefix owning the remainder.
            module, attr_chain = self._split_module(current)
            if module is None or not attr_chain:
                return current
            info = self.modules[module]
            head = attr_chain[0]
            rest = attr_chain[1:]
            if head in info.functions and not rest:
                return info.functions[head].qualname
            if head in info.classes:
                qual = f"{module}.{head}" + (
                    "." + ".".join(rest) if rest else ""
                )
                return qual
            if head in info.aliases:
                current = info.aliases[head] + (
                    "." + ".".join(rest) if rest else ""
                )
                continue
            return current
        return current

    def _split_module(
        self, dotted: str
    ) -> Tuple[Optional[str], Tuple[str, ...]]:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.modules:
                return candidate, tuple(parts[cut:])
        return None, tuple(parts)

    def resolve_call(
        self,
        info: ModuleInfo,
        node: ast.Call,
        class_name: Optional[str],
    ) -> Optional[str]:
        """Canonical callee name for a call in ``info``'s module."""
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and class_name is not None:
            method = rest
            if not method or "." in method:
                return None
            found = self._lookup_method(f"{info.name}.{class_name}", method)
            if found is not None:
                return found.qualname
            return None
        canonical = self.canonicalize(self._rewrite_head(info, dotted))
        # ``SomeClass(...)`` is a constructor call -- route the edge to
        # ``__init__`` when the project defines it.
        if canonical in self.classes:
            init = self._lookup_method(canonical, "__init__")
            if init is not None:
                return init.qualname
            return canonical
        # ``SomeClass.method`` / ``instance_of.method`` resolved through
        # a class qualname prefix.
        prefix, _, attribute = canonical.rpartition(".")
        if prefix in self.classes and attribute:
            found = self._lookup_method(prefix, attribute)
            if found is not None:
                return found.qualname
        return canonical

    def _lookup_method(
        self, class_qualname: str, method: str
    ) -> Optional[FunctionInfo]:
        seen = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            methods = self.classes.get(current, {})
            if method in methods:
                return methods[method]
            stack.extend(self.class_bases.get(current, ()))
        return None

    # -- call-edge collection ---------------------------------------------------

    def _collect_calls(self, info: ModuleInfo) -> None:
        for caller, class_name, body in self._function_bodies(info):
            for node in body:
                for child in ast.walk(node):
                    if not isinstance(child, ast.Call):
                        continue
                    callee = self.resolve_call(info, child, class_name)
                    if callee is None:
                        continue
                    internal = callee in self.functions
                    bindings: Dict[str, ast.AST] = {}
                    if internal:
                        bindings = self._bind(
                            self.functions[callee], child
                        )
                    site = CallSite(
                        caller=caller,
                        module=info.name,
                        path=info.path,
                        node=child,
                        callee=callee,
                        bindings=bindings,
                        internal=internal,
                    )
                    self.call_sites.append(site)
                    self.calls_to.setdefault(callee, []).append(site)

    def _function_bodies(
        self, info: ModuleInfo
    ) -> List[Tuple[str, Optional[str], List[ast.AST]]]:
        """(caller qualname, class context, statements) per scope.

        Module-level statements report a ``<module>``-suffixed caller so
        taint seeded at import time still has an owner.
        """
        scopes: List[Tuple[str, Optional[str], List[ast.AST]]] = []
        top: List[ast.AST] = []
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(
                    (f"{info.name}.{node.name}", None, list(node.body))
                )
            elif isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        scopes.append(
                            (
                                f"{info.name}.{node.name}.{child.name}",
                                node.name,
                                list(child.body),
                            )
                        )
                    else:
                        top.append(child)
            else:
                top.append(node)
        scopes.append((f"{info.name}.<module>", None, top))
        return scopes

    @staticmethod
    def _bind(function: FunctionInfo, call: ast.Call) -> Dict[str, ast.AST]:
        """Map argument expressions onto callee parameter names."""
        bindings: Dict[str, ast.AST] = {}
        for position, argument in enumerate(call.args):
            if isinstance(argument, ast.Starred):
                break
            if position < len(function.params):
                bindings[function.params[position]] = argument
        names = set(function.params) | set(function.kwonly)
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in names:
                bindings[keyword.arg] = keyword.value
        return bindings


def build_index(
    files: Sequence[Tuple[str, str]],
) -> ProjectIndex:
    """Parse ``(path, source)`` pairs and build the project index.

    Files that fail to parse are skipped here -- the per-module runner
    already reports them as RPR000 findings; whole-program analysis
    proceeds on the parsable remainder.
    """
    parsed: List[Tuple[str, str, ast.Module]] = []
    for path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        parsed.append((path, source, tree))
    return ProjectIndex.build(parsed)
