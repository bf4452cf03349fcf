"""Interprocedural nondeterminism taint analysis (RPR002, RPR011, RPR012).

Every guarantee this repository ships -- ``--shards 1`` bit-identical
to serial, killed-then-resumed identical to uninterrupted, serve-store
dedup to byte-identical bodies -- reduces to one property: the
simulation is a **pure function of the SeedSequence tree**.  This pass
tracks the **flow facts** behind that property across function
boundaries, so an unseeded RNG smuggled through two call hops, or a
set-ordered iteration feeding a persisted record, is visible even
though no single module looks wrong.

The engine is a fixpoint taint propagation over the
:class:`~repro.lint.callgraph.ProjectIndex`:

* **Taint tags** mark value provenance: ``rng`` (a generator),
  ``unseeded-rng`` (constructed without a seed), ``seed-tree``
  (derived from the campaign SeedSequence tree), ``unordered``
  (set/scandir iteration order), ``wallclock`` / ``env`` (calendar
  time, environment, locale), ``digest-obj`` (a hashlib object).
* **Returns** are summarised relationally (tags plus the parameter
  names the return value depends on), so ``def mk(seed): return
  default_rng(seed)`` transfers the *caller's* provenance.
* **Parameters** accumulate tags context-insensitively from every
  call site's bound argument; **instance attributes** (``self.rng``)
  accumulate per class across methods.  Both iterate with the return
  summaries to a fixpoint (the lattice is finite, growth monotone).

Three whole-program rules consume the converged facts:

* **RPR002** -- an RNG constructed without a seed, numpy's global RNG,
  a campaign-path generator not derived from the seed tree, or a draw
  through a chain that contains an unseeded constructor;
* **RPR011** -- unordered iteration flowing into persisted artifacts
  without an intervening ``sorted()``;
* **RPR012** -- wall-clock/environment/locale values flowing into
  content digests or checkpoint payloads.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    build_index,
    dotted_name,
)
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ProjectChecker, register

# -- taint tags ------------------------------------------------------------------

RNG = "rng"
UNSEEDED = "unseeded-rng"
SEED_TREE = "seed-tree"
UNORDERED = "unordered"
WALLCLOCK = "wallclock"
ENV = "env"
DIGEST_OBJ = "digest-obj"

_EMPTY: FrozenSet[str] = frozenset()

#: Call targets that *root* the seed tree (matched on the last dotted
#: segment so fixture packages and ``repro.parallel.sharding`` both
#: qualify).
_SEED_TREE_PRODUCERS = frozenset(
    {
        "SeedSequence",
        "interval_seed_sequence",
        "interval_python_seed",
    }
)

#: The sanctioned resolution API: returns a generator rooted in
#: whatever the caller threaded in.
_RESOLVERS = frozenset({"resolve_rng"})

#: Canonical RNG constructors.
_STDLIB_RANDOM = "random.Random"
_RNG_CONSTRUCTORS = frozenset({"numpy.random.default_rng", _STDLIB_RANDOM})

#: Wall-clock (calendar time) sources.
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

#: Environment / locale sources (calls).
_ENV_CALLS = frozenset(
    {
        "os.getenv",
        "locale.getlocale",
        "locale.getdefaultlocale",
        "locale.getpreferredencoding",
    }
)

#: hashlib digest constructors.
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

#: Unordered-iteration roots: constructors and filesystem enumerations
#: whose element order is not a pure function of the inputs.
_UNORDERED_CALLS = frozenset(
    {"set", "frozenset", "os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Builtins through which order-dependence does not survive.
_ORDER_NEUTRAL_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "popcount"}
)

#: Persist sinks (RPR011): canonical names, or last-segment prefixes,
#: whose arguments become durable artifacts in argument order.
_PERSIST_CANONICAL = frozenset(
    {"json.dump", "json.dumps", "pickle.dump", "pickle.dumps"}
)
_PERSIST_PREFIXES = ("atomic_write", "write_checkpoint", "save_checkpoint")

#: Checkpoint-payload sinks (RPR012) are matched by substring on the
#: last segment; digest sinks by the hashlib set plus ``digest``/
#: ``fingerprint`` in the callee name.
_CHECKPOINT_MARKER = "checkpoint"
_DIGEST_MARKERS = ("digest", "fingerprint")

#: Module-path fragments scoping the RPR002 shapes that only matter
#: in campaign code: a seeded constructor off the seed tree (parallel),
#: an inline ``random.Random(seed)`` argument (reliability, parallel),
#: and a draw through an unseeded chain (those plus serving).
_PARALLEL_SCOPE = ("parallel",)
_INLINE_SCOPE = ("reliability", "parallel")
_CAMPAIGN_SCOPES = ("reliability", "parallel", "serve")

#: Fixpoint iteration cap; the tag lattice is tiny, so convergence is
#: typically reached in 3-4 rounds even on the full tree.
_MAX_ROUNDS = 12


@dataclass(frozen=True)
class Taint:
    """Abstract value: concrete tags plus enclosing-parameter deps."""

    tags: FrozenSet[str] = _EMPTY
    params: FrozenSet[str] = _EMPTY

    def __or__(self, other: "Taint") -> "Taint":
        if not other.tags and not other.params:
            return self
        if not self.tags and not self.params:
            return other
        return Taint(self.tags | other.tags, self.params | other.params)

    def without(self, *tags: str) -> "Taint":
        return Taint(self.tags - frozenset(tags), self.params)


_NO_TAINT = Taint()


@dataclass(frozen=True)
class SinkEvent:
    """One detected taint-reaches-sink occurrence."""

    kind: str  # "unrooted-rng" | "unordered-persist" | "impure-digest"
    node: ast.AST
    path: str
    module: str
    scope: str  # qualname of the enclosing function (or <module>)
    detail: str


@dataclass
class ProjectAnalysis:
    """Converged whole-program facts handed to the project rules."""

    index: ProjectIndex
    events: List[SinkEvent] = field(default_factory=list)


def _last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _in_scope(info: ModuleInfo, fragments: Sequence[str]) -> bool:
    """Is the module under one of ``fragments`` (by path or name)?"""
    haystack = "/" + info.path + "/." + info.name + "."
    return any(
        f"/{fragment}/" in haystack or f".{fragment}." in haystack
        for fragment in fragments
    )


class _Scope:
    """One abstract-interpretation scope (a function or module body)."""

    def __init__(
        self,
        qualname: str,
        info: ModuleInfo,
        body: Sequence[ast.AST],
        function: Optional[FunctionInfo],
    ) -> None:
        self.qualname = qualname
        self.info = info
        self.body = body
        self.function = function
        self.class_qualname: Optional[str] = None
        if function is not None and function.class_name is not None:
            self.class_qualname = f"{info.name}.{function.class_name}"


class TaintEngine:
    """Fixpoint taint propagation over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.returns: Dict[str, Taint] = {}
        self.param_tags: Dict[str, Dict[str, FrozenSet[str]]] = {}
        self.attr_tags: Dict[str, Dict[str, FrozenSet[str]]] = {}
        self.scopes: List[_Scope] = self._build_scopes()
        #: Populated during the reporting pass only; ``_sites`` keeps
        #: one event per (kind, site) however often a node is evaluated.
        self._events: List[SinkEvent] = []
        self._sites: Set[Tuple[str, str, int, int]] = set()
        self._collect: bool = False

    # -- scope construction -----------------------------------------------------

    def _build_scopes(self) -> List[_Scope]:
        scopes: List[_Scope] = []
        for qualname in sorted(self.index.functions):
            function = self.index.functions[qualname]
            info = self.index.modules.get(function.module)
            if info is None:
                continue
            scopes.append(
                _Scope(qualname, info, list(function.node.body), function)  # type: ignore[attr-defined]
            )
        for name in sorted(self.index.modules):
            info = self.index.modules[name]
            scopes.append(
                _Scope(f"{name}.<module>", info, list(info.tree.body), None)
            )
        return scopes

    # -- fixpoint ---------------------------------------------------------------

    def run(self) -> ProjectAnalysis:
        """Iterate to convergence, then one reporting pass."""
        for _ in range(_MAX_ROUNDS):
            before = self._snapshot()
            for scope in self.scopes:
                self._run_scope(scope)
            if self._snapshot() == before:
                break
        self._collect = True
        self._events = []
        self._sites = set()
        for scope in self.scopes:
            self._run_scope(scope)
        self._collect = False
        self._events.sort(
            key=lambda e: (e.path, getattr(e.node, "lineno", 0), e.kind)
        )
        return ProjectAnalysis(index=self.index, events=list(self._events))

    def _snapshot(self) -> Tuple:
        return (
            {name: taint for name, taint in self.returns.items()},
            {name: dict(params) for name, params in self.param_tags.items()},
            {name: dict(attrs) for name, attrs in self.attr_tags.items()},
        )

    # -- one scope --------------------------------------------------------------

    def _run_scope(self, scope: _Scope) -> None:
        # Parameters carry *only* their dependency marker here; their
        # concrete tags are expanded on demand (:meth:`_concrete`).
        # Mixing the globally-unioned param tags into the env would
        # pollute the relational return summaries: one caller passing
        # an unseeded generator through a shared helper would taint
        # every other caller's chain.
        env: Dict[str, Taint] = {}
        if scope.function is not None:
            for param in scope.function.all_params():
                env[param] = Taint(params=frozenset({param}))
        returned = _NO_TAINT
        for statement in scope.body:
            returned = returned | self._exec(statement, env, scope)
        if scope.function is not None:
            previous = self.returns.get(scope.qualname, _NO_TAINT)
            merged = previous | returned
            if merged != previous:
                self.returns[scope.qualname] = merged

    def _concrete(self, taint: Taint, scope: _Scope) -> FrozenSet[str]:
        """Expand parameter dependencies into their converged tags."""
        if not taint.params or scope.function is None:
            return taint.tags
        known = self.param_tags.get(scope.qualname)
        if not known:
            return taint.tags
        tags = set(taint.tags)
        for param in taint.params:
            tags |= known.get(param, _EMPTY)
        return frozenset(tags)

    # -- statements -------------------------------------------------------------

    def _exec(
        self, node: ast.AST, env: Dict[str, Taint], scope: _Scope
    ) -> Taint:
        """Abstractly execute one statement; returns the Return taint."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # The body is a scope of its own; decorators and defaults run
            # here, at definition time (``def f(rng=default_rng())``).
            for child in [
                *node.decorator_list,
                *node.args.defaults,
                *node.args.kw_defaults,
            ]:
                if child is not None:
                    self._eval(child, env, scope)
            return _NO_TAINT
        if isinstance(node, ast.ClassDef):
            # Methods are scopes of their own; the class body runs here.
            for child in [*node.decorator_list, *node.bases]:
                self._eval(child, env, scope)
            class_env = dict(env)
            for child in node.body:
                self._exec(child, class_env, scope)
            return _NO_TAINT
        if isinstance(node, ast.Return):
            if node.value is None:
                return _NO_TAINT
            return self._eval(node.value, env, scope)
        if isinstance(node, ast.Assign):
            value = self._eval(node.value, env, scope)
            for target in node.targets:
                self._assign(target, value, env, scope)
            return _NO_TAINT
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                value = self._eval(node.value, env, scope)
                self._assign(node.target, value, env, scope)
            return _NO_TAINT
        if isinstance(node, ast.AugAssign):
            value = self._eval(node.value, env, scope)
            if isinstance(node.target, ast.Name):
                value = value | env.get(node.target.id, _NO_TAINT)
            self._assign(node.target, value, env, scope)
            return _NO_TAINT
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterable = self._eval(node.iter, env, scope)
            element = iterable
            self._assign(node.target, element, env, scope)
            returned = _NO_TAINT
            for child in node.body + node.orelse:
                returned = returned | self._exec(child, env, scope)
            return returned
        if isinstance(node, (ast.While, ast.If)):
            self._eval(node.test, env, scope)
            returned = _NO_TAINT
            for child in node.body + node.orelse:
                returned = returned | self._exec(child, env, scope)
            return returned
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._eval(item.context_expr, env, scope)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, env, scope)
            returned = _NO_TAINT
            for child in node.body:
                returned = returned | self._exec(child, env, scope)
            return returned
        if isinstance(node, ast.Try):
            returned = _NO_TAINT
            for child in node.body + node.orelse + node.finalbody:
                returned = returned | self._exec(child, env, scope)
            for handler in node.handlers:
                for child in handler.body:
                    returned = returned | self._exec(child, env, scope)
            return returned
        if isinstance(node, ast.Expr):
            self._eval(node.value, env, scope)
            return _NO_TAINT
        if isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env, scope)
            return _NO_TAINT
        return _NO_TAINT

    def _assign(
        self,
        target: ast.AST,
        value: Taint,
        env: Dict[str, Taint],
        scope: _Scope,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, value, env, scope)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, env, scope)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and scope.class_qualname is not None
        ):
            attrs = self.attr_tags.setdefault(scope.class_qualname, {})
            attrs[target.attr] = attrs.get(target.attr, _EMPTY) | self._concrete(
                value, scope
            )

    # -- expressions ------------------------------------------------------------

    def _eval(
        self, node: ast.AST, env: Dict[str, Taint], scope: _Scope
    ) -> Taint:
        if isinstance(node, ast.Name):
            return env.get(node.id, _NO_TAINT)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, scope)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                resolved = self.index.canonicalize(
                    self.index._rewrite_head(scope.info, dotted)
                )
                if resolved == "os.environ":
                    return Taint(tags=frozenset({ENV}))
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and scope.class_qualname is not None
            ):
                tags = self.attr_tags.get(scope.class_qualname, {}).get(
                    node.attr, _EMPTY
                )
                return Taint(tags=tags)
            return self._eval(node.value, env, scope)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, env, scope)
            if (
                isinstance(node.value, ast.Attribute)
                and dotted_name(node.value) is not None
                and self.index.canonicalize(
                    self.index._rewrite_head(
                        scope.info, dotted_name(node.value)  # type: ignore[arg-type]
                    )
                )
                == "os.environ"
            ):
                base = base | Taint(tags=frozenset({ENV}))
            return base | self._eval(node.slice, env, scope)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env, scope)
            self._assign(node.target, value, env, scope)
            return value
        if isinstance(node, ast.Set):
            inner = _NO_TAINT
            for element in node.elts:
                inner = inner | self._eval(element, env, scope)
            return inner | Taint(tags=frozenset({UNORDERED}))
        if isinstance(node, ast.SetComp):
            return self._eval_comprehension(node, env, scope) | Taint(
                tags=frozenset({UNORDERED})
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, env, scope)
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            taint = _NO_TAINT
            for generator in node.generators:
                iterable = self._eval(generator.iter, comp_env, scope)
                self._assign(generator.target, iterable, comp_env, scope)
                taint = taint | iterable
            taint = taint | self._eval(node.key, comp_env, scope)
            taint = taint | self._eval(node.value, comp_env, scope)
            return taint
        if isinstance(node, (ast.List, ast.Tuple)):
            taint = _NO_TAINT
            for element in node.elts:
                taint = taint | self._eval(element, env, scope)
            return taint
        if isinstance(node, ast.Dict):
            taint = _NO_TAINT
            for key in node.keys:
                if key is not None:
                    taint = taint | self._eval(key, env, scope)
            for value in node.values:
                taint = taint | self._eval(value, env, scope)
            return taint
        if isinstance(node, ast.IfExp):
            return (
                self._eval(node.test, env, scope)
                | self._eval(node.body, env, scope)
                | self._eval(node.orelse, env, scope)
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env, scope)
        if isinstance(node, ast.Await):
            return self._eval(node.value, env, scope)
        if isinstance(node, (ast.BoolOp,)):
            taint = _NO_TAINT
            for value in node.values:
                taint = taint | self._eval(value, env, scope)
            return taint
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, env, scope) | self._eval(
                node.right, env, scope
            )
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env, scope)
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left, env, scope)
            for comparator in node.comparators:
                taint = taint | self._eval(comparator, env, scope)
            return taint
        if isinstance(node, ast.JoinedStr):
            taint = _NO_TAINT
            for value in node.values:
                taint = taint | self._eval(value, env, scope)
            return taint
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, env, scope)
        if isinstance(node, ast.Lambda):
            # Evaluated for the sites in its body; its parameters shadow
            # the enclosing names.
            shadowed = {
                arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
            }
            inner = {name: t for name, t in env.items() if name not in shadowed}
            self._eval(node.body, inner, scope)
            return _NO_TAINT
        return _NO_TAINT

    def _eval_comprehension(
        self, node: ast.AST, env: Dict[str, Taint], scope: _Scope
    ) -> Taint:
        comp_env = dict(env)
        taint = _NO_TAINT
        for generator in node.generators:  # type: ignore[attr-defined]
            iterable = self._eval(generator.iter, comp_env, scope)
            self._assign(generator.target, iterable, comp_env, scope)
            taint = taint | iterable
            for condition in generator.ifs:
                self._eval(condition, comp_env, scope)
        taint = taint | self._eval(node.elt, comp_env, scope)  # type: ignore[attr-defined]
        return taint

    # -- calls ------------------------------------------------------------------

    def _arg_taints(
        self, node: ast.Call, env: Dict[str, Taint], scope: _Scope
    ) -> List[Tuple[Optional[str], ast.AST, Taint]]:
        out: List[Tuple[Optional[str], ast.AST, Taint]] = []
        for argument in node.args:
            out.append((None, argument, self._eval(argument, env, scope)))
        for keyword in node.keywords:
            out.append(
                (keyword.arg, keyword.value, self._eval(keyword.value, env, scope))
            )
        return out

    def _eval_call(
        self, node: ast.Call, env: Dict[str, Taint], scope: _Scope
    ) -> Taint:
        args = self._arg_taints(node, env, scope)
        arg_union = _NO_TAINT
        for _, _, taint in args:
            arg_union = arg_union | taint
        arg_tags = self._concrete(arg_union, scope)

        class_name = (
            scope.function.class_name if scope.function is not None else None
        )
        resolved = self.index.resolve_call(scope.info, node, class_name)
        if self._collect and _in_scope(scope.info, _INLINE_SCOPE):
            self._check_inline_random(args, class_name, scope)

        # -- attribute calls on tainted receivers -------------------------------
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value, env, scope)
            receiver_tags = self._concrete(receiver, scope)
            attr = node.func.attr
            if attr == "spawn" and SEED_TREE in receiver_tags:
                return receiver | Taint(tags=frozenset({SEED_TREE}))
            if RNG in receiver_tags or UNSEEDED in receiver_tags:
                # Any method call on a generator consumes its stream.
                if (
                    UNSEEDED in receiver_tags
                    and self._collect
                    and _in_scope(scope.info, _CAMPAIGN_SCOPES)
                ):
                    self._emit(
                        "unrooted-rng",
                        node,
                        scope,
                        f"draw through {attr}() on a generator whose "
                        "provenance chain includes an unseeded "
                        "constructor; thread rng=/seed= from the campaign "
                        "SeedSequence tree (resolve_rng or "
                        "parallel.sharding.interval_generator) through "
                        "the call chain",
                    )
                return receiver.without(DIGEST_OBJ)
            if attr == "update" and DIGEST_OBJ in receiver_tags:
                if self._collect and (
                    WALLCLOCK in arg_tags or ENV in arg_tags
                ):
                    self._emit(
                        "impure-digest",
                        node,
                        scope,
                        "wall-clock/environment-derived bytes folded into a "
                        "content digest",
                    )
                return receiver
            if attr == "join":
                # "sep".join(items) preserves element order-dependence.
                return arg_union
            if attr in ("values", "keys", "items"):
                return receiver
            if attr in ("get", "pop", "copy", "setdefault"):
                return receiver | arg_union
            if resolved is None:
                # ``expr.method(...)``: the result derives from the
                # receiver (``.encode()``, ``.strip()``, ``.format()``).
                return receiver | arg_union

        if resolved is None:
            return arg_union.without(UNORDERED)

        last = _last_segment(resolved)

        # -- sink checks (reporting pass only) ----------------------------------
        if self._collect:
            self._check_call_sinks(node, resolved, last, arg_tags, scope)

        # -- the blessed seed-tree roots ----------------------------------------
        # ``resolve_rng`` and the seed-tree helpers
        # are matched *before* the internal-summary path: their bodies
        # contain the one sanctioned unseeded fallback (exempt from
        # RPR002, and it warns at runtime), so analysing them like
        # ordinary internal functions would leak ``unseeded-rng`` into
        # every well-behaved caller.  Argument provenance still flows
        # through: resolving an explicitly unseeded generator keeps its
        # taint.
        if last in _RESOLVERS or last in _SEED_TREE_PRODUCERS:
            if resolved in self.index.functions:
                self._propagate_params(
                    self.index.functions[resolved],
                    self.index._bind(self.index.functions[resolved], node),
                    env,
                    scope,
                )
            return arg_union | Taint(tags=frozenset({RNG, SEED_TREE}))

        # -- internal functions: relational return summary ----------------------
        if resolved in self.index.functions:
            function = self.index.functions[resolved]
            summary = self.returns.get(resolved, _NO_TAINT)
            result = Taint(tags=summary.tags)
            bindings = self.index._bind(function, node)
            self._propagate_params(function, bindings, env, scope)
            for param in summary.params:
                bound = bindings.get(param)
                if bound is not None:
                    result = result | Taint(
                        tags=self._eval(bound, env, scope).tags
                    )
            return result

        # -- external roots -----------------------------------------------------
        if resolved in _RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                if self._collect:
                    self._emit(
                        "unrooted-rng",
                        node,
                        scope,
                        f"{last}() constructed without a seed; accept "
                        "rng=/seed= and route the fallback through "
                        "repro.core.rng.resolve_rng (warns on the truly "
                        "unseeded interactive path)",
                    )
                return Taint(tags=frozenset({RNG, UNSEEDED}))
            if (
                self._collect
                and SEED_TREE not in arg_tags
                and _in_scope(scope.info, _PARALLEL_SCOPE)
            ):
                self._emit(
                    "unrooted-rng",
                    node,
                    scope,
                    f"{last}(...) in a parallel path is not derived "
                    "from the campaign SeedSequence tree; use "
                    "parallel.sharding.interval_generator / interval_python_seed",
                )
            return arg_union | Taint(tags=frozenset({RNG}))
        prefix, _, attribute = resolved.rpartition(".")
        if self._collect and prefix == "numpy.random" and attribute[:1].islower():
            self._emit(
                "unrooted-rng",
                node,
                scope,
                f"numpy.random.{attribute}() draws from the process-global "
                "RNG; construct a Generator from an explicit seed instead",
            )
        if resolved in _WALLCLOCK_CALLS:
            return Taint(tags=frozenset({WALLCLOCK}))
        if resolved in _ENV_CALLS:
            return Taint(tags=frozenset({ENV}))
        if resolved in _DIGEST_CONSTRUCTORS:
            return Taint(tags=frozenset({DIGEST_OBJ}))
        if resolved in _UNORDERED_CALLS or last in ("iterdir",):
            return arg_union | Taint(tags=frozenset({UNORDERED}))
        if resolved in _ORDER_NEUTRAL_CALLS:
            return arg_union.without(UNORDERED)
        if resolved in ("list", "tuple", "iter", "reversed", "enumerate", "zip"):
            return arg_union
        if resolved == "dict":
            return arg_union
        # Unknown external call: provenance tags survive; element-order
        # sensitivity is assumed not to (it rarely does, and assuming it
        # would flood RPR011 with false positives).
        return arg_union.without(UNORDERED)

    def _propagate_params(
        self,
        function: FunctionInfo,
        bindings: Dict[str, ast.AST],
        env: Dict[str, Taint],
        scope: _Scope,
    ) -> None:
        if not bindings:
            return
        slot = self.param_tags.setdefault(function.qualname, {})
        for param, argument in bindings.items():
            tags = self._concrete(self._eval(argument, env, scope), scope)
            if tags:
                slot[param] = slot.get(param, _EMPTY) | tags

    # -- sinks ------------------------------------------------------------------

    def _check_inline_random(
        self,
        args: List[Tuple[Optional[str], ast.AST, Taint]],
        class_name: Optional[str],
        scope: _Scope,
    ) -> None:
        """A seeded ``random.Random(...)`` passed straight as an argument.

        ``rng=random.Random(seed)`` is flagged unless its seed comes from
        the seed tree (the zero-argument form is flagged anyway).
        """
        for _, argument, taint in args:
            if (
                isinstance(argument, ast.Call)
                and (argument.args or argument.keywords)
                and SEED_TREE not in self._concrete(taint, scope)
                and self.index.resolve_call(scope.info, argument, class_name)
                == _STDLIB_RANDOM
            ):
                self._emit(
                    "unrooted-rng",
                    argument,
                    scope,
                    "random.Random(...) constructed inline in a campaign "
                    "entry point without seed-tree provenance; seed it "
                    "from repro.parallel.sharding.interval_python_seed "
                    "so every unit's stream is a child of the campaign "
                    "seed",
                )

    def _check_call_sinks(
        self,
        node: ast.Call,
        resolved: str,
        last: str,
        arg_tags: FrozenSet[str],
        scope: _Scope,
    ) -> None:
        is_persist = resolved in _PERSIST_CANONICAL or last.startswith(
            _PERSIST_PREFIXES
        )
        if is_persist and UNORDERED in arg_tags:
            self._emit(
                "unordered-persist",
                node,
                scope,
                f"value with set/scandir iteration order reaches {last}() "
                "and becomes a persisted artifact",
            )
        is_digest = resolved in _DIGEST_CONSTRUCTORS or any(
            marker in last for marker in _DIGEST_MARKERS
        )
        if is_digest and (WALLCLOCK in arg_tags or ENV in arg_tags):
            self._emit(
                "impure-digest",
                node,
                scope,
                f"wall-clock/environment-derived value reaches {last}() and "
                "contaminates a content digest",
            )
        if _CHECKPOINT_MARKER in last and (
            WALLCLOCK in arg_tags or ENV in arg_tags
        ):
            self._emit(
                "impure-digest",
                node,
                scope,
                f"wall-clock/environment-derived value reaches {last}() and "
                "enters a checkpoint payload",
            )

    def _emit(
        self, kind: str, node: ast.AST, scope: _Scope, detail: str
    ) -> None:
        site = (
            kind,
            scope.info.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
        )
        if site in self._sites:
            return
        self._sites.add(site)
        self._events.append(
            SinkEvent(
                kind=kind,
                node=node,
                path=scope.info.path,
                module=scope.info.name,
                scope=scope.qualname,
                detail=detail,
            )
        )


def analyze_project(files: Sequence[Tuple[str, str]]) -> ProjectAnalysis:
    """Build the index from ``(path, source)`` pairs and run to fixpoint."""
    return TaintEngine(build_index(files)).run()


# -- the whole-program rules -----------------------------------------------------


def _finding_from_event(
    checker: ProjectChecker, event: SinkEvent, message: str, lines: Sequence[str]
) -> Finding:
    line = getattr(event.node, "lineno", 1)
    content = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
    return Finding(
        rule=checker.rule,
        severity=checker.severity,
        path=event.path,
        line=line,
        column=getattr(event.node, "col_offset", 0),
        message=message,
        content=content,
    )


@register
class UnrootedRngChecker(ProjectChecker):
    """RPR002: randomness not rooted in the campaign SeedSequence tree.

    One rule on the converged flow facts, reporting five shapes once
    per site:

    * a zero-argument ``default_rng()`` / ``random.Random()``, anywhere;
    * a call through numpy's process-global RNG (``np.random.normal``),
      anywhere;
    * a seeded constructor in a ``parallel`` path whose argument carries
      no seed-tree provenance (two shards would get correlated streams);
    * a seeded ``random.Random(...)`` passed inline as a call argument
      in reliability/parallel code without seed-tree provenance;
    * a draw, in reliability/parallel/serve code, through a generator
      whose chain -- two call hops away, returned from a helper, stored
      on ``self`` -- contains an unseeded constructor.

    Provenance is a flow fact, not a name: ``ss = tree.spawn(1)[0];
    rng = default_rng(ss)`` is rooted through both hops.  Chains rooted
    in ``resolve_rng``/``SeedSequence.spawn`` (or
    any value threaded from them through parameters) are clean.  The
    retired ids RPR006 and RPR010 named two of these shapes.
    """

    rule = "RPR002"
    name = "unrooted-rng"
    severity = Severity.ERROR
    description = (
        "RNG not rooted in the SeedSequence tree (unseeded, global, or "
        "drawn through an unseeded chain)"
    )
    rationale = (
        "ten `rng or np.random.default_rng()` fallback sites, the "
        "estimate_fit inline random.Random(seed), and ad-hoc per-worker "
        "streams each broke the guarantee that shards1==serial and resume "
        "are bit-identical: every draw must be a pure function of the "
        "SeedSequence tree"
    )

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for event in analysis.events:
            if event.kind != "unrooted-rng":
                continue
            lines = analysis.index.modules[event.module].source.splitlines()
            yield _finding_from_event(
                self, event, f"in {event.scope}: {event.detail}", lines
            )


@register
class UnorderedPersistChecker(ProjectChecker):
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

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for event in analysis.events:
            if event.kind != "unordered-persist":
                continue
            lines = analysis.index.modules[event.module].source.splitlines()
            yield _finding_from_event(
                self,
                event,
                f"in {event.scope}: {event.detail}; sort the iteration "
                "(sorted(...)) before it enters the persisted payload",
                lines,
            )


@register
class ImpureDigestChecker(ProjectChecker):
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

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for event in analysis.events:
            if event.kind != "impure-digest":
                continue
            lines = analysis.index.modules[event.module].source.splitlines()
            yield _finding_from_event(
                self,
                event,
                f"in {event.scope}: {event.detail}; digests and checkpoint "
                "payloads must be pure functions of the campaign inputs -- "
                "stamp timestamps outside the hashed/fingerprinted "
                "structure",
                lines,
            )
