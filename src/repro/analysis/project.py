"""Whole-program analysis: summaries, graphs and the incremental cache.

``repro lint`` (:mod:`repro.analysis.engine`) is a whole-program pass
built on three parts, all defined here:

- **Per-file summaries** (:class:`ModuleSummary`): one deterministic
  AST walk per file extracts everything the summary-fed rules need —
  imports, top-level symbols, mutable globals and locks, per-function
  call sites (resolved through the import map, with the lock context
  lexically held at each), shared-state mutations, write-style file
  opens, RNG constructions and executor boundary payloads, each site
  with its line and column.  The walk has one lexical scope model:
  every ``def`` is summarized wherever it sits; decorators, default
  arguments, class bases and class bodies belong to the enclosing
  scope; a nested function sees its enclosing function's locals and
  starts with the locks held at its ``def``.  Summaries are plain data,
  so they serialize into the incremental cache and a warm run never
  re-parses unchanged files.

- **The project context** (:class:`ProjectContext`): built once per run
  from the summaries — module symbol table, import graph, call graph,
  plus two interprocedural fixpoints: ``inherited_locks`` (the locks a
  private helper is guaranteed to hold because *every* in-project call
  site holds them) and ``init_only`` (helpers reachable only from
  ``__init__``, where pre-publication mutation is safe).  Every rule
  but R003 and R007 implements
  :meth:`~repro.analysis.registry.Rule.check_context` against this
  object.

- **The incremental cache** (:class:`LintCache`): content-hash-keyed
  per-file :class:`FileAnalysis` entries holding the summary, the raw
  (pre-suppression) module-rule findings and the parsed suppressions.
  An entry that does not decode is a miss.  The cache key is
  the file's SHA-256 plus a pack signature (rule ids +
  :data:`ANALYSIS_CACHE_VERSION`), so editing one file re-analyzes only
  that file and bumping the version constant invalidates everything.
  Writes are atomic (``mkstemp`` + ``os.replace``) — the cache itself
  obeys R010.

Everything is ordered: files sorted, dict keys sorted on write, graph
edges sorted — the same tree produces byte-identical reports and cache
files regardless of discovery order.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    import_aliases,
    resolve_call_target,
    scope_bindings,
)
from repro.analysis.findings import PARSE_ERROR_RULE, Finding, Severity
from repro.analysis.registry import ModuleInfo
# one source of truth for what the summaries extract: the vocabulary
# regex and emit-method set (R006), the CLI flag extractor (R008), the
# executor-boundary method names and unpicklable primitives (R005)
from repro.analysis.rules.cli_docs import _cli_flags
from repro.analysis.rules.metrics_vocab import (
    _EMIT_METHODS,
    _NAME_RE,
    _extract_vocabulary,
)
from repro.analysis.rules.pickle_safety import (
    _BOUNDARY_METHODS,
    _UNPICKLABLE_CALLS,
)
from repro.analysis.suppressions import Suppression

#: bump when summaries, fixpoints or any rule's logic change shape —
#: stale caches are then discarded wholesale instead of replaying
#: findings the current pack would no longer produce
ANALYSIS_CACHE_VERSION = 3

#: calls that construct an explicit RNG generator object
_RNG_CONSTRUCTORS = {"numpy.random.default_rng", "random.Random",
                     "numpy.random.Generator"}

_LOCK_CALLS = {"threading.Lock", "threading.RLock"}
_MUTABLE_CALLS = {"dict", "list", "set", "collections.OrderedDict",
                  "collections.defaultdict", "collections.deque"}
_MUTATOR_METHODS = {
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "insert", "remove", "discard", "move_to_end", "appendleft",
}
#: binding nodes that make a name a locally-defined callable (R005)
_CALLABLE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


# --------------------------------------------------------------- summaries
@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    raw: str                  # dotted text as written ("self.m", "mod.f", "f")
    target: str               # resolved through the import map; "" if not imported
    lineno: int
    col: int
    locks: Tuple[str, ...]    # candidate lock tokens lexically held


@dataclass(frozen=True)
class MutationSite:
    """One mutation of shared state (module global or self attribute)."""

    scope: str                # "global" | "attr"
    name: str                 # resolved token / bare attribute name
    cls: str                  # owning class for attr scope, else ""
    lineno: int
    col: int
    locks: Tuple[str, ...]
    via: str                  # "subscript" | "method:<m>" | "rebind" | "del"


@dataclass(frozen=True)
class WriteSite:
    """One write-mode file open / write call."""

    lineno: int
    call: str                 # "open" | "os.open" | "os.fdopen" | ".open" | ...
    path_text: str            # source text of the path expression
    protections: Tuple[str, ...]  # "append" | "flock" | "tmp-replace"
    locks: Tuple[str, ...]


@dataclass(frozen=True)
class BoundaryPayload:
    """One expression crossing the executor process boundary."""

    method: str               # boundary method name (run_jobs, map, ...)
    #: "callable" | "call" | "rng-call" | "rng-name" (R012), "lambda" |
    #: "local-callable" | "threading" | "open" (R005)
    kind: str
    target: str               # resolved token / name ("" for a lambda)
    lineno: int
    col: int


@dataclass
class FunctionSummary:
    """Everything the summary-fed rules need from one function."""

    qualname: str             # "Class.method", "func", "<module>"
    lineno: int = 0
    cls: str = ""             # enclosing class name, "" at module level
    calls: List[CallSite] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    writes: List[WriteSite] = field(default_factory=list)
    #: (line, col, constructor) of each RNG built without a seed
    rng_unseeded: List[Tuple[int, int, str]] = field(default_factory=list)
    boundary: List[BoundaryPayload] = field(default_factory=list)
    returns_generator: bool = False
    uses_flock: bool = False

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "cls": self.cls,
            "calls": [[c.raw, c.target, c.lineno, c.col, list(c.locks)]
                      for c in self.calls],
            "mutations": [[m.scope, m.name, m.cls, m.lineno, m.col,
                           list(m.locks), m.via] for m in self.mutations],
            "writes": [[w.lineno, w.call, w.path_text, list(w.protections),
                        list(w.locks)] for w in self.writes],
            "rng_unseeded": [list(site) for site in self.rng_unseeded],
            "boundary": [[b.method, b.kind, b.target, b.lineno, b.col]
                         for b in self.boundary],
            "returns_generator": self.returns_generator,
            "uses_flock": self.uses_flock,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"],
            lineno=data["lineno"],
            cls=data["cls"],
            calls=[CallSite(raw, target, line, col, tuple(locks))
                   for raw, target, line, col, locks in data["calls"]],
            mutations=[MutationSite(scope, name, mcls, line, col,
                                    tuple(locks), via)
                       for scope, name, mcls, line, col, locks, via
                       in data["mutations"]],
            writes=[WriteSite(line, call, text, tuple(prot), tuple(locks))
                    for line, call, text, prot, locks in data["writes"]],
            rng_unseeded=[(line, col, ctor)
                          for line, col, ctor in data["rng_unseeded"]],
            boundary=[BoundaryPayload(method, kind, target, line, col)
                      for method, kind, target, line, col
                      in data["boundary"]],
            returns_generator=data["returns_generator"],
            uses_flock=data["uses_flock"],
        )


@dataclass
class ModuleSummary:
    """The per-file fact base the :class:`ProjectContext` is built from."""

    path: str                 # repo-relative, '/'-separated
    module_name: str          # dotted import name ("repro.eda.flow")
    aliases: Dict[str, str] = field(default_factory=dict)
    imports: List[str] = field(default_factory=list)   # dotted modules
    top_level: Dict[str, int] = field(default_factory=dict)
    classes: List[str] = field(default_factory=list)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    lock_globals: List[str] = field(default_factory=list)
    lock_attrs: Dict[str, List[str]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    # R006 / R008 raw material
    metric_literals: List[str] = field(default_factory=list)
    emit_sites: List[Tuple[int, str]] = field(default_factory=list)
    vocabulary: Optional[Dict[str, int]] = None
    cli_flags: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module_name": self.module_name,
            "aliases": self.aliases,
            "imports": self.imports,
            "top_level": self.top_level,
            "classes": self.classes,
            "mutable_globals": self.mutable_globals,
            "lock_globals": self.lock_globals,
            "lock_attrs": self.lock_attrs,
            "functions": {name: fn.to_dict()
                          for name, fn in sorted(self.functions.items())},
            "metric_literals": self.metric_literals,
            "emit_sites": [list(site) for site in self.emit_sites],
            "vocabulary": self.vocabulary,
            "cli_flags": self.cli_flags,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            path=data["path"],
            module_name=data["module_name"],
            aliases=dict(data["aliases"]),
            imports=list(data["imports"]),
            top_level={k: int(v) for k, v in data["top_level"].items()},
            classes=list(data["classes"]),
            mutable_globals={k: int(v)
                             for k, v in data["mutable_globals"].items()},
            lock_globals=list(data["lock_globals"]),
            lock_attrs={k: list(v) for k, v in data["lock_attrs"].items()},
            functions={name: FunctionSummary.from_dict(fn)
                       for name, fn in data["functions"].items()},
            metric_literals=list(data["metric_literals"]),
            emit_sites=[(int(line), name)
                        for line, name in data["emit_sites"]],
            vocabulary=(None if data["vocabulary"] is None
                        else {k: int(v) for k, v in data["vocabulary"].items()}),
            cli_flags={k: int(v) for k, v in data["cli_flags"].items()},
        )


def module_name_for(path: str) -> str:
    """Dotted import name for a repo-relative path.

    ``src/repro/eda/flow.py`` -> ``repro.eda.flow`` (everything after a
    ``src`` component); without one, the path itself with ``/`` -> ``.``.
    ``__init__.py`` names the package.
    """
    parts = path.replace(os.sep, "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<root>"


@dataclass(frozen=True)
class _Scope:
    """Where the statements being walked record their sites."""

    fn: FunctionSummary       # the summary their sites go into
    cls: str                  # innermost enclosing class, "" outside one
    locals_: frozenset        # names bound here or in an enclosing def
    global_decls: frozenset
    callables: frozenset      # locally-defined callables (R005)
    prefix: str               # qualname prefix of the defs found here


class _Summarizer:
    """One deterministic AST walk producing a :class:`ModuleSummary`.

    The walk reaches every node of the module once.  A ``def`` anywhere
    (under ``with``/``if``/``try`` too) opens a new scope; its
    decorators, default arguments and annotations, and a class's bases
    and body, are walked in the enclosing scope.
    """

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.aliases = import_aliases(module.tree)
        # per-function names bound to RNG generator constructions
        self._rng_names: Dict[str, Set[str]] = {}
        self.summary = ModuleSummary(
            path=module.path,
            module_name=module_name_for(module.path),
            aliases=dict(sorted(self.aliases.items())),
        )

    # -------------------------------------------------------------- entry
    def run(self) -> ModuleSummary:
        tree = self.module.tree
        self._collect_imports(tree)
        self._collect_top_level(tree)
        self._collect_metric_material(tree)
        module_fn = FunctionSummary(qualname="<module>", lineno=1)
        self.summary.functions["<module>"] = module_fn
        scope = _Scope(fn=module_fn, cls="", locals_=frozenset(),
                       global_decls=frozenset(), callables=frozenset(),
                       prefix="")
        for stmt in tree.body:
            self._visit(stmt, scope, ())
        for fn in self.summary.functions.values():
            self._finish_function(fn)
        self.summary.functions = dict(sorted(self.summary.functions.items()))
        return self.summary

    # ---------------------------------------------------------- module facts
    def _collect_imports(self, tree: ast.Module) -> None:
        mods: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    mods.add(node.module)
                elif node.level:
                    base = self.summary.module_name.split(".")
                    base = base[: max(0, len(base) - node.level)]
                    target = ".".join(base + ([node.module]
                                              if node.module else []))
                    if target:
                        mods.add(target)
                        # resolve relative aliases too
                        for alias in node.names:
                            if alias.name != "*":
                                self.aliases[alias.asname or alias.name] = \
                                    f"{target}.{alias.name}"
        self.summary.imports = sorted(mods)
        self.summary.aliases = dict(sorted(self.aliases.items()))

    def _collect_top_level(self, tree: ast.Module) -> None:
        s = self.summary
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                s.top_level[stmt.name] = stmt.lineno
            elif isinstance(stmt, ast.ClassDef):
                s.top_level[stmt.name] = stmt.lineno
                s.classes.append(stmt.name)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                s.top_level[name] = stmt.lineno
                if isinstance(stmt.value, ast.Call) and \
                        resolve_call_target(stmt.value, self.aliases) \
                        in _LOCK_CALLS:
                    s.lock_globals.append(name)
                elif self._is_mutable_literal(stmt.value):
                    s.mutable_globals[name] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                s.top_level[stmt.target.id] = stmt.lineno
                if stmt.value is not None and \
                        self._is_mutable_literal(stmt.value):
                    s.mutable_globals[stmt.target.id] = stmt.lineno

    def _collect_metric_material(self, tree: ast.Module) -> None:
        literals: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and _NAME_RE.match(node.value):
                literals.add(node.value)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EMIT_METHODS and node.args):
                first = node.args[0]
                if isinstance(first, ast.Constant) and \
                        isinstance(first.value, str) and \
                        _NAME_RE.match(first.value):
                    self.summary.emit_sites.append((first.lineno, first.value))
        self.summary.metric_literals = sorted(literals)
        self.summary.emit_sites.sort()
        self.summary.vocabulary = _extract_vocabulary(self.module)
        self.summary.cli_flags = _cli_flags(self.module)

    def _is_mutable_literal(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                             ast.ListComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            target = resolve_call_target(node, self.aliases)
            if target in _MUTABLE_CALLS:
                return True
            if target is None and isinstance(node.func, ast.Name):
                return node.func.id in _MUTABLE_CALLS
        return False

    # --------------------------------------------------------- function walk
    def _visit(self, node: ast.AST, scope: _Scope,
               locks: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # decorators, defaults and annotations run in this scope
            for child in (*node.decorator_list, node.args, node.returns):
                if child is not None:
                    self._visit(child, scope, locks)
            self._walk_function(node, scope, locks)
            return
        if isinstance(node, ast.ClassDef):
            for child in (*node.decorator_list, *node.bases,
                          *node.keywords):
                self._visit(child, scope, locks)
            body = replace(scope, cls=f"{scope.prefix}{node.name}",
                           prefix=f"{scope.prefix}{node.name}.")
            for stmt in node.body:
                self._visit(stmt, body, locks)
            return
        if isinstance(node, ast.With):
            held = list(locks)
            for item in node.items:
                token = self._lock_token(item.context_expr, scope)
                if token is not None:
                    held.append(token)
                self._visit(item.context_expr, scope, locks)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, scope, locks)
            for child in node.body:
                self._visit(child, scope, tuple(held))
            return

        fn = scope.fn
        self._record_mutation(node, scope, locks)
        if isinstance(node, ast.Call):
            self._record_call(node, scope, locks)
        if isinstance(node, ast.Return) and node.value is not None:
            if self._is_rng_expr(node.value, fn):
                fn.returns_generator = True
        if isinstance(node, ast.Assign):
            # track names bound to generator constructions in this scope
            if isinstance(node.value, ast.Call) and \
                    self._rng_target(node.value) is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._rng_names.setdefault(fn.qualname,
                                                   set()).add(target.id)
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope, locks)

    def _walk_function(self, node: ast.AST, outer: _Scope,
                       locks: Tuple[str, ...]) -> None:
        """Summarize one def's body as a new scope.

        It sees the enclosing function's locals, starts with the locks
        held at the ``def`` and belongs to the innermost enclosing
        class: a closure inside a method shares the method's ``self``.
        Defs sharing a qualname (a property and its setter) share one
        summary.
        """
        qualname = outer.prefix + node.name
        fn = self.summary.functions.get(qualname)
        if fn is None:
            fn = FunctionSummary(qualname=qualname, lineno=node.lineno,
                                 cls=outer.cls)
            self.summary.functions[qualname] = fn
        bound, global_decls = scope_bindings(node)
        scope = _Scope(
            fn=fn,
            cls=outer.cls,
            locals_=outer.locals_ | frozenset(bound),
            global_decls=frozenset(global_decls),
            callables=frozenset(
                name for name, values in bound.items()
                if any(isinstance(v, _CALLABLE_NODES) for v in values)),
            prefix=qualname + ".",
        )
        for stmt in node.body:
            self._visit(stmt, scope, locks)

    # ------------------------------------------------------------- helpers
    def _lock_token(self, expr: ast.AST, scope: _Scope) -> Optional[str]:
        """Candidate lock token for a ``with`` context expression."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in scope.locals_:
                return None
            if name in self.summary.lock_globals:
                return f"{self.summary.module_name}.{name}"
            target = self.aliases.get(name)
            if target and "." in target:
                return target  # filtered against lock globals at build
            return None
        cls = scope.fn.cls
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.value.id == "self" \
                and cls:
            return f"{self.summary.module_name}.{cls}.{expr.attr}"
        return None

    def _record_mutation(self, node: ast.AST, scope: _Scope,
                         locks: Tuple[str, ...]) -> None:
        fn = scope.fn
        cls = fn.cls
        sites: List[Tuple[str, str, str, str]] = []  # scope, name, cls, via
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets
                       if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target])
            via = "del" if isinstance(node, ast.Delete) else "rebind"
            for target in targets:
                if isinstance(target, ast.Subscript):
                    base = target.value
                    if isinstance(base, ast.Name):
                        sites.append(("global", base.id, "", "subscript"))
                    elif self._is_self_attr(base, cls):
                        sites.append(("attr", base.attr, cls, "subscript"))
                elif isinstance(target, ast.Name):
                    if target.id in scope.global_decls:
                        sites.append(("global", target.id, "", via))
                elif self._is_self_attr(target, cls):
                    sites.append(("attr", target.attr, cls, via))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATOR_METHODS:
            base = node.func.value
            via = f"method:{node.func.attr}"
            if isinstance(base, ast.Name):
                sites.append(("global", base.id, "", via))
            elif self._is_self_attr(base, cls):
                sites.append(("attr", base.attr, cls, via))

        for kind, name, owner, via in sites:
            if kind == "global":
                token = self._global_token(name, scope)
                if token is None:
                    continue
                fn.mutations.append(MutationSite(
                    scope="global", name=token, cls="", lineno=node.lineno,
                    col=node.col_offset, locks=locks, via=via))
            else:
                if name.startswith("__"):
                    continue
                # lock attributes are assigned, not "mutated"
                if name in self.summary.lock_attrs.get(owner, ()):
                    continue
                fn.mutations.append(MutationSite(
                    scope="attr", name=name, cls=owner, lineno=node.lineno,
                    col=node.col_offset, locks=locks, via=via))

        # record per-class lock attributes (self._lock = threading.Lock())
        if isinstance(node, ast.Assign) and cls and \
                isinstance(node.value, ast.Call) and \
                resolve_call_target(node.value, self.aliases) in _LOCK_CALLS:
            for target in node.targets:
                if self._is_self_attr(target, cls):
                    attrs = self.summary.lock_attrs.setdefault(cls, [])
                    if target.attr not in attrs:
                        attrs.append(target.attr)
                    # retroactively drop the assignment we just recorded
                    fn.mutations = [
                        m for m in fn.mutations
                        if not (m.scope == "attr" and m.cls == cls
                                and m.name == target.attr)
                    ]

    @staticmethod
    def _is_self_attr(node: ast.AST, cls: str) -> bool:
        return (bool(cls) and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _global_token(self, name: str, scope: _Scope) -> Optional[str]:
        if name in scope.global_decls:
            return f"{self.summary.module_name}.{name}"
        if name in scope.locals_:
            return None
        if name in self.summary.mutable_globals or \
                name in self.summary.top_level:
            return f"{self.summary.module_name}.{name}"
        target = self.aliases.get(name)
        if target and "." in target:
            return target
        return None

    def _rng_target(self, call: ast.Call) -> Optional[str]:
        target = resolve_call_target(call, self.aliases)
        return target if target in _RNG_CONSTRUCTORS else None

    def _is_rng_expr(self, expr: ast.AST, fn: FunctionSummary) -> bool:
        if isinstance(expr, ast.Call) and self._rng_target(expr) is not None:
            return True
        return (isinstance(expr, ast.Name)
                and expr.id in self._rng_names.get(fn.qualname, ()))

    def _record_call(self, node: ast.Call, scope: _Scope,
                     locks: Tuple[str, ...]) -> None:
        fn = scope.fn
        raw = dotted_name(node.func)
        if raw is not None:
            target = resolve_call_target(node, self.aliases)
            if target == "fcntl.flock" or raw.endswith(".flock"):
                fn.uses_flock = True
            fn.calls.append(CallSite(raw=raw, target=target or "",
                                     lineno=node.lineno, col=node.col_offset,
                                     locks=locks))
            if target in _RNG_CONSTRUCTORS and self._is_unseeded(node):
                fn.rng_unseeded.append((node.lineno, node.col_offset,
                                        target))
            self._record_write(node, raw, target, fn, locks)
        elif isinstance(node.func, ast.Attribute):
            # method call on a computed object: keep attr-level facts
            if node.func.attr == "flock":
                fn.uses_flock = True
            self._record_write(node, "." + node.func.attr, None, fn, locks)
        self._record_boundary(node, scope)
        # initializer= callables are executed inside every pool worker
        for kw in node.keywords:
            if kw.arg == "initializer":
                target = self._callable_token(kw.value, scope)
                if target:
                    fn.boundary.append(BoundaryPayload(
                        method="initializer", kind="callable",
                        target=target, lineno=node.lineno,
                        col=node.col_offset))

    @staticmethod
    def _is_unseeded(call: ast.Call) -> bool:
        if call.keywords:
            return False
        if not call.args:
            return True
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None

    # ------------------------------------------------------------- writes
    _WRITE_MODE = frozenset("wax+")

    def _record_write(self, node: ast.Call, raw: str,
                      target: Optional[str], fn: FunctionSummary,
                      locks) -> None:
        call_kind = None
        path_text = ""
        protections: List[str] = []

        def mode_of(index: int, kwname: str) -> Optional[str]:
            for kw in node.keywords:
                if kw.arg == kwname and isinstance(kw.value, ast.Constant):
                    return str(kw.value.value)
            if len(node.args) > index and \
                    isinstance(node.args[index], ast.Constant):
                return str(node.args[index].value)
            return None

        if raw == "open" or target == "os.fdopen" or raw == "os.fdopen":
            mode = mode_of(1, "mode") or "r"
            if not (set(mode) & self._WRITE_MODE):
                return
            call_kind = "os.fdopen" if "fdopen" in raw else "open"
            path_text = ast.unparse(node.args[0]) if node.args else ""
            if "a" in mode:
                protections.append("append")
        elif target == "os.open" or raw == "os.open":
            flags_text = (ast.unparse(node.args[1])
                          if len(node.args) > 1 else "")
            if "O_WRONLY" not in flags_text and "O_RDWR" not in flags_text:
                return
            call_kind = "os.open"
            path_text = ast.unparse(node.args[0]) if node.args else ""
            if "O_APPEND" in flags_text:
                protections.append("append")
        elif raw.endswith(".open") and isinstance(node.func, ast.Attribute):
            mode = mode_of(0, "mode") or "r"
            if not (set(mode) & self._WRITE_MODE):
                return
            call_kind = ".open"
            path_text = ast.unparse(node.func.value)
            if "a" in mode:
                protections.append("append")
        elif raw.endswith((".write_text", ".write_bytes")) and \
                isinstance(node.func, ast.Attribute):
            call_kind = "." + node.func.attr
            path_text = ast.unparse(node.func.value)
        else:
            return
        fn.writes.append(WriteSite(
            lineno=node.lineno, call=call_kind, path_text=path_text,
            protections=tuple(protections), locks=tuple(locks)))

    # ----------------------------------------------------------- boundary
    def _record_boundary(self, node: ast.Call, scope: _Scope) -> None:
        """Payloads of an executor-surface call, descending into
        containers, comprehensions and constructor arguments."""
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in _BOUNDARY_METHODS):
            return
        method = node.func.attr
        fn = scope.fn

        def payload(kind: str, target: str, expr: ast.AST) -> None:
            fn.boundary.append(BoundaryPayload(
                method=method, kind=kind, target=target,
                lineno=expr.lineno, col=expr.col_offset))

        stack = list(node.args) + [kw.value for kw in node.keywords]
        while stack:
            expr = stack.pop()
            if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
                stack.extend(expr.elts)
            elif isinstance(expr, ast.Dict):
                stack.extend(v for v in expr.values if v is not None)
            elif isinstance(expr, ast.Starred):
                stack.append(expr.value)
            elif isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
                stack.append(expr.elt)
            elif isinstance(expr, ast.Lambda):
                payload("lambda", "", expr)
            elif isinstance(expr, ast.Call):
                target = resolve_call_target(expr, self.aliases)
                if target in _RNG_CONSTRUCTORS:
                    payload("rng-call", target, expr)
                elif target in _UNPICKLABLE_CALLS:
                    payload("threading", target, expr)
                elif isinstance(expr.func, ast.Name) and \
                        expr.func.id == "open":
                    payload("open", "open", expr)
                else:
                    called = self._callable_token(expr.func, scope)
                    if called:
                        payload("call", called, expr)
                stack.extend(expr.args)
                stack.extend(kw.value for kw in expr.keywords)
            elif isinstance(expr, ast.Name):
                if expr.id in scope.callables:
                    payload("local-callable", expr.id, expr)
                if expr.id in self._rng_names.get(fn.qualname, ()):
                    payload("rng-name", expr.id, expr)
                else:
                    token = self._callable_token(expr, scope)
                    if token:
                        payload("callable", token, expr)

    def _callable_token(self, expr: ast.AST, scope: _Scope) -> str:
        """Resolved dotted token for a function reference, or ''."""
        name = dotted_name(expr)
        if name is None:
            return ""
        root, _, rest = name.partition(".")
        if root in scope.locals_:
            return ""
        if not rest and name in self.summary.top_level:
            return f"{self.summary.module_name}.{name}"
        target = self.aliases.get(root)
        if target:
            return f"{target}.{rest}" if rest else target
        return ""

    # ------------------------------------------------------------- finish
    def _finish_function(self, fn: FunctionSummary) -> None:
        """Apply function-level protections to recorded write sites."""
        if not fn.writes:
            return
        uses_replace = any(
            c.raw in ("os.replace", "os.rename")
            or self.aliases.get(c.raw.partition(".")[0], "") == "os"
            and c.raw.endswith((".replace", ".rename"))
            for c in fn.calls)
        uses_mkstemp = any((c.target or c.raw).startswith("tempfile.")
                           for c in fn.calls)
        new = []
        for w in fn.writes:
            protections = list(w.protections)
            if fn.uses_flock and "flock" not in protections:
                protections.append("flock")
            if uses_replace and (uses_mkstemp or "tmp" in w.path_text
                                 or "fd" in w.path_text):
                if "tmp-replace" not in protections:
                    protections.append("tmp-replace")
            new.append(WriteSite(w.lineno, w.call, w.path_text,
                                 tuple(protections), w.locks))
        fn.writes = new


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Extract the fact base the summary-fed rules read from one module."""
    return _Summarizer(module).run()


# ----------------------------------------------------------------- context
@dataclass
class ProjectContext:
    """The whole program, as seen by the summary-fed rules."""

    root: str
    summaries: Dict[str, ModuleSummary]            # path -> summary
    module_by_name: Dict[str, str] = field(default_factory=dict)
    import_graph: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    call_graph: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: callee token -> ((caller token, call lineno, caller-held locks), ...)
    callers: Dict[str, Tuple[Tuple[str, int, Tuple[str, ...]], ...]] = \
        field(default_factory=dict)
    lock_tokens: frozenset = frozenset()
    inherited_locks: Dict[str, frozenset] = field(default_factory=dict)
    init_only: frozenset = frozenset()
    worker_reachable: frozenset = frozenset()
    cache: Optional["LintCache"] = None

    # ------------------------------------------------------------ queries
    def function(self, token: str) -> Optional[FunctionSummary]:
        mod, qualname = self.split_token(token)
        if mod is None:
            return None
        return self.summaries[self.module_by_name[mod]].functions.get(qualname)

    def split_token(self, token: str) -> Tuple[Optional[str], str]:
        """``repro.eda.flow.F.g`` -> (``repro.eda.flow``, ``F.g``)."""
        parts = token.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.module_by_name:
                return mod, ".".join(parts[i:])
        return None, token

    def path_of(self, token: str) -> Optional[str]:
        mod, _ = self.split_token(token)
        return self.module_by_name.get(mod) if mod else None

    def effective_locks(self, token: str,
                        site_locks: Tuple[str, ...]) -> frozenset:
        """Locks provably held at a site: lexical + caller-inherited."""
        held = {t for t in site_locks if t in self.lock_tokens}
        held.update(self.inherited_locks.get(token, frozenset()))
        return frozenset(held)

    def in_init_context(self, token: str) -> bool:
        """True when the function only runs before its object/module is
        shared (``__init__`` itself, or helpers only ``__init__`` calls)."""
        _, qualname = self.split_token(token)
        return qualname.endswith("__init__") or token in self.init_only

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "files": len(self.summaries),
            "functions": sum(len(s.functions)
                             for s in self.summaries.values()),
            "import_edges": sum(len(v) for v in self.import_graph.values()),
            "call_edges": sum(len(v) for v in self.call_graph.values()),
            "lock_tokens": len(self.lock_tokens),
            "worker_reachable": len(self.worker_reachable),
        }
        if self.cache is not None and self.cache.enabled:
            out["cache"] = {"hits": self.cache.hits,
                            "misses": self.cache.misses}
        return out


def build_context(root: str, summaries: Dict[str, ModuleSummary],
                  cache: Optional["LintCache"] = None) -> ProjectContext:
    """Assemble graphs and fixpoints from per-file summaries."""
    summaries = dict(sorted(summaries.items()))
    ctx = ProjectContext(root=root, summaries=summaries, cache=cache)
    ctx.module_by_name = {s.module_name: path
                          for path, s in summaries.items()}

    # import graph restricted to in-project modules
    names = set(ctx.module_by_name)
    for path, s in summaries.items():
        edges = sorted({m for m in s.imports if m in names
                        and m != s.module_name})
        ctx.import_graph[s.module_name] = tuple(edges)

    # lock universe
    locks: Set[str] = set()
    for s in summaries.values():
        locks.update(f"{s.module_name}.{n}" for n in s.lock_globals)
        for cls, attrs in s.lock_attrs.items():
            locks.update(f"{s.module_name}.{cls}.{a}" for a in attrs)
    ctx.lock_tokens = frozenset(locks)

    # call graph
    tokens: Dict[str, FunctionSummary] = {}
    for s in summaries.values():
        for qualname, fn in s.functions.items():
            tokens[f"{s.module_name}.{qualname}"] = fn

    def resolve_call(s: ModuleSummary, fn: FunctionSummary,
                     raw: str) -> Optional[str]:
        if raw.startswith("self.") and fn.cls:
            cand = f"{s.module_name}.{fn.cls}.{raw[5:]}"
            return cand if cand in tokens else None
        root_name, _, rest = raw.partition(".")
        if not rest:
            cand = f"{s.module_name}.{raw}"
            if cand in tokens:
                return cand
            if raw in s.classes:
                init = f"{s.module_name}.{raw}.__init__"
                return init if init in tokens else None
        target = s.aliases.get(root_name)
        dotted = (f"{target}.{rest}" if rest else target) if target else None
        if dotted is None and rest:
            cand = f"{s.module_name}.{raw}"
            return cand if cand in tokens else None
        if dotted is None:
            return None
        if dotted in tokens:
            return dotted
        init = f"{dotted}.__init__"
        return init if init in tokens else None

    callers: Dict[str, List[Tuple[str, CallSite]]] = {}
    for path, s in summaries.items():
        for qualname, fn in s.functions.items():
            token = f"{s.module_name}.{qualname}"
            callees: Set[str] = set()
            for site in fn.calls:
                resolved = resolve_call(s, fn, site.raw)
                if resolved is not None and resolved != token:
                    callees.add(resolved)
                    callers.setdefault(resolved, []).append((token, site))
            ctx.call_graph[token] = tuple(sorted(callees))
    ctx.callers = {
        callee: tuple(sorted(
            (caller, site.lineno, site.locks) for caller, site in sites
        ))
        for callee, sites in sorted(callers.items())
    }

    # ---------------------------------------------------------- fixpoints
    def is_private(token: str) -> bool:
        leaf = token.rsplit(".", 1)[-1]
        return leaf.startswith("_") and not leaf.startswith("__")

    # inherited locks: private helpers whose EVERY in-project call site
    # holds a lock inherit the intersection of those lock sets
    inherited: Dict[str, frozenset] = {
        t: (frozenset(locks) if is_private(t) and callers.get(t)
            else frozenset())
        for t in tokens
    }
    for _ in range(len(tokens)):
        changed = False
        for t in sorted(tokens):
            if not (is_private(t) and callers.get(t)):
                continue
            acc: Optional[frozenset] = None
            for caller, site in callers[t]:
                held = {x for x in site.locks if x in ctx.lock_tokens}
                held |= inherited.get(caller, frozenset())
                acc = frozenset(held) if acc is None else (acc & held)
            acc = acc or frozenset()
            if acc != inherited[t]:
                inherited[t] = acc
                changed = True
        if not changed:
            break
    ctx.inherited_locks = {t: v for t, v in inherited.items() if v}

    # init-only: private helpers reachable solely from __init__ contexts
    init_only: Dict[str, bool] = {
        t: bool(is_private(t) and callers.get(t)) for t in tokens
    }
    for _ in range(len(tokens)):
        changed = False
        for t in sorted(tokens):
            if not (is_private(t) and callers.get(t)):
                continue
            ok = all(
                caller.rsplit(".", 1)[-1] == "__init__"
                or init_only.get(caller, False)
                for caller, _site in callers[t]
            )
            if ok != init_only[t]:
                init_only[t] = ok
                changed = True
        if not changed:
            break
    ctx.init_only = frozenset(t for t, v in init_only.items() if v)

    # worker reachability: functions shipped across the process boundary
    seeds: Set[str] = set()
    for s in summaries.values():
        for fn in s.functions.values():
            for payload in fn.boundary:
                if payload.kind == "callable" and payload.target in tokens:
                    seeds.add(payload.target)
    reachable = set(seeds)
    frontier = sorted(seeds)
    while frontier:
        nxt: Set[str] = set()
        for token in frontier:
            for callee in ctx.call_graph.get(token, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    nxt.add(callee)
        frontier = sorted(nxt)
    ctx.worker_reachable = frozenset(reachable)
    return ctx


# ------------------------------------------------------------------- cache
@dataclass
class FileAnalysis:
    """Everything one file contributes to a lint run; one cache entry.

    ``summary`` is None when the file does not parse, and ``findings``
    then holds the single parse-error finding (never suppressible).
    Otherwise ``findings`` are the raw (pre-suppression) module-rule
    findings, sorted.
    """

    summary: Optional[ModuleSummary]
    findings: List[Finding]
    suppressions: List[Suppression] = field(default_factory=list)

    @classmethod
    def parse_error(cls, path: str, line: int,
                    message: str) -> "FileAnalysis":
        return cls(summary=None, findings=[Finding(
            rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR,
            path=path, line=line, message=message)])

    def to_dict(self) -> dict:
        if self.summary is None:
            error = self.findings[0]
            return {"error": {"line": error.line, "message": error.message}}
        return {
            "summary": self.summary.to_dict(),
            "findings": [f.to_dict() for f in self.findings],
            "suppressions": [[s.line, list(s.rule_ids), s.justification,
                              s.end_line] for s in self.suppressions],
        }

    @classmethod
    def from_dict(cls, data: dict, path: str) -> "FileAnalysis":
        error = data.get("error")
        if error is not None:
            return cls.parse_error(path, int(error["line"]),
                                   error["message"])
        return cls(
            summary=ModuleSummary.from_dict(data["summary"]),
            findings=[Finding.from_dict(f) for f in data["findings"]],
            suppressions=[Suppression(line=line, rule_ids=tuple(rules),
                                      justification=just, end_line=end)
                          for line, rules, just, end
                          in data["suppressions"]],
        )


class LintCache:
    """Content-hash-keyed per-file cache for ``repro lint``.

    One JSON file holds, per analyzed path: the file's SHA-256 and its
    :class:`FileAnalysis` (raw R003/R007 findings, parsed
    suppressions, :class:`ModuleSummary`).  A warm run re-analyzes only
    files whose hash changed; every summary-fed rule is recomputed from
    summaries, so warm findings are identical to a cold run by
    construction.  The whole file is discarded when the pack signature
    (enabled rules + :data:`ANALYSIS_CACHE_VERSION`) changes; a file or
    entry that does not decode reads as a miss and is overwritten on
    :meth:`save`.  A ``path`` of None disables the cache.
    """

    def __init__(self, path: Optional[str], signature: str):
        self.path = path
        self.signature = signature
        self.enabled = path is not None
        self.hits = 0
        self.misses = 0
        self._files: Dict[str, dict] = {}
        self._dirty = False
        if self.enabled:
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or \
                data.get("version") != ANALYSIS_CACHE_VERSION or \
                data.get("signature") != self.signature:
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = files

    # -------------------------------------------------------------- files
    def lookup(self, rel_path: str, sha: str) -> Optional[FileAnalysis]:
        entry = self._files.get(rel_path)
        if isinstance(entry, dict) and entry.get("sha") == sha:
            try:
                analysis = FileAnalysis.from_dict(entry, rel_path)
            except (AttributeError, KeyError, TypeError, ValueError):
                pass  # corrupt entry: a miss, re-analyzed and overwritten
            else:
                self.hits += 1
                return analysis
        self.misses += 1
        return None

    def store(self, rel_path: str, sha: str, analysis: FileAnalysis) -> None:
        if not self.enabled:
            return
        entry = analysis.to_dict()
        entry["sha"] = sha
        self._files[rel_path] = entry
        self._dirty = True

    def prune(self, keep: Iterable[str]) -> None:
        """Drop entries for files no longer in the linted set."""
        keep_set = set(keep)
        stale = [p for p in self._files if p not in keep_set]
        for p in stale:
            del self._files[p]
            self._dirty = True

    # --------------------------------------------------------------- save
    def save(self) -> None:
        if not (self.enabled and self._dirty):
            return
        payload = {
            "version": ANALYSIS_CACHE_VERSION,
            "signature": self.signature,
            "files": {k: self._files[k] for k in sorted(self._files)},
        }
        directory = os.path.dirname(self.path) or "."
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass  # a cold next run is the only cost


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pack_signature(rule_ids: Sequence[str]) -> str:
    payload = f"{ANALYSIS_CACHE_VERSION}:{','.join(sorted(rule_ids))}"
    return hashlib.sha256(payload.encode()).hexdigest()
