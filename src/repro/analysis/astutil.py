"""Small AST helpers shared by the builtin rule pack."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully-qualified import path, for the whole module.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random as nr`` -> ``{"nr": "numpy.random"}``;
    ``from random import shuffle`` -> ``{"shuffle": "random.shuffle"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_target(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The fully-qualified name a call resolves to, via the import map.

    ``np.random.seed(0)`` with ``{"np": "numpy"}`` -> ``numpy.random.seed``.
    Calls rooted at non-imported names (``self.rng.random()``) resolve to
    None — the linter never guesses about injected objects.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    if root not in aliases:
        return None
    resolved = aliases[root]
    return f"{resolved}.{rest}" if rest else resolved


def scope_bindings(
    scope: ast.AST,
) -> Tuple[Dict[str, List[Optional[ast.AST]]], Set[str]]:
    """What one function (or module) scope binds: ``(bound, global_decls)``.

    ``bound`` maps each name the scope binds to what is bound to it: an
    assignment's value (None for a bare annotation), a nested ``def``
    itself, or None for a parameter or a ``for``/``with`` target.  Names
    declared ``global`` or ``nonlocal`` are not bound here;
    ``global_decls`` holds the ``global`` ones.  The walk descends into
    nested functions and classes, so a name they bind counts as bound
    in the enclosing scope too: the lexical model the summarizer and
    R003 share.
    """
    bound: Dict[str, List[Optional[ast.AST]]] = {}
    hoisted: Set[str] = set()
    global_decls: Set[str] = set()
    args = getattr(scope, "args", None)
    if isinstance(args, ast.arguments):
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            bound.setdefault(arg.arg, []).append(None)
    for node in ast.walk(scope):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
            hoisted.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            hoisted.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            bound.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                isinstance(node.target, ast.Name):
            bound.setdefault(node.target.id, []).append(None)
        elif isinstance(node, ast.withitem) and \
                isinstance(node.optional_vars, ast.Name):
            bound.setdefault(node.optional_vars.id, []).append(None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not scope:
            bound.setdefault(node.name, []).append(node)
    return ({name: values for name, values in bound.items()
             if name not in hoisted}, global_decls)


def walk_with_parents(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Yield ``(node, ancestors)`` pairs, outermost ancestor first."""
    stack: list = [(tree, ())]
    while stack:
        node, parents = stack.pop()
        yield node, parents
        child_parents = parents + (node,)
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_parents))


