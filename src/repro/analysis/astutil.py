"""Small AST helpers shared by the builtin rule pack."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple


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


