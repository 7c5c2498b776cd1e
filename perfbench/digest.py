"""Canonical result digests and the reference configuration.

Every answer the benchmark receives is reduced to a content digest and
compared with the answer of the *reference configuration*: columnar
kernel off, exchange off, plan cache bypassed (a fresh plan per call).
No accelerator can then speed up — or break — both sides of a check.

Digests are content-based, never identity-based: database objects
compare by identity inside the engine, so a digest renders their stored
attributes instead.  Sets digest as sorted multisets, lists and tuples
keep their order.  Tree nodes are shared between the many results of
one structure, so node digests are memoised by node identity for the
lifetime of one :class:`Digester`, which keeps every memoised object
alive so that no identity is reused.  A digester primed with the stored
data can serve as the ``base`` of short-lived per-answer digesters:
answers mostly reuse stored nodes, and what they build themselves is
forgotten with the answer, so checking holds no memory across answers.
"""

from __future__ import annotations

import hashlib
from typing import Any


def _hash(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8", "surrogatepass")).hexdigest()


class Digester:
    """Content digests of query results, memoised per node and object."""

    def __init__(self, base: "Digester | None" = None) -> None:
        from repro.core.aqua_list import AquaList
        from repro.core.aqua_set import AquaMultiset, AquaSet
        from repro.core.aqua_tree import AquaTree
        from repro.core.aqua_tuple import AquaTuple
        from repro.core.concat import ConcatPoint, Nil
        from repro.core.identity import DatabaseObject

        self._types = (
            AquaTree, AquaList, AquaSet, AquaMultiset, AquaTuple, ConcatPoint, Nil,
            DatabaseObject,
        )
        self._memo: dict[int, str] = {}
        self._alive: list[Any] = []
        self._base = base._memo if base is not None else {}

    def digest(self, value: Any) -> str:
        return _hash(self._render(value))

    def _render(self, value: Any) -> str:
        (AquaTree, AquaList, AquaSet, AquaMultiset, AquaTuple, ConcatPoint, Nil,
         DatabaseObject) = self._types
        if value is None or isinstance(value, (bool, int, float, str)):
            return repr(value)
        if isinstance(value, AquaTree):
            return "tree:" + ("-" if value.root is None else self._node(value.root))
        if isinstance(value, (AquaSet, AquaMultiset, frozenset, set)):
            return "set{" + ",".join(sorted(self._render(v) for v in value)) + "}"
        if isinstance(value, (AquaList, list)):
            return "list[" + ",".join(self._render(v) for v in value) + "]"
        if isinstance(value, (AquaTuple, tuple)):
            return "tuple(" + ",".join(self._render(v) for v in value) + ")"
        if isinstance(value, ConcatPoint):
            return "@" + value.label
        if isinstance(value, Nil):
            return "nil"
        if isinstance(value, DatabaseObject):
            key = id(value)
            cached = self._memo.get(key) or self._base.get(key)
            if cached is None:
                attrs = value.stored_attributes()
                cached = _hash(type(value).__name__ + "{" + ",".join(
                    f"{name}={self._render(attrs[name])}" for name in sorted(attrs)
                ) + "}")
                self._memo[key] = cached
                self._alive.append(value)
            return cached
        raise TypeError(f"cannot digest a {type(value).__name__}")

    def _node(self, root: Any) -> str:
        """Bottom-up node digest with an explicit stack (no recursion on
        data depth: deep ladders stay digestible)."""
        memo = self._memo
        base = self._base
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in memo:
                continue
            if id(node) in base:
                memo[id(node)] = base[id(node)]
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
                continue
            head = self._render(node.value)
            kids = ",".join(memo[id(child)] for child in node.children)
            memo[id(node)] = _hash(f"{head}({kids})")
            self._alive.append(node)
        return memo[id(root)]


def reference_query(view: Any, source: Any, params: Any = None, *, optimize: bool | None = None) -> Any:
    """Answer ``source`` on ``view`` in the reference configuration."""
    from repro import Session, config

    with config.columnar_scope("off"):
        return Session(view).query(
            source, params, optimize=optimize, parallel="off", cache=None
        )
