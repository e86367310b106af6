"""RL003: mutate lock-guarded state only under ``with self._lock``.

Any class that takes ``with self._lock`` anywhere is treated as
lock-guarded (today: ``ArtifactStore``, ``CircuitBreaker``,
``_SingleFlight``).  Inside such a class, mutations of underscore
instance state -- subscript assignment/deletion, augmented assignment,
and calls to container mutator methods (``append``, ``pop``,
``update``, ...) on ``self._x`` -- must happen inside a
``with self._lock`` block.  ``__init__``/``__post_init__`` are exempt
(no concurrent access before construction completes), and a method
documented with ``# reprolint: holds-lock`` is treated as lock-held --
in exchange, *calls* to such a method are themselves checked.

Known blind spot, accepted for simplicity: closures defined inside a
method are not analysed (they may run after the lock is released).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.lint.astutil import first_body_line, is_self_attr
from repro.lint.findings import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register
from repro.lint.suppress import holds_lock_marked

_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__"})
_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _with_takes_lock(node: ast.AST) -> bool:
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    return any(
        is_self_attr(item.context_expr, "_lock")
        for item in node.items
    )


def _guarded_attr(node: ast.AST) -> Optional[str]:
    """The ``self._x`` attribute a mutation node touches, if any."""
    target: Optional[ast.AST] = None
    if isinstance(node, ast.Assign):
        for tgt in node.targets:
            if isinstance(tgt, ast.Subscript):
                target = tgt.value
    elif isinstance(node, ast.AugAssign):
        target = (
            node.target.value
            if isinstance(node.target, ast.Subscript)
            else node.target
        )
    elif isinstance(node, ast.Delete):
        for tgt in node.targets:
            if isinstance(tgt, ast.Subscript):
                target = tgt.value
    elif isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        if node.func.attr in _MUTATORS:
            target = node.func.value
    if (
        target is not None
        and is_self_attr(target)
        and isinstance(target, ast.Attribute)
        and target.attr.startswith("_")
        and target.attr != "_lock"
    ):
        return target.attr
    return None


@register
class LockDisciplineRule(Rule):
    id = "RL003"
    name = "lock-discipline"
    summary = (
        "underscore state of lock-guarded classes is mutated only"
        " inside 'with self._lock'"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.parsed():
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(source, node)

    def _check_class(
        self, source: SourceFile, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        methods: List[ast.FunctionDef] = [
            stmt for stmt in cls.body if isinstance(stmt, _FUNC_DEFS)
        ]
        if not any(
            _with_takes_lock(sub)
            for m in methods
            for sub in ast.walk(m)
        ):
            return  # not a lock-guarded class
        held: Set[str] = {
            m.name
            for m in methods
            if holds_lock_marked(
                source.suppressions, m.lineno, first_body_line(m)
            )
        }
        for method in methods:
            locked_all = (
                method.name in _EXEMPT_METHODS or method.name in held
            )
            yield from self._check_stmts(
                source, cls.name, method.body, locked_all, held
            )

    def _check_stmts(
        self,
        source: SourceFile,
        cls_name: str,
        stmts: List[ast.stmt],
        locked: bool,
        held: Set[str],
    ) -> Iterable[Finding]:
        for stmt in stmts:
            if isinstance(stmt, _FUNC_DEFS):
                continue  # closures: accepted blind spot
            now_locked = locked or _with_takes_lock(stmt)
            if not now_locked:
                yield from self._check_one(
                    source, cls_name, stmt, held
                )
            for body_name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, body_name, None)
                if sub:
                    yield from self._check_stmts(
                        source, cls_name, sub, now_locked, held
                    )
            for handler in getattr(stmt, "handlers", ()):
                yield from self._check_stmts(
                    source, cls_name, handler.body, now_locked, held
                )
            for case in getattr(stmt, "cases", ()):
                yield from self._check_stmts(
                    source, cls_name, case.body, now_locked, held
                )

    def _check_one(
        self,
        source: SourceFile,
        cls_name: str,
        stmt: ast.stmt,
        held: Set[str],
    ) -> Iterable[Finding]:
        """Findings for one *unlocked* statement (header expressions
        included, nested blocks excluded -- those are re-visited with
        their own lock state by ``_check_stmts``)."""
        for node in self._own_nodes(stmt):
            attr = _guarded_attr(node)
            if attr is not None:
                yield self.finding(
                    source.rel_path,
                    node.lineno,
                    f"mutation of 'self.{attr}' outside"
                    f" 'with self._lock' in lock-guarded class"
                    f" {cls_name}",
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and is_self_attr(node.func)
                and node.func.attr in held
            ):
                yield self.finding(
                    source.rel_path,
                    node.lineno,
                    f"call to lock-held helper"
                    f" 'self.{node.func.attr}()' outside"
                    f" 'with self._lock' in class {cls_name}",
                )

    def _own_nodes(self, stmt: ast.stmt) -> Iterable[ast.AST]:
        """Walk ``stmt`` without descending into nested statements or
        function definitions."""
        queue: List[ast.AST] = [stmt]
        first = True
        while queue:
            node = queue.pop()
            if not first and isinstance(
                node, (ast.stmt, ast.Lambda)
            ):
                continue
            first = False
            yield node
            queue.extend(ast.iter_child_nodes(node))
