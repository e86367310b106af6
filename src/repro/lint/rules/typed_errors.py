"""RL001: raise typed ``ReproError`` subclasses; no bare ``assert``.

The library's contract is "answer correctly or refuse *visibly* with a
typed error" (see :mod:`repro.errors`).  Two syntactic habits defeat
it:

* raising stdlib exceptions (``ValueError``, ``TypeError``, ...) from
  library code, which callers catching ``ReproError`` never see;
* ``assert`` used for runtime validation, which silently disappears
  under ``python -O``.

The allowed set is computed from the scanned tree itself: every class
transitively derived from ``ReproError`` (so new error types need no
linter change), plus ``NotImplementedError`` (abstract-method idiom).
``errors.py`` is exempt (it may wrap/translate anything), as are
``AttributeError`` inside ``__getattr__``/``__getattribute__`` and
``SystemExit`` inside a ``__main__.py``.  Deliberate stdlib raises
(argument validation asserted by tests, fault injection) carry inline
``# reprolint: disable=RL001 -- why`` suppressions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set

from repro.lint.astutil import (
    dotted_name,
    enclosing_function,
    set_parents,
)
from repro.lint.findings import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register

_GETATTR_METHODS = frozenset({"__getattr__", "__getattribute__"})


def _allowed_exceptions(project: Project) -> Set[str]:
    bases_of: Dict[str, Set[str]] = {}
    for source in project.parsed():
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = bases_of.setdefault(node.name, set())
            for base in node.bases:
                dotted = dotted_name(base)
                if dotted:
                    bases.add(dotted.rsplit(".", 1)[-1])
    allowed = {"ReproError", "NotImplementedError"}
    changed = True
    while changed:
        changed = False
        for name, bases in bases_of.items():
            if name not in allowed and bases & allowed:
                allowed.add(name)
                changed = True
    return allowed


@register
class TypedErrorsRule(Rule):
    id = "RL001"
    name = "typed-errors"
    summary = (
        "raise only ReproError subclasses outside errors.py; no bare"
        " assert statements"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        allowed = _allowed_exceptions(project)
        for source in project.parsed():
            if source.name == "errors.py":
                continue
            tree = source.tree
            if tree is None:
                continue
            set_parents(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assert):
                    yield self.finding(
                        source.rel_path,
                        node.lineno,
                        "bare 'assert' used for runtime validation"
                        " (vanishes under -O); raise a typed"
                        " ReproError instead",
                    )
                elif isinstance(node, ast.Raise):
                    yield from self._check_raise(source, node, allowed)

    def _check_raise(
        self, source: SourceFile, node: ast.Raise, allowed: Set[str]
    ) -> Iterable[Finding]:
        if node.exc is None:
            return  # bare re-raise inside an except block
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        dotted = dotted_name(target)
        name = dotted.rsplit(".", 1)[-1] if dotted else None
        if name is not None and name in allowed:
            return
        if name == "AttributeError":
            func = enclosing_function(node)
            if func is not None and func.name in _GETATTR_METHODS:
                return
        if name == "SystemExit" and source.name == "__main__.py":
            return
        shown = name if name is not None else "<dynamic expression>"
        yield self.finding(
            source.rel_path,
            node.lineno,
            f"raise of non-ReproError exception {shown!r}"
            " (typed errors only; see repro.errors)",
        )
