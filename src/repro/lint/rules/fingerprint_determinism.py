"""RL004: no nondeterminism reachable from fingerprint code.

PR 4 shipped a real bug where a pickled object's ``__hash__`` leaked
process-random state into a cache fingerprint, silently splitting the
cache across processes.  This rule bans the reachable sources of
per-process nondeterminism from fingerprint code paths:

* builtin ``id()`` and ``hash()``;
* ``time.*``, ``random.*``, ``uuid.*`` calls (and the same functions
  pulled in via ``from time import ...``);
* ``os.urandom``, ``datetime.now``/``utcnow``/``today``.

Roots are every function defined in a module named ``fingerprint.py``
plus every function named ``fingerprint`` anywhere; reachability is a
same-module closure over called names (helper functions a root calls
are checked too).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.findings import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_BANNED_BUILTINS = frozenset({"id", "hash"})
_BANNED_MODULES = frozenset({"time", "random", "uuid"})
_BANNED_DOTTED = frozenset(
    {
        "os.urandom",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
    }
)


def _banned_call(node: ast.Call, tainted_imports: Set[str]) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in _BANNED_BUILTINS or func.id in tainted_imports:
            return func.id
        return None
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head = dotted.split(".", 1)[0]
    if head in _BANNED_MODULES or dotted in _BANNED_DOTTED:
        return dotted
    return None


def _tainted_imports(tree: ast.Module) -> Set[str]:
    """Names bound by ``from time import time``-style imports."""
    tainted: Set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.module
            and node.module.split(".", 1)[0] in _BANNED_MODULES
        ):
            tainted.update(
                alias.asname or alias.name for alias in node.names
            )
    return tainted


def _called_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted:
            names.add(dotted.rsplit(".", 1)[-1])
    return names


@register
class FingerprintDeterminismRule(Rule):
    id = "RL004"
    name = "fingerprint-determinism"
    summary = (
        "no id()/hash()/time/random/urandom reachable from"
        " fingerprint code paths"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.parsed():
            if source.tree is None:
                continue
            yield from self._check_module(source)

    def _check_module(self, source: SourceFile) -> Iterable[Finding]:
        tree = source.tree
        if tree is None:
            return
        funcs: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(tree):
            if isinstance(node, _FUNC_DEFS):
                funcs.setdefault(node.name, []).append(node)
        is_fp_module = source.name == "fingerprint.py"
        roots: Set[str] = set()
        if is_fp_module:
            roots.update(funcs)
        if "fingerprint" in funcs:
            roots.add("fingerprint")
        if not roots and not is_fp_module:
            return
        # Same-module reachability closure over called names.
        reachable: Set[str] = set()
        frontier = sorted(roots)
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for func in funcs.get(name, ()):
                for called in _called_names(func):
                    if called in funcs and called not in reachable:
                        frontier.append(called)
        tainted = _tainted_imports(tree)
        checked: List[Tuple[ast.AST, str]] = [
            (func, name)
            for name in sorted(reachable)
            for func in funcs.get(name, ())
        ]
        for func, name in checked:
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    banned = _banned_call(node, tainted)
                    if banned is not None:
                        yield self.finding(
                            source.rel_path,
                            node.lineno,
                            f"nondeterministic call {banned!r}"
                            f" reachable from fingerprint code"
                            f" (via {name!r}); fingerprints must be"
                            " stable across processes",
                        )
