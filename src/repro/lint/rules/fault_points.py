"""RL005: fault-injection call sites and ``FAULT_POINTS`` stay in sync.

``repro.resilience.faults`` keeps the registry of injectable fault
points in a module-level ``FAULT_POINTS`` tuple, with a comment that
literally says *keep them in sync* with the call sites.  This rule
makes that comment enforceable, in both directions:

* a string literal consulted at a fault-injection call site (the
  ``fault_check``/``fault_corrupt`` helpers, or a ``check``/``corrupt``
  method on a plan object) must appear in ``FAULT_POINTS``;
* every registered point must be consulted somewhere.

The module defining ``FAULT_POINTS`` is excluded from the call-site
scan (its own helpers consult points generically).  Attribute-call
matching is restricted to receivers whose name mentions ``plan`` or
``fault`` so unrelated ``.check()`` methods are not mistaken for
fault-point consultations.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.findings import Finding
from repro.lint.project import Project, SourceFile
from repro.lint.registry import Rule, register

_NAME_CALLS = frozenset({"fault_check", "fault_corrupt"})
_ATTR_CALLS = frozenset({"check", "corrupt"})


def _registry(
    project: Project,
) -> Optional[Tuple[SourceFile, int, Tuple[str, ...]]]:
    for source in project.parsed():
        if source.tree is None:
            continue
        for node in source.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value:
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "FAULT_POINTS"
                ):
                    value = (
                        node.value
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        else None
                    )
                    points: List[str] = []
                    if isinstance(value, (ast.Tuple, ast.List)):
                        for elt in value.elts:
                            if isinstance(
                                elt, ast.Constant
                            ) and isinstance(elt.value, str):
                                points.append(elt.value)
                    return source, node.lineno, tuple(points)
    return None


def _first_str_arg(node: ast.Call) -> Optional[str]:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


def _is_consultation(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _NAME_CALLS
    if isinstance(func, ast.Attribute) and func.attr in _ATTR_CALLS:
        dotted = dotted_name(func.value)
        receiver = (
            dotted.rsplit(".", 1)[-1].lower() if dotted else ""
        )
        return "plan" in receiver or "fault" in receiver
    return False


@register
class FaultPointRegistryRule(Rule):
    id = "RL005"
    name = "fault-point-registry"
    summary = (
        "fault-injection call-site literals and FAULT_POINTS agree"
        " in both directions"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        registry = _registry(project)
        if registry is None:
            return
        reg_source, reg_line, points = registry
        used: Dict[str, Tuple[str, int]] = {}
        for source in project.parsed():
            if source is reg_source or source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _is_consultation(node)
                ):
                    continue
                literal = _first_str_arg(node)
                if literal is None:
                    continue
                if literal not in points:
                    yield self.finding(
                        source.rel_path,
                        node.lineno,
                        f"fault point {literal!r} consulted here but"
                        " missing from FAULT_POINTS"
                        f" ({reg_source.rel_path})",
                    )
                used.setdefault(literal, (source.rel_path, node.lineno))
        for point in points:
            if point not in used:
                yield self.finding(
                    reg_source.rel_path,
                    reg_line,
                    f"fault point {point!r} registered in"
                    " FAULT_POINTS but never consulted at any call"
                    " site",
                )
