"""AST-based concurrency lint (the GSN4xx rules).

Verifies a lightweight ``# guarded-by:`` convention over Python sources:

- A field annotated on its initializing assignment, e.g.::

      self.tasks_completed = 0  # guarded-by: _lock

  The canonical spelling is the lock's registry name
  (``guarded-by: WorkerPool._lock`` — see
  :func:`repro.concurrency.new_lock`); the attribute holding the lock
  is the segment after the last dot either way. An annotated field
  may only be *written* (assigned, augmented, deleted) or *mutated*
  (any method called on it, e.g. ``self._errors.append(x)``) inside a
  ``with self._lock:`` block. Plain reads are not flagged — passing a
  reference or reading a counter for display is benign; mutation is not.

- A method annotated on its ``def`` line::

      def _evict(self, reference):  # requires-lock: _lock

  is analyzed as if the lock were held, and every ``self._evict(...)``
  call site must itself hold the lock (GSN403).

``__init__`` is exempt: construction happens-before publication.

The checker is deliberately intra-procedural and syntactic — it exists
to catch the "forgot the with-block" class of bug cheaply at lint time,
not to prove the program race-free.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.rules import Report

GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)")
REQUIRES_LOCK = re.compile(r"#\s*requires-lock:\s*([A-Za-z_][\w.]*)")


def _lock_attr(declared: str) -> str:
    """The ``self.<attr>`` holding a declared lock — the tail of a
    registry-qualified name (``WorkerPool._lock`` -> ``_lock``)."""
    return declared.rpartition(".")[2]

#: Modules (relative to the ``repro`` package) the repo itself keeps
#: under locklint — ``gsn-lint --self-check``.
SELF_CHECK_MODULES = (
    "vsensor/pool.py",
    "vsensor/input_manager.py",
    "storage/sqlite.py",
    "streams/history.py",
    "sqlengine/incremental.py",
    "metrics/collectors.py",
    "metrics/registry.py",
    "metrics/tracing.py",
    "interfaces/http_server.py",
    "vsensor/virtual_sensor.py",
    "network/peer.py",
    "notifications/manager.py",
    "analysis/crashwitness.py",
    "vsensor/lifecycle.py",
    "interfaces/async_gateway.py",
)


@dataclass
class _ClassInfo:
    name: str
    guards: Dict[str, str] = field(default_factory=dict)      # field -> lock
    requires: Dict[str, str] = field(default_factory=dict)    # method -> lock
    assigned: Set[str] = field(default_factory=set)           # all self.* set


def lint_source(source: str, report: Optional[Report] = None,
                filename: str = "<string>") -> Report:
    """Run the concurrency lint over one module's source text."""
    if report is None:
        report = Report()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.add("GSN100", f"cannot parse python source: {exc}",
                   location=filename, source=filename)
        return report
    lines = source.splitlines()

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _lint_class(node, lines, report, filename)
    return report


def lint_file(path: str, report: Optional[Report] = None) -> Report:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), report, filename=path)


def lint_files(paths: Sequence[str],
               report: Optional[Report] = None) -> Report:
    if report is None:
        report = Report()
    for path in paths:
        lint_file(path, report)
    return report


# --------------------------------------------------------------------------
# collection
# --------------------------------------------------------------------------

def _line_comment_match(lines: List[str], lineno: int,
                        pattern: "re.Pattern[str]") -> Optional[str]:
    if 1 <= lineno <= len(lines):
        match = pattern.search(lines[lineno - 1])
        if match:
            return match.group(1)
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr name."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _collect(cls: ast.ClassDef, lines: List[str]) -> _ClassInfo:
    info = _ClassInfo(cls.name)
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        lock = _line_comment_match(lines, method.lineno, REQUIRES_LOCK)
        if lock:
            info.requires[method.name] = _lock_attr(lock)
        for node in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                info.assigned.add(attr)
                guard = _line_comment_match(lines, node.lineno, GUARDED_BY)
                if guard:
                    info.guards[attr] = _lock_attr(guard)
    return info


# --------------------------------------------------------------------------
# checking
# --------------------------------------------------------------------------

class _MethodChecker(ast.NodeVisitor):
    def __init__(self, info: _ClassInfo, method: str,
                 held: Set[str], report: Report, filename: str) -> None:
        self.info = info
        self.method = method
        self.held = set(held)
        self.report = report
        self.filename = filename

    def _where(self, node: ast.AST) -> str:
        return (f"{self.info.name}.{self.method}:"
                f"{getattr(node, 'lineno', '?')}")

    def _flag(self, rule: str, message: str, node: ast.AST) -> None:
        self.report.add(rule, message, location=self._where(node),
                        source=self.filename)

    # -- lock acquisition --------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            if not self._lock_name(item.context_expr):
                self.visit(item.context_expr)
        for item in node.items:
            lock = self._lock_name(item.context_expr)
            if lock is not None and lock not in self.held:
                self.held.add(lock)
                acquired.append(lock)
        for statement in node.body:
            self.visit(statement)
        for lock in acquired:
            self.held.discard(lock)

    def _lock_name(self, expr: ast.expr) -> Optional[str]:
        attr = _self_attr(expr)
        if attr is not None:
            return attr
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    # -- guarded accesses --------------------------------------------------

    def _check_write(self, target: ast.expr, node: ast.AST) -> None:
        attr = _self_attr(target)
        if attr is None and isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)  # self.guarded[i] = ...
        if attr is None or attr not in self.info.guards:
            return
        lock = self.info.guards[attr]
        if lock not in self.held:
            self._flag("GSN401",
                       f"write to guarded field self.{attr} without "
                       f"holding self.{lock}", node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_write(target, node)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write(node.target, node)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_write(node.target, node)
        if node.value is not None:
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_write(target, node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # self.<guarded>.<method>(...): mutation of the guarded value
            owner = _self_attr(func.value)
            if owner is not None and owner in self.info.guards:
                lock = self.info.guards[owner]
                if lock not in self.held:
                    self._flag(
                        "GSN401",
                        f"call self.{owner}.{func.attr}() on guarded "
                        f"field without holding self.{lock}", node)
            # self.<method>(...) where the method requires a lock
            callee = _self_attr(func)
            if callee is not None and callee in self.info.requires:
                lock = self.info.requires[callee]
                if lock not in self.held:
                    self._flag(
                        "GSN403",
                        f"self.{callee}() requires self.{lock} but the "
                        f"caller does not hold it", node)
        self.generic_visit(node)


def _lint_class(cls: ast.ClassDef, lines: List[str], report: Report,
                filename: str) -> None:
    info = _collect(cls, lines)
    if not info.guards and not info.requires:
        return

    declared_locks = set(info.guards.values()) | set(info.requires.values())
    for lock in sorted(declared_locks):
        if lock not in info.assigned:
            report.add("GSN402",
                       f"guard annotation names self.{lock}, which is "
                       f"never assigned in class {info.name}",
                       location=f"{info.name}:{cls.lineno}",
                       source=filename)

    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name == "__init__":
            continue  # construction happens-before publication
        held: Set[str] = set()
        required = info.requires.get(method.name)
        if required:
            held.add(required)
        checker = _MethodChecker(info, method.name, held, report, filename)
        for statement in method.body:
            checker.visit(statement)
