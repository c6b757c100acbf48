"""The dataflow core of the interprocedural passes (GSN5xx/6xx/8xx/9xx).

Each pass is a lattice, a transfer function and a seed set over one
:class:`~repro.analysis.callgraph.ProgramIndex` (the table is in
``docs/analysis-reference.md``); the rest is written once, here:
:class:`Pass` (suppression, one finding per rule and line, the
per-function :class:`Resolver` shared through the index), the call
graph, :func:`reachability` from seeds, the held-lock-context worklist
(:func:`propagate_contexts`, with the pass's own join) and the summary
fixed point (:func:`solve_summaries`). Whoever builds the index reports
its parse failures (GSN100), once.
"""

from __future__ import annotations

import ast
import os
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional,
    Sequence, Set, Tuple, Type, TypeVar,
)

from repro.analysis.callgraph import (
    Call, FunctionInfo, ProgramIndex, Resolution, annotation_class,
)
from repro.analysis.rules import Report

#: Bounds on the held-lock lattice: distinct contexts tracked per
#: function, and locks per context. Both are far above anything a sane
#: codebase produces; they exist so pathological inputs terminate.
MAX_CONTEXTS_PER_FUNCTION = 24
MAX_LOCKS_PER_CONTEXT = 8

Context = FrozenSet[str]
P = TypeVar("P", bound="Pass")
#: ``join(known, new)`` folds ``new`` into a function's context set and
#: says whether the function must be visited again.
Join = Callable[[Set[Context], Context], bool]


def expand_paths(paths: Sequence[str]) -> List[str]:
    """``.py`` files named directly plus all found under directories."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(path)
    return out


def index_for(paths: Sequence[str], report: Report,
              index: Optional[ProgramIndex]) -> ProgramIndex:
    """``index`` as given (its builder reported its parse failures), or
    a new one over ``paths`` whose parse failures go to ``report``."""
    if index is None:
        index = ProgramIndex.build(expand_paths(paths))
        index.report_parse_errors(report)
    return index


SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
               ast.ClassDef)


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs/lambdas —
    those are separate analysis roots with their own summaries."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, SCOPE_NODES):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


# --------------------------------------------------------------------------
# call resolution (flow-insensitive mirror of the index's scanner)
# --------------------------------------------------------------------------

class Resolver(Resolution):
    """Resolves calls in one function to indexed callee qualnames,
    flow-insensitively: every local binding counts everywhere."""

    def __init__(self, index: ProgramIndex, info: FunctionInfo) -> None:
        super().__init__(index, info)
        self._cache: Dict[int, Tuple[str, ...]] = {}
        # Two rounds so one level of local aliasing resolves
        # regardless of statement order (the index does the same for
        # attributes).
        for _ in range(2):
            for node in walk_scope(info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    inferred = self.type_of(node.value)
                    if inferred is not None:
                        self.locals[node.targets[0].id] = inferred
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    declared = annotation_class(node.annotation)
                    if declared:
                        self.locals[node.target.id] = declared

    def nested_function(self, name: str) -> Optional[str]:
        qualname = f"{self.info.qualname}.{name}"
        return qualname if qualname in self.index.functions else None

    def targets_of(self, call: ast.Call) -> Tuple[str, ...]:
        cached = self._cache.get(id(call))
        if cached is None:
            cached = self._cache[id(call)] = tuple(self.resolve(call))
        return cached

    def entry_targets(self, expr: ast.AST) -> Tuple[str, ...]:
        """Resolve a ``Thread(target=<expr>)`` expression to qualnames."""
        if isinstance(expr, ast.Name):
            nested = self.nested_function(expr.id)
            if nested is not None:
                return (nested,)
            qualname = self.index.module_functions.get(
                (self.info.module, expr.id)
            )
            if qualname and qualname in self.index.functions:
                return (qualname,)
            return ()
        if isinstance(expr, ast.Attribute):
            owner = self.type_of(expr.value)
            if owner is not None:
                return tuple(t for t in
                             self.index.resolve_method(owner, expr.attr)
                             if t in self.index.functions)
        return ()


# --------------------------------------------------------------------------
# the pass base
# --------------------------------------------------------------------------

class Pass:
    """What every interprocedural pass shares over one index."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.suppressed_count = 0
        self._emitted: Set[Tuple[str, str, int]] = set()

    @classmethod
    def analyze(cls: Type[P], paths: Sequence[str],
                report: Optional[Report] = None,
                index: Optional[ProgramIndex] = None) -> Tuple[Report, P]:
        """Run the pass over ``paths`` (files or directories). Pass a
        pre-built ``index`` to share parsing with the other passes."""
        report = Report() if report is None else report
        analysis = cls(index_for(paths, report, index))
        analysis.run(report)
        return report, analysis

    def run(self, report: Optional[Report] = None) -> Report:
        raise NotImplementedError

    def suppressed(self, rule: str, path: str, line: int) -> bool:
        rules = self.index.suppressions.get(path, {}).get(line)
        return rules is not None and rule in rules

    def emit(self, report: Report, rule: str, message: str,
             function: str, path: str, line: int) -> None:
        """Report one finding per (rule, path, line), unless suppressed."""
        key = (rule, path, line)
        if key in self._emitted:
            return
        self._emitted.add(key)
        if self.suppressed(rule, path, line):
            self.suppressed_count += 1
            return
        report.add(rule, message, location=f"{function}:{line}",
                   source=path)

    def resolver(self, qualname: str) -> Resolver:
        resolver = self.index.resolvers.get(qualname)
        if resolver is None:
            resolver = Resolver(self.index, self.index.functions[qualname])
            self.index.resolvers[qualname] = resolver
        return resolver


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def call_edges(index: ProgramIndex) -> Dict[str, Set[str]]:
    """Caller -> callees over the index's resolved ``Call`` events."""
    return {
        qualname: {target for event in info.events
                   if isinstance(event, Call)
                   for target in event.targets
                   if target in index.functions}
        for qualname, info in index.functions.items()
    }


def reachability(edges: Dict[str, Set[str]],
                 roots: Iterable[Tuple[str, str]]) -> Dict[str, Set[str]]:
    """For ``(function, label)`` seeds: the labels of the seeds each
    function is reachable from (a seed reaches itself)."""
    reaching: Dict[str, Set[str]] = {}
    for root, label in roots:
        seen = reaching.setdefault(root, set())
        if label in seen:
            continue
        seen.add(label)
        stack = [root]
        while stack:
            current = stack.pop()
            for callee in edges.get(current, ()):
                reached = reaching.setdefault(callee, set())
                if label not in reached:
                    reached.add(label)
                    stack.append(callee)
    return reaching


def propagate_contexts(
        index: ProgramIndex, contexts: Dict[str, Set[Context]],
        worklist: List[str], join: Join,
        visit: Optional[Callable[[FunctionInfo, Context, object], None]]
        = None) -> None:
    """Push held-lock contexts through resolved calls to a fixed point.

    ``contexts`` maps a function to the lock sets it can be entered
    with; ``worklist`` holds the seeded functions. A call hands its
    callees the caller's context plus its ``# requires-lock:`` locks
    plus the locks held at the call site, through ``join``. ``visit``
    sees every other event once per (function, context), with the held
    set at function entry.
    """
    processed: Set[Tuple[str, Context]] = set()
    while worklist:
        qualname = worklist.pop()
        info = index.functions[qualname]
        requires = frozenset(info.requires)
        for ctx in list(contexts.get(qualname, ())):
            if (qualname, ctx) in processed:
                continue
            processed.add((qualname, ctx))
            base = ctx | requires
            for event in info.events:
                if not isinstance(event, Call):
                    if visit is not None:
                        visit(info, base, event)
                    continue
                callee_ctx = base.union(event.held)
                if len(callee_ctx) > MAX_LOCKS_PER_CONTEXT:
                    continue
                for target in event.targets:
                    if target not in index.functions:
                        continue
                    known = contexts.setdefault(target, set())
                    if callee_ctx not in known and join(known, callee_ctx):
                        worklist.append(target)


def solve_summaries(summaries: Dict[str, FrozenSet[str]],
                    transfer: Callable[[str], FrozenSet[str]],
                    callers: Dict[str, Set[str]]) -> None:
    """Iterate per-function summaries to their fixed point: recompute a
    function with ``transfer`` and requeue its callers whenever its
    summary changed (finite lattice, monotone transfer: terminates)."""
    worklist = sorted(summaries)
    queued = set(worklist)
    while worklist:
        qualname = worklist.pop()
        queued.discard(qualname)
        new = transfer(qualname)
        if new != summaries[qualname]:
            summaries[qualname] = new
            for caller in sorted(callers.get(qualname, ())):
                if caller not in queued:
                    queued.add(caller)
                    worklist.append(caller)
