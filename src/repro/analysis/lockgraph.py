"""Interprocedural lock analysis — the GSN5xx rules.

Runs over the event summaries produced by
:mod:`repro.analysis.callgraph`:

1. every function is seeded as an entry point with an empty held-lock
   context (anything public can be called lock-free), plus whatever its
   ``# requires-lock:`` annotation promises;
2. held-lock contexts are propagated through resolved calls to a fixed
   point by :func:`repro.analysis.dataflow.propagate_contexts` (bounded
   per function, so recursion and combinatorial caller sets terminate);
3. each lock acquisition under a non-empty held set contributes edges to
   the global lock-acquisition-order graph; cycles — including cycles
   against the declared ``# lock-order: A < B`` edges and the sanctioned
   :data:`repro.concurrency.LOCK_ORDER` — are **GSN501**;
4. opaque calls classified as blocking under a held lock are **GSN502**;
   callback/listener dispatch under a held lock is **GSN503**;
5. re-acquiring a non-reentrant lock already in the held set is
   **GSN504**.

Findings are suppressed by a trailing ``# gsn-lint: disable=GSN50x`` on
the offending line; a suppressed acquisition also withdraws its edges
from the cycle search (the annotation asserts the order is intentional).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    Acquire, DeclaredEdge, FunctionInfo, Opaque, ProgramIndex, BLOCKING,
    DISPATCH,
)
from repro.analysis.dataflow import (
    MAX_CONTEXTS_PER_FUNCTION, Context, Pass, index_for, propagate_contexts,
)
from repro.analysis.rules import Report


def _bounded(known: Set[Context], new: Context) -> bool:
    """The lock pass's join: keep at most ``MAX_CONTEXTS_PER_FUNCTION``
    contexts per function, dropping later ones."""
    if len(known) >= MAX_CONTEXTS_PER_FUNCTION:
        return False
    known.add(new)
    return True


@dataclass(frozen=True)
class EdgeSite:
    """One place where lock ``after`` was acquired holding ``before``."""

    function: str
    path: str
    line: int


class LockGraph:
    """The acquisition-order graph accumulated during propagation."""

    def __init__(self) -> None:
        self.edges: Dict[Tuple[str, str], List[EdgeSite]] = {}
        self.declared: List[DeclaredEdge] = []

    def add(self, before: str, after: str, site: EdgeSite) -> None:
        sites = self.edges.setdefault((before, after), [])
        if all(s.line != site.line or s.path != site.path for s in sites):
            sites.append(site)

    def nodes(self) -> List[str]:
        names: Set[str] = set()
        for before, after in self.edges:
            names.add(before)
            names.add(after)
        for edge in self.declared:
            names.add(edge.before)
            names.add(edge.after)
        return sorted(names)

    def successors(self) -> Dict[str, Set[str]]:
        graph: Dict[str, Set[str]] = {name: set() for name in self.nodes()}
        for before, after in self.edges:
            graph[before].add(after)
        for edge in self.declared:
            graph[edge.before].add(edge.after)
        return graph

    def cycles(self) -> List[List[str]]:
        """Elementary cycles, one representative per strongly connected
        component that contains a cycle."""
        graph = self.successors()
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        number: Dict[str, int] = {}
        on_stack: Set[str] = set()
        components: List[List[str]] = []

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(graph[root])))]
            number[root] = lowlink[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in number:
                        number[succ] = lowlink[succ] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(graph[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], number[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == number[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

        for name in self.nodes():
            if name not in number:
                strongconnect(name)

        cycles: List[List[str]] = []
        for component in components:
            members = set(component)
            if len(component) > 1:
                cycles.append(self._cycle_path(graph, sorted(members)[0],
                                               members))
            elif component[0] in graph[component[0]]:
                cycles.append([component[0], component[0]])
        return cycles

    @staticmethod
    def _cycle_path(graph: Dict[str, Set[str]], start: str,
                    members: Set[str]) -> List[str]:
        """A concrete cycle through ``start`` inside one SCC (BFS)."""
        parents: Dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            node = queue.pop(0)
            for succ in sorted(graph[node]):
                if succ == start:
                    path = [start]
                    walker = node
                    tail = []
                    while walker != start:
                        tail.append(walker)
                        walker = parents[walker]
                    return [start] + list(reversed(tail)) + [start] \
                        if tail else [start, start]
                if succ in members and succ not in seen:
                    seen.add(succ)
                    parents[succ] = node
                    queue.append(succ)
        return [start, start]  # unreachable for a genuine SCC

    def sites(self, before: str, after: str) -> List[EdgeSite]:
        return self.edges.get((before, after), [])

    def to_dot(self) -> str:
        """GraphViz rendering: observed edges solid, declared dashed."""
        lines = ["digraph lock_order {", '  rankdir="LR";']
        for name in self.nodes():
            lines.append(f'  "{name}";')
        for (before, after), sites in sorted(self.edges.items()):
            label = f"{len(sites)} site(s)"
            lines.append(
                f'  "{before}" -> "{after}" [label="{label}"];'
            )
        seen_declared = {(e.before, e.after) for e in self.declared}
        for before, after in sorted(seen_declared):
            if (before, after) not in self.edges:
                lines.append(
                    f'  "{before}" -> "{after}" [style=dashed, '
                    f'label="declared"];'
                )
        lines.append("}")
        return "\n".join(lines)


class DeadlockAnalysis(Pass):
    """One run of the GSN5xx pass over an index.

    Lattice: the held-lock contexts each function can be entered with,
    bounded per function (contexts past the bound are dropped). Seeds:
    every function, entered with no lock held. Transfer: lock
    acquisitions and opaque calls are judged under each context.
    """

    def __init__(self, index: ProgramIndex,
                 sanctioned: Sequence[Tuple[str, str]] = ()) -> None:
        super().__init__(index)
        self.graph = LockGraph()
        self.graph.declared = list(index.declared_order)
        for before, after in sanctioned:
            self.graph.declared.append(
                DeclaredEdge(before, after, "<concurrency.LOCK_ORDER>", 0)
            )
        self.contexts: Dict[str, Set[Context]] = {}

    def run(self, report: Optional[Report] = None) -> Report:
        if report is None:
            report = Report()

        def visit(info: FunctionInfo, base: Context, event: object) -> None:
            if isinstance(event, Acquire):
                self._acquire(report, info, base, event)
            elif isinstance(event, Opaque):
                self._opaque(report, info, base, event)

        self.contexts = {qualname: {frozenset()}
                         for qualname in self.index.functions}
        propagate_contexts(self.index, self.contexts,
                           sorted(self.index.functions), _bounded, visit)
        self._cycles(report)
        return report

    # -- per-event rules ---------------------------------------------------

    def _acquire(self, report: Report, info: FunctionInfo, base: Context,
                 event: Acquire) -> None:
        held = base | set(event.held)
        if event.lock in held and not event.reentrant:
            self.emit(
                report, "GSN504",
                f"re-acquisition of non-reentrant lock {event.lock} "
                f"(already held on this path)",
                info.qualname, info.path, event.line,
            )
            return
        if self.suppressed("GSN501", info.path, event.line):
            # The annotation vouches for this acquisition's ordering:
            # keep it out of the cycle search entirely.
            self.suppressed_count += 1
            return
        site = EdgeSite(info.qualname, info.path, event.line)
        for held_lock in held:
            if held_lock != event.lock:
                self.graph.add(held_lock, event.lock, site)

    def _opaque(self, report: Report, info: FunctionInfo, base: Context,
                event: Opaque) -> None:
        held = base | set(event.held)
        if not held or event.kind is None:
            return
        locks = ", ".join(sorted(held))
        if event.kind == BLOCKING:
            self.emit(
                report, "GSN502",
                f"blocking operation {event.desc}() while holding "
                f"{locks} ({event.detail})",
                info.qualname, info.path, event.line,
            )
        elif event.kind == DISPATCH:
            self.emit(
                report, "GSN503",
                f"callback dispatch {event.desc}() while holding {locks} "
                f"— snapshot under the lock, dispatch outside it",
                info.qualname, info.path, event.line,
            )

    def _cycles(self, report: Report) -> None:
        for cycle in self.graph.cycles():
            arrows = " -> ".join(cycle)
            details: List[str] = []
            anchor: Optional[EdgeSite] = None
            for before, after in zip(cycle, cycle[1:]):
                sites = self.graph.sites(before, after)
                if sites:
                    site = sites[0]
                    if anchor is None:
                        anchor = site
                    details.append(
                        f"{before} -> {after} at "
                        f"{os.path.basename(site.path)}:{site.line}"
                    )
                else:
                    details.append(f"{before} -> {after} (declared order)")
            location = f"{anchor.function}:{anchor.line}" if anchor else ""
            source = anchor.path if anchor else "<declared>"
            report.add(
                "GSN501",
                f"lock-order cycle: {arrows} ({'; '.join(details)})",
                location=location, source=source,
            )


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def _sanctioned_order() -> Sequence[Tuple[str, str]]:
    from repro.concurrency import LOCK_ORDER
    return LOCK_ORDER


def analyze_deadlocks(paths: Sequence[str],
                      report: Optional[Report] = None,
                      include_sanctioned: bool = True,
                      index: Optional[ProgramIndex] = None,
                      ) -> Tuple[Report, LockGraph]:
    """Run the full GSN5xx pass over ``paths`` (files or directories).

    Returns the report plus the acquisition graph (for ``--graph``).
    ``include_sanctioned`` merges :data:`repro.concurrency.LOCK_ORDER`
    into the declared edges — the repo's own sources are checked against
    the sanctioned order, arbitrary inputs can opt out. Pass a pre-built
    ``index`` to share parsing with the other passes.
    """
    report = Report() if report is None else report
    sanctioned = _sanctioned_order() if include_sanctioned else ()
    analysis = DeadlockAnalysis(index_for(paths, report, index),
                                sanctioned=sanctioned)
    analysis.run(report)
    return report, analysis.graph
