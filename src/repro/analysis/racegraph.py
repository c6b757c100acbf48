"""Whole-program data-race detection — the GSN8xx rules.

The deadlock pass (GSN5xx) proves lock *ordering*; the flow pass
(GSN6xx) proves exception flow; this pass proves that shared state is
actually *guarded*.  It runs over the same
:class:`repro.analysis.callgraph.ProgramIndex` and closes the loop on
the ``# guarded-by:`` vocabulary that :mod:`repro.analysis.locklint`
introduced: declarations are verified against observed lock sets, and
undeclared shared attributes get their guard inferred.

1. **entry points** — the places concurrency starts — are discovered
   from the index: ``Thread(target=...)`` constructions and Thread
   subclass ``run()`` overrides, worker-pool ``submit(...)`` arguments,
   timer/scheduler callbacks (``Timer``, ``.after()``, ``.every()``),
   HTTP handler ``do_*`` methods, and callback registrations
   (``add_listener``/``register``/``subscribe``/... — the peer-link
   receive path).  Every public function is additionally reachable from
   the synthetic ``main`` entry (anything public can be called from the
   embedding application's thread);
2. held-lock contexts are propagated from the entry points through
   resolved calls to a fixed point (the deadlock pass's worklist,
   :func:`repro.analysis.dataflow.propagate_contexts`, but seeded
   *only* at entries so the per-access **must**-held set is the
   intersection over genuinely possible contexts);
3. per-attribute access summaries — read / write / read-modify-write /
   in-place collection mutation / iteration, each with its must-held
   lock set — are collected for every ``self.x`` (and typed shared-
   object) attribute.  An attribute is *shared* when its accesses are
   reachable from ≥ 2 distinct entry points, at least one of them
   concurrent, with at least one write outside ``__init__`` — and the
   write side itself concurrent (a scalar written only from the main
   thread and read from a timer is the benign-under-the-GIL case the
   read policy below already accepts; collections are exempt from that
   carve-out because mutation races concurrent *iteration*);
4. each shared attribute's **dominant guard** is inferred (the lock held
   at ≥ :data:`DOMINANT_THRESHOLD` of its guarded writes); an explicit
   ``# guarded-by:`` declaration takes precedence when it verifies.
   Violations:

   - **GSN801** unguarded write to shared state (no guard anywhere);
   - **GSN802** inconsistent guard — the attribute is usually written
     under lock L, this write is not;
   - **GSN803** unguarded compound update: ``+=``, check-then-act
     (test reads the attribute, branch writes it), or dict/list
     mutation during iteration;
   - **GSN804** unsynchronized collection mutated across entry points;
   - **GSN805** guarded mutable state escaping its lock scope — a bare
     ``return self.x`` of a guarded collection hands out a reference
     the lock no longer covers (return a copy instead);
   - **GSN806** stale or wrong ``# guarded-by:`` declaration — the
     named lock does not exist, is not the lock's
     :func:`repro.concurrency.new_lock` registry name, or is never
     held at any observed write.

Reads are deliberately not flagged (same trade :mod:`locklint` makes:
a torn read is benign under the GIL for the simple cases, and flagging
them would drown the writes that actually corrupt state).  Findings are
suppressed by a trailing ``# gsn-lint: disable=GSN80x`` on the
offending line.  The runtime counterpart is
:mod:`repro.analysis.racewitness`, which enforces the same declarations
at mutate-time during the test suite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.callgraph import (
    MUTATOR_METHODS, Access, FunctionInfo, MUTATE, ProgramIndex,
    RMW, WRITE, callee_name, self_attr,
)
from repro.analysis.dataflow import (
    MAX_CONTEXTS_PER_FUNCTION, Context, Pass, call_edges,
    propagate_contexts, reachability, walk_scope,
)
from repro.analysis.rules import Report

#: A lock is the attribute's dominant guard when it is held at at least
#: this fraction of the attribute's writes (outside ``__init__``).
DOMINANT_THRESHOLD = 0.75

#: The synthetic entry every public function is reachable from.
MAIN_ENTRY = "main"

#: ``<receiver>.<name>(callable)`` — the callable arg is registered to
#: run later on some other thread (listener/observer/peer-link paths).
_CALLBACK_REGISTRARS = frozenset({
    "add_listener", "add_observer", "add_callback", "subscribe",
    "register", "watch",
})

#: ``<scheduler>.<name>(..., callable, ...)`` — timer callbacks.
_SCHEDULER_METHODS = frozenset({"after", "every", "call_later", "schedule"})

#: Value kinds that make an attribute a (mutable) collection.
_COLLECTION_CTORS = frozenset({
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict",
    "Counter",
})

WRITEISH = frozenset({WRITE, RMW, MUTATE})


def _must_held(known: Set[Context], new: Context) -> bool:
    """The race pass's join: past ``MAX_CONTEXTS_PER_FUNCTION``
    contexts, collapse to the must-held intersection (sound for guard
    inference, and bounded)."""
    if len(known) >= MAX_CONTEXTS_PER_FUNCTION:
        collapsed = frozenset.intersection(new, *known)
        known.clear()
        known.add(collapsed)
    else:
        known.add(new)
    return True


@dataclass(frozen=True)
class EntryPoint:
    """One place concurrent execution can begin."""

    id: str         # "thread:WorkerPool._worker_main", "main", ...
    kind: str       # thread | pool | timer | callback | http | main
    qualname: str
    path: str
    line: int


@dataclass(frozen=True)
class AccessSite:
    """One attribute access with its propagated must-held lock set."""

    cls: str
    attr: str
    kind: str
    function: str
    path: str
    line: int
    must_held: FrozenSet[str]
    in_init: bool
    entries: FrozenSet[str]


@dataclass
class AttrSummary:
    """Everything the rules need to know about one ``Class.attr``."""

    cls: str
    attr: str
    sites: List[AccessSite]
    entries: FrozenSet[str]       # entry ids reaching any access
    is_collection: bool
    declared: Optional[str]       # raw ``# guarded-by:`` text, if any
    declared_line: int
    canonical: Optional[str]      # registry name the declaration resolves to
    dominant: Optional[str]       # inferred guard, if any

    @property
    def writes(self) -> List["AccessSite"]:
        return [s for s in self.sites
                if s.kind in WRITEISH and not s.in_init]

    @property
    def shared(self) -> bool:
        """Whether this attribute's writes can actually race.

        Requires ≥ 2 entry points with at least one concurrent, plus a
        write outside ``__init__`` — and the write side must itself be
        concurrent: a scalar written only from the main thread and read
        from a timer is the benign-under-the-GIL case the pass's
        read-policy already accepts.  Collections are the exception — a
        main-side mutation races concurrent *readers* (``dict changed
        size during iteration``), so any concurrent access counts.
        """
        if len(self.entries) < 2 or not self.writes:
            return False
        if not self.entries - {MAIN_ENTRY}:
            return False
        if any(site.entries - {MAIN_ENTRY} for site in self.writes):
            return True
        # Main-side-only writes: rebinds are atomic under the GIL, but
        # an in-place mutation still races concurrent iteration.
        return self.is_collection and any(
            site.kind == MUTATE for site in self.writes)


class RaceAnalysis(Pass):
    """One run of the GSN8xx pass over an index.

    Lattice: held-lock contexts per function, collapsed past the bound
    to their must-held intersection. Seeds: the concurrency entry
    points, entered with no lock held. Facts: the entry ids reaching
    each function.
    """

    def __init__(self, index: ProgramIndex) -> None:
        super().__init__(index)
        self.entries: List[EntryPoint] = []
        self.contexts: Dict[str, Set[Context]] = {}
        self.reaching: Dict[str, Set[str]] = {}
        self.summaries: Dict[Tuple[str, str], AttrSummary] = {}
        self._compound: Dict[Tuple[str, str, str, int], str] = {}

    # -- entry-point discovery ---------------------------------------------

    def discover_entries(self) -> List[EntryPoint]:
        found: Dict[Tuple[str, str], EntryPoint] = {}

        def add(kind: str, qualname: str, path: str, line: int) -> None:
            # All ``main`` roots share one entry id: they run on the
            # same (embedding application) thread, so reachability from
            # two of them is not concurrency.
            entry_id = MAIN_ENTRY if kind == MAIN_ENTRY \
                else f"{kind}:{qualname}"
            entry = EntryPoint(entry_id, kind, qualname, path, line)
            found.setdefault((entry.id, qualname), entry)

        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            # Public functions/methods: callable from the embedding
            # application's (main) thread.
            if not info.name.startswith("_") or (
                    info.name.startswith("__")
                    and info.name.endswith("__")):
                add(MAIN_ENTRY, qualname, info.path, info.lineno)
            # ``class Worker(Thread): def run(self)``.
            if info.name == "run" and self.index.method_of(info, "Thread"):
                add("thread", qualname, info.path, info.lineno)
            # HTTP handler methods on (top-level) handler classes.
            if info.name.startswith("do_") \
                    and self.index.method_of(info, "Handler"):
                add("http", qualname, info.path, info.lineno)
            self._scan_spawn_sites(info, add)

        # ``main`` is one entry id no matter how many roots seed it.
        entries = sorted(found.values(), key=lambda e: (e.id, e.qualname))
        self.entries = entries
        return entries

    def _scan_spawn_sites(self, info: FunctionInfo, add) -> None:
        resolver = self.resolver(info.qualname)
        for child in walk_scope(info.node):
            if not isinstance(child, ast.Call):
                continue
            callee = callee_name(child)
            if callee is None:
                continue
            kind: Optional[str] = None
            candidates: List[ast.AST] = []
            if callee == "Thread":
                kind = "thread"
                candidates = [kw.value for kw in child.keywords
                              if kw.arg == "target"]
            elif callee == "Timer":
                kind = "timer"
                candidates = list(child.args[1:2])
            elif callee == "submit":
                kind = "pool"
                candidates = list(child.args) + \
                    [kw.value for kw in child.keywords]
            elif callee in _SCHEDULER_METHODS:
                kind = "timer"
                candidates = list(child.args) + \
                    [kw.value for kw in child.keywords]
            elif callee.lstrip("_") in _CALLBACK_REGISTRARS:
                kind = "callback"
                candidates = list(child.args) + \
                    [kw.value for kw in child.keywords]
            if kind is None:
                continue
            for candidate in candidates:
                for target in resolver.entry_targets(candidate):
                    add(kind, target, info.path, child.lineno)

    # -- propagation -------------------------------------------------------

    def solve(self) -> None:
        if not self.entries:
            self.discover_entries()
        edges = call_edges(self.index)
        entries = [entry for entry in self.entries
                   if entry.qualname in self.index.functions]
        self.reaching = reachability(
            edges, ((entry.qualname, entry.id) for entry in entries))

        # Held-lock contexts from the entries to a fixed point.
        #
        # Concurrent entries always seed an empty context (they start a
        # fresh stack). ``main`` roots seed only when nothing in the
        # program calls them: a public *hook* with internal callers
        # (``on_configure`` under ``configure``'s lock) inherits its
        # callers' contexts — we assume external callers follow the
        # same locking discipline the internal call sites exhibit.
        called: Set[str] = set()
        for targets in edges.values():
            called.update(targets)
        worklist: List[str] = []

        def seed(qualname: str) -> None:
            known = self.contexts.setdefault(qualname, set())
            if frozenset() not in known:
                known.add(frozenset())
                worklist.append(qualname)

        for entry in entries:
            if entry.kind == MAIN_ENTRY and entry.qualname in called:
                continue
            seed(entry.qualname)
        propagate_contexts(self.index, self.contexts, worklist, _must_held)
        # Public-cycle fallback: a ring of public functions that only
        # call each other has no root; seed the stragglers empty.
        for entry in entries:
            if entry.qualname not in self.contexts:
                seed(entry.qualname)
        if worklist:
            propagate_contexts(self.index, self.contexts, worklist,
                               _must_held)

    # -- access summaries --------------------------------------------------

    def collect(self) -> Dict[Tuple[str, str], AttrSummary]:
        self.solve()
        collections = self._collection_attrs()
        sites: Dict[Tuple[str, str], List[AccessSite]] = {}
        entries_for: Dict[Tuple[str, str], Set[str]] = {}
        for qualname, contexts in self.contexts.items():
            info = self.index.functions[qualname]
            requires = frozenset(info.requires)
            reaching = frozenset(self.reaching.get(qualname, ()))
            in_init = info.name == "__init__"
            for event in info.events:
                if not isinstance(event, Access):
                    continue
                local = frozenset(event.held) | requires
                must = frozenset.intersection(
                    *(ctx | local for ctx in contexts)
                ) if contexts else local
                key = (event.cls, event.attr)
                sites.setdefault(key, []).append(AccessSite(
                    event.cls, event.attr, event.kind, qualname,
                    info.path, event.line, must,
                    in_init and info.class_name == event.cls,
                    reaching,
                ))
                entries_for.setdefault(key, set()).update(reaching)
        self._find_compound_patterns()
        for key in sorted(sites):
            cls, attr = key
            declared, declared_line, canonical = self._declaration(cls, attr)
            summary = AttrSummary(
                cls=cls, attr=attr,
                sites=sorted(sites[key], key=lambda s: (s.path, s.line)),
                entries=frozenset(entries_for.get(key, ())),
                is_collection=key in collections,
                declared=declared, declared_line=declared_line,
                canonical=canonical, dominant=None,
            )
            summary.dominant = self._dominant(summary)
            self.summaries[key] = summary
        return self.summaries

    def _collection_attrs(self) -> Set[Tuple[str, str]]:
        out: Set[Tuple[str, str]] = set()
        for cls in self.index.classes.values():
            for qualname in cls.methods.values():
                info = self.index.functions.get(qualname)
                if info is None:
                    continue
                for node in walk_scope(info.node):
                    target: Optional[ast.AST] = None
                    value: Optional[ast.AST] = None
                    if isinstance(node, ast.Assign) \
                            and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value = node.target, node.value
                    else:
                        continue
                    attr = self_attr(target)
                    if attr is None or value is None:
                        continue
                    if self._is_collection_value(value):
                        out.add((cls.name, attr))
        return out

    @staticmethod
    def _is_collection_value(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            return callee_name(value) in _COLLECTION_CTORS
        return False

    def _declaration(self, cls: str,
                     attr: str) -> Tuple[Optional[str], int, Optional[str]]:
        for info in self.index.mro(cls):
            entry = info.guards.get(attr)
            if entry is not None:
                declared, line = entry
                tail = declared.rsplit(".", 1)[-1]
                decl = self.index.lock_for_attr(cls, tail)
                canonical = decl.name if decl is not None else None
                return declared, line, canonical
        return None, 0, None

    def _dominant(self, summary: AttrSummary) -> Optional[str]:
        writes = summary.writes
        if not writes:
            return None
        counts: Dict[str, int] = {}
        for site in writes:
            for lock in site.must_held:
                counts[lock] = counts.get(lock, 0) + 1
        best: Optional[str] = None
        best_count = 0
        for lock in sorted(counts):
            if counts[lock] > best_count:
                best, best_count = lock, counts[lock]
        if best is not None and best_count / len(writes) >= \
                DOMINANT_THRESHOLD:
            return best
        return None

    # -- compound-update patterns (GSN803) ---------------------------------

    def _find_compound_patterns(self) -> None:
        for qualname in self.contexts:
            info = self.index.functions[qualname]
            if info.class_name is None:
                continue
            for node in walk_scope(info.node):
                if isinstance(node, ast.If):
                    self._mark_check_then_act(info, node)
                elif isinstance(node, (ast.For, ast.While)):
                    self._mark_iter_mutation(info, node)

    def _self_reads(self, node: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for child in ast.walk(node):
            attr = self_attr(child)
            if attr is not None and isinstance(child.ctx, ast.Load):
                out.add(attr)
        return out

    def _self_writes(self, stmts: Sequence[ast.stmt]
                     ) -> List[Tuple[str, int]]:
        out: List[Tuple[str, int]] = []
        for stmt in stmts:
            for child in [stmt] + list(walk_scope(stmt)):
                if isinstance(child, ast.Assign):
                    for target in child.targets:
                        attr = self_attr(target)
                        if attr is not None:
                            out.append((attr, child.lineno))
                elif isinstance(child, ast.AugAssign):
                    attr = self_attr(child.target)
                    if attr is not None:
                        out.append((attr, child.lineno))
                elif isinstance(child, ast.Call) \
                        and isinstance(child.func, ast.Attribute) \
                        and child.func.attr in MUTATOR_METHODS:
                    attr = self_attr(child.func.value)
                    if attr is not None:
                        out.append((attr, child.lineno))
                elif isinstance(child, ast.Subscript) \
                        and isinstance(child.ctx, (ast.Store, ast.Del)):
                    attr = self_attr(child.value)
                    if attr is not None:
                        out.append((attr, child.lineno))
        return out

    def _mark_check_then_act(self, info: FunctionInfo,
                             node: ast.If) -> None:
        reads = self._self_reads(node.test)
        if not reads:
            return
        cls = info.class_name or ""
        for attr, line in self._self_writes(node.body):
            if attr in reads:
                self._compound.setdefault(
                    (cls, attr, info.path, line), "check-then-act")

    def _mark_iter_mutation(self, info: FunctionInfo, node: ast.AST) -> None:
        if isinstance(node, ast.For):
            iterated = self_attr(node.iter)
        else:
            assert isinstance(node, ast.While)
            test_reads = self._self_reads(node.test)
            iterated = None if len(test_reads) != 1 \
                else next(iter(test_reads))
        if iterated is None:
            return
        cls = info.class_name or ""
        for attr, line in self._self_writes(node.body):
            if attr == iterated:
                self._compound.setdefault(
                    (cls, attr, info.path, line), "mutation-during-iteration")

    # -- rule judging ------------------------------------------------------

    def run(self, report: Optional[Report] = None) -> Report:
        if report is None:
            report = Report()
        self.collect()
        for key in sorted(self.summaries):
            summary = self.summaries[key]
            if self.index.loop_owned(summary.cls, summary.attr):
                # ``# owned-by: loop`` state belongs to the async pass:
                # GSN904 proves single-writer (loop-thread) discipline,
                # which is a stronger guarantee than a lock.
                continue
            declaration_ok = self._judge_declaration(report, summary)
            if summary.shared:
                self._judge_writes(report, summary, declaration_ok)
            self._judge_escapes(report, summary)
        return report

    def _judge_declaration(self, report: Report,
                           summary: AttrSummary) -> bool:
        """GSN806. Returns True when the declaration can serve as the
        attribute's expected guard."""
        if summary.declared is None:
            return False
        cls_info = self.index.classes.get(summary.cls)
        path = cls_info.path if cls_info is not None else ""
        where = f"{summary.cls}.{summary.attr}"
        if summary.canonical is None:
            self.emit(
                report, "GSN806",
                f"guarded-by on {where} names unknown lock "
                f"{summary.declared!r} — no such lock attribute on "
                f"{summary.cls}",
                where, path, summary.declared_line,
            )
            return False
        if summary.declared != summary.canonical:
            self.emit(
                report, "GSN806",
                f"guarded-by on {where} says {summary.declared!r} but the "
                f"lock's registry name is {summary.canonical!r} — declare "
                f"'# guarded-by: {summary.canonical}'",
                where, path, summary.declared_line,
            )
            return False
        writes = summary.writes
        if writes and all(summary.canonical not in s.must_held
                          for s in writes):
            self.emit(
                report, "GSN806",
                f"guarded-by on {where} declares {summary.canonical!r} but "
                f"the lock is never held at any of its {len(writes)} "
                f"write(s) — the declaration is stale",
                where, path, summary.declared_line,
            )
            return False
        return True

    def _judge_writes(self, report: Report, summary: AttrSummary,
                      declaration_ok: bool) -> None:
        expected = summary.canonical if declaration_ok else summary.dominant
        where = f"{summary.cls}.{summary.attr}"
        entries = ", ".join(sorted(summary.entries))
        for site in summary.writes:
            if expected is not None and expected in site.must_held:
                continue
            compound = self._compound.get(
                (summary.cls, summary.attr, site.path, site.line))
            if expected is not None:
                self.emit(
                    report, "GSN802",
                    f"{where} is guarded by {expected} but this "
                    f"{'update' if site.kind != WRITE else 'write'} does "
                    f"not hold it (reachable from: {entries})",
                    site.function, site.path, site.line,
                )
            elif site.kind == RMW or compound is not None:
                what = compound or "read-modify-write"
                self.emit(
                    report, "GSN803",
                    f"unguarded compound update ({what}) on {where}, "
                    f"shared across entry points ({entries}) — the "
                    f"read-and-write must happen under one lock",
                    site.function, site.path, site.line,
                )
            elif site.kind == MUTATE and summary.is_collection:
                self.emit(
                    report, "GSN804",
                    f"unsynchronized collection {where} is mutated across "
                    f"entry points ({entries}) — guard it with a lock",
                    site.function, site.path, site.line,
                )
            else:
                self.emit(
                    report, "GSN801",
                    f"unguarded write to {where}, shared across entry "
                    f"points ({entries}) — guard it with a lock and "
                    f"declare '# guarded-by: <lock>'",
                    site.function, site.path, site.line,
                )

    def _judge_escapes(self, report: Report, summary: AttrSummary) -> None:
        guard = summary.canonical or summary.dominant
        if guard is None or not summary.is_collection:
            return
        cls_info = self.index.classes.get(summary.cls)
        if cls_info is None:
            return
        where = f"{summary.cls}.{summary.attr}"
        for qualname in sorted(cls_info.methods.values()):
            info = self.index.functions.get(qualname)
            if info is None or qualname not in self.contexts:
                continue
            for node in walk_scope(info.node):
                if not isinstance(node, (ast.Return, ast.Yield)):
                    continue
                value = getattr(node, "value", None)
                if value is None or self_attr(value) != summary.attr:
                    continue
                self.emit(
                    report, "GSN805",
                    f"guarded collection {where} escapes its lock scope: "
                    f"the returned reference is no longer covered by "
                    f"{guard} — return a copy (e.g. list(self.{summary.attr}))",
                    qualname, info.path, node.lineno,
                )


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

#: Run the full GSN8xx pass over paths (files or directories).
analyze_races = RaceAnalysis.analyze
