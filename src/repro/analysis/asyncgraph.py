"""Whole-program async-safety pass — the GSN9xx rules.

The deadlock pass (GSN5xx) proves lock *ordering*, the race pass
(GSN8xx) proves shared state is *guarded*; this pass proves that an
event loop stays *live and owned* next to the threaded runtime.  It
runs over the same :class:`repro.analysis.callgraph.ProgramIndex` and
judges five failure modes of mixing asyncio with threads:

- **GSN901** blocking call reachable from a coroutine.  The
  *coroutine-reachable* set is computed interprocedurally: every
  ``async def`` plus every callback handed to a loop-bound scheduler
  (``call_soon``/``call_later``/``call_at``/``add_done_callback``)
  seeds a BFS through resolved calls.  Inside that set, any
  synchronous blocking operation — ``time.sleep``, socket I/O,
  sync-queue ``get``/``put`` (bounded or not: a timeout still stalls
  the loop), thread ``join``, database ``commit``, bare ``open``,
  ``Lock.acquire`` and ``with <sync lock>:`` — freezes every pending
  task on the loop;
- **GSN902** synchronous lock held across an ``await``.  The await
  suspends the coroutine *with the lock held*; any other task (or
  thread) needing the lock deadlocks against a parked frame.  Judged
  from the scanner's :class:`~repro.analysis.callgraph.Await` events
  joined with the locally held lock set and ``# requires-lock:``
  annotations;
- **GSN903** unawaited coroutine / fire-and-forget task.  A bare
  expression statement calling an ``async def`` never runs; a bare
  ``create_task``/``ensure_future``/``run_coroutine_threadsafe``
  drops the only reference — its exception disappears exactly like
  the GSN602 dying-thread case (keep the task and attach a done
  callback that routes to the crash witness or a log);
- **GSN904** event-loop thread-affinity violation.  Loop-bound APIs
  (``call_soon``, ``call_later``, ``create_task``, ``stop``, ...)
  invoked on a ``loop`` receiver from code that is neither
  coroutine-reachable nor the loop's bootstrap thread (the function
  that calls ``run_until_complete``/``run_forever``/``asyncio.run``)
  must go through ``call_soon_threadsafe``.  The same domain covers
  state: attributes declared ``# owned-by: loop`` may be *written*
  only from loop context (reads from other threads stay benign under
  the GIL, mirroring the GSN8xx read policy — and the race pass
  exempts loop-owned attributes in exchange);
- **GSN905** unbounded ``asyncio.Queue()`` — no ``maxsize`` means no
  backpressure: a fast producer grows the queue without limit and the
  shed policy can never trigger.

Findings are suppressed by a trailing ``# gsn-lint: disable=GSN90x``
on the offending line.  The runtime counterpart is
:mod:`repro.analysis.loopwitness`, which asserts an event-loop stall
ceiling while the suite runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.callgraph import (
    BLOCKING_ALWAYS, CONNECTIONISH, QUEUEISH, THREADISH, Access, Acquire,
    Await, FunctionInfo, ProgramIndex, call_has_bound, callee_name,
    receiver_chain,
)
from repro.analysis.dataflow import (
    Pass, Resolver, call_edges, reachability, walk_scope,
)
from repro.analysis.rules import Report

#: Loop APIs that must run on the loop's own thread.
_LOOP_BOUND = frozenset({
    "call_soon", "call_later", "call_at", "create_task", "ensure_future",
    "stop", "close", "run_until_complete", "run_forever",
})
#: Loop APIs that are explicitly safe from foreign threads.
_THREADSAFE = frozenset({"call_soon_threadsafe", "run_coroutine_threadsafe"})

#: ``loop.<registrar>(callback, ...)`` — the callback runs on the loop.
_CALLBACK_ARG = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "add_done_callback": 0,
    "call_later": 1,
    "call_at": 1,
}

#: Attribute writes that count for the owned-by-loop domain.
_WRITEISH = frozenset({"write", "rmw", "mutate"})


@dataclass(frozen=True)
class BlockSite:
    """One synchronous blocking operation in a function body."""

    desc: str
    detail: str
    line: int


def _is_asyncio_chain(chain: str) -> bool:
    return chain == "asyncio" or chain.startswith("asyncio.")


class AsyncAnalysis(Pass):
    """One run of the GSN9xx pass over an index.

    Lattice: the coroutine roots whose loop context reaches each
    function. Seeds: every ``async def`` and every callback handed to a
    loop-bound scheduler.
    """

    def __init__(self, index: ProgramIndex) -> None:
        super().__init__(index)
        #: Coroutine/loop-callback roots: qualname -> kind.
        self.roots: Dict[str, str] = {}
        #: Functions that bootstrap a loop (run_until_complete et al.).
        self.bootstrap: Set[str] = set()
        #: qualname -> root qualnames whose coroutine context reaches it.
        self.reaching: Dict[str, Set[str]] = {}

    # -- root discovery and reachability -----------------------------------

    def discover(self) -> None:
        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            if info.is_async:
                self.roots.setdefault(qualname, "coroutine")
            for node in walk_scope(info.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                name = func.attr
                chain = receiver_chain(func.value)
                arg_index = _CALLBACK_ARG.get(name)
                if arg_index is not None and (
                        "loop" in chain.lower() or name == "add_done_callback"
                        or _is_asyncio_chain(chain)):
                    candidates = list(node.args[arg_index:arg_index + 1]) + [
                        kw.value for kw in node.keywords
                        if kw.arg in ("callback", "func")
                    ]
                    resolver = self.resolver(qualname)
                    for candidate in candidates:
                        for target in resolver.entry_targets(candidate):
                            self.roots.setdefault(target, "loop-callback")
                if name in ("run_until_complete", "run_forever") \
                        and "loop" in chain.lower():
                    self.bootstrap.add(qualname)
                if name == "run" and _is_asyncio_chain(chain):
                    self.bootstrap.add(qualname)

    def solve(self) -> None:
        if not self.roots:
            self.discover()
        self.reaching = reachability(
            call_edges(self.index),
            ((root, root) for root in sorted(self.roots)
             if root in self.index.functions))

    @property
    def loop_context(self) -> Set[str]:
        """Functions that can run on an event-loop thread."""
        return set(self.reaching)

    # -- GSN901: blocking calls in coroutine context -----------------------

    def _blocking_reason(self, name: str, chain: str,
                         node: ast.Call) -> Optional[str]:
        if _is_asyncio_chain(chain):
            return None
        if name in BLOCKING_ALWAYS:
            return f"{name}() blocks the calling thread"
        if name == "open" and not chain:
            return "synchronous file I/O"
        if name == "join" and THREADISH.search(chain):
            return "join() on a thread (bounded or not, it stalls the loop)"
        if name in ("get", "put") and QUEUEISH.search(chain):
            return (f"synchronous queue {name}() — even a timeout parks "
                    f"every task on the loop")
        if name == "wait" and not call_has_bound(node):
            return "wait() without a timeout"
        if name == "acquire":
            return "synchronous lock acquire"
        if name == "commit" and CONNECTIONISH.search(chain):
            return "commit on a shared database connection"
        return None

    def _blocking_sites(self, info: FunctionInfo) -> List[BlockSite]:
        sites: List[BlockSite] = []
        awaited: Set[int] = set()
        for node in walk_scope(info.node):
            if isinstance(node, ast.Await) \
                    and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        for node in walk_scope(info.node):
            if not isinstance(node, ast.Call) or id(node) in awaited:
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name, chain = func.attr, receiver_chain(func.value)
            elif isinstance(func, ast.Name):
                name, chain = func.id, ""
            else:
                continue
            reason = self._blocking_reason(name, chain, node)
            if reason is not None:
                desc = f"{chain}.{name}" if chain else name
                sites.append(BlockSite(desc, reason, node.lineno))
        for event in info.events:
            if isinstance(event, Acquire):
                sites.append(BlockSite(
                    f"with {event.lock}",
                    f"acquires sync lock {event.lock!r}", event.line))
        return sites

    def _judge_blocking(self, report: Report) -> None:
        for qualname in sorted(self.reaching):
            info = self.index.functions.get(qualname)
            if info is None:
                continue
            roots = self.reaching[qualname]
            root = sorted(roots)[0]
            via = "" if qualname == root else f" (via coroutine {root})"
            for site in self._blocking_sites(info):
                self.emit(
                    report, "GSN901",
                    f"{qualname} runs on the event loop{via} but "
                    f"{site.desc} — {site.detail}; every task on the "
                    f"loop stalls behind it",
                    qualname, info.path, site.line,
                )

    # -- GSN902: sync lock held across await -------------------------------

    def _judge_awaits(self, report: Report) -> None:
        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            if not info.is_async:
                continue
            requires = tuple(info.requires)
            for event in info.events:
                if not isinstance(event, Await):
                    continue
                held = tuple(dict.fromkeys(event.held + requires))
                if not held:
                    continue
                locks = ", ".join(held)
                self.emit(
                    report, "GSN902",
                    f"{qualname} awaits while holding sync lock(s) "
                    f"{locks} — the coroutine parks with the lock held "
                    f"and anything else needing it deadlocks; release "
                    f"before awaiting (or hand off through a queue)",
                    qualname, info.path, event.line,
                )

    # -- GSN903: unawaited coroutines / dropped tasks ----------------------

    def _judge_fire_and_forget(self, report: Report) -> None:
        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            resolver: Optional[Resolver] = None
            for node in walk_scope(info.node):
                if not isinstance(node, ast.Expr) \
                        or not isinstance(node.value, ast.Call):
                    continue
                call = node.value
                name = callee_name(call)
                if name in ("create_task", "ensure_future",
                            "run_coroutine_threadsafe"):
                    self.emit(
                        report, "GSN903",
                        f"{qualname} fires and forgets a task "
                        f"({name}(...) result dropped) — its exception "
                        f"vanishes like a dying thread; keep the task "
                        f"and add a done callback that logs/witnesses "
                        f"the failure",
                        qualname, info.path, node.lineno,
                    )
                    continue
                if resolver is None:
                    resolver = self.resolver(qualname)
                targets = resolver.targets_of(call)
                async_targets = [
                    t for t in targets
                    if self.index.functions[t].is_async
                ]
                if async_targets:
                    self.emit(
                        report, "GSN903",
                        f"{qualname} calls coroutine "
                        f"{async_targets[0]}() without awaiting it — "
                        f"the coroutine object is created and dropped, "
                        f"the body never runs",
                        qualname, info.path, node.lineno,
                    )

    # -- GSN904: loop thread affinity --------------------------------------

    def _judge_affinity(self, report: Report) -> None:
        allowed = self.loop_context | self.bootstrap
        for qualname in sorted(self.index.functions):
            if qualname in allowed:
                continue
            info = self.index.functions[qualname]
            for node in walk_scope(info.node):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute):
                    continue
                name = node.func.attr
                chain = receiver_chain(node.func.value)
                if name in _THREADSAFE:
                    continue
                if name in _LOOP_BOUND and "loop" in chain.lower():
                    self.emit(
                        report, "GSN904",
                        f"{qualname} calls {chain}.{name}() from a "
                        f"foreign thread — loop APIs are bound to the "
                        f"loop's own thread; use "
                        f"call_soon_threadsafe/run_coroutine_threadsafe",
                        qualname, info.path, node.lineno,
                    )
            in_init = info.name == "__init__"
            for event in info.events:
                if not isinstance(event, Access) \
                        or event.kind not in _WRITEISH:
                    continue
                if in_init and info.class_name == event.cls:
                    continue
                if self.index.loop_owned(event.cls, event.attr):
                    self.emit(
                        report, "GSN904",
                        f"{qualname} writes loop-owned state "
                        f"{event.cls}.{event.attr} from a foreign "
                        f"thread — '# owned-by: loop' attributes mutate "
                        f"only on the loop (route through "
                        f"call_soon_threadsafe or a hand-off queue)",
                        qualname, info.path, event.line,
                    )

    # -- GSN905: unbounded asyncio queues ----------------------------------

    @staticmethod
    def _queue_bounded(node: ast.Call) -> bool:
        bounds: List[ast.AST] = list(node.args[:1]) + [
            kw.value for kw in node.keywords if kw.arg == "maxsize"
        ]
        if not bounds:
            return False
        bound = bounds[0]
        if isinstance(bound, ast.Constant) and bound.value in (0, None):
            return False
        return True

    def _judge_queues(self, report: Report) -> None:
        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            for node in walk_scope(info.node):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr != "Queue" \
                        or not _is_asyncio_chain(
                            receiver_chain(node.func.value)):
                    continue
                if self._queue_bounded(node):
                    continue
                self.emit(
                    report, "GSN905",
                    f"{qualname} creates an unbounded asyncio.Queue() — "
                    f"without a maxsize there is no backpressure and no "
                    f"shed point; pass maxsize and handle QueueFull "
                    f"explicitly",
                    qualname, info.path, node.lineno,
                )

    # -- entry point -------------------------------------------------------

    def run(self, report: Optional[Report] = None) -> Report:
        if report is None:
            report = Report()
        self.solve()
        self._judge_blocking(report)
        self._judge_awaits(report)
        self._judge_fire_and_forget(report)
        self._judge_affinity(report)
        self._judge_queues(report)
        return report


#: Run the full GSN9xx pass over paths (files or directories).
analyze_async = AsyncAnalysis.analyze
