"""Interprocedural exception-flow & resource-lifecycle pass — GSN6xx.

Runs over the :class:`repro.analysis.callgraph.ProgramIndex` the
deadlock pass already builds and answers the question the life-cycle
manager cares about: *can this deployment die silently?*

1. every function gets a summary — the set of exception type names its
   body can let escape.  ``raise X`` contributes ``X``; a bare ``raise``
   re-raises what the enclosing handler caught; ``raise X from e``
   contributes ``X`` only; ``assert`` contributes ``AssertionError``;
   resolved calls contribute their callee's summary.  ``try`` blocks
   subtract what their handlers catch — matching is hierarchy-aware over
   both the builtin exception tree and classes in the index, so a
   handler narrower than the raised type lets it through — and a
   ``finally`` that exits via ``return``/``break``/``continue``
   swallows everything in flight;
2. summaries are propagated through resolved calls to a fixed point
   by :func:`repro.analysis.dataflow.solve_summaries` (the lattice is
   sets of type names: finite and monotone, so the iteration
   terminates);
3. rules are judged against the stable summaries:

   - **GSN601** a broad handler (bare ``except``, ``Exception``,
     ``BaseException``) whose body neither re-raises nor routes the
     error anywhere observable (logger, metric/counter, report,
     witness, error-as-value return);
   - **GSN602** a thread entry point (``Thread(target=...)`` or a
     ``run()`` override on a Thread subclass) whose summary is
     non-empty: one such exception and the worker dies silently;
   - **GSN603** a resource acquired into a local (``open``,
     ``.cursor()``, ``.connect()``, ``socket``, ``urlopen``, ``Popen``)
     that is neither ``with``-managed, closed in a ``finally``, nor
     handed off (returned / stored / passed on);
   - **GSN604** a blocking call without a timeout reachable from a
     thread entry point — an un-interruptible worker cannot be stopped
     or supervised;
   - **GSN605** a non-daemon thread started without any visible
     ``join()`` path — it outlives the component that spawned it.

Opaque (unresolved) calls contribute nothing to exception summaries:
the pass under-approximates by design, the same trade the lock pass
makes — it exists to catch the silent-death bug class cheaply, not to
prove the program exception-free.  Findings are suppressed by a
trailing ``# gsn-lint: disable=GSN60x`` on the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.callgraph import (
    BLOCKING, FunctionInfo, Opaque, ProgramIndex, callee_name,
    receiver_chain,
)
from repro.analysis.dataflow import (
    SCOPE_NODES, Pass, reachability, solve_summaries, walk_scope,
)
from repro.analysis.rules import Report

#: The builtin exception hierarchy, child -> parent, as far as the
#: rules need it.  Unknown names are assumed to be Exception
#: subclasses (the common case for third-party errors).
_BUILTIN_PARENTS: Dict[str, str] = {
    "BaseException": "",
    "Exception": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "LookupError": "Exception",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "ConnectionError": "OSError",
    "ConnectionResetError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "BrokenPipeError": "ConnectionError",
    "TimeoutError": "OSError",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "TypeError": "Exception",
    "AttributeError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "AssertionError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "MemoryError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "Empty": "Exception",   # queue.Empty
    "Full": "Exception",    # queue.Full
}

#: Escapes a thread entry point is allowed: these are control-flow
#: signals, not silent deaths.
ALLOWED_THREAD_ESCAPES = frozenset({
    "SystemExit", "KeyboardInterrupt", "GeneratorExit", "StopIteration",
})

#: Handler types broad enough that swallowing under them hides
#: *unexpected* errors (narrow handlers express intent).
_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})

#: Logger-protocol method names: a call to one inside a handler is an
#: observable sink.
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "fatal", "log",
})

#: Name fragments (callee, receiver chain, or assignment target) that
#: mark a handler body as routing the error somewhere observable.
_SINKISH = re.compile(
    r"(log|metric|counter|stat\b|stats|record|report|emit|error|fail|"
    r"crash|witness|poison|degrade|notif|drop|skip|abort|reject)",
    re.IGNORECASE,
)

#: Bare-name calls that acquire an external resource.
_ACQUIRE_NAMES = frozenset({"open", "urlopen", "Popen", "socket"})
#: ``<receiver>.name()`` calls that acquire an external resource.
_ACQUIRE_ATTRS = frozenset({
    "cursor", "connect", "socket", "urlopen", "Popen", "popen", "open",
})
#: Blocking opaque details that carry their own bound (GSN604 is about
#: *indefinite* blocking a supervisor cannot interrupt).
_BOUNDED_BLOCKING = re.compile(r"sleep|commit", re.IGNORECASE)


# --------------------------------------------------------------------------
# small AST helpers
# --------------------------------------------------------------------------

def _calls_in(node: ast.AST) -> List[ast.Call]:
    out = [n for n in walk_scope(node) if isinstance(n, ast.Call)]
    if isinstance(node, ast.Call):
        out.append(node)
    return out


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in walk_scope(node) if isinstance(n, ast.Name)} | (
        {node.id} if isinstance(node, ast.Name) else set()
    )


def _is_the_name(node: ast.AST, name: str) -> bool:
    """``node`` is the bare name (or a tuple/list directly holding it)."""
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(isinstance(elt, ast.Name) and elt.id == name
                   for elt in node.elts)
    return False


def _try_nodes() -> Tuple[type, ...]:
    star = getattr(ast, "TryStar", None)
    return (ast.Try, star) if star is not None else (ast.Try,)


_TRY_NODES = _try_nodes()


# --------------------------------------------------------------------------
# exception-set evaluation
# --------------------------------------------------------------------------

class _ExcEnv:
    """Handler context while walking a function body."""

    def __init__(self) -> None:
        # Innermost-last stack of caught-type sets (for bare ``raise``).
        self.caught_stack: List[Set[str]] = []
        # ``except X as e`` binding -> the set ``e`` can hold.
        self.handler_vars: Dict[str, Set[str]] = {}


class FlowAnalysis(Pass):
    """One run of the GSN6xx pass over an index.

    Lattice: the exception names each function can let escape. Seeds:
    every function, with nothing escaping. Transfer: :meth:`_escapes`
    over the body, reading the callees' summaries; calls are resolved
    from the AST, so the pass supplies its own call edges.
    """

    def __init__(self, index: ProgramIndex) -> None:
        super().__init__(index)
        self.summaries: Dict[str, FrozenSet[str]] = {
            qualname: frozenset() for qualname in index.functions
        }
        self._callers: Dict[str, Set[str]] = {}
        self._callees: Dict[str, Set[str]] = {}
        self.thread_sites: List[ThreadSite] = []
        self._ancestor_cache: Dict[str, FrozenSet[str]] = {}

    # -- the exception hierarchy -------------------------------------------

    def ancestors(self, name: str) -> FrozenSet[str]:
        """``name`` plus every (known) base class above it."""
        cached = self._ancestor_cache.get(name)
        if cached is not None:
            return cached
        out: Set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop()
            if not current or current in out:
                continue
            out.add(current)
            info = self.index.classes.get(current)
            if info is not None and info.bases:
                queue.extend(info.bases)
            elif current in _BUILTIN_PARENTS:
                queue.append(_BUILTIN_PARENTS[current])
            elif current != "Exception":
                # Unknown type: assume an Exception subclass.
                queue.append("Exception")
        frozen = frozenset(out)
        self._ancestor_cache[name] = frozen
        return frozen

    def catches(self, handler_type: str, raised: str) -> bool:
        return handler_type in self.ancestors(raised)

    # -- per-function evaluation -------------------------------------------

    def _escapes(self, qualname: str) -> FrozenSet[str]:
        info = self.index.functions[qualname]
        node = info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._current = self.resolver(qualname)
        return frozenset(self._block(node.body, _ExcEnv()))

    def _block(self, stmts: Sequence[ast.stmt], env: _ExcEnv) -> Set[str]:
        out: Set[str] = set()
        for stmt in stmts:
            out |= self._stmt(stmt, env)
        return out

    def _stmt(self, stmt: ast.stmt, env: _ExcEnv) -> Set[str]:
        if isinstance(stmt, SCOPE_NODES):
            return set()  # nested defs are their own analysis roots
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, env)
        if isinstance(stmt, _TRY_NODES):
            return self._try(stmt, env)
        if isinstance(stmt, ast.Assert):
            out = self._expr(stmt.test, env)
            if stmt.msg is not None:
                out |= self._expr(stmt.msg, env)
            out.add("AssertionError")
            return out
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out = set()
            for item in stmt.items:
                out |= self._expr(item.context_expr, env)
            return out | self._block(stmt.body, env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return (self._expr(stmt.iter, env)
                    | self._block(stmt.body, env)
                    | self._block(stmt.orelse, env))
        if isinstance(stmt, ast.While):
            return (self._expr(stmt.test, env)
                    | self._block(stmt.body, env)
                    | self._block(stmt.orelse, env))
        if isinstance(stmt, ast.If):
            return (self._expr(stmt.test, env)
                    | self._block(stmt.body, env)
                    | self._block(stmt.orelse, env))
        return self._expr(stmt, env)

    def _expr(self, node: ast.AST, env: _ExcEnv) -> Set[str]:
        out: Set[str] = set()
        for call in _calls_in(node):
            for target in self._current.targets_of(call):
                out |= self.summaries[target]
        return out

    def _raise(self, stmt: ast.Raise, env: _ExcEnv) -> Set[str]:
        if stmt.exc is None:
            # Bare re-raise: what the innermost handler caught.
            return set(env.caught_stack[-1]) if env.caught_stack else set()
        out = self._expr(stmt.exc, env)
        exc = stmt.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            if exc.id in env.handler_vars:
                out |= env.handler_vars[exc.id]  # ``raise e`` re-raise
            else:
                out.add(exc.id)
        elif isinstance(exc, ast.Attribute):
            out.add(exc.attr)
        else:
            # ``raise something_dynamic`` — explicit intent to throw.
            out.add("Exception")
        return out

    def _handler_types(self, handler: ast.excepthandler) -> List[str]:
        node = handler.type
        if node is None:
            return ["BaseException"]  # bare ``except:``
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        out: List[str] = []
        for elt in elts:
            if isinstance(elt, ast.Name):
                out.append(elt.id)
            elif isinstance(elt, ast.Attribute):
                out.append(elt.attr)
        return out or ["BaseException"]

    def _try(self, stmt: ast.stmt, env: _ExcEnv) -> Set[str]:
        body = self._block(stmt.body, env)
        remaining = set(body)
        handler_escapes: Set[str] = set()
        for handler in stmt.handlers:
            htypes = self._handler_types(handler)
            caught = {t for t in remaining
                      if any(self.catches(h, t) for h in htypes)}
            remaining -= caught
            env.caught_stack.append(caught)
            shadowed: Optional[Set[str]] = None
            if handler.name:
                shadowed = env.handler_vars.get(handler.name)
                env.handler_vars[handler.name] = caught
            try:
                handler_escapes |= self._block(handler.body, env)
            finally:
                env.caught_stack.pop()
                if handler.name:
                    if shadowed is None:
                        env.handler_vars.pop(handler.name, None)
                    else:
                        env.handler_vars[handler.name] = shadowed
        pending = remaining | handler_escapes | self._block(stmt.orelse, env)
        final = self._block(stmt.finalbody, env)
        if _finally_swallows(stmt.finalbody):
            return final
        return pending | final

    # -- fixed point -------------------------------------------------------

    def _link_calls(self) -> None:
        for qualname, info in self.index.functions.items():
            resolver = self.resolver(qualname)
            callees = self._callees.setdefault(qualname, set())
            for call in _calls_in(info.node):
                for target in resolver.targets_of(call):
                    callees.add(target)
                    self._callers.setdefault(target, set()).add(qualname)

    def solve(self) -> None:
        """Iterate summaries to the (monotone, finite) fixed point."""
        self._link_calls()
        solve_summaries(self.summaries, self._escapes, self._callers)

    # -- rule judging ------------------------------------------------------

    def run(self, report: Optional[Report] = None) -> Report:
        if report is None:
            report = Report()
        self.solve()
        for qualname in sorted(self.index.functions):
            info = self.index.functions[qualname]
            self._judge_handlers(report, info)
            self._judge_resources(report, info)
            self._collect_threads(info)
        self._judge_threads(report)
        self._judge_blocking(report)
        return report

    # GSN601 ---------------------------------------------------------------

    def _judge_handlers(self, report: Report, info: FunctionInfo) -> None:
        for node in walk_scope(info.node):
            if not isinstance(node, _TRY_NODES):
                continue
            for handler in node.handlers:
                htypes = self._handler_types(handler)
                if not any(h in _BROAD_HANDLERS for h in htypes):
                    continue
                if self._handler_has_sink(handler):
                    continue
                label = ", ".join(htypes)
                self.emit(
                    report, "GSN601",
                    f"broad 'except {label}' swallows the error: "
                    f"re-raise it, or route it through a logger or "
                    f"error counter before continuing",
                    info.qualname, info.path, handler.lineno,
                )

    def _handler_has_sink(self, handler: ast.excepthandler) -> bool:
        bound = handler.name
        for node in handler.body:
            for child in [node] + list(walk_scope(node)):
                if isinstance(child, ast.Raise):
                    return True
                if isinstance(child, ast.Call):
                    if self._call_is_sink(child):
                        return True
                if isinstance(child, (ast.Return, ast.Yield)) and bound:
                    value = getattr(child, "value", None)
                    if value is not None and bound in _names_in(value):
                        return True  # error-as-value handoff
                if isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) \
                        else [child.target]
                    for target in targets:
                        if _SINKISH.search(receiver_chain(target) or ""):
                            return True
        return False

    def _call_is_sink(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            chain = receiver_chain(func.value)
            if func.attr in _LOG_METHODS:
                return True
            if _SINKISH.search(func.attr) or _SINKISH.search(chain or ""):
                return True
        elif isinstance(func, ast.Name):
            if _SINKISH.search(func.id):
                return True
        return False

    # GSN603 ---------------------------------------------------------------

    def _judge_resources(self, report: Report, info: FunctionInfo) -> None:
        node = info.node
        acquisitions: List[Tuple[str, ast.Call, int]] = []
        for child in walk_scope(node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Name) \
                    and isinstance(child.value, ast.Call):
                kind = _acquisition_kind(child.value)
                if kind is not None:
                    acquisitions.append(
                        (child.targets[0].id, child.value, child.lineno)
                    )
        if not acquisitions:
            return
        for name, call, line in acquisitions:
            if self._resource_is_managed(node, name, line):
                continue
            desc = receiver_chain(call.func) or "acquisition"
            self.emit(
                report, "GSN603",
                f"resource from {desc}() is not released on every path: "
                f"use 'with', or close it in a 'finally'",
                info.qualname, info.path, line,
            )

    def _resource_is_managed(self, fn: ast.AST, name: str,
                             line: int) -> bool:
        for child in walk_scope(fn):
            # ``with name:`` / ``with contextlib.closing(name):``
            if isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if name in _names_in(item.context_expr):
                        return True
            # handed off: returned, yielded, stored on an object, or
            # passed to another call — ownership moved, not leaked here.
            # Only the name *itself* counts (``return cur``), not a mere
            # mention (``return cur.fetchall()`` still leaks the cursor).
            if isinstance(child, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(child, "value", None)
                if value is not None and _is_the_name(value, name):
                    return True
            if isinstance(child, ast.Assign):
                if not all(isinstance(t, ast.Name) for t in child.targets) \
                        and name in _names_in(child.value):
                    return True
            if isinstance(child, ast.Call):
                for arg in list(child.args) + [kw.value
                                               for kw in child.keywords]:
                    if _is_the_name(arg, name):
                        return True
            # closed in a ``finally``
            if isinstance(child, _TRY_NODES):
                for stmt in child.finalbody:
                    for call in _calls_in(stmt):
                        func = call.func
                        if isinstance(func, ast.Attribute) \
                                and func.attr in ("close", "release",
                                                  "shutdown", "terminate") \
                                and name in _names_in(func.value):
                            return True
        return False

    # GSN602 / GSN604 / GSN605 ---------------------------------------------

    def _collect_threads(self, info: FunctionInfo) -> None:
        resolver = self.resolver(info.qualname)
        node = info.node
        for child in walk_scope(node):
            if not isinstance(child, ast.Call):
                continue
            if callee_name(child) != "Thread":
                continue
            targets: Tuple[str, ...] = ()
            daemon: Optional[bool] = None
            for kw in child.keywords:
                if kw.arg == "target":
                    targets = resolver.entry_targets(kw.value)
                elif kw.arg == "daemon" \
                        and isinstance(kw.value, ast.Constant):
                    daemon = bool(kw.value.value)
            stored = _assignment_target_for(node, child)
            self.thread_sites.append(ThreadSite(
                entries=targets, function=info.qualname, path=info.path,
                line=child.lineno, daemon=daemon, stored=stored,
                class_name=info.class_name,
            ))
        # ``class Worker(Thread): def run(self)`` — run() is an entry.
        if info.name == "run" and self.index.method_of(info, "Thread"):
            self.thread_sites.append(ThreadSite(
                entries=(info.qualname,), function=info.qualname,
                path=info.path, line=info.lineno, daemon=None,
                stored=None, class_name=info.class_name,
                subclass_run=True,
            ))

    def _judge_threads(self, report: Report) -> None:
        for site in self.thread_sites:
            for entry in site.entries:
                escapes = sorted(self.summaries.get(entry, frozenset())
                                 - ALLOWED_THREAD_ESCAPES)
                if escapes:
                    self.emit(
                        report, "GSN602",
                        f"thread entry point {entry}() can die on "
                        f"{', '.join(escapes)} — catch at the top of the "
                        f"loop and report, restart, or degrade",
                        site.function, site.path, site.line,
                    )
            if site.subclass_run or site.daemon is True:
                continue
            if not self._has_join_path(site):
                target = site.stored or "<unnamed>"
                self.emit(
                    report, "GSN605",
                    f"non-daemon thread ({target}) is started without a "
                    f"join()/stop path — it outlives its owner; pass "
                    f"daemon=True or keep a handle and join it",
                    site.function, site.path, site.line,
                )

    def _has_join_path(self, site: ThreadSite) -> bool:
        if site.stored is None:
            return False
        scopes: List[ast.AST] = []
        if site.stored.startswith("self.") and site.class_name:
            cls = self.index.classes.get(site.class_name)
            if cls is not None:
                for qualname in cls.methods.values():
                    method = self.index.functions.get(qualname)
                    if method is not None:
                        scopes.append(method.node)
        else:
            owner = self.index.functions.get(site.function)
            if owner is not None:
                scopes.append(owner.node)
        for scope in scopes:
            for call in _calls_in(scope):
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr == "join":
                    chain = receiver_chain(func.value)
                    tail = site.stored.split(".")[-1]
                    if chain and tail in chain.split("."):
                        return True
        return False

    def _judge_blocking(self, report: Report) -> None:
        # Everything a worker thread can reach must stay interruptible.
        reached = reachability(self._callees, (
            (entry, entry) for site in self.thread_sites
            for entry in site.entries))
        for qualname in sorted(reached):
            info = self.index.functions.get(qualname)
            if info is None:
                continue
            # An entry names itself; otherwise the first entry by name.
            entry = qualname if qualname in reached[qualname] \
                else min(reached[qualname])
            for event in info.events:
                if not isinstance(event, Opaque) or event.kind != BLOCKING:
                    continue
                if _BOUNDED_BLOCKING.search(event.detail):
                    continue
                self.emit(
                    report, "GSN604",
                    f"blocking {event.desc}() without a timeout is "
                    f"reachable from thread entry {entry}() "
                    f"({event.detail}) — a stuck call here makes the "
                    f"worker unsupervisable",
                    info.qualname, info.path, event.line,
                )


@dataclass(frozen=True)
class ThreadSite:
    """One ``Thread(...)`` construction (or Thread-subclass ``run``)."""

    entries: Tuple[str, ...]
    function: str
    path: str
    line: int
    daemon: Optional[bool]
    stored: Optional[str]   # "self.x" / local name the thread is kept in
    class_name: Optional[str]
    subclass_run: bool = False


def _assignment_target_for(fn: ast.AST,
                           call: ast.Call) -> Optional[str]:
    """``t = Thread(...)`` / ``self.t = Thread(...)`` target, if any."""
    for child in walk_scope(fn):
        if isinstance(child, ast.Assign) and child.value is call \
                and len(child.targets) == 1:
            return receiver_chain(child.targets[0]) or None
    return None


def _acquisition_kind(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id in _ACQUIRE_NAMES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _ACQUIRE_ATTRS:
        return func.attr
    return None


def _finally_swallows(stmts: Sequence[ast.stmt],
                      in_loop: bool = False) -> bool:
    """A ``finally`` that exits via return/break/continue discards the
    in-flight exception (break/continue only when the loop is outside
    the finally)."""
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)) and not in_loop:
            return True
        if isinstance(stmt, SCOPE_NODES):
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if _finally_swallows(stmt.body, True) \
                    or _finally_swallows(stmt.orelse, in_loop):
                return True
        elif isinstance(stmt, ast.If):
            if _finally_swallows(stmt.body, in_loop) \
                    or _finally_swallows(stmt.orelse, in_loop):
                return True
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            if _finally_swallows(stmt.body, in_loop):
                return True
        elif isinstance(stmt, _TRY_NODES):
            if _finally_swallows(stmt.body, in_loop) \
                    or _finally_swallows(stmt.orelse, in_loop) \
                    or _finally_swallows(stmt.finalbody, in_loop) \
                    or any(_finally_swallows(h.body, in_loop)
                           for h in stmt.handlers):
                return True
    return False


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

#: Run the full GSN6xx pass over paths (files or directories).
analyze_flow = FlowAnalysis.analyze
