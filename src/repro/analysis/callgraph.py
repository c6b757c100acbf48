"""Whole-program index and call graph for the GSN5xx deadlock pass.

:class:`ProgramIndex` parses a set of Python sources once and answers
the questions the lock-graph analysis needs:

- which classes/functions exist, and who overrides what (so a call
  through an abstract base like ``Wrapper.start`` fans out to
  every concrete implementation);
- the inferred class of ``self.<attr>`` receivers — from ``AnnAssign``
  annotations, constructor calls in ``__init__``, annotated parameters
  assigned to attributes, and factory calls with return annotations
  (``WrapperRegistry.create() -> Wrapper``);
- where locks live.  A lock is an attribute or module global assigned
  ``threading.Lock()``/``RLock()`` or
  :func:`repro.concurrency.new_lock`.  Locks get stable class-qualified
  names (``"SourceRuntime._lock"``, ``"FlightRecorder._lock"``) — the same
  names the runtime witness uses, so the static and observed
  acquisition graphs are directly comparable.

Per function, :func:`ProgramIndex.events` extracts a linear summary of
what matters for deadlock analysis: lock acquisitions (``with``
statements over resolvable lock expressions), resolved calls (with the
locally held lock set), and *opaque* calls — calls whose target is not
in the index, classified by heuristics as potentially blocking
(``GSN502``) or as callback dispatch (``GSN503``).  The interprocedural
propagation over these summaries lives in
:mod:`repro.analysis.dataflow`, shared by every pass.

The index is deliberately flow-insensitive about types and syntactic
about locks: it exists to catch the lock-ordering bug class cheaply at
lint time, not to prove the program deadlock-free.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple,
)

if TYPE_CHECKING:
    from repro.analysis.rules import Report

LOCK_ORDER_COMMENT = re.compile(
    r"#\s*lock-order:\s*([A-Za-z_][\w.]*)\s*<\s*([A-Za-z_][\w.]*)"
)
SUPPRESS_COMMENT = re.compile(r"#\s*gsn-lint:\s*disable=([A-Z0-9,\s]+)")
REQUIRES_LOCK_COMMENT = re.compile(
    r"#\s*requires-lock:\s*([A-Za-z_][\w.]*)"
)
GUARDED_BY_COMMENT = re.compile(
    r"#\s*guarded-by:\s*([A-Za-z_][\w.]*)"
)
OWNED_BY_COMMENT = re.compile(
    r"#\s*owned-by:\s*([A-Za-z_][\w-]*)"
)

#: Attribute/global names that are treated as locks even without a
#: recognizable ``Lock()`` initializer (covers locks handed in through
#: constructor parameters, like ``SQLiteStreamTable._lock``).
_LOCKISH_NAME = re.compile(r"(^|_)(lock|mutex)$")

#: Terminal call names that block unconditionally.
BLOCKING_ALWAYS = frozenset({
    "sleep", "urlopen", "getresponse", "accept", "recv", "recvfrom",
    "sendall", "connect", "select",
})
#: ``<receiver>.join()`` blocks when the receiver looks like a thread
#: (string ``", ".join`` and ``os.path.join`` receivers do not match).
THREADISH = re.compile(r"thread|proc|worker|pool", re.IGNORECASE)
#: ``<queue>.get()`` / ``<queue>.put()`` block when unbounded.
QUEUEISH = re.compile(r"queue", re.IGNORECASE)
#: ``<connection>.commit()`` is durable I/O on a shared handle.
CONNECTIONISH = re.compile(r"conn|db\b|database", re.IGNORECASE)
#: Receivers/callees that look like user-supplied callbacks.
_DISPATCHY = re.compile(
    r"listener|callback|hook|observer|subscriber|handler|channel|notify",
    re.IGNORECASE,
)
#: Plain container/bookkeeping methods: mutating ``self._listeners`` (a
#: list of callbacks) is registry maintenance, not callback invocation.
_CONTAINER_METHODS = frozenset({
    "append", "remove", "pop", "popleft", "appendleft", "get", "add",
    "discard", "clear", "extend", "insert", "update", "setdefault",
    "keys", "values", "items", "index", "count", "copy", "sort",
})

#: ``<attr>.name()`` calls that mutate the receiver in place — these are
#: the collection writes the race pass (GSN8xx) cares about.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "extendleft", "insert",
    "remove", "discard", "clear", "update", "setdefault", "pop",
    "popleft", "popitem", "sort", "reverse", "rotate",
})

BLOCKING = "blocking"
DISPATCH = "dispatch"

# Access kinds (see :class:`Access`).
READ = "read"
WRITE = "write"
RMW = "rmw"          # read-modify-write: ``self.x += 1``
MUTATE = "mutate"    # in-place collection write: ``self.x[k] = v``
ITERATE = "iterate"  # ``for ... in self.x``


# --------------------------------------------------------------------------
# summary events
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Acquire:
    """``with <lock>:`` over a resolvable lock expression."""

    lock: str
    reentrant: bool
    held: Tuple[str, ...]  # locks already held locally at this point
    line: int


@dataclass(frozen=True)
class Call:
    """A call whose target(s) resolved to indexed functions."""

    targets: Tuple[str, ...]  # callee qualnames
    held: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class Opaque:
    """A call the index cannot resolve; judged by name heuristics."""

    desc: str          # rendered call text for messages
    kind: Optional[str]  # BLOCKING, DISPATCH, or None (inert)
    detail: str        # why the heuristic fired
    held: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class Await:
    """One ``await`` expression inside an async function.

    ``held`` is the locally held *sync* lock set at the await point —
    the input to the GSN902 (lock-held-across-await) judgement.
    """

    held: Tuple[str, ...]
    line: int


@dataclass(frozen=True)
class Access:
    """One read/write of an attribute on an indexed class.

    ``cls`` is the class *owning* the attribute (the receiver's static
    type), not the attribute's own type.  ``held`` is the locally held
    lock set — the race pass joins it with the interprocedurally
    propagated contexts to get the full held set at this point.
    """

    cls: str
    attr: str
    kind: str  # READ | WRITE | RMW | MUTATE | ITERATE
    held: Tuple[str, ...]
    line: int


Event = object  # Acquire | Call | Opaque | Access


@dataclass
class LockDecl:
    name: str       # class-qualified ("Pool._lock") or module ("m._lock")
    reentrant: bool
    path: str
    line: int


@dataclass
class FunctionInfo:
    qualname: str
    name: str
    module: str            # dotted module key ("vsensor.pool")
    path: str
    class_name: Optional[str]
    node: ast.AST
    lineno: int
    params: Dict[str, str] = field(default_factory=dict)
    returns: Optional[str] = None
    requires_attr: Optional[str] = None  # raw ``# requires-lock:`` name
    requires: Tuple[str, ...] = ()   # qualified lock names
    is_async: bool = False           # ``async def``
    events: List[Event] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    module: str
    path: str
    lineno: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname
    attr_types: Dict[str, str] = field(default_factory=dict)
    locks: Dict[str, LockDecl] = field(default_factory=dict)  # attr -> decl
    assigned: Set[str] = field(default_factory=set)
    # attr -> (declared guard name, line) from ``# guarded-by:`` comments.
    guards: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    # Attributes declared ``# owned-by: loop`` — single-owner event-loop
    # state: the async pass (GSN904) enforces that only loop-context
    # code writes them, and the race pass exempts them in exchange.
    loop_owned: Set[str] = field(default_factory=set)


@dataclass
class DeclaredEdge:
    """``# lock-order: A < B`` — A must be acquired before B."""

    before: str
    after: str
    path: str
    line: int


# --------------------------------------------------------------------------
# small AST helpers
# --------------------------------------------------------------------------

def annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of a type annotation.

    ``Optional["RowHistory"]`` → ``"RowHistory"``; containers
    (``List[...]``, ``Dict[...]``) yield ``None`` — element types are
    deliberately not propagated (see module docstring).
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip() or None
    if isinstance(node, ast.Subscript):
        head = annotation_class(node.value)
        if head == "Optional":
            return annotation_class(node.slice)
        return None
    return None


def receiver_chain(node: ast.AST) -> str:
    """Dotted receiver text for heuristics (``self.network.bus``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = receiver_chain(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Call):
        base = receiver_chain(node.func)
        return f"{base}()" if base else ""
    return ""


def callee_name(call: ast.Call) -> Optional[str]:
    """The name a call invokes: ``commit`` for ``self.db.commit()``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def call_has_bound(call: ast.Call) -> bool:
    """Whether a join/get/put/wait call carries a timeout-ish argument."""
    if call.args:
        return True
    return any(kw.arg in ("timeout", "block") for kw in call.keywords)


def self_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _lock_factory(value: ast.AST) -> Optional[Tuple[Optional[str], bool]]:
    """Recognize a lock-constructing expression.

    Returns ``(explicit_name, reentrant)`` — the name is non-None only
    for ``new_lock("...")`` calls, whose string argument is
    authoritative.
    """
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    callee = callee_name(value)
    if callee in ("Lock", "RLock"):
        # ``asyncio.Lock()`` is a coroutine-world primitive, not a
        # thread lock — registering it would pollute the lock graph
        # and the runtime witness naming.
        if isinstance(func, ast.Attribute) \
                and receiver_chain(func.value) == "asyncio":
            return None
        return None, callee == "RLock"
    if callee == "new_lock":
        name = None
        if value.args and isinstance(value.args[0], ast.Constant) \
                and isinstance(value.args[0].value, str):
            name = value.args[0].value
        reentrant = any(
            kw.arg == "reentrant" and isinstance(kw.value, ast.Constant)
            and bool(kw.value.value)
            for kw in value.keywords
        )
        return name, reentrant
    return None


def _comment_tokens(lines: List[str]) -> List[Tuple[int, str]]:
    """(line number, text) of every comment token in the source."""
    import io
    import tokenize
    reader = io.StringIO("\n".join(lines) + "\n").readline
    out: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                out.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError):
        pass  # the AST parse reports the syntax error properly
    return out


def module_key(path: str) -> str:
    """Dotted module key: package-relative under ``repro``, else stem."""
    parts = os.path.normpath(path).split(os.sep)
    if "repro" in parts:
        stem = [p for p in parts[parts.index("repro") + 1:] if p]
        if stem and stem[-1].endswith(".py"):
            stem[-1] = stem[-1][:-3]
        if stem:
            return ".".join(stem)
    return os.path.splitext(os.path.basename(path))[0]


# --------------------------------------------------------------------------
# the index
# --------------------------------------------------------------------------

class ProgramIndex:
    """Classes, functions, locks, and annotations of a set of sources."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        # (module, local name) -> function qualname, for bare-name calls.
        self.module_functions: Dict[Tuple[str, str], str] = {}
        # (module, global name) -> module-level lock.
        self.module_locks: Dict[Tuple[str, str], LockDecl] = {}
        self.subclasses: Dict[str, List[str]] = {}
        self.declared_order: List[DeclaredEdge] = []
        # path -> line -> suppressed rule ids.
        self.suppressions: Dict[str, Dict[int, Set[str]]] = {}
        # path -> line -> declared guard name (``# guarded-by:``).
        self.guard_comments: Dict[str, Dict[int, str]] = {}
        # path -> line -> owner domain (``# owned-by: loop``).
        self.owned_comments: Dict[str, Dict[int, str]] = {}
        self.parse_errors: List[Tuple[str, str]] = []
        # qualname -> dataflow.Resolver, built on first use and shared
        # by every pass over this index.
        self.resolvers: Dict[str, Any] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[str]) -> "ProgramIndex":
        index = cls()
        parsed: List[Tuple[str, str, ast.Module, List[str]]] = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                index.parse_errors.append((path, str(exc)))
                continue
            lines = source.splitlines()
            parsed.append((path, module_key(path), tree, lines))
            index._collect_comments(path, lines)
        for path, module, tree, lines in parsed:
            index._collect_module(path, module, tree, lines)
        index._infer_attr_types()
        for name, info in index.classes.items():
            for base in info.bases:
                index.subclasses.setdefault(base, []).append(name)
        index._resolve_requires()
        for path, module, tree, lines in parsed:
            index._scan_bodies(path)
        return index

    def report_parse_errors(self, report: "Report") -> None:
        """GSN100 for every source the index could not parse."""
        for path, error in self.parse_errors:
            report.add("GSN100", f"cannot parse python source: {error}",
                       location=path, source=path)

    def _resolve_requires(self) -> None:
        # Resolved after lock inference so annotations naming a lock
        # declared in a base class pick up the declaring class's name.
        # Annotations may use the bare attribute (``_lock``) or the
        # registry-qualified name (``WorkerPool._lock``) — either way the
        # tail is the attribute the lock lives in.
        for info in self.functions.values():
            attr = info.requires_attr
            if attr is None:
                continue
            tail = attr.rsplit(".", 1)[-1]
            if info.class_name is not None:
                decl = self.lock_for_attr(info.class_name, tail)
                info.requires = (decl.name,) if decl is not None \
                    else (f"{info.class_name}.{tail}",)
            else:
                decl_m = self.module_locks.get((info.module, tail))
                if decl_m is not None:
                    info.requires = (decl_m.name,)

    def _collect_comments(self, path: str, lines: List[str]) -> None:
        # Real COMMENT tokens only — the annotation vocabulary shows up
        # verbatim inside docstrings (not least this package's own), and
        # those must not declare edges or suppress findings.
        for lineno, text in _comment_tokens(lines):
            order = LOCK_ORDER_COMMENT.search(text)
            if order:
                self.declared_order.append(
                    DeclaredEdge(order.group(1), order.group(2), path, lineno)
                )
            suppress = SUPPRESS_COMMENT.search(text)
            if suppress:
                rules = {r.strip() for r in suppress.group(1).split(",")
                         if r.strip()}
                self.suppressions.setdefault(path, {}) \
                    .setdefault(lineno, set()).update(rules)
            guard = GUARDED_BY_COMMENT.search(text)
            if guard:
                self.guard_comments.setdefault(path, {})[lineno] = \
                    guard.group(1)
            owned = OWNED_BY_COMMENT.search(text)
            if owned:
                self.owned_comments.setdefault(path, {})[lineno] = \
                    owned.group(1)

    def _collect_module(self, path: str, module: str, tree: ast.Module,
                        lines: List[str]) -> None:
        short = module.split(".")[-1]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(node.name, module, path, node.lineno,
                                 bases=tuple(
                                     b.id if isinstance(b, ast.Name) else b.attr
                                     for b in node.bases
                                     if isinstance(b, (ast.Name, ast.Attribute))
                                 ))
                self.classes[node.name] = info
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qualname = f"{node.name}.{item.name}"
                        info.methods[item.name] = qualname
                        self._register_function(qualname, item, module,
                                                path, node.name, lines)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module}.{node.name}"
                self._register_function(qualname, node, module, path,
                                        None, lines)
                self.module_functions[(module, node.name)] = qualname
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                factory = _lock_factory(node.value)
                if factory is not None:
                    explicit, reentrant = factory
                    name = explicit or f"{short}.{target}"
                    self.module_locks[(module, target)] = LockDecl(
                        name, reentrant, path, node.lineno
                    )
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("repro"):
                source_module = node.module[len("repro"):].lstrip(".")
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.module_functions.setdefault(
                        (module, local),
                        f"{source_module}.{alias.name}"
                    )

    def _register_function(self, qualname: str, node: ast.AST, module: str,
                           path: str, class_name: Optional[str],
                           lines: List[str]) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        info = FunctionInfo(qualname, node.name, module, path, class_name,
                            node, node.lineno,
                            is_async=isinstance(node, ast.AsyncFunctionDef))
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            declared = annotation_class(arg.annotation)
            if declared:
                info.params[arg.arg] = declared
        info.returns = annotation_class(node.returns)
        if 1 <= node.lineno <= len(lines):
            match = REQUIRES_LOCK_COMMENT.search(lines[node.lineno - 1])
            if match:
                info.requires_attr = match.group(1)
        self.functions[qualname] = info

    # -- attribute types and locks ----------------------------------------

    def _infer_attr_types(self) -> None:
        # Two rounds so one level of aliasing (``self.a = self.b``)
        # resolves regardless of declaration order.
        for _round in range(2):
            for info in self.functions.values():
                if info.class_name is None:
                    continue
                cls = self.classes[info.class_name]
                self._infer_in_method(cls, info)

    def _infer_in_method(self, cls: ClassInfo, info: FunctionInfo) -> None:
        assert isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(info.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            declared: Optional[str] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                declared = annotation_class(node.annotation)
            else:
                continue
            attr = self_attr(target)
            if attr is None:
                continue
            cls.assigned.add(attr)
            guard = self.guard_comments.get(info.path, {}).get(node.lineno)
            if guard is not None:
                cls.guards.setdefault(attr, (guard, node.lineno))
            owned = self.owned_comments.get(info.path, {}).get(node.lineno)
            if owned == "loop":
                cls.loop_owned.add(attr)
            if declared:
                cls.attr_types.setdefault(attr, declared)
            if value is not None:
                factory = _lock_factory(value)
                if factory is not None:
                    explicit, reentrant = factory
                    name = explicit or f"{cls.name}.{attr}"
                    cls.locks.setdefault(attr, LockDecl(
                        name, reentrant, info.path, node.lineno
                    ))
                    continue
                inferred = self._infer_value_type(value, cls, info)
                if inferred:
                    cls.attr_types.setdefault(attr, inferred)

    def _infer_value_type(self, value: ast.AST, cls: ClassInfo,
                          info: FunctionInfo) -> Optional[str]:
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id in self.classes:
                return func.id
            resolved = self._function_for_call(func, info)
            if resolved is not None and resolved.returns in self.classes:
                return resolved.returns
            return None
        if isinstance(value, ast.Name):
            return info.params.get(value.id)
        attr = self_attr(value)
        if attr is not None:
            return self.attr_type(cls.name, attr)
        return None

    def _function_for_call(self, func: ast.AST,
                           info: FunctionInfo) -> Optional[FunctionInfo]:
        """Resolve a call's *func* expression to one indexed function."""
        if isinstance(func, ast.Name):
            qualname = self.module_functions.get((info.module, func.id))
            return self.functions.get(qualname) if qualname else None
        if isinstance(func, ast.Attribute):
            attr = self_attr(func)
            if attr is not None and info.class_name is not None:
                targets = self.resolve_method(info.class_name, func.attr)
                if targets:
                    return self.functions[targets[0]]
        return None

    # -- lookup ------------------------------------------------------------

    def mro(self, class_name: str) -> List[ClassInfo]:
        """The known part of a class's MRO (C3 is overkill here)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen or name not in self.classes:
                continue
            seen.add(name)
            info = self.classes[name]
            out.append(info)
            queue.extend(info.bases)
        return out

    def method_of(self, info: FunctionInfo, base: str) -> bool:
        """Whether ``info`` is a method of a class with a base whose name
        contains ``base`` (``"Thread"``, ``"Handler"``)."""
        cls = self.classes.get(info.class_name or "")
        return cls is not None and any(base in name for name in cls.bases)

    def loop_owned(self, class_name: str, attr: str) -> bool:
        """Whether ``attr`` is declared ``# owned-by: loop`` on the class
        or a base."""
        return any(attr in info.loop_owned for info in self.mro(class_name))

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        for info in self.mro(class_name):
            declared = info.attr_types.get(attr)
            if declared:
                return declared
        return None

    def lock_for_attr(self, class_name: str, attr: str) -> Optional[LockDecl]:
        """The lock behind ``self.<attr>`` in ``class_name``, if any.

        Falls back to a synthesized declaration for lock-ish attribute
        names that are assigned but not recognizably constructed (locks
        injected through parameters keep their own class-qualified name
        — that aliasing is declared in ``LOCK_ORDER`` instead).
        """
        for info in self.mro(class_name):
            decl = info.locks.get(attr)
            if decl is not None:
                return decl
        if _LOCKISH_NAME.search(attr):
            for info in self.mro(class_name):
                if attr in info.assigned:
                    return LockDecl(f"{info.name}.{attr}", False,
                                    info.path, info.lineno)
        return None

    def resolve_method(self, class_name: str, method: str) -> List[str]:
        """Callee qualnames for ``<obj of class_name>.method()``.

        The defining class's implementation plus every override in the
        (transitive) subclasses of the *static* receiver type — the
        sound fan-out for calls through an abstract base.
        """
        targets: List[str] = []
        for info in self.mro(class_name):
            qualname = info.methods.get(method)
            if qualname is not None:
                targets.append(qualname)
                break
        queue = list(self.subclasses.get(class_name, ()))
        seen: Set[str] = set()
        while queue:
            sub = queue.pop(0)
            if sub in seen:
                continue
            seen.add(sub)
            sub_info = self.classes.get(sub)
            if sub_info is None:
                continue
            qualname = sub_info.methods.get(method)
            if qualname is not None and qualname not in targets:
                targets.append(qualname)
            queue.extend(self.subclasses.get(sub, ()))
        return targets

    # -- function body scanning -------------------------------------------

    def _scan_bodies(self, path: str) -> None:
        for info in list(self.functions.values()):
            if info.path != path or getattr(info, "_scanned", False):
                continue
            scanner = _Scanner(self, info)
            scanner.run()

    def events(self, qualname: str) -> List[Event]:
        info = self.functions.get(qualname)
        return info.events if info is not None else []


class Resolution:
    """Static types and call targets inside one function.

    The index's scanner resolves in statement order, as locals get
    bound; :class:`repro.analysis.dataflow.Resolver` resolves over the
    whole function at once, for the passes.
    """

    def __init__(self, index: ProgramIndex, info: FunctionInfo) -> None:
        self.index = index
        self.info = info
        self.locals: Dict[str, str] = dict(info.params)

    def nested_function(self, name: str) -> Optional[str]:
        """The qualname of the nested def a bare ``name`` calls, if any."""
        raise NotImplementedError

    def targets_of(self, call: ast.Call) -> Sequence[str]:
        return self.resolve(call)

    def type_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.info.class_name
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None:
                return self.index.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in self.index.classes:
                return func.id
            targets = self.targets_of(expr)
            if targets:
                returns = self.index.functions[targets[0]].returns
                if returns in self.index.classes:
                    return returns
        return None

    def resolve(self, call: ast.Call) -> List[str]:
        func = call.func
        if isinstance(func, ast.Name):
            nested = self.nested_function(func.id)
            if nested is not None:
                return [nested]
            if func.id in self.locals:
                return []  # a callable local: opaque
            if func.id in self.index.classes:
                init = self.index.classes[func.id].methods.get("__init__")
                return [init] if init else []
            qualname = self.index.module_functions.get(
                (self.info.module, func.id)
            )
            if qualname and qualname in self.index.functions:
                return [qualname]
            return []
        if isinstance(func, ast.Attribute):
            owner = self.type_of(func.value)
            if owner is not None:
                return [t for t in
                        self.index.resolve_method(owner, func.attr)
                        if t in self.index.functions]
        return []


class _Scanner(ast.NodeVisitor, Resolution):
    """Extracts one function's event summary, registering nested defs."""

    def __init__(self, index: ProgramIndex, info: FunctionInfo,
                 locals_seed: Optional[Dict[str, str]] = None) -> None:
        Resolution.__init__(self, index, info)
        self.held: List[str] = []
        if locals_seed:
            self.locals.update(locals_seed)
        self.nested: Dict[str, str] = {}
        # Attribute nodes already recorded by a structural handler
        # (call receiver, subscript base, loop iterable) — visiting them
        # again as a plain Load must not double-count.
        self._consumed: Set[int] = set()
        # Call nodes that are directly awaited: ``await x.wait()``
        # suspends the coroutine, it does not block the thread, so the
        # blocking heuristics must not fire on them.
        self._awaited: Set[int] = set()

    def run(self) -> None:
        setattr(self.info, "_scanned", True)
        node = self.info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for statement in node.body:
            self.visit(statement)

    # -- type/lock resolution ----------------------------------------------

    def nested_function(self, name: str) -> Optional[str]:
        return self.nested.get(name)

    def _lock_of(self, expr: ast.AST) -> Optional[Tuple[str, bool]]:
        """Resolve a ``with`` context expression to a named lock."""
        if isinstance(expr, ast.Name):
            decl = self.index.module_locks.get((self.info.module, expr.id))
            if decl is not None:
                return decl.name, decl.reentrant
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.type_of(expr.value)
            if owner is not None:
                decl = self.index.lock_for_attr(owner, expr.attr)
                if decl is not None:
                    return decl.name, decl.reentrant
            return None
        return None

    # -- attribute accesses (race pass input) ------------------------------

    def _attr_ref(self, expr: ast.AST) -> Optional[Tuple[str, str]]:
        """``(owning class, attr)`` when ``expr`` is data state on an
        indexed class — lock objects and bound-method references are
        not data and resolve to ``None``."""
        if not isinstance(expr, ast.Attribute):
            return None
        owner = self.type_of(expr.value)
        if owner is None or owner not in self.index.classes:
            return None
        attr = expr.attr
        if self.index.lock_for_attr(owner, attr) is not None:
            return None
        for cls in self.index.mro(owner):
            if attr in cls.methods:
                return None
        return owner, attr

    def _record(self, ref: Tuple[str, str], kind: str, line: int) -> None:
        self.info.events.append(
            Access(ref[0], ref[1], kind, tuple(self.held), line)
        )

    def _record_store(self, target: ast.AST, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, line)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, line)
            return
        if isinstance(target, ast.Subscript):
            ref = self._attr_ref(target.value)
            if ref is not None:
                self._record(ref, MUTATE, line)
                self._consumed.add(id(target.value))
            return
        ref = self._attr_ref(target)
        if ref is not None:
            self._record(ref, WRITE, line)

    # -- visitors ----------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            lock = self._lock_of(item.context_expr)
            if lock is None:
                self.visit(item.context_expr)
                continue
            name, reentrant = lock
            self.info.events.append(
                Acquire(name, reentrant, tuple(self.held),
                        item.context_expr.lineno)
            )
            if name not in self.held:
                self.held.append(name)
                acquired.append(name)
        for statement in node.body:
            self.visit(statement)
        for name in acquired:
            self.held.remove(name)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            ref = self._attr_ref(func.value)
            if ref is not None:
                kind = MUTATE if func.attr in MUTATOR_METHODS else READ
                if kind == MUTATE:
                    # ``self.sink.add(x)`` where ``add`` is a *method* of
                    # the receiver's indexed class is a call into code
                    # with its own discipline, not a raw collection
                    # mutation of the attribute.
                    recv_type = self.type_of(func.value)
                    if recv_type is not None and any(
                            func.attr in cls.methods
                            for cls in self.index.mro(recv_type)):
                        kind = READ
                self._record(ref, kind, node.lineno)
                self._consumed.add(id(func.value))
        targets = self.resolve(node)
        if targets:
            self.info.events.append(
                Call(tuple(targets), tuple(self.held), node.lineno)
            )
        else:
            self._opaque(node)
        self.generic_visit(node)

    def _opaque(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            chain = receiver_chain(func.value)
        elif isinstance(func, ast.Name):
            name, chain = func.id, ""
        else:
            return
        desc = f"{chain}.{name}" if chain else name
        kind, detail = self._classify(name, chain, node)
        if kind == BLOCKING and id(node) in self._awaited:
            kind, detail = None, ""
        self.info.events.append(
            Opaque(desc, kind, detail, tuple(self.held), node.lineno)
        )

    def _classify(self, name: str, chain: str,
                  node: ast.Call) -> Tuple[Optional[str], str]:
        if name in BLOCKING_ALWAYS:
            return BLOCKING, f"{name}() blocks unconditionally"
        if name == "join" and THREADISH.search(chain) \
                and not call_has_bound(node):
            return BLOCKING, "join() on a thread without a timeout"
        if name in ("get", "put") and QUEUEISH.search(chain) \
                and not call_has_bound(node):
            return BLOCKING, f"unbounded queue {name}()"
        if name == "wait" and not call_has_bound(node):
            return BLOCKING, "wait() without a timeout"
        if name == "commit" and CONNECTIONISH.search(chain):
            return BLOCKING, "commit on a shared database connection"
        if name not in _CONTAINER_METHODS and (
                _DISPATCHY.search(name) or _DISPATCHY.search(chain)):
            return DISPATCH, "call into listener/callback code"
        return None, ""

    def visit_Await(self, node: ast.Await) -> None:
        self.info.events.append(Await(tuple(self.held), node.lineno))
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            inferred = self.type_of(node.value)
            if inferred is not None:
                self.locals[node.targets[0].id] = inferred
        for target in node.targets:
            self._record_store(target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            declared = annotation_class(node.annotation)
            if declared:
                self.locals[node.target.id] = declared
        if node.value is not None:
            self._record_store(node.target, node.lineno)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript):
            ref = self._attr_ref(target.value)
            if ref is not None:
                self._record(ref, MUTATE, node.lineno)
                self._consumed.add(id(target.value))
        else:
            ref = self._attr_ref(target)
            if ref is not None:
                self._record(ref, RMW, node.lineno)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                ref = self._attr_ref(target.value)
                if ref is not None:
                    self._record(ref, MUTATE, node.lineno)
                    self._consumed.add(id(target.value))
            else:
                ref = self._attr_ref(target)
                if ref is not None:
                    self._record(ref, WRITE, node.lineno)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        ref = self._attr_ref(node.iter)
        if ref is not None:
            self._record(ref, ITERATE, node.iter.lineno)
            self._consumed.add(id(node.iter))
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and id(node) not in self._consumed:
            ref = self._attr_ref(node)
            if ref is not None:
                self._record(ref, READ, node.lineno)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def is its own analysis root: it usually escapes as a
        # callback, so it runs with whatever its *caller* holds — not
        # with the locks held at its definition site.
        qualname = f"{self.info.qualname}.{node.name}"
        nested = FunctionInfo(
            qualname, node.name, self.info.module, self.info.path,
            self.info.class_name, node, node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            declared = annotation_class(arg.annotation)
            if declared:
                nested.params[arg.arg] = declared
        self.index.functions[qualname] = nested
        self.nested[node.name] = qualname
        scanner = _Scanner(self.index, nested, locals_seed=self.locals)
        scanner.nested = self.nested
        scanner.run()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # A lambda is a deferred closure: it runs when invoked, not where
        # it is defined, so its body is scanned with an empty held set
        # (mirroring nested ``def``s). Calls inside it still enter the
        # graph — just not under the locks of the defining scope.
        outer_held, self.held = self.held, []
        try:
            self.visit(node.body)
        finally:
            self.held = outer_held

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # local classes: out of scope
