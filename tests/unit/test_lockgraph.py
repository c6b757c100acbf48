"""Unit tests for the interprocedural lock-order analysis (GSN5xx):
the call-graph builder, the held-locks propagation, the cycle detector,
and the annotation vocabulary."""

import textwrap

from repro.analysis.callgraph import Call, DeclaredEdge, ProgramIndex
from repro.analysis.dataflow import expand_paths
from repro.analysis.lockgraph import EdgeSite, LockGraph, analyze_deadlocks


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


def run(tmp_path, name, source):
    # include_sanctioned=False keeps repro's own LOCK_ORDER out of
    # these hermetic single-file fixtures.
    path = write(tmp_path, name, source)
    return analyze_deadlocks([path], include_sanctioned=False)


def rules(report):
    return [f.rule_id for f in report.findings]


class TestLockGraphCycles:
    def test_two_node_cycle(self):
        graph = LockGraph()
        site = EdgeSite("f", "x.py", 1)
        graph.add("A", "B", site)
        graph.add("B", "A", site)
        cycles = graph.cycles()
        assert len(cycles) == 1
        assert cycles[0][0] == cycles[0][-1]
        assert set(cycles[0]) == {"A", "B"}

    def test_acyclic_chain(self):
        graph = LockGraph()
        site = EdgeSite("f", "x.py", 1)
        graph.add("A", "B", site)
        graph.add("B", "C", site)
        assert graph.cycles() == []

    def test_declared_edges_participate(self):
        graph = LockGraph()
        graph.add("A", "B", EdgeSite("f", "x.py", 1))
        graph.declared.append(DeclaredEdge("B", "A", "x.py", 2))
        assert len(graph.cycles()) == 1

    def test_to_dot_lists_nodes_and_edges(self):
        graph = LockGraph()
        graph.add("A", "B", EdgeSite("f", "x.py", 1))
        dot = graph.to_dot()
        assert dot.startswith("digraph lock_order")
        assert '"A" -> "B"' in dot


class TestCallGraphBuilder:
    def test_method_resolution_via_attribute_annotation(self, tmp_path):
        path = write(tmp_path, "resolve.py", """\
            class Helper:
                def work(self):
                    return 1

            class Owner:
                def __init__(self):
                    self.helper: Helper = Helper()

                def go(self):
                    self.helper.work()
            """)
        index = ProgramIndex.build([path])
        calls = [e for e in index.events("Owner.go")
                 if isinstance(e, Call)]
        assert calls and calls[0].targets == ("Helper.work",)

    def test_subclass_override_fanout(self, tmp_path):
        path = write(tmp_path, "fanout.py", """\
            class Base:
                def run(self):
                    pass

            class Sub(Base):
                def run(self):
                    pass
            """)
        index = ProgramIndex.build([path])
        targets = index.resolve_method("Base", "run")
        assert "Base.run" in targets and "Sub.run" in targets

    def test_requires_lock_resolves_to_declaring_class(self, tmp_path):
        path = write(tmp_path, "req.py", """\
            import threading

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()

            class Child(Base):
                def helper(self):  # requires-lock: _lock
                    pass
            """)
        index = ProgramIndex.build([path])
        assert index.functions["Child.helper"].requires == ("Base._lock",)

    def test_mutual_recursion_terminates(self, tmp_path):
        report, __ = run(tmp_path, "rec.py", """\
            def ping(n):
                return pong(n - 1)

            def pong(n):
                return ping(n - 1)
            """)
        assert report.ok

    def test_docstring_annotations_are_inert(self, tmp_path):
        # The vocabulary quoted in prose must not declare edges or
        # suppress findings; only real comments count.
        path = write(tmp_path, "doc.py", '''\
            """Mentions # lock-order: doc.A < doc.B in a docstring."""
            import threading

            A = threading.Lock()
            B = threading.Lock()
            ''')
        index = ProgramIndex.build([path])
        assert index.declared_order == []


class TestDeadlockFindings:
    def test_gsn501_inconsistent_order_across_functions(self, tmp_path):
        report, __ = run(tmp_path, "cyc.py", """\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forward():
                with A:
                    with B:
                        pass

            def backward():
                with B:
                    with A:
                        pass
            """)
        assert rules(report) == ["GSN501"]

    def test_gsn501_from_declared_order_comment(self, tmp_path):
        report, __ = run(tmp_path, "decl.py", """\
            import threading

            A = threading.Lock()
            B = threading.Lock()
            # lock-order: decl.B < decl.A

            def f():
                with A:
                    with B:
                        pass
            """)
        assert rules(report) == ["GSN501"]

    def test_gsn502_blocking_reached_through_a_call(self, tmp_path):
        # The interprocedural case: the sleep is in a helper that never
        # mentions the lock.
        report, __ = run(tmp_path, "block.py", """\
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    time.sleep(0.5)
            """)
        assert rules(report) == ["GSN502"]
        assert "Worker._lock" in report.findings[0].message

    def test_gsn502_via_requires_lock_annotation(self, tmp_path):
        report, __ = run(tmp_path, "reqblock.py", """\
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def helper(self):  # requires-lock: _lock
                    time.sleep(0.5)
            """)
        assert rules(report) == ["GSN502"]

    def test_gsn503_dispatch_under_lock(self, tmp_path):
        report, __ = run(tmp_path, "disp.py", """\
            import threading

            class Bus:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._subs = []

                def fire(self, payload):
                    with self._lock:
                        for listener in self._subs:
                            listener.notify(payload)
            """)
        assert rules(report) == ["GSN503"]

    def test_registry_maintenance_is_not_dispatch(self, tmp_path):
        # Mutating a list *of* listeners under the lock is bookkeeping,
        # not a callback invocation.
        report, __ = run(tmp_path, "reg.py", """\
            import threading

            class Bus:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._listeners = []

                def add(self, cb):
                    with self._lock:
                        self._listeners.append(cb)

                def drop(self, cb):
                    with self._lock:
                        self._listeners.remove(cb)
            """)
        assert report.ok

    def test_lambda_body_escapes_defining_lock_scope(self, tmp_path):
        # A lambda built under a lock runs later, when the lock is no
        # longer held; its body must not inherit the held set.
        report, __ = run(tmp_path, "lam.py", """\
            import threading
            import time

            class Deferred:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._thunks = []

                def schedule(self):
                    with self._lock:
                        self._thunks.append(lambda: time.sleep(1.0))
            """)
        assert report.ok

    def test_gsn504_reacquire_through_helper(self, tmp_path):
        report, __ = run(tmp_path, "self.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        self.read()

                def read(self):
                    with self._lock:
                        return 0
            """)
        assert rules(report) == ["GSN504"]

    def test_reentrant_lock_reacquire_is_fine(self, tmp_path):
        report, __ = run(tmp_path, "rlock.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.RLock()

                def bump(self):
                    with self._lock:
                        self.read()

                def read(self):
                    with self._lock:
                        return 0
            """)
        assert report.ok

    def test_suppression_comment_silences_finding(self, tmp_path):
        report, __ = run(tmp_path, "supp.py", """\
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def pause(self):
                    with self._lock:
                        time.sleep(0.1)  # gsn-lint: disable=GSN502
            """)
        assert report.ok

    def test_expand_paths_walks_directories(self, tmp_path):
        write(tmp_path, "one.py", "x = 1\n")
        write(tmp_path, "two.py", "y = 2\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("z = 3\n")
        found = expand_paths([str(tmp_path)])
        assert [p.rsplit("/", 1)[-1] for p in found] == ["one.py", "two.py"]

    def test_parse_error_reports_gsn100(self, tmp_path):
        report, __ = run(tmp_path, "broken.py", "def oops(:\n")
        assert rules(report) == ["GSN100"]
