"""The analysis suite's frozen behaviour, rendered as one JSON document.

``render()`` runs gsn-lint the way CI does and dumps what the
interprocedural passes solve, so a refactor of the passes can be
checked byte for byte against ``analysis_golden.json``:

- ``python -m repro.analysis --all --format json`` over ``src/repro``
  and over ``examples/bad`` (exit code and stdout lines);
- the ``--deadlock --graph`` DOT text over ``src/repro``;
- each pass's ``suppressed_count`` over ``src/repro``;
- the solved facts over ``src/repro``: held-lock contexts per function
  (deadlock and race passes), the race pass's entry points and entry
  reachability, the flow pass's exception summaries, and the async
  pass's loop context and loop bootstraps.

``--all`` over ``src/repro`` reports no finding, which is why the
solved facts are pinned as well. Regenerate (only when behaviour is
meant to change) from the repository root with::

    PYTHONPATH=src python -m tests.unit.analysis_golden \\
        > tests/unit/analysis_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Dict, Iterable, List, Set

from repro.analysis import cli
from repro.analysis.asyncgraph import AsyncAnalysis
from repro.analysis.callgraph import ProgramIndex
from repro.analysis.dataflow import expand_paths
from repro.analysis.flowgraph import FlowAnalysis
from repro.analysis.lockgraph import DeadlockAnalysis
from repro.analysis.racegraph import RaceAnalysis
from repro.concurrency import LOCK_ORDER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
GOLDEN = os.path.join(ROOT, "tests", "unit", "analysis_golden.json")
SOURCES = os.path.join("src", "repro")
BAD = os.path.join("examples", "bad")


def _cli(*argv: str) -> Dict[str, object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return {"exit": status, "stdout": out.getvalue().splitlines()}


def _runtime(index: ProgramIndex, qualname: str) -> bool:
    """Whether the function belongs to the runtime the passes judge.

    The facts leave out the analysis package itself and the lock
    factory its witnesses install through (``concurrency``): they pin
    how the passes judge the runtime, not the analyzer's own source.
    """
    module = index.functions[qualname].module
    return module != "concurrency" and not module.startswith("analysis.")


def _contexts(index: ProgramIndex, table: Dict[str, Set[frozenset]]
              ) -> Dict[str, List[List[str]]]:
    return {name: sorted(sorted(ctx) for ctx in contexts)
            for name, contexts in table.items() if _runtime(index, name)}


def _sets(index: ProgramIndex, table: Dict[str, Iterable[str]]
          ) -> Dict[str, List[str]]:
    return {name: sorted(values) for name, values in table.items()
            if _runtime(index, name)}


def render(index: ProgramIndex) -> str:
    """The golden document; ``index`` must be built over ``src/repro``
    with the working directory at the repository root."""
    deadlock = DeadlockAnalysis(index, sanctioned=LOCK_ORDER)
    deadlock.run()
    flow = FlowAnalysis(index)
    flow.run()
    race = RaceAnalysis(index)
    race.run()
    loop = AsyncAnalysis(index)
    loop.run()
    doc = {
        "cli_all_json": {
            SOURCES: _cli("--all", "--format", "json", SOURCES),
            BAD: _cli("--all", "--format", "json", BAD),
        },
        "deadlock_graph_dot": deadlock.graph.to_dot().splitlines(),
        "suppressed_count": {
            "deadlock": deadlock.suppressed_count,
            "flow": flow.suppressed_count,
            "race": race.suppressed_count,
            "async": loop.suppressed_count,
        },
        "facts": {
            "deadlock_contexts": _contexts(index, deadlock.contexts),
            "race_contexts": _contexts(index, race.contexts),
            "race_entries": sorted(
                [e.id, e.kind, e.qualname, e.line] for e in race.entries
                if _runtime(index, e.qualname)),
            "race_reaching": _sets(index, race.reaching),
            "flow_summaries": _sets(index, flow.summaries),
            "async_loop_context": _sets(index, loop.reaching),
            "async_bootstrap": sorted(
                q for q in loop.bootstrap if _runtime(index, q)),
        },
    }
    return "\n".join(_render(doc, "")) + "\n"


#: Lists written one item per line; every other list is one line, so a
#: fact table reads one function per line.
_LINED = ("stdout", "deadlock_graph_dot", "race_entries")


def _render(value: object, pad: str, lined: bool = False) -> List[str]:
    if isinstance(value, dict):
        items = sorted(value.items())
        opener, closer, inner = "{", "}", pad + " "
        lines = [opener]
        for i, (key, item) in enumerate(items):
            head = f"{inner}{json.dumps(key)}: "
            body = _render(item, inner, key in _LINED)
            body[0] = head + body[0]
            if i < len(items) - 1:
                body[-1] += ","
            lines.extend(body)
        return lines + [pad + closer]
    if lined and isinstance(value, list):
        inner = pad + " "
        body = [inner + json.dumps(item) + "," for item in value]
        if body:
            body[-1] = body[-1][:-1]
        return ["["] + body + [pad + "]"]
    return [json.dumps(value)]


def build_index() -> ProgramIndex:
    return ProgramIndex.build(expand_paths([SOURCES]))


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.stdout.write(render(build_index()))
