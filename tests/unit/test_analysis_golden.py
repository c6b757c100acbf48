"""The analysis passes reproduce their frozen behaviour byte for byte.

``analysis_golden.json`` holds gsn-lint's ``--all`` JSON output over
``src/repro`` and ``examples/bad``, the deadlock pass's DOT graph, every
pass's suppression count, and the facts each pass solves (see
:mod:`tests.unit.analysis_golden`). One :class:`ProgramIndex` over
``src/repro`` is shared by all four passes here.
"""

from __future__ import annotations

import difflib

from tests.unit.analysis_golden import GOLDEN, ROOT, build_index, render


def test_analysis_matches_the_golden_file(monkeypatch):
    monkeypatch.chdir(ROOT)
    rendered = render(build_index())
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        golden = handle.read()
    if rendered != golden:
        diff = difflib.unified_diff(
            golden.splitlines(), rendered.splitlines(),
            "analysis_golden.json", "rendered", lineterm="", n=1)
        raise AssertionError("\n".join(list(diff)[:80]))
