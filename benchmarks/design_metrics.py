#!/usr/bin/env python3
"""Design counts of the source tree, written to ``BENCH_design.json``.

Code size and path counts are tracked outcomes like speed. This script
reads them off the files with the standard library's ``ast`` and
``tokenize`` — it never imports ``repro`` — so the numbers are what the
tree says, not what a run happened to touch:

- ``lines``: source lines (as ``wc -l`` counts them) per package under
  ``src/repro`` — modules directly in it count under ``repro`` — and in
  total;
- ``exec_sites``: calls of the builtin ``exec`` in ``src/repro``;
- ``lint_suppressions``: ``# gsn-lint: disable`` comments in
  ``src/repro``;
- ``env_names``: the ``GSN_*`` environment variables read through
  ``os.environ`` / ``os.getenv`` anywhere in ``src/``, ``tests/`` and
  ``benchmarks/``;
- ``incremental_parameters``: function parameters, attribute stores
  and annotated fields named ``incremental`` in ``src/repro``. The
  per-sensor ``incremental=`` knob is deleted (sums are exact on every
  path); the recorded 0 is the ceiling that keeps it from returning.

``python benchmarks/design_metrics.py`` re-records the file (never edit
it by hand); ``check_micro.py`` fails when a count exceeds the recorded
one, so a count rises only with a re-record and a line in CHANGES.md
saying why.
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys
import tokenize
from typing import Dict, Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
DESIGN_PATH = os.path.join(ROOT, "BENCH_design.json")
_ENV_NAME = re.compile(r"GSN_[A-Z0-9_]+\Z")


def _python_files(top: str) -> Iterator[str]:
    for directory, subdirs, files in os.walk(top):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _env_reads(tree: ast.AST) -> Iterator[str]:
    """String constants read as environment keys: ``os.environ[k]``,
    ``os.environ.get(k)`` and ``os.getenv(k)``."""
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript) \
                and _dotted(node.value).endswith("environ"):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.func, ast.Attribute):
            owner = _dotted(node.func.value)
            if node.func.attr == "getenv" or (
                    owner.endswith("environ") and node.func.attr in (
                        "get", "pop", "setdefault")):
                key = node.args[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                and _ENV_NAME.match(key.value):
            yield key.value


def _suppressions(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(
            1 for token in tokenize.tokenize(handle.readline)
            if token.type == tokenize.COMMENT
            and "gsn-lint: disable" in token.string)


def measure() -> Dict[str, object]:
    """Every design count of the tree as it is on disk."""
    lines: Dict[str, int] = {}
    exec_sites = suppressions = incremental = 0
    for path in _python_files(PACKAGE):
        relative = os.path.relpath(path, PACKAGE).split(os.sep)
        package = relative[0] if len(relative) > 1 else "repro"
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        lines[package] = lines.get(package, 0) + text.count("\n")
        tree = ast.parse(text, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "exec":
                exec_sites += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                incremental += sum(
                    1 for arg in (args.posonlyargs + args.args
                                  + args.kwonlyargs)
                    if arg.arg == "incremental")
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                incremental += node.attr == "incremental"
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                incremental += node.target.id == "incremental"
        suppressions += _suppressions(path)
    lines["total"] = sum(lines.values())
    env_names = set()
    for top in ("src", "tests", "benchmarks"):
        for path in _python_files(os.path.join(ROOT, top)):
            with open(path, encoding="utf-8") as handle:
                env_names.update(_env_reads(ast.parse(handle.read(), path)))
    return {
        "lines": dict(sorted(lines.items())),
        "exec_sites": exec_sites,
        "lint_suppressions": suppressions,
        "env_names": sorted(env_names),
        "incremental_parameters": incremental,
    }


def counts(design: Dict[str, object]) -> List[Tuple[str, int]]:
    """The design as flat ``(name, count)`` pairs; a list counts its
    entries."""
    flat: List[Tuple[str, int]] = []
    for name, value in sorted(design.items()):
        if isinstance(value, dict):
            flat.extend((f"{name}.{key}", count)
                        for key, count in sorted(value.items()))
        elif isinstance(value, list):
            flat.append((name, len(value)))
        else:
            flat.append((name, int(value)))  # type: ignore[call-overload]
    return flat


def main() -> int:
    design = measure()
    with open(DESIGN_PATH, "w") as handle:
        json.dump(design, handle, indent=2)
        handle.write("\n")
    for name, count in counts(design):
        print(f"{name}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
