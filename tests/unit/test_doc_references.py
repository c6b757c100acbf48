"""Every module the documentation names must exist.

Each backticked ``*.py`` path in ``DESIGN.md``, ``README.md`` and
``docs/*.md`` must be a file under one of the places a reader would look
(the repo root, ``src/repro``, ``src``, ``examples``, ``examples/bad``,
``benchmarks`` or ``tests``), and each backticked dotted ``repro.…``
name must import, or resolve as an attribute of what imports. And
``DESIGN.md``'s module map must name every package under ``src/repro``
and every module of ``src/repro/analysis``.
"""

import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEARCHED = ("", "src/repro", "src", "examples", "examples/bad",
            "benchmarks", "tests")
DOCUMENTS = ["DESIGN.md", "README.md"] + sorted(
    os.path.relpath(path, ROOT)
    for path in glob.glob(os.path.join(ROOT, "docs", "*.md")))

_PATH = re.compile(r"[\w./-]+\.py")
_DOTTED = re.compile(r"repro(\.\w+)+")


def references():
    for document in DOCUMENTS:
        with open(os.path.join(ROOT, document), encoding="utf-8") as handle:
            text = handle.read()
        for span in sorted(set(re.findall(r"`([^`\n]+)`", text))):
            if _PATH.fullmatch(span) or _DOTTED.fullmatch(span):
                yield document, span


def resolves(span):
    if span.endswith(".py"):
        return any(os.path.isfile(os.path.join(ROOT, top, span))
                   for top in SEARCHED)
    parts = span.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("document", DOCUMENTS)
def test_named_modules_exist(document):
    missing = [span for where, span in references()
               if where == document and not resolves(span)]
    assert not missing, f"{document} names what does not exist: {missing}"


def test_design_names_every_package_and_analysis_module():
    named = {span for where, span in references()
             if where == "DESIGN.md" and span.endswith(".py")}
    package = os.path.join(ROOT, "src", "repro")
    missing = [
        f"{name}/" for name in sorted(os.listdir(package))
        if os.path.isfile(os.path.join(package, name, "__init__.py"))
        and not any(span.startswith(f"{name}/") for span in named)
    ]
    missing += [
        f"analysis/{name}"
        for name in sorted(os.listdir(os.path.join(package, "analysis")))
        if name.endswith(".py") and name != "__init__.py"
        and f"analysis/{name}" not in named
    ]
    assert not missing, f"DESIGN.md's module map does not name {missing}"
