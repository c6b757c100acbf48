"""The ``gsn-lint`` command line interface.

Usage::

    gsn-lint [options] PATH...

``.xml`` paths are parsed as virtual-sensor descriptors and run through
the schema, graph, and resource passes *as one deployment set* (so
cross-sensor references resolve). ``.py`` paths (and directories, which
are walked for ``.py`` sources) are run through the intra-procedural
concurrency lint, the interprocedural deadlock pass (GSN501–GSN504),
the exception-flow / resource-lifecycle pass (GSN601–GSN605), the
whole-program data-race pass (GSN801–GSN806), *and* the async-safety
pass (GSN901–GSN905).
``--deadlock`` restricts python inputs to the deadlock pass alone;
``--flow`` to the exception-flow pass alone; ``--race`` to the
data-race pass alone; ``--async`` to the async-safety pass alone (the
flags combine — any subset runs without the intra-procedural lint);
``--all`` is the umbrella: every registered pass, including ``--plan``
over descriptor inputs, in one merged report. ``--graph`` prints the
lock-acquisition-order graph as GraphViz DOT. ``--self-check`` lints
the bundled concurrency-sensitive modules of repro itself. With no
inputs at all (``python -m repro.analysis``) the registered passes and
their rule ranges are listed.

Exit codes: 0 — clean (or warnings only), 1 — error findings,
2 — bad invocation or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis import locklint
from repro.analysis.callgraph import ProgramIndex
from repro.analysis.dataflow import expand_paths
from repro.analysis.flowgraph import analyze_flow
from repro.analysis.lockgraph import analyze_deadlocks
from repro.analysis.passes import (
    DEFAULT_MEMORY_BUDGET, analyze, attach_descriptor_lines,
)
from repro.analysis.rules import Report, catalogue
from repro.descriptors.model import VirtualSensorDescriptor
from repro.descriptors.xml_io import descriptor_from_file, descriptor_line_index
from repro.exceptions import GSNError
from repro.wrappers.registry import default_registry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsn-lint",
        description="Static analyzer for GSN virtual-sensor deployments.",
    )
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="descriptor .xml files, python .py files, "
                             "and/or directories (walked for .py) to lint")
    parser.add_argument("--self-check", action="store_true",
                        help="run the concurrency lint over repro's own "
                             "lock-guarded modules")
    parser.add_argument("--deadlock", action="store_true",
                        help="run only the interprocedural lock-order / "
                             "deadlock pass (GSN501-GSN504) on python "
                             "inputs")
    parser.add_argument("--flow", action="store_true",
                        help="run only the interprocedural exception-flow "
                             "/ resource-lifecycle pass (GSN601-GSN605) "
                             "on python inputs")
    parser.add_argument("--race", action="store_true",
                        help="run only the whole-program data-race pass "
                             "(GSN801-GSN806) on python inputs")
    parser.add_argument("--async", dest="async_pass", action="store_true",
                        help="run only the async-safety pass "
                             "(GSN901-GSN905) on python inputs")
    parser.add_argument("--all", dest="all_passes", action="store_true",
                        help="run every registered pass (GSN1xx-GSN9xx) "
                             "in one merged report (implies --plan)")
    parser.add_argument("--graph", action="store_true",
                        help="print the lock-acquisition-order graph as "
                             "GraphViz DOT (implies the deadlock pass)")
    parser.add_argument("--no-sanctioned-order", action="store_true",
                        help="ignore repro.concurrency.LOCK_ORDER when "
                             "building the lock graph")
    parser.add_argument("--plan", action="store_true",
                        help="also run the deploy-time query-plan pass "
                             "(GSN701-GSN705) over descriptor inputs and "
                             "print the annotated plans")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--list-passes", action="store_true",
                        help="print the registered passes with their rule "
                             "ranges and exit")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="findings output format")
    parser.add_argument("--memory-budget-mb", type=int, default=None,
                        metavar="MB",
                        help="per-source window memory budget for GSN301 "
                             "(default 64)")
    parser.add_argument("--strict-warnings", action="store_true",
                        help="exit nonzero on warnings too")
    parser.add_argument("--external-producers", action="store_true",
                        help="assume remote sources may resolve on other "
                             "nodes (suppresses GSN202/GSN203)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line when clean")
    return parser


def _load_descriptors(paths: Sequence[str], report: Report
                      ) -> Tuple[List[VirtualSensorDescriptor], List[str]]:
    descriptors: List[VirtualSensorDescriptor] = []
    sources: List[str] = []
    for path in paths:
        try:
            descriptors.append(descriptor_from_file(path))
            sources.append(path)
        except GSNError as exc:
            report.add("GSN100", str(exc), source=path)
    return descriptors, sources


def _print_rules() -> None:
    for rule in catalogue():
        print(f"{rule.id}  {rule.severity:7s}  {rule.title}")


#: (name, rule range, one-liner, how to select it) — the pass registry
#: shown by ``--list-passes`` / a bare ``python -m repro.analysis``.
PASSES: Tuple[Tuple[str, str, str, str], ...] = (
    ("schema", "GSN100-GSN111",
     "descriptor schema inference & type checking", "default on .xml"),
    ("graph", "GSN201-GSN205",
     "cross-sensor dependency/addressing graph", "default on .xml"),
    ("resource", "GSN301-GSN305",
     "window-memory / storage-growth estimation", "default on .xml"),
    ("locklint", "GSN401-GSN403",
     "intra-procedural guarded-by lint", "default on .py, --self-check"),
    ("deadlock", "GSN501-GSN504",
     "interprocedural lock-order / deadlock pass", "--deadlock"),
    ("flow", "GSN601-GSN605",
     "exception-flow / resource-lifecycle pass", "--flow"),
    ("plan", "GSN701-GSN705",
     "deploy-time query-plan pass", "--plan"),
    ("race", "GSN801-GSN806",
     "whole-program data-race pass", "--race"),
    ("async", "GSN901-GSN905",
     "async-safety / event-loop pass", "--async"),
)


def _print_passes() -> None:
    print("gsn-lint passes (select with the listed flag; python passes "
          "all run by default on .py inputs; --all runs everything):")
    for name, rules, title, select in PASSES:
        print(f"  {name:9s} {rules:14s} {title:44s} [{select}]")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0
    if args.list_passes:
        _print_passes()
        return 0
    if args.all_passes:
        args.plan = True

    xml_paths = [p for p in args.paths if p.lower().endswith(".xml")]
    dirs = [p for p in args.paths if os.path.isdir(p)]
    py_paths = [p for p in args.paths
                if p.lower().endswith(".py") and p not in dirs]
    other = [p for p in args.paths
             if p not in xml_paths + py_paths + dirs]
    if other:
        parser.error(f"unsupported input(s): {other} "
                     f"(expected .xml descriptors, .py sources, or "
                     f"directories)")
    # The python passes the flags select; none selected runs them all.
    selected = {"deadlock": args.deadlock or args.graph,
                "flow": args.flow, "race": args.race,
                "async": args.async_pass}
    restricted = any(selected.values())
    if restricted and xml_paths:
        parser.error("--deadlock/--graph/--flow/--race/--async apply to "
                     "python inputs only")
    if args.self_check:
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))  # .../src/repro
        for relative in locklint.SELF_CHECK_MODULES:
            py_paths.append(os.path.join(package_root, relative))
    if not xml_paths and not py_paths and not dirs:
        # Bare invocation: list what this tool can do instead of erroring
        # (``python -m repro.analysis`` is documented to do exactly this).
        _print_passes()
        return 0

    report = Report()
    descriptors, sources = _load_descriptors(xml_paths, report)
    if descriptors:
        budget = (args.memory_budget_mb * 1024 * 1024
                  if args.memory_budget_mb else DEFAULT_MEMORY_BUDGET)
        report.extend(analyze(
            descriptors, registry=default_registry(), sources=sources,
            memory_budget=budget,
            external_producers=args.external_producers,
            plan=args.plan,
        ))
        if args.plan and args.format == "text":
            from repro.analysis.planpass import plan_descriptor
            for descriptor, source in zip(descriptors, sources):
                rendered = plan_descriptor(
                    descriptor, registry=default_registry(), source=source
                ).render()
                if rendered:
                    print(rendered)
    if xml_paths:
        line_indexes = {}
        for path in xml_paths:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    line_indexes[path] = descriptor_line_index(handle.read())
            except OSError:
                continue
        attach_descriptor_lines(report, line_indexes)

    missing = [p for p in py_paths + dirs if not os.path.exists(p)]
    if missing:
        print(f"gsn-lint: cannot read {missing}", file=sys.stderr)
        return 2
    python_inputs = expand_paths(py_paths + dirs)
    graph = None
    if python_inputs:
        run = {name: on or not restricted for name, on in selected.items()}
        index = ProgramIndex.build(python_inputs)
        index.report_parse_errors(report)
        if not restricted:
            unparsed = {path for path, __ in index.parse_errors}
            locklint.lint_files(
                [p for p in python_inputs if p not in unparsed], report)
        if run["deadlock"]:
            __, graph = analyze_deadlocks(
                python_inputs, report=report,
                include_sanctioned=not args.no_sanctioned_order,
                index=index,
            )
        if run["flow"]:
            analyze_flow(python_inputs, report=report, index=index)
        if run["race"]:
            from repro.analysis.racegraph import analyze_races
            analyze_races(python_inputs, report=report, index=index)
        if run["async"]:
            from repro.analysis.asyncgraph import analyze_async
            analyze_async(python_inputs, report=report, index=index)

    failed = bool(report.errors) or (args.strict_warnings
                                     and bool(report.warnings))
    if args.graph and graph is not None:
        print(graph.to_dot())
        if report.findings:
            print(report.render(), file=sys.stderr)
    elif args.format == "json":
        print(json.dumps({"findings": report.as_dicts(),
                          "errors": len(report.errors),
                          "warnings": len(report.warnings)}, indent=2))
    elif report.findings or not args.quiet:
        print(report.render())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
