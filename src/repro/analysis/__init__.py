"""gsn-lint: deployment-time static analysis for GSN.

A multi-pass analyzer over virtual-sensor deployment descriptors (schema
inference & type checking, dependency-graph analysis, resource
estimation) plus a concurrency lint over Python sources following the
``# guarded-by:`` convention. See ``docs/analysis-reference.md`` for the
rule catalogue.

Programmatic entry points::

    from repro.analysis import analyze, analyze_descriptor, lint_files

    report = analyze(descriptors, registry=default_registry())
    if not report.ok:
        print(report.render())

Command line::

    gsn-lint examples/descriptors/*.xml
    python -m repro.analysis --self-check

The names below are re-exported lazily (PEP 562): importing this
package — which every ``from repro.analysis import crashwitness`` in
the runtime does — loads none of the analyzers; a name is imported from
its module the first time it is asked for.
"""

from importlib import import_module
from typing import Any, List

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "asyncgraph": ("AsyncAnalysis", "analyze_async"),
        "callgraph": ("ProgramIndex",),
        "crashwitness": ("CrashWitness",),
        "dataflow": ("expand_paths",),
        "flowgraph": ("FlowAnalysis", "analyze_flow"),
        "lockgraph": ("DeadlockAnalysis", "LockGraph", "analyze_deadlocks"),
        "locklint": ("lint_file", "lint_files", "lint_source"),
        "lockwitness": ("LockOrderViolation", "LockWitness"),
        "loopwitness": ("LoopLagViolation", "LoopWitness"),
        "passes": ("DEFAULT_MEMORY_BUDGET", "analyze", "analyze_descriptor",
                   "attach_descriptor_lines", "estimate_window_memory",
                   "schema_check"),
        "planpass": ("AnnotatedPlan", "DescriptorPlan", "PlanVerdict",
                     "annotate_plan", "plan_descriptor",
                     "source_query_verdict", "structural_verdict"),
        "racegraph": ("RaceAnalysis", "analyze_races"),
        "racewitness": ("RaceWitness", "RaceWitnessViolation"),
        "rules": ("ERROR", "WARNING", "Finding", "Report", "Rule",
                  "catalogue", "describe"),
        "schema_infer": ("SchemaInferencer", "infer_output_schema",
                         "wrapper_relation_schema"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
