"""The runtime imports ``repro.analysis`` for its witnesses only.

``repro.analysis`` re-exports its whole API lazily (PEP 562), so a
container process that asks for ``crashwitness`` / ``loopwitness`` does
not also load the whole-program analyzers, and a non-strict deploy
runs no descriptor analysis (gsn-plan is an offline linter). Checked
in a subprocess: this process has long since imported everything.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

#: ``python -c`` puts its working directory on the path: ``tests.conftest``.
REPO_ROOT = Path(__file__).resolve().parents[2]

ANALYZERS = ("callgraph", "dataflow", "lockgraph", "flowgraph",
             "racegraph", "asyncgraph", "locklint", "planpass", "passes",
             "rules", "schema_infer")

PROGRAM = textwrap.dedent("""
    import sys
    import repro.interfaces.async_gateway as gateway_module
    from repro import GSNContainer
    from tests.conftest import simple_mote_descriptor

    container = GSNContainer("lazy")
    container.deploy(simple_mote_descriptor())       # non-strict
    with gateway_module.AsyncIngestGateway(container):
        pass
    container.shutdown()
    print(",".join(sorted(name for name in sys.modules
                          if name.startswith("repro.analysis."))))
""")


def loaded_analysis_modules(program):
    result = subprocess.run([sys.executable, "-c", program],
                            capture_output=True, text=True, timeout=120,
                            cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.strip().splitlines()[-1].split(","))


def test_container_and_gateway_load_no_analyzer():
    loaded = loaded_analysis_modules(PROGRAM)
    assert "repro.analysis.loopwitness" in loaded
    assert "repro.analysis.crashwitness" in loaded
    assert loaded.isdisjoint(f"repro.analysis.{name}" for name in ANALYZERS)


def test_lazy_names_still_import():
    loaded = loaded_analysis_modules(textwrap.dedent("""
        import sys
        import repro.analysis
        assert "repro.analysis.passes" not in sys.modules
        from repro.analysis import analyze, lint_files, ERROR
        assert callable(analyze) and callable(lint_files) and ERROR
        assert "analyze" in dir(repro.analysis)
        try:
            repro.analysis.no_such_name
        except AttributeError:
            pass
        else:
            raise SystemExit("missing name did not raise")
        print(",".join(sorted(name for name in sys.modules
                              if name.startswith("repro.analysis."))))
    """))
    assert {"repro.analysis.passes", "repro.analysis.locklint",
            "repro.analysis.rules"} <= loaded
