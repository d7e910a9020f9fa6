"""Import-graph checks: declared dependencies and reachable modules.

CI installs from ``pyproject.toml`` (``pip install -e .[dev]``), so a
package the code imports but the file omits fails here instead of in a
CI job, and a declared package nothing uses fails here too.  The
library (``src/``) may use only ``dependencies``; tests, benchmarks,
examples and the perf harness may also use the ``dev`` extra.

The same walk checks the supported surface: every module under
``src/repro`` must be reached by something that runs it -- the CLI,
an example, a benchmark or the perf harness.  Code that only checks
other code belongs in ``tests/oracles/``.

Fresh interpreters check the cold start: importing the library's
workloads loads neither networkx (a test-only oracle) nor the run
store and its analytics.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ("src",)
TOOLING = ("tests", "benchmarks", "examples", "perfbench")
#: What runs the library besides its command line.
RUNNERS = ("benchmarks", "examples", "perfbench")


def _requirement_names(requirements):
    """Distribution names of PEP 508 requirement strings."""
    return {
        re.match(r"[A-Za-z0-9._-]+", r).group(0).lower() for r in requirements
    }


def _project():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def _local_modules():
    """Top-level names that resolve inside the repository."""
    names = {"repro", *LIBRARY, *TOOLING}
    for directory in LIBRARY + TOOLING:
        names.update(p.stem for p in (ROOT / directory).glob("*.py"))
    return names


def _imported_modules(path):
    """Absolute module names one file imports, lazy imports included.

    ``from a import b`` yields both ``a`` and ``a.b``: ``b`` may be a
    submodule.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _third_party_imports(directories):
    """Top-level third-party modules imported anywhere under them."""
    local = _local_modules()
    found = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            for module in _imported_modules(path):
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.add(top.lower())
    return found


def _library_modules():
    """Every module under ``src/``: dotted name -> file."""
    modules = {}
    for path in (ROOT / "src").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _uses_benchmark_fixture():
    """pytest-benchmark is used through its ``benchmark`` fixture."""
    for path in (ROOT / "benchmarks").rglob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                arg.arg == "benchmark" for arg in node.args.args
            ):
                return True
    return False


def test_library_imports_match_dependencies():
    runtime = _requirement_names(_project()["dependencies"])
    assert _third_party_imports(LIBRARY) == runtime


def test_tooling_imports_match_dev_extra():
    project = _project()
    runtime = _requirement_names(project["dependencies"])
    dev = _requirement_names(project["optional-dependencies"]["dev"])
    used = _third_party_imports(TOOLING) - runtime
    if _uses_benchmark_fixture():
        used.add("pytest-benchmark")
    assert used == dev


def test_every_library_module_is_reached():
    """``python -m repro``, the examples, the benchmarks and perfbench
    import, directly or not, every module under ``src/repro``."""
    modules = _library_modules()
    pending = ["repro.__main__", "repro.cli"]
    for directory in RUNNERS:
        for path in (ROOT / directory).rglob("*.py"):
            pending.extend(_imported_modules(path))
    reached = set()
    while pending:
        parts = pending.pop().split(".")
        # Importing ``a.b.c`` runs the ``a`` and ``a.b`` packages too.
        for depth in range(1, len(parts) + 1):
            name = ".".join(parts[:depth])
            if name in modules and name not in reached:
                reached.add(name)
                pending.extend(_imported_modules(modules[name]))
    assert sorted(set(modules) - reached) == []


def _modules_loaded_by(statement):
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def test_workload_imports_stay_lean():
    loaded = _modules_loaded_by(
        "import repro.cloud.campaigns, repro.experiments.experiment3"
    )
    heavy = {
        "networkx",
        "repro.observability.analytics",
        "repro.observability.runstore",
        "repro.observability.history",
        "repro.observability.benchdiff",
    }
    assert loaded & heavy == set()
    assert "repro.cloud.campaigns" in loaded


def test_cli_import_leaves_out_networkx():
    loaded = _modules_loaded_by("import repro.cli")
    assert "repro.cli" in loaded
    assert "networkx" not in loaded
    # The campaign engine loads only when ``repro fleet`` dispatches.
    assert "repro.cloud.campaigns" not in loaded
