"""``pyproject.toml`` declares exactly the third-party packages in use.

CI installs from ``pyproject.toml`` (``pip install -e .[dev]``), so a
package the code imports but the file omits fails here instead of in a
CI job, and a declared package nothing uses fails here too.  The
library (``src/``) may use only ``dependencies``; tests, benchmarks,
examples and the perf harness may also use the ``dev`` extra.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ("src",)
TOOLING = ("tests", "benchmarks", "examples", "perfbench")


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


def _third_party_imports(directories):
    """Top-level third-party modules imported anywhere under them."""
    local = _local_modules()
    found = set()
    for directory in directories:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if top not in sys.stdlib_module_names and top not in local:
                        found.add(top.lower())
    return found


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
