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

Every name a library module imports must be used in that module.
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


#: Names a module imports only to re-export them, as ``(module, name)``.
#: A package that lists its surface in ``__all__`` needs no entry here.
REEXPORTS: set[tuple[str, str]] = set()


def _annotation_names(node):
    """Names an annotation mentions, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def _unused_imports(path):
    """Names one file imports (at any depth) but never mentions."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            if node.annotation is not None:
                used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
            )
    return {name: line for name, line in imported.items() if name not in used}


def test_library_imports_are_used():
    unused = [
        f"{module}:{line}: {name}"
        for module, path in sorted(_library_modules().items())
        for name, line in sorted(_unused_imports(path).items())
        if (module, name) not in REEXPORTS
    ]
    assert unused == []


def test_unused_import_check_sees_every_use(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from x import A, B, C, D\n"
        "__all__ = ['D']\n"
        "def f(a: Optional['A']) -> 'list[B]':\n"
        "    return os.path.join(a)\n"
    )
    assert _unused_imports(source) == {"Sequence": 3, "C": 4}


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


#: Progress hooks the span and log APIs replaced: a phase is a
#: ``trace.phase`` span, an event one ``StructuredLogger.event`` record.
RETIRED_HOOKS = frozenset({"note_phase", "note_event"})


def _retired_hook_uses(path):
    """``(line, name)`` of each import or attribute naming a retired hook."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        yield from ((node.lineno, name) for name in names
                    if name in RETIRED_HOOKS)


def test_no_retired_progress_hook_outside_observability():
    home = ROOT / "src" / "repro" / "observability"
    paths = [path for directory in LIBRARY + TOOLING
             for path in (ROOT / directory).rglob("*.py")
             if home not in path.parents]
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(paths)
        for line, name in _retired_hook_uses(path)
    ]
    assert found == []


def test_retired_hook_check_sees_imports_and_attributes(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from repro.observability.progress import note_phase, note_seed_done\n"
        "from repro.observability import progress as _progress\n"
        "_progress.note_event('fault')\n"
        "note_phase('x')\n"
    )
    assert list(_retired_hook_uses(source)) == [(1, "note_phase"),
                                                 (3, "note_event")]
