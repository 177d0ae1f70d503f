"""The runtime imports only the standard library, and each independent route
imports only what its module docstring says it does.

Every module of the package is parsed, not imported, so a violation shows
up here even on a code path no other test runs.
"""

import ast
import pathlib
import subprocess
import sys

import catwalk

SRC = pathlib.Path(catwalk.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

# the package modules each route may import; series and brute force stay
# independent of the DP, and the closed forms never read the DP's counts
ALLOWED = {
    "series": set(),
    "closedform": {"model", "series"},
    "brute": {"model"},
}


def _imports(module: str) -> set:
    """The dotted names ``module`` imports, its relative imports made absolute."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"catwalk.{base}" if base else "catwalk"
            if base == "catwalk":
                names.update(f"catwalk.{alias.name}" for alias in node.names)
            else:
                names.add(base)
    return names


def test_modules_found():
    assert {"cli", "closedform", "model", "series"} <= set(MODULES)


def test_runtime_is_standard_library_only():
    for module in MODULES:
        tops = {name.partition(".")[0] for name in _imports(module)} - {"catwalk"}
        assert tops <= sys.stdlib_module_names, (module, tops - sys.stdlib_module_names)


def test_routes_import_only_what_they_promise():
    for module, allowed in ALLOWED.items():
        package = {name for name in _imports(module) if name.partition(".")[0] == "catwalk"}
        assert package <= {f"catwalk.{m}" for m in allowed}, (module, package)


def test_only_the_automaton_imports_the_automaton():
    # the explicit table is a leaf for its tests and the benchmark tracer
    for module in MODULES:
        if module != "automaton":
            assert "catwalk.automaton" not in _imports(module), module


def test_cli_import_leaves_the_automaton_unloaded():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, catwalk.cli; print('catwalk.automaton' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent)},
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
