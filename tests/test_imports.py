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


def _loaded_by_cli_import(modules: set) -> str:
    """Which of ``modules`` a fresh ``import catwalk.cli`` loads, as printed."""
    done = subprocess.run(
        [
            sys.executable, "-B", "-c",
            f"import sys, catwalk.cli; print(sorted({modules!r} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_the_automaton_unloaded():
    assert _loaded_by_cli_import({"catwalk.automaton"}) == "[]\n"


def test_cli_import_leaves_the_crash_report_modules_unloaded():
    # verify loads traceback, and with it linecache and tokenize, only to
    # name the crash site of a suite that raised
    assert _loaded_by_cli_import({"traceback", "linecache", "tokenize"}) == "[]\n"


def _nodes(module: str, kind) -> list:
    """The ``kind`` nodes of ``module``'s syntax tree."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [node for node in ast.walk(tree) if isinstance(node, kind)]


def test_only_the_model_reads_a_rule_kind():
    # the rest of the package asks a rule for its firing levels, not its kind
    for module in MODULES:
        if module != "model":
            names = {node.attr for node in _nodes(module, ast.Attribute)}
            assert "kind" not in names, module


def test_no_module_defines_an_enum():
    # steps and layers are letters
    for module in MODULES:
        for node in _nodes(module, ast.ClassDef):
            bases = [getattr(base, "id", getattr(base, "attr", "")) for base in node.bases]
            assert not any(name.endswith("Enum") for name in bases), (module, node.name)
