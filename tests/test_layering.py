"""Module ownership, read from the sources: the CLI owns the wire format, the
closed form stays independent of the oracle that checks it, the package
loads a module only when one of its names is used and the closed form's
commands load neither the oracle nor the configuratrix, every name the
benchmark's tracer binds exists, every public name and public method has a
user in the library or the benchmark (not only in tests or demos), and every
private helper has a user in the sources."""
import ast
import collections
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import symres
import symres.oracle
from symres.polycore import MultiPoly

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symres"
BENCHMARK = sorted((PACKAGE.parent.parent / "perfbench").glob("*.py"))


def imported_names(path):
    """Dotted names a module imports; relative ones keep their leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def used_names(tree):
    """Names a syntax tree refers to: loaded or stored names, attributes,
    imported names and their aliases, and string constants (names looked up
    by string, as the tracer does)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_the_cli_imports_json():
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "json" for name in imported_names(path))}
    assert importers == {"cli.py"}


def test_closed_form_imports_nothing_from_the_oracle():
    names = list(imported_names(PACKAGE / "closedform.py"))
    assert names
    assert not any("oracle" in name.split(".") for name in names)


def test_library_import_leaves_the_cli_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, symres; print('symres.cli' in sys.modules)"],
        capture_output=True, text=True, timeout=20)
    assert proc.stdout == "False\n", proc.stderr


def test_closed_and_sweep_load_neither_the_oracle_nor_the_configuratrix(tmp_path):
    cubic, grid = tmp_path / "cubic.json", tmp_path / "grid.json"
    cubic.write_text('{"n": 4, "A1": "1/3", "A2": "-2", "A3": "5"}')
    grid.write_text('{"n": 3, "A1": {"start": "-1", "stop": "1", "step": "1"}, '
                    '"A2": {"start": "0", "stop": "2", "step": "1/2"}, "A3": "1"}')
    code = ("import sys\nfrom symres.cli import main\n"
            f"main(['sweep', {str(grid)!r}, '--out', {str(tmp_path / 'sweep.out')!r}])\n"
            f"main(['closed', {str(cubic)!r}, '--out', {str(tmp_path / 'closed.out')!r}])\n"
            "print(sorted(name for name in sys.modules if name.startswith('symres.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.stdout == "['symres.cli', 'symres.closedform', 'symres.polycore', " \
                          "'symres.symcubic']\n", proc.stderr
    assert (tmp_path / "sweep.out").read_text().count("\n") == 15


def test_bare_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, symres; print([name for name in sys.modules if name.startswith('symres.')])"],
        capture_output=True, text=True, timeout=20)
    assert proc.stdout == "[]\n", proc.stderr


def defined_names(path):
    """Names a module's top level defines: functions, classes and assigned names."""
    for stmt in parse(path).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, ast.Assign):
            yield from (target.id for target in stmt.targets if isinstance(target, ast.Name))


def test_every_public_name_resolves_to_its_definition():
    # the package resolves a name on first use; it must be the object its
    # home module defines, not a re-export of it
    homes = {name: path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
             for name in defined_names(path) if name in symres.__all__}
    assert sorted(homes) == sorted(symres.__all__)
    for name, home in homes.items():
        assert getattr(symres, name) is getattr(importlib.import_module(f"symres.{home}"), name)
    for name in ("no_such_name", "closed_form", "oracle_"):
        with pytest.raises(AttributeError):
            getattr(symres, name)


def test_no_module_on_the_sweep_path_imports_dataclasses():
    # dataclasses pulls in inspect at every CLI start; the sweep path's
    # records are NamedTuples
    for module in ("closedform", "symcubic", "polycore", "cli"):
        names = list(imported_names(PACKAGE / f"{module}.py"))
        assert names
        assert not any(name.split(".")[0] == "dataclasses" for name in names), module


def test_perfbench_tracer_binds_every_name_it_traces(monkeypatch):
    # the benchmark's tracer looks up public functions and methods by name;
    # installing it fails on a renamed or deleted one. Loading it writes no
    # bytecode next to it.
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = symres.oracle.det_bareiss, MultiPoly.__dict__["substitute_linear"]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert symres.oracle.det_bareiss is not originals[0]
    finally:
        tracer.uninstall()
    assert (symres.oracle.det_bareiss, MultiPoly.__dict__["substitute_linear"]) == originals


def test_every_public_name_is_used_outside_the_tests():
    # a name only tests use is a second implementation kept for them; it
    # belongs in tests/. A demo shows the library and keeps no name alive.
    # Definitions do not count, and __init__.py only re-exports.
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    used = set().union(*(used_names(parse(path)) for path in sources + BENCHMARK))
    assert sorted(set(symres.__all__) - used) == []


def test_every_public_method_has_a_user_in_the_sources():
    # a public method of a library class that neither the library (outside
    # the method itself) nor the benchmark refers to is kept only for tests
    # or demos; the benchmark's tracer names methods by string
    trees = [parse(path) for path in PACKAGE.glob("*.py")]
    uses = collections.Counter(name for tree in trees for name in used_names(tree))
    benchmark = set().union(*(used_names(parse(path)) for path in BENCHMARK))
    methods = [node for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert methods
    unused = [method.name for method in methods if method.name not in benchmark
              and uses[method.name] == list(used_names(method)).count(method.name)]
    assert unused == []


def test_every_private_helper_is_used_by_the_sources():
    # a module-level _helper that no source code refers to any more is a
    # deleted path's leftover kept for its tests; uses inside its own
    # definition do not count
    statements = [stmt for path in PACKAGE.glob("*.py") for stmt in parse(path).body]
    uses = [(stmt, set(used_names(stmt))) for stmt in statements]
    helpers = [stmt.name for stmt in statements
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and stmt.name.startswith("_") and not stmt.name.startswith("__")]
    assert helpers
    unused = [name for name in helpers
              if not any(name in names for stmt, names in uses
                         if getattr(stmt, "name", None) != name)]
    assert unused == []
