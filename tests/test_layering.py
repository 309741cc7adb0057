"""Module ownership, read from the sources: the CLI owns the wire format, and
the closed form stays independent of the oracle that checks it."""
import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symres"


def imported_names(path):
    """Dotted names a module imports; relative ones keep their leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


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
