"""Every scanloc module and test module uses each name it imports, and
importing the package loads no scipy.

A stdlib stand-in for a linter's unused-import check: deleting code must
not leave its imports behind.  A name listed in `__all__` counts as used,
so the package `__init__` re-exports nothing it does not list.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import scanloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = [path for directory in (ROOT / "src" / "scanloc", ROOT / "tests")
           for path in sorted(directory.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other line of `source` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from .a import b as c\nc.d\n") == []
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_scipy():
    """A fresh `import scanloc.cli` costs numpy alone: scipy is read only by
    `FusedCloud.normals`, which imports its k-d tree when called."""
    probe = ("import sys, scanloc.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(scanloc.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
