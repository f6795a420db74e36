"""Only `scanloc/targets.py` calls `fit_front` or `fit_side`.

Every other module fits through `targets.fit_target`, so which fit and
which params slot a target id gets is decided once.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "scanloc"
MODULES = sorted(SRC.glob("*.py"))
FITS = ("fit_front", "fit_side")


def fit_calls(source: str) -> list[str]:
    """Each call of `fit_front` or `fit_side` in `source`, bare or as an
    attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FITS:
                found.append((node.lineno, name))
    return [f"line {line}: {name}()" for line, name in sorted(found)]


def test_checker_sees_fit_calls():
    source = ("r = fit_front(data)\nfit_side = None\n"
              "s = targets.fit_side(data)\nt = fit_target(data, 1)\nf = fit_front\n")
    assert fit_calls(source) == ["line 1: fit_front()", "line 3: fit_side()"]


def test_targets_calls_each_fit_once():
    calls = fit_calls((SRC / "targets.py").read_text())
    assert sorted(call.split(": ")[1] for call in calls) == ["fit_front()", "fit_side()"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "targets.py"],
                         ids=[p.name for p in MODULES if p.name != "targets.py"])
def test_module_calls_no_fit(path):
    assert fit_calls(path.read_text()) == []
