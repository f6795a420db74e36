"""Only `scanloc/geometry.py` knows the pinhole model.

Every other module projects, deprojects and judges pixels through
`PinholeCamera`, so the pinhole formula and the in-image rule are
written once.  A module that reads a camera's `fx`, `fy`, `cx` or `cy`
is writing the formula again.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "scanloc"
MODULES = sorted(SRC.glob("*.py"))
INTRINSICS = ("fx", "fy", "cx", "cy")


def intrinsic_reads(source: str) -> list[str]:
    """Each read of an `.fx`, `.fy`, `.cx` or `.cy` attribute in `source`, in line order."""
    found = sorted(
        (node.lineno, node.attr) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in INTRINSICS
        and isinstance(node.ctx, ast.Load)
    )
    return [f"line {line}: .{attr}" for line, attr in found]


def test_checker_sees_intrinsic_reads():
    source = "u = cam.fx * x / z + cam.cx\nfx = 600.0\nself.cy = 2\nv = data['fy']\n"
    assert intrinsic_reads(source) == ["line 1: .cx", "line 1: .fx"]


def test_geometry_holds_the_pinhole_model():
    assert intrinsic_reads((SRC / "geometry.py").read_text())


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geometry.py"],
                         ids=[p.name for p in MODULES if p.name != "geometry.py"])
def test_module_reads_no_intrinsics(path):
    assert intrinsic_reads(path.read_text()) == []
