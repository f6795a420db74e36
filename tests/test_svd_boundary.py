"""Only `scanloc/geometry.py` calls an SVD.

The projection of a noisy matrix onto the rotation group is written once,
as `RigidTransform.orthonormalized`, and the DLT solve of `triangulate`
sits beside it.  A module that calls `svd` is writing a projection again.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "scanloc"
MODULES = sorted(SRC.glob("*.py"))


def svd_calls(source: str) -> list[str]:
    """Each call of a function named `svd` in `source`, in line order."""
    found = sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "svd"
    )
    return [f"line {line}: svd" for line in found]


def test_checker_sees_svd_calls():
    source = "u, s, vt = np.linalg.svd(m)\nsvd(m)\nsvd = 2\nx = np.linalg.svd\n"
    assert svd_calls(source) == ["line 1: svd", "line 2: svd"]


def test_geometry_holds_the_svd():
    assert svd_calls((SRC / "geometry.py").read_text())


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "geometry.py"],
                         ids=[p.name for p in MODULES if p.name != "geometry.py"])
def test_module_calls_no_svd(path):
    assert svd_calls(path.read_text()) == []
