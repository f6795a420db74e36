"""Only `scanloc/targets.py` names the scan targets and the pose kinds.

Every other module reads `TARGET_IDS`, `FRONT_TARGET_IDS`,
`SIDE_TARGET_ID` and `POSE_KINDS` from `targets`, so the target
vocabulary is written once.  A tuple, list or set literal that holds both
"front" and "side", or 1, 2 and 4, is writing it again.
"""

import ast
import pathlib

import pytest

from scanloc import targets

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "scanloc"
MODULES = sorted(SRC.glob("*.py"))
VOCABULARIES = ({"front", "side"}, {1, 2, 4})


def vocabulary_literals(source: str) -> list[str]:
    """Each tuple, list or set literal in `source` that holds a whole
    vocabulary, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            # a bool is not a target id, though True == 1
            values = {elt.value for elt in node.elts
                      if isinstance(elt, ast.Constant) and type(elt.value) in (int, str)}
            if any(vocabulary <= values for vocabulary in VOCABULARIES):
                found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {literal}" for line, literal in sorted(found)]


def test_checker_sees_vocabulary_literals():
    source = ("a = ('front', 'side')\nb = [4, 2, 1, 0]\nc = {'front'}\nd = (1, 2)\n"
              "e = (True, 2, 4)\nf = {'side': 1, 'front': 2}\ng = {'side', 'front', 'back'}\n")
    assert vocabulary_literals(source) == [
        "line 1: ('front', 'side')", "line 2: [4, 2, 1, 0]", "line 7: {'side', 'front', 'back'}",
    ]


def test_targets_names_the_vocabulary():
    assert targets.TARGET_IDS == (1, 2, 4)
    assert targets.POSE_KINDS == ("front", "side")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "targets.py"],
                         ids=[p.name for p in MODULES if p.name != "targets.py"])
def test_module_names_no_target_vocabulary(path):
    assert vocabulary_literals(path.read_text()) == []
