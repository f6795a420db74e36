"""Only `scanloc/jsonfile.py` reads or writes a JSON file.

Every other module goes through `read_json` / `write_json`, so how a JSON
file is opened, parsed, reported when bad and written is decided once.
`json.dumps` stays allowed: it formats a log line, not a file.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "scanloc"
MODULES = sorted(SRC.glob("*.py"))


def json_io(source: str) -> list[str]:
    """Each `json.load`, `json.loads` or `json.dump` in `source`, and each
    import from `json`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "json" and node.attr in ("load", "loads", "dump")):
            found.append((node.lineno, f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append((node.lineno, "from json import"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_sees_json_io():
    source = "import json\njson.dump(x, fh)\nlog(json.dumps(x))\nfrom json import load\n"
    assert json_io(source) == ["line 2: json.dump", "line 4: from json import"]


def test_jsonfile_holds_one_load_and_one_dump():
    assert [line.split(": ")[1] for line in json_io((SRC / "jsonfile.py").read_text())] == [
        "json.load", "json.dump"
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "jsonfile.py"],
                         ids=[p.name for p in MODULES if p.name != "jsonfile.py"])
def test_module_reads_and_writes_json_through_jsonfile(path):
    assert json_io(path.read_text()) == []
