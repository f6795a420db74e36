"""Each design decision is written in one module, and each test helper once.

A rule names a decision, the one `src/scanloc` module that owns it and an
`ast` finder for the nodes that write it.  Three tests hold every rule: the
finder sees its sample, the owner holds the decision, and no other module
writes it.  A tripwire holds `tests/` to the same aim: no two helper
functions or methods share a body.  `ERROR_CLASSES` pins the exception
vocabulary, so a new error class is a deliberate edit.
"""

import ast
import collections
import pathlib
import re
from typing import Callable, NamedTuple

import pytest

from scanloc import errors, targets

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scanloc"
MODULES = sorted(SRC.glob("*.py"))


class Rule(NamedTuple):
    name: str
    owner: str
    reason: str
    finds: Callable[[ast.AST], str | None]  # what a node writes, if it writes the decision
    sample: str
    sample_findings: list[str]
    holds: Callable[[list[str]], bool]  # given what the owner's nodes write


def findings(rule: Rule, source: str) -> list[str]:
    """Each node of `source` that writes the rule's decision, in line order."""
    found = sorted((node.lineno, what) for node in ast.walk(ast.parse(source))
                   if (what := rule.finds(node)))
    return [f"line {line}: {what}" for line, what in found]


def called_name(node) -> str | None:
    """The name a call calls, bare or as an attribute."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def intrinsic_read(node):
    if isinstance(node, ast.Attribute) and node.attr in ("fx", "fy", "cx", "cy") \
            and isinstance(node.ctx, ast.Load):
        return f".{node.attr}"
    return None


def json_io(node):
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "json" and node.attr in ("load", "loads", "dump")):
        return f"json.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        return "from json import"
    return None


def fit_call(node):
    name = called_name(node)
    return f"{name}()" if name in ("fit_front", "fit_side", "_lstsq_ratios") else None


def payload_read(node):
    name = called_name(node)
    return f"{name}()" if name in ("readinto", "frombuffer", "fromfile", "mmap") else None


def sideways_convention(node):
    if isinstance(node, ast.Constant) and node.value == "reference_axes":
        return repr(node.value)
    name = called_name(node)
    return f"{name}()" if name in ("perpendicular_planar_direction", "front_reference") else None


def exception_class(node):
    """A class whose base is `Exception` or a name ending in `Error`."""
    if isinstance(node, ast.ClassDef) and any(
            name == "Exception" or name.endswith("Error")
            for name in (getattr(base, "attr", getattr(base, "id", "")) for base in node.bases)):
        return f"class {node.name}"
    return None


def finite_test(node):
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr == "isfinite"):
        return "math.isfinite"
    if isinstance(node, ast.ImportFrom) and node.module == "math" \
            and any(alias.name == "isfinite" for alias in node.names):
        return "from math import isfinite"
    return None


def string_text(node) -> str | None:
    """The text of a string constant, or of an f-string with each replacement
    field as {}; None for any other node."""
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def scene_layout_name(node):
    """A string or f-string whose text is "scene.json" or a depth_<n>.pfm name."""
    text = string_text(node)
    if text is not None and re.fullmatch(r"scene\.json|depth_(\d+|\{\})\.pfm", text):
        return ast.unparse(node)
    return None


def view_name(node):
    """A string or f-string whose text is a view<n> key or glues the word view
    to a replacement field: view{}."""
    text = string_text(node)
    if text is not None and (re.fullmatch(r"view\d+", text) or re.search(r"\bview\{\}", text)):
        return ast.unparse(node)
    return None


# each error class of `scanloc.errors` and its bases: one class per way a caller reacts
ERROR_CLASSES = {
    "ScanlocError": ("Exception",),
    "ConfigError": ("ScanlocError", "ValueError"),
    "MalformedFileError": ("ConfigError",),
    "ImplausibleKeypointsError": ("ConfigError",),
}


VOCABULARIES = ({"front", "side"}, {1, 2, 4})


def vocabulary_literal(node):
    """A tuple, list or set literal that holds a whole vocabulary."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        # a bool is not a target id, though True == 1
        values = {elt.value for elt in node.elts
                  if isinstance(elt, ast.Constant) and type(elt.value) in (int, str)}
        if any(vocabulary <= values for vocabulary in VOCABULARIES):
            return ast.unparse(node)
    return None


RULES = [
    Rule("pinhole", "geometry.py",
         "Every other module projects, deprojects and judges pixels through "
         "`PinholeCamera`, so the pinhole formula and the in-image rule are written "
         "once.  A module that reads a camera's `fx`, `fy`, `cx` or `cy` is writing "
         "the formula again.",
         intrinsic_read,
         "u = cam.fx * x / z + cam.cx\nfx = 600.0\nself.cy = 2\nv = data['fy']\n",
         ["line 1: .cx", "line 1: .fx"],
         bool),
    Rule("svd", "geometry.py",
         "The projection of a noisy matrix onto the rotation group is written once, "
         "as `RigidTransform.orthonormalized`, and the DLT solve of `triangulate` sits "
         "beside it.  A module that calls `svd` is writing a projection again.",
         lambda node: "svd" if called_name(node) == "svd" else None,
         "u, s, vt = np.linalg.svd(m)\nsvd(m)\nsvd = 2\nx = np.linalg.svd\n",
         ["line 1: svd", "line 2: svd"],
         bool),
    Rule("json", "jsonfile.py",
         "Every other module goes through `read_json` / `write_json`, so how a JSON "
         "file is opened, parsed, reported when bad and written is decided once.  "
         "`json.dumps` stays allowed: it formats a log line, not a file.",
         json_io,
         "import json\njson.dump(x, fh)\nlog(json.dumps(x))\nfrom json import load\n",
         ["line 2: json.dump", "line 4: from json import"],
         lambda found: found == ["json.load", "json.dump"]),
    Rule("fit", "targets.py",
         "Every other module fits through `targets.fit_target`, or, for a "
         "leave-one-out fold, `targets._fit_rows`, so which fit and which params "
         "slot a target id gets is decided once, and the least-squares solve of "
         "design rows into ratios is written once, as one `_lstsq_ratios` call.",
         fit_call,
         "r = fit_front(data)\nfit_side = None\n"
         "s = targets.fit_side(data)\nt = fit_target(data, 1)\nf = fit_front\n"
         "u = targets._lstsq_ratios(*rows)\ng = _lstsq_ratios\nv = _fit_rows(rows, 4)\n",
         ["line 1: fit_front()", "line 3: fit_side()", "line 6: _lstsq_ratios()"],
         lambda found: found == ["_lstsq_ratios()"]),
    Rule("target", "targets.py",
         "Every other module reads `TARGET_IDS`, `FRONT_TARGET_IDS`, `SIDE_TARGET_ID` "
         "and `POSE_KINDS` from `targets`, so the target vocabulary is written once.  "
         "A tuple, list or set literal that holds both \"front\" and \"side\", or 1, 2 "
         "and 4, is writing it again.",
         vocabulary_literal,
         "a = ('front', 'side')\nb = [4, 2, 1, 0]\nc = {'front'}\nd = (1, 2)\n"
         "e = (True, 2, 4)\nf = {'side': 1, 'front': 2}\ng = {'side', 'front', 'back'}\n",
         ["line 1: ('front', 'side')", "line 2: [4, 2, 1, 0]",
          "line 7: {'side', 'front', 'back'}"],
         lambda _: targets.TARGET_IDS == (1, 2, 4) and targets.POSE_KINDS == ("front", "side")),
    Rule("payload", "cloud.py",
         "`read_pfm` and `FusedCloud.load` read their float32 payloads through "
         "`cloud._read_payload`, so how a payload is checked against its header, into "
         "what memory it is read and how it is faulted in are decided once.  A module "
         "that calls `readinto`, `frombuffer`, `fromfile` or `mmap` is reading one again.",
         payload_read,
         "fh.readinto(buf)\nx = np.frombuffer(b, '<f4')\nm = mmap.mmap(-1, 8)\n"
         "f = np.fromfile\ndata = fh.read()\ny = numpy.fromfile(fh)\n",
         ["line 1: readinto()", "line 2: frombuffer()", "line 3: mmap()", "line 6: fromfile()"],
         lambda found: set(found) == {"frombuffer()", "mmap()", "readinto()"}),
    Rule("sideways-convention", "targets.py",
         "The sign of a target's sideways step is a fixed convention of the ratio "
         "model, `TOWARD_HIPS` and `LATERAL`, and `targets._segment` is the one place "
         "it picks a segment's sideways reference.  A module that names the params "
         "file's \"reference_axes\" or calls `perpendicular_planar_direction` or "
         "`front_reference` is choosing a sideways direction again.",
         sideways_convention,
         "axes = data['reference_axes']\nt2 = perpendicular_planar_direction(a, b, ref)\n"
         "ref = targets.front_reference(kps)\nf = front_reference\nw = 'reference_axes side'\n",
         ["line 1: 'reference_axes'", "line 2: perpendicular_planar_direction()",
          "line 3: front_reference()"],
         lambda found: {"'reference_axes'", "perpendicular_planar_direction()",
                        "front_reference()"} <= set(found)),
    Rule("scene-layout", "synth.py",
         "A scene directory is a fixed layout, scene.json beside depth_0.pfm and "
         "depth_1.pfm, and `synth` names those files once: `save_scene` writes them, "
         "`read_scene_json`, `check_depth_maps` and `load_depths` take the directory, "
         "and `synth._scene_dir` finds it from a path.  A module that writes "
         "\"scene.json\" or builds a depth_<n>.pfm name is laying out a scene again.",
         scene_layout_name,
         "p = os.path.join(d, 'scene.json')\nname = f'depth_{vi}.pfm'\n"
         "h = 'scene directory or scene.json'\nc = 'scene_id'\nfirst = 'depth_0.pfm'\n"
         "n = 'depth_files'\nq = f'{d}/depth.pfm'\nm = 'depth_0.pfm is missing'\n",
         ["line 1: 'scene.json'", "line 2: f'depth_{vi}.pfm'", "line 5: 'depth_0.pfm'"],
         lambda found: found == ["'scene.json'", "f'depth_{vi}.pfm'"]),
    Rule("pixel-map", "synth.py",
         "A two-view pixel map (a detector's observation, or a map of true or "
         "observed pixels) is a list of two JSON objects, view 0 first, and `synth` "
         "names a view once: `_pixels` reads each view as `key view<i>`, and "
         "`_scene_from_json` names a view so when it checks the targets.  A module "
         "that writes a view<n> key or glues `view` to a replacement "
         "field is naming a view again.",
         view_name,
         "a = data['view0']\nb = f'{name} view{vi}'\nc = f'{joint} not visible in view {vi}'\n"
         "d = f'view {k}: {exc}'\ne = ['scene_id', 'view', 'view1']\nf = f'preview{n}'\n"
         "g = 'view 0'\n",
         ["line 1: 'view0'", "line 2: f'{name} view{vi}'", "line 5: 'view1'"],
         lambda found: found == ["f'{k} view{vi}'", "f'{name} view{vi}'"]),
    Rule("exception", "errors.py",
         "A caller reacts to a failure in one of four ways, and `errors.py` holds one "
         "class for each; a failure is told apart from its kin by its message.  A "
         "module that defines a class based on `Exception` or on an `...Error` is "
         "adding a way to fail that no caller catches.",
         exception_class,
         "class A(Exception): pass\nclass B(ValueError): pass\n"
         "class C(errors.ScanlocError): pass\nclass D: pass\nclass E(ErrorLog): pass\n",
         ["line 1: class A", "line 2: class B", "line 3: class C"],
         lambda found: sorted(found) == sorted(f"class {name}" for name in ERROR_CLASSES)),
    Rule("finite-number", "jsonfile.py",
         "Whether a value is a finite real number is decided once, by "
         "`jsonfile._finite_number`, which refuses a boolean and an integer too large "
         "for a float.  `math.isfinite` raises OverflowError on such an integer, so a "
         "module that calls it can let a bare error out instead of a ConfigError.",
         finite_test,
         "ok = math.isfinite(x)\nnp.isfinite(a)\nfrom math import isfinite, sqrt\n"
         "isfinite(y)\nf = math.isinf\n",
         ["line 1: math.isfinite", "line 3: from math import isfinite"],
         lambda found: found == ["math.isfinite"]),
]
RULE_IDS = [rule.name for rule in RULES]
OTHER_MODULES = [pytest.param(rule, path, id=f"{rule.name}-{path.name}")
                 for rule in RULES for path in MODULES if path.name != rule.owner]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_finder_sees_its_sample(rule):
    assert findings(rule, rule.sample) == rule.sample_findings


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_owner_holds_the_decision(rule):
    found = findings(rule, (SRC / rule.owner).read_text())
    assert rule.holds([line.split(": ", 1)[1] for line in found]), found


@pytest.mark.parametrize("rule, path", OTHER_MODULES)
def test_no_other_module_writes_it(rule, path):
    assert findings(rule, path.read_text()) == [], f"only {rule.owner}: {rule.reason}"


def test_error_classes_are_pinned():
    defined = {name: tuple(base.__name__ for base in cls.__bases__)
               for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    assert defined == ERROR_CLASSES


def shared_bodies(sources: dict[str, str]) -> list[list[str]]:
    """Each set of helpers, top-level functions named `module.function` and
    methods named `module.Class.method`, whose bodies are the same statements
    once their docstrings are dropped.  Tests are skipped."""
    by_body = collections.defaultdict(list)
    for module, source in sources.items():
        tree = ast.parse(source)
        nodes = [(module, node) for node in tree.body]
        nodes += [(f"{module}.{cls.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body]
        for scope, node in nodes:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                by_body["\n".join(map(ast.dump, body))].append(f"{scope}.{node.name}")
    return sorted(names for names in by_body.values() if len(names) > 1)


def test_no_two_helpers_share_a_body():
    sample = {"a": "def f(x):\n    'doc'\n    return x + 1\ndef test_t(x):\n    return x + 1\n",
              "b": "def g(x):\n    return x + 1\ndef h(y):\n    return y + 1\n"
                   "class C:\n    def m(self, x):\n        return x + 1\n"
                   "    def test_u(self, x):\n        return x + 1\n"}
    assert shared_bodies(sample) == [["a.f", "b.g", "b.C.m"]]
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert shared_bodies({path.stem: path.read_text() for path in tests}) == []
