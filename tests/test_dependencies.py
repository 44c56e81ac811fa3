"""The package's imports: the third-party ones match its declared
dependencies, every name imported at module level is used there, no module
imports a private name of a sibling, no module keeps a module-level cache,
and every function the benchmark tracer wraps exists."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "silting_forge"


def _third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"silting_forge", "__future__"}


def _declared_dependencies() -> set[str]:
    # read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    specs = re.findall(r'"([^"]+)"', listed.group(1))
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in specs}


def test_declared_dependencies_match_imports():
    assert _declared_dependencies() == set()
    assert _third_party_imports() == _declared_dependencies()


def _unused_imports(source: str) -> set[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_import_check_sees_reads_only():
    source = "import os.path\nfrom json import dumps, loads as l\nx = os.sep\ndef f():\n    return l\n"
    assert _unused_imports(source) == {"dumps"}


def test_no_unused_module_level_imports():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def _private_sibling_imports(source: str) -> set[str]:
    """Underscore names imported, at any depth, from a sibling module."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_private_import_check_sees_relative_imports_only():
    source = "from .a import b, _c\nfrom os import _exit\ndef f():\n    from .d import _e\n"
    assert _private_sibling_imports(source) == {"a._c", "d._e"}


def test_no_module_imports_a_private_sibling_name():
    # a name a sibling needs is part of its owner's public interface
    found = {
        path.name: names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := _private_sibling_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _empty_module_containers(source: str) -> set[str]:
    """Names a module binds at module level to an empty ``{}``, ``[]``,
    ``set()``, ``dict()`` or ``list()``: the shape of a per-process cache."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty_literal = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.List) and not value.elts
        )
        empty_call = (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in {"dict", "list", "set"}
            and not value.args
            and not value.keywords
        )
        if empty_literal or empty_call:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_empty_container_check_sees_module_level_only():
    source = (
        "A = {}\nB: dict[str, int] = {}\nC = set()\nD = dict()\nE = []\n"
        "F = {1: 2}\nG = frozenset()\nH = dict(x=1)\ndef f():\n    local = {}\n"
    )
    assert _empty_module_containers(source) == {"A", "B", "C", "D", "E"}


def test_no_module_level_caches():
    # derived data is memoized on the object it belongs to (algebra.memoized),
    # never in a module-level container that outlives it
    found = {
        path.name: names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := _empty_module_containers(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_tracer_targets_exist():
    # perfbench/tracer.py is stdlib-only at module level, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _name, _opts in tracer.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert tracer.TARGETS and missing == []
