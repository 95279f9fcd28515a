"""Every name a module imports is used in that module.

Deleting code tends to leave its imports behind.  This parses each module
of `src/nonassoc` (but not `__init__.py`, whose imports are the public
re-exports) and each file of the test suite, and fails on an imported name
that the module never reads.  A name read only inside a string that parses
as an expression (a quoted annotation) counts as read, and an import marked
`# noqa: F401` is kept for its side effect.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nonassoc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
SIDE_EFFECT = re.compile(r"#\s*noqa:[\w, ]*\bF401\b")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any(SIDE_EFFECT.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            imported[name.split(".")[0] if isinstance(node, ast.Import) else name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_test_file_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from math import comb, prod\nimport os\n\ndef f(x: 'comb') -> int:\n    return prod(x)\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_the_check_keeps_a_side_effect_import():
    source = "import json  # noqa: F401\nimport sys  # noqa: E402,F401\nimport os\n"
    assert unused_imports(source) == ["os (line 3)"]
