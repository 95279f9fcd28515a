"""Every private helper that `src/nonassoc` defines is read somewhere in `src/nonassoc`.

Deleting a caller tends to leave its private helpers behind.  This collects
each `_`-prefixed function, class, method and module constant of the
package's modules (dunder names aside) and fails on one that no module of
the package reads.  A read is a name, an attribute, or a string constant
that parses as an expression naming it: an identifier string such as the
method and memo names of `dist._METHODS`, which are read with `getattr`, or
a quoted annotation.  Reads from the tests and from `perfbench/` do not
count: a helper that only they reach has no job left in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nonassoc"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """name -> line of each private function, class, method or module constant."""
    found: dict[str, int] = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and is_private(name.id):
                    found.setdefault(name.id, node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and is_private(node.name):
            found.setdefault(node.name, node.lineno)
    return found


def read_names(node: ast.AST, inside: frozenset[str] = frozenset()) -> set[str]:
    """The names `node` reads, leaving out a function's reads of its own name: a
    recursive call does not keep a helper alive."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside |= {node.name}
    read = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        read.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            read |= read_names(ast.parse(node.value, mode="eval"))
        except SyntaxError:
            pass
    for child in ast.iter_child_nodes(node):
        read |= read_names(child, inside)
    return read - inside


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module:line name' for each private definition that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    unread = [
        (module, line, name)
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    return [f"{module}:{line} {name}" for module, line, name in sorted(unread)]


def test_package_has_no_unread_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    helpers = '''
_USED = 1
_UNUSED = 2
_A, _B = 1, 2
_TABLE = {"x": ("_by_string",)}


def _helper():
    return _USED + _A


def _orphan():
    return _orphan()


class _Box:
    def _read(self):
        return getattr(self, _TABLE["x"][0])()

    def _by_string(self):
        return 0

    def _dead(self):
        return 0

    def __repr__(self):
        return ""
'''
    user = '''
from helpers import _helper


def f(x: "_Box") -> int:
    return _helper() + x._read()
'''
    # `_orphan` reads only itself
    assert unread_private_names({"helpers.py": helpers, "user.py": user}) == [
        "helpers.py:3 _UNUSED",
        "helpers.py:4 _B",
        "helpers.py:12 _orphan",
        "helpers.py:23 _dead",
    ]
