"""The README's Python example runs as written and computes what it says."""

import re
from fractions import Fraction as F
from pathlib import Path

from nonassoc import SymElement, check_loop_identity
from nonassoc.catalog import builtin_algebra

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs_and_its_values_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert check_loop_identity(namespace["moufang"], namespace["loop"]).holds
    # <; x, y> is minus the commutator in the split octonions, e1 e2 - e2 e1 = 2 e3
    table = builtin_algebra("split-octonion")
    commutator = tuple(a - b for a, b in zip(table.basis_product(1, 2), table.basis_product(2, 1)))
    value = namespace["value"]
    assert value == tuple(-c for c in commutator) == (0, 0, 0, -2, 0, 0, 0, 0)
    assert all(type(c) is F for c in value)
    element = namespace["element"]
    assert isinstance(element, SymElement) and element == SymElement(8, {(0, 0, 0, 1, 0, 0, 0, 0): -2})
    assert all(type(c) is F for c in element.terms.values())
