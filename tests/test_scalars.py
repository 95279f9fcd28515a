"""The exact scalar helpers: canonical int | Fraction form, exact division, no floats."""

from fractions import Fraction as F

import pytest

from nonassoc.catalog import builtin_loop
from nonassoc.connection import FlatConnection, FormalVectorField, ms_brackets
from nonassoc.maps import FormalMap
from nonassoc.scalars import exact, exact_div, format_rational, parse_rational, rat, to_sparse
from nonassoc.symalg import SymElement


@pytest.mark.parametrize(
    "value, expected",
    [(5, 5), (-3, -3), (F(6, 3), 2), (F(-4, 2), -2), (F(3, 2), F(3, 2)), (F(-1, 3), F(-1, 3))],
)
def test_exact_keeps_integral_values_as_ints(value, expected):
    out = exact(value)
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize(
    "c, d, expected",
    [
        (6, 3, 2),
        (-6, 3, -2),
        (-7, 2, F(-7, 2)),
        (7, -2, F(-7, 2)),
        (F(3, 2), 3, F(1, 2)),
        (F(-9, 2), F(3, 2), -3),
        (10**20 + 1, 10**20 + 1, 1),
    ],
)
def test_exact_div_is_exact_and_canonical(c, d, expected):
    out = exact_div(c, d)
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize("call", [lambda: exact(0.5), lambda: exact(2.0), lambda: exact_div(0.5, 2),
                                  lambda: exact_div(1, 2.0)])
def test_exact_helpers_reject_floats(call):
    with pytest.raises(TypeError):
        call()


BOOL_ENTRIES = {
    "rat(True)": lambda: rat(True),
    "rat(False)": lambda: rat(False),
    "exact(True)": lambda: exact(True),
    "exact(False)": lambda: exact(False),
    "exact_div(True, 1)": lambda: exact_div(True, 1),
    "to_sparse": lambda: to_sparse(2, (True, 0)),
    "FormalMap": lambda: FormalMap((1,), 1, 2, {(1,): {((1,),): (True,)}}),
    "FormalMap.scale": lambda: FormalMap.slot_projection((1,), 0, 2).scale(True),
    "SymElement.scale": lambda: SymElement.basis(2, 0).scale(True),
    "SymElement": lambda: SymElement(2, {(1, 0): False}),
    "ms_brackets": lambda: ms_brackets(builtin_loop("jordan-k3-loop", 3), [], (True, 0, 0), (0, 1, 0)),
}


@pytest.mark.parametrize("entry", BOOL_ENTRIES)
def test_bools_are_not_scalars(entry):
    with pytest.raises(TypeError, match="not an exact rational"):
        BOOL_ENTRIES[entry]()


FLOAT_ENTRIES = {
    "FormalMap.scale": lambda: FormalMap.slot_projection((1,), 0, 2).scale(0.5),
    "FormalMap.from_series": lambda: FormalMap.from_series((1,), 1, 2, {((1,),): (0.1,)}),
    "FormalVectorField.from_table": lambda: FormalVectorField.from_table(1, 0, {(0,): (0.5,)}),
    "FormalVectorField.scale": lambda: FormalVectorField.from_table(1, 0, {(0,): (1,)}).scale(0.5),
    "FormalVectorField": lambda: FormalVectorField(1, 0, lambda mono: {0: 0.5}).at((0,)),
    "FlatConnection": lambda: FlatConnection(1, 0, lambda mono, j: {0: 1.0}),
    "FlatConnection.from_table": lambda: FlatConnection.from_table(1, 0, {((0,), 0): (1.0,)}),
    "ms_brackets": lambda: ms_brackets(builtin_loop("jordan-k3-loop", 3), [], (0.5, 0, 0), (0, 1, 0)),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRIES)
def test_public_entries_reject_floats(entry):
    with pytest.raises(TypeError, match="not an exact rational"):
        FLOAT_ENTRIES[entry]()


def test_to_sparse_rejects_floats():
    assert to_sparse(2, (F(1, 2), 0)) == {0: F(1, 2)}
    with pytest.raises(TypeError):
        to_sparse(2, (0.1, 1))


@pytest.mark.parametrize("value, expected", [("-2/3", F(-2, 3)), ("5", F(5)), (7, F(7)), (-4, F(-4))])
def test_parse_rational_reads_strings_and_ints(value, expected):
    out = parse_rational(value)
    assert out == expected and type(out) is F


@pytest.mark.parametrize("value", [0.1, 2.0, -0.5, True, False, None, [1, 2]])
def test_parse_rational_rejects_floats_and_bools(value):
    with pytest.raises(ValueError, match="not an exact rational"):
        parse_rational(value)


@pytest.mark.parametrize(
    "value, text",
    [(5, "5"), (-3, "-3"), (F(6, 3), "2"), (F(-1, 3), "-1/3"), ("2/4", "1/2"), (True, "1")],
)
def test_format_rational_prints_the_coerced_value(value, text):
    assert format_rational(value) == text == str(F(value))
