"""The exact scalar helpers: canonical int | Fraction form, exact division, no floats."""

from fractions import Fraction as F

import pytest

from nonassoc.scalars import exact, exact_div, format_rational, parse_rational, to_sparse


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
