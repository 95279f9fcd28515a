import pytest

from nonassoc.words import (
    LDiv,
    Mul,
    RDiv,
    Unit,
    Var,
    WordSyntaxError,
    parse_identity,
    word_variables,
)

MOUFANG = "(x1 * (x2 * (x1 * x3))) = (((x1 * x2) * x1) * x3)"


def test_moufang_identity_ast():
    identity = parse_identity(MOUFANG, 3)
    assert identity.lhs == Mul(Var(1), Mul(Var(2), Mul(Var(1), Var(3))))
    assert identity.rhs == Mul(Mul(Mul(Var(1), Var(2)), Var(1)), Var(3))
    assert identity.nvars == 3


def test_left_division_ast():
    identity = parse_identity(r"(x1 \ (x1 * x2)) = x2", 2)
    assert identity.lhs == LDiv(Var(1), Mul(Var(1), Var(2)))


def test_unit_and_right_division():
    identity = parse_identity("(e / (x1 \\ e)) = e", 1)
    assert identity.lhs == RDiv(Unit(), LDiv(Var(1), Unit()))
    assert identity.rhs == Unit()


def test_syntax_error_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_identity("(x1 * ) = e", 2)
    assert err.value.position == 6


def test_unknown_identifier():
    with pytest.raises(WordSyntaxError):
        parse_identity("(x1 * y2) = e", 2)
    with pytest.raises(WordSyntaxError):
        parse_identity("ee = e", 1)


def test_arity_overflow():
    with pytest.raises(WordSyntaxError) as err:
        parse_identity("(x1 * x5) = e", 3)
    assert "x5" in str(err.value)


def test_missing_parenthesis_and_trailing_input():
    with pytest.raises(WordSyntaxError):
        parse_identity("(x1 * x2 = e", 2)
    with pytest.raises(WordSyntaxError):
        parse_identity("(x1 * x2) = x3 x3", 3)
    with pytest.raises(WordSyntaxError):
        parse_identity("(x1 * x2)", 2)  # no '='


def test_word_variables():
    identity = parse_identity(MOUFANG, 3)
    assert word_variables(identity.lhs) == {1, 2, 3}
    assert word_variables(Unit()) == set()

