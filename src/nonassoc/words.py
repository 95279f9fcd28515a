"""AST and parser for loop words and identities.

Grammar (fully parenthesized on purpose: the three binary operations carry
no agreed precedence, so the syntax refuses the ambiguity):

    expr     := IDENT | 'e' | '(' expr op expr ')'
    op       := '*' | '\\' | '/'
    identity := expr '=' expr

Identifiers are x1, x2, ... with 1-based indices bounded by the declared
variable count; 'e' is the loop unit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Mul:
    left: "LoopWord"
    right: "LoopWord"


@dataclass(frozen=True)
class LDiv:
    left: "LoopWord"
    right: "LoopWord"


@dataclass(frozen=True)
class RDiv:
    left: "LoopWord"
    right: "LoopWord"


LoopWord = Var | Unit | Mul | LDiv | RDiv

_OPS = {"*": Mul, "\\": LDiv, "/": RDiv}


@dataclass(frozen=True)
class Identity:
    lhs: LoopWord
    rhs: LoopWord
    nvars: int


class WordSyntaxError(ValueError):
    """Raised on malformed input; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def fail(self, message: str) -> WordSyntaxError:
        return WordSyntaxError(message, self.pos)

    def expr(self) -> LoopWord:
        ch = self.peek()
        if ch is None:
            raise self.fail("unexpected end of input, expected an expression")
        if ch == "(":
            self.pos += 1
            left = self.expr()
            op = self.peek()
            if op not in _OPS:
                raise self.fail("expected an operator '*', '\\' or '/'")
            self.pos += 1
            right = self.expr()
            if self.peek() != ")":
                raise self.fail("expected ')'")
            self.pos += 1
            return _OPS[op](left, right)
        if ch == "e":
            nxt = self.pos + 1
            if nxt < len(self.text) and (self.text[nxt].isalnum() or self.text[nxt] == "_"):
                raise self.fail(f"unknown identifier {self._ident_at(self.pos)!r}")
            self.pos += 1
            return Unit()
        if ch == "x":
            start = self.pos
            name = self._ident_at(start)
            digits = name[1:]
            if not digits.isdigit():
                raise self.fail(f"unknown identifier {name!r}")
            index = int(digits)
            if index < 1 or str(index) != digits:
                raise self.fail(f"unknown identifier {name!r}")
            if index > self.nvars:
                raise self.fail(
                    f"variable {name} exceeds the declared count of {self.nvars}"
                )
            self.pos = start + len(name)
            return Var(index)
        raise self.fail(f"unexpected character {ch!r}")

    def _ident_at(self, start: int) -> str:
        end = start
        while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            end += 1
        return self.text[start:end]

    def expect_end(self) -> None:
        if self.peek() is not None:
            raise self.fail("trailing input")


def parse_identity(text: str, nvars: int) -> Identity:
    if type(nvars) is not int or nvars < 0:
        raise ValueError(f"variable count must be an int >= 0, got {nvars!r}")
    parser = _Parser(text, nvars)
    lhs = parser.expr()
    if parser.peek() != "=":
        raise parser.fail("expected '='")
    parser.pos += 1
    rhs = parser.expr()
    parser.expect_end()
    return Identity(lhs, rhs, nvars)


def word_variables(word: LoopWord) -> set[int]:
    match word:
        case Var(index):
            return {index}
        case Unit():
            return set()
        case Mul(a, b) | LDiv(a, b) | RDiv(a, b):
            return word_variables(a) | word_variables(b)
    raise TypeError(f"not a loop word: {word!r}")
