"""Text format for information inequalities.

    vars A,B,C;
    h(A,B) + 2*I(A;B|C) >= 3/2*h(C) + Im(A,B,C)

Measures expand into plain entropy terms at parse time. The printer emits a
canonical two-sided entropy form that parses back to the identical
expression.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    DslError,
    Expr,
    Measure,
    Universe,
    combine,
    cond_entropy,
    cond_mutual_info,
    entropy,
    expand_measure,
    multi_mutual_info,
    mutual_info,
)


class Token(NamedTuple):
    kind: str  # 'ident' | 'int' | symbol text
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|>=|[+*/(),;|-]|\S")


def tokenize(text: str) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            piece = m.group()
            col = m.start() + 1
            if piece[0].isalpha() or piece[0] == "_":
                tokens.append(Token("ident", piece, lineno, col))
            elif piece.isdigit():
                tokens.append(Token("int", piece, lineno, col))
            elif piece in (">=", "+", "-", "*", "/", "(", ")", ",", ";", "|"):
                tokens.append(Token(piece, piece, lineno, col))
            else:
                raise DslError(f"unexpected character {piece!r}", lineno, col)
    return tokens


class ParsedProgram(NamedTuple):
    """One inequality, with its universe declared or inferred."""

    universe: Universe
    expr: Expr
    declared: bool  # a `vars` header fixed the universe explicitly


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def fail(self, message: str) -> DslError:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            return DslError(
                f"{message}, got end of input",
                last.line,
                last.col + len(last.text),
            )
        return DslError(f"{message}, got {tok.text!r}", tok.line, tok.col)

    def take(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.fail(f"expected {what}")
        self.pos += 1
        return tok

    def ident_list(self) -> list[Token]:
        names = [self.take("ident", "a variable name")]
        while (tok := self.peek()) is not None and tok.kind == ",":
            self.pos += 1
            names.append(self.take("ident", "a variable name"))
        return names

    def integer(self, what: str) -> tuple[int, Token]:
        tok = self.take("int", what)
        try:
            return int(tok.text), tok
        except ValueError:  # past the interpreter's limit on integer digits
            raise DslError(
                f"{len(tok.text)}-digit number is too long", tok.line, tok.col
            ) from None

    def rational(self) -> Fraction:
        num, _ = self.integer("a number")
        den = 1
        if (tok := self.peek()) is not None and tok.kind == "/":
            self.pos += 1
            den, den_tok = self.integer("a denominator")
            if den == 0:
                raise DslError(
                    "zero denominator", den_tok.line, den_tok.col
                )
        return Fraction(num, den)

    def measure(self) -> tuple[Measure, list[Token]]:
        head = self.take("ident", "a measure (h, I, or Im)")
        if head.text not in ("h", "I", "Im"):
            raise DslError(
                f"unknown measure {head.text!r}", head.line, head.col
            )
        self.take("(", "'('")
        groups = [self.ident_list()]
        if head.text == "I":
            self.take(";", "';' between the two argument lists")
            groups.append(self.ident_list())
        if head.text in ("h", "I"):
            if (tok := self.peek()) is not None and tok.kind == "|":
                self.pos += 1
                groups.append(self.ident_list())
        self.take(")", "')'")
        mentioned = [tok for group in groups for tok in group]
        return (head.text, tuple(tuple(t.text for t in g) for g in groups)), mentioned

    def side(self) -> list[tuple]:
        # a lone 0 is an empty side, unless it starts a coefficient
        tok = self.peek()
        if tok is not None and tok.kind == "int" and tok.text == "0":
            nxt = self.peek(1)
            if nxt is None or nxt.kind not in ("*", "/"):
                self.pos += 1
                return []
        terms = [self.term()]
        while (tok := self.peek()) is not None and tok.kind == "+":
            self.pos += 1
            terms.append(self.term())
        return terms

    def term(self) -> tuple:
        # [+|-] [rational *] measure
        start = tok = self.peek()
        if start is None:
            raise self.fail("expected a term")
        if tok.kind in ("+", "-"):
            self.pos += 1
            tok = self.peek()
        coeff = Fraction(1)
        if tok is not None and tok.kind == "int":
            coeff = self.rational()
            self.take("*", "'*' after a coefficient")
        shape, mentioned = self.measure()
        return (-coeff if start.kind == "-" else coeff), shape, start, mentioned


def _build_measure(uni: Universe, kind: str, groups: tuple) -> Measure:
    masks = [uni.mask(g) for g in groups]
    if kind == "h":
        return entropy(masks[0]) if len(masks) == 1 else cond_entropy(
            masks[0], masks[1]
        )
    if kind == "Im":
        return multi_mutual_info(masks[0])
    if len(masks) == 2:
        return mutual_info(masks[0], masks[1])
    return cond_mutual_info(masks[0], masks[1], masks[2])


def parse_program(text: str) -> ParsedProgram:
    tokens = tokenize(text)
    if not tokens:
        raise DslError("empty input", 1, 1)
    parser = _Parser(tokens)

    declared: Optional[list[Token]] = None
    first = parser.peek()
    if (
        first is not None
        and first.kind == "ident"
        and first.text == "vars"
        and (nxt := parser.peek(1)) is not None
        and nxt.kind == "ident"
    ):
        parser.pos += 1
        declared = parser.ident_list()
        parser.take(";", "';' after the vars header")

    lhs = parser.side()
    parser.take(">=", "'>='")
    rhs = parser.side()
    if (extra := parser.peek()) is not None:
        raise DslError(
            f"unexpected trailing {extra.text!r}", extra.line, extra.col
        )

    mentioned: dict[str, Token] = {}
    for side in (lhs, rhs):
        for _, _, _, names in side:
            for tok in names:
                mentioned.setdefault(tok.text, tok)
    if declared is not None:
        known = {tok.text for tok in declared}
        dup = len(known) != len(declared)
        if dup:
            raise DslError(
                "duplicate name in vars header",
                declared[0].line,
                declared[0].col,
            )
        for name, tok in mentioned.items():
            if name not in known:
                raise DslError(
                    f"{name!r} is not in the vars header", tok.line, tok.col
                )
        uni = Universe(tuple(tok.text for tok in declared))
    else:
        uni = Universe(tuple(sorted(mentioned)))

    for coeff, _, start, _ in rhs:
        if coeff < 0:
            raise DslError(
                "negative coefficients are allowed only on the left side "
                "of `... >= 0`",
                start.line,
                start.col,
            )
    if any(coeff < 0 for coeff, _, _, _ in lhs) and rhs:
        raise DslError(
            "negative coefficients require a bare 0 right-hand side",
            lhs[0][2].line,
            lhs[0][2].col,
        )

    parts = []
    for sign, side in ((1, lhs), (-1, rhs)):
        for coeff, (kind, groups), _, _ in side:
            measure = _build_measure(uni, kind, groups)
            parts.append((sign * coeff, expand_measure(uni, measure)))
    return ParsedProgram(uni, combine(uni, parts), declared is not None)


def parse_inequality(text: str) -> Expr:
    return parse_program(text).expr


def _format_side(uni: Universe, side: dict[int, Fraction]) -> str:
    if not side:
        return "0"
    pieces = []
    for mask in sorted(side):
        names = ",".join(uni.names_of(mask))
        coeff = side[mask]
        pieces.append(f"h({names})" if coeff == 1 else f"{coeff}*h({names})")
    return " + ".join(pieces)


def format_inequality(expr: Expr) -> str:
    """Canonical two-sided entropy form; parses back to the same expression."""
    uni = expr.universe
    lhs, rhs = expr.two_sided()
    line = f"{_format_side(uni, lhs)} >= {_format_side(uni, rhs)}"
    mentioned = uni.names_of(expr.variables_mentioned())
    if uni.names != tuple(sorted(mentioned)):
        return f"vars {','.join(uni.names)};\n{line}"
    return line
