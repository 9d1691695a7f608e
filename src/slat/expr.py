"""Surface syntax for elements of the generated semilattice.

Two grammars share one tokenizer:

  * expressions  --  0 | 1 | a0(ID) | a1(ID) | join(E,E[,...]) | bowtie(E,E,E)
  * canonical values  --  top | pair([ID,...],[ID,...]) | red(V; [(V,V,V), ...])

Identifiers match [A-Za-z0-9_]+.  Parse errors carry line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import freedist, freepairs, pairs


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"[A-Za-z0-9_]+|[();,\[\]]")
_INVALID = re.compile(r"[^A-Za-z0-9_();,\[\]\s]")
# Tokens that are not identifiers; "" marks the end of input.
_NOT_IDENT = frozenset("();,[]") | {""}


def _position(text: str, offset: int) -> tuple:
    """1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Cursor:
    """Token strings of one regex pass; positions are found only for errors."""

    def __init__(self, text):
        bad = _INVALID.search(text)
        if bad:
            raise ParseError(
                f"unexpected character {bad.group()!r}", *_position(text, bad.start())
            )
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.pos = 0

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the start of token number index."""
        offset = len(self.text)
        for k, match in enumerate(_TOKEN.finditer(self.text)):
            if k == index:
                offset = match.start()
                break
        return ParseError(message, *_position(self.text, offset))

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.tokens[self.pos]
        if tok != text:
            shown = tok or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}", self.pos)
        self.pos += 1

    def name(self) -> str:
        tok = self.next()
        if tok in _NOT_IDENT:
            raise self.error("expected identifier", self.pos - 1)
        return tok

    def done(self):
        tok = self.peek()
        if tok:
            raise self.error(f"trailing input {tok!r}", self.pos)


def parse_name(text: str) -> str:
    """Read text as one generator name; raises ValueError otherwise."""
    try:
        cur = _Cursor(text)
        name = cur.name()
        cur.done()
    except ParseError:
        raise ValueError(f"generator name must be one identifier, got {text!r}") from None
    return name


# ---------------------------------------------------------------------------
# Expression AST


class Lit(NamedTuple):
    value: int


class GenExpr(NamedTuple):
    i: int
    name: str


class JoinExpr(NamedTuple):
    args: tuple


class BowtieExpr(NamedTuple):
    a: object
    b: object
    c: object


def parse(text: str):
    """Parse an expression; raises ParseError with line/column info."""
    cur = _Cursor(text)
    expr = _parse_expr(cur)
    cur.done()
    return expr


def _parse_expr(cur: _Cursor):
    at = cur.pos
    tok = cur.next()
    if tok == "0":
        return Lit(0)
    if tok == "1":
        return Lit(1)
    if tok in ("a0", "a1"):
        cur.expect("(")
        name = cur.name()
        cur.expect(")")
        return GenExpr(int(tok[1]), name)
    if tok == "join":
        cur.expect("(")
        args = [_parse_expr(cur)]
        while cur.peek() == ",":
            cur.next()
            args.append(_parse_expr(cur))
        cur.expect(")")
        if len(args) < 2:
            raise cur.error("join needs at least two arguments", at)
        return JoinExpr(tuple(args))
    if tok == "bowtie":
        cur.expect("(")
        a = _parse_expr(cur)
        cur.expect(",")
        b = _parse_expr(cur)
        cur.expect(",")
        c = _parse_expr(cur)
        cur.expect(")")
        return BowtieExpr(a, b, c)
    shown = tok or "end of input"
    raise cur.error(f"expected an expression, found {shown!r}", at)


def render(e) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, GenExpr):
        return f"a{e.i}({e.name})"
    if isinstance(e, JoinExpr):
        return "join(%s)" % ",".join(render(a) for a in e.args)
    if isinstance(e, BowtieExpr):
        return f"bowtie({render(e.a)},{render(e.b)},{render(e.c)})"
    raise TypeError(f"not an expression: {e!r}")


def evaluate(e):
    """Evaluate an expression to a canonical element.

    The splitting constructor checks its membership precondition and
    reports the offending sub-expression on failure.
    """
    if isinstance(e, Lit):
        return freepairs.ZERO if e.value == 0 else freepairs.ONE
    if isinstance(e, GenExpr):
        return freepairs.gen(e.i, e.name)
    if isinstance(e, JoinExpr):
        out = evaluate(e.args[0]) if e.args else freepairs.ZERO
        for arg in e.args[1:]:
            out = freepairs.join(out, evaluate(arg))
        return out
    if isinstance(e, BowtieExpr):
        a, b, c = evaluate(e.a), evaluate(e.b), evaluate(e.c)
        try:
            return freepairs.bowtie(a, b, c)
        except freedist.DomainError:
            raise freedist.DomainError(f"not in C(S): {render(e)}") from None
    raise TypeError(f"not an expression: {e!r}")


def parse_eval(text: str):
    return evaluate(parse(text))


# ---------------------------------------------------------------------------
# Canonical values


def serialize(v) -> str:
    return freepairs.serialize(v)


def deserialize(text: str):
    """Parse a canonical value back; the result is validated."""
    cur = _Cursor(text)
    v = _parse_value(cur)
    cur.done()
    return freepairs.validate(v)


def _parse_value(cur: _Cursor):
    at = cur.pos
    tok = cur.next()
    if tok == "top":
        return pairs.TOP
    if tok == "pair":
        cur.expect("(")
        pos = _parse_name_list(cur)
        cur.expect(",")
        neg = _parse_name_list(cur)
        cur.expect(")")
        try:
            return pairs.PairElem(frozenset(pos), frozenset(neg))
        except ValueError as exc:
            raise cur.error(str(exc), at) from None
    if tok == "red":
        cur.expect("(")
        projection = _parse_value(cur)
        cur.expect(";")
        cur.expect("[")
        triples = []
        while True:
            cur.expect("(")
            u = _parse_value(cur)
            cur.expect(",")
            v = _parse_value(cur)
            cur.expect(",")
            w = _parse_value(cur)
            cur.expect(")")
            triples.append(freedist.Triple(u, v, w))
            if cur.peek() != ",":
                break
            cur.next()
        cur.expect("]")
        cur.expect(")")
        return freedist.Node(projection, tuple(triples))
    shown = tok or "end of input"
    raise cur.error(f"expected a value, found {shown!r}", at)


def _parse_name_list(cur: _Cursor) -> list:
    cur.expect("[")
    names = []
    if cur.peek() != "]":
        while True:
            names.append(cur.name())
            if cur.peek() != ",":
                break
            cur.next()
    cur.expect("]")
    return names
