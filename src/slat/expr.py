"""Surface syntax for elements of the generated semilattice.

Two grammars share one tokenizer:

  * expressions  --  0 | 1 | a0(ID) | a1(ID) | join(E,E[,...]) | bowtie(E,E,E)
  * canonical values  --  top | pair([ID,...],[ID,...]) | red(V; [(V,V,V), ...])

Identifiers match [A-Za-z0-9_]+.  Parse errors carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import freedist, freepairs, pairs


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"[A-Za-z0-9_]+|[();,\[\]]|\s+|.")
_VALID = re.compile(r"[A-Za-z0-9_]+|[();,\[\]]")


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    for match in _TOKEN.finditer(text):
        tok = match.group(0)
        if not tok.isspace():
            if not _VALID.fullmatch(tok):
                raise ParseError(f"unexpected character {tok!r}", line, col)
            tokens.append(_Token(tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
    tokens.append(_Token("", line, col))
    return tokens


class _Cursor:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", tok.line, tok.col)
        return tok

    def done(self):
        tok = self.peek()
        if tok.text:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Expression AST


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class GenExpr:
    i: int
    name: str


@dataclass(frozen=True)
class JoinExpr:
    args: tuple


@dataclass(frozen=True)
class BowtieExpr:
    a: object
    b: object
    c: object


_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


def parse(text: str):
    """Parse an expression; raises ParseError with line/column info."""
    cur = _Cursor(text)
    expr = _parse_expr(cur)
    cur.done()
    return expr


def _parse_expr(cur: _Cursor):
    tok = cur.next()
    if tok.text == "0":
        return Lit(0)
    if tok.text == "1":
        return Lit(1)
    if tok.text in ("a0", "a1"):
        cur.expect("(")
        name = cur.next()
        if not _IDENT.match(name.text):
            raise ParseError("expected identifier", name.line, name.col)
        cur.expect(")")
        return GenExpr(int(tok.text[1]), name.text)
    if tok.text == "join":
        cur.expect("(")
        args = [_parse_expr(cur)]
        while cur.peek().text == ",":
            cur.next()
            args.append(_parse_expr(cur))
        cur.expect(")")
        if len(args) < 2:
            raise ParseError("join needs at least two arguments", tok.line, tok.col)
        return JoinExpr(tuple(args))
    if tok.text == "bowtie":
        cur.expect("(")
        a = _parse_expr(cur)
        cur.expect(",")
        b = _parse_expr(cur)
        cur.expect(",")
        c = _parse_expr(cur)
        cur.expect(")")
        return BowtieExpr(a, b, c)
    shown = tok.text or "end of input"
    raise ParseError(f"expected an expression, found {shown!r}", tok.line, tok.col)


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
        out = freepairs.ZERO
        for arg in e.args:
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


def to_expr(v) -> str:
    """An expression that evaluates back to v exactly.

    Rebuilds v from its projection and per-triple splitting elements.
    """
    if v == freepairs.ZERO:
        return "0"
    if v == freepairs.ONE:
        return "1"
    if not isinstance(v, freedist.Node):
        parts = [f"a0({n})" for n in sorted(v.pos)]
        parts += [f"a1({n})" for n in sorted(v.neg)]
        return parts[0] if len(parts) == 1 else "join(%s)" % ",".join(parts)
    parts = [] if v.proj == freepairs.ZERO else [to_expr(v.proj)]
    parts += [
        f"bowtie({to_expr(t.u)},{to_expr(t.v)},{to_expr(t.w)})"
        for t in v.triples
    ]
    return parts[0] if len(parts) == 1 else "join(%s)" % ",".join(parts)


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
    tok = cur.next()
    if tok.text == "top":
        return pairs.TOP
    if tok.text == "pair":
        cur.expect("(")
        pos = _parse_name_list(cur)
        cur.expect(",")
        neg = _parse_name_list(cur)
        cur.expect(")")
        try:
            return pairs.PairElem(frozenset(pos), frozenset(neg))
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
    if tok.text == "red":
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
            if cur.peek().text != ",":
                break
            cur.next()
        cur.expect("]")
        cur.expect(")")
        return freedist.Node(projection, tuple(triples))
    shown = tok.text or "end of input"
    raise ParseError(f"expected a value, found {shown!r}", tok.line, tok.col)


def _parse_name_list(cur: _Cursor) -> list:
    cur.expect("[")
    names = []
    if cur.peek().text != "]":
        while True:
            tok = cur.next()
            if not _IDENT.match(tok.text):
                raise ParseError("expected identifier", tok.line, tok.col)
            names.append(tok.text)
            if cur.peek().text != ",":
                break
            cur.next()
    cur.expect("]")
    return names
