"""Surface syntax for elements of the generated semilattice.

Two grammars:

  * expressions  --  0 | 1 | a0(ID) | a1(ID) | join(E,E[,...]) | bowtie(E,E,E)
  * canonical values  --  top | pair([ID,...],[ID,...]) | red(V; [(V,V,V), ...])

Identifiers match [A-Za-z0-9_]+, and whitespace may appear between tokens.
A value's text is the one ``serialize`` writes: the names in each list of a
pair strictly increase, and triples appear in canonical order.  Parse errors
carry line and column.
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
# Values also read a whitespace-free pair with well-formed name lists as one
# atom token; any other pair is read in the tokens of _TOKEN.
_NAMES = r"(?:[A-Za-z0-9_]+(?:,[A-Za-z0-9_]+)*)?"
_VALUE_TOKEN = re.compile(rf"pair\(\[{_NAMES}\],\[{_NAMES}\]\)|{_TOKEN.pattern}")
_INVALID = re.compile(r"[^A-Za-z0-9_();,\[\]\s]")
# Tokens that are not identifiers; "" marks the end of input.
_NOT_IDENT = frozenset("();,[]") | {""}


def _position(text: str, offset: int) -> tuple:
    """1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _shown(tok: str) -> str:
    """A token as error messages name it: an atom by its leading 'pair'."""
    return "pair" if tok.startswith("pair(") else tok or "end of input"


class _Cursor:
    """Token strings of one regex pass; positions are found only for errors."""

    def __init__(self, text, token=_TOKEN):
        bad = _INVALID.search(text)
        if bad:
            raise ParseError(
                f"unexpected character {bad.group()!r}", *_position(text, bad.start())
            )
        self.text = text
        self.token = token
        self.tokens = token.findall(text)
        self.tokens.append("")
        self.pos = 0

    def error(self, message: str, index: int, skip: int = 0) -> ParseError:
        """A ParseError skip characters into token number index."""
        offset = len(self.text)
        for k, match in enumerate(self.token.finditer(self.text)):
            if k == index:
                offset = match.start() + skip
                break
        return ParseError(message, *_position(self.text, offset))

    def expected(self, text: str, index: int) -> ParseError:
        """The ParseError for token number index not being text."""
        shown = _shown(self.tokens[index])
        return self.error(f"expected {text!r}, found {shown!r}", index)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        if self.tokens[self.pos] != text:
            raise self.expected(text, self.pos)
        self.pos += 1

    def name(self) -> str:
        tok = self.next()
        if tok in _NOT_IDENT:
            raise self.error("expected identifier", self.pos - 1)
        return tok

    def done(self):
        tok = self.peek()
        if tok:
            raise self.error(f"trailing input {_shown(tok)!r}", self.pos)


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
    cur = _Cursor(text, _VALUE_TOKEN)
    v, i = _read_value(cur, 0, {"top": pairs.TOP})
    cur.pos = i
    cur.done()
    return freepairs.validate(v)


def _read_value(cur: _Cursor, i: int, atoms: dict):
    """The value at token i and the index after it; atoms maps ``top`` and
    each atom token already read in this call to its value."""
    toks = cur.tokens
    tok = toks[i]
    v = atoms.get(tok)
    if v is not None:
        return v, i + 1
    if tok.startswith("pair("):
        pos, neg = (s.split(",") if s else [] for s in tok[6:-2].split("],["))
        v = atoms[tok] = _pair(cur, i, pos, neg)
        return v, i + 1
    if tok == "pair":
        return _read_pair(cur, i)
    if tok != "red":
        raise cur.error(f"expected a value, found {_shown(tok)!r}", i)
    if toks[i + 1] != "(":
        raise cur.expected("(", i + 1)
    projection, i = _read_value(cur, i + 2, atoms)
    for k, want in enumerate(";["):
        if toks[i + k] != want:
            raise cur.expected(want, i + k)
    i += 2
    triples = []
    while True:
        triple = []
        for before in "(,,":
            if toks[i] != before:
                raise cur.expected(before, i)
            v, i = _read_value(cur, i + 1, atoms)
            triple.append(v)
        if toks[i] != ")":
            raise cur.expected(")", i)
        triples.append(freedist.Triple(*triple))
        i += 1
        if toks[i] != ",":
            break
        i += 1
    for k, want in enumerate("])"):
        if toks[i + k] != want:
            raise cur.expected(want, i + k)
    return freedist.Node(projection, tuple(triples)), i + 2


def _read_pair(cur: _Cursor, i: int):
    """The pair at token i read token by token, and the index after it: one
    with whitespace inside, or a malformed one whose first fault this names."""
    cur.pos = i + 1
    cur.expect("(")
    sides = []
    for close in ",)":
        cur.expect("[")
        names = [] if cur.peek() == "]" else [_read_name(cur)]
        while names and cur.peek() == ",":
            cur.next()
            names.append(_read_name(cur))
        cur.expect("]")
        cur.expect(close)
        sides.append(names)
    return _pair(cur, i, *sides), cur.pos


def _read_name(cur: _Cursor) -> str:
    """A name in a pair read token by token.  An atom token there is the
    name ``pair`` followed by the '(' that ends the name list too early."""
    tok = cur.name()
    if tok.startswith("pair("):
        raise cur.error("expected ']', found '('", cur.pos - 1, 4)
    return tok


def _pair(cur: _Cursor, at: int, pos: list, neg: list):
    """The pair read at token index at; its name lists strictly increase."""
    try:
        p = pairs.PairElem(frozenset(pos), frozenset(neg))
    except ValueError as exc:
        raise cur.error(str(exc), at) from None
    if pos != sorted(p.pos) or neg != sorted(p.neg):
        raise cur.error("names in a pair must be strictly increasing", at)
    return p
