import random

import pytest

from slat import expr, freepairs
from slat.expr import ParseError, deserialize, parse, parse_eval, serialize
from slat.freedist import DomainError, ReducedFormError


def test_parse_shapes():
    e = parse("join(a0(x),a1(x))")
    assert isinstance(e, expr.JoinExpr)
    assert e.args == (expr.GenExpr(0, "x"), expr.GenExpr(1, "x"))
    b = parse("bowtie(0,1,a0(fee_4))")
    assert b == expr.BowtieExpr(expr.Lit(0), expr.Lit(1), expr.GenExpr(0, "fee_4"))


def test_parse_whitespace_and_nested():
    e = parse("join( a0(x) ,\n join(a1(x), 0) )")
    assert isinstance(e, expr.JoinExpr)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("join(a0(x)")
    assert err.value.line == 1 and err.value.col == 11
    with pytest.raises(ParseError) as err:
        parse("join(a0(x),\n  %)")
    assert err.value.line == 2 and err.value.col == 3
    assert str(err.value) == "2:3: unexpected character '%'"
    with pytest.raises(ParseError):
        parse("join(a0(x))")  # arity
    with pytest.raises(ParseError):
        parse("bowtie(0,1)")
    with pytest.raises(ParseError):
        parse("a0(x) a1(x)")  # trailing input


def test_evaluate_examples():
    assert parse_eval("join(a0(x),a1(x))") == freepairs.ONE
    assert parse_eval("join(0,a0(x))") == freepairs.gen(0, "x")
    assert parse_eval("0") == freepairs.ZERO
    assert parse_eval("1") == freepairs.ONE


def test_evaluate_join_folds_from_the_first_argument():
    # the fold starts at the first argument, and agrees with join_all's
    # fold from zero; a join with no arguments (never parsed) is zero
    split = expr.BowtieExpr(expr.GenExpr(0, "x"), expr.GenExpr(1, "x"), expr.Lit(1))
    terms = [split, expr.GenExpr(0, "y"), expr.Lit(0), expr.Lit(1)]
    assert expr.evaluate(expr.JoinExpr(())) == freepairs.ZERO
    for args in ([split], [split, terms[1]], terms[1:3], terms, terms[::-1]):
        want = freepairs.join_all([expr.evaluate(a) for a in args])
        assert expr.evaluate(expr.JoinExpr(tuple(args))) == want
    assert expr.evaluate(split) != freepairs.ZERO


def test_evaluate_bowtie_domain_error_names_subexpression():
    with pytest.raises(DomainError) as err:
        parse_eval("join(a0(y),bowtie(a0(x),a0(x),1))")
    assert "bowtie(a0(x),a0(x),1)" in str(err.value)


def test_serialize_examples():
    assert serialize(freepairs.ZERO) == "pair([],[])"
    assert serialize(freepairs.ONE) == "top"
    nd = freepairs.bowtie(
        freepairs.gen(0, "x"), freepairs.gen(1, "x"), freepairs.ONE
    )
    assert serialize(nd) == "red(pair([],[]); [(pair([x],[]),pair([],[x]),top)])"


def test_deserialize_roundtrip_random():
    names = ("x", "y", "z")
    rng = random.Random("expr:roundtrip")
    values = [freepairs.random_elem(rng, names, 2) for _ in range(300)]
    # random_elem's joins mostly collapse to one triple, so joins of two to
    # four bowties give the values with two and three triples
    rng = random.Random("expr:roundtrip-wide")
    values += [
        freepairs.join_all(
            freepairs.bowtie(*freepairs.random_triple(rng, names, 1))
            for _ in range(rng.randint(2, 4))
        )
        for _ in range(300)
    ]
    for v in values:
        text = serialize(v)
        assert deserialize(text) == v
        assert serialize(deserialize(text)) == text
    assert sum(len(getattr(v, "triples", ())) >= 3 for v in values) >= 10


def test_deserialize_rejects_invalid_forms():
    with pytest.raises(ReducedFormError):
        deserialize("red(pair([],[]); [(pair([x],[]),pair([x],[]),pair([x],[]))])")
    with pytest.raises(ParseError):
        deserialize("red(pair([],[]); [])")
    with pytest.raises(ParseError):
        deserialize("pair([x],[x)")
    with pytest.raises(ParseError):
        deserialize("pair([x],[x])")  # overlapping sides
    with pytest.raises(ParseError, match=r"^1:1: expected a value, found 'nope'$"):
        deserialize("nope")
    triple = "(pair([x],[]),pair([],[x]),top)"
    with pytest.raises(ReducedFormError, match="^ordering: duplicate triples$"):
        deserialize(f"red(pair([],[]); [{triple},{triple}])")


T = "(pair([x],[]),pair([],[x]),top)"
ORDER = "names in a pair must be strictly increasing"

# Malformed values and the ParseError each one raises: one row or more for
# every error branch of the value reader.  A pair written without whitespace
# is read as one atom token, any other pair token by token, so several faults
# appear on both paths.
MALFORMED_VALUES = [
    # unexpected character
    ("pair([a],[b])%", "1:14: unexpected character '%'"),
    ("pair([a],[%])", "1:11: unexpected character '%'"),
    # not a value
    ("", "1:1: expected a value, found 'end of input'"),
    ("nope", "1:1: expected a value, found 'nope'"),
    ("red(", "1:5: expected a value, found 'end of input'"),
    # missing '(', ';', '[', ',', ')' or ']' in red(...)
    ("red", "1:4: expected '(', found 'end of input'"),
    ("red pair([],[]); [" + T + "])", "1:5: expected '(', found 'pair'"),
    ("red(pair([],[]) [" + T + "])", "1:17: expected ';', found '['"),
    ("red(top pair([],[]))", "1:9: expected ';', found 'pair'"),
    ("red(pair([],[]); " + T + ")", "1:18: expected '[', found '('"),
    ("red(pair([],[]); [(pair([x],[]) pair([],[x]),top)])", "1:33: expected ',', found 'pair'"),
    ("red(pair([],[]); [(pair([x],[]),pair([],[x]),top])", "1:49: expected ')', found ']'"),
    ("red(pair([],[]); [" + T + " (top,top,top)])", "1:51: expected ']', found '('"),
    ("red(pair([],[]); [" + T + "]", "1:51: expected ')', found 'end of input'"),
    ("red(pair([],[]); [" + T + "] pair([],[]))", "1:52: expected ')', found 'pair'"),
    # an empty triple list, and a trailing comma in one
    ("red(pair([],[]); [])", "1:19: expected '(', found ']'"),
    ("red(pair([],[]); [" + T + ",])", "1:51: expected '(', found ']'"),
    # missing '(', '[', ',', ')' or ']' in pair(...), or a bad name list
    ("pair[a],[])", "1:5: expected '(', found '['"),
    ("pair(a],[])", "1:6: expected '[', found 'a'"),
    ("pair(pair([],[]),[])", "1:6: expected '[', found 'pair'"),
    ("pair([a] [])", "1:10: expected ',', found '['"),
    ("pair([a],[]", "1:12: expected ')', found 'end of input'"),
    ("pair([x],[x)", "1:12: expected ']', found ')'"),
    ("pair([a b],[])", "1:9: expected ']', found 'b'"),
    ("pair([a,],[])", "1:9: expected identifier"),
    ("pair([,a],[])", "1:7: expected identifier"),
    # a pair where a name belongs is the name 'pair' and a stray '('
    ("pair([pair([],[])],[])", "1:11: expected ']', found '('"),
    ("pair([a,pair([],[])],[])", "1:13: expected ']', found '('"),
    ("pair( [a,pair([],[])],[])", "1:14: expected ']', found '('"),
    ("pair([],[pair([],[])])", "1:14: expected ']', found '('"),
    # overlapping sides, as an atom and token by token
    ("pair([a],[a])", "1:1: pos and neg must be disjoint"),
    ("pair( [a],[a])", "1:1: pos and neg must be disjoint"),
    ("red(pair([],[]); [(pair([x],[]),pair([],[x]),pair([x,y],[x]))])",
     "1:46: pos and neg must be disjoint"),
    # names out of order or repeated, as an atom and token by token
    ("pair([b,a],[])", "1:1: " + ORDER),
    ("pair([a,a],[])", "1:1: " + ORDER),
    ("pair([],[b,a])", "1:1: " + ORDER),
    ("pair( [b,a],[])", "1:1: " + ORDER),
    ("pair([a,a],[ b ])", "1:1: " + ORDER),
    ("red(pair([],[]); [(pair([b,a],[]),pair([],[x]),top)])", "1:20: " + ORDER),
    # trailing input, named by its first token
    ("top top", "1:5: trailing input 'top'"),
    ("pair([a],[])]", "1:13: trailing input ']'"),
    ("pair([a],[b])pair([a],[b])", "1:14: trailing input 'pair'"),
    ("top\n  pair([a],[])", "2:3: trailing input 'pair'"),
    # positions on later lines
    ("red(pair([],[]);\n [(pair([x],[]),pair([],[x]),\n  nope)])",
     "3:3: expected a value, found 'nope'"),
    ("red(pair([],[]);\n\t[(pair([x],[]),\n  pair([],[x]) top)])",
     "3:16: expected ',', found 'top'"),
]


@pytest.mark.parametrize("text, message", MALFORMED_VALUES)
def test_deserialize_names_each_fault(text, message):
    with pytest.raises(ParseError) as err:
        deserialize(text)
    assert str(err.value) == message
    line, col = message.split(":")[:2]
    assert (err.value.line, err.value.col) == (int(line), int(col))


def test_deserialize_accepts_whitespace_between_tokens():
    for text in ("pair( [a],[])", " pair ( [ a ] , [ ] ) ", "pair([a],\n[])"):
        assert deserialize(text) is deserialize("pair([a],[])")


def test_deserialize_reads_spaced_text_as_the_same_object():
    # Random whitespace between the tokens of serialize(v), inside pairs too,
    # splits some pairs out of their one-token atom form; every spelling must
    # read back as v itself.  Joins of up to three random values of rank <= 2
    # give values of two or more triples.
    rng = random.Random("expr:spaced")
    gaps = ("", "", "", " ", "\t", "\n", " \n\t ")
    wide = 0
    for _ in range(300):
        draws = rng.randint(1, 3)
        v = freepairs.join_all(
            [freepairs.random_elem(rng, ("x", "y", "z"), 2) for _ in range(draws)]
        )
        wide += len(getattr(v, "triples", ())) >= 2
        tokens = expr._TOKEN.findall(serialize(v))
        text = "".join(tok + rng.choice(gaps) for tok in tokens)
        assert deserialize(rng.choice(gaps) + text) is v
    assert wide >= 10


def test_render_roundtrip():
    for text in ("0", "1", "a0(x)", "join(a0(x),a1(y))", "bowtie(0,1,1)"):
        assert expr.render(parse(text)) == text


def test_evaluate_and_render_refuse_a_non_expression():
    for fn in (expr.evaluate, expr.render):
        with pytest.raises(TypeError, match="^not an expression: 3$"):
            fn(3)
