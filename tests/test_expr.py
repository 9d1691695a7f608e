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
    rng = random.Random("expr:roundtrip")
    names = ("x", "y", "z")
    for _ in range(300):
        v = freepairs.random_elem(rng, names, 2)
        text = serialize(v)
        assert deserialize(text) == v
        assert serialize(deserialize(text)) == text


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


def test_render_roundtrip():
    for text in ("0", "1", "a0(x)", "join(a0(x),a1(y))", "bowtie(0,1,1)"):
        assert expr.render(parse(text)) == text


def test_evaluate_and_render_refuse_a_non_expression():
    for fn in (expr.evaluate, expr.render):
        with pytest.raises(TypeError, match="^not an expression: 3$"):
            fn(3)
