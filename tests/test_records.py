"""The frozen value records that are NamedTuples: equal within a type by
their fields, hashed as their field tuple (so set orders and output are
those of the field tuples), and read-only."""

import pytest

from slat import conlat, corpus, expr
from slat.freepairs import Outcome, Verdict

C2 = corpus.chain(2)

# each record with another of its type that differs in one field
PAIRS = [
    (conlat.Congruence((0, 0, 1)), conlat.Congruence((0, 1, 1))),
    (conlat.SemHom(C2, C2, (0, 1)), conlat.SemHom(C2, C2, (0, 0))),
    (Verdict(Outcome.HOLDS), Verdict(Outcome.PREMISE_FAILED, ("x <= y fails",))),
    (expr.Lit(0), expr.Lit(1)),
    (expr.GenExpr(0, "x"), expr.GenExpr(1, "x")),
    (expr.JoinExpr((expr.Lit(0),)), expr.JoinExpr(())),
    (
        expr.BowtieExpr(expr.Lit(0), expr.Lit(1), expr.GenExpr(0, "x")),
        expr.BowtieExpr(expr.Lit(0), expr.Lit(1), expr.GenExpr(1, "x")),
    ),
]


@pytest.mark.parametrize("rec, other", PAIRS, ids=[type(r).__name__ for r, _ in PAIRS])
def test_record_equality_hash_and_read_only_fields(rec, other):
    copy = type(rec)(*rec)
    assert copy == rec and other != rec
    assert hash(copy) == hash(rec) == hash(tuple(rec))
    assert len({rec, copy, other}) == 2
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_congruence_repr_is_its_serialization():
    c = conlat.Congruence((0, 1, 0, 2))
    assert repr(c) == c.serialize() == "{{0,2},{1},{3}}"


def test_verdict_str():
    assert str(Verdict(Outcome.COUNTEREXAMPLE)) == "counterexample"
    assert str(Verdict(Outcome.PREMISE_FAILED, ("a", "b"))) == "premise-failed: a; b"
