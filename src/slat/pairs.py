"""Pair semilattice with complementary generator pairs.

An element is either the top element or a pair of disjoint finite sets of
generator names ("positive" and "negative" occurrences).  The two
generators of a name join to top; all other joins are componentwise
unions.  Generator names are plain strings, totally ordered
lexicographically; that order fixes all serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


# The one element of each value, keyed by its fields.
_INTERNED: dict = {}


@dataclass(frozen=True, eq=False, slots=True, init=False)
class PairElem:
    """A pair-semilattice value, hash-consed: one object per value.

    Building an element whose fields equal an existing one returns the
    existing object, so ``==`` is identity and the hash is the identity
    hash inherited from ``object``.
    """

    pos: frozenset
    neg: frozenset
    top: bool

    def __new__(cls, pos=frozenset(), neg=frozenset(), top=False):
        key = (pos, neg, top)
        p = _INTERNED.get(key)
        if p is not None:
            return p
        if top and (pos or neg):
            raise ValueError("top carries no generator sets")
        if pos & neg:
            raise ValueError("pos and neg must be disjoint")
        p = object.__new__(cls)
        object.__setattr__(p, "pos", pos)
        object.__setattr__(p, "neg", neg)
        object.__setattr__(p, "top", top)
        _INTERNED[key] = p
        return p

    def __reduce__(self):
        # copy and pickle rebuild through __new__, so they intern too.
        return PairElem, (self.pos, self.neg, self.top)

    def __repr__(self):
        return serialize(self)


ZERO = PairElem()
TOP = PairElem(top=True)


@lru_cache(maxsize=None)
def gen(i: int, name: str) -> PairElem:
    """The polarity-i generator of the given name, i in {0, 1}; memoized
    per value of (i, name)."""
    if i == 0:
        return PairElem(pos=frozenset((name,)))
    if i == 1:
        return PairElem(neg=frozenset((name,)))
    raise ValueError(f"polarity must be 0 or 1, got {i!r}")


def join(p: PairElem, q: PairElem) -> PairElem:
    if p.top or q.top:
        return TOP
    pos = p.pos | q.pos
    neg = p.neg | q.neg
    if pos & neg:
        return TOP
    return PairElem(pos, neg)


def leq(p: PairElem, q: PairElem) -> bool:
    if q.top:
        return True
    if p.top:
        return False
    return p.pos <= q.pos and p.neg <= q.neg


def mentions(p: PairElem) -> frozenset:
    """Generator names occurring in p; empty for zero and top."""
    return frozenset() if p.top else p.pos | p.neg


def map_generators(f, p: PairElem) -> PairElem:
    """Push p through a renaming of generator names.

    A name landing on both sides collapses the element to top.
    """
    if p.top:
        return TOP
    pos = frozenset(map(f, p.pos))
    neg = frozenset(map(f, p.neg))
    if pos & neg:
        return TOP
    return PairElem(pos, neg)


def retract(alpha: str, i: int, p: PairElem) -> PairElem:
    """The retraction killing gen(i, alpha).

    gen(1 - i, alpha) is forced to top by the complementary-pair relation;
    elements not mentioning alpha are fixed.
    """
    if i not in (0, 1):
        raise ValueError(f"polarity must be 0 or 1, got {i!r}")
    if p.top:
        return TOP
    killed, raised = (p.pos, p.neg) if i == 0 else (p.neg, p.pos)
    if alpha in raised:
        return TOP
    if alpha not in killed:
        return p
    if i == 0:
        return PairElem(p.pos - {alpha}, p.neg)
    return PairElem(p.pos, p.neg - {alpha})


def serialize(p: PairElem) -> str:
    if p.top:
        return "top"
    return "pair([%s],[%s])" % (",".join(sorted(p.pos)), ",".join(sorted(p.neg)))
