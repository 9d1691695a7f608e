import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from slat import expr, freedist, freepairs, pairs
from slat.pairs import TOP, ZERO, gen, join, leq, map_generators, mentions, retract


def universe(names):
    out = []
    for sides in itertools.product((0, 1, 2), repeat=len(names)):
        pos = frozenset(n for n, s in zip(names, sides) if s == 0)
        neg = frozenset(n for n, s in zip(names, sides) if s == 1)
        out.append(pairs.PairElem(pos, neg))
    out.append(TOP)
    return out


U2 = universe(("x", "y"))


def test_generators():
    assert gen(0, "x") == pairs.PairElem(frozenset("x"), frozenset())
    assert gen(1, "x") == pairs.PairElem(frozenset(), frozenset("x"))
    assert join(gen(0, "x"), gen(1, "x")) == TOP
    with pytest.raises(ValueError):
        gen(2, "x")


def test_join_examples():
    assert join(ZERO, gen(0, "x")) == gen(0, "x")
    assert join(gen(0, "x"), gen(0, "y")) == pairs.PairElem(
        frozenset(("x", "y")), frozenset()
    )
    assert join(TOP, ZERO) == TOP


def test_semilattice_laws_exhaustive():
    for p in U2:
        assert join(p, p) == p
        assert join(p, ZERO) == p
        assert join(p, TOP) == TOP
        for q in U2:
            assert join(p, q) == join(q, p)
    rng = random.Random("pairs:assoc")
    for _ in range(300):
        p, q, r = rng.choice(U2), rng.choice(U2), rng.choice(U2)
        assert join(join(p, q), r) == join(p, join(q, r))


def test_leq_examples_and_coherence():
    assert leq(gen(0, "x"), TOP)
    assert leq(gen(0, "x"), join(gen(0, "x"), gen(0, "y")))
    assert not leq(gen(0, "x"), gen(1, "x"))
    for p in U2:
        for q in U2:
            assert leq(p, q) == (join(p, q) == q)


def test_complementary_relation_every_name():
    for name in ("a", "b", "zz", "x9"):
        assert join(gen(0, name), gen(1, name)) == TOP


def test_map_rebuilds_from_images():
    p = pairs.PairElem(frozenset("x"), frozenset("y"))
    assert map_generators(lambda n: n, p) == p
    # collision across sides collapses to top
    assert map_generators(lambda n: "z", p) == TOP
    assert map_generators(lambda n: {"x": "u", "y": "v"}[n], p) == pairs.PairElem(
        frozenset("u"), frozenset("v")
    )


def map_by_joining_images(f, p):
    """Oracle: join the image of each generator of p, in sorted order."""
    if p.top:
        return TOP
    out = ZERO
    for name in sorted(p.pos):
        out = join(out, gen(0, f(name)))
    for name in sorted(p.neg):
        out = join(out, gen(1, f(name)))
    return out


def test_map_matches_joining_generator_images():
    # every renaming of x, y, z into x, y, u: some merge names, some send a
    # positive and a negative name of one element to the same target
    names = ("x", "y", "z")
    collapsed = 0
    for targets in itertools.product(("x", "y", "u"), repeat=len(names)):
        f = dict(zip(names, targets)).__getitem__
        for p in universe(names):
            got = map_generators(f, p)
            assert got == map_by_joining_images(f, p), (targets, p)
            collapsed += got is TOP and not p.top
    assert collapsed > 0


def test_map_is_homomorphism():
    f = {"x": "x", "y": "x"}
    for p in U2:
        for q in U2:
            lhs = map_generators(lambda n: f[n], join(p, q))
            rhs = join(
                map_generators(lambda n: f[n], p),
                map_generators(lambda n: f[n], q),
            )
            assert lhs == rhs
    assert map_generators(lambda n: f[n], ZERO) == ZERO
    assert map_generators(lambda n: f[n], TOP) == TOP


def test_map_functor_laws():
    f = {"x": "y", "y": "y"}
    g = {"y": "x", "x": "x"}
    for p in U2:
        assert map_generators(lambda n: n, p) == p
        assert map_generators(
            lambda n: g[f[n]], p
        ) == map_generators(lambda n: g[n], map_generators(lambda n: f[n], p))


def test_retract_examples():
    assert retract("a", 0, gen(0, "a")) == ZERO
    assert retract("a", 0, gen(1, "a")) == TOP
    assert retract("a", 1, gen(1, "a")) == ZERO
    assert retract("a", 1, gen(0, "a")) == TOP
    p = pairs.PairElem(frozenset("x"), frozenset("y"))
    assert retract("a", 0, p) == p
    with pytest.raises(ValueError, match="^polarity must be 0 or 1, got 2$"):
        retract("a", 2, ZERO)


def test_retract_idempotent_and_homomorphism():
    for p in U2:
        once = retract("x", 0, p)
        assert retract("x", 0, once) == once
        for q in U2:
            assert retract("x", 0, join(p, q)) == join(
                retract("x", 0, p), retract("x", 0, q)
            )
    assert retract("x", 0, ZERO) == ZERO
    assert retract("x", 0, TOP) == TOP


def test_membership_intersections():
    # an element lies over X iff its mentions do; membership respects meets
    families = [
        ({"x", "y"}, {"x"}),
        ({"x"}, {"y"}),
        ({"x", "y"}, {"y"}, {"x", "y"}),
    ]
    for p in U2:
        for family in families:
            inter = frozenset.intersection(*map(frozenset, family))
            in_inter = p.top or mentions(p) <= inter
            assert in_inter == all(
                p.top or mentions(p) <= X for X in map(frozenset, family)
            )


def test_serialization():
    assert pairs.serialize(ZERO) == "pair([],[])"
    assert pairs.serialize(TOP) == "top"
    p = pairs.PairElem(frozenset(("b", "a")), frozenset("c"))
    assert pairs.serialize(p) == "pair([a,b],[c])"


def test_disjointness_enforced():
    with pytest.raises(ValueError):
        pairs.PairElem(frozenset("x"), frozenset("x"))
    with pytest.raises(ValueError):
        pairs.PairElem(frozenset("x"), top=True)


# -- element contract: one object per value, equality is identity -----------


def test_hash_is_identity_hash():
    for p in U2:
        assert hash(p) == object.__hash__(p)
    assert pairs.PairElem.__hash__ is object.__hash__


def test_rebuilt_element_is_the_same_object():
    for p in U2:
        assert expr.deserialize(pairs.serialize(p)) is p
        assert pairs.PairElem(frozenset(p.pos), frozenset(p.neg), p.top) is p
        assert freepairs.map_names(lambda n: n, p) is p
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
    assert [a == b for a in U2 for b in U2] == [
        a is b for a in U2 for b in U2
    ]
    assert pairs.PairElem.__eq__ is object.__eq__


class ConstantHashName(str):
    """A generator name whose hash collides with every other such name."""

    def __hash__(self):
        return 0


def test_hash_collision_falls_back_to_fields(monkeypatch):
    monkeypatch.setattr(pairs, "_INTERNED", dict(pairs._INTERNED))
    x, y = ConstantHashName("collision_x"), ConstantHashName("collision_y")
    p = pairs.PairElem(frozenset((x,)), frozenset((y,)))
    q = pairs.PairElem(frozenset((y,)), frozenset((x,)))
    # the intern keys collide, so only field equality tells them apart
    assert hash((p.pos, p.neg, p.top)) == hash((q.pos, q.neg, q.top))
    assert p is not q
    assert pairs.serialize(p) == "pair([collision_x],[collision_y])"
    assert pairs.serialize(q) == "pair([collision_y],[collision_x])"
    assert pairs.PairElem(frozenset((x,)), frozenset((y,))) is p
    assert pairs.PairElem(frozenset((y,)), frozenset((x,))) is q
    # a colliding value is still checked before it is built
    with pytest.raises(ValueError):
        pairs.PairElem(frozenset((x,)), frozenset((x,)))


def test_compare_with_other_types_is_false():
    node = freepairs.bowtie(gen(0, "x"), gen(0, "y"), gen(0, "x"))
    assert isinstance(node, freedist.Node)
    for p in (ZERO, TOP, gen(0, "x")):
        assert (p == node) is False and (node == p) is False
        assert (p == 0) is False and (0 == p) is False
        assert p != node and p != 0


def test_fields_stay_frozen():
    p = gen(0, "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.pos = frozenset()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.top = True


def test_repr_is_serialization():
    p = pairs.PairElem(frozenset(("b", "a")), frozenset("c"))
    assert repr(p) == "pair([a,b],[c])"
    assert repr(ZERO) == "pair([],[])"
    assert repr(TOP) == "top"


# ---------------------------------------------------------------------------
# Oracle: the pairwise join rule realizes the presented semilattice


def presented_semilattice(names):
    """The finitely presented (join,0,1)-semilattice on complementary
    generator pairs, by brute-force congruence closure.

    Carrier: subsets of the generator set, plus an absorbing top word.
    Relations: both generators of a name join to the top word.
    """
    gens = [(i, n) for n in names for i in (0, 1)]
    words = [frozenset(s) for k in range(len(gens) + 1) for s in itertools.combinations(gens, k)]
    TOPW = "TOPWORD"
    carrier = words + [TOPW]

    def wjoin(a, b):
        if a == TOPW or b == TOPW:
            return TOPW
        return a | b

    index = {w: k for k, w in enumerate(carrier)}
    parent = list(range(len(carrier)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    for n in names:
        union(index[frozenset(((0, n), (1, n)))], index[TOPW])
    changed = True
    while changed:
        changed = False
        for a in range(len(carrier)):
            for b in range(a + 1, len(carrier)):
                if find(a) != find(b):
                    continue
                for c in carrier:
                    wa = wjoin(carrier[a], c)
                    wb = wjoin(carrier[b], c)
                    changed |= union(index[wa], index[wb])
    return carrier, index, find


@pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")])
def test_join_rule_matches_presentation(names):
    carrier, index, find = presented_semilattice(names)

    def evaluate(word):
        if word == "TOPWORD":
            return TOP
        out = ZERO
        for i, n in sorted(word):
            out = join(out, gen(i, n))
        return out

    values = [evaluate(w) for w in carrier]
    for a in range(len(carrier)):
        for b in range(len(carrier)):
            assert (find(a) == find(b)) == (values[a] == values[b])
