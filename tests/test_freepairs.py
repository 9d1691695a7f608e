import hashlib
import random
import re

import pytest

from slat import freedist, freepairs, pairs
from slat.freedist import Node, Triple
from slat.freepairs import (
    ONE,
    ZERO,
    Outcome,
    bowtie,
    check_cancellation,
    check_evaporation,
    gen,
    join,
    leq,
    rank,
    retract,
    support,
)


def test_generators_rank_zero():
    assert rank(gen(0, "u")) == 0
    assert join(gen(0, "u"), gen(1, "u")) == ONE
    assert gen(0, "u") == pairs.PairElem(frozenset("u"), frozenset())


def test_support_examples():
    assert support(ZERO) == frozenset()
    assert support(ONE) == frozenset()
    assert support(gen(0, "u")) == frozenset("u")
    b = bowtie(gen(0, "u"), gen(1, "v"), gen(0, "u"))
    assert support(b) == frozenset(("u", "v"))


def test_support_subadditive():
    rng = random.Random("fp:support")
    names = ("u", "v", "w")
    for _ in range(150):
        x = freepairs.random_elem(rng, names, 2)
        y = freepairs.random_elem(rng, names, 2)
        assert support(join(x, y)) <= support(x) | support(y)
        a, b, c = freepairs.random_triple(rng, names, 1)
        assert support(bowtie(a, b, c)) <= support(a) | support(b) | support(c)


# The two name lists of each pair value in a serialization.  Names occur
# nowhere else, so "red", "pair" or "top" can be generator names too.
_PAIR_LISTS = re.compile(r"pair\(\[([^\]]*)\],\[([^\]]*)\]\)")


def _serialized_names(x) -> frozenset:
    lists = [part for match in _PAIR_LISTS.findall(freepairs.serialize(x)) for part in match]
    return frozenset(name for part in lists for name in part.split(",") if name)


def test_memoized_support_matches_the_serialized_names():
    rng = random.Random("fp:support-oracle")
    names = ("pair", "red", "top", "u")
    xs = [freepairs.random_elem(rng, names, 2) for _ in range(300)]
    xs += freepairs.all_rank1({"u"}, 2)
    xs += [
        x
        for pol, other in ((0, "a"), (1, "b"))
        for k in (0, 1)
        for x in freepairs.evaporation_side_universe("d", other, pol, k)
    ]
    assert any(isinstance(x, Node) and support(x) & {"pair", "red", "top"} for x in xs)
    for x in xs:
        assert support(x) == _serialized_names(x), freepairs.serialize(x)


def test_memoized_gen_is_the_interned_value():
    for name in ("u", "top", "red"):
        assert gen(0, name) is pairs.PairElem(frozenset((name,)), frozenset())
        assert gen(1, name) is pairs.PairElem(frozenset(), frozenset((name,)))
    for _ in range(2):
        # a failed call is not memoized: it raises every time
        with pytest.raises(ValueError, match="polarity must be 0 or 1"):
            gen(2, "u")


def test_support_minimality_retraction_probe():
    rng = random.Random("fp:minimal")
    names = ("u", "v")
    for _ in range(150):
        x = freepairs.random_elem(rng, names, 2)
        for name in support(x):
            # a genuinely used name cannot be fixed by both retractions
            assert not (
                retract(name, 0, x) == x and retract(name, 1, x) == x
            )


def test_in_g():
    # x lies in the subsemilattice generated over X exactly when support(x) <= X
    assert support(ONE) <= frozenset()
    assert not support(gen(0, "u")) <= {"v"}
    assert support(gen(0, "u")) <= {"u", "v"}


def test_membership_respects_intersections_and_directed_unions():
    rng = random.Random("fp:families")
    names = ("u", "v", "w")
    families = [
        ({"u", "v"}, {"v", "w"}),
        ({"u"}, {"u", "v"}, {"u", "w"}),
        ({"u", "v", "w"}, {"v"}),
    ]
    chains = [
        ({"u"}, {"u", "v"}, {"u", "v", "w"}),
        (set(), {"w"}, {"v", "w"}),
    ]
    for _ in range(150):
        x = freepairs.random_elem(rng, names, 2)
        for family in families:
            inter = frozenset.intersection(*map(frozenset, family))
            assert (support(x) <= inter) == all(support(x) <= X for X in family)
        for chain in chains:
            # a finite directed chain: membership in the union is
            # membership in some member
            union = frozenset.union(*map(frozenset, chain))
            assert (support(x) <= union) == any(support(x) <= X for X in chain)


def test_retract_examples():
    assert retract("a", 0, gen(0, "a")) == ZERO
    assert retract("a", 1, gen(1, "a")) == ZERO
    x = bowtie(gen(0, "u"), gen(1, "u"), ONE)
    assert retract("a", 0, x) == x
    twice = retract("u", 0, retract("u", 0, x))
    assert twice == retract("u", 0, x)


def test_retract_kills_argument_generator():
    # the splitting element sits below its first argument, so killing
    # that generator sends it to zero: its image is bowtie(0, 1, 1) = 0
    x = bowtie(gen(0, "u"), gen(1, "u"), ONE)
    assert retract("u", 0, x) == ZERO
    # killing the mirror side instead collapses the image to the top
    assert retract("u", 1, x) == ONE


# -- cancellation ------------------------------------------------------------


def test_cancellation_trivial_holds():
    v = check_cancellation("a", 0, gen(0, "x"), gen(0, "x"))
    assert v.outcome is Outcome.HOLDS


def test_cancellation_premise_failed():
    v = check_cancellation("a", 1, ONE, gen(0, "x"))
    assert v.outcome is Outcome.PREMISE_FAILED
    assert any("a_i^alpha" in p for p in v.failed_premises)
    v = check_cancellation("x", 0, gen(0, "x"), ZERO)
    assert v.outcome is Outcome.PREMISE_FAILED


def test_cancellation_sweep_small():
    rep = freepairs.cancellation_sweep("x", "a", max_triples=1)
    assert rep.ok
    assert rep.substantive >= 50
    assert rep.checked == rep.premise_failed + rep.substantive
    with pytest.raises(ValueError, match="^alpha must be fresh$"):
        freepairs.cancellation_sweep("a", "a")


# -- evaporation -------------------------------------------------------------


def test_evaporation_trivial_cases():
    v = check_evaporation("a", "b", "d", 0, 0, ZERO, ZERO, ZERO)
    assert v.outcome is Outcome.HOLDS
    v = check_evaporation("a", "b", "d", 1, 1, ZERO, ZERO, ZERO)
    assert v.outcome is Outcome.HOLDS


def test_evaporation_premise_listing():
    v = check_evaporation("a", "a", "d", 0, 0, ZERO, ZERO, ZERO)
    assert v.outcome is Outcome.PREMISE_FAILED
    assert any("distinct" in p for p in v.failed_premises)
    v = check_evaporation("a", "b", "d", 0, 0, gen(0, "b"), ZERO, ZERO)
    assert v.outcome is Outcome.PREMISE_FAILED
    assert any("occurs in x" in p for p in v.failed_premises)
    v = check_evaporation("a", "b", "d", 0, 0, ONE, ZERO, ZERO)
    assert v.outcome is Outcome.PREMISE_FAILED
    # 1 is not below a_0^d
    assert any("a_0^delta" in p for p in v.failed_premises)


def test_evaporation_substantive_instance():
    # x below both bounding generators, nonzero
    x = bowtie(gen(0, "d"), gen(0, "a"), gen(0, "a"))
    assert leq(x, gen(0, "d")) and leq(x, gen(0, "a"))
    y = bowtie(gen(1, "d"), gen(0, "b"), gen(0, "b"))
    w = join(x, y)
    v = check_evaporation("a", "b", "d", 0, 0, x, y, ZERO)
    assert v.outcome is Outcome.HOLDS
    # every delta-free element below w is zero
    for z in freepairs._below_avoiding(w, "d"):
        assert z == ZERO


def test_evaporation_sweep_small():
    rep = freepairs.evaporation_sweep("a", "b", "d", side_triples=1)
    assert rep.ok
    with pytest.raises(ValueError, match="^alpha, beta, delta must be distinct$"):
        freepairs.evaporation_sweep("a", "a", "d")
    assert rep.notes["nonzero_pairs"] >= 1
    assert rep.notes["cross_bad"] == 0


def test_evaporation_cross_check_sample_follows_the_seed(monkeypatch):
    # The brute scan of a sampled pair compares each rank-0 element of
    # all_rank1({a, b}, 1), in order, with the pair's join w, and then the
    # nodes over those below w; the sweep's own checks never pass that
    # list's first element to leq.  So the w beside it are the sample, in
    # the order it was drawn.
    first = freepairs.all_rank1({"a", "b"}, 1)[0]
    assert first != ZERO
    sampled = []
    real_leq = freepairs.leq
    monkeypatch.setattr(
        freepairs, "leq", lambda x, y: (x == first and sampled.append(y)) or real_leq(x, y)
    )
    runs = []
    for seed in (0, 1):
        sampled.clear()
        rep = freepairs.evaporation_sweep("a", "b", "d", side_triples=1, seed=seed)
        assert rep.notes["cross_bad"] == 0 and rep.notes["cross_checks"] > 0
        assert len(sampled) == rep.notes["cross_checks"]
        runs.append(list(sampled))
    assert runs[0] != runs[1]


# -- rank <= 1 enumeration ----------------------------------------------------


def _zero_projection_nodes(univ) -> list:
    return [w for w in univ if isinstance(w, Node) and w.proj == ZERO]


def _avoiding_triples(w, name) -> list:
    return [t for t in w.triples if not any(name in support(c) for c in t)]


def test_below_avoiding_lists_the_nodes_on_the_usable_triples():
    # Below a node with zero projection the rank <= 1 elements are zero and
    # the nodes on subsets of its triples.  univ holds every such node for
    # the ws below, so the listing must equal a brute scan of univ that
    # drops what mentions d; the nodes on the d triples are dropped that way.
    over_a = freepairs.all_rank1({"a"}, 2)
    univ = over_a + freepairs.all_rank1({"a", "d"}, 1)
    d_triples = [w.triples[0] for w in _zero_projection_nodes(freepairs.all_rank1({"d"}, 1))]
    ws = _zero_projection_nodes(over_a)
    mixed = [
        freedist.make_node(freepairs.BASE, ZERO, w.triples + (t,))
        for w, t in zip(ws[::9], d_triples)
    ]
    assert mixed and all(freepairs.validate(w) is w for w in mixed)
    sizes = set()
    for w in ws + mixed:
        listed = freepairs._below_avoiding(w, "d")
        brute = {z for z in univ if leq(z, w) and "d" not in support(z)}
        assert len(set(listed)) == len(listed) and set(listed) == brute, freepairs.serialize(w)
        sizes.add(len(listed))
        if len(usable := _avoiding_triples(w, "d")) == 2:
            # by subset size, the triples in their stored order
            t1, t2 = usable
            assert listed == [ZERO, Node(ZERO, (t1,)), Node(ZERO, (t2,)), Node(ZERO, (t1, t2))]
    assert sizes == {2, 4}


def test_below_avoiding_is_complete_on_its_domain_and_refuses_the_rest():
    # On zero and the nodes with zero projection the listing is every
    # d-free element below w; past them subsets of w's triples miss some
    # (pair([a],[]) lies below red(pair([a,d],[]); ...)), so w is refused.
    univ = freepairs.all_rank1({"a", "d"}, 1)
    d_free = [z for z in univ if "d" not in support(z)]
    inside = {w for w in univ if w == ZERO or isinstance(w, Node) and w.proj == ZERO}
    assert (len(univ), len(inside)) == (2554, 505)
    for w in univ:
        if w in inside:
            listed = freepairs._below_avoiding(w, "d")
            assert len(set(listed)) == len(listed) <= 2, freepairs.serialize(w)
            assert set(listed) == {z for z in d_free if leq(z, w)}, freepairs.serialize(w)
        else:
            with pytest.raises(freedist.DomainError):
                freepairs._below_avoiding(w, "d")


def _digest(xs) -> str:
    return hashlib.sha256("\n".join(map(freepairs.serialize, xs)).encode()).hexdigest()


def test_rank1_lists_keep_their_elements_and_order():
    # The sweeps' counts, the cross-check's rng draws and ext-sweep's case
    # shuffle all follow these lists' order.
    assert len(freepairs.all_rank1({"a", "b"}, 1)) == 2554
    assert len(freepairs.all_rank1({"a"}, 2)) == 182
    assert _digest(freepairs.all_rank1({"a", "b"}, 1)) == (
        "fbcf9af0f93d71b96af15abecb5bf94cb68afde0e8eee0659411ce371d59104a"
    )
    assert _digest(freepairs.all_rank1({"a"}, 2)) == (
        "d0dbafe94ed5a740401b8a8e628bd08ab212aff0d3914dfa76854b6707c96a4b"
    )
    sides = {
        (pol, other, k): _digest(freepairs.evaporation_side_universe("d", other, pol, k))
        for pol, other in ((0, "a"), (1, "b"))
        for k in (0, 1)
    }
    assert sides == {
        (0, "a", 0): "c2589b19f87196d46e9327df074c8c3f59f42cfd53b381bbfa7dafeac2cbeb4e",
        (0, "a", 1): "cb6c6bacac339a24555b062b19bd6b66ac43988bceca2ea9a31dad69151beeec",
        (1, "b", 0): "948e3faaadd74a7a69d262abb13b906f9c6f1c79a81579cf8a1f6325262837cc",
        (1, "b", 1): "88dd88d440e78e22975e26b0280c04486f59f08e812172bd3e36a040576d08e9",
    }


# -- distributivity at the base level ----------------------------------------


def base_universe():
    return [ZERO, gen(0, "x"), gen(1, "x"), ONE]


def test_base_instances_split_within_rank_one():
    # every base-level instance has witnesses of rank <= 1, found by search
    univ = freepairs.all_rank1({"x"}, 2)
    down = {a: [z for z in univ if leq(z, a)] for a in base_universe()}
    for a in base_universe():
        for b in base_universe():
            ab = join(a, b)
            for c in base_universe():
                if not leq(c, ab):
                    continue
                found = any(
                    join(x, y) == c
                    for x in down[a]
                    for y in down[b]
                )
                assert found, (a, b, c)


def test_rank_one_instances_need_rank_two_witnesses():
    # the rank <= 1 fragment is not itself distributive: joins never
    # create new non-diagonal triples, so this c has no rank <= 1 split
    a, b = gen(0, "x"), gen(1, "x")
    c = Node(a, (Triple(ONE, b, ONE),))
    freepairs.validate(c)
    assert leq(c, join(a, b))
    univ = freepairs.all_rank1({"x"}, 2)
    down_a = [z for z in univ if leq(z, a)]
    down_b = [z for z in univ if leq(z, b)]
    assert not any(join(x, y) == c for x in down_a for y in down_b)
    # the splitting construction provides the rank-2 witnesses
    x, y = bowtie(a, b, c), bowtie(b, a, c)
    assert rank(x) == 2 and join(x, y) == c


# -- random generation -------------------------------------------------------

def test_random_elem_bounds():
    rng = random.Random("fp:bounds")
    for _ in range(300):
        x = freepairs.random_elem(rng, ("u", "v"), 2)
        assert rank(x) <= 2
        assert support(x) <= {"u", "v"}
        w = freepairs.random_elem(rng, ("u", "v"), 2)
        below = freepairs.random_below(rng, w, 2, ("u", "v"))
        assert leq(below, w)
