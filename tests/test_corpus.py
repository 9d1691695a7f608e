import itertools

import pytest

from slat import conlat, corpus
from slat.conlat import fin_algebra


def built_from_covers(monkeypatch, build):
    """Run build() and return its result with every (size, covers, lattice)
    that corpus.lattice_from_covers produced meanwhile."""
    calls = []
    real = corpus.lattice_from_covers

    def spy(size, covers):
        covers = list(covers)
        L = real(size, covers)
        calls.append((size, covers, L))
        return L

    monkeypatch.setattr(corpus, "lattice_from_covers", spy)
    return build(), calls


def closure(size, covers):
    """up[a]: the elements at or above a in the reflexive-transitive
    closure of the covers (Warshall)."""
    up = [{a} for a in range(size)]
    for lo, hi in covers:
        up[lo].add(hi)
    for k, i in itertools.product(range(size), repeat=2):
        if k in up[i]:
            up[i] |= up[k]
    return up


def assert_lub_and_glb(name, size, covers, L):
    """Each join is an upper bound below every upper bound, each meet a
    lower bound above every lower bound, and the top is above everything."""
    up = closure(size, covers)
    down = [{a for a in range(size) if b in up[a]} for b in range(size)]
    meet = next(op.table for op in L.ops if op.name == "meet")
    for a, b in itertools.product(range(size), repeat=2):
        j, uppers = L.join_of(a, b), up[a] & up[b]
        m, lowers = meet[a * size + b], down[a] & down[b]
        assert j in uppers and uppers <= up[j], (name, a, b)
        assert m in lowers and lowers <= down[m], (name, a, b)
    assert down[L.top] == set(range(size)), name
    # The checked constructor accepts the tables unchanged.
    assert fin_algebra(size, L.ops, L.join, L.top) == L, name


def test_tables_are_the_bounds_of_the_closure_of_the_covers(monkeypatch):
    def build():
        corpus.bundled_corpus.cache_clear()
        named = corpus.bundled_corpus()
        out = [corpus.chain(n) for n in range(1, 9)]
        out += [corpus.product(A, B) for (_, A), (_, B) in itertools.product(named, repeat=2)]
        m3 = corpus.m3()
        out.append(corpus.product(corpus.product(m3, m3), corpus.chain(3)))
        return named, out

    (named, built), calls = built_from_covers(monkeypatch, build)
    assert len(named) == 21 and len(built) == 8 + 21 * 21 + 1
    for size, covers, L in calls:
        assert_lub_and_glb(f"{size}:{covers}", size, covers, L)
    assert {id(L) for _, L in named} | {id(L) for L in built} <= {id(L) for *_, L in calls}


def test_product_orders_pairs_coordinatewise():
    named = dict(corpus.bundled_corpus())
    m3, ch3 = named["m3"], named["chain3"]
    for A, B in ((m3, ch3), (ch3, named["n5"]), (corpus.product(m3, m3), ch3)):
        P, m = corpus.product(A, B), B.size
        assert P.size == A.size * m
        for (xa, xb), (ya, yb) in itertools.product(
            itertools.product(range(A.size), range(m)), repeat=2
        ):
            assert P.leq(xa * m + xb, ya * m + yb) == (A.leq(xa, ya) and B.leq(xb, yb))
        assert P.top == A.top * m + B.top


@pytest.mark.parametrize(
    "size, covers, message",
    [
        (3, [(0, 1), (0, 2)], "no unique join for (1,2)"),
        (3, [(0, 2), (1, 2)], "no unique meet for (0,1)"),
        (4, [(0, 2), (0, 3), (1, 2), (1, 3)], "no unique join for (0,1)"),  # 2+2
        (0, [], "no unique top"),
        (2, [(0, 1), (1, 0)], "covering pairs form a cycle"),
        (3, [(0, 1), (1, 2), (2, 1)], "covering pairs form a cycle"),
    ],
)
def test_non_lattice_covers_raise(size, covers, message):
    with pytest.raises(ValueError) as err:
        corpus.lattice_from_covers(size, covers)
    assert str(err.value) == message


def test_large_product_builds_without_the_table_recheck(monkeypatch):
    def recheck(*args):
        raise AssertionError("the constructor rechecked its tables")

    monkeypatch.setattr(conlat, "_check_semilattice_table", recheck)
    P = corpus.product(corpus.chain(20), corpus.chain(20))
    assert (P.size, P.top, P.meet_name) == (400, 399, "meet")


# The eight stacked corpus lattices as their covers were once written out
# by hand: the oracle for glued_sum's labels.
STACKED = {
    "2x2_top": (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    "2x2_bot": (5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
    "2x2_bounds": (6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]),
    "2x2_tower": (6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]),
    "m3_top": (6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)]),
    "m3_bot": (6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]),
    "n5_top": (6, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (4, 5)]),
    "n5_bot": (6, [(0, 1), (1, 2), (2, 3), (3, 5), (1, 4), (4, 5)]),
}


def test_stacked_corpus_lattices_match_their_cover_lists():
    named = dict(corpus.bundled_corpus())
    for name, (size, covers) in STACKED.items():
        assert named[name] == corpus.lattice_from_covers(size, covers), name


def test_glued_sum_puts_b_above_a():
    lattices = [L for _, L in corpus.bundled_corpus()]
    upside_down = corpus.lattice_from_covers(3, [(2, 1), (1, 0)])  # zero 2, top 0
    for A, B in itertools.product(lattices, lattices + [upside_down]):
        G = corpus.glued_sum(A, B)
        # B's zero is A's top; B's other elements follow A's in label order.
        at = [A.top if y == B.zero else A.size + y - (y > B.zero) for y in range(B.size)]
        assert (G.size, G.top) == (A.size + B.size - 1, at[B.top])
        for x, y in itertools.product(range(A.size), repeat=2):
            assert G.leq(x, y) == A.leq(x, y)
        for y, z in itertools.product(range(B.size), repeat=2):
            assert G.leq(at[y], at[z]) == B.leq(y, z)
        assert all(G.leq(x, y) for x in range(A.size) for y in at)


def test_congruences_of_a_glued_sum_are_pairs_of_congruences():
    # Con(A ⊕ B) ≅ Con A × Con B (G. Grätzer, *The Congruences of a Finite
    # Lattice*, 2006): the counts multiply and the join-irreducibles add up.
    # cons[0] is the full congruence, so its mask sets every member of J(Con).
    named = corpus.bundled_corpus()
    for (a, A), (b, B) in itertools.product(named, repeat=2):
        G, ca, cb = corpus.glued_sum(A, B).con_index, A.con_index, B.con_index
        assert len(G) == len(ca) * len(cb), (a, b)
        irr = [con.jmask[0].bit_count() for con in (G, ca, cb)]
        assert irr[0] == irr[1] + irr[2], (a, b)
