import collections
import copy
import dataclasses
import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slat import conlat, expr, freedist, freepairs, pairs
from slat.freedist import (
    DomainError,
    Node,
    ReducedFormError,
    Triple,
    bowtie,
    join,
    join_with_order,
    leq,
    make_node,
    map_elem,
    phi,
    psi,
    rank,
    serialize,
    step1,
    step2,
    validate,
)
from slat.freepairs import BASE, ONE, ZERO, gen

import helpers


def proj(x):
    """Canonical projection one rank down; the identity on base values."""
    return x.proj if isinstance(x, Node) else x


A0 = gen(0, "x")
A1 = gen(1, "x")
B0 = gen(0, "y")
B1 = gen(1, "y")


class TableBase:
    """A join-semilattice table as a rank-0 base for the extension."""

    def __init__(self, table: conlat.FinAlgebra):
        self.table = table
        self.ZERO = table.zero

    def join(self, a, b):
        return self.table.join_of(a, b)

    def leq(self, a, b):
        return self.table.leq(a, b)

    def serialize(self, a):
        return str(a)


def diamond_base():
    # 0 < a,b < 1 as a join table
    table = conlat.semilattice(4, [0, 1, 2, 3, 1, 1, 3, 3, 2, 3, 2, 3, 3, 3, 3, 3], 0)
    return TableBase(table)


# -- bowtie ------------------------------------------------------------------


def test_bowtie_cases():
    c = freepairs.join(A0, B0)
    assert bowtie(BASE, A0, A0, A0) == A0  # u = v
    assert bowtie(BASE, A0, ZERO, ZERO) == ZERO
    assert bowtie(BASE, A0, ZERO, A0) == A0  # v = 0
    assert bowtie(BASE, A0, B0, ZERO) == ZERO  # w = 0
    assert bowtie(BASE, ZERO, B0, B0) == ZERO  # u = 0
    nd = bowtie(BASE, A0, A1, ONE)
    assert nd == Node(ZERO, (Triple(A0, A1, ONE),))
    assert proj(nd) == ZERO


def test_bowtie_precondition():
    with pytest.raises(DomainError):
        bowtie(BASE, A0, A0, ONE)


def test_bowtie_case_order():
    # u = v wins over u = 0 when both are zero
    assert bowtie(BASE, ZERO, ZERO, ZERO) == ZERO


# -- order -------------------------------------------------------------------


def test_leq_examples():
    nd = bowtie(BASE, A0, A1, ONE)
    assert leq(BASE, nd, A0)
    assert not leq(BASE, nd, A1)
    assert leq(BASE, nd, nd)
    # base absoluteness: for base x, x <= y iff x <= proj(y)
    assert leq(BASE, ZERO, nd)
    assert not leq(BASE, A0, nd)


def test_leq_base_absoluteness_random():
    rng = random.Random("freedist:eq33")
    names = ("x", "y")
    for _ in range(200):
        x = freepairs.random_pair(rng, names)
        y = freepairs.random_elem(rng, names, 2)
        assert leq(BASE, x, y) == leq(BASE, x, proj(y))


def test_proj_isotone_random():
    rng = random.Random("freedist:isotone")
    names = ("x", "y")
    for _ in range(200):
        x = freepairs.random_elem(rng, names, 2)
        y = freepairs.random_elem(rng, names, 2)
        if leq(BASE, x, y):
            assert leq(BASE, proj(x), proj(y))


def test_proj_not_join_homomorphism_regression():
    # stored instance: proj(x v y) differs from proj(x) v proj(y)
    x = bowtie(BASE, A0, A1, ONE)
    y = bowtie(BASE, A1, A0, ONE)
    assert proj(x) == ZERO and proj(y) == ZERO
    assert join(BASE, x, y) == ONE
    assert proj(join(BASE, x, y)) == ONE != join(BASE, proj(x), proj(y))


# -- rewriting stages --------------------------------------------------------


def t(u, v, w):
    return Triple(u, v, w)


def as_lifted(px, py, ts, merged):
    """Step 1's result in the lifted form: the triples not merged beside
    the diagonals of both projections and of the merged third entries."""
    merged = merged or frozenset()
    diags = {px, py} | {q.w for q in merged}
    return ts - merged | {t(v, v, v) for v in diags}


def test_step1_merges_swapped_pair():
    ts = frozenset({t(A0, A1, ONE), t(A1, A0, ONE)})
    assert step1(BASE, ts) == ts
    assert as_lifted(ZERO, ZERO, ts, step1(BASE, ts)) == frozenset(
        {t(ONE, ONE, ONE), t(ZERO, ZERO, ZERO)}
    )


def test_step1_fixpoint_signal():
    # the diagonal <0, 0, 0> is the projection now, not a triple
    ts = frozenset({t(A0, A1, ONE)})
    assert step1(BASE, ts) is None
    assert helpers.lifted_step1(ts | {t(ZERO, ZERO, ZERO)}) is None


def test_step1_two_disjoint_pairs():
    ts = frozenset(
        {t(A0, A1, ONE), t(A1, A0, ONE), t(A0, B0, B0), t(B0, A0, B0)}
    )
    merged = step1(BASE, ts)
    assert merged == ts
    assert as_lifted(ZERO, ZERO, ts, merged) == frozenset(
        {t(ONE, ONE, ONE), t(B0, B0, B0), t(ZERO, ZERO, ZERO)}
    )
    assert step1(BASE, ts - merged) is None


def step1_one_pair_at_a_time(ws, rng):
    """Oracle: merge one swapped pair per pass, picked by rng, to a fixpoint."""
    while True:
        pairs = set()
        for q in ws:
            s = Triple(q.v, q.u, q.w)
            if not helpers.is_diagonal(q) and s in ws:
                pairs.add(frozenset((q, s)))
        if not pairs:
            return ws
        ordered = sorted(
            pairs, key=lambda p: min(freedist.triple_key(BASE, q) for q in p)
        )
        pick = rng.choice(ordered)
        c = next(iter(pick)).w
        ws = ws - pick | {t(c, c, c)}


def assert_step1_matches_oracle(px, py, ts, ws, rng):
    """Step 1 on the projections and triples against the one-pair oracle
    on the lifted set ws."""
    merged = step1(BASE, ts)
    for _ in range(3):
        assert as_lifted(px, py, ts, merged) == step1_one_pair_at_a_time(ws, rng)
    assert merged is None or step1(BASE, ts - merged) is None
    return merged


def test_step1_matches_one_pair_at_a_time_on_join_operands():
    # y picks up mirrors of x's triples, so that many joins have swapped
    # pairs to merge
    rng = random.Random("freedist:step1-oracle")
    names = ("x", "y", "z")
    merged = []
    for _ in range(2000):
        x = freepairs.random_elem(rng, names, 2)
        y = freepairs.random_elem(rng, names, 2)
        for q in x.triples if isinstance(x, Node) else ():
            if rng.random() < 0.8:
                y = freepairs.join(y, freepairs.bowtie(q.v, q.u, q.w))
        if not (isinstance(x, Node) or isinstance(y, Node)):
            continue
        px, tx, py, ty = freedist._at_common_rank(x, y)
        ws = helpers.lifted_set(x, y)
        once = assert_step1_matches_oracle(px, py, frozenset(tx + ty), ws, rng)
        merged.append(0 if once is None else len(once) // 2)
    # the sample merges often, and often more than one pair in a call
    assert sum(m >= 1 for m in merged) >= 300
    assert sum(m >= 2 for m in merged) >= 10


def test_step1_matches_one_pair_at_a_time_by_hand():
    # three disjoint swapped pairs, the third's w already the projection,
    # and a triple with u == v, which is its own swap
    ts = frozenset({
        t(A0, A1, ONE), t(A1, A0, ONE),
        t(A0, B0, B0), t(B0, A0, B0),
        t(A1, B1, A1), t(B1, A1, A1),
        t(B1, B1, ONE),
        t(A0, B1, ONE),
    })
    want = frozenset(
        {t(ONE, ONE, ONE), t(B0, B0, B0), t(A1, A1, A1), t(A0, B1, ONE)}
    )
    assert as_lifted(A1, A1, ts, step1(BASE, ts)) == want
    assert step1(BASE, ts) == ts - {t(A0, B1, ONE)}
    rng = random.Random("freedist:step1-by-hand")
    assert_step1_matches_oracle(A1, A1, ts, ts | {t(A1, A1, A1)}, rng)


def test_phi_merges_diagonals():
    ab = freepairs.join(A0, B0)
    assert phi(BASE, A0, B0, frozenset(), None) == (ab, frozenset())
    assert phi(BASE, A0, A0, frozenset(), None) == (A0, frozenset())
    assert phi(BASE, ZERO, B0, frozenset(), None) == (B0, frozenset())
    keep = t(A0, A1, ONE)
    assert phi(BASE, A0, B0, frozenset({keep}), None) == (ab, frozenset({keep}))
    # a merged pair's third entry joins the projections
    pair = frozenset({t(A1, B1, B1), t(B1, A1, B1)})
    got = phi(BASE, A0, B0, pair | {keep}, pair)
    assert got == (freepairs.join(ab, B1), frozenset({keep}))


def test_step2_absorbs_dominated_middle():
    # projection b, triple <a, b, c>: projection raised to c v b
    b = B0
    out = step2(BASE, b, frozenset({t(A0, b, freepairs.join(A0, B1))}))
    raised = freepairs.join(freepairs.join(A0, B1), b)
    assert out == (raised, frozenset())
    assert step2(BASE, *out) is None


def test_step2_cascade():
    # raising the projection enables a second absorption
    p = ZERO
    c1 = B0
    rest = frozenset({t(A0, ZERO, ZERO)})  # degenerate; absorbed straight off
    assert step2(BASE, p, rest) == (ZERO, frozenset())
    rest = frozenset({t(A0, ZERO, c1), t(A1, c1, ONE)})
    once = step2(BASE, ZERO, rest)
    twice = step2(BASE, *once)
    assert twice == (ONE, frozenset())
    assert step2(BASE, *twice) is None


def test_psi_examples():
    assert psi(BASE, B0, frozenset()) == B0
    # a <= projection: dropped
    assert psi(BASE, B0, frozenset({t(B0, A0, freepairs.join(A0, B0))})) == B0
    # c <= projection: dropped
    assert psi(BASE, B0, frozenset({t(A0, A1, B0)})) == B0
    # nothing dominated: kept
    keep = t(A0, A1, ONE)
    assert psi(BASE, ZERO, frozenset({keep})) == Node(ZERO, (keep,))


def step2_on_set(ws, rng):
    """Oracle: step 2 on a set holding the projection as its one diagonal."""
    (d,) = [q for q in ws if helpers.is_diagonal(q)]
    cands = [q for q in ws if not helpers.is_diagonal(q) and leq(BASE, q.v, d.u)]
    if not cands:
        return None
    cands.sort(key=lambda q: freedist.triple_key(BASE, q))
    q = rng.choice(cands) if rng is not None else cands[0]
    raised = join(BASE, q.w, d.u)
    return ws - {q, d} | {t(raised, raised, raised)}


def join_on_set(x, y, rng):
    """Oracle: the join with the projection kept as the set's diagonal.

    Returns the join and the number of step 2 rewrites.
    """
    ws = helpers.lifted_set(x, y)
    p, rest = helpers.lifted_phi(BASE, helpers.lifted_step1(ws) or ws)
    ws, steps = rest | {t(p, p, p)}, 0
    while (nxt := step2_on_set(ws, rng)) is not None:
        ws, steps = nxt, steps + 1
    (d,) = [q for q in ws if helpers.is_diagonal(q)]
    keep = [
        q
        for q in ws
        if not helpers.is_diagonal(q)
        and not leq(BASE, q.u, d.u)
        and not leq(BASE, q.w, d.u)
    ]
    return freedist.make_node(BASE, d.u, keep), steps


def test_projection_beside_triples_matches_one_diagonal_set():
    rng = random.Random("freedist:one-diagonal-oracle")
    names = ("x", "y", "z")
    steps = []
    for i in range(400):
        x = freepairs.random_elem(rng, names, 2)
        y = freepairs.random_elem(rng, names, 2)
        if not (isinstance(x, Node) or isinstance(y, Node)):
            continue
        want, n = join_on_set(x, y, None)
        assert join(BASE, x, y) == want
        steps.append(n)
        seed = f"one-diagonal:{i}"
        got = join_with_order(BASE, x, y, random.Random(seed))
        assert got == join_on_set(x, y, random.Random(seed))[0]
    # most pairs reach the rewrite, and step 2 fires in a good share
    assert len(steps) >= 200
    assert sum(n >= 1 for n in steps) >= 40
    assert sum(n >= 2 for n in steps) >= 3


# -- the lifted kernel as an oracle ------------------------------------------
#
# helpers.lifted_* is the order and join computed on operands lifted to sets
# with their projections as diagonal triples, recursing only into itself.
# The operands below are built with it too, so building them fills none of
# freedist's memo tables.


def lifted_join_all(parts):
    return functools.reduce(lambda a, b: helpers.lifted_join(BASE, a, b), parts)


def split(a, b, c):
    """bowtie(a, b, c) for nonzero a != b and nonzero c <= a v b."""
    return Node(ZERO, (Triple(a, b, c),))


class OperandGen:
    """Seeded rank 1-2 values with a chosen number of stored triples.

    Every splitting triple's third entry is a join of joinands of its
    first two, so it lies below their join by construction.
    """

    def __init__(self, rng, names):
        self.rng = rng
        self.names = names

    def atom(self):
        names = self.rng.sample(self.names, self.rng.choice((1, 1, 2)))
        gens = [gen(self.rng.randrange(2), n) for n in sorted(names)]
        return lifted_join_all(gens), gens

    def splitting(self, a, ja, b, jb):
        parts = ja + jb
        c = lifted_join_all(self.rng.sample(parts, self.rng.randint(1, 2)))
        return split(a, b, c)

    def rank1_joinand(self):
        (a, ga), (b, gb) = self.atom(), self.atom()
        while b == a:
            b, gb = self.atom()
        return self.splitting(a, ga, b, gb)

    def rank1(self, width):
        parts = [self.rank1_joinand() for _ in range(width)]
        if self.rng.random() < 0.3:
            parts.append(self.atom()[0])
        return lifted_join_all(parts), parts

    def rank2_joinand(self):
        (a, ja), (b, jb) = self.rank1(1), self.rank1(self.rng.randint(1, 2))
        while b == a:
            b, jb = self.rank1(2)
        return self.splitting(a, ja, b, jb)

    def operand(self, r, width):
        """A value of rank r with width stored triples."""
        while True:
            if r == 1:
                x = self.rank1(width)[0]
            else:
                x = lifted_join_all([self.rank2_joinand() for _ in range(width)])
            if helpers.lifted_rank(x) == r and len(x.triples) == width:
                return x

    def partner(self, x):
        """A value for y in a pair with x: fresh, above x, or holding
        mirrors of some of x's triples (swapped pairs split across the
        operands), of rank 1-2 and width 2-4."""
        while True:
            kind = self.rng.choice(("fresh", "above", "mirror"))
            y = self.operand(self.rng.randint(1, 2), self.rng.randint(2, 4))
            if kind == "above":
                y = helpers.lifted_join(BASE, x, y)
            elif kind == "mirror":
                mirrors = [split(q.v, q.u, q.w) for q in x.triples]
                y = lifted_join_all([y] + self.rng.sample(mirrors, 1 + len(mirrors) // 2))
            if isinstance(y, Node) and 2 <= len(y.triples) <= 4:
                return kind, y


def assert_kernel_matches_lifted_oracle(x, y, seed):
    """leq both ways, join and a reordered join against the lifted kernel."""
    assert leq(BASE, x, y) == helpers.lifted_leq(BASE, x, y)
    assert leq(BASE, y, x) == helpers.lifted_leq(BASE, y, x)
    assert join(BASE, x, y) == helpers.lifted_join(BASE, x, y)
    got = join_with_order(BASE, x, y, random.Random(seed))
    assert got == helpers.lifted_join(BASE, x, y, random.Random(seed))


def test_kernel_matches_lifted_oracle_on_seeded_operands():
    seen = collections.Counter()
    for i in range(1200):
        rng = random.Random(f"freedist:lifted-oracle:{i}")
        ops = OperandGen(rng, ("x", "y", "z", "w")[: rng.randint(3, 4)])
        x = ops.operand(rng.randint(1, 2), rng.randint(2, 4))
        kind, y = ops.partner(x)
        assert_kernel_matches_lifted_oracle(x, y, f"lifted-oracle:{i}")
        seen[kind] += 1
        seen["mixed rank"] += helpers.lifted_rank(x) != helpers.lifted_rank(y)
        seen["rank 2"] += helpers.lifted_rank(x) == helpers.lifted_rank(y) == 2
        seen["x <= y"] += leq(BASE, x, y)
        seen["step 1 fires"] += helpers.lifted_step1(helpers.lifted_set(x, y)) is not None
    # every kind of pair is drawn, and the order and the rewrite are reached
    assert min(seen[k] for k in ("fresh", "above", "mirror")) >= 200, seen
    assert seen["mixed rank"] >= 300 and seen["rank 2"] >= 300, seen
    assert seen["x <= y"] >= 200 and seen["step 1 fires"] >= 150, seen


def test_kernel_matches_lifted_oracle_by_hand():
    s1 = bowtie(BASE, A0, A1, ONE)
    s2 = bowtie(BASE, A0, B0, B0)
    s3 = bowtie(BASE, B1, A1, A1)
    x = join(BASE, s1, s2)
    deep = bowtie(BASE, x, B0, x)
    cases = {
        # a lower-rank operand on either side
        "rank 0 and 1": (B0, x),
        "rank 1 and 2": (x, join(BASE, deep, s3)),
        "rank 2 and 0": (deep, ONE),
        # equal projections, different triples
        "equal projections": (x, join(BASE, s1, s3)),
        "equal nonzero projections": (
            join(BASE, x, B1), join(BASE, join(BASE, s3, s2), B1)
        ),
        # one triple held by both operands
        "shared triple": (join(BASE, s1, s3), join(BASE, s1, s2)),
        # swapped pairs split across the operands
        "swapped pairs split": (
            x, join(BASE, bowtie(BASE, A1, A0, ONE), bowtie(BASE, B0, A0, B0))
        ),
        "x == y": (x, x),
        "x == y at rank 2": (deep, deep),
    }
    for name, (a, b) in cases.items():
        assert_kernel_matches_lifted_oracle(a, b, f"by-hand:{name}")
        assert_kernel_matches_lifted_oracle(b, a, f"by-hand:{name}:swapped")
    # the cases reach what they name
    assert proj(x) == proj(cases["equal projections"][1]) == ZERO
    assert set(x.triples) & set(cases["shared triple"][1].triples)
    assert join(BASE, *cases["swapped pairs split"]) == join(BASE, ONE, B0)


# -- canonical order ---------------------------------------------------------


def assert_order_matches_uncached_key(base, p, triples, seed):
    """make_node's order and step 2's choice, without and with an rng,
    against the uncached serialization key.  Returns step 2's candidates
    in that key's order."""

    def key(q):
        return helpers.lifted_key(base, q)

    shuffled = list(triples)
    random.Random(seed).shuffle(shuffled)
    want = Node(p, tuple(sorted(set(triples), key=key)))
    assert make_node(base, p, shuffled) is want
    rest = frozenset(triples)
    cands = sorted((q for q in rest if helpers.lifted_leq(base, q.v, p)), key=key)
    if not cands:
        assert step2(base, p, rest) is None
        return cands
    drawn = random.Random(seed).choice(cands)
    for q, got in (
        (cands[0], step2(base, p, rest)),
        (drawn, step2(base, p, rest, random.Random(seed))),
    ):
        assert got == (join(base, q.w, p), rest - {q})
    return cands


def test_canonical_order_matches_uncached_key_on_seeded_operands():
    seen = collections.Counter()
    for i in range(300):
        rng = random.Random(f"freedist:order-oracle:{i}")
        ops = OperandGen(rng, ("x", "y", "z", "w")[: rng.randint(3, 4)])
        r = rng.randint(1, 2)
        x, y = (ops.operand(r, rng.randint(2, 4)) for _ in range(2))
        triples = x.triples + y.triples
        # a projection above some middle entries, so step 2 has a choice
        middles = [q.v for q in rng.sample(triples, rng.randint(1, 3))]
        p = lifted_join_all([x.proj] + middles)
        cands = assert_order_matches_uncached_key(BASE, p, triples, f"order:{i}")
        seen[f"rank {r}"] += 1
        seen["two or more candidates"] += len(cands) >= 2
    assert min(seen["rank 1"], seen["rank 2"]) >= 100, seen
    assert seen["two or more candidates"] >= 150, seen


class ReversedTableBase(TableBase):
    """A table base whose values serialize in the reverse order."""

    def serialize(self, a):
        return str(9 - a)


def test_canonical_order_keeps_bases_apart():
    # The same ints serialize in opposite orders over the two bases, so
    # the triple key memo must answer each base from its own keys, even
    # right after the other base's keys were memoized.
    fwd = diamond_base()
    rev = ReversedTableBase(fwd.table)
    pool = list(range(4))
    for a, b, c in itertools.product(range(4), repeat=3):
        if fwd.leq(c, fwd.join(a, b)):
            pool.append(bowtie(fwd, a, b, c))
    pool = list(dict.fromkeys(pool))
    rng = random.Random("freedist:two-bases")
    triples = {Triple(*rng.sample(pool, 3)) for _ in range(40)}
    orders, absorbed = [], []
    for base in (fwd, rev, fwd):
        cands = assert_order_matches_uncached_key(base, 3, triples, "two-bases")
        orders.append(make_node(base, 3, triples).triples)
        absorbed.append(cands[0])
    assert orders[0] == orders[2] != orders[1]
    assert absorbed[0] == absorbed[2] != absorbed[1]
    assert any(isinstance(c, Node) for q in triples for c in q)


# -- join --------------------------------------------------------------------


def test_join_mirror_relation():
    x = bowtie(BASE, A0, A1, ONE)
    y = bowtie(BASE, A1, A0, ONE)
    assert join(BASE, x, y) == ONE


def test_join_idempotent_zero_neutral():
    x = bowtie(BASE, A0, A1, ONE)
    assert join(BASE, x, x) == x
    assert join(BASE, x, ZERO) == x
    assert join(BASE, ZERO, ZERO) == ZERO


def test_join_mixed_rank():
    x = bowtie(BASE, A0, A1, ONE)
    deep = bowtie(BASE, x, B0, x)
    assert rank(deep) == 2
    assert join(BASE, deep, ZERO) == deep
    assert leq(BASE, x, join(BASE, deep, x))
    assert join(BASE, deep, ONE) == ONE


def test_join_lub_random_pairs_base():
    rng = random.Random("freedist:lub")
    names = ("x", "y", "z")
    for _ in range(150):
        x = freepairs.random_elem(rng, names, 2)
        y = freepairs.random_elem(rng, names, 2)
        w = join(BASE, x, y)
        assert leq(BASE, x, w) and leq(BASE, y, w)
        z = join(BASE, w, freepairs.random_elem(rng, names, 2))
        assert leq(BASE, w, z)
        assert leq(BASE, x, y) == (join(BASE, x, y) == y)


def test_join_lub_random_table_base():
    base = diamond_base()
    rng = random.Random("freedist:table")
    elems = [0, 1, 2, 3]
    pool = list(elems)
    for a in elems:
        for b in elems:
            for c in elems:
                if base.leq(c, base.join(a, b)):
                    pool.append(bowtie(base, a, b, c))
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        w = join(base, x, y)
        assert leq(base, x, w) and leq(base, y, w)
        z = join(base, w, rng.choice(pool))
        assert leq(base, w, z)
    # embedding: base elements behave as in the table
    for a in elems:
        for b in elems:
            assert join(base, a, b) == base.join(a, b)
            assert leq(base, a, b) == base.leq(a, b)


def test_antisymmetry_random():
    rng = random.Random("freedist:antisym")
    names = ("x", "y")
    seen = [freepairs.random_elem(rng, names, 2) for _ in range(120)]
    for x in seen:
        for y in seen:
            if leq(BASE, x, y) and leq(BASE, y, x):
                assert x == y


def test_transitivity_random():
    rng = random.Random("freedist:trans")
    names = ("x", "y")
    seen = [freepairs.random_elem(rng, names, 2) for _ in range(60)]
    related = [
        (x, y) for x in seen for y in seen if leq(BASE, x, y)
    ]
    for x, y in related:
        for y2, z in related:
            if y == y2:
                assert leq(BASE, x, z)


def test_confluence_small():
    rng = random.Random("freedist:confluence")
    names = ("x", "y")
    for i in range(40):
        x = freepairs.random_elem(rng, names, 2)
        y = freepairs.random_elem(rng, names, 2)
        want = join(BASE, x, y)
        for k in range(5):
            order = random.Random(f"confl:{i}:{k}")
            assert join_with_order(BASE, x, y, order) == want


def test_join_matches_brute_lub_oracle():
    # independent oracle: over one generator the width <= 4 universe is
    # closed under joins of width <= 2 operands, so the least upper
    # bound can be found by scanning it
    operands = freepairs.all_rank1({"x"}, 2)
    closed = freepairs.all_rank1({"x"}, 4)
    rng = random.Random("freedist:luboracle")
    for _ in range(150):
        x, y = rng.choice(operands), rng.choice(operands)
        w = join(BASE, x, y)
        uppers = [
            u for u in closed if leq(BASE, x, u) and leq(BASE, y, u)
        ]
        assert w in uppers
        assert all(leq(BASE, w, u) for u in uppers)


def test_decomposition_rejoins():
    rng = random.Random("freedist:decomp")
    names = ("x", "y")
    for _ in range(120):
        x = freepairs.random_elem(rng, names, 2)
        # x is its projection joined with the splitting element of each triple
        out = proj(x)
        for tr in x.triples if isinstance(x, Node) else ():
            out = join(BASE, out, bowtie(BASE, tr.u, tr.v, tr.w))
        assert out == x


# -- functor -----------------------------------------------------------------


def test_map_elem_identity():
    x = bowtie(BASE, A0, A1, ONE)
    assert map_elem(BASE, lambda p: p, x) == x
    nd = bowtie(BASE, A0, B1, bowtie(BASE, A0, B1, B1))
    assert map_elem(BASE, lambda p: p, nd) == nd


def test_map_elem_across_bases():
    # collapse the pair base onto the diamond table: a0->1, a1->2
    base = diamond_base()

    def f(p):
        if p.top:
            return 3
        out = 0
        for name in sorted(p.pos):
            out = base.join(out, 1)
        for name in sorted(p.neg):
            out = base.join(out, 2)
        return out

    x = bowtie(BASE, A0, A1, ONE)
    fx = map_elem(base, f, x)
    assert fx == bowtie(base, 1, 2, 3)
    # join preservation on samples
    rng = random.Random("freedist:mapjoin")
    for _ in range(100):
        a = freepairs.random_elem(rng, ("x",), 1)
        b = freepairs.random_elem(rng, ("x",), 1)
        lhs = map_elem(base, f, join(BASE, a, b))
        rhs = join(base, map_elem(base, f, a), map_elem(base, f, b))
        assert lhs == rhs


def test_map_elem_composition_across_three_bases():
    diamond = diamond_base()
    two = TableBase(conlat.semilattice(2, [0, 1, 1, 1], 0))

    def f(p):
        # pairs -> diamond: both generators of x land on separate atoms
        if p.top:
            return 3
        out = 0
        if p.pos:
            out = diamond.join(out, 1)
        if p.neg:
            out = diamond.join(out, 2)
        return out

    def g(a):
        # diamond -> two-chain: collapse the atoms onto the top
        return 0 if a == 0 else 1

    rng = random.Random("freedist:threebase")
    for _ in range(80):
        x = freepairs.random_elem(rng, ("x",), 2)
        composed = map_elem(two, lambda p: g(f(p)), x)
        staged = map_elem(two, g, map_elem(diamond, f, x))
        assert composed == staged


def sub_values(x):
    """Every occurrence of a sub-value of x, x itself included."""
    out = [x]
    if isinstance(x, Node):
        for part in (x.proj,) + tuple(c for q in x.triples for c in q):
            out += sub_values(part)
    return out


def renaming(table):
    return lambda name: table.get(name, name)


# a renaming with no two names meeting, and one where y lands on x, so a
# pair value holding x and y in opposite polarities collapses to top
INJECTIVE = renaming({"x": "y", "y": "z", "z": "w", "w": "v"})
COLLAPSING = renaming({"y": "x"})


def lifted_map_names(f, x):
    return helpers.lifted_map(BASE, lambda p: pairs.map_generators(f, p), x)


def assert_map_matches_memo_free_oracle(x, alpha, i):
    """map_names under both renamings and retract against helpers.lifted_map."""
    for f in (INJECTIVE, COLLAPSING):
        assert freepairs.map_names(f, x) == lifted_map_names(f, x)
    want = helpers.lifted_map(BASE, lambda p: pairs.retract(alpha, i, p), x)
    assert freepairs.retract(alpha, i, x) == want


def test_map_elem_matches_memo_free_oracle_on_seeded_values():
    seen = collections.Counter()
    for i in range(150):
        rng = random.Random(f"freedist:map-oracle:{i}")
        ops = OperandGen(rng, ("x", "y", "z", "w")[: rng.randint(3, 4)])
        x = ops.operand(rng.randint(1, 2), rng.randint(2, 4))
        assert_map_matches_memo_free_oracle(x, rng.choice(ops.names), rng.randrange(2))
        parts = sub_values(x)
        seen[f"rank {rank(x)}"] += 1
        seen["shared sub-values"] += len(set(parts)) < len(parts)
        seen["collapses to top"] += any(
            p != ONE and pairs.map_generators(COLLAPSING, p) == ONE
            for p in parts
            if not isinstance(p, Node)
        )
    # both ranks are drawn, and the per-call images and the collapse are used
    assert min(seen["rank 1"], seen["rank 2"]) >= 50, seen
    assert seen["shared sub-values"] >= 100, seen
    assert seen["collapses to top"] >= 40, seen


def test_map_elem_keeps_no_image_between_calls():
    # one value mapped by two renamings back to back, then by the first
    # again: an image kept from an earlier call would show in the next
    rng = random.Random("freedist:map-back-to-back")
    ops = OperandGen(rng, ("x", "y", "z"))
    swap = renaming({"x": "y", "y": "x"})
    differ = 0
    for _ in range(30):
        x = ops.operand(rng.randint(1, 2), rng.randint(2, 4))
        fx = freepairs.map_names(INJECTIVE, x)
        sx = freepairs.map_names(swap, x)
        assert fx == lifted_map_names(INJECTIVE, x)
        assert sx == lifted_map_names(swap, x)
        assert freepairs.map_names(INJECTIVE, x) is fx
        differ += fx != sx
    assert differ >= 25


# -- distributivity witness --------------------------------------------------


def test_distributivity_witness_postconditions():
    rng = random.Random("freedist:witness")
    names = ("x", "y")
    for _ in range(150):
        a, b, c = freepairs.random_triple(rng, names, 1)
        x, y = bowtie(BASE, a, b, c), bowtie(BASE, b, a, c)
        assert leq(BASE, x, a)
        assert leq(BASE, y, b)
        assert join(BASE, x, y) == c


# -- rank and depth ----------------------------------------------------------


def test_rank_examples():
    assert rank(A0) == 0
    assert rank(bowtie(BASE, A0, A1, ONE)) == 1
    lvl1 = bowtie(BASE, A0, A1, ONE)
    lvl2 = bowtie(BASE, lvl1, B0, lvl1)
    assert rank(lvl2) == 2


def test_deep_nesting():
    x = bowtie(BASE, A0, A1, ONE)
    for k in range(6):
        x = bowtie(BASE, x, gen(0, f"g{k}"), x)
    assert rank(x) == 7
    assert join(BASE, x, ZERO) == x
    assert leq(BASE, x, x)
    assert validate(BASE, x) == x


def seeded_ranked_values():
    """Seeded values until each of the ranks 0-3 has at least 10 of them."""
    rng = random.Random("freedist:node-rank")
    out, seen = [], collections.Counter()
    while min(seen[r] for r in range(4)) < 10:
        x = freepairs.random_elem(rng, ("x", "y", "z"), 3)
        seen[helpers.lifted_rank(x)] += 1
        out.append(x)
    return out


def assert_rank_is_memo_free(xs):
    for x in xs:
        assert getattr(x, "rank", 0) == helpers.lifted_rank(x)
        assert rank(x) == getattr(x, "rank", 0)


def test_node_rank_matches_the_memo_free_rank():
    xs = seeded_ranked_values()
    assert_rank_is_memo_free(xs)
    assert_rank_is_memo_free([expr.deserialize(serialize(BASE, x)) for x in xs])
    base = diamond_base()
    assert_rank_is_memo_free(
        [bowtie(base, 1, 2, 3), join(base, bowtie(base, 1, 2, 3), bowtie(base, 2, 1, 1))]
    )
    assert_rank_is_memo_free([Node(ZERO, ()), Node(Node(ZERO, ()), ())])


def test_rebuilt_nodes_set_their_rank_on_interning(monkeypatch):
    # With an empty intern table, copy, pickle and deserialize build every
    # node afresh through Node.__new__, which must set its rank again.
    xs = [x for x in seeded_ranked_values() if isinstance(x, Node)]
    texts = [serialize(BASE, x) for x in xs]
    for build in (
        lambda i: copy.copy(xs[i]),
        lambda i: copy.deepcopy(xs[i]),
        lambda i: pickle.loads(pickle.dumps(xs[i])),
        lambda i: expr.deserialize(texts[i]),
    ):
        monkeypatch.setattr(freedist, "_INTERNED", {})
        fresh = [build(i) for i in range(len(xs))]
        assert all(y is not x for x, y in zip(xs, fresh))
        assert [y.rank for y in fresh] == [x.rank for x in xs]
        assert_rank_is_memo_free(fresh)


def test_kernel_reads_node_rank_not_the_memo():
    fresh = [gen(i, f"rank-memo-{k}") for k in range(2) for i in range(2)]
    x = bowtie(BASE, fresh[0], fresh[1], ONE)
    y = bowtie(BASE, fresh[2], fresh[3], ONE)
    before = freedist.rank.cache_info().currsize
    z = join(BASE, x, y)
    assert leq(BASE, x, z) and not leq(BASE, z, bowtie(BASE, x, fresh[2], x))
    assert freedist.rank.cache_info().currsize == before


# -- validate ----------------------------------------------------------------


def test_validate_rejects_swapped_pair():
    tri = (Triple(A0, A1, ONE), Triple(A1, A0, ONE))
    bad = Node(ZERO, tuple(sorted(tri, key=lambda q: freedist.triple_key(BASE, q))))
    with pytest.raises(ReducedFormError) as err:
        validate(BASE, bad)
    assert err.value.condition == "condition-2"


def test_validate_rejects_dominated():
    bad = Node(A0, (Triple(A0, A1, ONE),))
    with pytest.raises(ReducedFormError) as err:
        validate(BASE, bad)
    assert err.value.condition == "condition-3"


def test_validate_rejects_non_c_triple():
    bad = Node(ZERO, (Triple(A0, B0, A1),))
    with pytest.raises(ReducedFormError) as err:
        validate(BASE, bad)
    assert err.value.condition == "c-condition"


def test_validate_rejects_empty_node():
    with pytest.raises(ReducedFormError) as err:
        validate(BASE, Node(ZERO, ()))
    assert err.value.condition == "empty-triples"


def test_validate_rejects_unsorted():
    t1 = Triple(A0, A1, ONE)
    t2 = Triple(B0, B1, ONE)
    ordered = sorted((t1, t2), key=lambda q: freedist.triple_key(BASE, q))
    bad = Node(ZERO, tuple(reversed(ordered)))
    with pytest.raises(ReducedFormError) as err:
        validate(BASE, bad)
    assert err.value.condition == "ordering"


def test_validate_accepts_join_output():
    # join, join_with_order and bowtie build canonical values without
    # rechecking them; validate is the oracle that they do.
    elems = freepairs.all_rank1({"x"}, 2)
    assert len(elems) == 182
    for i, x in enumerate(elems):
        assert validate(BASE, x) is x
        for y in elems[i + 1 :]:
            out = join(BASE, x, y)
            assert validate(BASE, out) is out
    rng = random.Random("freedist:valclosure")
    for _ in range(300):
        x = freepairs.random_elem(rng, ("x", "y"), 2)
        y = freepairs.random_elem(rng, ("x", "y"), 2)
        a, b, c = freepairs.random_triple(rng, ("x", "y"), 1)
        for out in (
            join(BASE, x, y),
            join_with_order(BASE, x, y, rng),
            bowtie(BASE, a, b, c),
        ):
            assert validate(BASE, out) is out


# -- serialization -----------------------------------------------------------


def test_serialize_deterministic_sorted():
    x = join(BASE, bowtie(BASE, A0, A1, ONE), bowtie(BASE, B0, B1, ONE))
    text = serialize(BASE, x)
    assert text.startswith("red(pair([],[]); [(")
    assert serialize(BASE, x) == text


# -- element contract: one object per value, equality is identity -----------


def contract_samples():
    rng = random.Random("freedist:contract")
    out = [join(BASE, bowtie(BASE, A0, A1, ONE), bowtie(BASE, B0, B1, ONE))]
    while len(out) < 40:
        x = freepairs.random_elem(rng, ("x", "y", "z"), 2)
        if isinstance(x, Node):
            out.append(x)
    return out


def test_node_hash_is_identity_hash():
    for n in contract_samples():
        assert hash(n) == object.__hash__(n)
    assert Node.__hash__ is object.__hash__


def rebuild(x):
    """x rebuilt field by field from fresh containers, leaves included."""
    if isinstance(x, Node):
        triples = tuple(Triple(*(rebuild(c) for c in t)) for t in x.triples)
        return Node(rebuild(x.proj), triples)
    return type(x)(frozenset(x.pos), frozenset(x.neg), x.top)


def test_rebuilt_node_is_the_same_object():
    for n in contract_samples():
        assert rebuild(n) is n
        assert expr.deserialize(serialize(BASE, n)) is n
        assert freepairs.map_names(lambda name: name, n) is n
        assert copy.copy(n) is n and copy.deepcopy(n) is n
        assert pickle.loads(pickle.dumps(n)) is n
    assert Node.__eq__ is object.__eq__


class ConstantHashValue(str):
    """A base value whose hash collides with every other such value."""

    def __hash__(self):
        return 0


def test_node_hash_collision_falls_back_to_fields(monkeypatch):
    # A node's intern key hashes its fields, so base values with colliding
    # hashes give colliding keys, and only field equality tells them apart.
    monkeypatch.setattr(freedist, "_INTERNED", dict(freedist._INTERNED))
    a, b, c = (ConstantHashValue(v) for v in ("a", "b", "c"))
    triples = (Triple(a, b, c),)
    m, n = Node(a, triples), Node(b, triples)
    assert hash((m.proj, m.triples)) == hash((n.proj, n.triples))
    assert m is not n
    assert (m.proj, n.proj) == (a, b) and m.triples == n.triples == triples
    assert Node(ConstantHashValue("a"), (Triple(a, b, c),)) is m
    assert Node(ConstantHashValue("b"), (Triple(a, b, c),)) is n


def test_node_compare_with_other_types_is_false():
    n = bowtie(BASE, A0, B0, A0)
    for other in (A0, ZERO, ONE, 0, None):
        assert (n == other) is False and (other == n) is False
        assert n != other


def test_node_fields_stay_frozen():
    n = bowtie(BASE, A0, B0, A0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        n.proj = ONE
    with pytest.raises(dataclasses.FrozenInstanceError):
        n.triples = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        n.rank = 2


def test_node_repr_unchanged():
    n = bowtie(BASE, A0, B0, A0)
    assert repr(n) == (
        "red(pair([],[]); [(pair([x],[]),pair([y],[]),pair([x],[]))])"
    )
    assert repr(n) == serialize(BASE, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(0, 63),
    st.integers(0, 63),
    st.sampled_from(("draw", "rebuild", "deserialize")),
)
def test_equality_matches_serialization_and_hash(i, j, how):
    # y is drawn, or rebuilt from fresh containers, or parsed back from
    # text: however it was built, equal serializations mean the same object
    x = freepairs.random_elem(random.Random(i), ("x", "y"), max_rank=2)
    y = freepairs.random_elem(random.Random(j), ("x", "y"), max_rank=2)
    if how == "rebuild":
        y = rebuild(y)
    elif how == "deserialize":
        y = expr.deserialize(serialize(BASE, y))
    assert (serialize(BASE, x) == serialize(BASE, y)) == (x is y) == (x == y)
