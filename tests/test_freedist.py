import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slat import conlat, expr, freedist, freepairs
from slat.freedist import (
    DomainError,
    Node,
    ReducedFormError,
    Triple,
    bowtie,
    join,
    join_with_order,
    leq,
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


def test_step1_merges_swapped_pair():
    ws = frozenset({t(A0, A1, ONE), t(A1, A0, ONE)})
    assert step1(BASE, ws) == frozenset({t(ONE, ONE, ONE)})


def test_step1_fixpoint_signal():
    ws = frozenset({t(A0, A1, ONE), t(ZERO, ZERO, ZERO)})
    assert step1(BASE, ws) is None


def test_step1_two_disjoint_pairs():
    ws = frozenset(
        {t(A0, A1, ONE), t(A1, A0, ONE), t(A0, B0, B0), t(B0, A0, B0)}
    )
    once = step1(BASE, ws)
    assert once == frozenset({t(ONE, ONE, ONE), t(B0, B0, B0)})
    assert step1(BASE, once) is None


def step1_one_pair_at_a_time(ws, rng):
    """Oracle: merge one swapped pair per pass, picked by rng, to a fixpoint."""
    while True:
        pairs = set()
        for q in ws:
            s = Triple(q.v, q.u, q.w)
            if not freedist.is_diagonal(q) and s in ws:
                pairs.add(frozenset((q, s)))
        if not pairs:
            return ws
        ordered = sorted(
            pairs, key=lambda p: min(freedist.triple_key(BASE, q) for q in p)
        )
        pick = rng.choice(ordered)
        c = next(iter(pick)).w
        ws = ws - pick | {t(c, c, c)}


def assert_step1_matches_oracle(ws, rng):
    once = step1(BASE, ws)
    for _ in range(3):
        assert (once or ws) == step1_one_pair_at_a_time(ws, rng)
    assert once is None or step1(BASE, once) is None
    return once


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
        r = max(rank(x), rank(y))
        ws = frozenset(freedist._lift(x, r) + freedist._lift(y, r))
        once = assert_step1_matches_oracle(ws, rng)
        merged.append(0 if once is None else len(ws - once) // 2)
    # the sample merges often, and often more than one pair in a call
    assert sum(m >= 1 for m in merged) >= 300
    assert sum(m >= 2 for m in merged) >= 10


def test_step1_matches_one_pair_at_a_time_by_hand():
    # three disjoint swapped pairs, the third's w already on the diagonal,
    # and a triple with u == v, which is its own swap
    ws = frozenset({
        t(A0, A1, ONE), t(A1, A0, ONE),
        t(A0, B0, B0), t(B0, A0, B0),
        t(A1, B1, A1), t(B1, A1, A1), t(A1, A1, A1),
        t(B1, B1, ONE),
        t(A0, B1, ONE),
    })
    want = frozenset(
        {t(ONE, ONE, ONE), t(B0, B0, B0), t(A1, A1, A1), t(A0, B1, ONE)}
    )
    assert step1(BASE, ws) == want
    rng = random.Random("freedist:step1-by-hand")
    assert_step1_matches_oracle(ws, rng)


def test_phi_merges_diagonals():
    ws = frozenset({t(A0, A0, A0), t(B0, B0, B0)})
    ab = freepairs.join(A0, B0)
    assert phi(BASE, ws) == (ab, frozenset())
    single = frozenset({t(A0, A0, A0)})
    assert phi(BASE, single) == (A0, frozenset())
    withzero = frozenset({t(ZERO, ZERO, ZERO), t(B0, B0, B0)})
    assert phi(BASE, withzero) == (B0, frozenset())
    keep = t(A0, A1, ONE)
    assert phi(BASE, ws | {keep}) == (ab, frozenset({keep}))


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
    (d,) = [q for q in ws if freedist.is_diagonal(q)]
    cands = [q for q in ws if not freedist.is_diagonal(q) and leq(BASE, q.v, d.u)]
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
    r = max(rank(x), rank(y))
    ws = frozenset(freedist._lift(x, r) + freedist._lift(y, r))
    p, rest = phi(BASE, step1(BASE, ws) or ws)
    ws, steps = rest | {t(p, p, p)}, 0
    while (nxt := step2_on_set(ws, rng)) is not None:
        ws, steps = nxt, steps + 1
    (d,) = [q for q in ws if freedist.is_diagonal(q)]
    keep = [
        q
        for q in ws
        if not freedist.is_diagonal(q)
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
