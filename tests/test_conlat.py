import collections
import functools
import itertools
import random
import time
from pathlib import Path

import pytest

from slat import conlat, corpus, descent
from slat.cli import main
from slat.conlat import (
    Congruences,
    FinAlgebra,
    FormatError,
    SemHom,
    all_congruences,
    all_partitions,
    check_congruence_compatible,
    conc,
    congruence_from_blockof,
    congruence_from_blocks,
    epsilon,
    erosion,
    fin_algebra,
    identity_congruence,
    is_compatible,
    is_distributive,
    join_closure,
    parse_algebra,
    parse_semhom,
    format_algebra,
    part_join,
    part_meet,
    permutability,
    quotient,
    sem_hom,
    semilattice,
    theta,
    weakly_distributive_at,
)
from slat.freedist import DomainError

from helpers import refines, scan_join


def bare_chain(n):
    """Chain as carrier + designated join but no basic operations."""
    ch = corpus.chain(n)
    return fin_algebra(n, [], ch.join, top=n - 1)


# -- partitions ---------------------------------------------------------------


def test_congruence_canonical_form():
    c = congruence_from_blocks(4, [(2, 3), (0, 1)])
    assert c.block_of == (0, 0, 1, 1)
    assert c.blocks() == ((0, 1), (2, 3))
    assert c.serialize() == "{{0,1},{2,3}}"


def test_congruence_from_blocks_needs_a_partition():
    with pytest.raises(ValueError, match="^element 1 in two blocks$"):
        congruence_from_blocks(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="^blocks do not cover the carrier$"):
        congruence_from_blocks(3, [(0, 1)])


def test_partition_lattice_ops():
    a = congruence_from_blocks(3, [(0, 1), (2,)])
    b = congruence_from_blocks(3, [(0,), (1, 2)])
    assert part_join(a, b) == congruence_from_blocks(3, [(0, 1, 2)])
    assert part_meet(a, b) == identity_congruence(3)
    assert refines(identity_congruence(3), a)
    assert not refines(a, b)


def test_refines_reads_the_block_arrays():
    parts = list(all_partitions(5))
    assert len(parts) == 52
    for a, b in itertools.product(parts, repeat=2):
        assert refines(a, b) == (part_join(a, b) == b)
    # Listing a Con A that is no lattice's adds only the join closure's
    # part_join entries: its masks read generating pairs.
    algebras = [L for _, L in join_only_algebras()] + [swapped_square()]
    part_join.cache_clear()
    for L in algebras:
        all_congruences.__wrapped__(L)  # past the memo, which earlier tests filled
    assert part_join.cache_info().currsize == 650


def test_part_join_is_the_finest_partition_both_refine():
    pairs = 0
    for n in range(6):
        parts = list(all_partitions(n))
        for a, b in itertools.product(parts, repeat=2):
            ups = [p for p in parts if refines(a, p) and refines(b, p)]
            finest = [p for p in ups if all(refines(p, q) for q in ups)]
            assert [part_join(a, b)] == finest
            pairs += 1
    assert pairs == 1 + 1 + 2**2 + 5**2 + 15**2 + 52**2


def test_all_partitions_count():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n in range(7):
        assert len(list(all_partitions(n))) == bell[n]


# -- theta --------------------------------------------------------------------


def test_theta_reflexive_pair():
    L = corpus.chain(4)
    assert theta(L, 2, 2) == identity_congruence(4)


def test_theta_two_chain():
    L = corpus.chain(2)
    assert theta(L, 0, 1) == congruence_from_blocks(2, [(0, 1)])


def test_theta_n5_frozen():
    # 0 < a=1 < c=2 < 4, 0 < b=3 < 4
    L = corpus.n5()
    assert theta(L, 1, 2) == congruence_from_blocks(
        5, [(0,), (1, 2), (3,), (4,)]
    )


def test_theta_matches_brute_force():
    from slat.suite import oracles

    lattices = [("n5", corpus.n5()), ("m3", corpus.m3()), ("chain4", corpus.chain(4))]
    theta_checked, theta_bad, _, _, wd_bad = oracles(lattices)
    assert (theta_checked, theta_bad, wd_bad) == (66, 0, 0)


def test_theta_symmetric_on_corpus():
    for name, L in corpus.bundled_corpus():
        for x in range(L.size):
            for y in range(L.size):
                assert theta(L, x, y) == theta(L, y, x), (name, x, y)


# The products the con-large benchmark workload runs: too big for
# brute_theta, but each factor is small.  Congruences of a product of
# lattices are products of congruences of the factors, so theta on the
# product must be the product of brute_theta on the factors.
PRODUCT_FACTORS = (
    ("chain2", "2x2_top"), ("chain2", "n5"), ("chain2", "chain5"),
    ("chain2", "m3"), ("chain2", "2x3"), ("chain2", "hexagon"), ("chain3", "n5"),
)


def test_theta_matches_product_of_brute_theta():
    from slat.suite import brute_theta

    named = dict(corpus.bundled_corpus())
    factor_theta = functools.lru_cache(maxsize=None)(brute_theta)

    for a, b in PRODUCT_FACTORS:
        A, B = named[a], named[b]
        P = corpus.product(A, B)
        nb = B.size
        for i in range(P.size):
            for j in range(P.size):
                ca = factor_theta(A, i // nb, j // nb)
                cb = factor_theta(B, i % nb, j % nb)
                expected = conlat.congruence_from_blockof(
                    (ca.block_of[k // nb], cb.block_of[k % nb]) for k in range(P.size)
                )
                assert theta(P, i, j) == expected, (a, b, i, j)


def test_conc_table_passes_the_semilattice_recheck():
    # conc builds its table without semilattice()'s check; the check is
    # the oracle that the table is a (join, 0)-semilattice.
    named = dict(corpus.bundled_corpus())
    products = [corpus.product(named[a], named[b]) for a, b in PRODUCT_FACTORS]
    for L in list(named.values()) + products:
        t = conc(L).table
        assert semilattice(t.size, t.join, t.zero) == t


def unary_algebras():
    """chain(4) with a unary successor, and chain(4) with its order
    reversal: the only algebras here with a unary operation."""
    ch = corpus.chain(4)
    return [
        (name, fin_algebra(4, list(ch.ops) + [(name, 1, table)], ch.join, top=3))
        for name, table in (("succ", (1, 2, 3, 3)), ("neg", (3, 2, 1, 0)))
    ]


def test_unary_algebras():
    from slat.suite import brute_theta

    for name, L in unary_algebras():
        pairs = [(x, y) for x in range(4) for y in range(4)]
        assert all(theta(L, x, y) == brute_theta(L, x, y) for x, y in pairs), name
        assert len(conlat.all_congruences(L)) == 4, name
        assert check_congruence_compatible(L), name
        assert parse_algebra(format_algebra(L)) == L, name


def noncommutative_algebra():
    """chain(4) with r(x, y) = succ(y): the only algebra here with a binary
    operation whose table is not commutative.  Its rows are constant, so
    only its columns f(z, a) separate elements."""
    ch = corpus.chain(4)
    succ = (1, 2, 3, 3)
    r = [succ[y] for x in range(4) for y in range(4)]
    return fin_algebra(4, list(ch.ops) + [("r", 2, r)], ch.join, top=3)


def test_theta_with_a_noncommutative_op():
    from slat.suite import brute_theta

    L = noncommutative_algebra()
    for x in range(4):
        for y in range(4):
            assert theta(L, x, y) == brute_theta(L, x, y), (x, y)


def test_theta_plus():
    # Θ⁺(x, y), the least congruence collapsing y with x v y, is
    # theta(L, y, x v y); theta orders its pair itself.
    L = corpus.chain(3)
    assert theta(L, 2, L.join_of(0, 2)) == identity_congruence(3)  # x <= y
    L2 = corpus.chain(2)
    assert theta(L2, 0, L2.join_of(1, 0)) == theta(L2, 0, 1)


def test_theta_plus_triangle_inequality():
    for name in ("n5", "m3", "2x3", "hexagon"):
        L = dict(corpus.bundled_corpus())[name]
        plus = lambda x, y: theta(L, y, L.join_of(x, y))
        for x in range(L.size):
            for y in range(L.size):
                for z in range(L.size):
                    assert refines(plus(x, z), part_join(plus(x, y), plus(y, z)))


# -- congruence lattices ------------------------------------------------------


def test_conc_two_chain():
    result = conc(corpus.chain(2))
    assert result.table.size == 2
    assert result.table.zero == result.congruences.index(identity_congruence(2))


def test_conc_square_is_square():
    result = conc(corpus.product(corpus.chain(2), corpus.chain(2)))
    assert result.table.size == 4
    S = result.table
    atoms = [
        x
        for x in range(4)
        if x != S.zero and all(not S.leq(y, x) for y in range(4) if y not in (x, S.zero))
    ]
    assert len(atoms) == 2
    assert S.join_of(atoms[0], atoms[1]) not in (S.zero, *atoms)
    assert is_distributive(S)


def test_conc_distributive_on_corpus():
    for name, L in corpus.bundled_corpus():
        assert is_distributive(conc(L).table), name


def test_congruence_compatibility():
    # join among basic ops: always compatible
    assert check_congruence_compatible(corpus.n5())
    # no basic ops: every partition is a congruence; a 3-chain join fails
    assert not check_congruence_compatible(bare_chain(3))
    # one- and two-element carriers survive even with no basic ops
    assert check_congruence_compatible(bare_chain(1))
    assert check_congruence_compatible(bare_chain(2))


def test_cached_compatibility_still_rejects(monkeypatch):
    # The verdict is kept on the algebra: the second round rejects again
    # and tests no partition.
    calls = []
    real = conlat.is_compatible
    monkeypatch.setattr(conlat, "is_compatible", lambda *a, **k: calls.append(a) or real(*a, **k))
    L = bare_chain(3)
    for first in (True, False):
        before = len(calls)
        assert not check_congruence_compatible(L)
        with pytest.raises(DomainError, match="congruence-compatible"):
            erosion(L, 0, 0, (0, 1, 2))
        assert (len(calls) > before) == first


def test_compatibility_short_circuit_matches_the_full_check():
    # When the designated join is a basic operation, every congruence
    # respects it by definition; is_compatible is the oracle.
    algebras = corpus_and_products() + join_only_algebras()
    assert len(algebras) == 21 + 7 + 21
    for name, L in algebras:
        assert L.join_name is not None, name
        full = all(is_compatible(L, c, table=L.join) for c in all_congruences(L).cons)
        assert full and check_congruence_compatible(L), name
    assert bare_chain(3).join_name is None


def test_is_compatible_specific():
    L = bare_chain(3)
    skip_mid = congruence_from_blocks(3, [(0, 2), (1,)])
    assert not is_compatible(L, skip_mid, table=L.join)


def compatible_by_definition(L, c, tables):
    """For all a ~ a' and b ~ b': f(a, b) ~ f(a', b'); for unary f, f(a) ~ f(a')."""
    n, rel = L.size, c.relates
    related = [(a, a2) for a in range(n) for a2 in range(n) if rel(a, a2)]
    for arity, f in tables:
        if arity == 1:
            if not all(rel(f[a], f[a2]) for a, a2 in related):
                return False
        elif not all(
            rel(f[a * n + b], f[a2 * n + b2]) for a, a2 in related for b, b2 in related
        ):
            return False
    return True


def test_is_compatible_matches_the_definition():
    algebras = [corpus.chain(4), corpus.n5(), corpus.m3()]
    algebras += [L for _, L in unary_algebras()] + [noncommutative_algebra()]
    verdicts = collections.Counter()
    for L in algebras:
        ops = [(op.arity, op.table) for op in L.ops]
        for c in all_partitions(L.size):
            expected = compatible_by_definition(L, c, ops)
            assert is_compatible(L, c) == expected, (L, c)
            by_join = compatible_by_definition(L, c, [(2, L.join)])
            assert is_compatible(L, c, table=L.join) == by_join, (L, c)
            verdicts[expected, by_join] += 1
    L = bare_chain(3)
    for c in all_partitions(3):
        by_join = compatible_by_definition(L, c, [(2, L.join)])
        assert is_compatible(L, c, table=L.join) == by_join, c
        verdicts["bare", by_join] += 1
    # Every basic-operation set here holds the join, so (True, False) cannot occur.
    assert set(verdicts) == {
        (True, True), (False, True), (False, False), ("bare", True), ("bare", False)
    }


# -- semilattice tables -------------------------------------------------------


def m3_semilattice():
    L = corpus.m3()
    return semilattice(L.size, L.join, 0)


def test_is_distributive_examples():
    ch = corpus.chain(4)
    assert is_distributive(semilattice(4, ch.join, 0))
    sq = corpus.product(corpus.chain(2), corpus.chain(2))
    assert is_distributive(semilattice(4, sq.join, 0))
    assert not is_distributive(m3_semilattice())


def is_distributive_oracle(S):
    """The witness search is_distributive made before it read S.order: the
    below-sets by leq, then each c ≤ a v b looked up among the x v y."""
    down = [[x for x in range(S.size) if S.leq(x, a)] for a in range(S.size)]
    for a in range(S.size):
        for b in range(S.size):
            ab = S.join_of(a, b)
            joins = {S.join_of(x, y) for x in down[a] for y in down[b]}
            for c in range(S.size):
                if S.leq(c, ab) and c not in joins:
                    return False
    return True


def without_bottom(L):
    """L's join table with its least element deleted and the rest relabelled
    0..n-2 in order: a join-semilattice, with a zero only when L's bottom
    has one cover."""
    keep = [e for e in range(L.size) if e != L.zero]
    label = {e: i for i, e in enumerate(keep)}
    return fin_algebra(len(keep), [], [label[L.join_of(a, b)] for a in keep for b in keep])


def test_is_distributive_matches_the_witness_search():
    algebras = corpus_and_products() + join_only_algebras()
    tables = [conc(L).table for _, L in algebras]
    n5 = corpus.n5()
    tables += [m3_semilattice(), semilattice(n5.size, n5.join, n5.zero)]
    verdicts = [is_distributive(S) for S in tables]
    assert verdicts == [is_distributive_oracle(S) for S in tables]
    assert verdicts.count(False) == 15 + 2
    # Join-semilattices with a zero and without one (11 of the corpus, then
    # the V of two atoms under a top).
    zeroless = [without_bottom(L) for _, L in corpus.bundled_corpus() if L.size > 1]
    zeroless.append(fin_algebra(3, [], [0, 2, 2, 2, 1, 2, 2, 2, 2]))
    assert [S.zero is None for S in zeroless].count(True) == 11 + 1
    assert [is_distributive(S) for S in zeroless] == [is_distributive_oracle(S) for S in zeroless]


def test_semilattice_validation():
    with pytest.raises(ValueError, match="join not idempotent at 1"):
        semilattice(2, [0, 1, 1, 0], 0)
    # a semilattice table whose least element is 0, not the given 1
    with pytest.raises(ValueError, match="zero not neutral"):
        semilattice(2, [0, 1, 1, 1], 1)


def semilattice_check_oracle(size, table):
    """The cell-by-cell join-table check that fin_algebra and semilattice
    made before they checked a row at a time: the reference for which
    tables pass and for the text of the first error."""
    table = tuple(table)
    if len(table) != size * size:
        raise ValueError(f"join table needs {size * size} entries")
    if any(not (0 <= e < size) for e in table):
        raise ValueError("join table entry out of range")
    get = lambda a, b: table[a * size + b]
    for a in range(size):
        if get(a, a) != a:
            raise ValueError(f"join not idempotent at {a}")
        for b in range(size):
            if get(a, b) != get(b, a):
                raise ValueError(f"join not commutative at ({a},{b})")
            for c in range(size):
                if get(get(a, b), c) != get(a, get(b, c)):
                    raise ValueError(f"join not associative at ({a},{b},{c})")
    return table


def outcome(check, *args):
    try:
        return "ok", check(*args)
    except ValueError as exc:
        return "error", str(exc)


def corrupted_tables(L, rng, count):
    """count copies of L's join table with 0-3 cells (or mirrored pairs of
    cells, which keep commutativity) set to seeded values, a few of them
    just out of range."""
    n = L.size
    for _ in range(count):
        table = list(L.join)
        for _ in range(rng.randrange(4)):
            a, b = rng.randrange(n), rng.randrange(n)
            v = rng.choice((-1, n)) if rng.random() < 0.05 else rng.randrange(n)
            table[a * n + b] = v
            if rng.random() < 0.5:
                table[b * n + a] = v
        yield table


def test_row_wise_table_check_matches_the_cell_by_cell_loop():
    named = dict(corpus.bundled_corpus())
    lattices = list(named.values()) + [
        corpus.product(named["chain3"], named["n5"]),
        corpus.product(named["chain2"], named["m3"]),
    ]
    join_of_algebra = lambda n, table: fin_algebra(n, [], table).join
    # The check takes the algebra whose join table it reads, and returns it.
    check = lambda n, table: conlat._check_semilattice_table(FinAlgebra(n, (), tuple(table))).join
    rng = random.Random("conlat:row-wise-check")
    checked, kinds = 0, set()
    for L in lattices:
        for table in corrupted_tables(L, rng, 130):
            expected = outcome(semilattice_check_oracle, L.size, table)
            assert outcome(check, L.size, table) == expected
            assert outcome(join_of_algebra, L.size, table) == expected
            checked += 1
            kinds.add("ok" if expected[0] == "ok" else expected[1].split(" at ")[0])
    assert checked == 23 * 130
    assert sorted(kinds) == [
        "join not associative", "join not commutative", "join not idempotent",
        "join table entry out of range", "ok",
    ]
    # Sizes 0 to 2, where itemgetter of one index would give no tuple.
    for size, table in ((0, []), (1, [0]), (1, [1]), (1, [-1]), (2, [0, 1, 1, 1]), (2, [1, 1, 1, 1])):
        expected = outcome(semilattice_check_oracle, size, table)
        assert outcome(check, size, table) == expected
    assert outcome(semilattice, 0, [], 0) == ("error", "zero out of range")


def test_checked_constructors_return_the_checked_algebra():
    """fin_algebra and semilattice check the join table on the algebra they
    return, so its order masks are built once and already cached."""
    ch = corpus.chain(4)
    built = [
        fin_algebra(4, [("join", 2, ch.join)], ch.join, top=3),
        fin_algebra(4, [], list(ch.join)),
        semilattice(4, list(ch.join), 0),
        m3_semilattice(),
    ]
    for A in built:
        assert "order" in vars(A)
        assert A.order == FinAlgebra(A.size, A.ops, A.join, A.top).order


def test_operation_table_errors():
    join = corpus.chain(3).join
    for ops, message in (
        ([("f", 1, [0, 3, 1])], "operation f: entry out of range"),
        ([("f", 1, [0, -1, 1])], "operation f: entry out of range"),
        ([("g", 2, [0] * 8 + [3])], "operation g: entry out of range"),
        ([("g", 2, [0] * 8)], "operation g: wrong table size"),
        ([("h", 3, [0] * 27)], "operation h: arity must be 1 or 2"),
    ):
        assert outcome(fin_algebra, 3, ops, join) == ("error", message)


def test_declared_top_is_the_greatest_element():
    chain3 = corpus.chain(3).join
    vee = [0, 2, 2, 2, 1, 2, 2, 2, 2]  # 0 and 1 below 2, no zero
    for join in (chain3, vee):
        assert fin_algebra(3, [], join, top=2).top == 2
        for top in (0, 1):
            message = f"top {top} is not the greatest element"
            assert outcome(fin_algebra, 3, [], join, top) == ("error", message)
    assert outcome(fin_algebra, 3, [], chain3, 3) == ("error", "top out of range")


def test_sem_hom_validation():
    two = semilattice(2, [0, 1, 1, 1], 0)
    m3 = m3_semilattice()
    mu = sem_hom(two, m3, [0, 4])
    assert mu.image == (0, 4)
    with pytest.raises(ValueError):
        sem_hom(two, m3, [1, 4])  # zero not preserved
    with pytest.raises(ValueError, match="^image array has wrong length$"):
        sem_hom(two, two, [0])


def test_sem_hom_and_all_sem_homs_name_a_missing_zero():
    two = semilattice(2, [0, 1, 1, 1], 0)
    vee = fin_algebra(3, [], [0, 2, 2, 2, 1, 2, 2, 2, 2])  # two minimal elements
    for dom, cod, role in ((vee, two, "domain"), (two, vee, "codomain")):
        with pytest.raises(ValueError, match=f"^{role} has no zero$"):
            sem_hom(dom, cod, [0] * dom.size)
        with pytest.raises(ValueError, match=f"^{role} has no zero$"):
            conlat.all_sem_homs(dom, cod)


def test_weak_distributivity():
    two = semilattice(2, [0, 1, 1, 1], 0)
    m3 = m3_semilattice()
    ident = sem_hom(m3, m3, list(range(5)))
    assert all(weakly_distributive_at(ident, x) for x in range(5))
    # send the top of a 2-chain to the top of m3: fails at 1 since the
    # preimages below the two atoms only reach zero
    mu = sem_hom(two, m3, [0, 4])
    assert weakly_distributive_at(mu, 0)
    assert not weakly_distributive_at(mu, 1)


def semilattice_pairs():
    """Domain/codomain pairs over the 2-chain, the square, M3 and N5."""
    two = semilattice(2, [0, 1, 1, 1], 0)
    sq = corpus.product(corpus.chain(2), corpus.chain(2))
    sq_s = semilattice(4, sq.join, 0)
    m3 = m3_semilattice()
    n5 = corpus.n5()
    n5_s = semilattice(n5.size, n5.join, n5.zero)
    pairs = [(dom, cod) for dom in (two, sq_s) for cod in (two, sq_s, m3)]
    # The two non-distributive lattices as domains.
    pairs += [(dom, cod) for dom in (m3, n5_s) for cod in (two, sq_s, m3, n5_s)]
    return pairs


def test_sem_hom_and_all_sem_homs_agree_with_the_all_pairs_loop():
    def row_major_error(dom, cod, image):
        """sem_hom's check as it was: the first failing (a, b) of all pairs."""
        if image[dom.zero] != cod.zero:
            return "zero not preserved"
        for a in range(dom.size):
            for b in range(dom.size):
                if image[dom.join_of(a, b)] != cod.join_of(image[a], image[b]):
                    return f"join not preserved at ({a},{b})"
        return None

    seen = collections.Counter()
    for dom, cod in semilattice_pairs():
        listed = {mu.image for mu in conlat.all_sem_homs(dom, cod)}
        for image in itertools.product(range(cod.size), repeat=dom.size):
            error = row_major_error(dom, cod, image)
            expected = ("error", error) if error else ("ok", SemHom(dom, cod, image))
            assert outcome(sem_hom, dom, cod, image) == expected
            assert (image in listed) == (error is None)
            seen[error.split(" at ")[0] if error else "ok"] += 1
    assert seen == {"ok": 291, "zero not preserved": 12302, "join not preserved": 2961}


def test_weak_distributivity_oracle_agreement():
    from slat.suite import wd_at_oracle

    points = 0
    for dom, cod in semilattice_pairs():
        for mu in conlat.all_sem_homs(dom, cod):
            for x in range(dom.size):
                assert weakly_distributive_at(mu, x) == wd_at_oracle(mu, x)
                points += 1
    assert points == 202 + 1175


# -- quotients ----------------------------------------------------------------


def test_quotient_identity_and_full():
    L = corpus.n5()
    Q, proj = quotient(L, identity_congruence(5))
    assert Q.size == 5 and proj == (0, 1, 2, 3, 4)
    Q, proj = quotient(L, congruence_from_blocks(5, [range(5)]))
    assert Q.size == 1


def test_quotient_n5_collapse():
    L = corpus.n5()
    Q, proj = quotient(L, theta(L, 1, 2))
    assert Q.size == 4
    assert Q.top == proj[4]


def test_quotient_rejects_incompatible():
    # The size is checked first, then the basic operations (n5's include
    # its join, so bad fails both), then the designated join.
    L = corpus.n5()
    with pytest.raises(DomainError, match="^partition size mismatch$"):
        quotient(L, identity_congruence(4))
    bad = congruence_from_blocks(5, [(0, 1), (2,), (3,), (4,)])
    assert not is_compatible(L, bad, table=L.join)
    with pytest.raises(DomainError, match="^partition not compatible with basic operations$"):
        quotient(L, bad)
    skip_mid = congruence_from_blocks(3, [(0, 2), (1,)])
    with pytest.raises(DomainError, match="^partition not compatible with designated join$"):
        quotient(bare_chain(3), skip_mid)


def test_quotient_tables_commute_with_the_projection():
    # The oracle for quotient's induced tables: proj is a homomorphism for
    # every operation and the designated join, and it sends top to top.
    named = dict(corpus.bundled_corpus())
    products = [corpus.product(named[a], named[b]) for a, b in PRODUCT_FACTORS]
    algebras = list(named.values()) + products + [L for _, L in unary_algebras()]
    for L in algebras:
        n = L.size
        for x in range(n):
            for y in range(x + 1, n):
                Q, proj = quotient(L, theta(L, x, y))
                assert [q[:2] for q in Q.ops] == [op[:2] for op in L.ops]
                tables = [(op.arity, op.table, q.table) for op, q in zip(L.ops, Q.ops)]
                tables.append((2, L.join, Q.join))
                for arity, table, qtable in tables:
                    if arity == 1:
                        for a in range(n):
                            assert proj[table[a]] == qtable[proj[a]]
                        continue
                    for a in range(n):
                        for b in range(n):
                            got = qtable[proj[a] * Q.size + proj[b]]
                            assert proj[table[a * n + b]] == got
                assert Q.top == proj[L.top]
                assert fin_algebra(Q.size, Q.ops, Q.join, Q.top) == Q


def test_quotient_theta_correspondence():
    # theta in the quotient equals the image of theta joined with the kernel
    L = corpus.n5()
    ker = theta(L, 1, 2)
    Q, proj = quotient(L, ker)
    for x in range(L.size):
        for y in range(L.size):
            lifted = part_join(theta(L, x, y), ker)
            image = theta(Q, proj[x], proj[y])
            pulled_back = conlat.congruence_from_blockof(
                [image.block_of[proj[e]] for e in range(L.size)]
            )
            assert lifted == pulled_back


# -- permutability ------------------------------------------------------------


def test_permutability():
    assert permutability(corpus.chain(1), 1)
    assert not permutability(corpus.chain(4), 1)
    assert permutability(corpus.chain(4), 15)
    with pytest.raises(ValueError):
        permutability(corpus.chain(2), 0)


def permutability_oracle(L, m):
    """permutability on partitions: each congruence as a set of pairs, each
    composition pair by pair, and the join by part_join."""
    cons = all_congruences(L).cons
    rel = {c: {(x, y) for x, y in itertools.product(range(L.size), repeat=2) if c.relates(x, y)}
           for c in cons}
    block = {c: [[z for z in range(L.size) if c.relates(y, z)] for y in range(L.size)] for c in cons}
    for a, b in itertools.product(cons, repeat=2):
        acc = rel[a]
        for idx in range(1, m + 1):
            step = block[b if idx % 2 else a]
            acc = {(x, z) for x, y in acc for z in step[y]}
        if acc != rel[part_join(a, b)]:
            return False
    return True


def test_permutability_matches_the_partition_oracle():
    algebras = corpus_and_products() + join_only_algebras() + unary_algebras()
    algebras += [("swapped-square", swapped_square())]
    algebras += [(f"bare{n}", bare_chain(n)) for n in (3, 4, 5)]
    verdicts = set()
    for name, L in algebras:
        for m in (1, 2, 3):
            verdict = permutability(L, m)
            assert verdict == permutability_oracle(L, m), (name, m)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_permutability_past_the_carrier_size():
    # The alternating compositions reach the join within n - 1 steps, so
    # m = 10**9 answers at once, as m = n and (the oracle) m = n + 1 do.
    algebras = list(corpus.bundled_corpus()) + join_only_algebras() + unary_algebras()
    algebras += [("noncommutative", noncommutative_algebra())]
    for name, L in algebras:
        start = time.perf_counter()
        verdict = permutability(L, 10**9)
        assert time.perf_counter() - start < 1, name
        assert verdict == permutability(L, L.size) == permutability_oracle(L, L.size + 1), name


def test_compatibility_of_the_principal_congruences_decides():
    # With the designated join not a basic operation, only the
    # join-irreducible congruences are tested; every congruence is a join of
    # them, and the principal ones, in pmask, are not read.
    all_congruences.cache_clear()
    algebras = [(f"bare{n}", bare_chain(n)) for n in range(1, 6)]
    algebras += [
        (f"{name}-meet", fin_algebra(L.size, [("meet", 2, L.ops[0].table)], L.join, top=L.top))
        for name, L in corpus.bundled_corpus()
        if L.size > 1
    ]
    verdicts = set()
    for name, L in algebras:
        assert L.join_name is None, name
        full = all(is_compatible(L, c, table=L.join) for c in L.con_index.cons)
        assert check_congruence_compatible(L) == full, name
        assert "pmask" not in vars(L.con_index), name
        verdicts.add(full)
    assert verdicts == {True, False}


def test_join_compatible_checks_each_join_irreducible_congruence_once(monkeypatch):
    # The congruences that are not the join of those strictly below them.
    checked = []
    monkeypatch.setattr(conlat, "is_compatible", lambda L, c, table: checked.append(c) or True)
    algebras = [bare_chain(n) for n in range(1, 6)] + [
        fin_algebra(L.size, [("meet", 2, L.ops[0].table)], L.join, top=L.top)
        for _, L in corpus.bundled_corpus()
    ]
    for L in algebras:
        checked.clear()
        assert L.join_compatible
        cons = L.con_index.cons
        below = [[d for d in cons if d != c and refines(d, c)] for c in cons]
        joins = [functools.reduce(part_join, b, identity_congruence(L.size)) for b in below]
        irreducible = [c.block_of for c, j in zip(cons, joins) if c != j]
        assert sorted(c.block_of for c in checked) == sorted(irreducible), format_algebra(L)


def test_readers_of_con_a_read_its_masks(monkeypatch):
    # Outside its construction, Con A is read through L.con_index: its
    # readers join no partitions, close no Θ and compare no partitions.
    L = corpus.product(corpus.chain(3), corpus.m3())
    bare = bare_chain(4)
    D = descent.fixture()
    for A in (L, bare, D.algebra):
        A.con_index
    join_only = fin_algebra(L.size, [("join", 2, L.join)], L.join, top=L.top)
    build = all_congruences.__wrapped__

    def forbidden(*args):
        raise AssertionError("a partition operation was called")

    # The closure path closes Θ and joins partitions, but its masks read
    # each join-irreducible's generating pair.
    assert build(join_only).jmask == all_congruences(join_only).jmask
    for name in ("part_join", "theta", "all_congruences"):
        monkeypatch.setattr(conlat, name, forbidden)
    for m in (1, 2, 3):
        permutability(L, m)
    assert not check_congruence_compatible(bare)
    assert descent.validate_instance(D).ok


# -- erosion ------------------------------------------------------------------


def test_erosion_three_chain_fixture():
    res = erosion(corpus.chain(3), 0, 0, (0, 1, 2))
    assert res.u0 == congruence_from_blocks(3, [(0, 1), (2,)])
    assert res.u1 == congruence_from_blocks(3, [(0,), (1, 2)])
    assert res.ok


def test_erosion_single_step_chain():
    # n = 1: the odd-indexed side is an empty join
    res = erosion(corpus.chain(2), 0, 1, (0, 1))
    assert res.u1 == identity_congruence(2)
    assert res.ok


def test_erosion_preconditions():
    L = corpus.chain(3)
    cases = [
        (L, 0, 0, (1,), "need at least two chain entries"),
        (L, 0, 0, (7,), "need at least two chain entries"),  # length is checked first
        (L, 3, 0, (0, 1, 2), "element out of range"),
        (L, 0, -1, (0, 1, 2), "element out of range"),
        (L, 0, 0, (-1, 1, 2), "element out of range"),
        (L, 0, 0, (0, 1, 3), "element out of range"),
        (bare_chain(3), 0, 0, (0, 1, 5), "element out of range"),  # range before compatibility
        (bare_chain(3), 0, 0, (0, 1, 2), "designated join not congruence-compatible"),
        (bare_chain(3), 0, 0, (2, 0), "designated join not congruence-compatible"),
        (L, 0, 0, (2, 0), "join of leading entries must lie below the last"),
        (L, 0, 0, (2, 0, 1), "join of leading entries must lie below the last"),
    ]
    for A, x0, x1, zs, text in cases:
        with pytest.raises(DomainError, match=f"^{text}$"):
            erosion(A, x0, x1, zs)


def test_erosion_works_without_top():
    ch = corpus.chain(3)
    topless = fin_algebra(3, ch.ops, ch.join, top=None)
    res = erosion(topless, 0, 0, (0, 1, 2))
    assert res.ok
    assert res.u0 == congruence_from_blocks(3, [(0, 1), (2,)])


def test_erosion_random_sample_postconditions():
    rng = random.Random("conlat:erosion")
    lattices = corpus.bundled_corpus()
    for _ in range(200):
        name, L = lattices[rng.randrange(len(lattices))]
        if L.size < 2:
            continue
        length = rng.randrange(2, 5)
        zs = rng.sample(range(L.size), min(length, L.size))
        if len(zs) < 2:
            continue
        prefix = L.join_all(zs[:-1])
        if not L.leq(prefix, zs[-1]):
            continue
        res = erosion(L, rng.randrange(L.size), rng.randrange(L.size), zs)
        assert res.ok, (name, zs)


def test_epsilon():
    assert epsilon(0) == 0
    assert epsilon(1) == 1
    assert epsilon(4) == 0


# -- corpus -------------------------------------------------------------------


def test_corpus_contents():
    entries = corpus.bundled_corpus()
    names = [name for name, _ in entries]
    assert len(entries) >= 20
    for required in ("chain1", "chain2", "chain3", "chain4", "chain5", "chain6",
                     "2x2", "2x3", "n5", "m3"):
        assert required in names
    for name, L in entries:
        assert L.size <= 6
        assert L.top is not None
        assert check_congruence_compatible(L)


# -- file format --------------------------------------------------------------


def test_algebra_format_roundtrip():
    for name, L in corpus.bundled_corpus():
        text = format_algebra(L)
        assert parse_algebra(text) == L
        assert hash(parse_algebra(text)) == hash(L)


def test_algebra_format_inline_join():
    text = "alg 2\njoin 0 1 1 1\ntop 1\n"
    L = parse_algebra(text)
    assert L.ops == ()
    assert L.join_of(0, 1) == 1
    assert parse_algebra(format_algebra(L)) == L


def test_algebra_format_errors():
    with pytest.raises(FormatError):
        parse_algebra("op f 2 0\n")  # missing header
    with pytest.raises(FormatError):
        parse_algebra("alg 2\n")  # missing join
    with pytest.raises(FormatError):
        parse_algebra("alg 2\njoin nosuch\n")
    with pytest.raises(FormatError):
        parse_algebra("alg 2\njoin 0 1 1 0\n")  # not idempotent
    with pytest.raises(FormatError):
        parse_algebra("alg 2\nfrobnicate\njoin 0 1 1 1\n")
    with pytest.raises(FormatError, match="at least one element"):
        parse_algebra("alg 0\njoin\n")
    # line numbers count comment and blank lines
    with pytest.raises(FormatError, match="^line 4: top takes 1 argument, got 0"):
        parse_algebra("alg 2\n\n# note\ntop\njoin 0 1 1 1\n")
    with pytest.raises(FormatError, match="^line 3: operation 'j' defined twice"):
        parse_algebra("alg 2\nop j 2 0 1 1 1\nop j 2 0 0 0 1\njoin j\n")
    with pytest.raises(FormatError, match="^line 2: unknown directive 'algx'"):
        parse_algebra("alg 2\nalgx 3\njoin 0 1 1 1\n")
    with pytest.raises(FormatError, match="^line 2: invalid literal"):
        parse_algebra("alg 2\nop j two 0 1 1 1\njoin j\n")
    # a single-valued directive may not be repeated
    with pytest.raises(FormatError, match="^line 2: alg defined twice, first on line 1"):
        parse_algebra("alg 3\nalg 2\njoin 0 1 1 1\n")
    with pytest.raises(FormatError, match="^line 4: top defined twice, first on line 3"):
        parse_algebra("alg 2\njoin 0 1 1 1\ntop 1\ntop 1\n")
    with pytest.raises(FormatError, match="^line 3: join defined twice, first on line 1"):
        parse_algebra("join 0 1 1 1\nalg 2\njoin 0 1 1 1\n")


def test_read_directives_returns_what_it_read():
    table = {
        "size": conlat.Directive(1, lambda a: int(a[0]), once=True),
        "cell": conlat.Directive(2, lambda a: (a[0], int(a[1])), label="cell {!r}".format),
        "note": conlat.Directive(None, " ".join),
    }
    found = conlat.read_directives(
        "note b a\ncell x 1\nsize 3\ncell y 2\nnote a\n# c\nnote\n", table
    )
    # once: the value; keyed: a dict; any other: the values in file order
    assert found == {"size": 3, "cell": {"x": 1, "y": 2}, "note": ["b a", "a", ""]}
    assert conlat.read_directives("", table) == {"size": None, "cell": {}, "note": []}
    with pytest.raises(FormatError, match="^line 3: size defined twice, first on line 1$"):
        conlat.read_directives("size 1\ncell x 1\nsize 1\n", table)
    with pytest.raises(FormatError, match="^line 2: cell 'x' defined twice$"):
        conlat.read_directives("cell x 1\ncell x 2\n", table)


def test_keyed_line_is_parsed_before_its_key_is_checked():
    # The repeated op line is also malformed after its key: the malformed
    # token is reported, not the repeat.
    with pytest.raises(FormatError, match="^line 3: invalid literal for int.*'x'$"):
        parse_algebra("alg 2\nop j 2 0 1 1 1\nop j 2 0 x\njoin j\n")


def test_algebra_format_comments_and_blank_lines():
    text = "# a two-chain\n\nalg 2   # carrier\n  join 0 1 1 1 # table\n\n"
    assert parse_algebra(text) == parse_algebra("alg 2\njoin 0 1 1 1\n")


def test_parse_semhom():
    dom = conc(corpus.chain(2)).table
    cod = "sem 2\njoin 0 1 1 1\nzero 0\n"
    # dom lists the full congruence first, so its zero is element 1
    mu = parse_semhom(cod + "map 0 1\nmap 1 0\n", dom.size, lambda: dom)
    assert mu.image == (1, 0)
    with pytest.raises(FormatError, match="^line 4: map takes 2 arguments, got 3"):
        parse_semhom(cod + "map 0 1 5\nmap 1 0\n", dom.size, lambda: dom)
    with pytest.raises(FormatError, match="^line 2: unknown directive 'joins'"):
        parse_semhom("sem 2\njoins 0 1 1 1\n", dom.size, lambda: dom)
    with pytest.raises(FormatError, match="sem/join/zero"):
        parse_semhom("sem 2\nmap 0 0\n", dom.size, lambda: dom)
    for first, again in enumerate(("sem 2", "join 0 1 1 1", "zero 0"), start=1):
        name = again.split()[0]
        message = f"^line 4: {name} defined twice, first on line {first}"
        with pytest.raises(FormatError, match=message):
            parse_semhom(cod + again + "\nmap 0 1\nmap 1 0\n", dom.size, lambda: dom)
    with pytest.raises(FormatError, match="^line 5: map 0 defined twice"):
        parse_semhom(cod + "map 0 1\nmap 0 0\nmap 1 0\n", dom.size, lambda: dom)


def test_join_closure():
    assert join_closure({1, 2, 4}, lambda a, b: a | b) == frozenset(range(1, 8))
    assert join_closure({3, 5}, max) == frozenset({3, 5})
    assert join_closure((), max) == frozenset()


def corpus_and_products():
    """(name, lattice) for the corpus and the con-large products."""
    named = dict(corpus.bundled_corpus())
    return list(named.items()) + [
        (f"{a}*{b}", corpus.product(named[a], named[b])) for a, b in PRODUCT_FACTORS
    ]


def oracle_algebras():
    """The corpus, the con-large products, the algebras with a unary or a
    non-commutative operation, and the bare algebras on 3-5 elements, whose
    congruences are all partitions (a lattice that is not distributive)."""
    return (
        corpus_and_products()
        + unary_algebras()
        + [("noncommutative", noncommutative_algebra())]
        + [(f"bare{n}", bare_chain(n)) for n in (3, 4, 5)]
    )


def principal_closure(L):
    """The reference for all_congruences: every join of principal
    congruences, adding one principal congruence g at a time.  A g already
    found is a join of earlier ones and adds nothing; finest first, so most
    of them are."""
    n = L.size
    gens = {theta(L, x, y) for x in range(n) for y in range(x, n)}
    found = {identity_congruence(n)}
    for g in sorted(gens, key=lambda c: -max(c.block_of)):
        if g not in found:
            found |= {part_join(c, g) for c in found}
    return tuple(sorted(found, key=lambda c: c.block_of))


def relabeled_products():
    """Three seeded relabelings of each con-large product: a lattice's
    partitions are numbered by its element labels."""
    rng = random.Random("conlat:oracle-relabelings")
    return [
        (f"{name}#{k}", relabeled(L, rng))
        for name, L in corpus_and_products()[-len(PRODUCT_FACTORS):]
        for k in range(3)
    ]


def test_all_congruences_matches_the_principal_closure():
    for name, L in oracle_algebras() + relabeled_products():
        assert all_congruences(L).cons == principal_closure(L), name
    bare = [len(all_congruences(bare_chain(n))) for n in (3, 4, 5)]
    assert bare == [5, 15, 52]
    assert not is_distributive(conc(bare_chain(3)).table)


def assert_conc_is_part_join(name, L, pairs=None):
    """conc's table entry (i, j) against part_join, on every ordered pair
    of indices or on those given."""
    res = conc(L)
    k = res.table.size
    index = {c: i for i, c in enumerate(res.congruences)}
    for i, j in pairs or itertools.product(range(k), repeat=2):
        c1, c2 = res.congruences[i], res.congruences[j]
        assert res.table.join[i * k + j] == index[part_join(c1, c2)], (name, i, j)


def test_conc_table_is_part_join_on_every_ordered_pair():
    for name, L in oracle_algebras() + relabeled_products():
        assert_conc_is_part_join(name, L)


def test_products_up_to_40_elements_match_their_factors():
    # Every product of two corpus lattices of at least 2 and at most 40
    # elements.  Closing Θ on every pair of the larger ones would take
    # seconds each, so Con L and every pmask entry are checked against the
    # factors' principal closures (Fraser-Horn), and conc's table against
    # part_join on a seeded sample of index pairs (chain6 x chain6 has 1,024
    # congruences).
    named = dict(corpus.bundled_corpus())
    rng = random.Random("conlat:products-40")
    products = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(named, 2)
        if min(named[a].size, named[b].size) > 1 and named[a].size * named[b].size <= 40
    ]
    assert len(products) == 210
    for a, b in products:
        L = corpus.product(named[a], named[b])
        assert_fraser_horn(f"{a}*{b}", L, (named[a], named[b]))
        k = len(L.con_index)
        pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(100)]
        assert_conc_is_part_join(f"{a}*{b}", L, pairs)


def test_listing_con_a_stops_past_the_limit(monkeypatch):
    # Both paths count what they have listed: a lattice its down-sets of
    # J(Con L), a closure the joins it has found.  Con of the 9-chain has
    # 256 congruences, with its meet or with its join alone.
    monkeypatch.setattr(conlat, "CONGRUENCE_LIMIT", 200)
    ch = corpus.chain(9)
    join_only = fin_algebra(9, [("join", 2, ch.join)], ch.join, top=8)
    all_congruences.cache_clear()
    for L in (ch, join_only):
        with pytest.raises(DomainError, match="^Con A has at least 256 congruences, more than 200$"):
            all_congruences(L)
    monkeypatch.setattr(conlat, "CONGRUENCE_LIMIT", 256)
    assert [len(all_congruences(L)) for L in (ch, join_only)] == [256, 256]


def test_conc_refuses_a_table_past_the_limit(monkeypatch):
    # conc counts its |Con A|² entries before it builds a row.  The limit is
    # chain(14)'s table, 2^13 congruences squared; chain(9)'s has 256².
    assert conlat.CONC_TABLE_LIMIT == len(all_congruences(corpus.chain(14))) ** 2
    L = corpus.chain(9)
    monkeypatch.setattr(conlat, "CONC_TABLE_LIMIT", 256**2 - 1)
    with pytest.raises(DomainError, match="^conc table has 65536 entries, more than 65535$"):
        conc(L)
    monkeypatch.setattr(conlat, "CONC_TABLE_LIMIT", 256**2)
    assert conc(L).table.size == 256


def test_conc_of_a_chain_is_boolean():
    # Con of an n-chain is 2^(n-1), its atoms the n - 1 covering pairs
    for n in (8, 9, 10):
        L = corpus.chain(n)
        assert conc(L).table.size == 2 ** (n - 1)
        con = L.con_index
        assert len({con.join(con.pmask[i * n + i + 1]) for i in range(n - 1)}) == n - 1


def test_congruences_of_a_product_are_pairs_of_congruences():
    # Fraser-Horn: Con(A x B) is Con A x Con B for lattices
    named = dict(corpus.bundled_corpus())
    for a, b in PRODUCT_FACTORS:
        A, B = named[a], named[b]
        count = len(all_congruences(corpus.product(A, B)))
        assert count == len(all_congruences(A)) * len(all_congruences(B)), (a, b)


# `slat con FILE conc` for the corpus and the con-large products, each
# under a "== name" header; recorded once, so any change to it must be
# made on purpose.
CONC_GOLDEN = Path(__file__).parent / "golden" / "conc_corpus.txt"


def test_conc_output_matches_golden(capsys, tmp_path):
    path = tmp_path / "lattice.alg"
    out = []
    for name, L in corpus_and_products():
        path.write_text(format_algebra(L))
        assert main(["con", str(path), "conc"]) == 0
        out.append(f"== {name}\n" + capsys.readouterr().out)
    assert "".join(out) == CONC_GOLDEN.read_text()


def test_conc_command_on_the_closure_path(capsys, tmp_path):
    # conc_corpus.txt holds lattices alone.  On the algebras whose Con A is
    # closed from Θ, the command, which reads L.con_index, prints the size,
    # zero and congruences of conc's table, and one Θ line for each pair.
    path = tmp_path / "algebra.alg"
    algebras = unary_algebras() + [("noncommutative", noncommutative_algebra())]
    algebras += join_only_algebras() + [("swapped-square", swapped_square())]
    algebras += [(f"bare{n}", bare_chain(n)) for n in range(1, 6)]
    for name, L in algebras:
        path.write_text(format_algebra(L))
        assert main(["con", str(path), "conc"]) == 0, name
        lines = capsys.readouterr().out.splitlines()
        res = conc(L)
        expected = [f"conc size={res.table.size} zero={res.table.zero}"]
        expected += [f"c{i} {c.serialize()}" for i, c in enumerate(res.congruences)]
        assert lines[: len(expected)] == expected, name
        assert len(lines) == len(expected) + L.size**2, name


# -- the congruence index and erosion against their partition oracles --------


def join_only_algebras():
    """Each corpus lattice with its join as the only basic operation.  More
    partitions are congruences, and Con A is not always distributive, so
    Congruences.join must find the least upper bound where a mask union is
    no congruence's mask."""
    return [
        (f"{name}-join", fin_algebra(L.size, [("join", 2, L.join)], L.join, top=L.top))
        for name, L in corpus.bundled_corpus()
    ]


def test_join_only_algebras_include_nondistributive_con():
    algebras = join_only_algebras()
    flat = [name for name, L in algebras if not is_distributive(conc(L).table)]
    assert len(algebras) == 21 and len(flat) == 15
    # Con A is a lattice of sets exactly when its masks are closed under
    # union, so a fresh Congruences misses on every algebra whose Con A is
    # not distributive, and on those alone.  Each union it misses on is
    # kept, beside the masks it was seeded with.
    square = [("swapped-square", swapped_square())]
    for name, L in corpus_and_products() + algebras + square:
        con = L.con_index
        table = Congruences(zip((c.block_of for c in con.cons), con.jmask))
        masks = set(con.jmask)
        unions = {ma | mb for ma in con.jmask for mb in con.jmask}
        assert is_distributive(conc(L).table) == (unions <= masks), name
        assert all(table[m] == con.join(m) for m in unions), name
        assert table.keys() - masks == unions - masks, name


def test_join_table_matches_the_scan():
    # Every union of two and of three masks, against the scan that looks up
    # no table.
    square = [("swapped-square", swapped_square())]
    for name, L in corpus_and_products() + join_only_algebras() + square:
        con = L.con_index
        unions = {ma | mb for ma in con.jmask for mb in con.jmask}
        unions |= {m | mc for m in unions for mc in con.jmask}
        for m in unions:
            assert con.join(m) == scan_join(con.jmask, m), (name, m)


def test_zero_is_the_element_below_every_element():
    two_atoms = fin_algebra(3, [], [0, 2, 2, 2, 1, 2, 2, 2, 2])  # no least element
    algebras = oracle_algebras() + join_only_algebras()
    algebras += [("swapped-square", swapped_square()), ("two-atoms", two_atoms)]
    for name, L in algebras:
        n = L.size
        neutral = [e for e in range(n) if all(L.join_of(e, x) == x for x in range(n))]
        assert L.zero == next(iter(neutral), None), name
        if L.zero is not None:
            assert L.join_all(()) == L.zero, name
    assert two_atoms.zero is None
    with pytest.raises(DomainError, match="^empty join with no zero element$"):
        two_atoms.join_all(())


def test_covers_are_the_covering_pairs():
    rng = random.Random("conlat:covers")
    algebras = corpus_and_products() + join_only_algebras() + unary_algebras()
    algebras += [("swapped-square", swapped_square())]
    algebras += [
        (f"{name}#{k}", relabeled(L, rng))
        for name, L in corpus_and_products()[-len(PRODUCT_FACTORS):]
        for k in range(3)
    ]
    for name, L in algebras:
        assert [(a, b) for a in range(L.size) for b in L.covers[a]] == covering_pairs(L), name


def covering_pairs(L):
    """The pairs (a, b) with a ≺ b in the order of L's designated join."""
    n = L.size
    below = [[a != b and L.leq(a, b) for b in range(n)] for a in range(n)]
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if below[a][b] and not any(below[a][c] and below[c][b] for c in range(n))
    ]


def relabeled(L, rng):
    """The lattice L with its elements renamed by a random permutation."""
    n = L.size
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for e, image in enumerate(perm):
        inv[image] = e

    def table(t):
        return [perm[t[inv[a] * n + inv[b]]] for a in range(n) for b in range(n)]

    ops = [(op.name, 2, table(op.table)) for op in L.ops]
    return fin_algebra(n, ops, table(L.join), None if L.top is None else perm[L.top])


def assert_pmask_is_theta(name, L, pairs):
    con = L.con_index
    for x, y in pairs:
        expected = con.jmask[con.cons.index(theta(L, x, y))]
        assert con.pmask[x * L.size + y] == expected, (name, x, y)


def swapped_square():
    """The square 0 < 1, 2 < 3 with its join and the unary swap 0↔1, 2↔3
    as basic operations.  Con A is N5: Θ(1, 3) v Θ(2, 3) = Θ(1, 2) is the
    full congruence, and J(Con A) has a member below it that lies below
    neither, so the union of their masks is no congruence's mask."""
    join = dict(corpus.bundled_corpus())["2x2"].join
    return fin_algebra(4, [("join", 2, join), ("swap", 1, (1, 0, 3, 2))], join, top=3)


def test_con_index_matches_the_partition_operations():
    square = [("swapped-square", swapped_square())]
    for name, L in corpus_and_products() + join_only_algebras() + square:
        # A copy built here reads con_index first, so all_congruences has
        # not been cleared since: another test may have done so after the
        # corpus lattices cached theirs.
        A = FinAlgebra(L.size, L.ops, L.join, L.top)
        con = A.con_index
        assert con is all_congruences(A)
        cons = con.cons
        assert len(con) == len(cons)
        for i, c1 in enumerate(cons):
            for k, c2 in enumerate(cons):
                m1, m2 = con.jmask[i], con.jmask[k]
                assert (m1 & m2 == m1) == refines(c1, c2), name
                assert cons[con.join(m1 | m2)] == part_join(c1, c2), name
                assert m1 & m2 == con.jmask[cons.index(part_meet(c1, c2))], name
        assert_pmask_is_theta(name, L, itertools.product(range(L.size), repeat=2))
    # The chain that fills pmask from the covers depends on the labels.
    rng = random.Random(12)
    for name, L in corpus_and_products()[-len(PRODUCT_FACTORS):]:
        for k in range(3):
            R = relabeled(L, rng)
            assert_pmask_is_theta(f"{name}#{k}", R, itertools.product(range(R.size), repeat=2))


def test_congruences_is_built_from_block_arrays_and_masks():
    # The constructor sorts the (block_of, mask) pairs itself, and reads
    # each pmask entry off them alone, whichever path listed them: a
    # lattice's, a closure over the covers' Θ (a basic join), or one over
    # every pair's Θ (no basic join).
    rng = random.Random("conlat:congruences")
    square = [("swapped-square", swapped_square())]
    bare = [(f"bare{n}", bare_chain(n)) for n in (3, 4, 5)]
    for name, L in corpus_and_products() + join_only_algebras() + square + bare:
        con = L.con_index
        pairs = [(c.block_of, m) for c, m in zip(con.cons, con.jmask)]
        rng.shuffle(pairs)
        new = Congruences(pairs)
        assert (new.cons, new.jmask) == (con.cons, con.jmask), name
        assert "pmask" not in vars(new), name
        for x, y in itertools.product(range(L.size), repeat=2):
            expected = new.jmask[new.cons.index(theta(L, x, y))]
            assert new.pmask[x * L.size + y] == expected, (name, x, y)


def test_cold_conc_leaves_pmask_unbuilt():
    # conc reads cons, jmask and join alone; pmask is filled on first read.
    all_congruences.cache_clear()
    rng = random.Random(33)
    for name, L in corpus_and_products()[-len(PRODUCT_FACTORS):]:
        R = relabeled(L, rng)
        conc(R)
        assert "pmask" not in vars(R.con_index), name
        assert_pmask_is_theta(name, R, itertools.product(range(R.size), repeat=2))


def join_irreducibles(L):
    """The elements of L with exactly one lower cover."""
    lower = [b for _, b in covering_pairs(L)]
    return [j for j in range(L.size) if lower.count(j) == 1]


def constant_op_chain(n):
    """chain(n) with its join and a constant binary operation: a join but
    no meet among the basic operations."""
    ch = corpus.chain(n)
    return fin_algebra(n, [("join", 2, ch.join), ("zero", 2, [0] * n * n)], ch.join, top=n - 1)


def test_meet_name():
    from slat.suite import brute_theta

    rng = random.Random("conlat:meet-name")
    lattices = corpus_and_products() + unary_algebras()
    lattices += [
        (f"{name}#{k}", relabeled(L, rng))
        for name, L in corpus_and_products()[-len(PRODUCT_FACTORS):]
        for k in range(2)
    ]
    assert len(lattices) == 21 + 7 + 2 + 14
    for name, L in lattices:
        assert L.meet_name == "meet", name
    # A lattice with a further operation closes the Θ of its covers.
    for name, L in unary_algebras():
        assert_pmask_is_theta(name, L, itertools.product(range(L.size), repeat=2))
    # A one-element join is its own meet.
    no_meet = [(name, L) for name, L in join_only_algebras() if L.size > 1]
    assert [L.meet_name for name, L in join_only_algebras() if L.size == 1] == ["join"]
    no_meet += [("swapped-square", swapped_square()), ("constant-op", constant_op_chain(4))]
    assert len(no_meet) == 20 + 2
    for name, L in no_meet:
        assert L.meet_name is None, name
        assert all_congruences(L).cons == principal_closure(L), name
        pairs = list(itertools.product(range(L.size), repeat=2))
        assert all(theta(L, x, y) == brute_theta(L, x, y) for x, y in pairs), name
        assert_pmask_is_theta(name, L, pairs)
    # A constant operation forces no pair, so Con is that of the join
    # alone: the partitions of the 4-chain into intervals.
    assert len(all_congruences(constant_op_chain(4))) == 8


def test_con_index_sweeps_theta_once():
    # Building Con A closes no Θ when the join and the meet are the only
    # basic operations; once for each unordered covering pair when the
    # join is one of them; once for each unordered pair otherwise; and
    # looks none of them up again.
    named = dict(corpus.bundled_corpus())
    L = corpus.product(named["chain3"], named["n5"])
    join_only = fin_algebra(L.size, [("join", 2, L.join)], L.join, top=L.top)
    bare = bare_chain(5)
    unary = unary_algebras()[0][1]
    for A, misses in (
        (L, 0),
        (join_only, len(covering_pairs(L))),
        (bare, 5 * 4 // 2),
        (unary, len(covering_pairs(unary))),
    ):
        theta.cache_clear()
        all_congruences.cache_clear()
        A.con_index
        assert theta.cache_info()[:2] == (0, misses)  # (hits, misses)
    assert (len(covering_pairs(L)), len(covering_pairs(unary))) == (25, 3)


def test_con_index_of_a_75_element_product():
    m3 = corpus.m3()
    P = corpus.product(corpus.product(m3, m3), corpus.chain(3))
    theta.cache_clear()
    part_join.cache_clear()
    all_congruences.cache_clear()
    assert len(all_congruences(P)) == 16  # Fraser-Horn: 2 * 2 * 4
    assert theta.cache_info()[:2] == (0, 0)  # (hits, misses)
    assert part_join.cache_info()[:2] == (0, 0)
    rng = random.Random(75)
    pairs = [(rng.randrange(P.size), rng.randrange(P.size)) for _ in range(200)]
    assert_pmask_is_theta("m3*m3*chain3", P, pairs)


def dependency_lattices():
    """The lattices whose only basic operations are their join and meet:
    those of oracle_algebras(), every other product of two corpus lattices
    of at least 2 and at most 24 elements, chain(7), chain(8), m3×n5,
    m3×m3×chain(3), and two lattices on which Freese's D is not transitive,
    so that Con L needs its transitive closure D*."""
    named = dict(corpus.bundled_corpus())
    pure = {"join", "meet"}
    out = [(name, L) for name, L in oracle_algebras() if {op.name for op in L.ops} == pure]
    out += [
        (f"{a}*{b}", corpus.product(named[a], named[b]))
        for a, b in itertools.combinations_with_replacement(named, 2)
        if (a, b) not in PRODUCT_FACTORS
        and min(named[a].size, named[b].size) > 1
        and named[a].size * named[b].size <= 24
    ]
    m3 = corpus.m3()
    out += [(f"chain{n}", corpus.chain(n)) for n in (7, 8)]
    out += [("m3*n5", corpus.product(m3, corpus.n5()))]
    out += [("m3*m3*chain3", corpus.product(corpus.product(m3, m3), corpus.chain(3)))]
    # 0 < 1, 2; 1 < 3, 4; 2 < 4, 5; 3, 4, 5 < 6, and an 8-element one with a
    # 3-element chain as Con L.
    seven = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6)]
    eight = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (4, 7), (5, 7), (6, 7)]
    out += [("D-seven", corpus.lattice_from_covers(7, seven))]
    out += [("D-eight", corpus.lattice_from_covers(8, eight))]
    return out


def downset_lattice(below):
    """The lattice of down-sets of the poset on 0..p-1 in which below[q] is
    the bitmask of the elements under q: each down-set is labelled by its
    place among the down-sets as increasing bitmasks, and D ≺ D ∪ {q} for
    each q minimal outside D."""
    p = len(below)
    downs = [d for d in range(1 << p) if all(below[q] & ~d == 0 for q in range(p) if d >> q & 1)]
    label = {d: i for i, d in enumerate(downs)}
    covers = [
        (label[d], label[d | 1 << q])
        for d in downs
        for q in range(p)
        if not d >> q & 1 and below[q] & ~d == 0
    ]
    return corpus.lattice_from_covers(len(downs), covers)


def test_con_of_a_downset_lattice_is_boolean():
    # Birkhoff: a finite distributive lattice is the down-set lattice of
    # its poset P of join-irreducibles, and Con L is Boolean with |P|
    # atoms, so J(Con L) is an antichain of |P| and its masks are every
    # subset of it.
    rng = random.Random("conlat:downset-lattices")
    sizes = set()
    for p in (4, 5, 5, 6, 6, 7):
        below = [0] * p
        for hi in range(p):
            for lo in range(hi):
                if rng.random() < 0.4:
                    below[hi] |= 1 << lo | below[lo]
        L = downset_lattice(below)
        sizes.add(L.size)
        assert sorted(L.con_index.jmask) == list(range(2**p)), below
    assert len(sizes) > 3, sizes


def product_congruence(parts):
    """The product of congruences of the factors of a lattice built by
    nesting corpus.product from the left, whose elements are the factor
    tuples in itertools.product order."""
    return congruence_from_blockof(itertools.product(*(c.block_of for c in parts)))


def assert_fraser_horn(name, L, factors):
    """Check Con L and every pmask entry of a product of lattices against
    its factors' (Fraser-Horn): Con L is every product θ × φ × ... of
    congruences of the factors, and Θ of two tuples is the product of
    the coordinates' Θ."""
    con = all_congruences(L)
    expected = map(product_congruence, itertools.product(*map(principal_closure, factors)))
    assert con.cons == tuple(sorted(expected, key=lambda c: c.block_of)), name
    mask = dict(zip(con.cons, con.jmask))
    coords = list(itertools.product(*(range(F.size) for F in factors)))
    for (x, cx), (y, cy) in itertools.product(enumerate(coords), repeat=2):
        thetas = [theta(F, a, b) for F, a, b in zip(factors, cx, cy)]
        assert con.pmask[x * L.size + y] == mask[product_congruence(thetas)], (name, x, y)


def test_dependency_relation_matches_the_principal_closure():
    # all_congruences reads Con L off Freese's dependency relation, with no
    # Θ closed: check the list, every pmask entry and the number of
    # J(Con L) (the classes of D*) against the closures of Θ.
    lattices = dependency_lattices()
    assert len(lattices) == 28 + 67 + 2 + 2 + 2
    m3 = corpus.m3()
    for name, L in lattices:
        con = all_congruences(L)
        if name == "m3*m3*chain3":
            # 75 elements: closing Θ on every pair would take seconds.
            assert_fraser_horn(name, L, (m3, m3, corpus.chain(3)))
            assert con.jmask[0].bit_count() == 1 + 1 + 2  # |J(Con)| of m3, m3 and chain(3)
            continue
        assert con.cons == principal_closure(L), name
        assert_pmask_is_theta(name, L, itertools.product(range(L.size), repeat=2))
        pairs = covering_pairs(L)
        star = {b: a for a, b in pairs}
        thetas = {theta(L, star[j], j) for j in join_irreducibles(L)}
        assert con.jmask[0].bit_count() == len(thetas), name
    # Con L of the last two: 5 congruences, and a 3-element chain.
    assert [len(all_congruences(L)) for _, L in lattices[-2:]] == [5, 3]


def erosion_oracle(L, x0, x1, zs):
    """erosion as it was computed on partitions, with part_join, part_meet,
    refines and conc_sub: the reference for the mask computation."""
    zs = list(zs)
    n = len(zs) - 1
    x = (x0, x1)
    ident = identity_congruence(L.size)
    v = []
    for i in range(n):
        p = L.join_of(zs[i], x[epsilon(i)])
        q = L.join_of(zs[i + 1], x[epsilon(i)])
        v.append(theta(L, p, q))
    u = []
    a = []
    for j in (0, 1):
        uj = ident
        aj = ident
        for i in range(n):
            if epsilon(i) == j:
                uj = part_join(uj, v[i])
                aj = part_join(aj, theta(L, zs[i], zs[i + 1]))
        u.append(uj)
        a.append(aj)
    lhs = L.join_of(L.join_of(zs[0], x0), x1)
    rhs = L.join_of(L.join_of(zs[n], x0), x1)
    congruent = part_join(u[0], u[1]).relates(lhs, rhs)
    bounded = tuple(
        refines(u[j], part_meet(a[j], theta(L, x[j], L.join_of(zs[n], x[j]))))
        for j in (0, 1)
    )
    member = tuple(
        u[j] in conlat.conc_sub(L, frozenset(L.join_of(x[j], z) for z in zs))
        for j in (0, 1)
    )
    return conlat.ErosionResult(u[0], u[1], congruent, bounded, member)


def checked_against_oracle(name, L, instances):
    """Assert erosion == erosion_oracle on every instance; return how many."""
    count = 0
    for x0, x1, zs in instances:
        assert erosion(L, x0, x1, zs) == erosion_oracle(L, x0, x1, zs), (name, x0, x1, zs)
        count += 1
    return count


def test_erosion_matches_oracle_on_small_corpus_lattices():
    from slat.suite import erosion_domain

    small = [(name, L) for name, L in corpus.bundled_corpus() if L.size <= 5]
    checked = sum(checked_against_oracle(name, L, erosion_domain(L)) for name, L in small)
    assert checked == 7016


def test_erosion_matches_oracle_on_join_only_algebras():
    from slat.suite import erosion_domain

    algebras = join_only_algebras()
    checked = sum(checked_against_oracle(name, L, erosion_domain(L)) for name, L in algebras)
    assert checked == 52808


def test_erosion_matches_oracle_on_six_element_lattices():
    from slat.suite import erosion_domain

    rng = random.Random("conlat:erosion-oracle:six")
    for name, L in corpus.bundled_corpus():
        if L.size == 6:
            sample = rng.sample(list(erosion_domain(L)), 1000)
            assert checked_against_oracle(name, L, sample) == 1000
