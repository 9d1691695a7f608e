import functools
import random

import pytest

from slat import conlat, corpus
from slat.conlat import (
    FormatError,
    all_partitions,
    check_congruence_compatible,
    conc,
    congruence_from_blocks,
    epsilon,
    erosion,
    fin_algebra,
    full_congruence,
    identity_congruence,
    is_compatible,
    is_distributive,
    parse_algebra,
    format_algebra,
    part_join,
    part_meet,
    permutability,
    quotient,
    refines,
    sem_hom,
    semilattice,
    theta,
    theta_plus,
    weakly_distributive_at,
)
from slat.freedist import DomainError


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


def test_partition_lattice_ops():
    a = congruence_from_blocks(3, [(0, 1), (2,)])
    b = congruence_from_blocks(3, [(0,), (1, 2)])
    assert part_join(a, b) == full_congruence(3)
    assert part_meet(a, b) == identity_congruence(3)
    assert refines(identity_congruence(3), a)
    assert not refines(a, b)


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
    assert theta(L, 0, 1) == full_congruence(2)


def test_theta_n5_frozen():
    # 0 < a=1 < c=2 < 4, 0 < b=3 < 4
    L = corpus.n5()
    assert theta(L, 1, 2) == congruence_from_blocks(
        5, [(0,), (1, 2), (3,), (4,)]
    )


def test_theta_matches_brute_force():
    from slat.suite import brute_theta

    for L in (corpus.n5(), corpus.m3(), corpus.chain(4)):
        for x in range(L.size):
            for y in range(L.size):
                assert theta(L, x, y) == brute_theta(L, x, y)


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


def test_theta_plus():
    L = corpus.chain(3)
    assert theta_plus(L, 0, 2) == identity_congruence(3)  # x <= y
    L2 = corpus.chain(2)
    assert theta_plus(L2, 1, 0) == theta(L2, 0, 1)


def test_theta_plus_triangle_inequality():
    for name in ("n5", "m3", "2x3", "hexagon"):
        L = dict(corpus.bundled_corpus())[name]
        for x in range(L.size):
            for y in range(L.size):
                for z in range(L.size):
                    lhs = theta_plus(L, x, z)
                    rhs = part_join(theta_plus(L, x, y), theta_plus(L, y, z))
                    assert refines(lhs, rhs)


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


def test_cached_compatibility_still_rejects():
    L = bare_chain(3)
    check_congruence_compatible.cache_clear()
    for _ in range(2):
        assert not check_congruence_compatible(L)
        with pytest.raises(DomainError, match="congruence-compatible"):
            erosion(L, 0, 0, (0, 1, 2))
    assert check_congruence_compatible.cache_info().hits >= 3


def test_is_compatible_specific():
    L = bare_chain(3)
    skip_mid = congruence_from_blocks(3, [(0, 2), (1,)])
    assert not is_compatible(L, skip_mid, table=L.join, arity=2)


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


def test_semilattice_validation():
    with pytest.raises(ValueError):
        semilattice(2, [0, 1, 1, 0], 0)  # not idempotent at 1
    with pytest.raises(ValueError):
        semilattice(2, [1, 1, 1, 1], 0)  # zero not neutral


def test_sem_hom_validation():
    two = semilattice(2, [0, 1, 1, 1], 0)
    m3 = m3_semilattice()
    mu = sem_hom(two, m3, [0, 4])
    assert mu.image == (0, 4)
    with pytest.raises(ValueError):
        sem_hom(two, m3, [1, 4])  # zero not preserved


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
    assert not conlat.is_weakly_distributive(mu)


def test_weak_distributivity_oracle_agreement():
    from slat.suite import wd_at_oracle

    two = semilattice(2, [0, 1, 1, 1], 0)
    sq = corpus.product(corpus.chain(2), corpus.chain(2))
    sq_s = semilattice(4, sq.join, 0)
    for dom in (two, sq_s):
        for cod in (two, sq_s, m3_semilattice()):
            for mu in conlat.all_sem_homs(dom, cod):
                for x in range(dom.size):
                    assert weakly_distributive_at(mu, x) == wd_at_oracle(mu, x)


# -- quotients ----------------------------------------------------------------


def test_quotient_identity_and_full():
    L = corpus.n5()
    Q, proj = quotient(L, identity_congruence(5))
    assert Q.size == 5 and proj == (0, 1, 2, 3, 4)
    Q, proj = quotient(L, full_congruence(5))
    assert Q.size == 1


def test_quotient_n5_collapse():
    L = corpus.n5()
    Q, proj = quotient(L, theta(L, 1, 2))
    assert Q.size == 4
    assert Q.top == proj[4]


def test_quotient_rejects_incompatible():
    L = corpus.n5()
    bad = congruence_from_blocks(5, [(0, 1), (2,), (3,), (4,)])
    with pytest.raises(DomainError):
        quotient(L, bad)


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
    with pytest.raises(DomainError):
        erosion(L, 0, 0, (2, 0))  # leading join not below the last entry... 2 <= 0 fails
    with pytest.raises(DomainError):
        erosion(L, 0, 0, (1,))  # too short
    with pytest.raises(DomainError):
        erosion(bare_chain(3), 0, 0, (0, 1, 2))  # incompatible designated join


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
