import functools
import itertools

import pytest

from slat import conlat, freepairs
from slat.conlat import FormatError
from slat.descent import (
    FIXTURE,
    MUTATIONS,
    Mutation,
    check_er,
    check_p,
    fixture,
    mutation_detected,
    parse_instance,
    validate_instance,
)

from helpers import refines


def s_of(D, X) -> frozenset:
    """Join-closure of the chain entries over the names in X."""
    gens = {
        D.z[r, i, xi]
        for r in range(D.m)
        for i in range(D.n + 1)
        for xi in X
    }
    return conlat.join_closure(gens, D.algebra.join_of)


def phi_from_instance(D, X) -> frozenset:
    """Union of supports of mu over all principal congruences of the
    join-subsemilattice generated by the chain entries over X."""
    S = sorted(s_of(D, X))
    out = set()
    for x in S:
        for y in S:
            out |= freepairs.support(D.mu_theta(x, y))
    return frozenset(out)


def test_fixture_validates():
    rep = validate_instance(fixture())
    assert rep.ok, rep.failed()
    names = [name for name, _, _ in rep.items]
    for expected in (
        "z-starts-at-t",
        "z-ends-at-top",
        "t-below-z",
        "mu-consistent-on-principals",
        "mu-join-homomorphism",
        "mu-zero",
        "decomposition-of-one",
        "chain-bounds",
        "mu-separates-zero",
    ):
        assert expected in names


def test_fixture_dimensions():
    D = fixture()
    assert D.m == 1
    assert D.n == 2
    assert D.omega == ("u",)
    assert D.t == (0,)
    assert D.u_set == ("u",)
    assert D.z[(0, 2, "u")] == 3


def test_mu_extension():
    D = fixture()
    assert D.mu_theta(0, 3) == freepairs.ONE
    assert D.mu_theta(1, 3) == freepairs.gen(1, "u")
    assert D.mu_hat(0) == freepairs.ZERO  # the identity congruence's mask


def test_instance_equality_ignores_the_mu_hat_memo():
    D, E = fixture(), fixture()
    assert D == E
    assert validate_instance(D).ok and D._mu_hat_memo and not E._mu_hat_memo
    assert D == E


def mu_hat_oracle(D, c):
    """mu extended by joins, on partitions: the join of the first listed
    value of each principal congruence that refines c."""
    mu = {}
    for x, y, value in D.mu_lines:
        mu.setdefault(conlat.theta(D.algebra, x, y), value)
    return freepairs.join_all(v for p, v in mu.items() if refines(p, c))


def test_mu_hat_on_masks_matches_the_partition_oracle():
    texts = [FIXTURE] + [mut.apply(FIXTURE) for mut in MUTATIONS]
    for text in texts:
        D = parse_instance(text)
        con = D.algebra.con_index
        for m, c in zip(con.jmask, con.cons):
            assert D.mu_hat(m) == mu_hat_oracle(D, c), (text, c)


def test_check_er():
    D = fixture()
    assert check_er(D, 0, 0, {"u"}, set())
    # empty joins on both sides: zero is not the top
    assert not check_er(D, 0, 0, set(), set())
    with pytest.raises(ValueError):
        check_er(D, 0, 0, {"u"}, {"u"})
    with pytest.raises(ValueError):
        check_er(D, 0, 5, {"u"}, set())


def test_er_and_p_do_not_build_con_l():
    D = fixture()
    assert check_er(D, 0, 0, {"u"}, set()) and check_p(D, 0, 0).ok
    assert "con_index" not in vars(D.algebra)


def test_check_p_consistency_with_er():
    D = fixture()
    for k in range(D.n):
        for l in range(2**k + 1):
            rep = check_p(D, k, l)
            size_x, size_y = 2**k - l, 2 * l
            expected = []
            for X in itertools.combinations(sorted(D.u_set), size_x):
                rest = [u for u in sorted(D.u_set) if u not in X]
                for Y in itertools.combinations(rest, size_y):
                    for r in range(D.m):
                        if not check_er(D, r, k, X, Y):
                            expected.append((r, X, Y))
            assert rep.failures == expected
            assert rep.ok == (not expected)


# M3 (0 below the atoms 1, 2, 3, all below 4) with two rows of chains over
# four names, n = 3: two distinct atoms join to the top, so P(k, l) both
# holds and fails on some of its instances.
WIDE_CHAINS = {
    (0, "u"): (0, 1, 1, 4), (0, "v"): (0, 2, 2, 4), (0, "w"): (0, 0, 3, 4), (0, "x"): (0, 1, 4, 4),
    (1, "u"): (1, 1, 1, 4), (1, "v"): (1, 1, 4, 4), (1, "w"): (1, 4, 4, 4), (1, "x"): (1, 1, 1, 4),
}
WIDE = "alg 5\njoin 0 1 2 3 4 1 1 4 4 4 2 4 2 4 4 3 4 4 3 4 4 4 4 4 4\ntop 4\nt 0 0\nt 1 1\n" + "".join(
    f"z {r} {i} {xi} {e}\n" for (r, xi), chain in WIDE_CHAINS.items() for i, e in enumerate(chain)
)


def test_check_p_over_several_names_matches_er_by_definition():
    D = parse_instance(WIDE)
    assert (D.m, D.n, D.u_set) == (2, 3, ("u", "v", "w", "x"))
    size, table = D.algebra.size, D.algebra.join

    def er(r, k, X, Y):
        # E_r(X, Y): the z[r][n-k] entries over X and the z[r][n-k-1] entries
        # over Y join to the top; the empty join is the bottom, 0.
        items = [D.z[(r, D.n - k, xi)] for xi in X]
        items += [D.z[(r, D.n - k - 1, eta)] for eta in Y]
        return functools.reduce(lambda a, b: table[a * size + b], items, 0) == 4

    outcomes = set()
    for k in range(D.n):
        for l in range(2**k + 1):
            size_x, size_y = 2**k - l, 2 * l
            instances, failures = 0, []
            for X in itertools.combinations(D.u_set, size_x):
                rest = [u for u in D.u_set if u not in X]
                for Y in itertools.combinations(rest, size_y):
                    for r in range(D.m):
                        instances += 1
                        if not er(r, k, X, Y):
                            failures.append((r, X, Y))
            rep = check_p(D, k, l)
            assert (rep.instances, rep.failures) == (instances, failures), (k, l)
            outcomes.add((instances > 0, not failures))
    assert outcomes == {(True, True), (True, False), (False, True)}


def test_check_p_bounds():
    D = fixture()
    with pytest.raises(ValueError):
        check_p(D, D.n, 0)
    with pytest.raises(ValueError):
        check_p(D, 0, 2)


def test_s_of_and_phi():
    D = fixture()
    assert s_of(D, ()) == frozenset()
    assert s_of(D, ("u",)) == frozenset((0, 1, 3))
    assert phi_from_instance(D, ()) == frozenset()
    assert phi_from_instance(D, ("u",)) == frozenset(("u",))


def test_phi_monotone_and_direct_enumeration():
    D = fixture()
    subsets = [(), ("u",)]
    for small in subsets:
        for big in subsets:
            if set(small) <= set(big):
                assert phi_from_instance(D, small) <= phi_from_instance(D, big)
    # direct recomputation
    S = sorted(s_of(D, ("u",)))
    con = D.algebra.con_index
    expected = set()
    for x in S:
        for y in S:
            mask = con.jmask[con.cons.index(conlat.theta(D.algebra, x, y))]
            expected |= freepairs.support(D.mu_hat(mask))
    assert phi_from_instance(D, ("u",)) == frozenset(expected)


def test_mutations_all_detected():
    assert len(MUTATIONS) >= 10
    for mut in MUTATIONS:
        assert mutation_detected(mut), mut.name


def test_mutation_targets_are_single_fault():
    for mut in MUTATIONS:
        assert FIXTURE.count(mut.old) == 1 or mut.old.endswith("\n")
    absent = Mutation("absent", "no such line", "", "validate")
    with pytest.raises(ValueError, match="^mutation absent: ambiguous target$"):
        absent.apply(FIXTURE)


def test_check_p_reports_witnessing_instance():
    by_name = {m.name: m for m in MUTATIONS}
    D = parse_instance(by_name["z-top-p-atom"].apply(FIXTURE))
    rep = check_p(D, 0, 0)
    assert not rep.ok
    assert rep.failures == [(0, ("u",), ())]


def test_specific_mutation_findings():
    by_name = {m.name: m for m in MUTATIONS}
    D = parse_instance(by_name["z-start-off-t"].apply(FIXTURE))
    rep = validate_instance(D)
    assert "z-starts-at-t" in rep.failed()
    D = parse_instance(by_name["mu-chain-bound"].apply(FIXTURE))
    rep = validate_instance(D)
    assert "chain-bounds" in rep.failed()
    assert "mu-join-homomorphism" not in rep.failed()
    D = parse_instance(by_name["mu-pair-conflict"].apply(FIXTURE))
    rep = validate_instance(D)
    assert "mu-consistent-on-principals" in rep.failed()
    D = parse_instance(by_name["mu-kills-zero-separation"].apply(FIXTURE))
    rep = validate_instance(D)
    assert "mu-separates-zero" in rep.failed()
    D = parse_instance(by_name["top-line-dropped"].apply(FIXTURE))
    rep = validate_instance(D)
    assert "algebra-has-top" in rep.failed()


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_instance("alg 2\njoin 0 1 1 1\nz 0 0 u 0\n")  # no t lines
    with pytest.raises(FormatError):
        parse_instance("alg 2\njoin 0 1 1 1\nt 0 0\n")  # no z lines
    with pytest.raises(FormatError):
        parse_instance(FIXTURE + "U v\n")  # U outside omega
    with pytest.raises(FormatError):
        parse_instance(FIXTURE + "bogus 1\n")

    # instance and algebra directives report their own line of the file
    with pytest.raises(FormatError, match="^line 17: operation 'vee' defined twice"):
        parse_instance(FIXTURE + "op vee 2 0 1 2 3 1 1 3 3 2 3 2 3 3 3 3 3\n")
    with pytest.raises(FormatError, match="^line 17: z takes 4 arguments, got 5"):
        parse_instance(FIXTURE + "z 0 0 u 0 9\n")
    # a repeated U line or t/z key is an error, not a silent override
    with pytest.raises(FormatError, match="^line 17: U defined twice, first on line 16"):
        parse_instance(FIXTURE + "U u\n")
    with pytest.raises(FormatError, match="^line 17: t 0 defined twice"):
        parse_instance(FIXTURE + "t 0 0\n")
    with pytest.raises(FormatError, match="^line 17: z 0 2 u defined twice"):
        parse_instance(FIXTURE + "z 0 2 u 1\n")
