import itertools

import pytest

from slat import conlat, freepairs
from slat.conlat import FormatError
from slat.descent import (
    FIXTURE,
    MUTATIONS,
    check_er,
    check_p,
    fixture,
    format_instance,
    mutation_detected,
    parse_instance,
    phi_from_instance,
    s_of,
    validate_instance,
)


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


def test_mu_extension():
    D = fixture()
    assert D.mu_theta(0, 3) == freepairs.ONE
    assert D.mu_theta(1, 3) == freepairs.gen(1, "u")
    assert D.mu_hat(conlat.identity_congruence(4)) == freepairs.ZERO


def test_check_er():
    D = fixture()
    assert check_er(D, 0, 0, {"u"}, set())
    # empty joins on both sides: zero is not the top
    assert not check_er(D, 0, 0, set(), set())
    with pytest.raises(ValueError):
        check_er(D, 0, 0, {"u"}, {"u"})
    with pytest.raises(ValueError):
        check_er(D, 0, 5, {"u"}, set())


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
    expected = set()
    for x in S:
        for y in S:
            expected |= freepairs.support(
                D.mu_hat(conlat.theta(D.algebra, x, y))
            )
    assert phi_from_instance(D, ("u",)) == frozenset(expected)


def test_mutations_all_detected():
    assert len(MUTATIONS) >= 10
    for mut in MUTATIONS:
        assert mutation_detected(mut), mut.name


def test_mutation_targets_are_single_fault():
    for mut in MUTATIONS:
        assert FIXTURE.count(mut.old) == 1 or mut.old.endswith("\n")


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


def test_format_roundtrip():
    D = fixture()
    again = parse_instance(format_instance(D))
    assert again.algebra == D.algebra
    assert again.t == D.t
    assert again.z == D.z
    assert again.mu == D.mu
    assert again.u_set == D.u_set


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
