"""Each shared property check reports a failure on a violating input.

The suites and the acceptance tests call the same checks, so a check
that always passed would pass both.  Every test here breaks the one
operation a check depends on (by monkeypatching it for the test only)
and asserts that the check reports the failure.  No patched operation
feeds a memo table, so later tests see only real results.
"""

import random

from slat import conlat, corpus, descent, expr, freedist, freepairs, freeset, suite
from slat.freepairs import Outcome, SweepReport, Verdict

NAMES = ("x0", "x1", "x2", "x3")
A0X = freepairs.gen(0, "x")
A0Y = freepairs.gen(0, "y")


def test_relations(monkeypatch):
    c = freepairs.join(A0X, A0Y)
    assert suite.relations(A0X, A0Y, c)
    # c is not bowtie(a, b, c) v bowtie(b, a, c) once bowtie gives 0
    monkeypatch.setattr(freepairs, "bowtie", lambda a, b, c: freepairs.ZERO)
    assert not suite.relations(A0X, A0Y, c)


def test_lub(monkeypatch):
    assert suite.lub(A0X, A0Y, freepairs.ZERO)
    monkeypatch.setattr(freepairs, "join", lambda x, y: y)  # not commutative
    assert not suite.lub(A0X, A0Y, freepairs.ZERO)


def test_confluence(monkeypatch):
    rngs = [random.Random(k) for k in range(3)]
    assert suite.confluence(A0X, A0Y, rngs) == 0
    monkeypatch.setattr(freedist, "join_with_order", lambda base, x, y, rng: x)
    assert suite.confluence(A0X, A0Y, rngs) == 3


def test_functoriality(monkeypatch):
    rngs = [random.Random(k) for k in range(10)]
    assert all(suite.functoriality(rng, NAMES, 2) for rng in rngs)
    monkeypatch.setattr(freepairs, "map_names", lambda f, x: freepairs.ONE)
    rngs = [random.Random(k) for k in range(10)]
    assert not all(suite.functoriality(rng, NAMES, 2) for rng in rngs)


def test_lemma44(monkeypatch):
    broken_sweep = SweepReport(name="cancellation", counterexamples=[(0, "x", "y")])
    monkeypatch.setattr(freepairs, "cancellation_sweep", lambda *args, **kw: broken_sweep)
    rngs = (random.Random(k) for k in range(5))
    _, holds, counterexamples = suite.lemma44(NAMES, 2, rngs)
    assert counterexamples == 1 and holds > 0
    monkeypatch.setattr(
        freepairs, "check_cancellation", lambda *args: Verdict(Outcome.COUNTEREXAMPLE)
    )
    rngs = (random.Random(k) for k in range(5))
    _, holds, counterexamples = suite.lemma44(NAMES, 2, rngs)
    assert counterexamples == 6 and holds == 0


def test_evaporation(monkeypatch):
    report = SweepReport(name="evaporation", notes={"nonzero_pairs": 0})
    monkeypatch.setattr(freepairs, "evaporation_sweep", lambda *args, seed: report)
    assert suite.evaporation(NAMES) == (report, False)  # vacuous
    report.notes["nonzero_pairs"] = 4
    assert suite.evaporation(NAMES) == (report, True)
    report.counterexamples.append(("x", "y", "z"))
    assert suite.evaporation(NAMES) == (report, False)


def test_erosion(monkeypatch):
    lattices = [("chain2", corpus.chain(2))]
    checked, failures, fixture_ok = suite.erosion(lattices)
    assert checked > 0 and failures == 0 and fixture_ok
    real = conlat.erosion
    monkeypatch.setattr(
        conlat, "erosion", lambda *args: real(*args)._replace(congruent=False)
    )
    assert suite.erosion(lattices) == (checked, checked, False)


def test_funayama(monkeypatch):
    lattices = [("m3", corpus.m3())]
    assert suite.funayama(lattices) == []
    m3 = corpus.m3()
    not_distributive = conlat.semilattice(m3.size, m3.join, 0)
    assert not conlat.is_distributive(not_distributive)
    monkeypatch.setattr(
        conlat, "conc", lambda L: conlat.ConcResult(not_distributive, ())
    )
    assert suite.funayama(lattices) == ["m3"]


def test_oracles(monkeypatch):
    lattices = [("chain2", corpus.chain(2))]
    pairs, theta_bad, homs, points, wd_bad = suite.oracles(lattices)
    assert (pairs, theta_bad, wd_bad) == (4, 0, 0) and homs > 0 and points > 0
    # theta is checked on lattices of at most 6 elements only
    assert suite.oracles([("chain7", corpus.chain(7))])[:2] == (0, 0)
    # a wrong theta: every principal congruence is the identity
    monkeypatch.setattr(
        conlat, "theta", lambda L, x, y: conlat.identity_congruence(L.size)
    )
    real_wd = conlat.weakly_distributive_at
    monkeypatch.setattr(conlat, "weakly_distributive_at", lambda mu, x: not real_wd(mu, x))
    assert suite.oracles(lattices) == (4, 2, homs, points, points)


def test_kuratowski(monkeypatch):
    rng_for = lambda size, n, trial: random.Random(f"{size}:{n}:{trial}")
    checked, failures, fixture_failures = suite.kuratowski(2, rng_for)
    assert checked > 0 and failures == 0 and fixture_failures == 0
    monkeypatch.setattr(freeset, "is_free", lambda U, phi: True)
    checked, failures, fixture_failures = suite.kuratowski(2, rng_for)
    assert failures > 0 and fixture_failures == 1


def test_mutations(monkeypatch):
    clean, missed, caught = suite.mutations()
    assert clean and not missed
    monkeypatch.setattr(descent, "validate_instance", lambda D: descent.Report())
    clean, missed, caught = suite.mutations()
    validators = [m.name for m in descent.MUTATIONS if m.detector == "validate"]
    assert clean and missed == validators and caught["validate"] == 0


def test_roundtrip(monkeypatch):
    assert suite.roundtrip(A0X)
    monkeypatch.setattr(expr, "deserialize", lambda text: freepairs.ZERO)
    assert not suite.roundtrip(A0X)
