"""Acceptance criteria, one test per criterion at its stated bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria with runtime budgets assert them.
"""

import itertools
import random
import subprocess
import sys
import time

from slat import conlat, corpus, descent, expr, freedist, freepairs, freeset, suite
from slat.freepairs import BASE, Outcome

CFG = suite.SuiteConfig(seed=0, cases=1000, max_rank=2, omega_size=4)
NAMES = CFG.names()


def report(number, name, ok, detail="", elapsed=None):
    # Wall times go to stderr, so the ACCEPTANCE lines repeat byte for byte.
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    if elapsed is not None:
        print(f"elapsed {number:02d} {name}: {elapsed:.1f}s", file=sys.stderr)
    assert ok, f"criterion {number} {name}: {detail}"


def sampled_triples(count):
    out = []
    for idx in range(count):
        rng = random.Random(f"acceptance:triples:{idx}")
        out.append(freepairs.random_triple(rng, NAMES, 2))
    return out


def test_c01_defining_relations():
    start = time.monotonic()
    triples = sampled_triples(1000)
    bad = 0
    for a, b, c in triples:
        x = freepairs.bowtie(a, b, c)
        y = freepairs.bowtie(b, a, c)
        if freepairs.join(x, y) != c or not freepairs.leq(x, a):
            bad += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "defining-relations",
        bad == 0 and elapsed <= 60.0,
        f"1000 triples, {bad} failures",
        elapsed,
    )


def test_c02_least_upper_bound():
    failures = 0
    for idx, (a, b, c) in enumerate(sampled_triples(1000)):
        rng = random.Random(f"acceptance:lub:{idx}")
        x = freepairs.bowtie(a, b, c)
        y = freepairs.bowtie(b, a, c)
        w = freepairs.join(x, y)
        noise = freepairs.random_elem(rng, NAMES, 2)
        z = freepairs.join(w, noise)
        ok = (
            freepairs.leq(x, w)
            and freepairs.leq(y, w)
            and freepairs.leq(w, z)
            and freepairs.join(x, y) == freepairs.join(y, x)
            and freepairs.join(x, x) == x
            and freepairs.join(x, freepairs.ZERO) == x
            and freepairs.join(freepairs.join(x, y), noise)
            == freepairs.join(x, freepairs.join(y, noise))
        )
        if not ok:
            failures += 1
    report(2, "least-upper-bound", failures == 0, f"1000 samples, {failures} failures")


def test_c03_confluence():
    failures = 0
    for idx in range(100):
        rng = random.Random(f"acceptance:confluence:{idx}")
        x = freepairs.random_elem(rng, NAMES, 2)
        y = freepairs.random_elem(rng, NAMES, 2)
        want = freepairs.serialize(freepairs.join(x, y))
        for k in range(10):
            order = random.Random(f"acceptance:confluence-order:{idx}:{k}")
            got = freepairs.serialize(
                freedist.join_with_order(BASE, x, y, order)
            )
            if got != want:
                failures += 1
    report(3, "confluence", failures == 0, f"100 instances x 10 orders, {failures} mismatches")


def test_c04_cancellation_sweep():
    sweep = freepairs.cancellation_sweep(NAMES[0], NAMES[1], max_triples=2)
    randomized = 0
    counterexamples = len(sweep.counterexamples)
    for idx in range(200):
        rng = random.Random(f"acceptance:lemma44:{idx}")
        i = rng.randrange(2)
        live = tuple(n for n in NAMES if n != NAMES[1])
        y = freepairs.random_elem(rng, live, 2)
        if rng.random() < 0.5:
            x = freepairs.random_below(rng, y, 2, live)
        else:
            bound = freepairs.join(y, freepairs.gen(i, NAMES[1]))
            x = freepairs.random_below(rng, bound, 2, NAMES)
            if NAMES[1] in freepairs.support(x):
                x = freepairs.retract(NAMES[1], i, x)
        verdict = freepairs.check_cancellation(NAMES[1], i, x, y)
        if verdict.outcome is Outcome.COUNTEREXAMPLE:
            counterexamples += 1
        elif verdict.outcome is Outcome.HOLDS:
            randomized += 1
    ok = counterexamples == 0 and sweep.substantive >= 50 and randomized >= 200
    report(
        4,
        "cancellation-sweep",
        ok,
        f"exhaustive={sweep.checked} substantive={sweep.substantive} "
        f"randomized={randomized} counterexamples={counterexamples}",
    )


def test_c05_evaporation_sweep():
    start = time.monotonic()
    sweep = freepairs.evaporation_sweep(NAMES[0], NAMES[1], NAMES[2])
    elapsed = time.monotonic() - start
    ok = (
        sweep.ok
        and sweep.notes["nonzero_pairs"] >= 1
        and sweep.notes["cross_bad"] == 0
        and elapsed <= 300.0
    )
    report(
        5,
        "evaporation-sweep",
        ok,
        f"checked={sweep.checked} nonzero_pairs={sweep.notes['nonzero_pairs']} "
        f"counterexamples={len(sweep.counterexamples)}",
        elapsed,
    )


def test_c06_erosion_sweep():
    lattices = corpus.bundled_corpus()
    names = [name for name, _ in lattices]
    assert len(lattices) >= 20
    for required in ("chain1", "chain2", "chain3", "chain4", "chain5",
                     "chain6", "2x2", "2x3", "n5", "m3"):
        assert required in names
    checked = failures = 0
    for _, L in lattices:
        assert L.size <= 6
        for x0, x1, zs in suite.erosion_domain(L, max_len=4):
            res = conlat.erosion(L, x0, x1, zs)
            checked += 1
            if not res.ok:
                failures += 1
    res = conlat.erosion(corpus.chain(3), 0, 0, (0, 1, 2))
    fixture_ok = (
        res.u0 == conlat.congruence_from_blocks(3, [(0, 1), (2,)])
        and res.u1 == conlat.congruence_from_blocks(3, [(0,), (1, 2)])
        and res.ok
    )
    report(
        6,
        "erosion-sweep",
        failures == 0 and fixture_ok,
        f"{len(lattices)} lattices, {checked} instances, {failures} failures, "
        f"fixture={'ok' if fixture_ok else 'bad'}",
    )


def test_c07_funayama():
    bad = [
        name
        for name, L in corpus.bundled_corpus()
        if not conlat.is_distributive(conlat.conc(L).table)
    ]
    report(7, "congruence-distributivity", not bad, f"bad={bad or 'none'}")


def test_c08_functoriality():
    failures = 0
    for idx in range(500):
        rng = random.Random(f"acceptance:functor:{idx}")
        fmap = {n: rng.choice(NAMES) for n in NAMES}
        gmap = {n: rng.choice(NAMES) for n in NAMES}
        f = lambda n: fmap[n]
        g = lambda n: gmap[n]
        x = freepairs.random_elem(rng, NAMES, 2)
        ok = freepairs.map_names(lambda n: n, x) == x
        ok = ok and freepairs.map_names(
            lambda n: g(f(n)), x
        ) == freepairs.map_names(g, freepairs.map_names(f, x))
        a, b, c = freepairs.random_triple(rng, NAMES, 1)
        ok = ok and freepairs.map_names(f, freepairs.bowtie(a, b, c)) == freepairs.bowtie(
            freepairs.map_names(f, a),
            freepairs.map_names(f, b),
            freepairs.map_names(f, c),
        )
        if not ok:
            failures += 1
    report(8, "functoriality", failures == 0, f"500 samples, {failures} failures")


def test_c09_oracles():
    theta_bad = 0
    pairs_checked = 0
    for _, L in corpus.bundled_corpus():
        for x in range(L.size):
            for y in range(L.size):
                pairs_checked += 1
                if conlat.theta(L, x, y) != suite.brute_theta(L, x, y):
                    theta_bad += 1
    wd_bad = 0
    homs_checked = 0
    tables = suite._small_semilattices()
    for _, dom in tables:
        for _, cod in tables:
            for mu in conlat.all_sem_homs(dom, cod):
                homs_checked += 1
                for x in range(dom.size):
                    if conlat.weakly_distributive_at(mu, x) != suite.wd_at_oracle(mu, x):
                        wd_bad += 1
    report(
        9,
        "oracle-agreement",
        theta_bad == 0 and wd_bad == 0,
        f"theta pairs={pairs_checked} bad={theta_bad}; "
        f"wd homs={homs_checked} bad={wd_bad}",
    )


def test_c10_kuratowski():
    failures = 0
    checked = 0
    for size in range(1, 7):
        ground = tuple(str(i) for i in range(size))
        for n in range(0, min(2, size - 1) + 1):
            for trial in range(25):
                rng = random.Random(f"acceptance:kur:{size}:{n}:{trial}")
                images = {
                    frozenset(c): frozenset(g for g in ground if rng.random() < 0.4)
                    for c in itertools.combinations(ground, n)
                }
                phi = freeset.PhiMap(ground, n, images)
                first = None
                for combo in itertools.combinations(ground, n + 1):
                    checked += 1
                    mine = freeset.is_free(combo, phi)
                    if mine != suite.free_oracle(combo, phi):
                        failures += 1
                    if mine and first is None:
                        first = combo
                if freeset.find_free(phi) != first:
                    failures += 1
    no_free, singleton = suite.kuratowski_fixtures()
    fixtures_ok = (
        freeset.find_free(no_free) is None
        and freeset.find_free(singleton) == ("0", "1")
    )
    report(
        10,
        "kuratowski-free-sets",
        failures == 0 and fixtures_ok,
        f"checked={checked} failures={failures} fixtures={'ok' if fixtures_ok else 'bad'}",
    )


def test_c11_mutation_detection():
    base = descent.fixture()
    clean = (
        descent.validate_instance(base).ok
        and descent.check_er(base, 0, 0, {"u"}, set())
        and descent.check_p(base, 0, 0).ok
    )
    missed = [m.name for m in descent.MUTATIONS if not descent.mutation_detected(m)]
    by_detector = {}
    for m in descent.MUTATIONS:
        by_detector.setdefault(m.detector, []).append(m.name)
    ok = (
        clean
        and not missed
        and len(descent.MUTATIONS) >= 10
        and all(k in by_detector for k in ("validate", "er", "p"))
    )
    report(
        11,
        "mutation-detection",
        ok,
        f"{len(descent.MUTATIONS)} mutations "
        f"(validate={len(by_detector.get('validate', ()))}, "
        f"er={len(by_detector.get('er', ()))}, p={len(by_detector.get('p', ()))}), "
        f"missed={missed or 'none'}",
    )


def test_c12_cli_roundtrip_and_determinism():
    failures = 0
    for idx in range(1000):
        rng = random.Random(f"acceptance:roundtrip:{idx}")
        v = freepairs.random_elem(rng, NAMES, 2)
        text = expr.serialize(v)
        if expr.deserialize(text) != v or expr.serialize(expr.deserialize(text)) != text:
            failures += 1
    cmd = [
        sys.executable, "-m", "slat.cli", "suite", "--seed", "13",
        "--cases", "60",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    deterministic = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    report(
        12,
        "cli-roundtrip-determinism",
        failures == 0 and deterministic,
        f"1000 roundtrips, {failures} failures; fixed-seed suite "
        f"{'byte-identical' if deterministic else 'DIVERGED'}",
    )
