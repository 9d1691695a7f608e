"""Acceptance criteria, one test per criterion at its stated bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria with runtime budgets assert them.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

from slat import corpus, descent, freepairs, suite

CFG = suite.SuiteConfig(seed=0, cases=1000, max_rank=2, omega_size=4)
NAMES = CFG.names()
# stdout of `slat suite --seed 13 --cases 60`, recorded once; any change to
# it is a change of the suites' output and must be made on purpose.
SUITE_GOLDEN = Path(__file__).parent / "golden" / "suite_seed13_cases60.txt"


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
    bad = sum(not suite.relations(a, b, c) for a, b, c in sampled_triples(1000))
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
        failures += not suite.lub(x, y, freepairs.random_elem(rng, NAMES, 2))
    report(2, "least-upper-bound", failures == 0, f"1000 samples, {failures} failures")


def test_c03_confluence():
    failures = 0
    for idx in range(100):
        rng = random.Random(f"acceptance:confluence:{idx}")
        x = freepairs.random_elem(rng, NAMES, 2)
        y = freepairs.random_elem(rng, NAMES, 2)
        failures += suite.confluence(
            x,
            y,
            (random.Random(f"acceptance:confluence-order:{idx}:{k}") for k in range(10)),
        )
    report(3, "confluence", failures == 0, f"100 instances x 10 orders, {failures} mismatches")


def test_c04_cancellation_sweep():
    sweep, randomized, counterexamples = suite.lemma44(
        NAMES, 2, (random.Random(f"acceptance:lemma44:{idx}") for idx in range(200))
    )
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
    sweep, ok = suite.evaporation(NAMES)
    elapsed = time.monotonic() - start
    report(
        5,
        "evaporation-sweep",
        ok and sweep.notes["cross_bad"] == 0 and elapsed <= 300.0,
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
    assert all(L.size <= 6 for _, L in lattices)
    checked, failures, fixture_ok = suite.erosion(lattices)
    report(
        6,
        "erosion-sweep",
        failures == 0 and fixture_ok,
        f"{len(lattices)} lattices, {checked} instances, {failures} failures, "
        f"fixture={'ok' if fixture_ok else 'bad'}",
    )


def test_c07_funayama():
    bad = suite.funayama(corpus.bundled_corpus())
    report(7, "congruence-distributivity", not bad, f"bad={bad or 'none'}")


def test_c08_functoriality():
    failures = sum(
        not suite.functoriality(random.Random(f"acceptance:functor:{idx}"), NAMES, 2)
        for idx in range(500)
    )
    report(8, "functoriality", failures == 0, f"500 samples, {failures} failures")


def test_c09_oracles():
    pairs_checked, theta_bad, homs_checked, _, wd_bad = suite.oracles(
        corpus.bundled_corpus()
    )
    report(
        9,
        "oracle-agreement",
        theta_bad == 0 and wd_bad == 0,
        f"theta pairs={pairs_checked} bad={theta_bad}; "
        f"wd homs={homs_checked} bad={wd_bad}",
    )


def test_c10_kuratowski():
    checked, failures, fixture_failures = suite.kuratowski(
        25, lambda size, n, trial: random.Random(f"acceptance:kur:{size}:{n}:{trial}")
    )
    fixtures_ok = fixture_failures == 0
    report(
        10,
        "kuratowski-free-sets",
        failures == 0 and fixtures_ok,
        f"checked={checked} failures={failures} fixtures={'ok' if fixtures_ok else 'bad'}",
    )


def test_c11_mutation_detection():
    clean, missed, caught = suite.mutations()
    ok = (
        clean
        and not missed
        and len(descent.MUTATIONS) >= 10
        and all(caught[k] for k in ("validate", "er", "p"))
    )
    report(
        11,
        "mutation-detection",
        ok,
        f"{len(descent.MUTATIONS)} mutations "
        f"(validate={caught['validate']}, er={caught['er']}, p={caught['p']}), "
        f"missed={missed or 'none'}",
    )


def test_c12_cli_roundtrip_and_determinism():
    failures = sum(
        not suite.roundtrip(
            freepairs.random_elem(random.Random(f"acceptance:roundtrip:{idx}"), NAMES, 2)
        )
        for idx in range(1000)
    )
    cmd = [
        sys.executable, "-m", "slat.cli", "suite", "--seed", "13",
        "--cases", "60",
    ]
    # The golden file was recorded by another process, under another
    # string-hash seed, so one run shows the output is deterministic.
    proc = subprocess.run(cmd, capture_output=True, text=True)
    deterministic = proc.returncode == 0 and proc.stdout == SUITE_GOLDEN.read_text()
    report(
        12,
        "cli-roundtrip-determinism",
        failures == 0 and deterministic,
        f"1000 roundtrips, {failures} failures; fixed-seed suite "
        f"{'byte-identical' if deterministic else 'DIVERGED'}",
    )
