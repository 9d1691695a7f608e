"""Seeded property suites over the whole library.

Every randomized case draws its generator from (seed, suite-name,
case-index), so any failure reproduces in isolation and fixed-seed runs
are byte-identical.  Suites return deterministic result lines; the CLI
prints wall time to stderr only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import conlat, corpus, expr, freedist, freepairs
from .freepairs import BASE


@dataclass
class SuiteConfig:
    seed: int = 0
    cases: int = 500
    max_rank: int = 2
    omega_size: int = 4
    corpus_dir: str | None = None

    def names(self) -> tuple:
        return tuple(f"x{i}" for i in range(self.omega_size))

    def rng(self, suite: str, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{suite}:{index}")

    def lattices(self) -> tuple:
        if self.corpus_dir is None:
            return corpus.bundled_corpus()
        entries = []
        for path in sorted(Path(self.corpus_dir).glob("*.alg")):
            try:
                entries.append((path.stem, conlat.parse_algebra(path.read_text())))
            except conlat.FormatError as exc:
                raise conlat.FormatError(f"{path.name}: {exc}") from exc
        if not entries:
            raise conlat.FormatError(f"no .alg files in {self.corpus_dir}")
        return tuple(entries)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Independent oracles


def brute_theta(L: conlat.FinAlgebra, x: int, y: int) -> conlat.Congruence:
    """Least compatible partition containing (x, y), by full enumeration."""
    candidates = [
        p
        for p in conlat.all_partitions(L.size)
        if p.relates(x, y) and conlat.is_compatible(L, p)
    ]
    out = candidates[0]
    for p in candidates[1:]:
        out = conlat.part_meet(out, p)
    assert out in candidates
    return out


def wd_at_oracle(mu: conlat.SemHom, x: int) -> bool:
    """Direct quantifier translation of weak distributivity at x."""
    S, T, f = mu.dom, mu.cod, mu.image
    for y0 in range(T.size):
        for y1 in range(T.size):
            if not T.leq(f[x], T.join_of(y0, y1)):
                continue
            witnessed = False
            for x0 in range(S.size):
                for x1 in range(S.size):
                    if (
                        S.leq(x, S.join_of(x0, x1))
                        and T.leq(f[x0], y0)
                        and T.leq(f[x1], y1)
                    ):
                        witnessed = True
                        break
                if witnessed:
                    break
            if not witnessed:
                return False
    return True


def free_oracle(U, phi) -> bool:
    """Whether no x in U lies in the image of U - {x} under the freeset.PhiMap phi."""
    U = frozenset(U)
    for x in sorted(U):
        others = U - {x}
        if x in phi.image(others):
            return False
    return True


# ---------------------------------------------------------------------------
# Properties
#
# One function per property.  The suites below and the acceptance tests
# both call them, each with cases drawn from its own rng streams.


def relations(a, b, c) -> bool:
    """The defining relations of the splitting elements at (a, b, c)."""
    x = freepairs.bowtie(a, b, c)
    y = freepairs.bowtie(b, a, c)
    return freepairs.join(x, y) == c and freepairs.leq(x, a)


def lub(x, y, noise) -> bool:
    """x v y is an upper bound of x and y that lies below (x v y) v noise,
    and join is commutative, idempotent, unital and associative there."""
    w = freepairs.join(x, y)
    z = freepairs.join(w, noise)
    return (
        freepairs.leq(x, w)
        and freepairs.leq(y, w)
        and freepairs.leq(w, z)
        and w == freepairs.join(y, x)
        and freepairs.join(x, x) == x
        and freepairs.join(x, freepairs.ZERO) == x
        and z == freepairs.join(x, freepairs.join(y, noise))
    )


def confluence(x, y, order_rngs) -> int:
    """How many of the rule orders drawn from order_rngs rewrite x v y to
    a different normal form than join does."""
    want = freepairs.serialize(freepairs.join(x, y))
    return sum(
        freepairs.serialize(freedist.join_with_order(BASE, x, y, rng)) != want
        for rng in order_rngs
    )


def functoriality(rng, names, max_rank) -> bool:
    """Renaming generators is a functor and commutes with bowtie, on one
    random case."""
    fmap = {n: rng.choice(names) for n in names}
    gmap = {n: rng.choice(names) for n in names}
    f = lambda n: fmap[n]
    g = lambda n: gmap[n]
    x = freepairs.random_elem(rng, names, max_rank)
    if freepairs.map_names(lambda n: n, x) != x:
        return False
    if freepairs.map_names(lambda n: g(f(n)), x) != freepairs.map_names(
        g, freepairs.map_names(f, x)
    ):
        return False
    a, b, c = freepairs.random_triple(rng, names, max_rank - 1 if max_rank else 0)
    return freepairs.map_names(f, freepairs.bowtie(a, b, c)) == freepairs.bowtie(
        freepairs.map_names(f, a), freepairs.map_names(f, b), freepairs.map_names(f, c)
    )


def lemma44(names, max_rank, rngs) -> tuple:
    """Lemma 4.4 cancellation of the fresh name names[1]: the exhaustive
    rank <= 1 sweep over names[0], then one random case per rng.

    Returns (sweep, random cases where the law holds with its premises
    met, counterexamples in the sweep and the random cases).
    """
    xi, alpha = names[0], names[1]
    sweep = freepairs.cancellation_sweep(xi, alpha, max_triples=2)
    counterexamples = len(sweep.counterexamples)
    holds = 0
    live = tuple(n for n in names if n != alpha)
    for rng in rngs:
        i = rng.randrange(2)
        y = freepairs.random_elem(rng, live, max_rank)
        if rng.random() < 0.5:
            x = freepairs.random_below(rng, y, max_rank, live)
        else:
            bound = freepairs.join(y, freepairs.gen(i, alpha))
            x = freepairs.random_below(rng, bound, max_rank, names)
            if alpha in freepairs.support(x):
                x = freepairs.retract(alpha, i, x)
        outcome = freepairs.check_cancellation(alpha, i, x, y).outcome
        if outcome is freepairs.Outcome.COUNTEREXAMPLE:
            counterexamples += 1
        elif outcome is freepairs.Outcome.HOLDS:
            holds += 1
    return sweep, holds, counterexamples


def evaporation(names, seed: int = 0) -> tuple:
    """The exhaustive evaporation sweep over names[0], names[1], names[2],
    its cross-check sample drawn from seed.

    Returns (sweep, verdict); the verdict needs no counterexample and at
    least one case with both sides nonzero.
    """
    sweep = freepairs.evaporation_sweep(names[0], names[1], names[2], seed=seed)
    return sweep, sweep.ok and sweep.notes["nonzero_pairs"] >= 1


def erosion_domain(L: conlat.FinAlgebra):
    """All (x0, x1, Z) with Z a distinct-element chain sequence of length
    2..4 whose leading join lies below its last entry."""
    carrier = range(L.size)
    for length in range(2, 5):
        for zs in itertools.permutations(carrier, length):
            if not L.leq(L.join_all(zs[:-1]), zs[-1]):
                continue
            for x0 in carrier:
                for x1 in carrier:
                    yield x0, x1, zs


def erosion(lattices) -> tuple:
    """Erosion over erosion_domain of each (name, lattice), and the 3-chain
    fixture with its known u0, u1.  Returns (checked, failures, fixture_ok).
    """
    checked = failures = 0
    for _, L in lattices:
        for x0, x1, zs in erosion_domain(L):
            checked += 1
            failures += not conlat.erosion(L, x0, x1, zs).ok
    res = conlat.erosion(corpus.chain(3), 0, 0, (0, 1, 2))
    fixture_ok = (
        res.ok
        and res.u0 == conlat.congruence_from_blocks(3, [(0, 1), (2,)])
        and res.u1 == conlat.congruence_from_blocks(3, [(0,), (1, 2)])
    )
    return checked, failures, fixture_ok


def funayama(lattices) -> list:
    """Names of the lattices whose Conc is not distributive."""
    return [
        name for name, L in lattices if not conlat.is_distributive(conlat.conc(L).table)
    ]


def oracles(lattices) -> tuple:
    """theta against brute_theta on every pair of each lattice of size <= 6,
    and weakly_distributive_at against wd_at_oracle on every hom between
    small semilattices.

    Returns (theta pairs, theta mismatches, homs, wd points, wd mismatches).
    """
    theta_checked = theta_bad = 0
    for _, L in lattices:
        if L.size > 6:
            continue
        for x in range(L.size):
            for y in range(L.size):
                theta_checked += 1
                theta_bad += conlat.theta(L, x, y) != brute_theta(L, x, y)
    homs = wd_checked = wd_bad = 0
    small = ("chain1", "chain2", "chain3", "chain4", "2x2")
    tables = [L for name, L in corpus.bundled_corpus() if name in small]
    for dom in tables:
        for cod in tables:
            for mu in conlat.all_sem_homs(dom, cod):
                homs += 1
                for x in range(dom.size):
                    wd_checked += 1
                    wd = conlat.weakly_distributive_at(mu, x)
                    wd_bad += wd != wd_at_oracle(mu, x)
    return theta_checked, theta_bad, homs, wd_checked, wd_bad


def kuratowski_fixtures() -> tuple:
    from . import freeset
    ground = ("0", "1", "2")
    no_free = freeset.PhiMap(
        ground,
        1,
        {frozenset((x,)): frozenset(ground) - {x} for x in ground},
    )
    singleton = freeset.PhiMap(
        ground, 1, {frozenset((x,)): frozenset((x,)) for x in ground}
    )
    return no_free, singleton


def kuratowski(trials, rng_for) -> tuple:
    """is_free against free_oracle and find_free against the first free
    candidate, on random maps over ground sets of size 1..6 with n <= 2,
    ``trials`` maps for each (size, n) drawn from rng_for(size, n, trial);
    then the two fixtures.  Returns (checked, failures, fixture failures).
    """
    from . import freeset
    checked = failures = 0
    for size in range(1, 7):
        ground = tuple(str(i) for i in range(size))
        for n in range(0, min(2, size - 1) + 1):
            for trial in range(trials):
                rng = rng_for(size, n, trial)
                images = {
                    frozenset(combo): frozenset(g for g in ground if rng.random() < 0.4)
                    for combo in itertools.combinations(ground, n)
                }
                phi = freeset.PhiMap(ground, n, images)
                first = None
                for combo in itertools.combinations(ground, n + 1):
                    checked += 1
                    mine = freeset.is_free(combo, phi)
                    failures += mine != free_oracle(combo, phi)
                    if mine and first is None:
                        first = combo
                failures += freeset.find_free(phi) != first
    no_free, singleton = kuratowski_fixtures()
    fixture_failures = (freeset.find_free(no_free) is not None) + (
        freeset.find_free(singleton) != ("0", "1")
    )
    return checked, failures, fixture_failures


def mutations() -> tuple:
    """The clean descent fixture passes every detector, and each mutation
    is caught by its own.  Returns (clean, missed names, caught per
    detector)."""
    from . import descent
    base = descent.fixture()
    clean = all(check(base) for check in descent.DETECTORS.values())
    missed = []
    caught = dict.fromkeys(descent.DETECTORS, 0)
    for mut in descent.MUTATIONS:
        if descent.mutation_detected(mut):
            caught[mut.detector] += 1
        else:
            missed.append(mut.name)
    return clean, missed, caught


def roundtrip(x) -> bool:
    """x survives serialize then deserialize, and reserializes identically."""
    text = expr.serialize(x)
    back = expr.deserialize(text)
    return back == x and expr.serialize(back) == text


# ---------------------------------------------------------------------------
# Suites


def _result(name: str, passed: bool, **counts) -> SuiteResult:
    """The suite's one line: ``suite <name>`` and then ``key=value`` pairs."""
    fields = " ".join(f"{key}={value}" for key, value in counts.items())
    return SuiteResult(name, passed, [f"suite {name} {fields}"])


def _per_case(cfg: SuiteConfig, name: str, check) -> SuiteResult:
    """A suite of cfg.cases random cases; check(rng) says whether one holds."""
    failures = sum(not check(cfg.rng(name, idx)) for idx in range(cfg.cases))
    return _result(name, failures == 0, cases=cfg.cases, failures=failures)


def run_relations(cfg: SuiteConfig) -> SuiteResult:
    names = cfg.names()
    return _per_case(
        cfg,
        "relations",
        lambda rng: relations(*freepairs.random_triple(rng, names, cfg.max_rank)),
    )


def run_lub(cfg: SuiteConfig) -> SuiteResult:
    names = cfg.names()
    draw = lambda rng: freepairs.random_elem(rng, names, cfg.max_rank)
    # x, y and noise, drawn in that order
    return _per_case(cfg, "lub", lambda rng: lub(draw(rng), draw(rng), draw(rng)))


def run_confluence(cfg: SuiteConfig) -> SuiteResult:
    names = cfg.names()
    instances = max(100, cfg.cases // 5)
    orders = 10
    failures = 0
    for idx in range(instances):
        rng = cfg.rng("confluence", idx)
        x = freepairs.random_elem(rng, names, cfg.max_rank)
        y = freepairs.random_elem(rng, names, cfg.max_rank)
        failures += confluence(
            x, y, (cfg.rng("confluence-order", idx * orders + k) for k in range(orders))
        )
    return _result(
        "confluence",
        failures == 0,
        instances=instances,
        orders=orders,
        failures=failures,
    )


def run_functoriality(cfg: SuiteConfig) -> SuiteResult:
    names = cfg.names()
    return _per_case(
        cfg, "functoriality", lambda rng: functoriality(rng, names, cfg.max_rank)
    )


def run_lemma44(cfg: SuiteConfig) -> SuiteResult:
    names = cfg.names()
    rngs = (cfg.rng("lemma44", idx) for idx in range(cfg.cases))
    sweep, random_sub, counterexamples = lemma44(names, cfg.max_rank, rngs)
    return _result(
        "lemma44",
        counterexamples == 0 and sweep.substantive >= 50,
        exhaustive_checked=sweep.checked,
        exhaustive_substantive=sweep.substantive,
        random_cases=cfg.cases,
        random_substantive=random_sub,
        counterexamples=counterexamples,
    )


def run_evaporation(cfg: SuiteConfig) -> SuiteResult:
    sweep, ok = evaporation(cfg.names(), cfg.seed)
    return _result(
        "evaporation",
        ok,
        checked=sweep.checked,
        substantive=sweep.substantive,
        nonzero_pairs=sweep.notes["nonzero_pairs"],
        counterexamples=len(sweep.counterexamples),
    )


def run_erosion(cfg: SuiteConfig) -> SuiteResult:
    lattices = cfg.lattices()
    checked, failures, fixture_ok = erosion(lattices)
    return _result(
        "erosion",
        failures == 0 and fixture_ok,
        lattices=len(lattices),
        checked=checked,
        failures=failures,
        fixture="ok" if fixture_ok else "fail",
    )


def run_funayama(cfg: SuiteConfig) -> SuiteResult:
    lattices = cfg.lattices()
    failures = funayama(lattices)
    return _result(
        "funayama",
        not failures,
        lattices=len(lattices),
        failures=",".join(failures) if failures else "0",
    )


def run_oracles(cfg: SuiteConfig) -> SuiteResult:
    theta_checked, theta_bad, _, wd_checked, wd_bad = oracles(cfg.lattices())
    return _result(
        "oracles",
        theta_bad == 0 and wd_bad == 0,
        theta_checked=theta_checked,
        theta_bad=theta_bad,
        wd_checked=wd_checked,
        wd_bad=wd_bad,
    )


def run_kuratowski(cfg: SuiteConfig) -> SuiteResult:
    checked, failures, fixture_failures = kuratowski(
        max(5, cfg.cases // 50),
        lambda size, n, trial: cfg.rng(f"kuratowski-{size}-{n}", trial),
    )
    failures += fixture_failures
    return _result("kuratowski", failures == 0, checked=checked, failures=failures)


def run_mutations(cfg: SuiteConfig) -> SuiteResult:
    clean, missed, caught = mutations()
    return _result(
        "mutations",
        clean and not missed,
        total=len(missed) + sum(caught.values()),
        **caught,
        missed=",".join(missed) if missed else "0",
        fixture="ok" if clean else "fail",
    )


def run_roundtrip(cfg: SuiteConfig) -> SuiteResult:
    names = cfg.names()
    return _per_case(
        cfg,
        "roundtrip",
        lambda rng: roundtrip(freepairs.random_elem(rng, names, cfg.max_rank)),
    )


SUITES = {
    "relations": run_relations,
    "lub": run_lub,
    "confluence": run_confluence,
    "functoriality": run_functoriality,
    "lemma44": run_lemma44,
    "evaporation": run_evaporation,
    "erosion": run_erosion,
    "funayama": run_funayama,
    "oracles": run_oracles,
    "kuratowski": run_kuratowski,
    "mutations": run_mutations,
    "roundtrip": run_roundtrip,
}

# The fewest names each suite needs; checked before any suite runs.
MIN_OMEGA = {"lemma44": 2, "evaporation": 3}


def run_suites(cfg: SuiteConfig, only: str | None = None) -> tuple:
    """Run the selected suites; returns (all_passed, result list)."""
    if only is not None and only not in SUITES:
        raise ValueError(
            f"unknown suite {only!r}; choose from {', '.join(SUITES)}"
        )
    names = [only] if only else list(SUITES)
    for name in names:
        if cfg.omega_size < MIN_OMEGA.get(name, 1):
            raise ValueError(f"{name} suite needs omega-size >= {MIN_OMEGA[name]}")
    results = [SUITES[name](cfg) for name in names]
    return all(r.passed for r in results), results
