"""Free distributive semilattice generated by complementary pairs.

Rank-0 elements are pair-semilattice values; higher ranks come from the
free distributive extension over them.  Adds supports (the least
generator set an element lives over), the polarity retractions, the
fresh-generator cancellation check, the evaporation check, bounded
exhaustive sweeps for both, and seeded random element generation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from typing import NamedTuple

from . import freedist, pairs
from .freedist import Node, Triple
from .pairs import gen

BASE = pairs  # a base of the extension: it has ZERO, join, leq and serialize

ZERO = pairs.ZERO
ONE = pairs.TOP


def join(x, y):
    return freedist.join(BASE, x, y)


def join_all(items):
    return freedist.join_all(BASE, items)


def leq(x, y) -> bool:
    return freedist.leq(BASE, x, y)


def bowtie(a, b, c):
    return freedist.bowtie(BASE, a, b, c)


def rank(x) -> int:
    return freedist.rank(x)


def serialize(x) -> str:
    return freedist.serialize(BASE, x)


def validate(x):
    return freedist.validate(BASE, x)


@lru_cache(maxsize=None)
def support(x) -> frozenset:
    """Generator names occurring anywhere in the canonical form of x;
    memoized per value."""
    if not isinstance(x, Node):
        return pairs.mentions(x)
    return support(x.proj).union(*(support(c) for t in x.triples for c in t))


def retract(alpha: str, i: int, x):
    """Extension of the pair retraction killing gen(i, alpha)."""
    return freedist.map_elem(BASE, lambda p: pairs.retract(alpha, i, p), x)


def map_names(f, x):
    """Extension of a generator renaming over the whole semilattice."""
    return freedist.map_elem(BASE, lambda p: pairs.map_generators(f, p), x)


# ---------------------------------------------------------------------------
# Law checkers


class Outcome(Enum):
    PREMISE_FAILED = "premise-failed"
    HOLDS = "holds"
    COUNTEREXAMPLE = "counterexample"


class Verdict(NamedTuple):
    outcome: Outcome
    failed_premises: tuple = ()

    def __str__(self):
        if self.failed_premises:
            return f"{self.outcome.value}: {'; '.join(self.failed_premises)}"
        return self.outcome.value


def check_cancellation(alpha: str, i: int, x, y) -> Verdict:
    """Fresh-generator cancellation: x <= y v gen(i, alpha) forces x <= y
    whenever alpha occurs in neither x nor y.

    A COUNTEREXAMPLE outcome is an implementation failure, never a valid
    result.
    """
    failed = []
    if alpha in support(x) or alpha in support(y):
        failed.append(f"{alpha} occurs in x or y")
    if not leq(x, join(y, gen(i, alpha))):
        failed.append("x <= y v a_i^alpha fails")
    if failed:
        return Verdict(Outcome.PREMISE_FAILED, tuple(failed))
    return Verdict(Outcome.HOLDS if leq(x, y) else Outcome.COUNTEREXAMPLE)


def check_evaporation(alpha, beta, delta, i, j, x, y, z) -> Verdict:
    """Evaporation: under the two-sided generator constraints on x and y,
    every z <= x v y avoiding delta collapses to zero.

    A COUNTEREXAMPLE outcome is an implementation failure, never a valid
    result.
    """
    failed = []
    if len({alpha, beta, delta}) != 3:
        failed.append("alpha, beta, delta not distinct")
    if beta in support(x):
        failed.append(f"{beta} occurs in x")
    if alpha in support(y):
        failed.append(f"{alpha} occurs in y")
    if delta in support(z):
        failed.append(f"{delta} occurs in z")
    if not leq(z, join(x, y)):
        failed.append("z <= x v y fails")
    if not leq(x, gen(0, delta)):
        failed.append("x <= a_0^delta fails")
    if not leq(x, gen(i, alpha)):
        failed.append("x <= a_i^alpha fails")
    if not leq(y, gen(1, delta)):
        failed.append("y <= a_1^delta fails")
    if not leq(y, gen(j, beta)):
        failed.append("y <= a_j^beta fails")
    if failed:
        return Verdict(Outcome.PREMISE_FAILED, tuple(failed))
    return Verdict(Outcome.HOLDS if z == ZERO else Outcome.COUNTEREXAMPLE)


# ---------------------------------------------------------------------------
# Bounded enumeration


def all_pairs(names) -> list:
    """Every pair element over the given names, plus top."""
    names = sorted(names)
    out = []
    for sides in itertools.product((0, 1, 2), repeat=len(names)):
        pos = frozenset(n for n, s in zip(names, sides) if s == 0)
        neg = frozenset(n for n, s in zip(names, sides) if s == 1)
        out.append(pairs.PairElem(pos, neg))
    out.append(pairs.TOP)
    return out


def _candidate_triples(universe, projection):
    for u, v in itertools.permutations(universe, 2):
        if pairs.leq(u, projection) or pairs.leq(v, projection):
            continue
        uv = pairs.join(u, v)
        for w in universe:
            if pairs.leq(w, projection):
                continue
            if pairs.leq(w, uv):
                yield Triple(u, v, w)


def _nodes_on(projection, triples, max_triples: int) -> list:
    """Every node with the projection whose stored triples are at most
    max_triples of the given ones, by number of triples, each subset in
    triple_key order; a subset holding a swapped pair is skipped."""
    triples = sorted(triples, key=partial(freedist.triple_key, BASE))
    out = []
    for size in range(1, max_triples + 1):
        for combo in itertools.combinations(triples, size):
            if not any(Triple(t.v, t.u, t.w) in combo for t in combo):
                out.append(freedist.make_node(BASE, projection, combo))
    return out


def all_rank1(names, max_triples: int) -> list:
    """All elements of rank <= 1 over the names with a bounded number of
    stored triples, base elements included."""
    base_elems = all_pairs(names)
    out = list(base_elems)
    for projection in base_elems:
        if not projection.top:
            cands = _candidate_triples(base_elems, projection)
            out += _nodes_on(projection, cands, max_triples)
    return out


@dataclass
class SweepReport:
    name: str
    checked: int = 0
    premise_failed: int = 0
    substantive: int = 0
    holds: int = 0
    counterexamples: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def cancellation_sweep(xi: str, alpha: str, max_triples: int = 2) -> SweepReport:
    """Exhaustive rank <= 1 cancellation sweep over one live generator.

    The fresh name alpha never occurs in the enumerated x, y, so the only
    live premise is the join bound; both polarities of alpha are swept.
    """
    if xi == alpha:
        raise ValueError("alpha must be fresh")
    report = SweepReport(name="cancellation")
    univ = all_rank1({xi}, max_triples)
    for i in (0, 1):
        a = gen(i, alpha)
        for y in univ:
            bound = join(y, a)
            for x in univ:
                report.checked += 1
                if not leq(x, bound):
                    report.premise_failed += 1
                    continue
                report.substantive += 1
                if leq(x, y):
                    report.holds += 1
                else:
                    report.counterexamples.append(
                        (i, serialize(x), serialize(y))
                    )
    return report


def evaporation_side_universe(
    fixed: str, other: str, polarity: int, i: int, max_triples: int = 2
) -> list:
    """Premise-satisfying sides for the evaporation sweep.

    Elements below both gen(polarity, fixed) and gen(i, other) at rank
    <= 1 have zero projection and triples whose first or last entry
    equals each bounding generator; the enumeration builds exactly
    those, so no rejection filtering is involved.
    """
    bounds = (gen(polarity, fixed), gen(i, other))
    universe = [p for p in all_pairs({fixed, other}) if p != ZERO]
    cands = _candidate_triples(universe, ZERO)
    cands = [t for t in cands if all(g in (t.u, t.w) for g in bounds)]
    return [ZERO, *_nodes_on(ZERO, cands, max_triples)]


def _below_avoiding(w, name) -> list:
    """Every rank <= 1 element below w whose support avoids the name, for w
    zero or a node with zero projection; any other w raises DomainError.

    At rank <= 1 the elements below a node with zero projection are
    exactly zero and the nodes built from subsets of its own triples, so
    subset enumeration is complete at every width; the sweep re-verifies
    each candidate against the real order and cross-checks this
    characterization against a brute universe scan on sampled pairs.
    Every join of the sweep is in that domain; past it the subsets miss
    elements (pair([a],[]) lies below red(pair([a,d],[]); ...)).
    """
    if w == ZERO:
        return [ZERO]
    if not isinstance(w, Node) or w.proj != ZERO:
        raise freedist.DomainError("not zero or a node with zero projection")
    usable = [
        t for t in w.triples
        if name not in support(t.u) and name not in support(t.v) and name not in support(t.w)
    ]
    return [ZERO, *_nodes_on(ZERO, usable, len(usable))]


def evaporation_sweep(
    alpha: str, beta: str, delta: str, side_triples: int = 2, seed: int = 0
) -> SweepReport:
    """Exhaustive bounded evaporation sweep over three generators.

    x ranges over premise-satisfying elements below gen(0, delta) and
    gen(i, alpha); y below gen(1, delta) and gen(j, beta); z over every
    rank <= 1 element avoiding delta that sits below x v y.  Every
    candidate z goes through the full checker, and on a sample of about
    120 pairs, drawn from seed, the candidate set is cross-checked against
    a brute scan of the single-triple universe under the real order, over
    the projections below x v y (a node lies above its projection).
    Every triple on these sides mentions delta, so each pair lists one z,
    namely 0 (checked == pairs == 24,964 at side_triples=2): at this size
    the law's content is the cross-check.
    """
    if len({alpha, beta, delta}) != 3:
        raise ValueError("alpha, beta, delta must be distinct")
    report = SweepReport(name="evaporation")
    rng = random.Random(f"{seed}:evaporation-crosscheck")
    z_univ = all_rank1({alpha, beta}, 1)
    nodes_over = {z: [] for z in z_univ if not isinstance(z, Node)}  # grouped by projection
    for z in z_univ:
        if isinstance(z, Node):
            nodes_over[z.proj].append(z)
    xs = [evaporation_side_universe(delta, alpha, 0, i, side_triples) for i in (0, 1)]
    ys = [evaporation_side_universe(delta, beta, 1, j, side_triples) for j in (0, 1)]
    walk = [(i, j, x, y) for i in (0, 1) for j in (0, 1) for x in xs[i] for y in ys[j]]
    sample_rate = min(1.0, 120 / max(len(walk), 1))
    cross_checks = cross_bad = nonzero_pairs = 0
    for i, j, x, y in walk:
        w = join(x, y)
        zs = _below_avoiding(w, delta)
        substantive_pair = x != ZERO and y != ZERO
        nonzero_pairs += substantive_pair
        for z in zs:
            verdict = check_evaporation(alpha, beta, delta, i, j, x, y, z)
            report.checked += 1
            report.substantive += substantive_pair
            if verdict.outcome is Outcome.HOLDS:
                report.holds += 1
            elif verdict.outcome is Outcome.COUNTEREXAMPLE:
                report.counterexamples.append((serialize(x), serialize(y), serialize(z)))
            else:
                report.premise_failed += 1
        if rng.random() < sample_rate:
            cross_checks += 1
            narrow = {z for z in zs if not isinstance(z, Node) or len(z.triples) <= 1}
            below = [p for p in nodes_over if leq(p, w)]
            brute = {*below, *(z for p in below for z in nodes_over[p] if leq(z, w))}
            if narrow != brute:
                cross_bad += 1
    report.notes["pairs"] = len(walk)
    report.notes["nonzero_pairs"] = nonzero_pairs
    report.notes["cross_checks"] = cross_checks
    report.notes["cross_bad"] = cross_bad
    if cross_bad:
        report.counterexamples.append(("cross-check-mismatch", str(cross_bad)))
    return report


# ---------------------------------------------------------------------------
# Seeded random generation


def random_pair(rng, names):
    roll = rng.random()
    if roll < 0.04:
        return pairs.TOP
    if roll < 0.12:
        return ZERO
    pos, neg = set(), set()
    for n in names:
        side = rng.random()
        if side < 0.22:
            pos.add(n)
        elif side < 0.44:
            neg.add(n)
    return pairs.PairElem(frozenset(pos), frozenset(neg))


def random_elem(rng, names, max_rank: int, _depth: int = 3):
    """A random element of rank <= max_rank over the given names."""
    if max_rank == 0 or _depth == 0 or rng.random() < 0.25:
        return random_pair(rng, names)
    if rng.random() < 0.55:
        a = random_elem(rng, names, max_rank - 1, _depth - 1)
        b = random_elem(rng, names, max_rank - 1, _depth - 1)
        c = random_below(rng, join(a, b), max_rank - 1, names, _depth - 1)
        return bowtie(a, b, c)
    return join(
        random_elem(rng, names, max_rank, _depth - 1),
        random_elem(rng, names, max_rank, _depth - 1),
    )


def random_below(rng, w, max_rank: int, names, _depth: int = 3):
    """A random element below w, of rank <= max_rank."""
    choices = ["zero"]
    if rank(w) <= max_rank:
        choices += ["self"] * 3
    if isinstance(w, Node):
        choices += ["proj"] * 2 + ["piece"] * 3
    if rank(w) < max_rank:
        choices += ["split"] * 3
    if _depth > 0:
        choices += ["pair-join"] * 2
    kind = rng.choice(choices)
    if kind == "self":
        return w
    if kind == "proj":
        return random_below(rng, w.proj, max_rank, names, _depth - 1)
    if kind == "piece":
        t = rng.choice(w.triples)
        piece = bowtie(t.u, t.v, t.w)
        if rank(piece) <= max_rank:
            return piece
        return random_below(rng, w.proj, max_rank, names, _depth - 1)
    if kind == "split":
        t = random_elem(rng, names, max_rank - 1, _depth - 1)
        return bowtie(w, t, w)
    if kind == "pair-join":
        return join(
            random_below(rng, w, max_rank, names, _depth - 1),
            random_below(rng, w, max_rank, names, _depth - 1),
        )
    return ZERO


def random_triple(rng, names, max_rank: int):
    """A random triple (a, b, c) with c <= a v b, entries of bounded rank."""
    a = random_elem(rng, names, max_rank)
    b = random_elem(rng, names, max_rank)
    c = random_below(rng, join(a, b), max_rank, names)
    return a, b, c
