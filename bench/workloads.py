"""The benchmark's four seeded workloads.

Each workload draws every input from the seed and has four parts:

* ``setup(seed, size)`` builds what the timed cases share;
* ``cases(state)`` yields the cases lazily, in a fixed seeded order, so
  case k is the same however fast earlier cases ran;
* ``run_case(state, case)`` is the timed unit of work and returns its
  outputs without judging them;
* ``check(state, cases, outputs)`` runs after the timed phase and returns
  the indices of failed cases, with notes for the report.

``size`` is one entry of the workload's ``sizes`` in ``spec.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from slat import conlat, corpus, expr, freedist, freepairs, suite
from slat.freedist import Node

from termgen import TermGen

GOLDEN = Path(__file__).resolve().parent / "golden" / "ext-random.json"


@dataclass
class Checked:
    """Result of a workload's output checks."""

    failed: set = field(default_factory=set)
    notes: list = field(default_factory=list)

    def fail(self, indices, note):
        self.failed.update(indices)
        self.notes.append("FAIL " + note)


def seeded_names(rng, k):
    """k distinct generator names drawn from rng, in drawing order."""
    out = []
    while len(out) < k:
        name = "g" + "".join(rng.choice("bcdfhjkmnpqrstvwxz") for _ in range(3))
        if name not in out:
            out.append(name)
    return out


def _width(v):
    return len(v.triples) if isinstance(v, Node) else 0


# ---------------------------------------------------------------------------
# ext-random


@dataclass(frozen=True)
class TermCase:
    index: int
    x: object
    y: object
    z: object
    triple: object
    f: dict
    g: dict


class ExtRandom:
    """Fresh width-targeted term pairs through the rewrite join."""

    name = "ext-random"
    orders = 10

    def setup(self, seed, size):
        rng = random.Random(f"{seed}:ext-random:names")
        return {"seed": seed, "size": size, "names": seeded_names(rng, size["names"])}

    def min_cases(self, state):
        return state["size"]["min_cases"]

    def cases(self, state):
        # Operand ranks (1-2) and widths (2-4 triples) cycle through all 36
        # combinations, so every run has the same mix of shapes and the
        # seed only draws the terms.
        seed = state["seed"]
        for i in itertools.count():
            gen = TermGen(random.Random(f"{seed}:ext-random:{i}"), state["names"])
            shape = i % 36
            x = gen.operand(1 + shape % 2, 2 + shape // 4 % 3)
            y = gen.operand(1 + shape // 2 % 2, 2 + shape // 12)
            first = x.args[0] if isinstance(x, expr.JoinExpr) else x
            yield TermCase(
                i, x, y, gen.rank1(1)[0], first, gen.renaming(), gen.renaming(),
            )

    def run_case(self, state, c):
        fp = freepairs
        x, y, z = expr.evaluate(c.x), expr.evaluate(c.y), expr.evaluate(c.z)
        w = fp.join(x, y)
        a, b, cc = (expr.evaluate(e) for e in (c.triple.a, c.triple.b, c.triple.c))
        p, q = fp.bowtie(a, b, cc), fp.bowtie(b, a, cc)
        relations = (cc, fp.join(p, q), fp.leq(p, a), fp.leq(q, b))
        lub = (
            fp.leq(x, w), fp.leq(y, w), fp.join(y, x), fp.join(x, x),
            fp.join(x, fp.ZERO), fp.join(w, z), fp.join(x, fp.join(y, z)),
        )
        orders = tuple(
            freedist.join_with_order(
                fp.BASE, x, y,
                random.Random(f"{state['seed']}:ext-random-order:{c.index}:{k}"),
            )
            for k in range(self.orders)
        )
        f, g = c.f, c.g
        maps = (
            fp.map_names(lambda n: n, x),
            fp.map_names(lambda n: g[f[n]], x),
            fp.map_names(g.__getitem__, fp.map_names(f.__getitem__, x)),
        )
        text = expr.serialize(w)
        back = expr.deserialize(text)
        return (x, y, w, relations, lub, orders, maps, text, back, expr.serialize(back))

    @staticmethod
    def laws_hold(out):
        x, y, w, relations, lub, orders, maps, text, back, text2 = out
        c, pq, p_below, q_below = relations
        le_x, le_y, yx, xx, x0, wz, x_yz = lub
        ident, composite, composed = maps
        return (
            pq == c and p_below and q_below
            and le_x and le_y and yx == w and xx == x and x0 == x and wz == x_yz
            and all(o == w for o in orders)
            and ident == x and composite == composed
            and back == w and text2 == text
        )

    @staticmethod
    def chunk_digests(outputs, chunk):
        """sha256 prefixes over the canonical serializations of x, y and
        x v y, one per complete chunk of consecutive cases."""
        out = []
        for start in range(0, len(outputs) - chunk + 1, chunk):
            h = hashlib.sha256()
            for o in outputs[start:start + chunk]:
                if o is None:
                    h.update(b"error\n")
                    continue
                for v in o[:3]:
                    h.update(freepairs.serialize(v).encode())
                    h.update(b"\n")
            out.append(h.hexdigest()[:16])
        return out

    def check(self, state, cases, outputs, golden=None):
        res = Checked()
        bad = [i for i, o in enumerate(outputs) if o is not None and not self.laws_hold(o)]
        if bad:
            res.fail(bad, f"law identities fail on {len(bad)} cases")
        hist = Counter()
        for o in outputs:
            if o is not None:
                for v in o[:2]:
                    hist[(freepairs.rank(v), _width(v))] += 1
        res.notes.append(
            "operands rank:width " + " ".join(f"r{r}w{k}={n}" for (r, k), n in sorted(hist.items()))
        )
        if not any(n for (r, k), n in hist.items() if r == 2 and k >= 2):
            res.fail(range(len(outputs)), "vacuous: no operand of rank 2 with >= 2 triples")
        if golden is None:
            if not GOLDEN.exists():
                res.fail(range(len(outputs)), f"digest: reference file {GOLDEN.name} is missing")
                return res
            golden = json.loads(GOLDEN.read_text())
        ref = golden["digests"].get(f"{state['size']['names']}:{state['seed']}")
        if ref is None:
            # The reference covers seeds 0-31 at full size, first 2000 cases.
            res.notes.append(f"digest: no reference for seed {state['seed']}")
            return res
        chunk = golden["chunk"]
        got = self.chunk_digests(outputs, chunk)
        compared = min(len(got), len(ref))
        for k in range(compared):
            if got[k] != ref[k]:
                res.fail(range(k * chunk, (k + 1) * chunk), f"digest mismatch in cases {k * chunk}..{(k + 1) * chunk - 1}")
        res.notes.append(f"digest: {compared} chunks of {chunk} cases compared")
        return res


# ---------------------------------------------------------------------------
# ext-sweep


@dataclass
class SweepPass:
    names: tuple
    univ: list
    cases: list


class ExtSweep:
    """Passes over the exhaustive cancellation and evaporation domains.

    Each pass draws fresh generator names, so its operands are new to the
    memo tables; within a pass a few hundred operands are reused for
    every case.
    """

    name = "ext-sweep"

    def setup(self, seed, size):
        state = {"seed": seed, "size": size, "passes": []}
        self._add_pass(state)
        return state

    def _add_pass(self, state):
        size = state["size"]
        p = len(state["passes"])
        rng = random.Random(f"{state['seed']}:ext-sweep:{p}")
        # evaporation_sweep(alpha, beta, delta) and cancellation_sweep(alpha, beta):
        # the cancellation universe lives over alpha and beta is the fresh name.
        alpha, beta, delta = names = tuple(seeded_names(rng, 3))
        univ = freepairs.all_rank1({alpha}, size["max_triples"])
        sides = {
            (pol, other, k): freepairs.evaporation_side_universe(
                delta, other, pol, k, size["side_triples"]
            )
            for pol, other in ((0, alpha), (1, beta))
            for k in (0, 1)
        }
        cases = [("canc", p, i, y) for i in (0, 1) for y in univ]
        cases += [
            ("evap", p, i, j, x, y)
            for i in (0, 1)
            for j in (0, 1)
            for x in sides[(0, alpha, i)]
            for y in sides[(1, beta, j)]
        ]
        rng.shuffle(cases)
        state["passes"].append(SweepPass(names, univ, cases))

    def min_cases(self, state):
        return len(state["passes"][0].cases)

    def cases(self, state):
        for p in itertools.count():
            if p == len(state["passes"]):
                self._add_pass(state)
            yield from state["passes"][p].cases

    def run_case(self, state, c):
        """Returns (checked, premise_failed, holds, counterexamples, nonzero)."""
        Outcome = freepairs.Outcome
        if c[0] == "canc":
            _, p, i, y = c
            sweep = state["passes"][p]
            fresh = sweep.names[1]
            tally = Counter(
                freepairs.check_cancellation(fresh, i, x, y).outcome
                for x in sweep.univ
            )
            return (len(sweep.univ), tally[Outcome.PREMISE_FAILED], tally[Outcome.HOLDS],
                    tally[Outcome.COUNTEREXAMPLE], 0)
        _, p, i, j, x, y = c
        alpha, beta, delta = state["passes"][p].names
        w = freepairs.join(x, y)
        tally = Counter(
            freepairs.check_evaporation(alpha, beta, delta, i, j, x, y, z).outcome
            # the sweep's own enumeration of the z below x v y avoiding delta
            for z in freepairs._below_avoiding(w, delta)
        )
        nonzero = int(x != freepairs.ZERO and y != freepairs.ZERO)
        return (sum(tally.values()), tally[Outcome.PREMISE_FAILED], tally[Outcome.HOLDS],
                tally[Outcome.COUNTEREXAMPLE], nonzero)

    def reference(self, state):
        """The library sweeps' counts for the first pass's names."""
        size = state["size"]
        alpha, beta, delta = state["passes"][0].names
        canc = freepairs.cancellation_sweep(alpha, beta, size["max_triples"])
        evap = freepairs.evaporation_sweep(alpha, beta, delta, size["side_triples"])
        return {
            "canc": (canc.checked, canc.premise_failed, canc.substantive, len(canc.counterexamples)),
            "evap": (evap.checked, evap.premise_failed, evap.substantive,
                     evap.notes["nonzero_pairs"], len(evap.counterexamples)),
        }

    def check(self, state, cases, outputs, ref=None):
        res = Checked()
        bad = [i for i, o in enumerate(outputs) if o is not None and o[3]]
        if bad:
            res.fail(bad, f"counterexamples on {len(bad)} cases")
        if ref is None:
            ref = self.reference(state)
        res.notes.append(f"library sweeps: cancellation {ref['canc']} evaporation {ref['evap']}")
        per_pass = len(state["passes"][0].cases)
        for start in range(0, len(outputs) - per_pass + 1, per_pass):
            tot = {"canc": [0, 0, 0, 0], "evap": [0, 0, 0, 0, 0]}
            for c, o in zip(cases[start:start + per_pass], outputs[start:start + per_pass]):
                if o is None:
                    continue
                checked, premise, holds, cex, nonzero = o
                t = tot[c[0]]
                t[0] += checked
                t[1] += premise
                if c[0] == "canc":
                    t[2] += checked - premise
                    t[3] += cex
                else:
                    t[2] += (checked - premise) if nonzero else 0
                    t[3] += nonzero
                    t[4] += cex
            got = {k: tuple(v) for k, v in tot.items()}
            pass_no = start // per_pass
            if got != ref:
                res.fail(range(start, start + per_pass), f"pass {pass_no} counts {got} differ from the library sweeps")
            else:
                res.notes.append(f"pass {pass_no} counts match the library sweeps")
        if len(outputs) < per_pass:
            res.notes.append("no complete pass: counts not compared")
        return res


# ---------------------------------------------------------------------------
# con-erosion


def relabel(L, perm):
    """L with element e renamed perm[e]."""
    n = L.size
    inv = [0] * n
    for e, image in enumerate(perm):
        inv[image] = e

    def table(t, arity):
        if arity == 1:
            return [perm[t[inv[a]]] for a in range(n)]
        return [perm[t[inv[a] * n + inv[b]]] for a in range(n) for b in range(n)]

    ops = [(op.name, op.arity, table(op.table, op.arity)) for op in L.ops]
    top = None if L.top is None else perm[L.top]
    return conlat.fin_algebra(n, ops, table(L.join, 2), top)


def seeded_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class ConErosion:
    """Single erosion calls over relabeled bundled lattices.

    Each lattice gets several seeded relabelings, so that no single
    labeling's cost decides a run's figures.  A case draws an instance of
    suite.erosion_domain on an original lattice and maps it through one of
    the lattice's relabelings.
    """

    name = "con-erosion"

    def setup(self, seed, size):
        rng = random.Random(f"{seed}:con-erosion")
        lattices = corpus.bundled_corpus()[: size["lattices"]]
        relabeled = [
            [(perm, relabel(L, perm))
             for perm in (seeded_perm(rng, L.size) for _ in range(size["relabelings"]))]
            for _, L in lattices
        ]
        domain = [
            (k, x0, x1, zs)
            for k, (_, L) in enumerate(lattices)
            for x0, x1, zs in suite.erosion_domain(L)
        ]
        return {"seed": seed, "size": size, "originals": lattices,
                "relabeled": relabeled, "domain": domain}

    def min_cases(self, state):
        return state["size"]["min_cases"]

    def cases(self, state):
        rng = random.Random(f"{state['seed']}:con-erosion:cases")
        while True:
            k, x0, x1, zs = rng.choice(state["domain"])
            r = rng.randrange(len(state["relabeled"][k]))
            perm = state["relabeled"][k][r][0]
            yield k, r, perm[x0], perm[x1], tuple(perm[z] for z in zs)

    def run_case(self, state, c):
        k, r, x0, x1, zs = c
        return conlat.erosion(state["relabeled"][k][r][1], x0, x1, zs)

    def check(self, state, cases, outputs, expected_domain=None):
        res = Checked()
        bad = [i for i, o in enumerate(outputs) if o is not None and not o.ok]
        if bad:
            res.fail(bad, f"ErosionResult.ok fails on {len(bad)} cases")
        algebras = [L for per_lattice in state["relabeled"] for _, L in per_lattice]
        if expected_domain is None:
            expected_domain = len(state["domain"])
        total = sum(sum(1 for _ in suite.erosion_domain(L)) for L in algebras)
        if total != expected_domain * state["size"]["relabelings"]:
            res.fail(range(len(outputs)), f"relabeled domains hold {total} instances, expected "
                     f"{state['size']['relabelings']} x {expected_domain}")
        else:
            res.notes.append(f"domain {expected_domain} instances on every relabeling of the corpus")
        rng = random.Random(f"{state['seed']}:con-erosion:oracle")
        sample = [
            (L, rng.randrange(L.size), rng.randrange(L.size))
            for L in (rng.choice(algebras) for _ in range(state["size"]["oracle_pairs"]))
        ]
        wrong = sum(conlat.theta(L, x, y) != suite.brute_theta(L, x, y) for L, x, y in sample)
        if wrong:
            res.fail(range(len(outputs)), f"theta disagrees with brute_theta on {wrong} sampled pairs")
        else:
            res.notes.append(f"theta agrees with brute_theta on {len(sample)} sampled pairs")
        return res


# ---------------------------------------------------------------------------
# con-large


class ConLarge:
    """Cold congruence semilattices of relabeled corpus products."""

    name = "con-large"

    def setup(self, seed, size):
        named = dict(corpus.bundled_corpus())
        products = [
            (a, b, corpus.product(named[a], named[b])) for a, b in size["products"]
        ]
        return {"seed": seed, "size": size, "named": named, "products": products}

    def min_cases(self, state):
        return state["size"]["min_cases"]

    def cases(self, state):
        # Round robin, so every run at the stated size has the same mix of
        # products and only the relabelings depend on the seed.
        products = state["products"]
        for i in itertools.count():
            k = i % len(products)
            rng = random.Random(f"{state['seed']}:con-large:{i}")
            L = products[k][2]
            yield k, relabel(L, seeded_perm(rng, L.size))

    def run_case(self, state, c):
        return conlat.conc(c[1])

    def check(self, state, cases, outputs, expected_counts=None):
        res = Checked()
        if expected_counts is None:
            named = state["named"]
            expected_counts = [
                len(conlat.all_congruences(named[a])) * len(conlat.all_congruences(named[b]))
                for a, b, _ in state["products"]
            ]
        bad = []
        for i, (c, o) in enumerate(zip(cases, outputs)):
            if o is None:
                continue
            if len(o.congruences) != expected_counts[c[0]] or not conlat.is_distributive(o.table):
                bad.append(i)
        if bad:
            res.fail(bad, f"Fraser-Horn count or Funayama-Nakayama distributivity fails on {len(bad)} cases")
        res.notes.append(
            "products " + " ".join(f"{a}x{b}:{L.size}" for a, b, L in state["products"])
        )
        return res


WORKLOADS = {w.name: w for w in (ExtRandom(), ExtSweep(), ConErosion(), ConLarge())}
