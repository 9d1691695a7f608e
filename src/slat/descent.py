"""Descent-style instances: a finite algebra with a labeling into the
generated semilattice plus parity-indexed chains.

An instance bundles an algebra L with top, elements t_r, chains
z[r][i][xi] from t_r up to the top (one per generator name xi), and a
map mu from principal congruences of L (masks over J(Con L)) into the
generated semilattice, extended to arbitrary congruences by joining the
listed values below them.  An instance is read complete: n, the largest
chain index, is fixed at parse time, and a missing z[r][i][xi] is a
FormatError.  The validator itemizes every premise, walking each chain
once; the equality checks E_r(X, Y) and the quantified statements
P(k, l) evaluate the chain data directly and report failures as data,
not errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from . import conlat, expr, freepairs
from .conlat import FinAlgebra, FormatError, epsilon


@dataclass
class DescentInstance:
    algebra: FinAlgebra
    omega: tuple
    t: tuple
    z: dict  # (r, i, xi) -> element, for every r < m, 0 <= i <= n and xi in omega
    n: int
    mu_lines: tuple
    u_set: tuple
    _mu_hat_memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.t)

    @cached_property
    def mu(self) -> dict:
        """Each listed pair's Θ(x, y), as a mask, to its value: the first listing
        wins (it is read last); conflicting duplicates are a validator finding."""
        pmask, n = self.algebra.con_index.pmask, self.algebra.size
        return {pmask[x * n + y]: value for x, y, value in reversed(self.mu_lines)}

    def mu_hat(self, m: int):
        """mu extended by joins: the join of the listed values whose key lies
        inside the congruence mask m."""
        if m not in self._mu_hat_memo:
            self._mu_hat_memo[m] = freepairs.join_all(v for p, v in self.mu.items() if p & ~m == 0)
        return self._mu_hat_memo[m]

    def mu_theta(self, x: int, y: int):
        return self.mu_hat(self.algebra.con_index.pmask[x * self.algebra.size + y])


@dataclass
class Report:
    items: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def failed(self) -> list:
        return [name for name, ok, _ in self.items if not ok]

    def lines(self) -> list:
        out = []
        for name, ok, detail in self.items:
            mark = "ok" if ok else "fail"
            out.append(f"{mark} {name}" + (f": {detail}" if detail else ""))
        return out


def validate_instance(D: DescentInstance) -> Report:
    """Itemized check of the instance invariants and premises."""
    rep = Report()
    L = D.algebra
    rep.add("algebra-has-top", L.top is not None)
    if L.top is None:
        return rep
    top = L.top

    chains = [
        (r, xi, [D.z[r, i, xi] for i in range(D.n + 1)]) for r in range(D.m) for xi in D.omega
    ]
    rep.add("z-starts-at-t", all(zs[0] == D.t[r] for r, _, zs in chains))
    rep.add("z-ends-at-top", all(zs[-1] == top for _, _, zs in chains))
    rep.add("t-below-z", all(L.leq(D.t[r], e) for r, _, zs in chains for e in zs))

    bad_mu = []
    for x, y, value in D.mu_lines:
        if D.mu_theta(x, y) != value:
            bad_mu.append(f"({x},{y})")
    rep.add(
        "mu-consistent-on-principals",
        not bad_mu,
        "; ".join(bad_mu),
    )

    con = L.con_index
    masks = con.jmask
    witness = next(
        (
            f"{con.cons[i].serialize()} v {con.cons[j].serialize()}"
            for (i, a), (j, b) in itertools.product(enumerate(masks), repeat=2)
            if D.mu_hat(masks[con.join(a | b)]) != freepairs.join(D.mu_hat(a), D.mu_hat(b))
        ),
        "",
    )
    rep.add("mu-join-homomorphism", not witness, witness)
    rep.add("mu-zero", D.mu_hat(0) == freepairs.ZERO)  # mask 0: the identity congruence

    decomposition = freepairs.join_all(
        D.mu_theta(D.t[r], top) for r in range(D.m)
    )
    rep.add(
        "decomposition-of-one",
        decomposition == freepairs.ONE,
        freepairs.serialize(decomposition),
    )

    bad = [
        f"(r={r},i={i},xi={xi})"
        for r, xi, zs in chains
        for i in range(D.n)
        if not freepairs.leq(D.mu_theta(zs[i], zs[i + 1]), freepairs.gen(epsilon(i), xi))
    ]
    rep.add("chain-bounds", not bad, "; ".join(bad))

    rep.add("mu-separates-zero", all(D.mu_hat(m) != freepairs.ZERO for m in masks if m))
    return rep


def check_er(D: DescentInstance, r: int, k: int, X, Y) -> bool:
    """The equality E_r(X, Y): chain entries at depth k over X joined
    with entries one deeper over Y reach the top."""
    X, Y = frozenset(X), frozenset(Y)
    if X & Y:
        raise ValueError("X and Y must be disjoint")
    if not 0 <= r < D.m:
        raise ValueError(f"r must be below {D.m}")
    if k < 0 or D.n - k - 1 < 0:
        raise ValueError("k out of range for the chain length")
    if not (X | Y).issubset(D.omega):
        raise ValueError(f"name {min((X | Y) - set(D.omega))!r} has no chain")
    return _er(D, r, k, sorted(X), sorted(Y))


def _er(D: DescentInstance, r: int, k: int, X, Y) -> bool:
    """E_r(X, Y) on arguments check_er would accept, X and Y sorted."""
    items = [D.z[r, D.n - k, xi] for xi in X] + [D.z[r, D.n - k - 1, eta] for eta in Y]
    return D.algebra.join_all(items) == D.algebra.top


@dataclass
class PReport:
    k: int
    l: int
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def vacuous(self) -> bool:
        return self.instances == 0

    @property
    def ok(self) -> bool:
        return not self.failures


P_INSTANCE_LIMIT = 10**6


def check_p(D: DescentInstance, k: int, l: int) -> PReport:
    """Evaluate the quantified statement P(k, l) over the designated U.

    Failures are reported with their witnessing (r, X, Y); on arbitrary
    instances they are informative, not errors.  Over P_INSTANCE_LIMIT
    instances (r, X, Y), counted first, is a ValueError.
    """
    if not 0 <= k <= D.n - 1:
        raise ValueError("k must be between 0 and n-1")
    if not 0 <= l <= 2**k:
        raise ValueError("l must be between 0 and 2^k")
    U = sorted(D.u_set)
    size_x = 2**k - l
    size_y = 2 * l
    count = D.m * math.comb(len(U), size_x + size_y) * math.comb(size_x + size_y, size_x)
    if count > P_INSTANCE_LIMIT:
        raise ValueError(f"P({k},{l}) has {count} instances, more than {P_INSTANCE_LIMIT}")
    rep = PReport(k, l, count)
    for X in itertools.combinations(U, size_x):
        rest = [u for u in U if u not in X]
        for Y in itertools.combinations(rest, size_y):
            for r in range(D.m):
                if not _er(D, r, k, X, Y):
                    rep.failures.append((r, tuple(X), tuple(Y)))
    return rep


# ---------------------------------------------------------------------------
# File format


def parse_instance(text: str) -> DescentInstance:
    """Algebra directives plus ``t <r> <elem>``, ``z <r> <i> <name> <elem>``,
    ``mu <x> <y> <expression>`` and optional ``U <names>`` lines."""
    z_label = "z %d %d %s".__mod__
    found = conlat.read_directives(
        text,
        {
            **conlat.ALGEBRA_DIRECTIVES,
            "t": conlat.Directive(2, lambda a: (int(a[0]), int(a[1])), label="t {}".format),
            "z": conlat.Directive(
                4,
                lambda a: ((int(a[0]), int(a[1]), expr.parse_name(a[2])), int(a[3])),
                label=z_label,
            ),
            "mu": conlat.Directive(
                None, lambda a: (int(a[0]), int(a[1]), expr.parse_eval(" ".join(a[2:])))
            ),
            "U": conlat.Directive(None, conlat.distinct_names, once=True),
        },
    )
    L = conlat.read_algebra(found)
    t_entries, z, mu_lines, u_names = found["t"], found["z"], found["mu"], found["U"]
    elements = [(f"t {r}", e) for r, e in t_entries.items()]
    elements += [(z_label(key), e) for key, e in z.items()]
    elements += [(f"mu {x} {y}", e) for x, y, _ in mu_lines for e in (x, y)]
    for entry, e in elements:
        if not 0 <= e < L.size:
            raise FormatError(f"{entry}: element {e} not in 0..{L.size - 1}")
    if sorted(t_entries) != list(range(len(t_entries))) or not t_entries:
        raise FormatError("t lines must cover 0..m-1")
    t = tuple(t_entries[r] for r in range(len(t_entries)))
    if not z:
        raise FormatError("no z lines")
    for r, i, xi in z:
        if not 0 <= r < len(t):
            raise FormatError(f"z {r} {i} {xi}: row {r} not in 0..{len(t) - 1}")
        if i < 0:
            raise FormatError(f"z {r} {i} {xi}: chain index {i} below 0")
    omega = tuple(sorted({xi for (_, _, xi) in z}))
    n = max(i for (_, i, _) in z)
    for key in itertools.product(range(len(t)), range(n + 1), omega):
        if key not in z:
            raise FormatError(
                f"{z_label(key)}: missing; each name needs a z line for every r in"
                f" 0..{len(t) - 1} and i in 0..{n}"
            )
    if u_names is None:
        u_names = omega
    if not set(u_names) <= set(omega):
        raise FormatError("U mentions names outside the z lines")
    return DescentInstance(L, omega, t, z, n, tuple(mu_lines), u_names)


# ---------------------------------------------------------------------------
# Bundled fixture and its mutation suite


FIXTURE = """\
alg 4
op meet 2 0 0 0 0 0 1 0 1 0 0 2 2 0 1 2 3
op vee 2 0 1 2 3 1 1 3 3 2 3 2 3 3 3 3 3
join vee
top 3
t 0 0
z 0 0 u 0
z 0 1 u 1
z 0 2 u 3
mu 0 0 0
mu 0 1 a0(u)
mu 0 2 a1(u)
mu 0 3 1
mu 1 3 a1(u)
mu 2 3 a0(u)
U u
"""


def fixture() -> DescentInstance:
    """The bundled 4-element square-lattice instance over one name."""
    return parse_instance(FIXTURE)


@dataclass(frozen=True)
class Mutation:
    name: str
    old: str
    new: str
    detector: str  # validate | er | p

    def apply(self, text: str) -> str:
        if text.count(self.old) != 1:
            raise ValueError(f"mutation {self.name}: ambiguous target")
        return text.replace(self.old, self.new)


MUTATIONS = (
    Mutation("z-start-off-t", "z 0 0 u 0", "z 0 0 u 1", "validate"),
    Mutation("t-moved", "t 0 0", "t 0 1", "validate"),
    Mutation("t-not-below-z", "t 0 0", "t 0 2", "validate"),
    Mutation("mu-pair-conflict", "mu 1 3 a1(u)", "mu 1 3 a0(u)", "validate"),
    Mutation("mu-not-hom", "mu 0 3 1", "mu 0 3 a0(u)", "validate"),
    Mutation("mu-chain-bound", "mu 0 1 a0(u)", "mu 0 1 1", "validate"),
    Mutation("mu-swapped-sides", "mu 0 1 a0(u)", "mu 0 1 a1(u)", "validate"),
    Mutation("mu-kills-zero-separation", "mu 0 1 a0(u)", "mu 0 1 0", "validate"),
    Mutation("mu-nonzero-identity", "mu 0 0 0", "mu 0 0 a0(u)", "validate"),
    Mutation("top-line-dropped", "top 3\n", "", "validate"),
    Mutation("z-top-to-atom", "z 0 2 u 3", "z 0 2 u 1", "er"),
    Mutation("z-top-to-other-atom", "z 0 2 u 3", "z 0 2 u 2", "er"),
    Mutation("z-top-to-zero", "z 0 2 u 3", "z 0 2 u 0", "er"),
    Mutation("z-top-p-atom", "z 0 2 u 3", "z 0 2 u 1", "p"),
    Mutation("z-top-p-zero", "z 0 2 u 3", "z 0 2 u 0", "p"),
)


# The fixture's three checks, by detector name: each holds on the fixture.
DETECTORS = {
    "validate": lambda D: validate_instance(D).ok,
    "er": lambda D: check_er(D, 0, 0, {"u"}, set()),
    "p": lambda D: check_p(D, 0, 0).ok,
}


def mutation_detected(mut: Mutation) -> bool:
    """Whether the targeted checker flags the mutated fixture."""
    return not DETECTORS[mut.detector](parse_instance(mut.apply(FIXTURE)))
