"""Oracles shared by several test modules."""

from functools import reduce

from slat.conlat import Congruence
from slat.freedist import DomainError, Node, Triple


def refines(c1: Congruence, c2: Congruence) -> bool:
    """Whether every c1-class is contained in a c2-class: each c1 block id
    pairs with a single c2 block id."""
    return len(set(zip(c1.block_of, c2.block_of))) == len(set(c1.block_of))


def scan_join(jmask: tuple, m: int) -> int:
    """The index of the join of the join-irreducibles that m sets, by a scan
    of every congruence's mask in jmask: the congruence whose mask is m if
    there is one, else the upper bound (mask holding m) with the fewest mask
    bits.  The oracle for Congruences.join."""
    if m in jmask:
        return jmask.index(m)
    ups = [i for i, k in enumerate(jmask) if k & m == m]
    return min(ups, key=lambda i: jmask[i].bit_count())


# -- the lifted join and order kernel ----------------------------------------
#
# The extension's order and join as computed before the rewrite read each
# operand's projection and triples directly: both operands are lifted to
# the higher rank as a set holding the projection as a diagonal triple
# <p, p, p>, and a lower-rank operand as its own diagonal.  These functions
# call each other and the base only, never freedist's memo tables, so they
# are an independent oracle for freedist.leq, join, join_with_order and
# map_elem, and lifted_key for the canonical order of triples.


def is_diagonal(t: Triple) -> bool:
    return t.u == t.v == t.w


def lifted_rank(x) -> int:
    if not isinstance(x, Node):
        return 0
    parts = [x.proj] + [c for t in x.triples for c in t]
    return 1 + max(lifted_rank(p) for p in parts)


def lifted_serialize(base, x) -> str:
    if not isinstance(x, Node):
        return base.serialize(x)
    triples = ", ".join(
        "(%s,%s,%s)" % tuple(lifted_serialize(base, c) for c in t)
        for t in x.triples
    )
    return f"red({lifted_serialize(base, x.proj)}; [{triples}])"


def lifted_key(base, t: Triple):
    return tuple(lifted_serialize(base, c) for c in t)


def lift(x, r):
    """x seen at rank r >= 1, diagonal first: a lower-rank x is its own
    diagonal."""
    if isinstance(x, Node) and lifted_rank(x) == r:
        return (Triple(x.proj, x.proj, x.proj),) + x.triples
    return (Triple(x, x, x),)


def lifted_set(x, y) -> frozenset:
    """Both operands lifted to the higher of their ranks, as one set."""
    r = max(lifted_rank(x), lifted_rank(y))
    return frozenset(lift(x, r) + lift(y, r))


def lifted_leq(base, x, y) -> bool:
    if x == y:
        return True
    if not isinstance(x, Node) and not isinstance(y, Node):
        return base.leq(x, y)
    r = max(lifted_rank(x), lifted_rank(y))
    ly = lift(y, r)
    py = ly[0].u
    for t in lift(x, r):
        if t not in ly and not (
            lifted_leq(base, t.u, py) or lifted_leq(base, t.w, py)
        ):
            return False
    return True


def lifted_step1(ws: frozenset):
    """Merge every swapped pair of non-diagonal triples into the diagonal
    of its third entry; None if there is none."""
    merged = {
        t for t in ws if not is_diagonal(t) and Triple(t.v, t.u, t.w) in ws
    }
    if not merged:
        return None
    return ws - merged | {Triple(t.w, t.w, t.w) for t in merged}


def lifted_phi(base, ws: frozenset):
    """Fuse the diagonals into the projection: (their join, the rest)."""
    diags = {t for t in ws if is_diagonal(t)}
    vals = sorted({t.u for t in diags}, key=lambda v: lifted_serialize(base, v))
    return reduce(lambda a, b: lifted_join(base, a, b), vals), ws - diags


def lifted_join(base, x, y, rng=None):
    """The join; with rng, step 2's choices are drawn from it as in
    freedist.join_with_order."""
    if not isinstance(x, Node) and not isinstance(y, Node):
        return base.join(x, y)
    ws = lifted_set(x, y)
    p, rest = lifted_phi(base, lifted_step1(ws) or ws)
    while True:
        cands = [t for t in rest if lifted_leq(base, t.v, p)]
        if not cands:
            break
        cands.sort(key=lambda t: lifted_key(base, t))
        t = rng.choice(cands) if rng is not None else cands[0]
        p, rest = lifted_join(base, t.w, p), rest - {t}
    keep = [
        t for t in rest
        if not lifted_leq(base, t.u, p) and not lifted_leq(base, t.w, p)
    ]
    if not keep:
        return p
    return Node(p, tuple(sorted(set(keep), key=lambda t: lifted_key(base, t))))


def lifted_bowtie(base, a, b, c):
    """freedist.bowtie on the lifted kernel."""
    if not lifted_leq(base, c, lifted_join(base, a, b)):
        raise DomainError("not in C(S)")
    zero = base.ZERO
    if a == b or b == zero or c == zero:
        return c
    if a == zero:
        return zero
    return Node(zero, (Triple(a, b, c),))


def lifted_map(dst, f, x):
    """freedist.map_elem on the lifted kernel, keeping no images: every
    occurrence of a sub-value is mapped, split and re-joined again."""
    if not isinstance(x, Node):
        return f(x)
    out = lifted_map(dst, f, x.proj)
    for t in x.triples:
        img = lifted_bowtie(dst, *(lifted_map(dst, f, c) for c in t))
        out = lifted_join(dst, out, img)
    return out
