"""Free distributive extension of a (join, 0)-semilattice.

Elements are layered over a base semilattice, passed as the first
argument of every operation here.  A base is any object with a ``ZERO``
attribute and ``join(a, b)``, ``leq(a, b)`` and ``serialize(a)``
functions, looked up on it at each call; the ``slat.pairs`` module is
one.  A value of the extension is either a raw base value (rank 0) or a
``Node``: a projection together with a nonempty set of triples
``<u, v, w>`` drawn one rank down, stored in canonical form:

  * every triple satisfies ``w <= u v v``;
  * no stored triple has ``u == v`` (in particular none is diagonal --
    the diagonal is carried by the projection);
  * no two stored triples are swaps ``<u,v,w>`` / ``<v,u,w>`` of each
    other;
  * no entry of a stored triple lies below the projection;
  * triples are sorted by their serialization, so structural equality of
    canonical forms is equality in the extension and equal elements
    serialize identically; each triple's key, ``triple_key``, is memoized
    per base like ``serialize``, so a sort pays one lookup a triple.

``bowtie(a, b, c)`` adjoins, for ``c <= a v b``, an element below ``a``
which joins with its mirror ``bowtie(b, a, c)`` back to ``c``; iterating
the extension therefore forces distributivity.

Joins are computed by rewriting the union of the two stored triple sets
beside both projections, each operand read at the higher rank (a node
carries its rank, fixed when it is interned; a lower-rank operand is its
own projection with no triples):

  1. ``step1``  -- find the triples in swapped pairs, in one pass;
  2. ``phi``    -- join both projections and the merged pairs' third
                   entries into the projection, and return it beside
                   the other triples, the pair ``step2`` and ``psi`` take;
  3. ``step2``  -- absorb a triple whose middle entry sits below the
                   projection, raising the projection by its third
                   entry, repeated to a fixpoint;
  4. ``psi``    -- drop triples whose first or last entry sits below the
                   projection and package the survivors.

A join skips ``step2`` and ``psi`` when ``phi``'s projection is the
projection of each operand that brings triples (a lower-rank operand
brings none, so it need only lie below the other's projection).  That is
sound: a merged pair's third entry lies below neither operand's
projection and would raise the joined one, so no pair merged and the
triples left are the operands' own, none with an entry below its own
projection, the joined one: ``step2`` has no candidate, ``psi`` no drop.

The swapped pairs are disjoint and a merge adds only to the projection,
so step 1 has no choice to make.  The choice inside step 2's fixpoint is
resolved lexicographically by serialization; ``join_with_order`` replays
the same pipeline with a caller-supplied random order there (the
canonical result must not depend on the choice, and the suites check
that it does not).

``map_elem`` extends a base homomorphism, mapping each distinct
sub-value once per call and keeping no image after it.

Values built here are canonical by construction and are not rechecked;
``validate`` checks what ``expr.deserialize`` reads and is the tests' oracle.

Recursion throughout is bounded by rank (each recursive call drops at
least one rank), so nesting depth well beyond rank 4 fits in the default
interpreter stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Any, NamedTuple


class DomainError(ValueError):
    """A value fell outside an operation's domain (e.g. not in C(S))."""


class ReducedFormError(ValueError):
    """A purported element violates the canonical reduced form."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class Triple(NamedTuple):
    u: Any
    v: Any
    w: Any


# The one node of each value, keyed by its fields.
_INTERNED: dict = {}


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Node:
    """An element of rank >= 1, hash-consed: one object per value.

    Building a node whose fields equal an existing one returns the
    existing object, so ``==`` is identity and the hash is the identity
    hash inherited from ``object``.  ``rank`` is set once, on interning.
    """

    proj: Any
    triples: tuple
    rank: int

    def __new__(cls, proj, triples):
        key = (proj, triples)
        n = _INTERNED.get(key)
        if n is not None:
            return n
        r = proj.rank if isinstance(proj, Node) else 0
        for t in triples:
            for c in t:
                if isinstance(c, Node) and c.rank > r:
                    r = c.rank
        n = object.__new__(cls)
        object.__setattr__(n, "proj", proj)
        object.__setattr__(n, "triples", triples)
        object.__setattr__(n, "rank", r + 1)
        _INTERNED[key] = n
        return n

    def __reduce__(self):
        # copy and pickle rebuild through __new__, so they intern too.
        return Node, (self.proj, self.triples)

    def __repr__(self):
        triples = ", ".join(f"({t.u!r},{t.v!r},{t.w!r})" for t in self.triples)
        return f"red({self.proj!r}; [{triples}])"


# Memoized only for bench/layertrace.py's cache_info; the kernels read Node.rank.
@lru_cache(maxsize=None)
def rank(x) -> int:
    return x.rank if isinstance(x, Node) else 0


@lru_cache(maxsize=None)
def serialize(base, x) -> str:
    if not isinstance(x, Node):
        return base.serialize(x)
    triples = ", ".join(
        "(%s,%s,%s)" % tuple(serialize(base, c) for c in t) for t in x.triples
    )
    return f"red({serialize(base, x.proj)}; [{triples}])"


@lru_cache(maxsize=None)
def triple_key(base, t: Triple):
    return tuple(serialize(base, c) for c in t)


def make_node(base, projection, triples):
    """Package a projection and surviving triples, deduplicated unless a
    frozenset, as a canonical element in memoized ``triple_key`` order."""
    if not isinstance(triples, frozenset):
        triples = set(triples)
    ts = sorted(triples, key=partial(triple_key, base))
    if not ts:
        return projection
    return Node(projection, tuple(ts))


@lru_cache(maxsize=None)
def leq(base, x, y) -> bool:
    if x == y:
        return True
    if not isinstance(x, Node) and not isinstance(y, Node):
        return base.leq(x, y)
    px, tx, py, ty = _at_common_rank(x, y)
    if not (px == py or leq(base, px, py)):
        return False
    for t in tx:
        if not (t in ty or leq(base, t.u, py) or leq(base, t.w, py)):
            return False
    return True


@lru_cache(maxsize=None)
def join(base, x, y):
    if not isinstance(x, Node) and not isinstance(y, Node):
        return base.join(x, y)
    return _rewrite_join(base, x, y, None)


def join_with_order(base, x, y, rng):
    """The join pipeline, step 2's choices drawn from rng (uncached)."""
    if not isinstance(x, Node) and not isinstance(y, Node):
        return base.join(x, y)
    return _rewrite_join(base, x, y, rng)


def join_all(base, items):
    items = iter(items)
    acc = next(items, base.ZERO)
    for it in items:
        acc = join(base, acc, it)
    return acc


def _rewrite_join(base, x, y, rng):
    px, tx, py, ty = _at_common_rank(x, y)
    ts = frozenset(tx + ty)
    p, rest = phi(base, px, py, ts, step1(base, ts))
    if (p == px or not tx) and (p == py or not ty):
        # p settles both operands: step 2 and psi have nothing to do.
        return make_node(base, p, rest)
    while (nxt := step2(base, p, rest, rng)) is not None:
        p, rest = nxt
    return psi(base, p, rest)


def _at_common_rank(x, y):
    # Both operands at the higher rank, as (projection, stored triples):
    # a lower-rank operand is its own projection with no triples.
    rx = x.rank if isinstance(x, Node) else 0
    ry = y.rank if isinstance(y, Node) else 0
    px, tx = (x.proj, x.triples) if rx >= ry else (x, ())
    py, ty = (y.proj, y.triples) if ry >= rx else (y, ())
    return px, tx, py, ty


def step1(base, ts: frozenset):
    """The triples that lie in swapped pairs; None if there are none."""
    merged = frozenset(t for t in ts if (t[1], t[0], t[2]) in ts)
    return merged or None


def phi(base, px, py, ts: frozenset, merged):
    """Join the projections and the merged third entries: (it, the rest)."""
    if px == py and not merged:
        return px, ts
    vals = {px, py}
    if merged:
        vals.update(t.w for t in merged)
        ts = ts - merged
    vals = sorted(vals, key=lambda v: serialize(base, v))
    return reduce(lambda a, b: join(base, a, b), vals), ts


def step2(base, p, rest: frozenset, rng=None):
    """Absorb one triple whose middle entry is below the projection p.

    Returns the projection raised by the absorbed triple's third entry,
    with the triples left; None when no triple applies.
    """
    cands = [t for t in rest if leq(base, t.v, p)]
    if not cands:
        return None
    key = partial(triple_key, base)
    t = min(cands, key=key) if rng is None else rng.choice(sorted(cands, key=key))
    return join(base, t.w, p), rest - {t}


def psi(base, p, rest: frozenset):
    """Drop triples dominated by p and package the rest with projection p."""
    keep = [
        t for t in rest if not leq(base, t.u, p) and not leq(base, t.w, p)
    ]
    return make_node(base, p, keep)


def bowtie(base, a, b, c):
    """The splitting element for c <= a v b; below a, mirror-joins to c.

    Raises DomainError when c <= a v b fails.
    """
    if not leq(base, c, join(base, a, b)):
        raise DomainError("not in C(S)")
    zero = base.ZERO
    if a == b or b == zero or c == zero:
        return c
    if a == zero:
        return zero
    return Node(zero, (Triple(a, b, c),))


def map_elem(dst, f, x):
    """Extend a base homomorphism f into the base dst over the whole extension.

    Decomposes x into its projection and per-triple splitting elements,
    maps each through f, and re-joins, each distinct sub-value once.
    """
    images = {}

    def image(y):
        if y not in images:
            if isinstance(y, Node):
                out = image(y.proj)
                for t in y.triples:
                    img = bowtie(dst, image(t.u), image(t.v), image(t.w))
                    out = join(dst, out, img)
            else:
                out = f(y)
            images[y] = out
        return images[y]

    return image(x)


@lru_cache(maxsize=None)
def validate(base, x):
    """Check every canonical-form invariant recursively.

    Returns x unchanged, or raises ReducedFormError naming the violated
    condition.  Values built here are canonical by construction, so this
    checks what ``expr.deserialize`` reads and is the tests' oracle.
    """
    if not isinstance(x, Node):
        return x
    if not x.triples:
        raise ReducedFormError("empty-triples", "node with no triples")
    validate(base, x.proj)
    tset = set(x.triples)
    keys = []
    for t in x.triples:
        for comp in t:
            validate(base, comp)
        if t.u == t.v:
            raise ReducedFormError(
                "condition-2", f"triple {t} has equal first entries"
            )
        if Triple(t.v, t.u, t.w) in tset:
            raise ReducedFormError(
                "condition-2", f"swapped pair {t} present"
            )
        if not leq(base, t.w, join(base, t.u, t.v)):
            raise ReducedFormError("c-condition", f"triple {t} not in C(S)")
        if (
            leq(base, t.u, x.proj)
            or leq(base, t.v, x.proj)
            or leq(base, t.w, x.proj)
        ):
            raise ReducedFormError(
                "condition-3", f"triple {t} dominated by the projection"
            )
        keys.append(triple_key(base, t))
    if keys != sorted(keys):
        raise ReducedFormError("ordering", "triples not canonically sorted")
    if len(set(keys)) != len(keys):
        raise ReducedFormError("ordering", "duplicate triples")
    return x
