"""Congruences of finite algebras given by operation tables.

Algebras carry named unary/binary operation tables over a carrier
0..k-1, a designated join table (which need not be a basic operation),
and an optional top element.  Congruence generation closes only under
the basic operations; compatibility of the designated join with the
congruences is a separate checked property.

Partitions are canonical as block-id arrays indexed by element, ids
numbered by first occurrence; serialization lists blocks ordered by
least member, which fixes all output byte-exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_, eq, itemgetter, ne, or_
from typing import Callable, NamedTuple

from . import freedist


class FormatError(ValueError):
    """Malformed algebra / table / map file."""


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Congruence:
    block_of: tuple

    @property
    def size(self) -> int:
        return len(self.block_of)

    def blocks(self) -> tuple:
        out = {}
        for x, b in enumerate(self.block_of):
            out.setdefault(b, []).append(x)
        return tuple(tuple(out[b]) for b in sorted(out))

    def relates(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def serialize(self) -> str:
        return "{%s}" % ",".join(
            "{%s}" % ",".join(str(x) for x in blk) for blk in self.blocks()
        )

    def __repr__(self):
        return self.serialize()


def _renumbered(raw) -> tuple:
    """The labels in raw renamed 0, 1, ... in order of first occurrence."""
    seen = {}
    return tuple([seen.setdefault(b, len(seen)) for b in raw])


def congruence_from_blockof(raw) -> Congruence:
    return Congruence(_renumbered(raw))


def congruence_from_blocks(size: int, blocks) -> Congruence:
    raw = [None] * size
    for i, blk in enumerate(blocks):
        for x in blk:
            if raw[x] is not None:
                raise ValueError(f"element {x} in two blocks")
            raw[x] = i
    if None in raw:
        raise ValueError("blocks do not cover the carrier")
    return congruence_from_blockof(raw)


def identity_congruence(size: int) -> Congruence:
    return Congruence(tuple(range(size)))


def _merge(n: int, pending: list, images) -> Congruence:
    """The finest partition of 0..n-1 relating the pending pairs and, with
    each pair (a, b) it relates, the distinct pairs in zip(images[a], images[b])."""
    block = list(range(n))
    members = [[a] for a in range(n)]
    while pending:
        a, b = pending.pop()
        ra, rb = block[a], block[b]
        if ra == rb:
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for c in members[rb]:
            block[c] = ra
        members[ra] += members[rb]
        ia, ib = images[a], images[b]
        pending += itertools.compress(zip(ia, ib), map(ne, ia, ib))
    return congruence_from_blockof(block)


@lru_cache(maxsize=None)
def part_join(c1: Congruence, c2: Congruence) -> Congruence:
    """The finest partition that c1 and c2 refine: each element tied to the
    least member of its block in each, merged with no images."""
    ties = [(blk[0], x) for c in (c1, c2) for blk in c.blocks() for x in blk[1:]]
    return _merge(c1.size, ties, ((),) * c1.size)


@lru_cache(maxsize=None)
def part_meet(c1: Congruence, c2: Congruence) -> Congruence:
    return congruence_from_blockof(zip(c1.block_of, c2.block_of))


def all_partitions(size: int):
    """Every partition of 0..size-1 (oracle-scale carriers only)."""
    if size == 0:
        yield Congruence(())
        return
    for small in all_partitions(size - 1):
        nblocks = len(set(small.block_of))
        for b in range(nblocks + 1):
            yield Congruence(small.block_of + (b,))


# ---------------------------------------------------------------------------
# Algebras


class Operation(NamedTuple):
    name: str
    arity: int
    table: tuple


@dataclass(frozen=True)
class FinAlgebra:
    size: int
    ops: tuple
    join: tuple
    top: int | None = None

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Memo tables key on algebras: hash the op tables once, not per lookup.
        return hash((self.size, self.ops, self.join, self.top))

    @cached_property
    def con_index(self) -> Congruences:
        """Con A of this algebra, built once (see Congruences)."""
        return all_congruences(self)

    @cached_property
    def join_compatible(self) -> bool:
        """Whether every congruence is compatible with the designated join:
        true by definition when the join is a basic operation.  Otherwise the
        principal congruences suffice: a table that respects two equivalences
        respects their join, and every congruence is a join of principal ones."""
        if self.join_name is not None:
            return True
        con = self.con_index
        principal = (con.cons[con.join(m)] for m in set(con.pmask))
        return all(is_compatible(self, c, table=self.join) for c in principal)

    @cached_property
    def join_name(self) -> str | None:
        """The basic binary operation whose table is the designated join, if any."""
        ops = (op.name for op in self.ops if op.arity == 2 and op.table == self.join)
        return next(ops, None)

    @cached_property
    def order(self) -> tuple:
        """(down, up): for each element x, the bitmask of the elements at or
        below x and that of the elements at or above x, in the order of the
        designated join."""
        n, join = self.size, self.join
        down, up = [0] * n, [0] * n
        for a in range(n):
            for b, s in enumerate(join[a * n:a * n + n]):
                if s == b:  # a ≤ b
                    up[a] |= 1 << b
                    down[b] |= 1 << a
        return down, up

    @cached_property
    def covers(self) -> tuple:
        """For each element a, the elements that cover a in the order of the
        designated join, in increasing label order."""
        n, (down, up) = self.size, self.order
        # b covers a when the interval from a to b holds a and b alone.
        return tuple(
            tuple(b for b in range(n) if b != a and up[a] & down[b] == 1 << a | 1 << b)
            for a in range(n)
        )

    @cached_property
    def zero(self) -> int | None:
        """The neutral element of the designated join, if one exists: the
        element whose up-set holds every element."""
        full = (1 << self.size) - 1
        return next((e for e, u in enumerate(self.order[1]) if u == full), None)

    @cached_property
    def meet_name(self) -> str | None:
        """The basic binary operation whose table is the greatest-lower-bound
        table of the designated join's order, if any."""
        meet = bound_table(self.order[0])
        ops = (op.name for op in self.ops if op.arity == 2 and op.table == meet)
        return next(ops, None)

    @cached_property
    def translations(self) -> tuple:
        """For each element a, the images of a under every basic translation.

        The images are f(a) for each unary op f, the row f(a, z) for each
        binary op f, and the column f(z, a) as well when f's table is not
        commutative (for a commutative f the column repeats the row).  Every
        element's tuple lists the translations in the same order, so zipping
        the tuples of a and b pairs each image of a with that of b.
        """
        n = self.size
        streams = []
        for op in self.ops:
            t = op.table
            if op.arity == 1:
                streams.append([t[a:a + 1] for a in range(n)])
                continue
            rows = [t[a * n:a * n + n] for a in range(n)]
            streams.append(rows)
            cols = [t[a::n] for a in range(n)]
            if cols != rows:
                streams.append(cols)
        return tuple(
            tuple(itertools.chain.from_iterable(s[a] for s in streams)) for a in range(n)
        )

    def join_of(self, a: int, b: int) -> int:
        return self.join[a * self.size + b]

    def leq(self, a: int, b: int) -> bool:
        return self.join_of(a, b) == b

    def join_all(self, items) -> int:
        """The join of items; of no items, the zero if there is one."""
        items = list(items)
        if not items and self.zero is None:
            raise freedist.DomainError("empty join with no zero element")
        return reduce(self.join_of, items) if items else self.zero


def bound_table(masks) -> tuple:
    """Row-major, the element whose mask is masks[a] & masks[b], or None:
    the joins when the (distinct) masks are the elements' up-sets, as the
    elements above a lub are those above both; the meets for down-sets."""
    where = {m: x for x, m in enumerate(masks)}
    return tuple(where.get(ma & mb) for ma in masks for mb in masks)


def _check_semilattice_table(A: FinAlgebra) -> FinAlgebra:
    """A, with its ``order`` cached, if its join table (a tuple) is idempotent,
    commutative and associative; else a ValueError naming the first failing cell.

    With a ≤ b when a v b = b, an idempotent, commutative table is
    associative exactly when up[a v b] == up[a] & up[b] for all a, b: then
    b ≤ c gives up[c] ⊆ up[b] (transitivity) and a v b is the least upper
    bound.  Only a table that fails this O(n²) test is walked, in the order
    idempotence at a, then for each b commutativity at (a, b) and, as one
    tuple over c, associativity at (a, b, c).
    """
    size, table = A.size, A.join
    if len(table) != size * size:
        raise ValueError(f"join table needs {size * size} entries")
    if table and (min(table) < 0 or max(table) >= size):
        raise ValueError("join table entry out of range")
    rows = [table[a * size:a * size + size] for a in range(size)]
    up = A.order[1]
    if not (
        table[::size + 1] == tuple(range(size))
        and rows == [table[a::size] for a in range(size)]
        and all(list(map(up.__getitem__, r)) == [u & v for v in up] for r, u in zip(rows, up))
    ):
        # across[b] takes row a to a v (b v c) for each c.  Tables of size
        # < 2 pass the test above, so every getter returns a tuple.
        across = [itemgetter(*r) for r in rows]
        for a, row in enumerate(rows):
            if row[a] != a:
                raise ValueError(f"join not idempotent at {a}")
            for b in range(size):
                if row[b] != rows[b][a]:
                    raise ValueError(f"join not commutative at ({a},{b})")
                left, right = rows[row[b]], across[b](row)
                if left != right:
                    c = list(map(ne, left, right)).index(True)
                    raise ValueError(f"join not associative at ({a},{b},{c})")
    return A


def fin_algebra(size, ops, join, top=None) -> FinAlgebra:
    if size < 1:
        raise ValueError("carrier must have at least one element")
    ops = tuple(Operation(n, a, tuple(t)) for n, a, t in ops)
    for op in ops:
        if op.arity not in (1, 2):
            raise ValueError(f"operation {op.name}: arity must be 1 or 2")
        if len(op.table) != size**op.arity:
            raise ValueError(f"operation {op.name}: wrong table size")
        if min(op.table) < 0 or max(op.table) >= size:
            raise ValueError(f"operation {op.name}: entry out of range")
    A = _check_semilattice_table(FinAlgebra(size, ops, tuple(join), top))
    if top is not None and not 0 <= top < size:
        raise ValueError("top out of range")
    if top is not None and A.order[0][top] != (1 << size) - 1:
        raise ValueError(f"top {top} is not the greatest element")
    return A


# ---------------------------------------------------------------------------
# Congruence generation


def _induced(c: Congruence, table, arity: int) -> tuple | None:
    """The table that a table of this arity induces on c's blocks, row-major by block
    id; None where it is not well defined (related arguments, unrelated images)."""
    proj, induced = c.block_of, {}
    for args, image in zip(itertools.product(proj, repeat=arity), table):
        if induced.setdefault(args, proj[image]) != proj[image]:
            return None
    return tuple(v for _, v in sorted(induced.items()))


def is_compatible(L: FinAlgebra, c: Congruence, table=None) -> bool:
    """Whether c is compatible with every basic operation (or with the one
    binary table given): each induces a well-defined table on c's blocks."""
    tables = [(table, 2)] if table is not None else [(op.table, op.arity) for op in L.ops]
    return all(_induced(c, t, arity) is not None for t, arity in tables)


@lru_cache(maxsize=None)
def theta(L: FinAlgebra, x: int, y: int) -> Congruence:
    """Least congruence of the basic operations identifying x and y.

    Worklist closure (``_merge``, which ``part_join`` runs with no images):
    when a pending pair (a, b) merges two classes, the pairs of distinct
    images (f(a), f(b)) under the basic translations f (``translations``)
    are pushed.  Each pushed pair lies in every congruence holding (x, y),
    and each merged pair's images lie in the result, so it is compatible.
    """
    n = L.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"elements must lie in 0..{n - 1}")
    if x > y:
        return theta(L, y, x)
    return _merge(n, [(x, y)], L.translations)


def join_closure(gens, join) -> frozenset:
    """The closure of gens under the binary operation join.

    Each pass joins only what the previous pass found with everything
    found so far; the loop ends when a pass finds nothing new.
    """
    found = set(gens)
    frontier = set(found)
    while frontier:
        frontier = {join(a, b) for a in frontier for b in found} - found
        found |= frontier
    return frozenset(found)


class JoinTable(dict):
    """Mask over J(Con A) to the index of the join of the join-irreducibles
    it sets, seeded with jmask.  A miss (only when Con A is not distributive)
    stores the upper bound with the fewest mask bits, which is the join: an
    upper bound's mask holds the join's, strictly when it is another one."""

    def __init__(self, jmask: tuple):
        super().__init__(zip(jmask, range(len(jmask))))
        self.jmask = jmask

    def __missing__(self, m: int) -> int:
        # compress, not a generator: a closure cell for m slows every miss
        ups = itertools.compress(self.jmask, map(m.__eq__, map(m.__and__, self.jmask)))
        i = self[m] = self[min(ups, key=int.bit_count)]
        return i


class Congruences:
    """Con A of one algebra: every congruence, sorted by ``block_of``, and
    each one as a bitmask over J(Con A), the join-irreducible congruences.

    ``jmask[i]`` sets bit g when J[g] lies below ``cons[i]``.  A congruence
    is the join of the join-irreducibles below it, so distinct congruences
    have distinct masks, a ≤ b exactly when jmask[a] is a subset of
    jmask[b], and jmask[a] & jmask[b] is the mask of a ∧ b; the identity
    congruence is last.  ``join`` is the ``__getitem__`` of a JoinTable,
    and ``pmask[x * n + y]`` is the mask of Θ(x, y).  When Con A is
    distributive, as it is for every lattice, the masks are exactly the
    down-sets of J(Con A) (Birkhoff), so a union of masks is a mask and a
    join runs no Python frame.

    Built from ``pairs``, each congruence's ``block_of`` with its mask, in
    any order.  ``pmask`` is filled on first read, from the list alone:
    Θ(x, y) is the least congruence relating x and y, the meet of all that
    do, so its mask is the intersection of theirs.
    """

    def __init__(self, pairs):
        blocks, self.jmask = zip(*sorted(pairs))
        self.cons = tuple(map(Congruence, blocks))
        self.join = JoinTable(self.jmask).__getitem__

    @cached_property
    def pmask(self) -> tuple:
        blocks = list(zip(*(c.block_of for c in self.cons)))  # x's block in each congruence
        n = len(blocks)
        pmask = [0] * (n * n)  # Θ(x, x) is the identity congruence
        for x, y in itertools.combinations(range(n), 2):
            related = itertools.compress(self.jmask, map(eq, blocks[x], blocks[y]))
            pmask[x * n + y] = pmask[y * n + x] = reduce(and_, related)
        return tuple(pmask)

    def __len__(self) -> int:
        return len(self.cons)


CONGRUENCE_LIMIT = 10**6


def _check_listing(count: int) -> None:
    """A DomainError once a listing of Con A passes CONGRUENCE_LIMIT."""
    if count > CONGRUENCE_LIMIT:
        raise freedist.DomainError(
            f"Con A has at least {count} congruences, more than {CONGRUENCE_LIMIT}"
        )


def _lattice_congruences(L: FinAlgebra) -> Congruences:
    """Con L of a lattice from Freese's dependency relation on J(L), with
    no partition closure (see ``all_congruences``)."""
    n, join, down = L.size, L.join, L.order[0]
    # j is join-irreducible when the elements below it, j aside, are the
    # down-set of one element: its lower cover j_*.
    of_down = {d: x for x, d in enumerate(down)}
    star = {j: of_down[d ^ 1 << j] for j, d in enumerate(down) if d ^ 1 << j in of_down}
    jbits = sum(1 << j for j in star)
    below = {}  # k to the j with j D k (then j D* k), as a bitmask over L
    for k, k_star in star.items():
        hits = (down[join[k * n + x]] & ~down[join[k_star * n + x]] for x in range(n))
        below[k] = jbits & reduce(or_, hits)
    for i, k in itertools.product(star, star):  # Warshall: i is the middle step
        if below[k] >> i & 1:
            below[k] |= below[i]
    # The classes of D*, each a below-set, smaller ones first: J(Con L) in
    # a linear extension of its order, and each one's down-set mask.
    classes = sorted(set(below.values()), key=lambda s: (s.bit_count(), s))
    gmask = [sum(1 << h for h, t in enumerate(classes) if t & s == t) for s in classes]
    members = [sum(1 << j for j in star if below[j] == s) for s in classes]
    # The down-sets of J[0..g-1], each extended by J[g] when it holds all
    # below J[g], with the j ∈ J(L) that the congruence does not collapse.
    downs = [(0, jbits)]
    for g, (d, collapsed) in enumerate(zip(gmask, members)):
        if 2 * len(downs) > CONGRUENCE_LIMIT:  # a step at most doubles: count it, then build it
            _check_listing(len(downs) + sum(d & ~m == 1 << g for m, _ in downs))
        downs += [(m | d, keep & ~collapsed) for m, keep in downs if d & ~m == 1 << g]
    return Congruences((_renumbered(map(keep.__and__, down)), m) for m, keep in downs)


@lru_cache(maxsize=None)
def all_congruences(L: FinAlgebra) -> Congruences:
    """Con L, on one of two paths.

    A lattice, whose basic operations are its join and its meet and no
    other, closes no Θ and joins no partitions.  For j ≠ k in J(L), j_*
    the lower cover of j, Freese's dependency relation has j D k when some
    x has j ≤ k v x and j ≰ k_* v x, and Θ(j_*, j) ⊆ Θ(k_*, k) exactly
    when j D* k, its reflexive-transitive closure (R. Freese, "Computing
    congruences efficiently", Algebra Universalis 59, 2008; R. Freese,
    J. Ježek and J. B. Nation, *Free Lattices*, AMS 1995, §2.6).  So the
    classes of D* are J(Con L), ordered by D*, and Con L, distributive by
    Funayama–Nakayama, is every down-set of them.  The congruence θ of a
    down-set collapses j (j θ j_*) exactly when it holds j's class, and
    b θ c exactly when the uncollapsed j below b are those below c, so
    each partition is read off the elements' down-sets.  For let j ≤ b be
    uncollapsed and b θ c; then x = b ∧ c has x θ b, so j ∧ x θ j, and
    were j ≰ x, convexity would give j θ j_*, as j ∧ x ≤ j_* < j; so
    j ≤ c.  Conversely b θ f(b), the join of the uncollapsed j ≤ b (the
    zero when there are none), by induction on b: b is the join of the
    j ≤ b, and a collapsed one has j θ j_* θ f(j_*) ≤ f(b), as j_* < b.

    Any other algebra closes the Θ of candidate pairs: when the designated
    join is a basic operation, Θ(x, y) = Θ(x, x v y) v Θ(y, x v y) and, for
    a < b, Θ(a, b) is the join of the Θ of the covers along a maximal chain
    from a to b, so the covering pairs, whose Θ include J(Con L); otherwise
    every pair.  The Θ are taken finest first (a strictly finer partition
    has more blocks); one that is not yet a join of those before it is
    join-irreducible, and the join closure grows by joining it with every
    congruence found so far.  A congruence c's mask sets each
    join-irreducible Θ(x, y) whose generating pair c relates.

    Either path stops with a DomainError once it has listed more than
    CONGRUENCE_LIMIT congruences.
    """
    n, joined = L.size, L.join_name is not None
    meet = next((op.table for op in L.ops if op.name == L.meet_name), None)
    pure = meet is not None and all(op.arity == 2 and op.table in (L.join, meet) for op in L.ops)
    if joined and pure:
        return _lattice_congruences(L)
    if joined:
        pairs = [(min(a, b), max(a, b)) for a in range(n) for b in L.covers[a]]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    gens = {theta(L, x, y): (x, y) for x, y in pairs}  # one generating pair for each distinct Θ
    found, irr = {identity_congruence(n)}, []
    for g in sorted(gens, key=lambda c: -max(c.block_of)):
        if g not in found:
            irr.append(gens[g])
            found |= {part_join(c, g) for c in found}
            _check_listing(len(found))
    return Congruences(
        (c.block_of, sum(1 << g for g, (x, y) in enumerate(irr) if c.relates(x, y))) for c in found
    )


def check_congruence_compatible(L: FinAlgebra) -> bool:
    """Whether every congruence of L is compatible with the designated join
    (see ``FinAlgebra.join_compatible``)."""
    return L.join_compatible


# ---------------------------------------------------------------------------
# Semilattice tables and homomorphisms


def semilattice(size, join, zero) -> FinAlgebra:
    """The algebra whose one basic operation is the join table; zero must be least."""
    join = tuple(join)
    S = _check_semilattice_table(FinAlgebra(size, (Operation("join", 2, join),), join))
    if not (0 <= zero < size):
        raise ValueError("zero out of range")
    if S.zero != zero:  # a neutral zero is exactly the least element
        raise ValueError("zero not neutral")
    return S


class ConcResult(NamedTuple):
    table: FinAlgebra
    congruences: tuple


def conc(L: FinAlgebra) -> ConcResult:
    """The (join, 0)-semilattice of finitely generated congruences of L.

    Returns the join table over the canonically sorted congruence list,
    and that list, read off ``L.con_index`` without filling its ``pmask``.
    Entry (a, b) of the table is the join of the join-irreducibles below a
    or b (``Congruences.join`` of the union of their masks).  It is a
    semilattice by construction, so it skips ``semilattice()``'s recheck;
    its zero is the identity congruence, last.
    """
    con = L.con_index
    rows = (map(con.join, map(mb.__or__, con.jmask)) for mb in con.jmask)
    table = tuple(itertools.chain.from_iterable(rows))
    S = FinAlgebra(len(con), (Operation("join", 2, table),), table)
    return ConcResult(S, con.cons)


def is_distributive(S: FinAlgebra) -> bool:
    """Whether S has the splitting property: every c ≤ a v b is some x v y
    with x ≤ a and y ≤ b.  A finite S has it exactly when it has a zero and
    every join-irreducible j is join-prime (j ≤ a v b forces j ≤ a or
    j ≤ b).  Without a zero, two minimal m1, m2 leave m1 ≤ m1 v m2 no split.
    J masks the j whose strict down-set is some down[x]; join-primeness
    reads down[a v b] & J == (down[a] | down[b]) & J.
    """
    if S.zero is None:
        return False
    n, down = S.size, S.order[0]
    downsets = set(down)
    J = sum(1 << j for j, d in enumerate(down) if d ^ 1 << j in downsets)
    dj = [d & J for d in down]
    return all(
        list(map(dj.__getitem__, S.join[a * n:a * n + n])) == [da | db for db in dj]
        for a, da in enumerate(dj)
    )


@dataclass(frozen=True)
class SemHom:
    dom: FinAlgebra
    cod: FinAlgebra
    image: tuple


def _unpreserved(dom: FinAlgebra, cod: FinAlgebra, f) -> tuple | None:
    """The first (a, b), a ≤ b, with f(a v b) ≠ f(a) v f(b), or None: as joins
    commute, also the first such pair of all pairs in row-major order."""
    n, k, dj, cj = dom.size, cod.size, dom.join, cod.join
    bad = ((a, b) for a in range(n) for b in range(a, n) if f[dj[a * n + b]] != cj[f[a] * k + f[b]])
    return next(bad, None)


def sem_hom(dom, cod, image) -> SemHom:
    image = tuple(image)
    if len(image) != dom.size:
        raise ValueError("image array has wrong length")
    if any(not (0 <= v < cod.size) for v in image):
        raise ValueError("image entry out of range")
    if None in (dom.zero, cod.zero):
        raise ValueError(f"{'domain' if dom.zero is None else 'codomain'} has no zero")
    if image[dom.zero] != cod.zero:
        raise ValueError("zero not preserved")
    if (bad := _unpreserved(dom, cod, image)) is not None:
        raise ValueError("join not preserved at (%d,%d)" % bad)
    return SemHom(dom, cod, image)


def all_sem_homs(dom: FinAlgebra, cod: FinAlgebra) -> list:
    if None in (dom.zero, cod.zero):
        raise ValueError(f"{'domain' if dom.zero is None else 'codomain'} has no zero")
    images = itertools.product(range(cod.size), repeat=dom.size)
    keep = (f for f in images if f[dom.zero] == cod.zero and _unpreserved(dom, cod, f) is None)
    return [SemHom(dom, cod, f) for f in keep]


def weakly_distributive_at(mu: SemHom, x: int) -> bool:
    """Whether each f(x) ≤ y0 v y1 has x ≤ x0 v x1 with f(xi) ≤ yi.  As f
    keeps joins and 0, the s with f(s) ≤ y have a largest, m(y), their join:
    such x0, x1 exist exactly when x ≤ m(y0) v m(y1)."""
    S, T, f = mu.dom, mu.cod, mu.image
    m = [S.join_all(s for s in range(S.size) if T.leq(f[s], y)) for y in range(T.size)]
    return all(
        S.leq(x, S.join_of(m[y0], m[y1]))
        for y0, y1 in itertools.product(range(T.size), repeat=2)
        if T.leq(f[x], T.join_of(y0, y1))
    )


# ---------------------------------------------------------------------------
# Quotients and permutability


def quotient(L: FinAlgebra, c: Congruence):
    """The quotient algebra modulo c and the projection array.

    Each table is the one its operation induces on c's blocks, which exists
    exactly when c is compatible with it; the designated join's is then a
    semilattice, so the result skips ``fin_algebra()``'s recheck.
    """
    if c.size != L.size:
        raise freedist.DomainError("partition size mismatch")
    ops = tuple(op._replace(table=_induced(c, op.table, op.arity)) for op in L.ops)
    if any(op.table is None for op in ops):
        raise freedist.DomainError("partition not compatible with basic operations")
    join = _induced(c, L.join, 2)
    if join is None:
        raise freedist.DomainError("partition not compatible with designated join")
    proj = c.block_of  # canonical: block i is the i-th block by least member
    top = proj[L.top] if L.top is not None else None
    return FinAlgebra(len(set(proj)), ops, join, top), proj


def _relation_masks(c: Congruence) -> tuple:
    masks = [sum(1 << x for x in blk) for blk in c.blocks()]
    return tuple(masks[b] for b in c.block_of)


def _compose_masks(r, s, size):
    return tuple(reduce(or_, (s[y] for y in range(size) if reach >> y & 1), 0) for reach in r)


def permutability(L: FinAlgebra, m: int) -> bool:
    """Whether every congruence join is an (m+1)-fold alternating
    relational composition.  A row of r∘s∘r∘... only grows, and once a
    step adds nothing it is its class of r v s for good; it starts with
    one element, so n - 1 steps reach the join and m = n answers for any
    larger m."""
    if m < 1:
        raise ValueError("m must be positive")
    con = L.con_index
    rel = [_relation_masks(c) for c in con.cons]
    for ma, ra in zip(con.jmask, rel):
        for mb, rb in zip(con.jmask, rel):
            acc = ra
            for idx in range(1, min(m, L.size) + 1):
                acc = _compose_masks(acc, rb if idx % 2 else ra, L.size)
            if acc != rel[con.join(ma | mb)]:
                return False
    return True


# ---------------------------------------------------------------------------
# Erosion


def epsilon(n: int) -> int:
    """Parity: 0 on evens, 1 on odds."""
    return n % 2


@lru_cache(maxsize=None)
def conc_sub(L: FinAlgebra, U: frozenset) -> frozenset:
    """The subsemilattice of Conc L generated by principal congruences
    over pairs from U: the tests' oracle for erosion's membership check."""
    gens = [identity_congruence(L.size)]
    gens += [theta(L, u, v) for u in U for v in U if u <= v]
    return join_closure(gens, part_join)


class ErosionResult(NamedTuple):
    u0: Congruence
    u1: Congruence
    congruent: bool
    bounded: tuple
    member: tuple

    @property
    def ok(self) -> bool:
        return self.congruent and all(self.bounded) and all(self.member)


def erosion(L: FinAlgebra, x0: int, x1: int, zs) -> ErosionResult:
    """Build the alternating-chain congruences u0, u1 of the sequence zs
    and verify the three guarantees: the end joins are congruent mod
    u0 v u1, each u_j sits inside a_j and the one-sided principal bound,
    and each u_j is generated over {x_j} v Z.
    """
    n, size = len(zs) - 1, L.size
    if n < 1:
        raise freedist.DomainError("need at least two chain entries")
    if not (0 <= min(zs) and max(zs) < size and 0 <= x0 < size and 0 <= x1 < size):
        raise freedist.DomainError("element out of range")
    if not L.join_compatible:
        raise freedist.DomainError("designated join not congruence-compatible")
    join, last, total = L.join, zs[n], zs[0]
    for z in zs:  # the join of every entry is the last exactly when the chain condition holds
        total = join[total * size + z]
    if total != last:
        raise freedist.DomainError("join of leading entries must lie below the last")

    # Every check is on masks over J(Con A) (see Congruences): b ≤ c is
    # jmask[b] ⊆ jmask[c], and a join is read off the union of the masks.
    con = L.con_index
    jmask, pmask, lub = con.jmask, con.pmask, con.join
    sides = []  # (u_j, its mask, bounded, member) for j = 0, 1
    for j, x in enumerate((x0, x1)):
        row = x * size  # join[row + z] is x v z
        v = a = 0
        for i in range(j, n, 2):  # the i with epsilon(i) == j
            v |= pmask[join[row + zs[i]] * size + join[row + zs[i + 1]]]
            a |= pmask[zs[i] * size + zs[i + 1]]
        u = lub(v)
        um = jmask[u]
        # u_j is a join of generators exactly when it is the join of those
        # below it, the empty join being the identity congruence.
        below = 0
        for p, q in itertools.combinations({join[row + z] for z in zs}, 2):
            if not (m := pmask[p * size + q]) & ~um:
                below |= m
        # Θ⁺(z_n, x_j) = Θ(x_j, z_n ∨ x_j)
        bound = jmask[lub(a)] & pmask[row + join[row + last]]
        sides.append((u, um, um & ~bound == 0, lub(below) == u))
    (u0, m0, b0, e0), (u1, m1, b1, e1) = sides

    lhs = join[join[zs[0] * size + x0] * size + x1]
    rhs = join[join[last * size + x0] * size + x1]
    congruent = pmask[lhs * size + rhs] & ~jmask[lub(m0 | m1)] == 0
    return ErosionResult(con.cons[u0], con.cons[u1], congruent, (b0, b1), (e0, e1))


# ---------------------------------------------------------------------------
# File formats


class Directive(NamedTuple):
    """How read_directives treats one directive name."""

    count: int | None  # tokens after the name; None for any number
    parse: Callable  # one line's tokens, as a list, to its value
    once: bool = False  # a second line with this name is an error
    label: Callable | None = None  # keyed: parse gives (key, value); label(key) names it


def read_directives(text: str, directives: dict) -> dict:
    """Parse every directive line of text; return what was read.

    The rules every slat file format shares: ``#`` starts a comment,
    blank lines are skipped, and a line's first token names its
    directive, matched as a whole token.  A line must carry exactly its
    directive's ``count`` more tokens, which go to ``parse`` as a list.
    Each name maps to a ``once`` directive's value (None if absent; a
    second line is an error), a keyed directive's dict (a repeated key
    is an error), or else the list of its values in file order.  A
    ValueError or IndexError raised while reading a line becomes a
    FormatError that names the line's number in text.
    """
    found = {name: None if d.once else {} if d.label else [] for name, d in directives.items()}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        try:
            name = tok[0]
            if name not in directives:
                raise ValueError(f"unknown directive {name!r}")
            count, parse, once, label = directives[name]
            if count is not None and len(tok) - 1 != count:
                raise ValueError(
                    f"{name} takes {count} argument{'s' * (count != 1)}, "
                    f"got {len(tok) - 1}"
                )
            if once and name in first_line:
                raise ValueError(
                    f"{name} defined twice, first on line {first_line[name]}"
                )
            first_line.setdefault(name, lineno)
            value = parse(tok[1:])
            if once:
                found[name] = value
            elif label:
                key, value = value
                if key in found[name]:
                    raise ValueError(f"{label(key)} defined twice")
                found[name][key] = value
            else:
                found[name].append(value)
        except (ValueError, IndexError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return found


def distinct_names(args) -> tuple:
    """The names of a line that lists each name once, sorted."""
    names = tuple(sorted(args))
    if twice := [a for a, b in zip(names, names[1:]) if a == b]:
        raise ValueError(f"name {twice[0]!r} listed twice")
    return names


def _ints(args):
    return [int(t) for t in args]


# The ``alg <k>``, ``op <name> <arity> <row-major table>``, ``join
# <name-or-table>`` and ``top <idx>`` directives of one algebra.  A format
# that embeds an algebra merges this table into its own and passes what
# read_directives returns to read_algebra.
ALGEBRA_DIRECTIVES = {
    "alg": Directive(1, lambda a: int(a[0]), once=True),
    "op": Directive(
        None, lambda a: (a[0], (a[0], int(a[1]), _ints(a[2:]))), label="operation {!r}".format
    ),
    "join": Directive(
        None,
        lambda a: a[0] if len(a) == 1 and not a[0].lstrip("-").isdigit() else _ints(a),
        once=True,
    ),
    "top": Directive(1, lambda a: int(a[0]), once=True),
}


def read_algebra(found: dict) -> FinAlgebra:
    """The algebra that the ALGEBRA_DIRECTIVES lines of ``found`` give."""
    size, ops, spec, top = (found[name] for name in ALGEBRA_DIRECTIVES)
    if size is None:
        raise FormatError("missing 'alg <k>' header")
    if spec is None:
        raise FormatError("missing 'join' line")
    join_table = spec
    if isinstance(spec, str):
        if spec not in ops:
            raise FormatError(f"join refers to unknown operation {spec!r}")
        _, arity, join_table = ops[spec]
        if arity != 2:
            raise FormatError("designated join must be binary")
    try:
        return fin_algebra(size, ops.values(), join_table, top)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_algebra(text: str) -> FinAlgebra:
    """Parse the line-oriented algebra format (see ALGEBRA_DIRECTIVES)."""
    return read_algebra(read_directives(text, ALGEBRA_DIRECTIVES))


def parse_semhom(text: str, dom: FinAlgebra) -> SemHom:
    """Parse a map from dom into a semilattice given by ``sem <k>``,
    ``join <table>`` and ``zero <idx>``, with one ``map <x> <image>`` line
    for each element x of dom."""
    size, join, zero, image = read_directives(
        text,
        {
            "sem": Directive(1, lambda a: int(a[0]), once=True),
            "join": Directive(None, _ints, once=True),
            "zero": Directive(1, lambda a: int(a[0]), once=True),
            "map": Directive(2, _ints, label="map {}".format),
        },
    ).values()
    if None in (size, join, zero):
        raise FormatError("map file needs sem/join/zero lines")
    cod = semilattice(size, join, zero)
    if sorted(image) != list(range(dom.size)):
        raise FormatError(f"map lines must cover domain indices 0..{dom.size - 1}")
    try:
        return sem_hom(dom, cod, [image[i] for i in range(dom.size)])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_algebra(L: FinAlgebra) -> str:
    lines = [f"alg {L.size}"]
    lines += [f"op {op.name} {op.arity} " + " ".join(map(str, op.table)) for op in L.ops]
    lines.append("join " + (L.join_name or " ".join(map(str, L.join))))
    if L.top is not None:
        lines.append(f"top {L.top}")
    return "\n".join(lines) + "\n"
