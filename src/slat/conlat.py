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
from functools import lru_cache, reduce
from typing import NamedTuple

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


def _canonical_blockof(raw) -> tuple:
    seen = {}
    out = []
    for b in raw:
        out.append(seen.setdefault(b, len(seen)))
    return tuple(out)


def congruence_from_blockof(raw) -> Congruence:
    return Congruence(_canonical_blockof(raw))


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


def full_congruence(size: int) -> Congruence:
    return Congruence((0,) * size)


@lru_cache(maxsize=None)
def part_join(c1: Congruence, c2: Congruence) -> Congruence:
    parent = list(range(c1.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in (c1, c2):
        reps = {}
        for x, b in enumerate(c.block_of):
            if b in reps:
                parent[find(x)] = find(reps[b])
            else:
                reps[b] = x
    return congruence_from_blockof(find(x) for x in range(c1.size))


@lru_cache(maxsize=None)
def part_meet(c1: Congruence, c2: Congruence) -> Congruence:
    return congruence_from_blockof(zip(c1.block_of, c2.block_of))


def refines(c1: Congruence, c2: Congruence) -> bool:
    """Whether every c1-class is contained in a c2-class."""
    return part_join(c1, c2) == c2


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

    def join_of(self, a: int, b: int) -> int:
        return self.join[a * self.size + b]

    def leq(self, a: int, b: int) -> bool:
        return self.join_of(a, b) == b

    def join_all(self, items, empty=None) -> int:
        items = list(items)
        if not items:
            if empty is None:
                raise freedist.DomainError("empty join with no zero element")
            return empty
        return reduce(self.join_of, items)


def _check_semilattice_table(size: int, table) -> tuple:
    table = tuple(table)
    if len(table) != size * size:
        raise ValueError(f"join table needs {size * size} entries")
    if any(not (0 <= e < size) for e in table):
        raise ValueError("join table entry out of range")
    get = lambda a, b: table[a * size + b]
    for a in range(size):
        if get(a, a) != a:
            raise ValueError(f"join not idempotent at {a}")
        for b in range(size):
            if get(a, b) != get(b, a):
                raise ValueError(f"join not commutative at ({a},{b})")
            for c in range(size):
                if get(get(a, b), c) != get(a, get(b, c)):
                    raise ValueError(f"join not associative at ({a},{b},{c})")
    return table


def fin_algebra(size, ops, join, top=None) -> FinAlgebra:
    if size < 1:
        raise ValueError("carrier must have at least one element")
    ops = tuple(Operation(n, a, tuple(t)) for n, a, t in ops)
    for op in ops:
        if op.arity not in (1, 2):
            raise ValueError(f"operation {op.name}: arity must be 1 or 2")
        if len(op.table) != size**op.arity:
            raise ValueError(f"operation {op.name}: wrong table size")
        if any(not (0 <= e < size) for e in op.table):
            raise ValueError(f"operation {op.name}: entry out of range")
    join = _check_semilattice_table(size, join)
    if top is not None and not (0 <= top < size):
        raise ValueError("top out of range")
    return FinAlgebra(size, ops, join, top)


def algebra_zero(L: FinAlgebra) -> int | None:
    """The neutral element of the designated join, if one exists."""
    for e in range(L.size):
        if all(L.join_of(e, x) == x for x in range(L.size)):
            return e
    return None


# ---------------------------------------------------------------------------
# Congruence generation


def is_compatible(L: FinAlgebra, c: Congruence, table=None, arity=2) -> bool:
    """Compatibility of a partition with one table (default: all basic ops)."""
    if table is not None:
        ops = (Operation("_", arity, tuple(table)),)
    else:
        ops = L.ops
    n = L.size
    for op in ops:
        for a in range(n):
            for b in range(n):
                if not c.relates(a, b):
                    continue
                if op.arity == 1:
                    if not c.relates(op.table[a], op.table[b]):
                        return False
                else:
                    for z in range(n):
                        if not c.relates(op.table[a * n + z], op.table[b * n + z]):
                            return False
                        if not c.relates(op.table[z * n + a], op.table[z * n + b]):
                            return False
    return True


@lru_cache(maxsize=None)
def theta(L: FinAlgebra, x: int, y: int) -> Congruence:
    """Least congruence of the basic operations identifying x and y.

    Worklist closure: whenever a pending pair (a, b) merges two classes,
    its translations (f(a, z), f(b, z)) and (f(z, a), f(z, b)) under every
    basic op f and every z are pushed.  Every pushed pair lies in each
    congruence containing (x, y), and every merged pair has its
    translations inside the result, so the result is compatible.
    """
    n = L.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"elements must lie in 0..{n - 1}")
    if x > y:
        return theta(L, y, x)
    block = list(range(n))
    members = [[a] for a in range(n)]
    pending = [(x, y)]
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
        for op in L.ops:
            t = op.table
            if op.arity == 1:
                pending.append((t[a], t[b]))
            else:
                pending += zip(t[a * n:a * n + n], t[b * n:b * n + n])
                pending += zip(t[a::n], t[b::n])
    return congruence_from_blockof(block)


def theta_plus(L: FinAlgebra, x: int, y: int) -> Congruence:
    """Least congruence collapsing y with x v y."""
    return theta(L, y, L.join_of(x, y))


@lru_cache(maxsize=None)
def all_congruences(L: FinAlgebra) -> tuple:
    """Every congruence of L: principal congruences closed under join."""
    found = {theta(L, x, y) for x in range(L.size) for y in range(x, L.size)}
    frontier = set(found)
    while frontier:
        fresh = set()
        for c1 in frontier:
            for c2 in found:
                j = part_join(c1, c2)
                if j not in found and j not in fresh:
                    fresh.add(j)
        found |= fresh
        frontier = fresh
    return tuple(sorted(found, key=lambda c: c.block_of))


@lru_cache(maxsize=None)
def check_congruence_compatible(L: FinAlgebra) -> bool:
    """Whether every congruence of L is compatible with the designated join."""
    return all(
        is_compatible(L, c, table=L.join, arity=2) for c in all_congruences(L)
    )


# ---------------------------------------------------------------------------
# Semilattice tables and homomorphisms


@dataclass(frozen=True)
class SemilatticeTable:
    size: int
    join: tuple
    zero: int
    labels: tuple | None = None

    def join_of(self, a: int, b: int) -> int:
        return self.join[a * self.size + b]

    def leq(self, a: int, b: int) -> bool:
        return self.join_of(a, b) == b

    def join_all(self, items) -> int:
        return reduce(self.join_of, items, self.zero)


def semilattice(size, join, zero, labels=None) -> SemilatticeTable:
    join = _check_semilattice_table(size, join)
    if not (0 <= zero < size):
        raise ValueError("zero out of range")
    get = lambda a, b: join[a * size + b]
    for a in range(size):
        if get(zero, a) != a:
            raise ValueError("zero not neutral")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != size:
            raise ValueError("wrong number of labels")
    return SemilatticeTable(size, join, zero, labels)


class ConcResult(NamedTuple):
    table: SemilatticeTable
    congruences: tuple
    pair_index: dict


def conc(L: FinAlgebra) -> ConcResult:
    """The (join, 0)-semilattice of finitely generated congruences of L.

    Returns the join table over the canonically sorted congruence list,
    plus the map sending a carrier pair to the index of its principal
    congruence.
    """
    cons = all_congruences(L)
    index = {c: i for i, c in enumerate(cons)}
    k = len(cons)
    table = [0] * (k * k)
    for i, c1 in enumerate(cons):
        for j, c2 in enumerate(cons):
            table[i * k + j] = index[part_join(c1, c2)]
    zero = index[identity_congruence(L.size)]
    labels = tuple(c.serialize() for c in cons)
    sem = semilattice(k, table, zero, labels)
    pair_index = {}
    for x in range(L.size):
        for y in range(L.size):
            pair_index[x, y] = pair_index[y, x] if y < x else index[theta(L, x, y)]
    return ConcResult(sem, cons, pair_index)


def is_distributive(S: SemilatticeTable) -> bool:
    """Exhaustive witness search for the splitting property."""
    down = [
        [x for x in range(S.size) if S.leq(x, a)] for a in range(S.size)
    ]
    for a in range(S.size):
        for b in range(S.size):
            ab = S.join_of(a, b)
            joins = {S.join_of(x, y) for x in down[a] for y in down[b]}
            for c in range(S.size):
                if S.leq(c, ab) and c not in joins:
                    return False
    return True


@dataclass(frozen=True)
class SemHom:
    dom: SemilatticeTable
    cod: SemilatticeTable
    image: tuple


def sem_hom(dom, cod, image) -> SemHom:
    image = tuple(image)
    if len(image) != dom.size:
        raise ValueError("image array has wrong length")
    if any(not (0 <= v < cod.size) for v in image):
        raise ValueError("image entry out of range")
    if image[dom.zero] != cod.zero:
        raise ValueError("zero not preserved")
    for a in range(dom.size):
        for b in range(dom.size):
            if image[dom.join_of(a, b)] != cod.join_of(image[a], image[b]):
                raise ValueError(f"join not preserved at ({a},{b})")
    return SemHom(dom, cod, image)


def all_sem_homs(dom: SemilatticeTable, cod: SemilatticeTable) -> list:
    out = []
    for image in itertools.product(range(cod.size), repeat=dom.size):
        if image[dom.zero] != cod.zero:
            continue
        if all(
            image[dom.join_of(a, b)] == cod.join_of(image[a], image[b])
            for a in range(dom.size)
            for b in range(a, dom.size)
        ):
            out.append(SemHom(dom, cod, image))
    return out


def weakly_distributive_at(mu: SemHom, x: int) -> bool:
    S, T, f = mu.dom, mu.cod, mu.image
    under = [[s for s in range(S.size) if T.leq(f[s], y)] for y in range(T.size)]
    for y0 in range(T.size):
        for y1 in range(T.size):
            if not T.leq(f[x], T.join_of(y0, y1)):
                continue
            if not any(
                S.leq(x, S.join_of(x0, x1))
                for x0 in under[y0]
                for x1 in under[y1]
            ):
                return False
    return True


def is_weakly_distributive(mu: SemHom) -> bool:
    return all(weakly_distributive_at(mu, x) for x in range(mu.dom.size))


# ---------------------------------------------------------------------------
# Quotients and permutability


def quotient(L: FinAlgebra, c: Congruence):
    """The quotient algebra modulo c and the projection array.

    c must be compatible with every basic operation and with the
    designated join; the induced tables are verified well-defined.
    """
    if c.size != L.size:
        raise freedist.DomainError("partition size mismatch")
    if not is_compatible(L, c):
        raise freedist.DomainError("partition not compatible with basic operations")
    if not is_compatible(L, c, table=L.join, arity=2):
        raise freedist.DomainError("partition not compatible with designated join")
    blocks = c.blocks()
    nb = len(blocks)
    proj = [None] * L.size
    for bi, blk in enumerate(blocks):
        for x in blk:
            proj[x] = bi
    rep = [blk[0] for blk in blocks]

    def induce(table, arity):
        if arity == 1:
            new = [proj[table[rep[a]]] for a in range(nb)]
            for x in range(L.size):
                if new[proj[x]] != proj[table[x]]:
                    raise freedist.DomainError("induced table not well defined")
        else:
            new = [
                proj[table[rep[a] * L.size + rep[b]]]
                for a in range(nb)
                for b in range(nb)
            ]
            for x in range(L.size):
                for y in range(L.size):
                    if new[proj[x] * nb + proj[y]] != proj[table[x * L.size + y]]:
                        raise freedist.DomainError("induced table not well defined")
        return tuple(new)

    ops = tuple(
        Operation(op.name, op.arity, induce(op.table, op.arity)) for op in L.ops
    )
    join = induce(L.join, 2)
    top = proj[L.top] if L.top is not None else None
    return fin_algebra(nb, ops, join, top), tuple(proj)


def _relation_masks(c: Congruence) -> tuple:
    masks = {}
    for x, b in enumerate(c.block_of):
        masks[b] = masks.get(b, 0) | (1 << x)
    return tuple(masks[c.block_of[x]] for x in range(c.size))


def _compose_masks(r, s, size):
    out = []
    for x in range(size):
        acc = 0
        reach = r[x]
        for y in range(size):
            if reach >> y & 1:
                acc |= s[y]
        out.append(acc)
    return tuple(out)


def permutability(L: FinAlgebra, m: int) -> bool:
    """Whether every congruence join is an (m+1)-fold alternating
    relational composition."""
    if m < 1:
        raise ValueError("m must be positive")
    cons = all_congruences(L)
    for a in cons:
        ra = _relation_masks(a)
        for b in cons:
            rb = _relation_masks(b)
            target = _relation_masks(part_join(a, b))
            acc = ra
            for idx in range(1, m + 1):
                acc = _compose_masks(acc, rb if idx % 2 else ra, L.size)
            if acc != target:
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
    over pairs from U."""
    found = {identity_congruence(L.size)}
    found |= {theta(L, u, v) for u in U for v in U}
    frontier = set(found)
    while frontier:
        fresh = set()
        for c1 in frontier:
            for c2 in found:
                j = part_join(c1, c2)
                if j not in found and j not in fresh:
                    fresh.add(j)
        found |= fresh
        frontier = fresh
    return frozenset(found)


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
    """Build the alternating-chain congruences u0, u1 and verify the
    three guarantees: the end joins are congruent mod u0 v u1, each u_j
    sits inside a_j and the one-sided principal bound, and each u_j is
    generated over {x_j} v Z.
    """
    zs = list(zs)
    n = len(zs) - 1
    if n < 1:
        raise freedist.DomainError("need at least two chain entries")
    if any(not (0 <= z < L.size) for z in zs) or not (
        0 <= x0 < L.size and 0 <= x1 < L.size
    ):
        raise freedist.DomainError("element out of range")
    if not check_congruence_compatible(L):
        raise freedist.DomainError("designated join not congruence-compatible")
    prefix = L.join_all(zs[:n])
    if not L.leq(prefix, zs[n]):
        raise freedist.DomainError("join of leading entries must lie below the last")

    x = (x0, x1)
    ident = identity_congruence(L.size)
    v = [
        theta(L, L.join_of(zs[i], x[epsilon(i)]), L.join_of(zs[i + 1], x[epsilon(i)]))
        for i in range(n)
    ]
    u = []
    a = []
    for j in (0, 1):
        uj = ident
        aj = ident
        for i in range(n):
            if epsilon(i) == j:
                uj = part_join(uj, v[i])
                aj = part_join(aj, theta(L, zs[i], zs[i + 1]))
        u.append(uj)
        a.append(aj)

    lhs = L.join_of(L.join_of(zs[0], x0), x1)
    rhs = L.join_of(L.join_of(zs[n], x0), x1)
    congruent = part_join(u[0], u[1]).relates(lhs, rhs)
    bounded = tuple(
        refines(u[j], part_meet(a[j], theta_plus(L, zs[n], x[j]))) for j in (0, 1)
    )
    member = tuple(
        u[j] in conc_sub(L, frozenset(L.join_of(x[j], z) for z in zs))
        for j in (0, 1)
    )
    return ErosionResult(u[0], u[1], congruent, bounded, member)


# ---------------------------------------------------------------------------
# Base adapter for the free distributive extension


class TableBase(freedist.Base):
    """A SemilatticeTable as a rank-0 base for the extension."""

    def __init__(self, table: SemilatticeTable):
        self.table = table
        self.zero = table.zero

    def join(self, a, b):
        return self.table.join_of(a, b)

    def leq(self, a, b):
        return self.table.leq(a, b)

    def serialize(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# File format


def _tokenize_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_algebra(text: str) -> FinAlgebra:
    """Parse the line-oriented algebra format.

    ``alg <k>`` then ``op <name> <arity> <row-major table>`` lines, one
    ``join <name-or-table>`` line, and optionally ``top <idx>``.
    """
    size = None
    ops = []
    join_spec = None
    top = None
    for lineno, tok in _tokenize_lines(text):
        kind = tok[0]
        try:
            if kind == "alg":
                size = int(tok[1])
            elif kind == "op":
                name, arity = tok[1], int(tok[2])
                ops.append((name, arity, [int(t) for t in tok[3:]]))
            elif kind == "join":
                join_spec = tok[1:]
            elif kind == "top":
                top = int(tok[1])
            else:
                raise FormatError(f"line {lineno}: unknown directive {kind!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {exc}") from exc
    if size is None:
        raise FormatError("missing 'alg <k>' header")
    if join_spec is None:
        raise FormatError("missing 'join' line")
    if len(join_spec) == 1 and not join_spec[0].lstrip("-").isdigit():
        named = {op[0]: op for op in ops}
        if join_spec[0] not in named:
            raise FormatError(f"join refers to unknown operation {join_spec[0]!r}")
        name, arity, table = named[join_spec[0]]
        if arity != 2:
            raise FormatError("designated join must be binary")
        join_table = table
    else:
        try:
            join_table = [int(t) for t in join_spec]
        except ValueError as exc:
            raise FormatError(f"bad join table: {exc}") from exc
    try:
        return fin_algebra(size, ops, join_table, top)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_algebra(L: FinAlgebra, join_name: str | None = None) -> str:
    lines = [f"alg {L.size}"]
    for op in L.ops:
        lines.append(
            f"op {op.name} {op.arity} " + " ".join(str(t) for t in op.table)
        )
    if join_name is not None:
        lines.append(f"join {join_name}")
    else:
        named = next(
            (op.name for op in L.ops if op.arity == 2 and op.table == L.join),
            None,
        )
        if named is not None:
            lines.append(f"join {named}")
        else:
            lines.append("join " + " ".join(str(t) for t in L.join))
    if L.top is not None:
        lines.append(f"top {L.top}")
    return "\n".join(lines) + "\n"
