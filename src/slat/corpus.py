"""Lattices as table algebras: built from covering pairs, chains, direct
products, glued sums, and a bundled corpus of 21 small lattices (size <= 6)."""

from __future__ import annotations

from functools import lru_cache

from .conlat import FinAlgebra, Operation, bound_table


def lattice_from_covers(size: int, covers) -> FinAlgebra:
    """Build a lattice algebra from its covering pairs (lower, upper).

    Each element's up-set and down-set is a bitmask, closed over the
    covers in one pass in topological order.  Joins and meets must exist;
    ``bound_table`` reads them off the masks, so the tables are a
    lattice's by construction and skip ``fin_algebra()``'s recheck.
    """
    lower = [[] for _ in range(size)]
    waiting = [0] * size  # upper covers of each element not closed yet
    for lo, hi in covers:
        lower[hi].append(lo)
        waiting[lo] += 1
    up = [1 << x for x in range(size)]
    done = [x for x in range(size) if not waiting[x]]
    for x in done:  # grows: an element is closed once its upper covers are
        for lo in lower[x]:
            up[lo] |= up[x]
            waiting[lo] -= 1
            if not waiting[lo]:
                done.append(lo)
    if len(done) < size:
        raise ValueError("covering pairs form a cycle")
    down = [1 << x for x in range(size)]
    for x in reversed(done):  # lower covers first
        for lo in lower[x]:
            down[x] |= down[lo]
    join, meet = bound_table(up), bound_table(down)
    for name, table in (("join", join), ("meet", meet)):
        if None in table:
            a, b = divmod(table.index(None), size)
            raise ValueError(f"no unique {name} for ({a},{b})")
    if not done:
        raise ValueError("no unique top")
    # done[0] has nothing above it: as joins exist, it is the top.
    return FinAlgebra(size, (Operation("meet", 2, meet), Operation("join", 2, join)), join, done[0])


def chain(n: int) -> FinAlgebra:
    return lattice_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def product(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """Direct product of two lattice algebras, elements ordered pairwise:
    (x, y) is element ``x * b.size + y``, and its upper covers raise one
    coordinate to an upper cover in its factor."""
    m, ua, ub = b.size, a.covers, b.covers
    covers = [(x * m + y, c * m + y) for x in range(a.size) for c in ua[x] for y in range(m)]
    covers += [(x * m + y, x * m + c) for x in range(a.size) for y in range(m) for c in ub[y]]
    return lattice_from_covers(a.size * m, covers)


def n5() -> FinAlgebra:
    # 0 < 1 < 2 < 4 and 0 < 3 < 4
    return lattice_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3() -> FinAlgebra:
    return lattice_from_covers(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )


def m4() -> FinAlgebra:
    return lattice_from_covers(
        6, [(0, i) for i in (1, 2, 3, 4)] + [(i, 5) for i in (1, 2, 3, 4)]
    )


def hexagon() -> FinAlgebra:
    # two incomparable 2-chains 1<3 and 2<4 between the bounds
    return lattice_from_covers(
        6, [(0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 5)]
    )


def glued_sum(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """The glued sum of two lattice algebras: b above a, with a's top
    identified with b's zero.  a keeps its labels, and b's other elements
    follow in label order."""
    label = list(range(a.size, a.size + b.size - 1))
    label.insert(b.zero, a.top)
    covers = [(x, c) for x in range(a.size) for c in a.covers[x]]
    covers += [(label[y], label[c]) for y in range(b.size) for c in b.covers[y]]
    return lattice_from_covers(a.size + b.size - 1, covers)


@lru_cache(maxsize=None)
def bundled_corpus() -> tuple:
    """(name, lattice) pairs; >= 20 lattices, all of size <= 6."""
    square = product(chain(2), chain(2))
    entries = [
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        ("chain5", chain(5)),
        ("chain6", chain(6)),
        ("2x2", square),
        ("2x3", product(chain(2), chain(3))),
        ("n5", n5()),
        ("m3", m3()),
        ("m4", m4()),
        ("hexagon", hexagon()),
        ("2x2_top", glued_sum(square, chain(2))),
        ("2x2_bot", glued_sum(chain(2), square)),
        ("2x2_bounds", glued_sum(glued_sum(chain(2), square), chain(2))),
        ("2x2_tower", glued_sum(square, chain(3))),
        ("m3_top", glued_sum(m3(), chain(2))),
        ("m3_bot", glued_sum(chain(2), m3())),
        ("n5_top", glued_sum(n5(), chain(2))),
        ("n5_bot", glued_sum(chain(2), n5())),
        ("parallel22", lattice_from_covers(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)])),
    ]
    return tuple(entries)
