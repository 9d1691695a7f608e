"""Bundled corpus of small lattices (size <= 6) as table algebras."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .conlat import FinAlgebra, fin_algebra


def lattice_from_covers(size: int, covers) -> FinAlgebra:
    """Build a lattice algebra from its covering pairs (lower, upper).

    Joins and meets must exist and be unique; the unique maximal element
    becomes the top.
    """
    below = [set((x,)) for x in range(size)]
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            new = below[lo] - below[hi]
            if new:
                below[hi] |= new
                changed = True
    leq = [[x in below[y] for x in range(size)] for y in range(size)]

    def lub(a, b):
        uppers = [c for c in range(size) if leq[c][a] and leq[c][b]]
        mins = [c for c in uppers if not any(d != c and leq[c][d] for d in uppers)]
        if len(mins) != 1:
            raise ValueError(f"no unique join for ({a},{b})")
        return mins[0]

    def glb(a, b):
        lowers = [c for c in range(size) if leq[a][c] and leq[b][c]]
        maxs = [c for c in lowers if not any(d != c and leq[d][c] for d in lowers)]
        if len(maxs) != 1:
            raise ValueError(f"no unique meet for ({a},{b})")
        return maxs[0]

    join = [lub(a, b) for a in range(size) for b in range(size)]
    meet = [glb(a, b) for a in range(size) for b in range(size)]
    tops = [x for x in range(size) if all(leq[x][y] for y in range(size))]
    if len(tops) != 1:
        raise ValueError("no unique top")
    return fin_algebra(
        size,
        [("meet", 2, meet), ("join", 2, join)],
        join,
        top=tops[0],
    )


def chain(n: int) -> FinAlgebra:
    return lattice_from_covers(n, [(i, i + 1) for i in range(n - 1)])


def product(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """Direct product of two lattice algebras, elements ordered pairwise."""
    elems = list(itertools.product(range(a.size), range(b.size)))
    index = {e: i for i, e in enumerate(elems)}
    covers = []
    for (xa, xb), i in index.items():
        for (ya, yb), j in index.items():
            da = a.leq(xa, ya) and xa != ya
            db = b.leq(xb, yb) and xb != yb
            if (da and xb == yb) or (db and xa == ya):
                covers.append((i, j))
    return lattice_from_covers(len(elems), covers)


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


def relabel_shift(covers, by):
    return [(a + by, b + by) for a, b in covers]


@lru_cache(maxsize=None)
def bundled_corpus() -> tuple:
    """(name, lattice) pairs; >= 20 lattices, all of size <= 6."""
    square = [(0, 1), (0, 2), (1, 3), (2, 3)]
    entries = [
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain4", chain(4)),
        ("chain5", chain(5)),
        ("chain6", chain(6)),
        ("2x2", product(chain(2), chain(2))),
        ("2x3", product(chain(2), chain(3))),
        ("n5", n5()),
        ("m3", m3()),
        ("m4", m4()),
        ("hexagon", hexagon()),
        ("2x2_top", lattice_from_covers(5, square + [(3, 4)])),
        ("2x2_bot", lattice_from_covers(5, [(0, 1)] + relabel_shift(square, 1))),
        (
            "2x2_bounds",
            lattice_from_covers(6, [(0, 1)] + relabel_shift(square, 1) + [(4, 5)]),
        ),
        ("2x2_tower", lattice_from_covers(6, square + [(3, 4), (4, 5)])),
        (
            "m3_top",
            lattice_from_covers(
                6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5)]
            ),
        ),
        (
            "m3_bot",
            lattice_from_covers(
                6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]
            ),
        ),
        (
            "n5_top",
            lattice_from_covers(6, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (4, 5)]),
        ),
        (
            "n5_bot",
            lattice_from_covers(6, [(0, 1), (1, 2), (2, 3), (3, 5), (1, 4), (4, 5)]),
        ),
        (
            "parallel22",
            lattice_from_covers(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]),
        ),
    ]
    return tuple(entries)
