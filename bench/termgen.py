"""Width-targeted seeded term generator for the ext-random workload.

``freepairs.random_elem`` mostly draws rank-0 values, so its terms rarely
reach the rewrite stages that only fire with several triples.  This
generator builds expression trees (``slat.expr`` ASTs) that are
syntactically guaranteed to be well formed -- every ``bowtie(a, b, c)``
has ``c`` a join of joinands of ``a`` and ``b``, hence ``c <= a v b`` --
with 2 to 4 splitting triples at rank 1 or 2.  Generation draws only
from the rng and never calls the library, so building a case costs no
library work and leaves every memo table untouched.
"""

from __future__ import annotations

from slat.expr import BowtieExpr, GenExpr, JoinExpr


def _join(parts):
    parts = list(parts)
    return parts[0] if len(parts) == 1 else JoinExpr(tuple(parts))


class TermGen:
    """Terms of rank 1-2 carrying a chosen number of splitting triples."""

    def __init__(self, rng, names):
        self.rng = rng
        self.names = tuple(names)

    def atom(self):
        """A rank-0 term: one or two generators, never top or zero.

        Returns the term and its generators (each one lies below it).
        """
        names = self.rng.sample(self.names, self.rng.choice((1, 1, 2)))
        gens = [GenExpr(self.rng.randrange(2), n) for n in sorted(names)]
        return _join(gens), gens

    def _some(self, parts):
        k = self.rng.randint(1, min(2, len(parts)))
        return _join(self.rng.sample(parts, k))

    def rank1(self, width):
        """A join of ``width`` rank-1 splitting elements, sometimes with
        a rank-0 part; returns the term and its joinands."""
        joinands = []
        for _ in range(width):
            a, ga = self.atom()
            b, gb = self.atom()
            while gb == ga:
                b, gb = self.atom()
            joinands.append(BowtieExpr(a, b, self._some(ga + gb)))
        if self.rng.random() < 0.3:
            joinands.append(self.atom()[0])
        return _join(joinands), joinands

    def rank2(self, width):
        """A join of ``width`` splitting elements over rank-1 entries."""
        joinands = []
        for _ in range(width):
            a, ja = self.rank1(self.rng.randint(1, 2))
            b, jb = self.rank1(self.rng.randint(1, 2))
            joinands.append(BowtieExpr(a, b, self._some(ja + jb)))
        return _join(joinands), joinands

    def operand(self, rank, width):
        return (self.rank1 if rank == 1 else self.rank2)(width)[0]

    def renaming(self):
        return {n: self.rng.choice(self.names) for n in self.names}
