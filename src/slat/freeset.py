"""Free-set search for finite set maps.

A map sends n-element subsets of a ground set to finite subsets; a set
U of n+1 elements is free when no member lies in the image of the other
n.  Over finite ground sets a free set need not exist; the searcher
reports the lexicographically first one or none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .conlat import Directive, FormatError, read_directives


@dataclass
class PhiMap:
    ground: tuple
    arity: int
    images: dict = field(default_factory=dict)

    def image(self, subset) -> frozenset:
        subset = frozenset(subset)
        if len(subset) != self.arity:
            raise ValueError(f"argument must have {self.arity} elements")
        return self.images.get(subset, frozenset())


def is_free(U, phi: PhiMap) -> bool:
    U = frozenset(U)
    if len(U) != phi.arity + 1:
        raise ValueError(f"free candidates must have {phi.arity + 1} elements")
    if not U <= set(phi.ground):
        raise ValueError("candidate not within the ground set")
    return all(x not in phi.image(U - {x}) for x in U)


def find_free(phi: PhiMap):
    """First free (arity+1)-subset in lexicographic order, or None."""
    for combo in itertools.combinations(sorted(phi.ground), phi.arity + 1):
        if is_free(combo, phi):
            return combo
    return None


def _parse_set(text: str) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"expected {{...}} set, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(part.strip() for part in body.split(","))


def parse_phi(text: str) -> PhiMap:
    """Parse ``ground``/``arity`` headers plus ``phi {..} -> {..}`` lines."""
    ground = None
    arity = None
    images = {}

    def ground_line(args):
        nonlocal ground
        ground = tuple(sorted(args))

    def arity_line(args):
        nonlocal arity
        arity = int(args[0])
        if arity < 0:
            raise ValueError("arity must not be negative")

    def phi_line(args):
        left, arrow, right = " ".join(args).partition("->")
        if not arrow:
            raise ValueError("phi line needs '->'")
        key = _parse_set(left)
        if key in images:
            raise ValueError("phi {%s} defined twice" % ",".join(sorted(key)))
        images[key] = _parse_set(right)

    read_directives(
        text,
        {
            "ground": Directive(None, ground_line, once=True),
            "arity": Directive(1, arity_line, once=True),
            "phi": Directive(None, phi_line),
        },
    )
    if ground is None or arity is None:
        raise FormatError("phi file needs 'ground' and 'arity' lines")
    phi = PhiMap(ground, arity, images)
    gset = set(ground)
    for key, val in images.items():
        if len(key) != arity:
            raise FormatError(f"phi argument {sorted(key)} has wrong size")
        if not key <= gset or not val <= gset:
            raise FormatError("phi line mentions elements outside the ground set")
    return phi
