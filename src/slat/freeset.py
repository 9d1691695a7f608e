"""Free-set search for finite set maps.

A map sends n-element subsets of a ground set to finite subsets; a set
U of n+1 elements is free when no member lies in the image of the other
n.  Over finite ground sets a free set need not exist; the searcher
reports the lexicographically first one or none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .conlat import Directive, FormatError, distinct_names, read_directives


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
    members = [part.strip() for part in body.split(",")]
    if "" in members:
        raise ValueError(f"empty member in set {text!r}")
    return frozenset(distinct_names(members))


def _arity(args) -> int:
    if (arity := int(args[0])) < 0:
        raise ValueError("arity must not be negative")
    return arity


def _phi_label(key) -> str:
    return "phi {%s}" % ",".join(sorted(key))


def _phi_line(args) -> tuple:
    left, arrow, right = " ".join(args).partition("->")
    if not arrow:
        raise ValueError("phi line needs '->'")
    return _parse_set(left), _parse_set(right)


def parse_phi(text: str) -> PhiMap:
    """Parse ``ground``/``arity`` headers plus ``phi {..} -> {..}`` lines."""
    ground, arity, images = read_directives(
        text,
        {
            "ground": Directive(None, distinct_names, once=True),
            "arity": Directive(1, _arity, once=True),
            "phi": Directive(None, _phi_line, label=_phi_label),
        },
    ).values()
    if ground is None or arity is None:
        raise FormatError("phi file needs 'ground' and 'arity' lines")
    phi = PhiMap(ground, arity, images)
    gset = set(ground)
    for key, val in images.items():
        label = _phi_label(key)
        if len(key) != arity:
            raise FormatError(f"{label}: argument must have {arity} element{'s' * (arity != 1)}")
        if outside := sorted((key | val) - gset):
            raise FormatError(f"{label}: element {outside[0]} not in the ground set")
    return phi
