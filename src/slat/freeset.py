"""Free-set search for finite set maps.

A map sends n-element subsets of a ground set to finite subsets; a set
U of n+1 elements is free when no member lies in the image of the other
n.  Over finite ground sets a free set need not exist; the searcher
reports the lexicographically first one or none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .conlat import FormatError


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


def _parse_set(text: str, lineno: int) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise FormatError(f"line {lineno}: expected {{...}} set, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(part.strip() for part in body.split(","))


def parse_phi(text: str) -> PhiMap:
    """Parse ``ground``/``arity`` headers plus ``phi {..} -> {..}`` lines."""
    ground = None
    arity = None
    images = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ground"):
            ground = tuple(sorted(line.split()[1:]))
        elif line.startswith("arity"):
            try:
                arity = int(line.split()[1])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"line {lineno}: bad arity") from exc
            if arity < 0:
                raise FormatError(f"line {lineno}: arity must not be negative")
        elif line.startswith("phi"):
            body = line[3:].strip()
            if "->" not in body:
                raise FormatError(f"line {lineno}: phi line needs '->'")
            left, right = body.split("->", 1)
            images[_parse_set(left, lineno)] = _parse_set(right, lineno)
        else:
            raise FormatError(f"line {lineno}: unknown directive")
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


def format_phi(phi: PhiMap) -> str:
    lines = ["ground " + " ".join(phi.ground), f"arity {phi.arity}"]
    for key in sorted(phi.images, key=lambda s: sorted(s)):
        val = phi.images[key]
        lines.append(
            "phi {%s} -> {%s}"
            % (",".join(sorted(key)), ",".join(sorted(val)))
        )
    return "\n".join(lines) + "\n"
