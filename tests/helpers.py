"""Oracles shared by several test modules."""

from slat.conlat import Congruence


def refines(c1: Congruence, c2: Congruence) -> bool:
    """Whether every c1-class is contained in a c2-class: each c1 block id
    pairs with a single c2 block id."""
    return len(set(zip(c1.block_of, c2.block_of))) == len(set(c1.block_of))
