import itertools
import random

import pytest

from slat.conlat import FormatError
from slat.freeset import PhiMap, find_free, is_free, parse_phi


def test_empty_map_every_pair_free():
    phi = PhiMap(("0", "1", "2"), 1, {})
    for combo in itertools.combinations(("0", "1", "2"), 2):
        assert is_free(combo, phi)
    assert find_free(phi) == ("0", "1")


def test_no_free_pair_fixture():
    ground = ("0", "1", "2")
    phi = PhiMap(
        ground, 1, {frozenset((x,)): frozenset(ground) - {x} for x in ground}
    )
    assert find_free(phi) is None
    for combo in itertools.combinations(ground, 2):
        assert not is_free(combo, phi)


def test_singleton_fixture():
    ground = ("0", "1", "2")
    phi = PhiMap(ground, 1, {frozenset((x,)): frozenset((x,)) for x in ground})
    assert is_free(("0", "1"), phi)
    assert find_free(phi) == ("0", "1")


def test_found_sets_are_free():
    rng = random.Random("freeset:self")
    for trial in range(50):
        size = rng.randrange(2, 7)
        ground = tuple(str(i) for i in range(size))
        n = rng.randrange(1, min(3, size))
        images = {
            frozenset(c): frozenset(g for g in ground if rng.random() < 0.5)
            for c in itertools.combinations(ground, n)
        }
        phi = PhiMap(ground, n, images)
        found = find_free(phi)
        if found is not None:
            assert is_free(found, phi)


def test_is_free_argument_validation():
    phi = PhiMap(("0", "1", "2"), 1, {})
    with pytest.raises(ValueError):
        is_free(("0",), phi)
    with pytest.raises(ValueError):
        is_free(("0", "9"), phi)
    with pytest.raises(ValueError, match="^argument must have 1 elements$"):
        phi.image(("0", "1"))


def test_parse_images():
    text = "ground 0 1 2\narity 1\nphi {0} -> {1,2}\nphi {1} -> {}\n"
    phi = parse_phi(text)
    assert phi.ground == ("0", "1", "2")
    assert phi.image(("0",)) == frozenset(("1", "2"))
    assert phi.image(("1",)) == frozenset()
    assert phi.image(("2",)) == frozenset()


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_phi("arity 1\n")
    with pytest.raises(FormatError):
        parse_phi("ground 0 1\narity 1\nphi {0} {1}\n")
    with pytest.raises(FormatError):
        parse_phi("ground 0 1\narity 1\nphi {0,1} -> {0}\n")
    with pytest.raises(FormatError):
        parse_phi("ground 0 1\narity 1\nphi {9} -> {0}\n")
    with pytest.raises(FormatError, match="^line 2: invalid literal"):
        parse_phi("ground 0 1\narity one\n")
    with pytest.raises(FormatError, match=r"^line 4: unknown directive 'phi\{0\}'"):
        parse_phi("ground 0 1\n# c\narity 1\nphi{0} -> {1}\n")
    with pytest.raises(FormatError, match=r"^line 3: expected \{\.\.\.\} set"):
        parse_phi("ground 0 1\narity 1\nphi 0 -> {1}\n")
    with pytest.raises(FormatError, match="^line 3: arity defined twice, first on line 2"):
        parse_phi("ground 0 1\narity 1\narity 2\n")
    with pytest.raises(FormatError, match="^line 3: ground defined twice, first on line 1"):
        parse_phi("ground 0 1\narity 1\nground 0\n")
    with pytest.raises(FormatError, match=r"^line 4: phi \{0\} defined twice$"):
        parse_phi("ground 0 1\narity 1\nphi {0} -> {1}\nphi {0} -> {0}\n")
