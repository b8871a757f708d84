from itertools import product

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from minuscule import Heap, IdealLattice, build_cartan, generate_orbit
from minuscule.cli import build_case, default_catalog

# Every property test is derandomized and untimed; each sets only its
# own max_examples.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def bundle():
    """Cached access to a fully built case."""

    def _get(family, rank, node):
        return build_case(family, rank, node)

    return _get


def small_catalog():
    """Cases cheap enough for quadratic-or-worse exhaustive tests."""
    return [
        ("A", 1, 1),
        ("A", 2, 1),
        ("A", 3, 2),
        ("A", 4, 2),
        ("A", 5, 3),
        ("D", 4, 1),
        ("D", 4, 4),
        ("D", 5, 5),
        ("E", 6, 6),
    ]


@pytest.fixture(scope="session")
def small_dominant_orbits():
    """(Cartan datum, weight, orbit) for every dominant weight with
    coordinates at most 2 summing to at most 3, over A3, A4, D4, D5 and
    E6: 208 weights, minuscule or not."""
    out = []
    for family, rank in [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]:
        cd = build_cartan(family, rank)
        out += [
            (cd, lam, generate_orbit(cd, lam))
            for lam in product(range(3), repeat=rank)
            if sum(lam) <= 3
        ]
    return out


@st.composite
def random_heap_word(draw, with_base=False):
    """A Cartan datum of type A_n, D_n, E6 or E7 and a random word over
    its nodes, so an arbitrary heap; with ``with_base``, also a random
    integral base weight as a third entry."""
    family = draw(st.sampled_from("ADE"))
    ranks = {"A": st.integers(1, 5), "D": st.integers(3, 5), "E": st.sampled_from((6, 7))}
    rank = draw(ranks[family])
    length = draw(st.integers(0, 7))
    word = draw(st.lists(st.integers(1, rank), min_size=length, max_size=length))
    cd = build_cartan(family, rank)
    if not with_base:
        return cd, tuple(word)
    base = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
    return cd, tuple(word), tuple(base)


@st.composite
def hand_built_heaps(draw):
    """A heap of up to six elements with random labels over A3 and any
    ascending covers, so its fibers need not be chains."""
    cd = build_cartan("A", 3)
    n = draw(st.integers(0, 6))
    labels = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    pairs = [(a, b) for b in range(n) for a in range(b)]
    covers = tuple(sorted(draw(st.sets(st.sampled_from(pairs))) if pairs else ()))
    return Heap(cd, labels, covers)


def base_shifted_lattices(spec):
    """The lattice of a catalog case, then its ideals, covers and weights
    over its heap with the base weight shifted by omega_i, for each node
    i in turn."""
    L = build_case(spec.family, spec.rank, spec.node).lattice
    h = L.heap
    yield L
    for i in h.cartan.nodes:
        base = tuple(b + (j == i - 1) for j, b in enumerate(h.base))
        shifted = Heap(h.cartan, h.labels, h.covers, base)
        yield IdealLattice(shifted, L.ideals, L.covers, L.weights)
