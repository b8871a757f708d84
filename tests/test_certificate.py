"""The minuscule certificate: agreement with the cubic brute-force oracle,
named counterexamples on tampered orbit posets, and the scale ladder."""

import pytest

from minuscule import (
    DomainError,
    OrbitPoset,
    build_cartan,
    fundamental_weight,
    enumerate_ideals,
    generate_orbit,
    heap_from_word,
    saturated_chain,
    verify_minuscule,
)
from minuscule.cli import build_case
from conftest import small_catalog
from oracles import cubic_minuscule_verdict

FUNDAMENTAL = [
    (family, rank, node)
    for family, rank in [("A", 3), ("D", 4), ("D", 5), ("E", 6)]
    for node in range(1, rank + 1)
]

# Dominant weights that are not fundamental; orbits of 1 to 270 weights.
NON_FUNDAMENTAL = [
    ("A", 1, (0,)),
    ("A", 1, (2,)),
    ("A", 2, (1, 1)),
    ("A", 2, (2, 0)),
    ("A", 3, (0, 0, 0)),
    ("A", 3, (1, 0, 1)),
    ("A", 4, (0, 1, 1, 0)),
    ("D", 4, (1, 0, 0, 1)),
    ("D", 5, (1, 0, 0, 0, 1)),
    ("E", 6, (1, 0, 0, 0, 0, 1)),
]


def _agree(family, rank, lam):
    cd = build_cartan(family, rank)
    report = verify_minuscule(cd, generate_orbit(cd, lam))
    assert report.ok == cubic_minuscule_verdict(cd.matrix, lam)


@pytest.mark.parametrize("family,rank,node", sorted(set(small_catalog()) | set(FUNDAMENTAL)))
def test_fundamental_weights_agree_with_cubic_oracle(family, rank, node):
    _agree(family, rank, fundamental_weight(build_cartan(family, rank), node))


@pytest.mark.parametrize("family,rank,lam", NON_FUNDAMENTAL)
def test_other_dominant_weights_agree_with_cubic_oracle(family, rank, lam):
    _agree(family, rank, lam)


def _orbit(family, rank, node):
    cd = build_cartan(family, rank)
    return cd, generate_orbit(cd, fundamental_weight(cd, node))


def _off_chain_cover(orb):
    """The first cover not on the smallest-label walk from the bottom, so
    tampering with it leaves the heap of the saturated chain unchanged."""
    chain = set()
    u = orb.bottom
    while orb.up_adjacency[u]:
        i, v = orb.up_adjacency[u][0]
        chain.add((u, v, i))
        u = v
    return next(c for c in orb.covers if c not in chain)


TAMPER_CASES = [("A", 3, 2), ("D", 5, 5), ("E", 6, 6)]


REFLECTION = "is not a reflection at a coordinate equal to 1"


def _in_degree(orb, v):
    return sum(w == v for _, w, _ in orb.covers)


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_dropped_cover_is_named(family, rank, node):
    # The off-chain cover is the one cover into its upper weight, so the
    # walk up the orbit covers reaches that weight no more.
    cd, orb = _orbit(family, rank, node)
    u, v, i = _off_chain_cover(orb)
    assert _in_degree(orb, v) == 1
    covers = tuple(c for c in orb.covers if c != (u, v, i))
    tampered = OrbitPoset(cd, orb.weights, covers, orb.layers)
    report = verify_minuscule(cd, tampered)
    assert not report.ok
    assert report.summary() == (
        f"not minuscule: orbit weight {orb.weights[v]} is the weight of no ideal"
    )


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_relabeled_cover_is_named(family, rank, node):
    cd, orb = _orbit(family, rank, node)
    u, v, i = _off_chain_cover(orb)
    assert _in_degree(orb, v) == 1
    j = i % rank + 1
    covers = tuple((a, b, j) if (a, b, k) == (u, v, i) else (a, b, k) for a, b, k in orb.covers)
    report = verify_minuscule(cd, OrbitPoset(cd, orb.weights, covers, orb.layers))
    assert not report.ok
    assert report.summary() == (
        f"not minuscule: orbit cover {orb.weights[u]} -> {orb.weights[v]} at node {j} {REFLECTION}"
    )


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_swapped_weights_are_named(family, rank, node):
    cd, orb = _orbit(family, rank, node)
    a, b = 1, orb.top  # different layers, neither the bottom
    weights = list(orb.weights)
    weights[a], weights[b] = weights[b], weights[a]
    report = verify_minuscule(cd, OrbitPoset(cd, tuple(weights), orb.covers, orb.layers))
    assert not report.ok
    # The one cover into weight 1 comes from the bottom, and now ends at
    # the top weight.
    ((u, _, i),) = [c for c in orb.covers if c[1] == a]
    assert report.summary() == (
        f"not minuscule: orbit cover {orb.weights[u]} -> {orb.weights[b]} at node {i} {REFLECTION}"
    )


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_extra_cover_is_named(family, rank, node):
    # A bottom-to-top edge with the largest label leaves the saturated
    # chain, and so J(P), as they were; the walk meets it first of the
    # covers into the top, and the top weight is no reflection of the bottom.
    cd, orb = _orbit(family, rank, node)
    extra = (orb.bottom, orb.top, rank)
    report = verify_minuscule(cd, OrbitPoset(cd, orb.weights, orb.covers + (extra,), orb.layers))
    assert not report.ok
    assert report.summary() == (
        f"not minuscule: orbit cover {orb.weights[orb.bottom]} -> {orb.weights[orb.top]}"
        f" at node {rank} {REFLECTION}"
    )


def test_heap_with_too_many_ideals_fails():
    # Relabel the saturated chain of A3.2 from 2,1,3,2 to 1,3,1,3: the
    # heap is then two commuting 2-chains with 9 ideals for 6 weights.
    # The first relabelled cover is already no reflection.
    cd, orb = _orbit("A", 3, 2)
    relabel = {(0, 1, 2): 1, (1, 2, 1): 3, (2, 4, 3): 1, (4, 5, 2): 3}
    assert set(relabel) <= set(orb.covers)
    covers = tuple((u, v, relabel.get((u, v, i), i)) for u, v, i in orb.covers)
    report = verify_minuscule(cd, OrbitPoset(cd, orb.weights, covers, orb.layers))
    assert not report.ok
    assert report.summary() == (
        f"not minuscule: orbit cover {orb.weights[0]} -> {orb.weights[1]} at node 1 {REFLECTION}"
    )


def test_short_chain_misses_a_weight():
    # Without its last cover the A2 vector orbit walks to (-1, 1) and stops.
    cd, orb = _orbit("A", 2, 1)
    report = verify_minuscule(cd, OrbitPoset(cd, orb.weights, orb.covers[:1], orb.layers))
    assert not report.ok
    assert report.summary() == "not minuscule: orbit weight (0, -1) is the weight of no ideal"


def test_cyclic_cover_digraph_is_a_domain_error():
    """Two covers 0 -> 1 -> 0 in the A1 orbit: the second does not ascend
    in weight index, so no such orbit poset is built, and no walk up its
    covers can go round a cycle."""
    cd, orb = _orbit("A", 1, 1)
    with pytest.raises(DomainError) as info:
        OrbitPoset(cd, orb.weights, ((0, 1, 1), (1, 0, 1)), orb.layers)
    assert str(info.value) == (
        "orbit cover (1, 0, 1) breaks the rule that each (u, v, i) has 0 <= u < v < 2"
        " and 1 <= i <= 1"
    )


@pytest.mark.parametrize("rank", [2, 4])
def test_orbit_of_another_rank_is_a_domain_error(rank):
    orb = _orbit("A", rank, 1)[1]
    a3 = build_cartan("A", 3)
    with pytest.raises(DomainError) as info:
        OrbitPoset(a3, orb.weights, orb.covers, orb.layers)
    assert str(info.value) == f"orbit weight {orb.weights[0]} has {rank} coordinates, expected 3"
    with pytest.raises(DomainError) as info:
        verify_minuscule(a3, orb)
    assert str(info.value) == f"orbit weights have {rank} coordinates, expected 3"


def test_non_minuscule_builds_no_lattice():
    cd = build_cartan("D", 4)
    report = verify_minuscule(cd, generate_orbit(cd, fundamental_weight(cd, 2)))
    assert report.pairing_violations and report.lattice is None


@pytest.mark.parametrize("family,rank,node,ideals", [("A", 11, 6, 924), ("D", 12, 12, 2048)])
def test_scale_ladder_certifies(family, rank, node, ideals):
    bundle = build_case(family, rank, node)
    assert bundle.report.ok
    assert len(bundle.lattice) == len(bundle.orbit) == ideals
    assert bundle.heap is bundle.lattice.heap


def test_orbit_past_five_thousand_weights_certifies():
    cd, orb = _orbit("A", 14, 7)
    report = verify_minuscule(cd, orb)
    assert report.ok and len(report.lattice) == 6435


def _assert_lattice_is_the_enumerated_one(cd, lam, orb):
    lattice = verify_minuscule(cd, orb).lattice
    reference = enumerate_ideals(heap_from_word(cd, saturated_chain(orb), base=lam))
    assert lattice.ideals == reference.ideals
    assert lattice.covers == reference.covers
    assert lattice.weights == reference.weights


@pytest.mark.parametrize(
    "family,rank,node", [("A", 9, 5), ("D", 10, 10), ("A", 11, 6), ("D", 12, 12)]
)
def test_certified_lattice_is_the_enumerated_one_on_the_ladder(family, rank, node):
    """The lattice read off the orbit covers, with the orbit's weights,
    is the one ``enumerate_ideals`` walks up from the heap of the
    saturated chain, recomputing every weight."""
    b = build_case(family, rank, node)
    _assert_lattice_is_the_enumerated_one(b.cartan, b.weight, b.orbit)


def test_certified_lattice_is_the_enumerated_one_on_the_catalog(catalog, bundle):
    for spec in catalog:
        b = bundle(spec.family, spec.rank, spec.node)
        _assert_lattice_is_the_enumerated_one(b.cartan, b.weight, b.orbit)
    assert len(catalog) == 46


def test_certified_lattice_is_the_enumerated_one_on_small_dominant_weights(
    small_dominant_orbits,
):
    certified = 0
    for cd, lam, orb in small_dominant_orbits:
        if verify_minuscule(cd, orb).ok:
            _assert_lattice_is_the_enumerated_one(cd, lam, orb)
            certified += 1
    assert certified > 0
