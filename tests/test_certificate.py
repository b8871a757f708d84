"""The minuscule certificate: agreement with the cubic brute-force oracle,
named counterexamples on tampered orbit posets, and the scale ladder."""

from dataclasses import replace

import pytest

from minuscule import build_cartan, fundamental_weight, generate_orbit, verify_minuscule
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


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_dropped_cover_is_named(family, rank, node):
    cd, orb = _orbit(family, rank, node)
    u, v, i = _off_chain_cover(orb)
    tampered = replace(orb, covers=tuple(c for c in orb.covers if c != (u, v, i)))
    report = verify_minuscule(cd, tampered)
    assert not report.ok
    assert f"{orb.weights[u]} -> {orb.weights[v]} at node {i}" in report.summary()


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_relabeled_cover_is_named(family, rank, node):
    cd, orb = _orbit(family, rank, node)
    u, v, i = _off_chain_cover(orb)
    j = i % rank + 1
    covers = tuple((a, b, j) if (a, b, k) == (u, v, i) else (a, b, k) for a, b, k in orb.covers)
    report = verify_minuscule(cd, replace(orb, covers=covers))
    assert not report.ok
    assert f"{orb.weights[u]} -> {orb.weights[v]} at node {i}" in report.summary()


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_swapped_weights_are_named(family, rank, node):
    cd, orb = _orbit(family, rank, node)
    a, b = 1, orb.top  # different layers, neither the bottom
    weights = list(orb.weights)
    weights[a], weights[b] = weights[b], weights[a]
    report = verify_minuscule(cd, replace(orb, weights=tuple(weights)))
    assert not report.ok
    summary = report.summary()
    assert summary.startswith("not minuscule: cover ")
    assert str(orb.weights[a]) in summary or str(orb.weights[b]) in summary


@pytest.mark.parametrize("family,rank,node", TAMPER_CASES)
def test_extra_cover_is_named(family, rank, node):
    # A bottom-to-top edge with the largest label leaves the saturated
    # chain, and so J(P), as they were; only the orbit side gains a cover.
    cd, orb = _orbit(family, rank, node)
    extra = (orb.bottom, orb.top, rank)
    report = verify_minuscule(cd, replace(orb, covers=orb.covers + (extra,)))
    assert not report.ok
    assert report.summary() == (
        f"not minuscule: orbit cover {orb.weights[orb.bottom]} -> {orb.weights[orb.top]}"
        f" at node {rank} is not a cover of J(P)"
    )


def test_heap_with_too_many_ideals_fails():
    # Relabel the saturated chain of A3.2 from 2,1,3,2 to 1,3,1,3: the
    # heap is then two commuting 2-chains with 9 ideals for 6 weights.
    cd, orb = _orbit("A", 3, 2)
    relabel = {(0, 1, 2): 1, (1, 2, 1): 3, (2, 4, 3): 1, (4, 5, 2): 3}
    assert set(relabel) <= set(orb.covers)
    covers = tuple((u, v, relabel.get((u, v, i), i)) for u, v, i in orb.covers)
    report = verify_minuscule(cd, replace(orb, covers=covers))
    assert not report.ok
    assert "more than 6 ideals" in report.summary()


def test_short_chain_misses_a_weight():
    # Without its last cover the A2 vector orbit walks to (-1, 1) and stops.
    cd, orb = _orbit("A", 2, 1)
    report = verify_minuscule(cd, replace(orb, covers=orb.covers[:1]))
    assert not report.ok
    assert report.summary() == "not minuscule: orbit weight (0, -1) is the weight of no ideal"


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
