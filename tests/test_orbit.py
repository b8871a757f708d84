from math import comb

import pytest

from minuscule import (
    DomainError,
    ResourceLimitError,
    build_cartan,
    fundamental_weight,
    generate_orbit,
    minuscule_catalog,
    saturated_chain,
    simple_reflection,
    verify_minuscule,
)
from conftest import small_catalog
from oracles import closure_orbit, join_irreducible_indices


def test_a2_vector_orbit_listing():
    cd = build_cartan("A", 2)
    orb = generate_orbit(cd, (1, 0))
    assert orb.weights == ((1, 0), (-1, 1), (0, -1))
    assert orb.layers == (0, 1, 2)
    assert orb.bottom == 0 and orb.top == 2


def test_a3_middle_node_size():
    cd = build_cartan("A", 3)
    orb = generate_orbit(cd, fundamental_weight(cd, 2))
    assert len(orb) == comb(4, 2)


@pytest.mark.parametrize("rank,node", [(r, k) for r in range(1, 8) for k in range(1, r + 1)])
def test_type_a_orbit_sizes_binomial(rank, node):
    cd = build_cartan("A", rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    assert len(orb) == comb(rank + 1, node)


@pytest.mark.parametrize("rank", range(4, 9))
def test_type_d_orbit_sizes(rank):
    cd = build_cartan("D", rank)
    assert len(generate_orbit(cd, fundamental_weight(cd, 1))) == 2 * rank
    assert len(generate_orbit(cd, fundamental_weight(cd, rank))) == 2 ** (rank - 1)


def test_e7_exceptional_orbit_matches_closure_oracle():
    cd = build_cartan("E", 7)
    orb = generate_orbit(cd, fundamental_weight(cd, 7))
    assert len(orb) == 56
    assert set(orb.weights) == closure_orbit(cd.matrix, fundamental_weight(cd, 7))


def test_non_dominant_and_non_integral_rejected():
    cd = build_cartan("A", 2)
    with pytest.raises(DomainError):
        generate_orbit(cd, (-1, 1))
    from fractions import Fraction

    with pytest.raises(DomainError):
        generate_orbit(cd, (Fraction(1, 2), Fraction(0)))


def test_orbit_cap():
    cd = build_cartan("D", 8)
    with pytest.raises(ResourceLimitError):
        generate_orbit(cd, fundamental_weight(cd, 8), cap=100)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_orbit_invariants(family, rank, node):
    cd = build_cartan(family, rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    # closure: reflections never leave the orbit
    for w in orb.weights:
        for i in cd.nodes:
            assert simple_reflection(cd, i, w) in orb.index
    # pairings bounded
    assert all(-1 <= c <= 1 for w in orb.weights for c in w)
    # covers step exactly one layer, nothing stalls before the top
    for u, v, i in orb.covers:
        assert orb.layers[v] == orb.layers[u] + 1
        assert simple_reflection(cd, i, orb.weights[u]) == orb.weights[v]
    top = orb.top
    for k in range(len(orb)):
        if k != top:
            assert orb.up_adjacency[k]
    # agreement with the independent fixpoint closure
    assert set(orb.weights) == closure_orbit(cd.matrix, fundamental_weight(cd, node))


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_catalog_cases_certify(family, rank, node):
    cd = build_cartan(family, rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    assert verify_minuscule(cd, orb).ok


def test_adjoint_a2_fails_with_concrete_weight():
    cd = build_cartan("A", 2)
    lam = (1, 1)
    orb = generate_orbit(cd, lam)
    report = verify_minuscule(cd, orb)
    assert not report.ok
    # the oracle closure tells us exactly which weights break the pairing bound
    expected = {
        (w, i + 1, w[i])
        for w in closure_orbit(cd.matrix, lam)
        for i in range(2)
        if not -1 <= w[i] <= 1
    }
    assert set(report.pairing_violations) == expected
    assert expected  # the adjoint orbit really does violate the bound


def test_d4_adjoint_fails():
    cd = build_cartan("D", 4)
    report = verify_minuscule(cd, generate_orbit(cd, fundamental_weight(cd, 2)))
    assert not report.ok
    assert report.pairing_violations


def test_catalog_nodes_are_exactly_the_minuscule_ones():
    for family, rank in [("A", 3), ("D", 4), ("D", 5), ("E", 6)]:
        cd = build_cartan(family, rank)
        good = set(minuscule_catalog(cd))
        for node in cd.nodes:
            orb = generate_orbit(cd, fundamental_weight(cd, node))
            assert verify_minuscule(cd, orb).ok == (node in good)


def test_e7_accepts_only_node_seven():
    cd = build_cartan("E", 7)
    for node in cd.nodes:
        orb = generate_orbit(cd, fundamental_weight(cd, node))
        assert verify_minuscule(cd, orb).ok == (node == 7)


def test_saturated_chain_examples():
    cd1 = build_cartan("A", 1)
    assert saturated_chain(generate_orbit(cd1, (1,))) == (1,)
    cd2 = build_cartan("A", 2)
    assert saturated_chain(generate_orbit(cd2, (1, 0))) == (1, 2)
    cd3 = build_cartan("A", 3)
    assert saturated_chain(generate_orbit(cd3, fundamental_weight(cd3, 2))) == (2, 1, 3, 2)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_all_maximal_chains_have_equal_length(family, rank, node):
    cd = build_cartan(family, rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    length = max(orb.layers)
    # depth-first maximal chain lengths from the bottom
    stack = [(orb.bottom, 0)]
    while stack:
        u, depth = stack.pop()
        ups = orb.up_adjacency[u]
        if not ups:
            assert depth == length
        stack.extend((v, depth + 1) for _, v in ups)
    assert len(saturated_chain(orb)) == length


def test_join_irreducibles_cover_one_weight():
    cd = build_cartan("A", 3)
    orb = generate_orbit(cd, fundamental_weight(cd, 2))
    irr = join_irreducible_indices(orb)
    assert all(len(orb.down_adjacency[k]) == 1 for k in irr)
    assert len(irr) == 4
