from math import comb

import pytest

from minuscule import (
    DomainError,
    OrbitPoset,
    ResourceLimitError,
    build_cartan,
    fundamental_weight,
    generate_orbit,
    saturated_chain,
    simple_reflection,
    verify_minuscule,
)
import minuscule.orbit as orbit_module
from conftest import small_catalog
from minuscule.cli import default_catalog, main
from oracles import (
    all_reflections_orbit,
    closure_orbit,
    down_set_closure,
    join_irreducible_indices,
    minuscule_catalog,
)


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
    with pytest.raises(DomainError) as info:
        generate_orbit(cd, (1,))
    assert str(info.value) == "weight has 1 coordinates, expected 2"


def assert_orbit_matches_the_all_reflections_closure(cd, lam, orb):
    """Equal weights, covers and layers, and the cap message with the cap
    at one less than the orbit's size, at half of it and at 0."""
    want = all_reflections_orbit(cd.matrix, lam)
    assert (orb.weights, orb.covers, orb.layers) == want
    size = len(want[0])
    for cap in (size - 1, size // 2, 0):
        with pytest.raises(ResourceLimitError) as exc:
            generate_orbit(cd, lam, cap)
        assert str(exc.value) == f"orbit exceeds cap of {cap} weights"


def test_orbit_walk_matches_the_all_reflections_closure_on_the_catalog():
    for spec in default_catalog():
        cd = build_cartan(spec.family, spec.rank)
        lam = fundamental_weight(cd, spec.node)
        size = len(generate_orbit(cd, lam))
        assert_orbit_matches_the_all_reflections_closure(cd, lam, generate_orbit(cd, lam, size))


def test_orbit_walk_matches_the_all_reflections_closure_on_small_dominant_weights(
    small_dominant_orbits,
):
    """Positive coordinates lead a layer on for any dominant weight, not
    only a minuscule one; the caps fall inside and between layers."""
    assert len(small_dominant_orbits) == 208
    for cd, lam, orb in small_dominant_orbits:
        assert_orbit_matches_the_all_reflections_closure(cd, lam, orb)


def test_orbit_cap():
    cd = build_cartan("D", 8)
    with pytest.raises(ResourceLimitError):
        generate_orbit(cd, fundamental_weight(cd, 8), cap=100)


def count_formed_weights(monkeypatch):
    """The set of distinct weights ``generate_orbit`` forms by ``_reflect``
    from now on."""
    formed = set()
    reflect = orbit_module._reflect

    def counting(cd, i, mu):
        nu = reflect(cd, i, mu)
        formed.add(nu)
        return nu

    monkeypatch.setattr(orbit_module, "_reflect", counting)
    return formed


@pytest.mark.parametrize("cap", [1, 5, 6, 7, 30, 719, 720])
def test_the_cap_bounds_the_weights_formed(monkeypatch, cap):
    """rho of A5, not minuscule, has 720 weights in layers of 1, 5, 14,
    24, ...: the walk stops as soon as the orbit outgrows the cap, inside
    a layer as at its end, so ``_reflect`` forms at most cap + 1 distinct
    weights; at 720 the whole orbit is built."""
    formed = count_formed_weights(monkeypatch)
    cd = build_cartan("A", 5)
    if cap < 720:
        with pytest.raises(ResourceLimitError) as exc:
            generate_orbit(cd, (1,) * 5, cap)
        assert str(exc.value) == f"orbit exceeds cap of {cap} weights"
        assert len(formed) <= cap + 1
    else:
        assert len(generate_orbit(cd, (1,) * 5, cap)) == 720
        assert len(formed) == 719


def test_a_capped_non_minuscule_node_exits_3_having_formed_at_most_cap_plus_one_weights(
    capsys, monkeypatch
):
    """Node 2 of D8 is not minuscule, and its orbit outgrows a cap of 100
    inside a layer: exit 3 with the ideal-count message."""
    formed = count_formed_weights(monkeypatch)
    assert main(["build", "D", "8", "2", "--cap-ideals", "100"]) == 3
    assert capsys.readouterr() == ("", "error: ideal count exceeds cap of 100\n")
    assert 0 < len(formed) <= 101


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
    assert all(sum(v == k for _, v, _ in orb.covers) == 1 for k in irr)
    assert len(irr) == 4


def test_below_masks_are_the_closure_of_the_covers(small_dominant_orbits):
    """Every cover ascends in weight index, on every catalog orbit and on
    the 208 small dominant orbits, and the strict down-sets walked in
    index order are those of the order-free fixpoint closure."""
    orbits = [orb for _, _, orb in small_dominant_orbits]
    for spec in default_catalog():
        cd = build_cartan(spec.family, spec.rank)
        orbits.append(generate_orbit(cd, fundamental_weight(cd, spec.node)))
    assert len(orbits) == 208 + 46
    for orb in orbits:
        assert all(u < v for u, v, _ in orb.covers)
        down = down_set_closure(len(orb), [(u, v) for u, v, _ in orb.covers])
        assert orb.below_masks == tuple(m & ~(1 << k) for k, m in enumerate(down))


def test_a_cover_going_down_in_index_is_a_domain_error():
    """The cyclic A1 orbits 0 -> 1 -> 0 and 0 -> 1 -> 1, and the A2
    vector orbit listed top first, which is acyclic but has its covers
    going down in index: no such orbit poset is built."""
    a1 = generate_orbit(build_cartan("A", 1), (1,))
    a2 = generate_orbit(build_cartan("A", 2), (1, 0))
    flipped = tuple((2 - u, 2 - v, i) for u, v, i in a2.covers)
    on_a1, on_a2 = "v < 2 and 1 <= i <= 1", "v < 3 and 1 <= i <= 2"
    for args, cover, rule in (
        ((a1.cartan, a1.weights, ((0, 1, 1), (1, 0, 1)), a1.layers), (1, 0, 1), on_a1),
        ((a1.cartan, a1.weights, ((0, 1, 1), (1, 1, 1)), a1.layers), (1, 1, 1), on_a1),
        ((a2.cartan, a2.weights[::-1], flipped, a2.layers[::-1]), (2, 1, 1), on_a2),
    ):
        with pytest.raises(DomainError) as info:
            OrbitPoset(*args)
        assert str(info.value) == (
            f"orbit cover {cover} breaks the rule that each (u, v, i) has 0 <= u < {rule}"
        )


def test_an_orbit_poset_is_checked_at_construction():
    """Each rule once, on the A2 vector orbit; the empty orbit and the
    cover (0, 9, 1) used to end in an IndexError inside verify_minuscule."""
    a2 = generate_orbit(build_cartan("A", 2), (1, 0))
    cd, weights, covers, layers = a2.cartan, a2.weights, a2.covers, a2.layers
    rule = "breaks the rule that each (u, v, i) has 0 <= u < v < 3 and 1 <= i <= 2"
    for args, message in (
        ((cd, (), (), ()), "orbit has no weights"),
        (
            (cd, weights[:2] + ((0, -1, 0),), covers, layers),
            "orbit weight (0, -1, 0) has 3 coordinates, expected 2",
        ),
        ((cd, weights, covers, layers[:2]), "orbit has 2 layers for 3 weights"),
        ((cd, weights, covers + ((0, 9, 1),), layers), f"orbit cover (0, 9, 1) {rule}"),
        ((cd, weights, covers + ((-1, 2, 1),), layers), f"orbit cover (-1, 2, 1) {rule}"),
        ((cd, weights, covers + ((0, 2, 3),), layers), f"orbit cover (0, 2, 3) {rule}"),
        ((cd, weights, covers + ((0, 2, 0),), layers), f"orbit cover (0, 2, 0) {rule}"),
    ):
        with pytest.raises(DomainError) as info:
            OrbitPoset(*args)
        assert str(info.value) == message


def test_a_weight_listed_twice_is_named():
    a2 = generate_orbit(build_cartan("A", 2), (1, 0))
    twice = OrbitPoset(a2.cartan, a2.weights[:2] + a2.weights[1:2], a2.covers, a2.layers)
    report = verify_minuscule(a2.cartan, twice)
    assert report.summary() == "not minuscule: orbit weight (-1, 1) is listed twice"


def test_a_cover_past_the_last_element_of_its_label_is_named():
    """The A3 orbit of the third fundamental weight, chain word (3, 2, 1),
    with a cover (1, 3, 3) beside the chain: the ideal of weight 1 holds
    the one element of label 3 already."""
    cd = build_cartan("A", 3)
    orb = generate_orbit(cd, fundamental_weight(cd, 3))
    assert orb.covers == ((0, 1, 3), (1, 2, 2), (2, 3, 1))
    extra = OrbitPoset(cd, orb.weights, orb.covers + ((1, 3, 3),), orb.layers)
    assert saturated_chain(extra) == (3, 2, 1)
    assert verify_minuscule(cd, extra).summary() == (
        f"not minuscule: orbit cover {orb.weights[1]} -> {orb.weights[3]} at node 3"
        f" adds nothing: the ideal of {orb.weights[1]} holds all of label 3"
    )


@pytest.mark.parametrize("family,rank,node", [("A", 3, 2), ("D", 5, 5), ("E", 6, 6)])
def test_a_dropped_cover_into_a_join_reducible_weight_is_refuted_by_the_lattice(
    family, rank, node
):
    """The walk still reaches every weight, and the lattice constructor
    finds the ideal of the lower weight missing a cover up, and names
    that weight."""
    cd = build_cartan(family, rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    good = verify_minuscule(cd, orb).lattice
    chain = saturated_chain(orb)
    on_chain, u = set(), orb.bottom
    while orb.up_adjacency[u]:
        i, v = orb.up_adjacency[u][0]
        on_chain.add((u, v, i))
        u = v
    dropped = next(
        c for c in orb.covers if c not in on_chain and sum(w == c[1] for _, w, _ in orb.covers) > 1
    )
    u, v, i = dropped
    covers = tuple(c for c in orb.covers if c != dropped)
    tampered = OrbitPoset(cd, orb.weights, covers, orb.layers)
    assert saturated_chain(tampered) == chain
    lo = good.weights.index(orb.weights[u])
    hi = good.weights.index(orb.weights[v])
    (p,) = [p for a, b, p in good.covers if (a, b) == (lo, hi)]
    assert verify_minuscule(cd, tampered).summary() == (
        f"not minuscule: no lattice cover adds the addable element {p}"
        f" to ideal {lo} of weight {orb.weights[u]}"
    )


def test_top_of_an_orbit_with_two_maximal_weights_is_a_domain_error():
    """A hand-built A2 digraph: the bottom covered by two weights that
    nothing covers."""
    a2 = generate_orbit(build_cartan("A", 2), (1, 0))
    fork = OrbitPoset(a2.cartan, a2.weights, ((0, 1, 1), (0, 2, 2)), (0, 1, 1))
    with pytest.raises(DomainError) as info:
        fork.top
    assert str(info.value) == "orbit has 2 maximal weights, not 1"
    assert a2.top == 2


def test_saturated_chain_on_a_cyclic_cover_digraph_is_a_domain_error():
    """No walk up the covers can go round a cycle: the cyclic A1 orbit is
    refused at construction."""
    a1 = generate_orbit(build_cartan("A", 1), (1,))
    with pytest.raises(DomainError) as info:
        OrbitPoset(a1.cartan, a1.weights, ((0, 1, 1), (1, 0, 1)), a1.layers)
    assert str(info.value).startswith("orbit cover (1, 0, 1) breaks the rule")


def test_the_summary_of_a_certified_orbit():
    cd = build_cartan("A", 3)
    report = verify_minuscule(cd, generate_orbit(cd, fundamental_weight(cd, 2)))
    assert report.ok
    assert report.summary() == "minuscule: 6 weights form a distributive lattice"
