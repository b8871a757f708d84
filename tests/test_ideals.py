import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import (
    DomainError,
    InternalCheckError,
    ResourceLimitError,
    action_orbits,
    build_cartan,
    build_minuscule_heap,
    enumerate_ideals,
    fundamental_weight,
    gyration,
    heap_from_word,
    rowmotion,
    saturated_chain,
    simple_reflection,
    toggle,
    toggle_label,
    verify_commutation,
)
from conftest import random_heap_word, small_catalog
from minuscule.bits import bit_string
from minuscule.cli import build_case, default_catalog
from minuscule.ideals import IdealLattice, gyration_images, image_orbits, rowmotion_images
from oracles import (
    bit_string_by_positions,
    commutation_violations_by_toggle_label,
    ideal_weight,
    is_ideal,
    less,
    powerset_ideal_masks,
    rescan_covers,
    rowmotion_by_toggles,
    scanning_ideals,
)


def grid_heap():
    cd = build_cartan("A", 3)
    return build_minuscule_heap(cd, fundamental_weight(cd, 2))


def test_single_element_heap_has_two_ideals():
    cd = build_cartan("A", 1)
    h = build_minuscule_heap(cd, (1,))
    assert enumerate_ideals(h).ideals == (0, 1)


def test_grid_ideal_profile():
    L = enumerate_ideals(grid_heap())
    assert len(L) == 6
    sizes = [m.bit_count() for m in L.ideals]
    assert [sizes.count(c) for c in range(5)] == [1, 1, 2, 1, 1]


def test_e6_ideal_count_matches_orbit():
    cd = build_cartan("E", 6)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 6))
    assert len(enumerate_ideals(h)) == 27


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_enumeration_matches_powerset_filter(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    if len(h) > 16:
        pytest.skip("powerset oracle too large")
    L = enumerate_ideals(h)
    assert list(L.ideals) == powerset_ideal_masks(h.below, len(h))
    assert all(is_ideal(h, m) for m in L.ideals)


def test_ideal_cap():
    cd = build_cartan("E", 6)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 6))
    with pytest.raises(ResourceLimitError):
        enumerate_ideals(h, cap=10)
    # The exact boundary: verify_minuscule enumerates with cap = |orbit|.
    assert len(enumerate_ideals(h, cap=27)) == 27
    with pytest.raises(ResourceLimitError):
        enumerate_ideals(h, cap=26)


def test_cover_edges_out_of_empty_ideal():
    h = grid_heap()
    L = enumerate_ideals(h)
    minimal = [p for p in range(len(h)) if h.below[p] == 0]
    out_of_empty = [(lo, hi, p) for lo, hi, p in L.covers if lo == 0]
    assert len(out_of_empty) == len(minimal)


def test_toggle_examples():
    h = grid_heap()
    assert toggle(h, 0, 0) == 1          # minimal element toggles in
    assert toggle(h, 0, 3) == 0          # top is not addable to the empty ideal
    assert toggle(h, 1, 3) == 1          # cover gap: top still not addable
    assert toggle(h, 1, 0) == 0          # and toggles back out


def test_toggle_is_an_involution_everywhere():
    h = grid_heap()
    L = enumerate_ideals(h)
    for m in L.ideals:
        for p in range(len(h)):
            assert toggle(h, toggle(h, m, p), p) == m
            assert is_ideal(h, toggle(h, m, p))


def test_toggles_at_incomparable_elements_commute():
    cd = build_cartan("A", 5)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 3))
    L = enumerate_ideals(h)
    for m in L.ideals:
        for p in range(len(h)):
            for q in range(p + 1, len(h)):
                if not less(h, p, q) and not less(h, q, p):
                    assert toggle(h, toggle(h, m, p), q) == toggle(h, toggle(h, m, q), p)


def test_toggle_label_examples():
    h = grid_heap()  # labels (2, 1, 3, 2)
    assert toggle_label(h, 0, 2) == 0b0001
    assert toggle_label(h, 0, 1) == 0
    assert toggle_label(h, 0b0001, 1) == 0b0011


def test_toggle_label_order_matters_on_a_fiber_cover():
    """In the heap of the non-reduced word (1, 1) the two label-1
    elements form a cover: ascending toggles reach the full ideal, and
    descending ones only the bottom element."""
    h = heap_from_word(build_cartan("A", 1), (1, 1))
    assert toggle_label(h, 0, 1) == 0b11
    assert toggle(h, toggle(h, 0, 1), 0) == 0b01


def test_toggle_label_is_order_free_on_fibers():
    cd = build_cartan("D", 4)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 1))
    L = enumerate_ideals(h)
    for i in cd.nodes:
        fiber = h.fibers[i]
        for m in L.ideals:
            results = set()
            for perm in permutations(fiber):
                out = m
                for p in perm:
                    out = toggle(h, out, p)
                results.add(out)
            assert len(results) == 1


def test_ideal_weight_examples():
    cd = build_cartan("A", 2)
    h = build_minuscule_heap(cd, (1, 0))
    assert ideal_weight(h, 0) == (1, 0)
    assert ideal_weight(h, 0b01) == (-1, 1)
    full = h.full_mask
    L = enumerate_ideals(h)
    orb_top = (0, -1)
    assert ideal_weight(h, full) == orb_top
    assert L.weights[L.index[full]] == orb_top


def test_ideal_weight_requires_base():
    cd = build_cartan("A", 2)
    h = heap_from_word(cd, (1, 2))
    with pytest.raises(DomainError):
        ideal_weight(h, 0)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_ideal_weight_independent_of_linear_extension(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    rng = random.Random(99)
    for k, m in enumerate(L.ideals):
        members = [p for p in range(len(h)) if m >> p & 1]
        for _ in range(3):
            rng.shuffle(members)
            # repair into a linear extension by stable sort on rank
            members.sort(key=lambda p: h.ranks[p])
            w = h.base
            for p in members:
                w = simple_reflection(cd, h.labels[p], w)
            assert w == ideal_weight(h, m) == L.weights[k]


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_commutation_passes_exhaustively(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    report = verify_commutation(enumerate_ideals(h))
    assert report.ok
    assert report.instances == len(enumerate_ideals(h)) * rank


def test_commutation_with_empty_fiber_node():
    # a word avoiding node 3 entirely: the label-3 toggle is the identity
    # and the reflection fixes every ideal weight (pairing stays 0)
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (1,), base=fundamental_weight(cd, 1))
    L = enumerate_ideals(h)
    for k, m in enumerate(L.ideals):
        assert toggle_label(h, m, 3) == m
        assert simple_reflection(cd, 3, L.weights[k]) == L.weights[k]


def test_rowmotion_examples():
    h = grid_heap()
    L = enumerate_ideals(h)
    assert rowmotion(h, h.full_mask) == 0
    assert rowmotion(h, 0) == 0b0001
    orbit = [0]
    while True:
        nxt = rowmotion(h, orbit[-1])
        if nxt == 0:
            break
        orbit.append(nxt)
    from oracles import down_degree

    assert [down_degree(h, m) for m in orbit] == [0, 1, 2, 1]
    assert sorted(len(o) for o in action_orbits(L, rowmotion)) == [2, 4]


def test_rowmotion_definitions_agree_on_whole_catalog():
    from minuscule.cli import build_case, default_catalog

    for spec in default_catalog():
        bundle = build_case(spec.family, spec.rank, spec.node)
        h = bundle.heap
        for m in bundle.lattice.ideals:
            assert rowmotion(h, m) == rowmotion_by_toggles(h, m)


def test_gyration_examples():
    cd = build_cartan("A", 1)
    h1 = build_minuscule_heap(cd, (1,))
    assert gyration(h1, 0) == 1

    h = grid_heap()
    assert gyration(h, 0) == 0b0111  # bottom, then both middle elements

    cd3 = build_cartan("A", 3)
    anti = heap_from_word(cd3, (1, 3))
    for m in (0, 1, 2, 3):
        assert gyration(anti, gyration(anti, m)) == m


def test_gyration_phase_flag():
    h = grid_heap()
    L = enumerate_ideals(h)
    even_then_odd = {m: gyration(h, m, even_first=True) for m in L.ideals}
    odd_then_even = {m: gyration(h, m, even_first=False) for m in L.ideals}
    # both phase orders are bijections, generally different maps
    assert sorted(even_then_odd.values()) == sorted(L.ideals)
    assert sorted(odd_then_even.values()) == sorted(L.ideals)
    assert any(even_then_odd[m] != odd_then_even[m] for m in L.ideals)


def test_action_orbit_bookkeeping():
    h = grid_heap()
    L = enumerate_ideals(h)
    identity_orbits = action_orbits(L, lambda _h, m: m)
    assert identity_orbits == tuple((k,) for k in range(6))

    cd = build_cartan("A", 1)
    h1 = build_minuscule_heap(cd, (1,))
    L1 = enumerate_ideals(h1)
    assert action_orbits(L1, rowmotion) == ((0, 1),)

    with pytest.raises(InternalCheckError):
        action_orbits(L, lambda _h, m: 0)  # constant map is not a bijection


@settings(max_examples=60)
@given(random_heap_word())
def test_toggle_is_an_involution_on_random_heaps(case):
    cd, word = case
    h = heap_from_word(cd, word)
    for m in enumerate_ideals(h).ideals:
        for p in range(len(h)):
            assert toggle(h, toggle(h, m, p), p) == m
            assert is_ideal(h, toggle(h, m, p))


@settings(max_examples=60)
@given(random_heap_word())
def test_enumeration_and_rowmotion_on_random_heaps(case):
    cd, word = case
    h = heap_from_word(cd, word)
    L = enumerate_ideals(h)
    assert list(L.ideals) == powerset_ideal_masks(h.below, len(h))
    for m in L.ideals:
        assert rowmotion(h, m) == rowmotion_by_toggles(h, m)
    orbits = action_orbits(L, rowmotion)
    assert sorted(k for orbit in orbits for k in orbit) == list(range(len(L)))


@settings(max_examples=60)
@given(random_heap_word())
def test_cover_order_matches_a_rescan_on_random_heaps(case):
    """``build`` prints the covers in this order, so it is pinned."""
    cd, word = case
    h = heap_from_word(cd, word)
    L = enumerate_ideals(h)
    assert L.covers == rescan_covers(h, L.ideals)


def ideals_or_cap_message(enumerate, h, cap):
    try:
        return enumerate(h, cap)
    except ResourceLimitError as exc:
        return str(exc)


def assert_enumeration_matches_the_scanning_walk(h, caps):
    """Equal ideals, covers and weights, or the same cap message, under
    every cap."""
    for cap in caps:
        got = ideals_or_cap_message(enumerate_ideals, h, cap)
        if not isinstance(got, str):
            got = got.ideals, got.covers, got.weights
        assert got == ideals_or_cap_message(scanning_ideals, h, cap)


def test_ready_mask_walk_matches_the_scanning_walk_on_the_catalog():
    for spec in default_catalog():
        h = build_case(spec.family, spec.rank, spec.node).heap
        n = len(enumerate_ideals(h))
        assert_enumeration_matches_the_scanning_walk(h, (n, n - 1, n // 2, 0))


def test_ready_mask_walk_matches_the_scanning_walk_on_small_dominant_weights(
    small_dominant_orbits,
):
    """The heap that ``verify_minuscule`` builds for each weight: the
    saturated chain of its orbit, on its base weight."""
    for cd, lam, orb in small_dominant_orbits:
        h = heap_from_word(cd, saturated_chain(orb), base=lam)
        n = len(enumerate_ideals(h))
        assert_enumeration_matches_the_scanning_walk(h, (n, n - 1, n // 2))


@settings(max_examples=100)
@given(random_heap_word(with_base=True), st.booleans(), st.integers(0, 40))
def test_ready_mask_walk_matches_the_scanning_walk_on_random_heaps(case, with_base, cap):
    cd, word, base = case
    h = heap_from_word(cd, word, base=base if with_base else None)
    assert_enumeration_matches_the_scanning_walk(h, (cap, 10**6))


def assert_action_images_match_the_per_ideal_actions(L):
    h = L.heap
    images = rowmotion_images(L)
    assert images == [rowmotion(h, m) for m in L.ideals]
    assert image_orbits(L, images) == action_orbits(L, rowmotion)
    if not h.is_graded:
        for act in (gyration_images, lambda L: action_orbits(L, gyration)):
            with pytest.raises(DomainError, match="graded"):
                act(L)
        return
    images = gyration_images(L)
    assert images == [gyration(h, m) for m in L.ideals]
    assert image_orbits(L, images) == action_orbits(L, gyration)


def test_action_images_match_the_per_ideal_actions_on_the_catalog():
    for spec in default_catalog():
        assert_action_images_match_the_per_ideal_actions(
            build_case(spec.family, spec.rank, spec.node).lattice
        )


@settings(max_examples=100)
@given(random_heap_word())
def test_action_images_match_the_per_ideal_actions_on_random_heaps(case):
    cd, word = case
    assert_action_images_match_the_per_ideal_actions(enumerate_ideals(heap_from_word(cd, word)))


def test_non_graded_heap_has_no_gyration():
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (1, 1, 3, 2))  # 2 covers the second 1 (rank 1) and 3 (rank 0)
    assert not h.is_graded
    assert_action_images_match_the_per_ideal_actions(enumerate_ideals(h))


def test_action_images_keep_the_bijection_checks():
    h = grid_heap()
    L = enumerate_ideals(h)
    with pytest.raises(InternalCheckError, match="left the ideal lattice"):
        image_orbits(L, [0] * (len(L) - 1) + [0b1000])
    no_covers = IdealLattice(h, L.ideals, (), L.weights)
    with pytest.raises(InternalCheckError, match="not a bijection"):
        image_orbits(no_covers, rowmotion_images(no_covers))
    # A false cover makes the top element (rank 2, even) toggle into the
    # empty ideal, which is no ideal of the grid.
    false_cover = IdealLattice(h, L.ideals, L.covers + ((0, 1, 3),), L.weights)
    with pytest.raises(InternalCheckError, match="left the ideal lattice"):
        gyration_images(false_cover)


def test_commutation_on_toggle_masks_names_the_same_violations_as_label_toggles():
    tampered_cases = 0
    for spec in default_catalog():
        L = build_case(spec.family, spec.rank, spec.node).lattice
        assert verify_commutation(L).violations == commutation_violations_by_toggle_label(L) == ()
        k = len(L) // 2
        w = L.weights[k]
        weights = L.weights[:k] + ((w[0] + 1,) + w[1:],) + L.weights[k + 1 :]
        tampered = IdealLattice(L.heap, L.ideals, L.covers, weights)
        violations = verify_commutation(tampered).violations
        assert violations == commutation_violations_by_toggle_label(tampered)
        tampered_cases += bool(violations)
    assert tampered_cases == len(default_catalog())


@settings(max_examples=100)
@given(random_heap_word(with_base=True))
def test_commutation_on_toggle_masks_matches_label_toggles_on_random_heaps(case):
    """Random words repeat letters, so some fibers hold a cover and take
    the element-by-element path."""
    cd, word, base = case
    L = enumerate_ideals(heap_from_word(cd, word, base=base))
    report = verify_commutation(L)
    assert report.violations == commutation_violations_by_toggle_label(L)
    assert report.instances == len(L) * cd.rank


@settings(max_examples=200)
@given(st.integers(-(2**80), 2**80), st.integers(0, 70))
def test_bit_string_matches_the_per_position_rendering(mask, width):
    assert bit_string(mask, width) == bit_string_by_positions(mask, width)
    assert len(bit_string(mask, width)) == width


def test_bit_string_of_width_zero_is_empty():
    assert bit_string(0, 0) == bit_string(0b1011, 0) == ""
    assert bit_string(0b1011, 3) == "110"
