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
from conftest import hand_built_heaps, random_heap_word, small_catalog
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
    # The exact boundary: the E6.6 heap has 27 ideals.
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
@given(st.one_of(random_heap_word().map(lambda case: heap_from_word(*case)), hand_built_heaps()))
def test_action_images_match_the_per_ideal_actions_on_random_heaps(h):
    """On heaps of words and on hand-built heaps, whose fibers need not
    be chains and whose covers need not be reduced: the antichain
    bijection behind ``rowmotion_images`` needs only J(P)."""
    assert_action_images_match_the_per_ideal_actions(enumerate_ideals(h))


def test_non_graded_heap_has_no_gyration():
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (1, 1, 3, 2))  # 2 covers the second 1 (rank 1) and 3 (rank 0)
    assert not h.is_graded
    assert_action_images_match_the_per_ideal_actions(enumerate_ideals(h))


def test_action_images_keep_the_bijection_checks():
    """``image_orbits`` takes any masks as images, so it keeps its own
    checks.  A lattice without covers, or with a false one, cannot reach
    them through ``rowmotion_images`` or ``gyration_images``: the
    constructor raises ``DomainError`` naming the ideal or cover."""
    h = grid_heap()
    L = enumerate_ideals(h)
    with pytest.raises(InternalCheckError, match="left the ideal lattice"):
        image_orbits(L, [0] * (len(L) - 1) + [0b1000])
    with pytest.raises(InternalCheckError, match="not a bijection"):
        image_orbits(L, [0] * len(L))
    with pytest.raises(DomainError, match="^no lattice cover adds the addable element 0 to"):
        IdealLattice(h, L.ideals, (), L.weights)
    with pytest.raises(DomainError, match=r"^lattice cover \(0, 1, 3\) breaks the rule"):
        IdealLattice(h, L.ideals, L.covers + ((0, 1, 3),), L.weights)


def a3_2_lattice_with_covers(covers_of):
    """The A3.2 lattice and the constructor's error on its covers
    changed by ``covers_of``: no such lattice can be built, so none
    reaches ``verify_case``."""
    L = build_case("A", 3, 2).lattice
    with pytest.raises(DomainError) as info:
        IdealLattice(L.heap, L.ideals, covers_of(L.covers), L.weights)
    return L, str(info.value)


def test_a_relabelled_cover_is_a_domain_error_at_construction():
    """The cover into ideal 1 relabelled to element 1: ideal 1 is not the
    empty ideal with element 1 added."""
    L, error = a3_2_lattice_with_covers(lambda covers: ((0, 1, 1),) + covers[1:])
    assert L.covers[0] == (0, 1, 0)
    assert error == "lattice cover (0, 1, 1): ideal 1 is not ideal 0 with element 1 added"


def test_a_dropped_cover_is_a_domain_error_at_construction():
    """With the one cover into ideal 1 dropped, the empty ideal has an
    addable element no cover adds: the error names the missing cover by
    its lower ideal, with that ideal's weight, and element."""
    L, error = a3_2_lattice_with_covers(lambda covers: covers[1:])
    assert [hi for _, hi, _ in L.covers].count(1) == 1
    assert L.weights[0] == (0, 1, 0)
    assert error == "no lattice cover adds the addable element 0 to ideal 0 of weight (0, 1, 0)"


def test_a_reversed_cover_is_a_domain_error_at_construction():
    L, error = a3_2_lattice_with_covers(lambda covers: ((1, 0, 0),) + covers[1:])
    assert error.startswith(
        "lattice cover (1, 0, 0) breaks the rule that covers strictly increase"
    )


def chain_of_two():
    """The heap of the A2 word (1, 2), a chain 0 < 1, with the non-ideal
    mask 0b10 among its ideals."""
    h = heap_from_word(build_cartan("A", 2), (1, 2))
    return h, (0, 0b1, 0b10, 0b11)


@pytest.mark.parametrize(
    "tamper,message",
    [
        (lambda h, L: (h, (), (), None), "the ideals do not start at the empty ideal 0"),
        (
            lambda h, L: (h, (0b1,) + L.ideals[1:], L.covers, None),
            "the ideals do not start at the empty ideal 0",
        ),
        (
            lambda h, L: (
                h, L.ideals[:2] + L.ideals[3:4] + L.ideals[2:3] + L.ideals[4:], L.covers, None
            ),
            "ideal 3 (0b11) does not follow ideal 2 (0b101) in strictly increasing"
            " (cardinality, mask) order",
        ),
        (
            lambda h, L: (h, L.ideals[:3] + L.ideals[2:3] + L.ideals[4:], L.covers, None),
            "ideal 3 (0b11) does not follow ideal 2 (0b11)",
        ),
        (
            lambda h, L: (h, L.ideals, L.covers + L.covers[-1:], None),
            "lattice cover (4, 5, 3) breaks the rule that covers strictly increase",
        ),
        (
            lambda h, L: (h, L.ideals, L.covers[:-1] + ((4, 5, 4),), None),
            "lattice cover (4, 5, 4) breaks the rule that covers strictly increase and each"
            " (lo, hi, p) has 0 <= lo < hi < 6 and 0 <= p < 4",
        ),
        (
            lambda h, L: (h, L.ideals, L.covers[:-1] + ((4, 6, 3),), None),
            "lattice cover (4, 6, 3) breaks the rule",
        ),
        (
            lambda h, L: (h, L.ideals, L.covers[:1] + ((1, 2, 0),) + L.covers[2:], None),
            "lattice cover (1, 2, 0): ideal 2 is not ideal 1 with element 0 added",
        ),
        (
            lambda h, L: (h, L.ideals, L.covers[:1] + ((1, 3, 1),) + L.covers[2:], None),
            "lattice cover (1, 3, 1): ideal 3 is not ideal 1 with element 1 added",
        ),
        (
            lambda h, L: (*chain_of_two(), ((0, 1, 0), (0, 2, 1), (1, 3, 1), (2, 3, 0)), None),
            "a lattice cover adds the unaddable element 1 to ideal 0",
        ),
        (
            lambda h, L: (h, L.ideals, L.covers[:4] + L.covers[5:], None),
            "no lattice cover adds the addable element 1 to ideal 3",
        ),
        (
            lambda h, L: (*chain_of_two(), ((0, 1, 0), (1, 3, 1)), None),
            "ideal 2 (0b10) is the upper end of no cover",
        ),
        (lambda h, L: (h, L.ideals, L.covers, L.weights[1:]), "lattice has 5 weights for 6 ideals"),
        (
            lambda h, L: (h, L.ideals, L.covers[:4] + L.covers[5:], L.weights),
            "no lattice cover adds the addable element 1 to ideal 3 of weight (1, 0, -1)",
        ),
        (
            lambda h, L: (
                *chain_of_two(),
                ((0, 1, 0), (0, 2, 1), (1, 3, 1), (2, 3, 0)),
                ((1, 0), (-1, 1), (0, 0), (0, -1)),
            ),
            "a lattice cover adds the unaddable element 1 to ideal 0 of weight (1, 0)",
        ),
        (
            lambda h, L: (
                *chain_of_two(), ((0, 1, 0), (1, 3, 1)), ((1, 0), (-1, 1), (0, 0), (0, -1))
            ),
            "ideal 2 of weight (0, 0) (0b10) is the upper end of no cover",
        ),
    ],
    ids=[
        "no_ideals",
        "first_ideal_not_empty",
        "ideals_out_of_order",
        "ideal_repeated",
        "cover_repeated",
        "element_out_of_range",
        "ideal_out_of_range",
        "element_already_in",
        "retargeted",
        "down_set_outside",
        "cover_missing",
        "ideal_entered_by_no_cover",
        "weights_short",
        "cover_missing_at_a_weight",
        "down_set_outside_at_a_weight",
        "ideal_entered_by_no_cover_at_a_weight",
    ],
)
def test_the_lattice_constructor_names_the_first_broken_rule(tamper, message):
    """One input per rule, on the A3.2 lattice (ideals 0, 0b1, 0b11,
    0b101, 0b111, 0b1111) or on a chain of two with a non-ideal mask.
    Given weights, an error at an ideal also names its weight."""
    h = grid_heap()
    L = enumerate_ideals(h)
    with pytest.raises(DomainError) as info:
        IdealLattice(*tamper(h, L))
    assert str(info.value).startswith(message)


def heap_of_word(case):
    cd, word, base = case
    return heap_from_word(cd, word, base=base)


@settings(max_examples=300)
@given(
    st.one_of(random_heap_word(with_base=True).map(heap_of_word), hand_built_heaps()),
    st.sampled_from(("drop", "duplicate", "relabel", "retarget", "reorder")),
    st.data(),
)
def test_the_lattice_constructor_accepts_j_p_and_rejects_every_single_cover_mutation(
    h, mutation, data
):
    """Every lattice ``enumerate_ideals`` builds passes the constructor,
    on heaps of words and on hand-built heaps whose fibers need not be
    chains.  One cover dropped, listed twice, given another element or
    upper ideal (in range or not), or swapped with a neighbour (reversed
    when it is the only one) is rejected."""
    L = enumerate_ideals(h)
    again = IdealLattice(h, L.ideals, L.covers, L.weights)
    assert again.toggle_masks == L.toggle_masks and again.entering == L.entering
    if not L.covers:
        return
    covers = list(L.covers)
    c = data.draw(st.integers(0, len(covers) - 1))
    lo, hi, p = covers[c]
    if mutation == "drop":
        del covers[c]
    elif mutation == "duplicate":
        covers.insert(c, covers[c])
    elif mutation == "relabel":
        covers[c] = lo, hi, data.draw(st.integers(0, len(h)).filter(lambda q: q != p))
    elif mutation == "retarget":
        covers[c] = lo, data.draw(st.integers(0, len(L)).filter(lambda k: k != hi)), p
    elif len(covers) == 1:
        covers[c] = hi, lo, p
    else:
        d = c + 1 if c + 1 < len(covers) else c - 1
        covers[c], covers[d] = covers[d], covers[c]
    with pytest.raises(DomainError):
        IdealLattice(h, L.ideals, tuple(covers), L.weights)


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
