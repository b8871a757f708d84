from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import (
    DomainError,
    Heap,
    IdealLattice,
    build_cartan,
    build_minuscule_heap,
    enumerate_ideals,
    fundamental_weight,
    heap_from_word,
    identity_suite,
    tcde_constant,
    toggle_suite,
    toggle_symmetry_report,
)
import minuscule.stats as stats
from minuscule.cde import ToggleSymmetryReport, toggle_polytope
from minuscule.cli import build_case, default_catalog
from minuscule.stats import CheckRow
from conftest import base_shifted_lattices, random_heap_word, small_catalog
from oracles import (
    check_ddeg_decomposition,
    check_fiber_statistic,
    check_label_count_formula,
    check_signed_toggle_sum,
    check_weighted_toggle_sum,
    commutation_violations_by_toggle_label,
    coroot_pairing,
    down_degree,
    fiber_statistic,
    ideal_weight,
    label_count,
    per_triple_identity_suite,
    snapshot,
    up_degree,
)


def grid_lattice():
    cd = build_cartan("A", 3)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 2))
    return h, enumerate_ideals(h)


def test_down_degree_examples():
    h, L = grid_lattice()
    assert down_degree(h, 0) == 0
    assert down_degree(h, 0b0111) == 2
    assert sorted(L.down_degrees) == [0, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_degrees_match_lattice_cover_graph(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    for k, m in enumerate(L.ideals):
        assert L.down_degrees[k] == sum(1 for lo, hi, _ in L.covers if hi == k)
        adds, _ = L.toggle_masks[k]
        assert adds.bit_count() == sum(1 for lo, hi, _ in L.covers if lo == k)
        # toggle_masks is read off the covers; snapshot rescans the heap.
        snap = snapshot(h, m)
        assert L.toggle_masks[k] == (snap.adds, snap.removes)


@settings(max_examples=60)
@given(random_heap_word(with_base=True), st.booleans(), st.data())
def test_toggle_tables_match_snapshots_on_random_heaps(case, with_base, data):
    """Toggle masks, toggle symmetry and the polytope rows, all built
    from the covers, against per-ideal rescans of the heap."""
    cd, word, base = case
    h = heap_from_word(cd, word, base=base if with_base else None)
    L = enumerate_ideals(h)
    snaps = [snapshot(h, m) for m in L.ideals]
    assert L.toggle_masks == tuple((s.adds, s.removes) for s in snaps)

    weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(L), max_size=len(L)))
    expected = []
    for p in range(len(h)):
        e_plus = sum(w * s.plus(p) for w, s in zip(weights, snaps))
        e_minus = sum(w * s.minus(p) for w, s in zip(weights, snaps))
        if e_plus != e_minus:
            expected.append((p, e_plus, e_minus))
    assert toggle_symmetry_report(L, weights) == ToggleSymmetryReport(len(h), tuple(expected))

    rows, rhs = toggle_polytope(L)
    assert rows == [[1] * len(L)] + [[s.signed(p) for s in snaps] for p in range(len(h))]
    assert rhs == [1] + [0] * len(h)


def test_snapshot_extremes():
    h, _ = grid_lattice()
    empty = snapshot(h, 0)
    minimal = {p for p in range(len(h)) if h.below[p] == 0}
    assert {p for p in range(len(h)) if empty.plus(p)} == minimal
    assert empty.removes == 0

    full = snapshot(h, h.full_mask)
    maximal = {p for p in range(len(h)) if h.above[p] == 0}
    assert {p for p in range(len(h)) if full.minus(p)} == maximal
    assert full.adds == 0


def test_snapshot_mid_ideal():
    h, _ = grid_lattice()
    snap = snapshot(h, 0b0001)  # just the bottom
    assert snap.minus(0) == 1  # bottom is maximal within its ideal
    assert snap.plus(1) == 1 and snap.plus(2) == 1
    assert snap.signed(3) == 0


def test_indicator_consistency_with_down_degree():
    h, L = grid_lattice()
    for m in L.ideals:
        snap = snapshot(h, m)
        assert snap.adds & snap.removes == 0
        assert snap.removes.bit_count() == down_degree(h, m)
        assert snap.adds.bit_count() == up_degree(h, m)


def test_label_count_and_formula_examples():
    h, L = grid_lattice()
    for i in (1, 2, 3):
        assert label_count(h, 0, i) == 0
        assert check_label_count_formula(h, 0, i).ok

    cd1 = build_cartan("A", 1)
    h1 = build_minuscule_heap(cd1, (1,))
    res = check_label_count_formula(h1, 1, 1)
    assert res.ok and res.lhs == 1 == res.rhs
    # by hand: 2 * (1/2 - (-1/2)) / 2
    assert res.rhs == 2 * (Fraction(1, 2) - Fraction(-1, 2)) / 2


def test_signed_toggle_sum_base_cases():
    h, _ = grid_lattice()  # word (2, 1, 3, 2), bottom labeled 2
    res = check_signed_toggle_sum(h, 0, 2)
    assert res.ok and res.lhs == 1
    for i in (1, 3):
        res = check_signed_toggle_sum(h, 0, i)
        assert res.ok and res.lhs == 0


def test_weighted_toggle_sum_signs():
    # positive pairing: inserting at fiber position count+1
    h, L = grid_lattice()
    res = check_weighted_toggle_sum(h, 0, 2)
    assert res.ok and res.lhs == 0

    # negative pairing: the fiber of the fork node of D4 under omega_1
    cd = build_cartan("D", 4)
    hd = build_minuscule_heap(cd, fundamental_weight(cd, 1))
    Ld = enumerate_ideals(hd)
    seen = {-1: 0, 1: 0}
    for k, m in enumerate(Ld.ideals):
        for i in cd.nodes:
            pairing = coroot_pairing(cd, Ld.weights[k], i)
            res = check_weighted_toggle_sum(hd, m, i, weight=Ld.weights[k])
            assert res.ok
            count = label_count(hd, m, i)
            snap = snapshot(hd, m)
            fiber = hd.fibers[i]
            if pairing == 1:
                # the label toggle inserts exactly at fiber position count+1
                seen[1] += 1
                assert [snap.plus(p) for p in fiber] == [
                    int(j == count + 1) for j in range(1, len(fiber) + 1)
                ]
                assert all(snap.minus(p) == 0 for p in fiber)
                assert res.lhs == count
            elif pairing == -1 and len(fiber) >= 2:
                seen[-1] += 1
                assert res.lhs == -count
    assert seen[1] > 0 and seen[-1] > 0


def test_fiber_statistic_rank_one_by_hand():
    cd = build_cartan("A", 1)
    h = build_minuscule_heap(cd, (1,))
    assert fiber_statistic(h, 0, 1) == Fraction(1, 2)
    res = check_fiber_statistic(h, 0, 1)
    assert res.ok and res.rhs == Fraction(1, 2)


def test_decomposition_rank_one_by_hand():
    cd = build_cartan("A", 1)
    h = build_minuscule_heap(cd, (1,))
    empty = check_ddeg_decomposition(h, 0)
    assert empty.ok
    assert empty.constant == Fraction(1, 2)
    assert empty.reconstructed == Fraction(1, 2) + Fraction(-1, 2) * 1
    full = check_ddeg_decomposition(h, 1)
    assert full.ok
    assert full.ddeg == 1 == Fraction(1, 2) + Fraction(-1, 2) * (-1)


def assert_toggle_suite_matches_the_oracles(L):
    """The one pass against the element-by-element label toggles and the
    per-triple identity checks: the violation pairs and every count."""
    suite = toggle_suite(L)
    violations = commutation_violations_by_toggle_label(L)
    assert suite.violations == violations
    commutation = CheckRow("commutation", len(L) * L.heap.cartan.rank, len(violations))
    assert suite.rows == (commutation,) + per_triple_identity_suite(L)
    return suite


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_identity_suite_zero_failures(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    for row in identity_suite(L):
        assert row.failures == 0, row


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_identity_suite_matches_per_triple_oracle(family, rank, node):
    cd = build_cartan(family, rank)
    L = enumerate_ideals(build_minuscule_heap(cd, fundamental_weight(cd, node)))
    assert identity_suite(L) == per_triple_identity_suite(L)


@settings(max_examples=60)
@given(random_heap_word(with_base=True))
def test_identity_suite_matches_oracle_on_random_heaps(case):
    """Arbitrary heaps with arbitrary bases mostly break the identities,
    and random words repeat letters, so this also compares the failure
    counts and the commutation violations of the pass and the oracles."""
    cd, word, base = case
    L = enumerate_ideals(heap_from_word(cd, word, base=base))
    assert identity_suite(L) == assert_toggle_suite_matches_the_oracles(L).rows[1:]


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_identity_suite_counts_tampered_weights_like_oracle(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    bumped = tuple(
        tuple(c + (k % 3 == 0 and j == k % rank) for j, c in enumerate(w))
        for k, w in enumerate(L.weights)
    )
    shifted_base = tuple(c + (j == 0) for j, c in enumerate(h.base))
    shifted = Heap(h.cartan, h.labels, h.covers, shifted_base)
    for tampered in (
        IdealLattice(h, L.ideals, L.covers, bumped),
        IdealLattice(shifted, L.ideals, L.covers, L.weights),
    ):
        rows = identity_suite(tampered)
        assert rows == assert_toggle_suite_matches_the_oracles(tampered).rows[1:]
        assert sum(row.failures for row in rows) > 0


def test_identity_suite_needs_weights_and_base():
    cd = build_cartan("A", 3)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 2))
    L = enumerate_ideals(h)
    with pytest.raises(DomainError):
        identity_suite(IdealLattice(h, L.ideals, L.covers, None))
    with pytest.raises(DomainError):
        baseless = Heap(h.cartan, h.labels, h.covers, None)
        identity_suite(IdealLattice(baseless, L.ideals, L.covers, L.weights))
    with pytest.raises(DomainError):
        identity_suite(enumerate_ideals(heap_from_word(cd, (2, 1, 3, 2))))


@pytest.mark.parametrize("spec", default_catalog(), ids=lambda spec: spec.case_id)
def test_toggle_suite_matches_the_oracles_on_the_catalog(spec):
    L = build_case(spec.family, spec.rank, spec.node).lattice
    suite = assert_toggle_suite_matches_the_oracles(L)
    assert not suite.violations and not any(row.failures for row in suite.rows)


@pytest.mark.parametrize(
    "word,chained",
    [((1, 1), {1}), ((2, 1, 2, 2, 3), {2}), ((1, 3, 1, 2, 1), {1}), ((1, 2, 1), set())],
)
def test_toggle_suite_toggles_a_repeated_letter_element_by_element(word, chained, monkeypatch):
    """A repeated letter with no neighbour between its copies puts a cover
    inside a fiber, and that label toggles through ``toggle_label``, one
    element at a time."""
    cd = build_cartan("A", 3)
    L = enumerate_ideals(heap_from_word(cd, word, base=fundamental_weight(cd, 1)))
    calls = []
    toggle_label = stats.toggle_label
    with monkeypatch.context() as patch:
        patch.setattr(
            stats, "toggle_label", lambda h, m, i: calls.append(i) or toggle_label(h, m, i)
        )
        assert_toggle_suite_matches_the_oracles(L)
    assert set(calls) == chained


@pytest.mark.parametrize(
    "labels,covers",
    [
        ((1, 1), ()),
        ((1, 2, 1), ((0, 1),)),
        ((2, 1, 1, 2), ((0, 1), (0, 2), (1, 3))),
        ((1, 1, 1), ((0, 2),)),
    ],
)
def test_toggle_suite_sums_positions_over_fibers_that_are_no_chain(labels, covers):
    """A hand-built heap can hold incomparable elements of one label, so
    an ideal can have two addable or two removable elements in a fiber;
    their positions are summed bit by bit."""
    cd = build_cartan("A", 2)
    h = Heap(cd, labels, covers, fundamental_weight(cd, 1))
    L = enumerate_ideals(h)
    fibers = h.fiber_masks.values()
    for end in (0, 1):  # adds, then removes
        assert any((masks[end] & f).bit_count() > 1 for masks in L.toggle_masks for f in fibers)
    assert_toggle_suite_matches_the_oracles(L)


@pytest.mark.parametrize("spec", default_catalog(), ids=lambda spec: spec.case_id)
def test_ddeg_decomposition_matches_the_oracle_with_the_base_shifted_by_each_omega_i(spec):
    """The row is read off the closed-form witness; on every shifted base
    it still counts the ideals that the per-triple oracle's
    ``check_ddeg_decomposition`` fails."""
    for L in base_shifted_lattices(spec):
        failures = sum(not check_ddeg_decomposition(L.heap, m).ok for m in L.ideals)
        assert toggle_suite(L).rows[-1] == CheckRow("ddeg_decomposition", len(L), failures)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_checks_with_recomputed_weights(family, rank, node):
    """Same identities, but with the ideal weight recomputed from scratch
    instead of read off the lattice."""
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    for m in L.ideals:
        w = ideal_weight(h, m)
        for i in cd.nodes:
            assert check_label_count_formula(h, m, i, weight=w).ok
            assert check_signed_toggle_sum(h, m, i, weight=w).ok
            assert check_weighted_toggle_sum(h, m, i, weight=w).ok
            assert check_fiber_statistic(h, m, i, weight=w).ok


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_fiber_statistics_sum_to_constant(family, rank, node):
    cd = build_cartan(family, rank)
    lam = fundamental_weight(cd, node)
    h = build_minuscule_heap(cd, lam)
    L = enumerate_ideals(h)
    constant = tcde_constant(cd, lam)
    for m in L.ideals:
        assert sum(fiber_statistic(h, m, i) for i in cd.nodes) == constant


def test_tcde_constant_values():
    for a in range(2, 5):
        for b in range(a, 5):
            cd = build_cartan("A", a + b - 1)
            assert tcde_constant(cd, fundamental_weight(cd, a)) == Fraction(a * b, a + b)
    e7 = build_cartan("E", 7)
    assert tcde_constant(e7, fundamental_weight(e7, 7)) == Fraction(3, 2)
    e6 = build_cartan("E", 6)
    assert tcde_constant(e6, fundamental_weight(e6, 6)) == Fraction(4, 3)
