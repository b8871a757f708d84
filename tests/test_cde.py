import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minuscule import (
    DomainError,
    build_cartan,
    build_minuscule_heap,
    inner_product,
    chain_counts,
    chain_distribution,
    enumerate_ideals,
    expectation,
    fundamental_weight,
    gyration,
    heap_from_word,
    homomesy_report,
    lp_certificate,
    orbit_distribution,
    rowmotion,
    action_orbits,
    tcde_constant,
    toggle_symmetry_report,
    uniform_distribution,
)
import minuscule.cde as cde
from minuscule.cde import (
    ChainRow,
    _chain_sums,
    _strict_products,
    _unpack,
    multichain_rows,
    orbit_rows,
    read_chain_rows,
    strict_chain_rows,
    toggle_polytope,
)
from minuscule.cli import build_case, default_catalog
from minuscule.ideals import IdealLattice, gyration_images, image_orbits
from minuscule.simplex import OPTIMAL, solve_lp
from minuscule.stats import CheckRow, closed_form_witness, toggle_suite, witness_residues
from conftest import base_shifted_lattices, random_heap_word, small_catalog
from oracles import (
    bipartite_coxeter_images,
    chain_count_table,
    chain_row,
    coxeter_number,
    exact_product_width,
    ideal_size_polynomial,
    make_distribution,
    maxchain_distribution,
    multi_chain_member_counts,
    packed_orbit_indicators,
    packed_orbit_rows,
    polytope_vertices,
    simple_root,
    strict_chain_member_counts,
    subset_table_chain_counts,
    value_at_root_of_unity,
    weyl_dimension,
    zeta_multichain_counts,
    zeta_strict_chain_rows,
)

F = Fraction


def grid_lattice():
    cd = build_cartan("A", 3)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 2))
    return h, enumerate_ideals(h)


def test_make_distribution_validates():
    make_distribution([F(1, 2), F(1, 2)])
    with pytest.raises(DomainError):
        make_distribution([F(3, 4), F(1, 2)])
    with pytest.raises(DomainError):
        make_distribution([F(3, 2), F(-1, 2)])


def test_expectation_examples():
    h, L = grid_lattice()
    point_mass = make_distribution([1, 0, 0, 0, 0, 0])
    assert expectation(point_mass, L.down_degrees) == 0
    assert expectation(uniform_distribution(L), L.down_degrees) == 1
    assert expectation(uniform_distribution(L), [F(7)] * 6) == 7
    with pytest.raises(DomainError):
        expectation(point_mass, [1, 2, 3])


def test_grid_maxchain_probabilities():
    h, L = grid_lattice()
    dist = maxchain_distribution(L)
    by_mask = {m: p for m, p in zip(L.ideals, dist)}
    assert by_mask[0] == F(1, 5)
    assert by_mask[0b0001] == F(1, 5)
    assert by_mask[0b0011] == F(1, 10)
    assert by_mask[0b0101] == F(1, 10)
    assert by_mask[0b0111] == F(1, 5)
    assert by_mask[0b1111] == F(1, 5)
    assert expectation(dist, L.down_degrees) == 1


def test_chain_zero_is_uniform_both_modes():
    _, L = grid_lattice()
    assert chain_distribution(L, 0, "strict") == uniform_distribution(L)
    assert chain_distribution(L, 0, "multi") == uniform_distribution(L)


def test_chain_two_both_modes_expectation_one():
    _, L = grid_lattice()
    assert expectation(chain_distribution(L, 2, "strict"), L.down_degrees) == 1
    assert expectation(chain_distribution(L, 2, "multi"), L.down_degrees) == 1


def test_chain_mode_validation():
    _, L = grid_lattice()
    with pytest.raises(DomainError):
        chain_distribution(L, 5, "strict")  # rank is 4
    with pytest.raises(DomainError):
        chain_distribution(L, -1, "multi")
    with pytest.raises(DomainError):
        chain_distribution(L, 1, "zigzag")
    chain_distribution(L, 9, "multi")  # multichains have no upper bound


@pytest.mark.parametrize("family,rank,node", [("A", 2, 1), ("A", 3, 2), ("A", 4, 2), ("D", 4, 1)])
def test_chain_counts_against_brute_force(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    n = len(L)

    def leq(a, b):
        return L.ideals[a] & ~L.ideals[b] == 0

    lengths = sorted(set(range(min(len(h), 3) + 1)) | {len(h)})
    for k in lengths:
        counts = strict_chain_member_counts(n, leq, k)
        total = sum(counts)
        assert chain_distribution(L, k, "strict") == tuple(F(c, total) for c in counts)
    for k in range(3):
        counts = multi_chain_member_counts(n, leq, k)
        total = sum(counts)
        assert chain_distribution(L, k, "multi") == tuple(F(c, total) for c in counts)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_chain_counts_match_subset_table_oracle(family, rank, node):
    """The one table per mode against the subset-table oracle, and
    ``chain_counts`` and ``chain_distribution`` against the table at
    every k."""
    cd = build_cartan(family, rank)
    L = enumerate_ideals(build_minuscule_heap(cd, fundamental_weight(cd, node)))
    p = len(L.heap)
    for mode, lengths in (("strict", range(p + 1)), ("multi", range(p + 3))):
        for k, counts in zip(lengths, chain_count_table(L, mode, lengths)):
            assert chain_counts(L, k, mode) == counts, (mode, k)
            assert list(counts) == subset_table_chain_counts(L.ideals, k, mode), (mode, k)
            total = sum(counts)
            assert chain_distribution(L, k, mode) == tuple(F(c, total) for c in counts)


def test_chain_counts_validation():
    _, L = grid_lattice()
    assert chain_counts(L, 4) == (2, 2, 1, 1, 2, 2)  # two maximal chains
    for k, mode in ((5, "strict"), (-1, "multi"), (1, "zigzag")):
        with pytest.raises(DomainError):
            chain_counts(L, k, mode)


@settings(max_examples=60)
@given(random_heap_word())
def test_chain_counts_match_oracles_on_random_heaps(case):
    cd, word = case
    L = enumerate_ideals(heap_from_word(cd, word))
    n, p = len(L), len(L.heap)

    def leq(a, b):
        return L.ideals[a] & ~L.ideals[b] == 0

    for mode, lengths in (("strict", range(p + 1)), ("multi", range(p + 3))):
        for k, counts in zip(lengths, chain_count_table(L, mode, lengths)):
            counts = list(counts)
            assert counts == subset_table_chain_counts(L.ideals, k, mode), (mode, k)
            if mode == "multi":
                assert counts == zeta_multichain_counts(L, k), k
            if n > 12:
                continue
            if mode == "strict":
                assert counts == strict_chain_member_counts(n, leq, k), k
            elif n ** (k + 1) <= 5000:  # the multichain brute force walks n^(k+1) tuples
                assert counts == multi_chain_member_counts(n, leq, k), k


def rows_from_counts(L, counts_by_k):
    """(violations, expectation) of each count vector, by the
    per-distribution checks."""
    return [
        (
            tuple((p, e - f) for p, e, f in toggle_symmetry_report(L, counts).violations),
            expectation(counts, L.down_degrees),
        )
        for counts in counts_by_k
    ]


def rows_as_checked(rows):
    return [(row.differences, row.expectation) for row in rows]


def test_chain_rows_match_the_per_distribution_checks_on_the_catalog(catalog, bundle):
    """Strict rows against the strict counts, and the transformed
    multichain rows against the zeta-table multichain counts."""
    for spec in catalog:
        L = bundle(spec.family, spec.rank, spec.node).lattice
        levels = range(len(L.heap) + 1)
        strict = strict_chain_rows(L)
        counts = chain_count_table(L, "strict", levels)
        assert rows_as_checked(strict) == rows_from_counts(L, counts)
        oracle = rows_from_counts(L, [zeta_multichain_counts(L, k) for k in levels])
        assert rows_as_checked(multichain_rows(strict)) == oracle, spec


@settings(max_examples=60)
@given(random_heap_word(), st.integers(0, 2**32 - 1))
def test_multichain_transform_of_perturbed_rows_on_random_heaps(case, seed):
    """Chain counts are toggle-symmetric on every J(P), so each strict
    vector gets random integer noise first: the transform must then
    combine nonzero differences exactly as the per-distribution checks
    see the combined vectors."""
    cd, word = case
    L = enumerate_ideals(heap_from_word(cd, word))
    rng = random.Random(seed)
    rank = len(L.heap)
    table = chain_count_table(L, "strict", range(rank + 1))
    strict = [[c + rng.randint(0, 3) for c in counts] for counts in table]
    multi = [
        [sum(comb(k + 1, s + 1) * strict[s][i] for s in range(k + 1)) for i in range(len(L))]
        for k in range(rank + 1)
    ]
    rows = multichain_rows(tuple(chain_row(L, counts) for counts in strict))
    assert rows_as_checked(rows) == rows_from_counts(L, multi)


def test_strict_chain_rows_match_the_zeta_level_oracle_on_the_catalog(catalog, bundle):
    for spec in catalog:
        L = bundle(spec.family, spec.rank, spec.node).lattice
        assert strict_chain_rows(L) == zeta_strict_chain_rows(L), spec


@pytest.mark.parametrize("family,rank,node", [("A", 9, 5), ("D", 9, 9)])
def test_strict_chain_rows_match_the_zeta_level_oracle_on_the_ladder(bundle, family, rank, node):
    L = bundle(family, rank, node).lattice
    assert strict_chain_rows(L) == zeta_strict_chain_rows(L)


@settings(max_examples=60)
@given(random_heap_word())
def test_strict_chain_rows_match_the_zeta_level_oracle_on_random_heaps(case):
    cd, word = case
    L = enumerate_ideals(heap_from_word(cd, word))
    assert strict_chain_rows(L) == zeta_strict_chain_rows(L)


@pytest.mark.parametrize(
    "family,rank,node",
    small_catalog() + [("A", 9, 5), ("D", 9, 9), pytest.param("A", 1, None, id="empty")],
)
def test_every_packed_sum_round_trips_through_its_slots(family, rank, node):
    """Each slot of each sum the rows read is below 2^W, and the slots
    pack back to the sum: no slot carries into the next.  Node None is
    the empty heap, whose one ideal is its one chain."""
    cd = build_cartan(family, rank)
    if node is None:
        L = enumerate_ideals(heap_from_word(cd, ()))
    else:
        L = enumerate_ideals(build_minuscule_heap(cd, fundamental_weight(cd, node)))
    width, products = _strict_products(L)
    slots = len(L.heap) + 1
    lows, highs, ddeg_sum, total = _chain_sums(L, products)
    for value in [*products, *lows, *highs, ddeg_sum, total]:
        unpacked = _unpack(value, width, slots)
        assert all(0 <= s < 1 << width for s in unpacked)
        assert sum(s << (k * width) for k, s in enumerate(unpacked)) == value


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_a_bumped_slot_is_reported_at_its_chain_length_and_element(family, rank, node):
    """One more k-chain at ideal x breaks toggle symmetry in row k alone:
    d = +1 at each element insertable at x and -1 at each deletable one,
    and the row's sums gain ddeg(x) and 1.  The bottom ideal of a
    minuscule lattice has one upper cover, so its bump names one (k, p)."""
    cd = build_cartan(family, rank)
    L = enumerate_ideals(build_minuscule_heap(cd, fundamental_weight(cd, node)))
    width, products = _strict_products(L)
    rank_p = len(L.heap)
    rows = read_chain_rows(L, width, products, rank_p + 1)
    assert rows == strict_chain_rows(L)
    for x in sorted({0, len(L) // 2, len(L) - 1}):
        adds, removes = L.toggle_masks[x]
        signs = {p: 1 for p in range(rank_p) if adds >> p & 1}
        signs.update({p: -1 for p in range(rank_p) if removes >> p & 1})
        expected = tuple(sorted(signs.items()))
        for k in sorted({0, rank_p // 2, rank_p}):
            bumped = list(products)
            bumped[x] += 1 << (k * width)
            got = read_chain_rows(L, width, bumped, rank_p + 1)
            want = list(rows)
            want[k] = ChainRow(expected, rows[k].ddeg_sum + L.down_degrees[x], rows[k].total + 1)
            assert got == tuple(want), (x, k)
            if x == 0:
                (p,) = signs
                named = [(j, row.differences) for j, row in enumerate(got) if row.differences]
                assert named == [(k, ((p, 1),))]


def test_a_cover_that_does_not_ascend_in_index_raises():
    """The packed pass walks the ideals in index order, so a cover whose
    lo does not precede hi would be read too late.  Such a cover, or one
    naming an ideal or element out of range, is a ``DomainError`` of the
    lattice constructor naming it, so no chain count ever reads it."""
    _, L = grid_lattice()
    lo, hi, p = L.covers[0]
    for bad in ((hi, lo, p), (lo, lo, p), (lo, len(L), p), (lo, hi, len(L.heap))):
        with pytest.raises(DomainError, match=re.escape(f"lattice cover {bad} breaks the rule")):
            IdealLattice(L.heap, L.ideals, (bad,) + L.covers[1:], L.weights)


def indicator(L, orbit):
    members = set(orbit)
    return tuple(int(k in members) for k in range(len(L)))


def elements_by_row(rows):
    """Per row, the ascending elements at which it is not toggle-symmetric."""
    return tuple(tuple(p for p, _ in row.differences) for row in rows)


def split_off(orbits, j):
    """The orbits with the first ideal of orbit j moved into an orbit of
    its own, at the end: orbit j's indicator is tampered with.  An orbit
    left empty is dropped, since ``orbit_rows`` rejects it."""
    k, *rest = orbits[j]
    kept = [tuple(rest)] if rest else []
    return [*orbits[:j], *kept, *orbits[j + 1 :], (k,)]


def check_orbit_rows(L, orbits):
    """The counted orbit rows equal the packed oracle's, and
    ``toggle_symmetry_report`` and ``expectation`` on each orbit's
    indicator; returns the rows."""
    rows = orbit_rows(L, orbits)
    assert rows == packed_orbit_rows(L, orbits)
    for orbit, row in zip(orbits, rows, strict=True):
        report = toggle_symmetry_report(L, indicator(L, orbit))
        assert row.differences == tuple((p, e - f) for p, e, f in report.violations)
        assert row.total == len(orbit)
        assert row.expectation == expectation(indicator(L, orbit), L.down_degrees)
    return rows


def check_orbit_violations(L, orbits, j):
    """The orbit rows' violations equal the per-orbit reports,
    untampered and with orbit j's indicator tampered; returns both."""
    found = elements_by_row(check_orbit_rows(L, orbits))
    found_tampered = elements_by_row(check_orbit_rows(L, split_off(orbits, j)))
    return found, found_tampered


def test_orbit_violations_and_means_match_the_per_orbit_checks_on_the_catalog(catalog, bundle):
    for spec in catalog:
        L = bundle(spec.family, spec.rank, spec.node).lattice
        for action in ("rowmotion", "gyration"):
            rows = homomesy_report(L, action).rows
            orbits = [row.orbit for row in rows]
            j = max(range(len(orbits)), key=lambda i: len(orbits[i]))
            found, tampered = check_orbit_violations(L, orbits, j)
            assert found == ((),) * len(orbits), (spec, action)
            # The moved ideal lies on a cover, and no element is both
            # insertable and deletable at it, so both orbits it touches break.
            assert tampered[-1] and (tampered[j] or len(orbits[j]) == 1), (spec, action)
            for row in rows:
                assert row.mean == expectation(indicator(L, row.orbit), L.down_degrees)


@pytest.mark.parametrize("family,rank,node", [("A", 9, 5), ("D", 9, 9)])
@pytest.mark.parametrize("action", ["rowmotion", "gyration"])
def test_orbit_rows_match_the_per_orbit_checks_on_the_ladder(bundle, family, rank, node, action):
    L = bundle(family, rank, node).lattice
    report = homomesy_report(L, action)
    rows = check_orbit_rows(L, [row.orbit for row in report.rows])
    assert [row.expectation for row in rows] == [row.mean for row in report.rows]


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_orbit_rows_of_the_coarsest_and_finest_partitions(bundle, family, rank, node):
    """One orbit of every ideal is the uniform weighting: symmetric, with
    the constant as its expectation.  The singletons are the point
    masses, each asymmetric at every element its ideal can toggle."""
    case = bundle(family, rank, node)
    L = case.lattice
    (whole,) = check_orbit_rows(L, [tuple(range(len(L)))])
    assert (whole.differences, whole.expectation) == ((), case.constant)
    for k, row in enumerate(check_orbit_rows(L, [(k,) for k in range(len(L))])):
        adds, removes = L.toggle_masks[k]
        toggled = [p for p in range(len(L.heap)) if (adds | removes) >> p & 1]
        assert [p for p, _ in row.differences] == toggled


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_orbit_rows_of_overlapping_and_partial_orbit_lists(bundle, family, rank, node):
    """Orbits may overlap and need not cover the lattice: both actions'
    orbits in one list put every ideal in two, every second rowmotion
    orbit leaves ideals in none, and nested index runs in any order mix
    both."""
    L = bundle(family, rank, node).lattice
    n = len(L)
    rowmotion_orbits = action_orbits(L, rowmotion)
    for orbits in (
        [*rowmotion_orbits, *action_orbits(L, gyration)],
        rowmotion_orbits[::2],
        [tuple(range(n)), tuple(range(0, n, 2)), tuple(range(n - 1, -1, -3))],
    ):
        check_orbit_rows(L, orbits)


@pytest.mark.parametrize(
    "orbits,message",
    [
        ([(0, 1), ()], "empty orbit"),
        ([(0, 6)], "ideal index 6 out of range 0..5"),
        ([(2,), (3, 1, 3)], "ideal index 3 repeats in the orbit"),
    ],
)
def test_orbit_rows_reject_what_is_not_an_orbit_indicator(orbits, message):
    _, L = grid_lattice()
    with pytest.raises(DomainError) as info:
        orbit_rows(L, orbits)
    assert str(info.value) == message


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_every_packed_orbit_sum_round_trips_through_its_slots(bundle, family, rank, node):
    """In the packed oracle, at W = bit_length(|J(P)| * (|P| + 1)), every
    slot of every sum the orbit rows read is at most |J(P)| * |P|, and
    the slots pack back to the sum, for both actions' orbits and the
    coarsest and finest partitions."""
    L = bundle(family, rank, node).lattice
    n, rank_p = len(L), len(L.heap)
    partitions = [action_orbits(L, rowmotion), action_orbits(L, gyration)]
    partitions += [[tuple(range(n))], [(k,) for k in range(n)]]
    for orbits in partitions:
        width, packed = packed_orbit_indicators(L, orbits)
        assert width == (n * (rank_p + 1)).bit_length()
        lows, highs, ddeg_sum, total = _chain_sums(L, packed)
        for value in [*packed, *lows, *highs, ddeg_sum, total]:
            unpacked = _unpack(value, width, len(orbits))
            assert all(0 <= s <= n * rank_p for s in unpacked)
            assert sum(s << (j * width) for j, s in enumerate(unpacked)) == value


@settings(max_examples=60)
@given(random_heap_word(), st.data())
def test_orbit_violations_match_the_per_orbit_checks_on_random_heaps(case, data):
    cd, word = case
    h = heap_from_word(cd, word)
    L = enumerate_ideals(h)
    for action in (rowmotion, gyration) if h.is_graded else (rowmotion,):
        orbits = action_orbits(L, action)
        check_orbit_violations(L, orbits, data.draw(st.integers(0, len(orbits) - 1)))
    # any nonempty index lists, overlapping or not, covering L or not
    member = st.lists(st.integers(0, len(L) - 1), min_size=1, unique=True).map(tuple)
    check_orbit_rows(L, data.draw(st.lists(member, max_size=4)))


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_counts_and_normalised_distributions_agree(family, rank, node):
    """Integer weights and the same weights normalised give the same
    expectation and the same toggle-symmetry verdict, with the
    violations scaled by the total."""
    cd = build_cartan(family, rank)
    L = enumerate_ideals(build_minuscule_heap(cd, fundamental_weight(cd, node)))
    n = len(L)
    weights = [chain_counts(L, k, mode) for mode in ("strict", "multi") for k in (1, len(L.heap))]
    for action in (rowmotion, gyration):
        for orbit in action_orbits(L, action):
            weights.append(tuple(int(k in orbit) for k in range(n)))
    weights += [tuple(int(k == i) for k in range(n)) for i in range(n)]
    asymmetric = 0
    for w in weights:
        total = sum(w)
        dist = make_distribution(F(c, total) for c in w)
        assert expectation(w, L.down_degrees) == expectation(dist, L.down_degrees)
        by_counts = toggle_symmetry_report(L, w)
        by_dist = toggle_symmetry_report(L, dist)
        assert by_counts.ok == by_dist.ok
        assert [(p, a, b) for p, a, b in by_counts.violations] == [
            (p, total * a, total * b) for p, a, b in by_dist.violations
        ]
        asymmetric += not by_counts.ok
    assert asymmetric == n  # every point mass, and nothing else
    with pytest.raises(DomainError):
        expectation((0,) * n, L.down_degrees)


def test_toggle_symmetry_of_uniform_and_failure_of_point_mass():
    h, L = grid_lattice()
    assert toggle_symmetry_report(L, uniform_distribution(L)).ok
    point_mass = make_distribution([1, 0, 0, 0, 0, 0])
    report = toggle_symmetry_report(L, point_mass)
    minimal = {p for p in range(len(h)) if h.below[p] == 0}
    assert {p for p, _, _ in report.violations} == minimal
    for p, e_plus, e_minus in report.violations:
        assert (e_plus, e_minus) == (1, 0)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_chain_and_orbit_distributions_are_toggle_symmetric(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    L = enumerate_ideals(h)
    for k in range(len(h) + 1):
        assert toggle_symmetry_report(L, chain_distribution(L, k, "strict")).ok
        assert toggle_symmetry_report(L, chain_distribution(L, k, "multi")).ok
    for action in (rowmotion, gyration):
        for orbit in action_orbits(L, action):
            assert toggle_symmetry_report(L, orbit_distribution(L, orbit)).ok


def test_orbit_distribution_shapes():
    h, L = grid_lattice()
    assert orbit_distribution(L, (3,)) == tuple(F(int(k == 3)) for k in range(6))
    four_orbit = next(o for o in action_orbits(L, rowmotion) if len(o) == 4)
    dist = orbit_distribution(L, four_orbit)
    assert sorted(dist) == [F(0), F(0), F(1, 4), F(1, 4), F(1, 4), F(1, 4)]
    assert orbit_distribution(L, tuple(range(6))) == uniform_distribution(L)
    with pytest.raises(DomainError):
        orbit_distribution(L, ())


@pytest.mark.parametrize(
    "orbit,message",
    [
        ((3, 3), "ideal index 3 repeats in the orbit"),
        ((0, 5, 0), "ideal index 0 repeats in the orbit"),
        ((-1,), "ideal index -1 out of range 0..5"),
        ((6,), "ideal index 6 out of range 0..5"),
        ((99,), "ideal index 99 out of range 0..5"),
    ],
)
def test_orbit_distribution_rejects_bad_indices(orbit, message):
    _, L = grid_lattice()
    with pytest.raises(DomainError) as info:
        orbit_distribution(L, orbit)
    assert str(info.value) == message


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_cde_all_chain_lengths(family, rank, node):
    cd = build_cartan(family, rank)
    lam = fundamental_weight(cd, node)
    h = build_minuscule_heap(cd, lam)
    L = enumerate_ideals(h)
    constant = tcde_constant(cd, lam)
    assert expectation(uniform_distribution(L), L.down_degrees) == constant
    for mode in ("strict", "multi"):
        for k in range(len(h) + 1):
            dist = chain_distribution(L, k, mode)
            assert expectation(dist, L.down_degrees) == constant, (mode, k)


def test_lp_certificate_rank_one():
    cd = build_cartan("A", 1)
    h = build_minuscule_heap(cd, (1,))
    L = enumerate_ideals(h)
    cert = lp_certificate(L)
    assert cert.minimum == cert.maximum == F(1, 2)
    assert cert.minimizer == cert.maximizer == (F(1, 2), F(1, 2))


def test_lp_certificate_grid():
    _, L = grid_lattice()
    cert = lp_certificate(L)
    assert cert.minimum == cert.maximum == 1
    assert sum(cert.minimizer) == 1
    assert toggle_symmetry_report(L, make_distribution(cert.minimizer)).ok


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_lp_certificate_matches_constant(family, rank, node):
    cd = build_cartan(family, rank)
    lam = fundamental_weight(cd, node)
    h = build_minuscule_heap(cd, lam)
    L = enumerate_ideals(h)
    cert = lp_certificate(L)
    assert cert.minimum == cert.maximum == tcde_constant(cd, lam)


def test_lp_certificate_agrees_with_vertex_enumeration():
    _, L = grid_lattice()
    rows, rhs = toggle_polytope(L)
    vertices = polytope_vertices(rows, rhs)
    values = [expectation(v, L.down_degrees) for v in vertices]
    cert = lp_certificate(L)
    assert cert.minimum == min(values)
    assert cert.maximum == max(values)


def test_nonminuscule_control_poset_separates():
    """The 4-element N-shaped poset is the discriminating control: its
    toggle-symmetric polytope supports different expected down-degrees,
    and the simplex optima match brute-force vertex enumeration."""
    cd = build_cartan("A", 4)
    h = heap_from_word(cd, (2, 4, 3, 1))  # covers: 0<2, 1<2, 0<3 only
    assert set(h.covers) == {(0, 2), (1, 2), (0, 3)}
    L = enumerate_ideals(h)
    assert len(L) == 8
    cert = lp_certificate(L)
    rows, rhs = toggle_polytope(L)
    values = [expectation(v, L.down_degrees) for v in polytope_vertices(rows, rhs)]
    assert cert.minimum == min(values)
    assert cert.maximum == max(values)
    assert cert.minimum < cert.maximum
    # uniform sits strictly between, so chain distributions cannot certify this
    uni_value = expectation(uniform_distribution(L), L.down_degrees)
    assert cert.minimum < uni_value < cert.maximum


def simplex_optima(L):
    rows, rhs = toggle_polytope(L)
    objective = [F(d) for d in L.down_degrees]
    low = solve_lp(objective, rows, rhs, maximize=False)
    high = solve_lp(objective, rows, rhs, maximize=True)
    assert low.status == high.status == OPTIMAL
    return low.objective, high.objective


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_lp_witness_agrees_with_simplex_and_closed_form(family, rank, node, monkeypatch):
    cd = build_cartan(family, rank)
    lam = fundamental_weight(cd, node)
    h = build_minuscule_heap(cd, lam)
    L = enumerate_ideals(h)

    def no_simplex(*args, **kwargs):
        raise AssertionError("simplex called on a minuscule case")

    with monkeypatch.context() as patch:
        patch.setattr(cde, "solve_lp", no_simplex)
        cert = lp_certificate(L)
    assert (cert.minimum, cert.maximum) == simplex_optima(L)
    assert cert.minimizer == cert.maximizer == uniform_distribution(L)

    y = cert.witness
    rows, _ = toggle_polytope(L)
    assert len(y) == len(rows) == len(h) + 1
    for k, ddeg in enumerate(L.down_degrees):
        assert sum(row[k] * v for row, v in zip(rows, y)) == ddeg

    assert y[0] == tcde_constant(cd, lam)
    for i in cd.nodes:
        alpha = simple_root(cd, i)
        scale = 2 * inner_product(cd, lam, fundamental_weight(cd, i)) / inner_product(
            cd, alpha, alpha
        )
        for j, p in enumerate(h.fibers[i], start=1):
            assert y[p + 1] == (j - 1) - scale


def never(*args, **kwargs):
    raise AssertionError("the Gram solve ran")


@pytest.mark.parametrize(
    "case",
    [(s.family, s.rank, s.node) for s in default_catalog()] + [("A", 9, 5), ("D", 9, 9)],
    ids=lambda case: "%s%d.%d" % case,
)
def test_closed_form_witness_equals_the_gram_solve(case, monkeypatch):
    """On every catalog case and the two ladder cases the closed-form
    witness passes the exact check, so the Gram solve never runs, and it
    is the witness the Gram solve finds."""
    L = build_case(*case).lattice
    gram = cde._gram_witness(L)
    assert gram is not None
    with monkeypatch.context() as patch:
        patch.setattr(cde, "_gram_witness", never)
        assert cde._dual_witness(L) == gram


@pytest.mark.parametrize("spec", default_catalog(), ids=lambda spec: spec.case_id)
def test_closed_form_residues_are_the_ddeg_row_and_decide_the_gram_solve(spec, monkeypatch):
    """With the case's base and with it shifted by each omega_i, the
    residues of the closed-form witness are the ``ddeg_decomposition``
    failures, and ``_dual_witness`` skips the Gram solve exactly when
    there are none, returning the closed form.  A shifted base leaves a
    residue at the empty ideal, so only the case's own base skips it."""
    gram = cde._gram_witness
    skipped = []
    for L in base_shifted_lattices(spec):
        y, d = closed_form_witness(L.heap), L.heap.cartan.det
        residues = witness_residues(L, y, d)
        assert toggle_suite(L).rows[-1] == CheckRow("ddeg_decomposition", len(L), residues)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(
                cde, "_gram_witness", lambda lattice: calls.append(lattice) or gram(lattice)
            )
            witness = cde._dual_witness(L)
        assert (residues == 0) == (calls == [])
        if not residues:
            assert witness == tuple(F(v, d) for v in y)
        skipped.append(not calls)
    assert skipped == [True] + [False] * spec.rank


@settings(max_examples=60)
@given(random_heap_word(with_base=True))
def test_dual_witness_agrees_with_the_gram_solve_on_random_heaps_with_a_base(case):
    """A random base rarely gives a closed form that passes, and then the
    Gram solve decides.  A Gram solution is unique, since a nonsingular
    Gram matrix means A has full row rank, so any certified witness
    equals it; without one, a witness must still pass the exact check."""
    cd, word, base = case
    L = enumerate_ideals(heap_from_word(cd, word, base=base))
    witness, gram = cde._dual_witness(L), cde._gram_witness(L)
    if gram is not None:
        assert witness == gram
    elif witness is not None:
        rows, _ = toggle_polytope(L)
        for k, ddeg in enumerate(L.down_degrees):
            assert sum(row[k] * v for row, v in zip(rows, witness)) == ddeg


def test_bareiss_solve_is_exact_and_rejects_singular_systems():
    (x,), d = cde._bareiss_solve([[2, 1], [1, 3]], [[3, 5]])
    assert [F(v, d) for v in x] == [F(4, 5), F(7, 5)]
    (x,), d = cde._bareiss_solve([[0, 1], [1, 0]], [[3, 5]])  # needs a row swap
    assert [F(v, d) for v in x] == [5, 3]
    assert cde._bareiss_solve([[2, 4], [1, 2]], [[6, 3]]) is None


def test_bareiss_solve_eliminates_once_for_several_columns():
    (x, y, z), d = cde._bareiss_solve([[2, 1], [1, 3]], [[3, 5], [1, 0], [0, 1]])
    assert [F(v, d) for v in x] == [F(4, 5), F(7, 5)]
    assert [[F(v, d) for v in col] for col in (y, z)] == [[F(3, 5), F(-1, 5)], [F(-1, 5), F(2, 5)]]


def test_lp_control_poset_has_no_witness(monkeypatch):
    """The control heap has no base weight, so the Gram solve decides."""
    cd = build_cartan("A", 4)
    L = enumerate_ideals(heap_from_word(cd, (2, 4, 3, 1)))
    calls = []
    gram = cde._gram_witness
    monkeypatch.setattr(
        cde, "_gram_witness", lambda lattice: calls.append(lattice) or gram(lattice)
    )
    cert = lp_certificate(L)
    assert calls == [L]
    assert cert.witness is None
    assert (cert.minimum, cert.maximum) == (F(6, 5), F(4, 3))


def test_lp_fork_certifies_without_simplex(monkeypatch):
    cd = build_cartan("A", 3)
    L = enumerate_ideals(heap_from_word(cd, (1, 3, 2)))
    monkeypatch.setattr(cde, "solve_lp", None)
    cert = lp_certificate(L)
    assert cert.minimum == cert.maximum == 1
    assert cert.witness[0] == 1


@settings(max_examples=60)
@given(random_heap_word())
def test_lp_certificate_agrees_with_oracles_on_random_heaps(case):
    cd, word = case
    L = enumerate_ideals(heap_from_word(cd, word))
    cert = lp_certificate(L)
    assert cert.witness == cde._gram_witness(L)  # no base weight: the Gram solve decides
    if len(L) <= 12:
        rows, rhs = toggle_polytope(L)
        values = [expectation(v, L.down_degrees) for v in polytope_vertices(rows, rhs)]
        assert (cert.minimum, cert.maximum) == (min(values), max(values))
    else:
        assert (cert.minimum, cert.maximum) == simplex_optima(L)
    if cert.witness is not None:
        rows, _ = toggle_polytope(L)
        for k, ddeg in enumerate(L.down_degrees):
            assert sum(row[k] * v for row, v in zip(rows, cert.witness)) == ddeg
        assert cert.minimizer == uniform_distribution(L)
    else:
        assert cert.minimum < cert.maximum


def test_random_mixtures_of_lp_vertices_stay_toggle_symmetric():
    _, L = grid_lattice()
    rows, rhs = toggle_polytope(L)
    vertices = polytope_vertices(rows, rhs)
    rng = random.Random(5)
    constant = tcde_constant(L.heap.cartan, L.heap.base)
    for _ in range(20):
        weights = [F(rng.randint(0, 9)) for _ in vertices]
        if sum(weights) == 0:
            continue
        total = sum(weights)
        mix = tuple(
            sum(w * v[k] for w, v in zip(weights, vertices)) / total
            for k in range(len(L))
        )
        dist = make_distribution(mix)
        report = toggle_symmetry_report(L, dist)
        assert report.ok
        assert expectation(dist, L.down_degrees) == constant


def test_homomesy_reports():
    _, L = grid_lattice()
    row_report = homomesy_report(L, "rowmotion")
    assert row_report.ok
    assert sorted((len(r.orbit), r.mean) for r in row_report.rows) == [(2, F(1)), (4, F(1))]
    gyr_report = homomesy_report(L, "gyration")
    assert gyr_report.ok
    assert all(r.mean == 1 for r in gyr_report.rows)
    with pytest.raises(DomainError):
        homomesy_report(L, "promotion")


def test_homomesy_e6_rowmotion():
    cd = build_cartan("E", 6)
    h = build_minuscule_heap(cd, fundamental_weight(cd, 6))
    L = enumerate_ideals(h)
    report = homomesy_report(L, "rowmotion")
    assert report.constant == F(4, 3)
    assert report.ok
    assert sum(len(r.orbit) for r in report.rows) == 27


LADDER = [("A", 9, 5), ("D", 9, 9), ("D", 10, 10), ("A", 11, 6), ("D", 12, 12)]


@pytest.mark.parametrize(
    "family,rank,node", [(s.family, s.rank, s.node) for s in default_catalog()] + LADDER
)
def test_every_chain_total_is_a_weyl_dimension(family, rank, node):
    """For minuscule lambda the multichains of m ideals of J(P) index a
    basis of V(m lambda) (standard monomial theory), so multichain row k
    totals (k+1) dim V((k+1) lambda), from the Weyl dimension formula on
    the Cartan matrix alone.  Inverting the binomial transform
    c^multi_k = sum_s C(k+1, s+1) c^strict_s gives every strict total,
    and no strict chain has more than |P| + 1 ideals."""
    bundle = build_case(family, rank, node)
    matrix, lam = bundle.cartan.matrix, bundle.weight
    strict = strict_chain_rows(bundle.lattice)
    size = len(bundle.heap)
    multi_totals = [
        (k + 1) * weyl_dimension(matrix, tuple((k + 1) * m for m in lam)) for k in range(size + 2)
    ]
    assert [row.total for row in multichain_rows(strict)] == multi_totals[: size + 1]
    strict_totals = []
    for k, total in enumerate(multi_totals):
        strict_totals.append(total - sum(comb(k + 1, s + 1) * c for s, c in enumerate(strict_totals)))
    assert strict_totals == [row.total for row in strict] + [0]


def check_product_width(lattice):
    """The slot width of the packed products is never below the width
    the t = 1 pass measures, and at most 2 * bit_length(|P| + 1) above
    it: that pass's total already counts every strict chain."""
    width, _ = _strict_products(lattice)
    exact = exact_product_width(lattice)
    assert exact <= width <= exact + 2 * (len(lattice.heap) + 1).bit_length(), (exact, width)


@pytest.mark.parametrize(
    "family,rank,node", [(s.family, s.rank, s.node) for s in default_catalog()] + LADDER
)
def test_the_slot_width_bound_covers_the_measured_width(family, rank, node):
    check_product_width(build_case(family, rank, node).lattice)


@settings(max_examples=100)
@given(random_heap_word())
@example((build_cartan("A", 1), ()))
@example((build_cartan("A", 1), (1,)))
@example((build_cartan("E", 7), (4,)))
def test_the_slot_width_bound_covers_the_measured_width_on_random_heaps(case):
    """Heaps of words, the empty word and one-letter words among them."""
    cd, word = case
    check_product_width(enumerate_ideals(heap_from_word(cd, word)))


def fixed_counts(orbits, h):
    """Per d < h, the ideals that the d-th power of an action fixes: the
    members of its orbits whose size divides d."""
    return [sum(len(orbit) for orbit in orbits if d % len(orbit) == 0) for d in range(h)]


@pytest.mark.parametrize(
    "family,rank,node", [(s.family, s.rank, s.node) for s in default_catalog()] + LADDER
)
def test_rowmotion_and_gyration_orbits_exhibit_cyclic_sieving(family, rank, node):
    """Rush and Shi: (J(P), rowmotion, F(q) = sum_I q^|I|) exhibits
    cyclic sieving with a cyclic group of order h, the Coxeter number, so
    rowmotion^d fixes F(zeta_h^d) ideals, zeta_h^d being a primitive
    h/gcd(h, d)-th root of unity.  Gyration toggles every rank once, so
    it is conjugate to rowmotion in the toggle group (Striker-Williams)
    and has the same orbit sizes.  F and h come from the ideal sizes and
    the Cartan matrix; splitting the largest orbit in two breaks the
    count."""
    bundle = build_case(family, rank, node)
    lattice = bundle.lattice
    h = coxeter_number(bundle.cartan.matrix)
    f = ideal_size_polynomial(lattice.ideals)
    sieved = [value_at_root_of_unity(f, h // gcd(h, d)) for d in range(h)]
    assert sieved[0] == len(lattice)
    for action, images in cde.ACTIONS.items():
        orbits = image_orbits(lattice, images(lattice))
        assert fixed_counts(orbits, h) == sieved, action
        largest = max(orbits, key=len)
        split = [orbit for orbit in orbits if orbit is not largest] + [largest[:1], largest[1:]]
        assert fixed_counts(split, h) != sieved, action


def test_integer_polytope_rows_give_exact_fraction_optima():
    """``toggle_polytope`` is in integers and the simplex converts its
    input, so the N-poset control's optima, minimizer and maximizer are
    ``Fraction``s, and so is the fork's Gram witness: no float creeps
    into either path."""
    cd = build_cartan("A", 4)
    L = enumerate_ideals(heap_from_word(cd, (2, 4, 3, 1)))
    rows, rhs = toggle_polytope(L)
    assert {type(v) for row in rows for v in row} == {type(v) for v in rhs} == {int}
    cert = lp_certificate(L)
    assert cert.witness is None
    assert (cert.minimum, cert.maximum) == (F(6, 5), F(4, 3))
    exact = (cert.minimum, cert.maximum, *cert.minimizer, *cert.maximizer)
    assert {type(v) for v in exact} == {Fraction}
    fork = enumerate_ideals(heap_from_word(build_cartan("A", 3), (1, 3, 2)))
    witness = cde._gram_witness(fork)
    assert witness[0] == 1
    assert {type(v) for v in witness} == {Fraction}


@settings(max_examples=60)
@given(random_heap_word())
def test_the_gram_witness_is_exact_on_random_heaps(case):
    """A heap with no base weight has no closed form; the Gram solve's
    witness, when there is one, is ``Fraction``s that pass A^T y = ddeg
    exactly."""
    cd, word = case
    L = enumerate_ideals(heap_from_word(cd, word))
    witness = cde._gram_witness(L)
    if witness is not None:
        assert {type(v) for v in witness} == {Fraction}
        rows, _ = toggle_polytope(L)
        for k, ddeg in enumerate(L.down_degrees):
            assert sum(row[k] * v for row, v in zip(rows, witness)) == ddeg


@pytest.mark.parametrize(
    "family,rank,node", [(s.family, s.rank, s.node) for s in default_catalog()] + LADDER
)
def test_gyration_is_the_bipartite_coxeter_element_on_the_weights(family, rank, node):
    """Rush-Shi: through the weight map, gyration is the bipartite
    Coxeter element c, so the image of every ideal has weight c w."""
    lattice = build_case(family, rank, node).lattice
    assert gyration_images(lattice) == bipartite_coxeter_images(lattice)


def test_weights_of_the_wrong_length_are_a_domain_error():
    L = build_case("A", 3, 2).lattice
    with pytest.raises(DomainError) as info:
        toggle_symmetry_report(L, [1] * (len(L) - 1))
    assert str(info.value) == "distribution length does not match lattice"


def test_homomesy_on_a_heap_without_a_base_weight_is_a_domain_error():
    L = enumerate_ideals(heap_from_word(build_cartan("A", 3), (1, 3, 2)))
    for action in ("rowmotion", "gyration"):
        with pytest.raises(DomainError) as info:
            homomesy_report(L, action)
        assert str(info.value) == "heap carries no base weight"
