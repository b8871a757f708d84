import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import (
    DomainError,
    build_cartan,
    build_minuscule_heap,
    fundamental_weight,
    generate_orbit,
    heap_from_word,
    heaps_isomorphic,
    random_linear_extension,
    word_of_extension,
)
from minuscule.heap import Heap, is_heap_of_its_word, word_rebuild_failures
from conftest import hand_built_heaps, random_heap_word, small_catalog
from oracles import (
    below_mask_isomorphic,
    every_extension_rebuilds,
    grid_covers,
    grid_word,
    join_irreducible_indices,
    less,
    linear_extensions,
    quadratic_heap_from_word,
    replayed_rebuild_failures,
    rescanning_linear_extension,
)

GRIDS = [(a, b) for a in range(2, 5) for b in range(a, 5)]


def test_two_chain_from_adjacent_labels():
    cd = build_cartan("A", 2)
    h = heap_from_word(cd, (1, 2))
    assert h.covers == ((0, 1),)
    assert h.labels == (1, 2)
    assert h.ranks == (0, 1)


def test_commuting_labels_give_antichain():
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (1, 3))
    assert h.covers == ()
    assert h.ranks == (0, 0)


def test_grid_shape_from_word():
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (2, 1, 3, 2))
    assert set(h.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_word_positions_orders_equal_labels():
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (2, 1, 3, 2))
    assert less(h, 0, 3)
    assert h.names == ((2, 1), (1, 1), (3, 1), (2, 2))


@pytest.mark.parametrize("a,b", GRIDS)
def test_grid_word_reproduces_grid_covers(a, b):
    """The row-reading word of the labeled grid yields exactly the grid order."""
    cd = build_cartan("A", a + b - 1)
    h = heap_from_word(cd, grid_word(a, b))
    assert set(h.covers) == grid_covers(a, b)


@pytest.mark.parametrize("a,b", GRIDS)
def test_minuscule_heap_isomorphic_to_grid(a, b):
    cd = build_cartan("A", a + b - 1)
    h = build_minuscule_heap(cd, fundamental_weight(cd, a))
    assert len(h) == a * b
    grid = heap_from_word(cd, grid_word(a, b))
    assert heaps_isomorphic(h, grid) is not None


def test_exceptional_heap_sizes():
    e6 = build_cartan("E", 6)
    assert len(build_minuscule_heap(e6, fundamental_weight(e6, 6))) == 16
    e7 = build_cartan("E", 7)
    assert len(build_minuscule_heap(e7, fundamental_weight(e7, 7))) == 27


def test_rank_one_heap():
    cd = build_cartan("A", 1)
    assert len(build_minuscule_heap(cd, (1,))) == 1


def test_non_minuscule_weight_rejected():
    cd = build_cartan("A", 2)
    with pytest.raises(DomainError):
        build_minuscule_heap(cd, (1, 1))


def test_isomorphism_identity_and_commuting_swap():
    cd = build_cartan("A", 3)
    h1 = heap_from_word(cd, (2, 1, 3, 2))
    h2 = heap_from_word(cd, (2, 3, 1, 2))
    assert heaps_isomorphic(h1, h1) == (0, 1, 2, 3)
    sigma = heaps_isomorphic(h1, h2)
    assert sigma is not None
    assert [h2.labels[s] for s in sigma] == list(h1.labels)


def test_isomorphism_rejects_order_mismatch():
    cd = build_cartan("A", 3)
    chain = heap_from_word(cd, (1, 2))
    antichain = heap_from_word(cd, (1, 3))
    assert heaps_isomorphic(chain, antichain) is None
    relabeled = heap_from_word(cd, (2, 3))
    assert heaps_isomorphic(chain, relabeled) is None


def test_label_fibers():
    cd = build_cartan("A", 3)
    h = heap_from_word(cd, (2, 1, 3, 2))
    assert h.fibers[2] == (0, 3)
    assert h.fibers[1] == (1,)
    h_small = heap_from_word(cd, (1,))
    assert h_small.fibers[2] == ()
    assert sorted(h.fibers) == [1, 2, 3]


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_equal_label_elements_always_comparable(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    for i in cd.nodes:
        for x, y in combinations(h.fibers[i], 2):
            assert less(h, x, y) or less(h, y, x)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_no_cover_joins_equal_labels(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    for a, b in h.covers:
        assert h.labels[a] != h.labels[b]


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_equal_label_order_already_forced_by_adjacency(family, rank, node):
    """Closing only the adjacent-label relations already orders equal
    labels, so ordering them by position adds nothing on these words."""
    cd = build_cartan(family, rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    word = h.labels
    n = len(word)
    below = [0] * n
    for j in range(n):
        m = 0
        for k in range(j):
            if cd.matrix[word[j] - 1][word[k] - 1] == -1:  # adjacency only
                m |= below[k] | (1 << k)
        below[j] = m
    assert list(below) == list(h.below)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_heap_rank_matches_join_irreducible_chain(family, rank, node):
    """Max heap rank is one less than the longest chain among the
    join-irreducible orbit weights, which realize the heap inside the
    orbit poset."""
    cd = build_cartan(family, rank)
    orb = generate_orbit(cd, fundamental_weight(cd, node))
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    irr = set(join_irreducible_indices(orb))
    assert len(irr) == len(h)
    longest = {}
    for k in sorted(irr, key=lambda k: orb.layers[k]):
        below = [j for j in irr if j != k and orb.below_masks[k] >> j & 1]
        longest[k] = 1 + max((longest[j] for j in below), default=0)
    assert max(longest.values()) - 1 == max(h.ranks)
    assert h.is_graded


def test_grids_are_graded():
    for a, b in GRIDS:
        cd = build_cartan("A", a + b - 1)
        h = build_minuscule_heap(cd, fundamental_weight(cd, a))
        assert h.is_graded
        assert max(h.ranks) == (a - 1) + (b - 1)


@pytest.mark.parametrize("family,rank,node", small_catalog())
def test_hundred_random_words_rebuild_the_same_heap(family, rank, node):
    cd = build_cartan(family, rank)
    h = build_minuscule_heap(cd, fundamental_weight(cd, node))
    rng = random.Random(12345)
    for _ in range(100):
        ext = random_linear_extension(h, rng)
        assert sorted(ext) == list(range(len(h)))
        assert all(not less(h, ext[b], ext[a]) for a in range(len(ext)) for b in range(a + 1, len(ext)))
        rebuilt = heap_from_word(cd, word_of_extension(h, ext))
        assert heaps_isomorphic(h, rebuilt) is not None
        assert sorted(rebuilt.names) == sorted(h.names)


@settings(max_examples=100)
@given(random_heap_word(with_base=True), st.integers(0, 2**32 - 1))
def test_heap_functions_agree_with_quadratic_oracles(case, seed):
    """The last-occurrence builder, the ready-mask extension and the
    cover-based isomorphism test against their quadratic references; the
    rebuild from an extension is always isomorphic, a shuffle often not."""
    cd, word, base = case
    h = heap_from_word(cd, word, base=base)
    ref, tables = quadratic_heap_from_word(cd, word, base=base)
    for field in ("labels", "covers", "base"):
        assert getattr(h, field) == getattr(ref, field)
    for field, table in tables.items():
        assert getattr(h, field) == table
    ext = random_linear_extension(h, random.Random(seed))
    assert ext == rescanning_linear_extension(h, random.Random(seed))
    rebuilt = heap_from_word(cd, word_of_extension(h, ext))
    assert heaps_isomorphic(h, rebuilt) == below_mask_isomorphic(h, rebuilt)
    assert heaps_isomorphic(h, rebuilt) is not None
    shuffled = list(word)
    random.Random(seed).shuffle(shuffled)
    other = heap_from_word(cd, tuple(shuffled))
    assert heaps_isomorphic(h, other) == below_mask_isomorphic(h, other)


@pytest.mark.parametrize(
    "n,covers,minimal",
    [
        (3, (), 0b111),  # no covers
        (3, ((0, 1), (1, 2)), 0b001),  # one chain
        (4, ((0, 2), (1, 3)), 0b0011),  # two components
        (5, ((0, 3), (1, 3), (2, 4), (3, 4)), 0b00111),  # two below one, a chain above
    ],
)
def test_minimal_mask_is_the_elements_with_nothing_below_them(n, covers, minimal):
    """On hand-built heaps, the minimal elements are those whose down-set
    is empty, and the ready mask every linear extension starts from."""
    h = Heap(build_cartan("A", 3), (1, 2, 3, 1, 2)[:n], covers)
    assert h.minimal_mask == minimal
    assert h.minimal_mask == sum(1 << p for p in range(n) if not h.below[p])
    assert {ext[0] for ext in linear_extensions(h)} == {p for p in range(n) if minimal >> p & 1}


def with_covers(h, covers):
    """h with its cover list replaced and everything else kept."""
    return Heap(h.cartan, h.labels, tuple(sorted(covers)), h.base)


def tampered_covers(h):
    """h's covers without its first one, and with the first pair a < b
    that is not a cover added, where such exist."""
    out = []
    if h.covers:
        out.append(h.covers[1:])
    extra = next(
        ((a, b) for b in range(len(h)) for a in range(b) if (a, b) not in h.covers), None
    )
    if extra is not None:
        out.append(h.covers + (extra,))
    return out


@settings(max_examples=100)
@given(random_heap_word(), st.integers(0, 2**32 - 1))
def test_word_rebuilds_agree_with_the_replay_draw_for_draw(case, seed):
    """One trial at a time, the trials and the oracle's whole-word replay
    give the same verdict and consume the same draws, on the heap and on
    copies with one cover dropped or one added."""
    cd, word = case
    h = heap_from_word(cd, word)
    for heap in [h] + [with_covers(h, covers) for covers in tampered_covers(h)]:
        rng, ref = random.Random(seed), random.Random(seed)
        verdicts = []
        for _ in range(5):
            verdicts.append(word_rebuild_failures(heap, rng, 1))
            assert verdicts[-1] == replayed_rebuild_failures(heap, ref, 1)
            assert rng.getstate() == ref.getstate()
        assert verdicts == [int(heap is not h)] * 5


def test_word_rebuilds_pass_on_the_catalog_and_fail_on_tampered_covers(catalog, bundle):
    """The trials and the own-word certificate agree: every catalog heap
    passes both, and a cover dropped or added fails every trial and is
    no heap of its own word."""
    trials = 20
    tampered_cases = 0
    for spec in catalog:
        h = bundle(spec.family, spec.rank, spec.node).heap
        assert word_rebuild_failures(h, random.Random(spec.case_id), 100) == 0, spec
        assert is_heap_of_its_word(h), spec
        for covers in tampered_covers(h):
            tampered = with_covers(h, covers)
            assert word_rebuild_failures(tampered, random.Random(spec.case_id), trials) == trials
            assert not is_heap_of_its_word(tampered), spec
            tampered_cases += 1
    # A1.1 has no cover to drop, and no pair to add to the one-element or
    # two-element chains A1.1, A2.1 and A2.2.
    assert tampered_cases == 2 * len(catalog) - 4


def with_labels_swapped(h, x, y):
    """h with the labels of elements x and y swapped and its covers kept."""
    labels = list(h.labels)
    labels[x], labels[y] = labels[y], labels[x]
    return Heap(h.cartan, tuple(labels), h.covers, h.base)


def same_count_and_draws(check, reference, heap, seed, trials):
    """Both counts agree and consume the same draws; returns the count."""
    rng, ref = random.Random(seed), random.Random(seed)
    failures = check(heap, rng, trials)
    assert failures == reference(heap, ref, trials)
    assert rng.getstate() == ref.getstate()
    return failures


@settings(max_examples=100)
@given(random_heap_word(), st.integers(0, 2**32 - 1), st.integers(20, 50), st.data())
def test_word_walks_agree_with_the_replay_over_many_trials(case, seed, trials, data):
    """With 20 to 50 trials per call, at the drawn seed and the next, the
    failure count and the draws consumed equal the whole-word replay's
    on the heap, on copies with a cover dropped or added, and on a copy
    with two labels swapped.  A copy with one cover reversed is no
    heap."""
    cd, word = case
    h = heap_from_word(cd, word)
    heaps = [h] + [with_covers(h, covers) for covers in tampered_covers(h)]
    if h.covers:
        k = data.draw(st.integers(0, len(h.covers) - 1))
        a, b = h.covers[k]
        with pytest.raises(DomainError, match=re.escape(str((b, a)))):
            with_covers(h, h.covers[:k] + h.covers[k + 1 :] + ((b, a),))
    if len(h) >= 2:
        x, y = data.draw(st.lists(st.integers(0, len(h) - 1), min_size=2, max_size=2, unique=True))
        heaps.append(with_labels_swapped(h, x, y))
    for heap in heaps:
        for s in (seed, seed + 1):
            same_count_and_draws(word_rebuild_failures, replayed_rebuild_failures, heap, s, trials)


def test_word_walks_match_the_replay_on_the_catalog(catalog, bundle):
    for spec in catalog:
        h = bundle(spec.family, spec.rank, spec.node).heap
        for seed in (1, 2):
            failures = same_count_and_draws(
                word_rebuild_failures, replayed_rebuild_failures, h, seed, 100
            )
            assert failures == 0, spec


def test_word_walks_agree_with_the_replay_on_swapped_labels():
    """Swapping two labels of a chain gives the chain of another word,
    and its names follow the new labels: the walk and the whole-word
    replay pass every trial and consume the same draws."""
    cd = build_cartan("A", 2)
    h = with_labels_swapped(heap_from_word(cd, (2, 2, 1, 1, 2, 2, 1, 1, 2)), 4, 6)
    assert h.names == heap_from_word(cd, h.labels).names
    failures = same_count_and_draws(word_rebuild_failures, replayed_rebuild_failures, h, 0, 40)
    assert failures == 0


@settings(max_examples=300)
@given(
    st.one_of(random_heap_word().map(lambda case: heap_from_word(*case)), hand_built_heaps()),
    st.integers(0, 2**32 - 1),
)
def test_the_cover_certificate_agrees_with_every_linear_extension(h, seed):
    """On heaps of words and on hand-built heaps, whose fibers need not
    be chains: h is the heap of its own word exactly when the word of
    every linear extension rebuilds h, and sampled trials fail only
    where it is not."""
    certified = is_heap_of_its_word(h)
    assert certified == every_extension_rebuilds(h)
    if word_rebuild_failures(h, random.Random(seed), 20):
        assert not certified


@pytest.mark.parametrize(
    "covers,named",
    [
        (((1, 0),), (1, 0)),  # descending
        (((0, 1), (1, 1)), (1, 1)),  # a loop
        (((0, 1), (0, 1)), (0, 1)),  # repeated
        (((1, 2), (0, 1)), (0, 1)),  # unsorted
        (((0, 1), (1, 3)), (1, 3)),  # out of range
        (((-1, 1),), (-1, 1)),  # out of range below
    ],
)
def test_heap_rejects_covers_that_do_not_ascend_in_increasing_order(covers, named):
    cd = build_cartan("A", 2)
    with pytest.raises(DomainError, match=re.escape(str(named))):
        Heap(cd, (1, 2, 1), covers)


@pytest.mark.parametrize(
    "labels,base,named",
    [
        ((0,), None, "node 0 out of range for A2"),
        ((3,), None, "node 3 out of range for A2"),
        ((True,), None, "got True"),
        (("1",), None, "got '1'"),
        ((1,), (1, 0, 5), "base weight has 3 coordinates, expected 2"),
        ((1,), (1,), "base weight has 1 coordinates, expected 2"),
    ],
)
def test_heap_rejects_labels_that_are_not_nodes_and_a_base_of_the_wrong_length(
    labels, base, named
):
    """A label must be a node of the Cartan datum, an int in 1..rank and
    never a bool, and the base weight has one coordinate per node."""
    cd = build_cartan("A", 2)
    with pytest.raises(DomainError, match=re.escape(named)):
        Heap(cd, labels, (), base)


def test_heap_rejects_the_reversed_cover_of_the_word_1_1():
    """The smallest heap on which reading a letter by its canonical name
    and by the element drawn gave different counts, before descending
    covers were rejected."""
    cd = build_cartan("A", 2)
    h = heap_from_word(cd, (1, 1))
    assert h.covers == ((0, 1),)
    with pytest.raises(DomainError, match=re.escape("(1, 0)")):
        with_covers(h, ((1, 0),))
