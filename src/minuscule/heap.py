"""Labeled heaps built from words in the simple reflections.

A word (i_1, ..., i_l) yields a heap on positions 0..l-1 carrying the
node labels i_j.  Earlier position j is placed below later position k
whenever s_{i_j} and s_{i_k} fail to commute, which for a symmetric
Cartan matrix means A[i_j][i_k] != 0, and the heap order is what these
relations generate.  Equal labels fall under the same rule (A[i][i] = 2),
so elements sharing a label are totally ordered by word position.  As in
Viennot's heaps of pieces, each new letter rests on the latest earlier
occurrence of its own label and of each Dynkin neighbour, so a heap
builds in O(|P| * deg) mask operations.

A ``Heap`` is its labels and its covers, and every cover ascends in
position, so position order is a linear extension of every ``Heap``;
the order masks, ranks and names are derived from these.  A linear
extension of a heap is a maximal chain of its lattice of order ideals,
and whether the word read off it gives the heap back is decided letter
by letter by one rule, ``_letter_rule``, whose verdict on a letter
depends only on the cover of J(P) it takes.  ``failing_cover_letters``
applies it once per cover of a given J(P): when no cover fails, every
linear extension rebuilds the heap, which no number of random trials
shows.  ``word_rebuild_failures`` applies it to the letters of seeded
``random_linear_extension`` draws.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import cache, cached_property
from typing import TYPE_CHECKING

from .bits import iter_bits
from .cartan import CartanDatum, Weight, _check_node
from .errors import DomainError
from .frozen import Frozen

if TYPE_CHECKING:
    from .ideals import IdealLattice


class Heap(Frozen):
    """An immutable heap: the label of each element, the sorted
    (lower, upper) cover pairs and the base weight.  Every cover ascends
    in position, so positions are a linear extension of every ``Heap``;
    the order masks, ranks and names are derived from the covers and
    labels, each in one pass."""

    def __init__(
        self,
        cartan: CartanDatum,
        labels: tuple[int, ...],
        covers: tuple[tuple[int, int], ...],
        base: Weight | None = None,
    ) -> None:
        previous = (-1, -1)
        for cover in covers:
            a, b = cover
            if not (0 <= a < b < len(labels) and cover > previous):
                raise DomainError(
                    f"heap cover {cover} breaks the rule that covers strictly increase"
                    f" and each (a, b) has 0 <= a < b < {len(labels)}"
                )
            previous = cover
        self._set(cartan=cartan, labels=labels, covers=covers, base=base)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @cached_property
    def lower(self) -> tuple[int, ...]:
        """Element -> the mask of the elements it covers."""
        out = [0] * len(self.labels)
        for a, b in self.covers:
            out[b] |= 1 << a
        return tuple(out)

    @cached_property
    def below(self) -> tuple[int, ...]:
        """Element -> the mask of the elements strictly below it.  Covers
        sorted by lower end: below[a] is complete before (a, b) reads it."""
        out = [0] * len(self.labels)
        for a, b in self.covers:
            out[b] |= out[a] | 1 << a
        return tuple(out)

    @cached_property
    def above(self) -> tuple[int, ...]:
        """Element -> the mask of the elements strictly above it, from
        the covers in descending order."""
        out = [0] * len(self.labels)
        for a, b in reversed(self.covers):
            out[a] |= out[b] | 1 << b
        return tuple(out)

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Element -> the length of the longest chain ending at it."""
        out = [0] * len(self.labels)
        for a, b in self.covers:
            if out[a] >= out[b]:
                out[b] = out[a] + 1
        return tuple(out)

    @cached_property
    def names(self) -> tuple[tuple[int, int], ...]:
        """Element -> its canonical name (label i, t): the t-th element
        of label i in position order."""
        out = [None] * len(self.labels)
        for i, ps in self.fibers.items():
            for t, p in enumerate(ps, start=1):
                out[p] = (i, t)
        return tuple(out)

    @cached_property
    def minimal_mask(self) -> int:
        """The elements with nothing below them."""
        return sum(1 << p for p, m in enumerate(self.lower) if not m)

    @cached_property
    def fibers(self) -> dict[int, tuple[int, ...]]:
        """Label -> elements carrying it, in position order."""
        out: dict[int, list[int]] = {i: [] for i in self.cartan.nodes}
        for p, i in enumerate(self.labels):
            out[i].append(p)
        return {i: tuple(ps) for i, ps in out.items()}

    @cached_property
    def fiber_masks(self) -> dict[int, int]:
        return {i: sum(1 << p for p in ps) for i, ps in self.fibers.items()}

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        """Element -> the elements covering it, in increasing order."""
        out: list[list[int]] = [[] for _ in self.labels]
        for a, b in self.covers:
            out[a].append(b)
        return tuple(map(tuple, out))

    @cached_property
    def is_graded(self) -> bool:
        return all(self.ranks[b] == self.ranks[a] + 1 for a, b in self.covers)


def _rest_on_last(
    neighbours: tuple[tuple[int, ...], ...], rank: int, word, ids
) -> list[int]:
    """Lower-cover masks of the letters of ``word``, the j-th letter
    standing for element ``ids[j]``; the list and every mask are indexed
    by element.

    Each letter rests on the latest earlier occurrence of each label in
    ``neighbours[i - 1]``: at most deg + 1 candidates, and every earlier
    letter that fails to commute with it lies at or below one.  So its
    down-set is the candidates plus their down-sets, and it covers the
    candidates outside those down-sets: O(|P| * deg) in all.
    """
    last_bit = [0] * (rank + 1)  # per label, its latest occurrence as a bit
    last_below = [0] * (rank + 1)  # per label, that occurrence's down-set
    lower = [0] * len(ids)
    for i, x in zip(word, ids):
        candidates = dominated = 0
        for k in neighbours[i - 1]:
            candidates |= last_bit[k]
            dominated |= last_below[k]
        last_below[i] = dominated | candidates
        lower[x] = candidates & ~dominated
        last_bit[i] = 1 << x
    return lower


def heap_from_word(cd: CartanDatum, word: tuple[int, ...], base: Weight | None = None) -> Heap:
    """Build the heap of ``word``; ``base`` is the weight the empty ideal
    maps to.  The covers come from ``_rest_on_last`` in O(|P| * deg)."""
    for i in word:
        _check_node(cd, i)
    if base is not None and len(base) != cd.rank:
        raise DomainError(f"base weight has {len(base)} coordinates, expected {cd.rank}")
    lower = _rest_on_last(cd.neighbours, cd.rank, word, range(len(word)))
    covers = sorted((c, j) for j, m in enumerate(lower) for c in iter_bits(m))
    return Heap(cd, tuple(word), tuple(covers), tuple(base) if base is not None else None)


def heaps_isomorphic(h1: Heap, h2: Heap) -> tuple[int, ...] | None:
    """The unique label-preserving order isomorphism h1 -> h2, or None.

    Positions are a linear extension of every ``Heap``, so where the
    elements of a label form a chain, as in every heap of a word, the
    j-th smallest of them is the j-th in position, the one named (label,
    j).  Any such isomorphism must send it to its counterpart, so
    matching names is the only candidate.  An order is the transitive
    closure of its covers, so the candidate is an isomorphism exactly
    when it maps the covers of h1 onto those of h2.
    """
    if len(h1) != len(h2) or sorted(h1.labels) != sorted(h2.labels):
        return None
    position = {name: p for p, name in enumerate(h2.names)}
    sigma = [position[name] for name in h1.names]
    if sorted((sigma[a], sigma[b]) for a, b in h1.covers) != list(h2.covers):
        return None
    return tuple(sigma)


def ready_after(h: Heap, ready: int, p: int, chosen: int) -> int:
    """The ready mask (the unchosen elements whose down-set is chosen)
    once p, an element of ``ready``, is chosen; ``chosen`` includes p.
    Choosing p can make only its upper covers ready: O(deg)."""
    below = h.below
    ready ^= 1 << p
    for q in h.upper_covers[p]:
        if below[q] & chosen == below[q]:
            ready |= 1 << q
    return ready


def random_linear_extension(h: Heap, rng: random.Random) -> tuple[int, ...]:
    """A uniform-ish random linear extension, deterministic given ``rng``.

    The ready elements (unchosen, with every lower element chosen) form a
    bit mask, and each step takes the r-th of them in ascending order, r
    drawn by ``rng.randrange(#ready)``; ``ready_after`` updates the mask.
    """
    chosen, ready = 0, h.minimal_mask
    out = []
    while ready:
        m = ready
        for _ in range(rng.randrange(ready.bit_count())):
            m &= m - 1
        p = (m & -m).bit_length() - 1
        chosen |= 1 << p
        ready = ready_after(h, ready, p, chosen)
        out.append(p)
    return tuple(out)


def _letter_rule(h: Heap) -> tuple[list[int], Callable[[int, int], bool]]:
    """The verdict on one letter of a word read off a walk up J(h), as
    ``around`` and ``passes``: the letter of element p, label i, taken
    when ``chosen`` are the elements chosen before it, passes exactly
    when ``passes(p, chosen & around[p])``.

    The letter rests as in ``_rest_on_last`` on the latest occurrence of
    each label in ``neighbours[i - 1]``, read as the highest chosen
    element of that label, and passes when the elements it covers are
    h's lower covers of p.  So the verdict is a function of p and the
    chosen elements whose labels are in ``around[p]``, cached per pair.
    """
    below, lower, labels = h.below, h.lower, h.labels
    neighbours, fiber_masks = h.cartan.neighbours, h.fiber_masks
    around = [sum(fiber_masks[k] for k in neighbours[i - 1]) for i in labels]

    @cache
    def passes(p: int, seen: int) -> bool:
        candidates = dominated = 0
        for k in neighbours[labels[p] - 1]:
            last = seen & fiber_masks[k]
            if last:
                y = last.bit_length() - 1
                candidates |= 1 << y
                dominated |= below[y]
        return candidates & ~dominated == lower[p]

    return around, passes


def word_rebuild_failures(h: Heap, rng: random.Random, trials: int) -> int:
    """How many of ``trials`` random linear extensions of h read off a
    word whose heap is not h.

    Each trial draws a ``random_linear_extension`` and judges its letters
    in order by ``_letter_rule``, each with the elements before it
    chosen; it fails at its first failing letter.

    A trial fails exactly when ``heaps_isomorphic(h, heap_from_word(cd,
    word))`` is None.  While an extension takes the elements of each
    label in position order, p is the element its letter is named for and
    the highest chosen element of a label is that label's latest
    occurrence, so each verdict is the word's own.  An extension that
    takes some x after a higher y of its label fails at x, since the
    highest candidate lies above x in position, where no cover of x
    reaches; and the heap of its word, whose equal labels form chains, is
    not h.
    """
    around, passes = _letter_rule(h)
    failures = 0
    for _ in range(trials):
        chosen = 0
        for p in random_linear_extension(h, rng):
            if not passes(p, chosen & around[p]):
                failures += 1
                break
            chosen |= 1 << p
    return failures


def failing_cover_letters(lattice: IdealLattice) -> int:
    """How many covers (lo, hi, p) of ``lattice``, which is J(h) for
    h = ``lattice.heap``, take a letter that fails ``_letter_rule``: the
    letter of p with ideal lo chosen before it.

    Every linear extension of h is a maximal chain of J(h), and each of
    its steps is a cover, so the count is 0 exactly when every linear
    extension of h reads off a word whose heap is h; a failing cover
    lies on some maximal chain, whose word then fails.  So a count of 0
    certifies what ``word_rebuild_failures`` samples, in one cached
    verdict per cover.
    """
    around, passes = _letter_rule(lattice.heap)
    ideals = lattice.ideals
    return sum(not passes(p, ideals[lo] & around[p]) for lo, _, p in lattice.covers)


def word_of_extension(h: Heap, extension: tuple[int, ...]) -> tuple[int, ...]:
    """Read the labels of a linear extension off as a word."""
    return tuple(h.labels[p] for p in extension)
