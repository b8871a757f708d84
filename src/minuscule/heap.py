"""Labeled heaps built from words in the simple reflections.

A word (i_1, ..., i_l) yields a heap on positions 0..l-1 carrying the
node labels i_j.  Earlier position j is placed below later position k
whenever s_{i_j} and s_{i_k} fail to commute, which for a symmetric
Cartan matrix means A[i_j][i_k] != 0, and the heap order is what these
relations generate.  Equal labels fall under the same rule (A[i][i] = 2),
so elements sharing a label are totally ordered by word position, and
position order is always a linear extension.  As in Viennot's heaps of
pieces, each new letter rests on the latest earlier occurrence of its
own label and of each Dynkin neighbour, so a heap builds in
O(|P| * deg) mask operations.  ``word_rebuild_failures`` runs the same
rule on random linear extensions of a heap, to check that each gives
the heap back, without building a ``Heap`` per word.
"""

from __future__ import annotations

import random
from functools import cached_property

from .bits import iter_bits
from .cartan import CartanDatum, Weight, _check_node
from .errors import DomainError
from .frozen import Frozen


class Heap(Frozen):
    """An immutable heap; ``below``/``above`` hold strict order bit masks
    and ``covers`` the sorted (lower, upper) cover pairs."""

    def __init__(
        self,
        cartan: CartanDatum,
        labels: tuple[int, ...],
        below: tuple[int, ...],
        above: tuple[int, ...],
        covers: tuple[tuple[int, int], ...],
        ranks: tuple[int, ...],
        names: tuple[tuple[int, int], ...],
        base: Weight | None = None,
    ) -> None:
        self._set(
            cartan=cartan, labels=labels, below=below, above=above,
            covers=covers, ranks=ranks, names=names, base=base,
        )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @cached_property
    def fibers(self) -> dict[int, tuple[int, ...]]:
        """Label -> elements carrying it, in heap (= position) order."""
        out: dict[int, list[int]] = {i: [] for i in self.cartan.nodes}
        for p, i in enumerate(self.labels):
            out[i].append(p)
        return {i: tuple(ps) for i, ps in out.items()}

    @cached_property
    def fiber_masks(self) -> dict[int, int]:
        out = {}
        for i, ps in self.fibers.items():
            m = 0
            for p in ps:
                m |= 1 << p
            out[i] = m
        return out

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
) -> tuple[list[int], list[int]]:
    """Down-set masks and lower-cover masks of the letters of ``word``,
    the j-th letter standing for element ``ids[j]``; both lists and every
    mask are indexed by element.

    Each letter rests on the latest earlier occurrence of each label in
    ``neighbours[i - 1]``: at most deg + 1 candidates, and every earlier
    letter that fails to commute with it lies at or below one.  So its
    down-set is the candidates plus their down-sets, and it covers the
    candidates outside those down-sets: O(|P| * deg) in all.
    """
    last_bit = [0] * (rank + 1)  # per label, its latest occurrence as a bit
    last_below = [0] * (rank + 1)  # per label, that occurrence's down-set
    below = [0] * len(ids)
    lower = [0] * len(ids)
    for i, x in zip(word, ids):
        candidates = dominated = 0
        for k in neighbours[i - 1]:
            candidates |= last_bit[k]
            dominated |= last_below[k]
        below[x] = last_below[i] = dominated | candidates
        lower[x] = candidates & ~dominated
        last_bit[i] = 1 << x
    return below, lower


def heap_from_word(cd: CartanDatum, word: tuple[int, ...], base: Weight | None = None) -> Heap:
    """Build the heap of ``word``; ``base`` is the weight the empty ideal
    maps to.  The order comes from ``_rest_on_last`` in O(|P| * deg)."""
    for i in word:
        _check_node(cd, i)
    if base is not None and len(base) != cd.rank:
        raise DomainError(f"base weight has {len(base)} coordinates, expected {cd.rank}")
    n = len(word)
    below, lower = _rest_on_last(cd.neighbours, cd.rank, word, range(n))
    seen = [0] * (cd.rank + 1)
    ranks = [0] * n
    covers = []
    names = []
    for j, i in enumerate(word):
        rank = 0
        for c in iter_bits(lower[j]):
            covers.append((c, j))
            if ranks[c] >= rank:
                rank = ranks[c] + 1
        ranks[j] = rank
        seen[i] += 1
        names.append((i, seen[i]))
    covers.sort()
    above = [0] * n
    # Descending lower ends: above[j] is complete before any c < j reads it.
    for c, j in reversed(covers):
        above[c] |= above[j] | 1 << j
    fields = (tuple(word), tuple(below), tuple(above), tuple(covers), tuple(ranks), tuple(names))
    return Heap(cd, *fields, tuple(base) if base is not None else None)


def heaps_isomorphic(h1: Heap, h2: Heap) -> tuple[int, ...] | None:
    """The unique label-preserving order isomorphism h1 -> h2, or None.

    Any such isomorphism must send the j-th smallest element of each
    label fiber to its counterpart, so matching canonical names is the
    only candidate.  An order is the transitive closure of its covers, so
    the candidate is an isomorphism exactly when it maps the covers of h1
    onto those of h2.
    """
    if len(h1) != len(h2) or sorted(h1.labels) != sorted(h2.labels):
        return None
    position = {name: p for p, name in enumerate(h2.names)}
    sigma = [position[name] for name in h1.names]
    if sorted((sigma[a], sigma[b]) for a, b in h1.covers) != list(h2.covers):
        return None
    return tuple(sigma)


def random_linear_extension(h: Heap, rng: random.Random) -> tuple[int, ...]:
    """A uniform-ish random linear extension, deterministic given ``rng``.

    The ready elements (unchosen, with every lower element chosen) form a
    bit mask, and choosing p can make only its upper covers ready.  Each
    step takes the r-th ready element, with r drawn as
    ``rng.randrange(#ready)`` draws it: ``getrandbits`` of the count's bit
    length, drawn again while r is out of range.
    """
    below = h.below
    upper = h.upper_covers
    getrandbits = rng.getrandbits
    chosen = 0
    ready = sum(1 << p for p in range(len(h)) if not below[p])
    out = []
    while ready:
        count = ready.bit_count()
        bits = count.bit_length()
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)
        m = ready
        for _ in range(r):
            m &= m - 1
        low = m & -m
        p = low.bit_length() - 1
        out.append(p)
        chosen |= low
        ready ^= low
        for q in upper[p]:
            if below[q] & chosen == below[q]:
                ready |= 1 << q
    return tuple(out)


def word_rebuild_failures(h: Heap, rng: random.Random, trials: int) -> int:
    """How many of ``trials`` random linear extensions of h read off a
    word whose heap is not h.

    A trial fails exactly when ``heaps_isomorphic(h, heap_from_word(cd,
    word))`` is None, but builds no heap.  The j-th letter stands for h's
    element of the same canonical name (the t-th occurrence of label i is
    ``h.fibers[i][t - 1]``), so ``_rest_on_last`` gives the word's lower
    covers already mapped into h, and the word passes when they equal
    h's, element by element.  ``h.covers`` lists each cover once, so equal
    lower-cover masks mean equal covers.
    """
    n = len(h)
    neighbours, rank = h.cartan.neighbours, h.cartan.rank
    labels = h.labels
    fibers = [()] * (rank + 1)
    for i, fiber in h.fibers.items():
        fibers[i] = fiber
    lower_masks = [0] * n
    for a, b in h.covers:
        lower_masks[b] |= 1 << a
    failures = 0
    for _ in range(trials):
        word = [labels[p] for p in random_linear_extension(h, rng)]
        taken = [0] * (rank + 1)
        names = []
        try:
            for i in word:
                names.append(fibers[i][taken[i]])
                taken[i] += 1
        except IndexError:  # label i occurs more often than in h
            failures += 1
            continue
        if len(word) != n or _rest_on_last(neighbours, rank, word, names)[1] != lower_masks:
            failures += 1
    return failures


def word_of_extension(h: Heap, extension: tuple[int, ...]) -> tuple[int, ...]:
    """Read the labels of a linear extension off as a word."""
    return tuple(h.labels[p] for p in extension)
