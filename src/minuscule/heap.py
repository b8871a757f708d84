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
the masks of the elements below and above each element, the mask of
the minimal elements, the ranks, names and fibers are derived from
these, each when first read.  The linear extensions of the heap of a
word read off exactly the words of its commutation class, and every
one of them has that heap (Cartier-Foata; Viennot's heaps of pieces;
Stembridge 1996).  So ``is_heap_of_its_word`` certifies with one
``heap_from_word`` that every linear extension of a heap rebuilds it,
which no number of random trials shows.  Conversely, a heap that one
linear extension's word rebuilds is the heap of its own word, so a heap
that is not fails every rebuild, and the certificate decides every
trial.
"""

from __future__ import annotations

import random
from functools import cached_property

from .bits import iter_bits
from .cartan import CartanDatum, Weight, _check_node
from .errors import DomainError
from .frozen import Frozen


class Heap(Frozen):
    """An immutable heap: the label of each element, a node of
    ``cartan``; the sorted (lower, upper) cover pairs; and the base
    weight, with one coordinate per node.  Every cover ascends in
    position, so positions are a linear extension of every ``Heap``;
    the below, above and minimal masks, ranks and names are derived
    from the covers and labels, each in one pass."""

    def __init__(
        self,
        cartan: CartanDatum,
        labels: tuple[int, ...],
        covers: tuple[tuple[int, int], ...],
        base: Weight | None = None,
    ) -> None:
        for i in labels:
            _check_node(cartan, i)
        if base is not None and len(base) != cartan.rank:
            raise DomainError(f"base weight has {len(base)} coordinates, expected {cartan.rank}")
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
        """The elements with nothing below them: every element but the
        upper ends of the covers, whose distinct bits sum to their OR."""
        return self.full_mask - sum({1 << b for _, b in self.covers})

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


def word_of_extension(h: Heap, extension: tuple[int, ...]) -> tuple[int, ...]:
    """Read the labels of a linear extension off as a word."""
    return tuple(h.labels[p] for p in extension)


def is_heap_of_its_word(h: Heap) -> bool:
    """Does the word of every linear extension of h build a heap that is
    label-preserving isomorphic to h?  Exactly when h is the heap of its
    own word ``h.labels``: one ``heap_from_word``, O(|P| * deg).

    Necessary: positions are a linear extension of every ``Heap``, and
    its word is ``h.labels``.  The heap of that word has the same labels
    at the same positions, so the same names, and ``heaps_isomorphic``
    can only match each position with itself, an isomorphism exactly
    when the covers agree.  Sufficient: the linear extensions of the heap
    of a word w read off exactly the words of w's commutation class, and
    each of them has the heap of w (Cartier-Foata; Viennot's heaps of
    pieces; Stembridge 1996).  Equal labels form chains in a heap of a
    word, so that label-preserving isomorphism keeps each element's name
    (i, t), and it is the one ``heaps_isomorphic`` finds.

    Conversely, if the word u of any one linear extension rebuilds h,
    then h is isomorphic to the heap of u.  Through that isomorphism,
    h's position order is a linear extension of the heap of u, and it
    reads ``h.labels``, so ``h.labels`` lies in u's commutation class and
    its heap is isomorphic to h.  Equal labels form chains in both, so
    the isomorphism keeps names: it is the identity, and the covers
    agree.  So a heap that is not the heap of its own word fails every
    rebuild.
    """
    return heap_from_word(h.cartan, h.labels).covers == h.covers

