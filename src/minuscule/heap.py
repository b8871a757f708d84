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
O(|P| * deg) mask operations.  A linear extension of a heap is a
maximal chain of its lattice of order ideals, so
``word_rebuild_failures`` checks that random linear extensions give the
heap back as random walks up that lattice: one memo per call holds the
states the walks pass through, and the same rule's verdict on each
letter, so no ``Heap`` is built and each step is checked once.
"""

from __future__ import annotations

import random
from functools import cache, cached_property

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

    @property
    def minimal_mask(self) -> int:
        """The elements with nothing below them."""
        return sum(1 << p for p, b in enumerate(self.below) if not b)

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


def _draw(getrandbits, count: int) -> int:
    """r in range(count) as ``rng.randrange(count)`` draws it:
    ``getrandbits`` of the count's bit length, drawn again while r is out
    of range."""
    bits = count.bit_length()
    r = getrandbits(bits)
    while r >= count:
        r = getrandbits(bits)
    return r


def _take(below, upper, chosen: int, ready: int, r: int) -> tuple[int, int, int]:
    """Choose the r-th ready element p, in ascending order; return p and
    the chosen and ready masks after it.  Choosing p can make only its
    upper covers ready."""
    m = ready
    for _ in range(r):
        m &= m - 1
    low = m & -m
    p = low.bit_length() - 1
    chosen |= low
    ready ^= low
    for q in upper[p]:
        if below[q] & chosen == below[q]:
            ready |= 1 << q
    return p, chosen, ready


def random_linear_extension(h: Heap, rng: random.Random) -> tuple[int, ...]:
    """A uniform-ish random linear extension, deterministic given ``rng``.

    The ready elements (unchosen, with every lower element chosen) form a
    bit mask, and each step takes the r-th of them with r drawn as
    ``rng.randrange(#ready)`` draws it.
    """
    below, upper = h.below, h.upper_covers
    getrandbits = rng.getrandbits
    chosen, ready = 0, h.minimal_mask
    out = []
    while ready:
        r = _draw(getrandbits, ready.bit_count())
        p, chosen, ready = _take(below, upper, chosen, ready, r)
        out.append(p)
    return tuple(out)


def word_rebuild_failures(h: Heap, rng: random.Random, trials: int) -> int:
    """How many of ``trials`` random linear extensions of h read off a
    word whose heap is not h.

    Each trial is a walk up J(h) that draws as ``random_linear_extension``
    does, from state to state (chosen mask, ready mask).  Its j-th letter,
    label i, stands for h's element of the same canonical name (the t-th
    occurrence of label i is ``h.fibers[i][t - 1]``) and rests, as in
    ``_rest_on_last``, on the latest occurrence of each label in
    ``neighbours[i - 1]``.  The chosen elements with those labels name
    these occurrences, and while every earlier letter has passed, their
    down-sets are the closure of ``h.covers``.  So the verdict on a
    letter is a function of the element drawn and those chosen elements,
    computed once per call.  Each state keeps one slot per ready element,
    filled with that verdict and the next state the first time a trial
    draws it, so a walk through known states costs a draw per step.

    A trial fails at a failing step, at an element chosen twice, or when
    its walk stops before every element is chosen.  Only covers that are
    not those of h's order make a walk choose an element twice or stop
    early; with covers added or dropped, or one reversed, a walk that
    chooses an element twice still chooses them all, so its word is
    longer than h.

    Precondition: ``h.names`` are the canonical (label, occurrence) pairs
    of ``h.labels``, as in every heap ``heap_from_word`` builds.  Then a
    trial fails exactly when ``heaps_isomorphic(h, heap_from_word(cd,
    word))`` is None.  Otherwise the two can differ: the isomorphism
    matches h by name, this check by label.
    """
    n = len(h)
    below, upper, labels = h.below, h.upper_covers, h.labels
    neighbours, fibers, fiber_masks = h.cartan.neighbours, h.fibers, h.fiber_masks
    lower = [0] * n
    for a, b in h.covers:
        lower[b] |= 1 << a
    down = [0] * n  # the closure of the covers below each element
    changed = True
    while changed:  # one pass and a check when covers ascend in position
        changed = False
        for x in range(n):
            m = down[x]
            for c in iter_bits(lower[x]):
                m |= down[c] | 1 << c
            if m != down[x]:
                down[x], changed = m, True
    around = [sum(fiber_masks[k] for k in neighbours[i - 1]) for i in labels]

    @cache
    def passes(p: int, seen: int) -> bool:
        """Does the letter that p's label i reads off rest on h's lower
        covers of its element, when ``seen`` are the chosen elements with
        labels in neighbours[i - 1]?"""
        i = labels[p]
        candidates = dominated = 0
        for k in neighbours[i - 1]:
            t = (seen & fiber_masks[k]).bit_count()
            if t:
                y = fibers[k][t - 1]
                candidates |= 1 << y
                dominated |= down[y]
        return candidates & ~dominated == lower[fibers[i][(seen & fiber_masks[i]).bit_count()]]

    states: dict[tuple[int, int], list] = {}
    start = states[0, h.minimal_mask] = [None] * h.minimal_mask.bit_count()
    getrandbits = rng.getrandbits
    full = h.full_mask
    failures = 0
    for _ in range(trials):
        chosen, ready, slots, passed = 0, h.minimal_mask, start, True
        while slots:
            r = _draw(getrandbits, len(slots))
            slot = slots[r]
            if slot is None:
                p, next_chosen, next_ready = _take(below, upper, chosen, ready, r)
                ok = next_chosen != chosen and passes(p, chosen & around[p])
                following = states.get((next_chosen, next_ready))
                if following is None:
                    following = states[next_chosen, next_ready] = [None] * next_ready.bit_count()
                slot = slots[r] = ok, next_chosen, next_ready, following
            ok, chosen, ready, slots = slot
            passed = passed and ok
        failures += not passed or chosen != full
    return failures


def word_of_extension(h: Heap, extension: tuple[int, ...]) -> tuple[int, ...]:
    """Read the labels of a linear extension off as a word."""
    return tuple(h.labels[p] for p in extension)
