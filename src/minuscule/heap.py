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
O(|P| * deg) mask operations.
"""

from __future__ import annotations

import random
from functools import cached_property

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

    def less(self, x: int, y: int) -> bool:
        return bool(self.below[y] >> x & 1)

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


def heap_from_word(cd: CartanDatum, word: tuple[int, ...], base: Weight | None = None) -> Heap:
    """Build the heap of ``word``; ``base`` is the weight the empty ideal maps to.

    Position j rests on the latest earlier occurrence of each label in
    ``cd.neighbours[i_j - 1]``: at most deg + 1 candidates, and every
    earlier position that fails to commute with j lies at or below one.
    So ``below[j]`` is their down-sets plus the candidates, j covers the
    candidates outside those down-sets, and the build is O(|P| * deg).
    """
    for i in word:
        _check_node(cd, i)
    if base is not None and len(base) != cd.rank:
        raise DomainError(f"base weight has {len(base)} coordinates, expected {cd.rank}")
    n = len(word)
    neighbours = cd.neighbours
    last = [-1] * (cd.rank + 1)
    seen = [0] * (cd.rank + 1)
    below = [0] * n
    ranks = [0] * n
    covers = []
    names = []
    for j, i in enumerate(word):
        candidates = []
        dominated = 0
        for k in neighbours[i - 1]:
            c = last[k]
            if c >= 0:
                candidates.append(c)
                dominated |= below[c]
        mask = dominated
        rank = 0
        for c in candidates:
            mask |= 1 << c
            if not dominated >> c & 1:
                covers.append((c, j))
                if ranks[c] >= rank:
                    rank = ranks[c] + 1
        below[j] = mask
        ranks[j] = rank
        last[i] = j
        seen[i] += 1
        names.append((i, seen[i]))
    covers.sort()
    above = [0] * n
    # Descending lower ends: above[j] is complete before any c < j reads it.
    for c, j in reversed(covers):
        above[c] |= above[j] | 1 << j
    fields = (tuple(word), tuple(below), tuple(above), tuple(covers), tuple(ranks), tuple(names))
    return Heap(cd, *fields, tuple(base) if base is not None else None)


def label_fiber(h: Heap, i: int) -> tuple[int, ...]:
    """Elements labeled ``i`` in heap order (the fiber is totally ordered)."""
    _check_node(h.cartan, i)
    return h.fibers[i]


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
    step takes the r-th ready element, r = ``rng.randrange(#ready)``.
    """
    below = h.below
    upper = h.upper_covers
    chosen = 0
    ready = sum(1 << p for p in range(len(h)) if not below[p])
    out = []
    while ready:
        m = ready
        for _ in range(rng.randrange(m.bit_count())):
            m &= m - 1
        p = (m & -m).bit_length() - 1
        out.append(p)
        chosen |= 1 << p
        ready ^= 1 << p
        for q in upper[p]:
            if below[q] & chosen == below[q]:
                ready |= 1 << q
    return tuple(out)


def word_of_extension(h: Heap, extension: tuple[int, ...]) -> tuple[int, ...]:
    """Read the labels of a linear extension off as a word."""
    return tuple(h.labels[p] for p in extension)
