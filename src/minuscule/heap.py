"""Labeled heaps built from words in the simple reflections.

A word (i_1, ..., i_l) yields a heap on positions 0..l-1 carrying the
node labels i_j.  Earlier position j is placed below later position k
whenever s_{i_j} and s_{i_k} fail to commute, which for a symmetric
Cartan matrix means A[i_j][i_k] != 0; the heap order is the transitive
closure of those relations.  Equal labels fall under the same rule
(A[i][i] = 2), so elements sharing a label are totally ordered by word
position.  Position order is therefore always a linear extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .bits import iter_bits
from .cartan import CartanDatum, Weight, _check_node
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class Heap:
    """An immutable heap; ``below``/``above`` hold strict order bit masks."""

    cartan: CartanDatum
    labels: tuple[int, ...]
    below: tuple[int, ...]
    above: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    ranks: tuple[int, ...]
    names: tuple[tuple[int, int], ...]
    base: Weight | None = None

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
    def is_graded(self) -> bool:
        return all(self.ranks[b] == self.ranks[a] + 1 for a, b in self.covers)


def heap_from_word(cd: CartanDatum, word: tuple[int, ...], base: Weight | None = None) -> Heap:
    """Build the heap of ``word``; ``base`` is the weight the empty ideal maps to."""
    for i in word:
        _check_node(cd, i)
    if base is not None and len(base) != cd.rank:
        raise DomainError(f"base weight has {len(base)} coordinates, expected {cd.rank}")
    n = len(word)
    matrix = cd.matrix
    below = [0] * n
    for j in range(n):
        row = matrix[word[j] - 1]
        m = 0
        for k in range(j):
            if row[word[k] - 1] != 0:
                m |= below[k] | (1 << k)
        below[j] = m
    above = [0] * n
    for j, mask in enumerate(below):
        for k in iter_bits(mask):
            above[k] |= 1 << j

    covers = []
    for j in range(n):
        for k in iter_bits(below[j]):
            if above[k] & below[j] == 0:
                covers.append((k, j))

    ranks = [0] * n
    for j in range(n):
        ranks[j] = 1 + max((ranks[k] for k in iter_bits(below[j])), default=-1)

    seen: dict[int, int] = {}
    names = []
    for i in word:
        seen[i] = seen.get(i, 0) + 1
        names.append((i, seen[i]))

    return Heap(
        cd,
        tuple(word),
        tuple(below),
        tuple(above),
        tuple(sorted(covers)),
        tuple(ranks),
        tuple(names),
        tuple(base) if base is not None else None,
    )


def label_fiber(h: Heap, i: int) -> tuple[int, ...]:
    """Elements labeled ``i`` in heap order (the fiber is totally ordered)."""
    _check_node(h.cartan, i)
    return h.fibers[i]


def heaps_isomorphic(h1: Heap, h2: Heap) -> tuple[int, ...] | None:
    """The unique label-preserving order isomorphism h1 -> h2, or None.

    Any such isomorphism must send the j-th smallest element of each
    label fiber to its counterpart, so matching canonical names is the
    only candidate; it remains to check it preserves the order both ways.
    """
    if len(h1) != len(h2) or sorted(h1.labels) != sorted(h2.labels):
        return None
    position = {name: p for p, name in enumerate(h2.names)}
    sigma = [position[name] for name in h1.names]
    for x in range(len(h1)):
        mapped = 0
        for k in iter_bits(h1.below[x]):
            mapped |= 1 << sigma[k]
        if mapped != h2.below[sigma[x]]:
            return None
    return tuple(sigma)


def random_linear_extension(h: Heap, rng: random.Random) -> tuple[int, ...]:
    """A uniform-ish random linear extension, deterministic given ``rng``."""
    n = len(h)
    chosen = 0
    out = []
    for _ in range(n):
        ready = [p for p in range(n) if not chosen >> p & 1 and h.below[p] & ~chosen == 0]
        p = ready[rng.randrange(len(ready))]
        out.append(p)
        chosen |= 1 << p
    return tuple(out)


def word_of_extension(h: Heap, extension: tuple[int, ...]) -> tuple[int, ...]:
    """Read the labels of a linear extension off as a word."""
    return tuple(h.labels[p] for p in extension)
