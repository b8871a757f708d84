"""Order ideals of a heap: enumeration, toggles, and dynamics.

Ideals are bit masks over heap elements.  The lattice enumerator walks
the cover graph upward from the empty ideal one cardinality at a time,
so the indexing (by cardinality, then by mask value) is deterministic
and ideal indices are stable across runs.  When the heap carries a
base weight, every ideal also gets the weight obtained by applying the
reflections of any linear extension of the ideal to the base.

The covers ``(lo, hi, p)`` are the one toggle incidence: p can be
inserted at lo and deleted at hi.  The toggle masks here, and toggle
symmetry, the polytope rows and the dual witness in ``cde``, all read
the covers labelled p.  The rowmotion and gyration permutations, and
the commutation check and identity suite in ``stats``, read the toggle
masks; ``rowmotion``, ``gyration`` and ``toggle_label`` act on one ideal
at a time.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from .bits import iter_bits
from .cartan import Weight, _check_node, _reflect
from .errors import DomainError, InternalCheckError, ResourceLimitError
from .frozen import Frozen
from .heap import Heap

DEFAULT_IDEAL_CAP = 10**6


def addable_elements(h: Heap, mask: int) -> list[int]:
    """Elements whose insertion keeps ``mask`` an ideal; equivalently the
    minimal elements of the complement."""
    return [
        p
        for p in range(len(h))
        if not mask >> p & 1 and h.below[p] & mask == h.below[p]
    ]


def toggle(h: Heap, mask: int, p: int) -> int:
    """Symmetric difference with {p} when that is an ideal, else ``mask``."""
    bit = 1 << p
    if mask & bit:
        return mask ^ bit if h.above[p] & mask == 0 else mask
    return mask | bit if h.below[p] & mask == h.below[p] else mask


def toggle_label(h: Heap, mask: int, i: int) -> int:
    """Toggle every element of the label fiber, in ascending heap order.
    The order does not matter exactly when no two fiber elements form a
    cover, as in every heap of a reduced word, so in every minuscule heap.
    In the heap of the word (1, 1) the two elements form a cover, and the
    descending order gives another ideal."""
    _check_node(h.cartan, i)
    for p in h.fibers[i]:
        mask = toggle(h, mask, p)
    return mask


class IdealLattice(Frozen):
    """All order ideals of a heap, with cover edges ``(lo, hi, element)``."""

    def __init__(
        self,
        heap: Heap,
        ideals: tuple[int, ...],
        covers: tuple[tuple[int, int, int], ...],
        weights: tuple[Weight, ...] | None,
    ) -> None:
        self._set(heap=heap, ideals=ideals, covers=covers, weights=weights)

    @cached_property
    def index(self) -> dict[int, int]:
        return {m: k for k, m in enumerate(self.ideals)}

    def __len__(self) -> int:
        return len(self.ideals)

    @cached_property
    def toggle_masks(self) -> tuple[tuple[int, int], ...]:
        """Per ideal, the bit masks ``(adds, removes)`` of the elements
        that toggle into it and out of it, from one pass over the covers:
        (lo, hi, p) puts p in lo's adds and in hi's removes."""
        n = len(self.ideals)
        adds, removes = [0] * n, [0] * n
        for lo, hi, p in self.covers:
            adds[lo] |= 1 << p
            removes[hi] |= 1 << p
        return tuple(zip(adds, removes))

    @cached_property
    def down_degrees(self) -> tuple[int, ...]:
        """Number of lattice elements covered by each ideal; equals the
        count of its maximal elements."""
        return tuple(removes.bit_count() for _, removes in self.toggle_masks)


def enumerate_ideals(h: Heap, cap: int = DEFAULT_IDEAL_CAP) -> IdealLattice:
    """Enumerate J(P) by walking up the cover graph from the empty ideal,
    one cardinality at a time.

    Each ideal m keeps its ready mask, the elements that can be inserted
    into it.  Inserting p can make only an upper cover q of p ready, and
    q is ready in m | p when its down-set lies in m | p, so the ready
    mask of m | p is that of m without p plus those q: O(deg) per cover.
    A level sorted by mask value, and walked in that order with each
    ready mask in ascending elements, lists the ideals and the covers in
    their final order directly.
    """
    below = h.below
    uppers = tuple(tuple((1 << q, below[q]) for q in qs) for qs in h.upper_covers)
    labels = h.labels
    cd = h.cartan
    ready = [h.minimal_mask]
    ideals = [0]
    weights = [h.base]
    covers = []
    done = 0
    while done < len(ideals):
        fresh = {}  # mask of each new ideal -> (its ready mask, its weight)
        pending = []  # covers (lo, hi mask, p)
        for lo in range(done, len(ideals)):
            m = ideals[lo]
            r = ready[lo]
            rest = r
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                nm = m | bit
                pending.append((lo, nm, p))
                if nm not in fresh:
                    if len(ideals) + len(fresh) >= cap:
                        raise ResourceLimitError(f"ideal count exceeds cap of {cap}")
                    nr = r ^ bit
                    for qbit, qbelow in uppers[p]:
                        if qbelow & nm == qbelow:
                            nr |= qbit
                    w = None if h.base is None else _reflect(cd, labels[p], weights[lo])
                    fresh[nm] = nr, w
        done = len(ideals)
        level = sorted(fresh)
        position = {nm: done + j for j, nm in enumerate(level)}
        covers += [(lo, position[nm], p) for lo, nm, p in pending]
        ideals += level
        for nm in level:
            nr, w = fresh[nm]
            ready.append(nr)
            weights.append(w)
    return IdealLattice(h, tuple(ideals), tuple(covers), None if h.base is None else tuple(weights))


def rowmotion(h: Heap, mask: int) -> int:
    """The ideal generated by the minimal elements of the complement."""
    out = 0
    for p in addable_elements(h, mask):
        out |= h.below[p] | (1 << p)
    return out


def gyration(h: Heap, mask: int, even_first: bool = True) -> int:
    """Toggle all even-rank elements, then all odd-rank ones.

    Within a parity class no two elements form a cover (the heap is
    graded), so the toggles commute and the phase is order-free.  The
    ``even_first`` flag swaps the two phases.
    """
    if not h.is_graded:
        raise DomainError("gyration needs a graded heap")
    phases = (0, 1) if even_first else (1, 0)
    for parity in phases:
        for p in range(len(h)):
            if h.ranks[p] % 2 == parity:
                mask = toggle(h, mask, p)
    return mask


def rowmotion_images(lattice: IdealLattice) -> list[int]:
    """``rowmotion`` of every ideal, in index order: the union of the
    closed down-sets of the addable elements, read off the toggle masks."""
    closed = [b | 1 << p for p, b in enumerate(lattice.heap.below)]
    images = []
    for adds, _ in lattice.toggle_masks:
        image = 0
        for p in iter_bits(adds):
            image |= closed[p]
        images.append(image)
    return images


def gyration_images(lattice: IdealLattice) -> list[int]:
    """``gyration`` of every ideal, in index order.  The even-rank
    elements that toggle are those of adds | removes, so one phase is
    I ^ ((adds | removes) & even); the odd phase does the same on the
    toggle masks of the result."""
    h = lattice.heap
    if not h.is_graded:
        raise DomainError("gyration needs a graded heap")
    even = sum(1 << p for p, r in enumerate(h.ranks) if r % 2 == 0)
    odd = h.full_mask ^ even
    flips = [adds | removes for adds, removes in lattice.toggle_masks]
    index = lattice.index
    images = []
    for m, f in zip(lattice.ideals, flips):
        half = m ^ (f & even)
        k = index.get(half)
        if k is None:
            raise InternalCheckError("action left the ideal lattice")
        images.append(half ^ (flips[k] & odd))
    return images


def action_orbits(
    lattice: IdealLattice, step: Callable[[Heap, int], int]
) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of a bijection on the lattice; ``step`` maps
    (heap, ideal mask) to an ideal mask.  See ``image_orbits``."""
    h = lattice.heap
    return image_orbits(lattice, [step(h, m) for m in lattice.ideals])


def image_orbits(lattice: IdealLattice, images: list[int]) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of the map sending the k-th ideal to the ideal
    mask ``images[k]``.

    Orbits are listed by smallest member, each starting from that member.
    A non-bijective map raises InternalCheckError.
    """
    perm = []
    for m in images:
        image = lattice.index.get(m)
        if image is None:
            raise InternalCheckError("action left the ideal lattice")
        perm.append(image)
    if sorted(perm) != list(range(len(perm))):
        raise InternalCheckError("action is not a bijection on ideals")

    orbits = []
    visited = [False] * len(perm)
    for start in range(len(perm)):
        if visited[start]:
            continue
        cycle = []
        k = start
        while not visited[k]:
            visited[k] = True
            cycle.append(k)
            k = perm[k]
        orbits.append(tuple(cycle))
    return tuple(orbits)
