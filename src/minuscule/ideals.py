"""Order ideals of a heap: enumeration, toggles, and dynamics.

Ideals are bit masks over heap elements.  The lattice enumerator walks
the cover graph upward from the empty ideal, recording its edges, and
then freezes a deterministic indexing (by cardinality, then by mask
value), so ideal indices are stable across runs.  When the heap carries
a base weight, every ideal also gets the weight obtained by applying
the reflections of any linear extension of the ideal to the base.

The covers ``(lo, hi, p)`` are the one toggle incidence: p can be
inserted at lo and deleted at hi.  The toggle masks here, and toggle
symmetry, the polytope rows and the dual witness in ``cde``, all read
the covers labelled p.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

from .bits import iter_bits
from .cartan import Weight, _check_node, simple_reflection
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
    """Toggle every element of the label fiber; the fiber contains no
    covers, so the order does not matter."""
    _check_node(h.cartan, i)
    for p in h.fibers[i]:
        mask = toggle(h, mask, p)
    return mask


def ideal_weight(h: Heap, mask: int) -> Weight:
    """Weight of an ideal: fold the reflections of a linear extension
    over the base weight.  Ascending positions are such an extension."""
    if h.base is None:
        raise DomainError("heap carries no base weight")
    w = h.base
    cd = h.cartan
    for p in iter_bits(mask):
        w = simple_reflection(cd, h.labels[p], w)
    return w


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
    """Enumerate J(P) by walking up the cover graph from the empty ideal."""
    weights: dict[int, Weight] | None = {0: h.base} if h.base is not None else None
    seen = {0}
    queue = deque([0])
    edges = []
    while queue:
        m = queue.popleft()
        for p in addable_elements(h, m):
            nm = m | (1 << p)
            edges.append((m, nm, p))
            if nm not in seen:
                if len(seen) >= cap:
                    raise ResourceLimitError(f"ideal count exceeds cap of {cap}")
                seen.add(nm)
                if weights is not None:
                    weights[nm] = simple_reflection(h.cartan, h.labels[p], weights[m])
                queue.append(nm)

    masks = sorted(seen, key=lambda m: (m.bit_count(), m))
    index = {m: k for k, m in enumerate(masks)}
    # By lower ideal, then element: a larger element gives a larger upper mask.
    covers = sorted((index[m], index[nm], p) for m, nm, p in edges)
    frozen_weights = tuple(weights[m] for m in masks) if weights is not None else None
    return IdealLattice(h, tuple(masks), tuple(covers), frozen_weights)


class CommutationReport(NamedTuple):
    """Exhaustive check that label toggles match simple reflections
    through the ideal-to-weight map."""

    instances: int
    violations: tuple[tuple[int, int], ...]  # (ideal index, node)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_commutation(lattice: IdealLattice) -> CommutationReport:
    h = lattice.heap
    if lattice.weights is None:
        raise DomainError("lattice carries no weights; build the heap with a base weight")
    cd = h.cartan
    violations = []
    for k, mask in enumerate(lattice.ideals):
        w = lattice.weights[k]
        for i in cd.nodes:
            toggled = lattice.index[toggle_label(h, mask, i)]
            if lattice.weights[toggled] != simple_reflection(cd, i, w):
                violations.append((k, i))
    return CommutationReport(len(lattice) * cd.rank, tuple(violations))


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


def action_orbits(
    lattice: IdealLattice, step: Callable[[Heap, int], int]
) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of a bijection on the lattice.

    ``step`` maps (heap, ideal mask) to an ideal mask.  Orbits are listed
    by smallest member, each starting from that member.  A non-bijective
    map raises InternalCheckError.
    """
    h = lattice.heap
    perm = []
    for m in lattice.ideals:
        image = lattice.index.get(step(h, m))
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
