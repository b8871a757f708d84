"""Order ideals of a heap: enumeration, toggles, and dynamics.

Ideals are bit masks over heap elements.  The lattice enumerator walks
the cover graph upward from the empty ideal one cardinality at a time,
so the indexing (by cardinality, then by mask value) is deterministic
and ideal indices are stable across runs.  When the heap carries a
base weight, every ideal also gets the weight obtained by applying the
reflections of any linear extension of the ideal to the base.

An ``IdealLattice`` is checked once, at construction, to be exactly
J(P) with each cover listed once, so its consumers need no guard of
their own: a toggle of J(P) always lands in J(P).  The covers
``(lo, hi, p)`` are the one toggle incidence: p can be inserted at lo
and deleted at hi.  The toggle masks here, and toggle symmetry, the
polytope rows and the dual witness in ``cde``, all read the covers
labelled p.  The ``removes`` mask of an ideal is its maximal elements,
which fix it, and the ``adds`` mask is the minimal elements of its
complement; so the rowmotion permutation is this antichain bijection
read at each ``adds`` mask.  The gyration permutation, and the
commutation check and identity suite in ``stats``, read the toggle
masks too; ``rowmotion``, ``gyration`` and ``toggle_label`` act on one
ideal at a time.  ``image_orbits`` still checks the images it is given,
which may be any masks.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from .cartan import Weight, _check_node, _reflect
from .errors import DomainError, InternalCheckError, ResourceLimitError
from .frozen import Frozen
from .heap import Heap, ready_after

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
    """J(P) of a heap: its ideals as masks in (cardinality, mask) order,
    its covers ``(lo, hi, element)`` in increasing order, and the weight
    of each ideal, or None.

    The constructor accepts exactly J(P) and raises ``DomainError``
    naming the first ideal or cover that breaks one of these rules:

    * the ideals start at the empty ideal 0 and strictly increase by
      (cardinality, mask), so each appears once;
    * the covers strictly increase, and each (lo, hi, p) has
      0 <= lo < hi < |J|, 0 <= p < |P|, and ideal hi equal to ideal lo
      with p added;
    * the elements the covers add to each ideal are exactly its ready
      mask: the minimal elements for ideal 0, and ``ready_after`` along
      one cover into any other.

    By induction in index order every listed mask is then an ideal whose
    covers up add exactly its addable elements, so p lies outside ideal
    lo with its down-set inside, every ideal of P is listed, and the
    covers are the Hasse diagram of J(P), each once.  ``weights`` must
    be None or hold one weight per ideal; they are not checked against
    the heap, but an error at an ideal names its weight.  The same pass
    fills ``toggle_masks``, per ideal the masks ``(adds, removes)`` of
    the elements that toggle into it and out of it, and ``entering``,
    per ideal (lo, p) of its first cover in, None for the empty ideal.
    """

    def __init__(
        self,
        heap: Heap,
        ideals: tuple[int, ...],
        covers: tuple[tuple[int, int, int], ...],
        weights: tuple[Weight, ...] | None,
    ) -> None:
        n = len(ideals)
        if not n or ideals[0]:
            raise DomainError("the ideals do not start at the empty ideal 0")
        for k in range(1, n):
            a, b = ideals[k - 1], ideals[k]
            if (a.bit_count(), a) >= (b.bit_count(), b):
                raise DomainError(
                    f"ideal {k} ({b:#b}) does not follow ideal {k - 1} ({a:#b})"
                    " in strictly increasing (cardinality, mask) order"
                )
        if weights is not None and len(weights) != n:
            raise DomainError(f"lattice has {len(weights)} weights for {n} ideals")
        size = len(heap)
        adds, removes = [0] * n, [0] * n
        entering: list = [None] * n  # per ideal, (lo, p) of the first cover into it
        previous = (-1, -1, -1)
        for cover in covers:
            lo, hi, p = cover
            if not (cover > previous and 0 <= lo < hi < n and 0 <= p < size):
                raise DomainError(
                    f"lattice cover {cover} breaks the rule that covers strictly increase"
                    f" and each (lo, hi, p) has 0 <= lo < hi < {n} and 0 <= p < {size}"
                )
            bit = 1 << p
            if ideals[hi] != ideals[lo] | bit:
                raise DomainError(
                    f"lattice cover {cover}: ideal {hi} is not ideal {lo} with element {p} added"
                )
            previous = cover
            adds[lo] |= bit
            removes[hi] |= bit
            if entering[hi] is None:
                entering[hi] = lo, p

        def named(k: int) -> str:  # ideal k, with its weight when there are weights
            return f"ideal {k}" + ("" if weights is None else f" of weight {weights[k]}")

        ready = heap.minimal_mask
        for k, came in enumerate(entering):
            if k:
                if came is None:
                    raise DomainError(f"{named(k)} ({ideals[k]:#b}) is the upper end of no cover")
                ready = ready_after(heap, adds[came[0]], came[1], ideals[k])
            missing, extra = ready & ~adds[k], adds[k] & ~ready
            if missing:
                p = (missing & -missing).bit_length() - 1
                raise DomainError(f"no lattice cover adds the addable element {p} to {named(k)}")
            if extra:
                p = (extra & -extra).bit_length() - 1
                raise DomainError(f"a lattice cover adds the unaddable element {p} to {named(k)}")
        self._set(heap=heap, ideals=ideals, covers=covers, weights=weights)
        self._set(toggle_masks=tuple(zip(adds, removes)), entering=tuple(entering))

    @cached_property
    def index(self) -> dict[int, int]:
        return {m: k for k, m in enumerate(self.ideals)}

    def __len__(self) -> int:
        return len(self.ideals)

    @cached_property
    def down_degrees(self) -> tuple[int, ...]:
        """Number of lattice elements covered by each ideal; equals the
        count of its maximal elements."""
        return tuple(removes.bit_count() for _, removes in self.toggle_masks)


def enumerate_ideals(h: Heap, cap: int = DEFAULT_IDEAL_CAP) -> IdealLattice:
    """Enumerate J(P) by walking up the cover graph from the empty ideal,
    one cardinality at a time.

    Each ideal m keeps its ready mask, the elements that can be inserted
    into it, and ``ready_after`` gives that of m | p from it in O(deg).
    A level sorted by mask value, and walked in that order with each
    ready mask in ascending elements, lists the ideals and the covers in
    their final order directly.
    """
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
                    w = None if h.base is None else _reflect(cd, labels[p], weights[lo])
                    fresh[nm] = ready_after(h, r, p, nm), w
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


def gyration(h: Heap, mask: int) -> int:
    """Toggle all even-rank elements, then all odd-rank ones.

    Within a parity class no two elements form a cover (the heap is
    graded), so the toggles commute and the phase is order-free.
    """
    if not h.is_graded:
        raise DomainError("gyration needs a graded heap")
    for parity in (0, 1):
        for p in range(len(h)):
            if h.ranks[p] % 2 == parity:
                mask = toggle(h, mask, p)
    return mask


def rowmotion_images(lattice: IdealLattice) -> list[int]:
    """``rowmotion`` of every ideal, in index order.  An ideal is fixed
    by its maximal elements, its ``removes`` mask, and every antichain
    is the maximal elements of one ideal; rowmotion sends an ideal to
    the ideal whose maximal elements are its ``adds`` mask, the minimal
    elements of its complement."""
    by_maxima = {removes: m for m, (_, removes) in zip(lattice.ideals, lattice.toggle_masks)}
    return [by_maxima[adds] for adds, _ in lattice.toggle_masks]


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
        images.append(half ^ (flips[index[half]] & odd))
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
