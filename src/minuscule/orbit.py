"""Weyl orbit of a dominant weight as a graded cover digraph.

The orbit is the closure of {lambda} under all simple reflections,
ordered with lambda at the bottom: mu is covered by mu - alpha_i
whenever (mu, alpha_i^vee) = 1, so walking up subtracts simple roots.
For a minuscule lambda this digraph is the full weight poset of the
representation and forms a distributive lattice; ``verify_minuscule``
certifies exactly that and reports any violation it finds.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .cartan import CartanDatum, Weight, _reflect, is_dominant, is_integral
from .errors import DomainError, ResourceLimitError
from .frozen import Frozen
from .heap import Heap, heap_from_word
from .ideals import IdealLattice

DEFAULT_ORBIT_CAP = 10**6


class OrbitPoset(Frozen):
    """Orbit weights with cover edges ``(u, v, i)`` meaning v = u - alpha_i.

    Weight indices ascend along every cover (u < v): ``generate_orbit``
    lists the weights layer by layer, so index order is a linear
    extension of the orbit, and the walks here take the weights in it.
    The constructor checks this once, and raises ``DomainError`` for an
    empty orbit, a weight without one coordinate per node, ``layers``
    without one entry per weight, or a cover that is not 0 <= u < v < n
    at a node.  So every walk up the covers ends, and none needs a guard.
    """

    def __init__(
        self,
        cartan: CartanDatum,
        weights: tuple[Weight, ...],
        covers: tuple[tuple[int, int, int], ...],
        layers: tuple[int, ...],
    ) -> None:
        n, rank = len(weights), cartan.rank
        if not n:
            raise DomainError("orbit has no weights")
        for w in weights:
            if len(w) != rank:
                raise DomainError(f"orbit weight {w} has {len(w)} coordinates, expected {rank}")
        if len(layers) != n:
            raise DomainError(f"orbit has {len(layers)} layers for {n} weights")
        for cover in covers:
            u, v, i = cover
            if not (0 <= u < v < n and 1 <= i <= rank):
                rule = f"each (u, v, i) has 0 <= u < v < {n} and 1 <= i <= {rank}"
                raise DomainError(f"orbit cover {cover} breaks the rule that {rule}")
        self._set(cartan=cartan, weights=weights, covers=covers, layers=layers)

    @cached_property
    def index(self) -> dict[Weight, int]:
        return {w: k for k, w in enumerate(self.weights)}

    @property
    def bottom(self) -> int:
        return 0

    @cached_property
    def up_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per weight, the outgoing covers as sorted (label, target) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.weights]
        for u, v, i in self.covers:
            adj[u].append((i, v))
        return tuple(tuple(sorted(a)) for a in adj)

    @property
    def top(self) -> int:
        maxima = [k for k, a in enumerate(self.up_adjacency) if not a]
        if len(maxima) != 1:
            raise DomainError(f"orbit has {len(maxima)} maximal weights, not 1")
        return maxima[0]

    @cached_property
    def below_masks(self) -> tuple[int, ...]:
        """Strict down-sets as bit masks over weight indices, built in
        index order, which every cover ascends."""
        below = [0] * len(self.weights)
        for u, up in enumerate(self.up_adjacency):
            for _, v in up:
                below[v] |= below[u] | (1 << u)
        return tuple(below)

    def __len__(self) -> int:
        return len(self.weights)


def generate_orbit(cd: CartanDatum, lam: Weight, cap: int = DEFAULT_ORBIT_CAP) -> OrbitPoset:
    """Close {lam} under all simple reflections, breadth first.

    Weight indices are deterministic: by reflection distance from lam,
    then lexicographically within a layer.  Covers are recorded wherever
    a coordinate equals 1.  Raises DomainError for non-dominant or
    non-integral lam, ResourceLimitError if the orbit outgrows ``cap``,
    as soon as it does: the cap is checked after each new weight, so at
    most cap + 1 distinct weights are ever formed.

    Only reflections at a positive coordinate are taken.  For dominant
    lam, the distance of mu from lam is the length of the shortest w with
    w lam = mu, and (mu, alpha_i^vee) = (lam, w^-1 alpha_i^vee) is
    positive exactly when s_i w is longer than w.  So a positive
    coordinate leads one layer on, to a weight not seen yet; a negative
    one leads back a layer, and a zero one fixes mu.  The layers are
    those of the closure under all reflections, and every cover (a
    coordinate equal to 1) is met in the same pass.
    """
    if len(lam) != cd.rank:
        raise DomainError(f"weight has {len(lam)} coordinates, expected {cd.rank}")
    if not is_integral(lam):
        raise DomainError(f"weight {lam} is not integral")
    if not is_dominant(lam):
        raise DomainError(f"weight {lam} is not dominant")
    lam = tuple(int(m) for m in lam)

    if cap < 1:  # the orbit holds lam at least
        raise ResourceLimitError(f"orbit exceeds cap of {cap} weights")
    order = [lam]
    layers = [0]
    covers = []
    frontier = [lam]
    layer = 0
    while frontier:
        layer += 1
        fresh = set()
        pending = []  # this layer's covers (u, target weight, i), in (u, i) order
        u = len(order) - len(frontier)
        for mu in frontier:
            for i, mi in enumerate(mu, 1):
                if mi > 0:
                    nu = _reflect(cd, i, mu)
                    fresh.add(nu)
                    if len(order) + len(fresh) > cap:
                        raise ResourceLimitError(f"orbit exceeds cap of {cap} weights")
                    if mi == 1:
                        pending.append((u, nu, i))
            u += 1
        frontier = sorted(fresh)
        position = {nu: len(order) + j for j, nu in enumerate(frontier)}
        covers += [(u, position[nu], i) for u, nu, i in pending]
        order += frontier
        layers += [layer] * len(frontier)
    return OrbitPoset(cd, tuple(order), tuple(covers), tuple(layers))


class MinusculeReport(NamedTuple):
    """Outcome of the minuscule certification of an orbit poset.

    ``lattice`` is J(P) for the heap of ``saturated_chain``, read off
    the orbit's own covers and carrying the orbit's own weights, whenever
    the orbit is certified; ``mismatch`` names the first orbit weight or
    cover, or the first ideal or cover of the lattice read off it, where
    the orbit fails to be J(P) with weights along reflections.
    """

    size: int
    pairing_violations: tuple[tuple[Weight, int, int], ...]
    mismatch: str | None = None
    lattice: IdealLattice | None = None

    @property
    def ok(self) -> bool:
        return not self.pairing_violations and self.mismatch is None

    def summary(self) -> str:
        if self.ok:
            return f"minuscule: {self.size} weights form a distributive lattice"
        if self.pairing_violations:
            w, i, v = self.pairing_violations[0]
            return (
                f"not minuscule: {len(self.pairing_violations)} coroot pairings outside"
                f" {{-1,0,1}} (first: weight {w} pairs to {v} at node {i})"
            )
        return f"not minuscule: {self.mismatch}"


def verify_minuscule(cd: CartanDatum, orbit: OrbitPoset) -> MinusculeReport:
    """Certify that an orbit is the weight lattice of a minuscule representation.

    First every coroot pairing must lie in {-1, 0, 1}; a violation already
    refutes minuscularity and nothing further is built.  Then the heap of
    ``saturated_chain`` is built, and one walk of the orbit covers in
    index order reads J(P) off the orbit.  Along a cover (u, v, i) the
    Rush-Shi isomorphism sends the ideal of v to the ideal of u plus the
    lowest label-i element outside it, so each cover maps to that element,
    and the first cover into v fixes the ideal of v.  Along that cover the
    weight of u must have coordinate 1 at node i and v must be its
    reflection, and no weight may be listed twice.  The ideals, sorted by
    (cardinality, mask), the renumbered covers and the orbit's own weights
    go to ``IdealLattice``, whose constructor accepts exactly J(P), each
    cover once.  It is the one proof that the labelled orbit digraph is
    J(P), so the orbit is a distributive lattice (Rush and Shi).  A
    DomainError from the walk or the constructor, naming the first orbit
    weight or cover, or lattice ideal or cover, that breaks a rule, is the
    report's ``mismatch``.  The walk is linear in the at most
    |J(P)| * rank covers.  An orbit of another rank is a DomainError.
    """
    if cd.rank != orbit.cartan.rank:
        raise DomainError(f"orbit weights have {orbit.cartan.rank} coordinates, expected {cd.rank}")
    weights, n = orbit.weights, len(orbit)
    pairing = tuple(
        (w, i, w[i - 1])
        for w in weights
        for i in cd.nodes
        if not -1 <= w[i - 1] <= 1
    )
    if pairing:
        return MinusculeReport(n, pairing)
    h = heap_from_word(cd, saturated_chain(orbit), base=weights[orbit.bottom])

    def refuted(u, v, i, why):
        return DomainError(f"orbit cover {weights[u]} -> {weights[v]} at node {i} {why}")

    masks: list = [0] + [None] * (n - 1)  # per weight, its ideal, from the first cover into it
    covers = []  # (u, v, p): each orbit cover with the element p it adds
    try:
        if len(orbit.index) != n:
            w = next(w for k, w in enumerate(weights) if orbit.index[w] != k)
            raise DomainError(f"orbit weight {w} is listed twice")
        for u, up in enumerate(orbit.up_adjacency):
            if masks[u] is None:
                raise DomainError(f"orbit weight {weights[u]} is the weight of no ideal")
            for i, v in up:
                outside = h.fiber_masks[i] & ~masks[u]
                bit = outside & -outside
                if not bit:
                    why = f"adds nothing: the ideal of {weights[u]} holds all of label {i}"
                    raise refuted(u, v, i, why)
                if masks[v] is None:
                    if weights[u][i - 1] != 1 or weights[v] != _reflect(cd, i, weights[u]):
                        raise refuted(u, v, i, "is not a reflection at a coordinate equal to 1")
                    masks[v] = masks[u] | bit
                covers.append((u, v, bit.bit_length() - 1))
        order = sorted(range(n), key=lambda k: (masks[k].bit_count(), masks[k]))
        position = {x: k for k, x in enumerate(order)}
        renumbered = tuple(sorted((position[u], position[v], p) for u, v, p in covers))
        ideals = tuple(masks[x] for x in order)
        lattice = IdealLattice(h, ideals, renumbered, tuple(weights[x] for x in order))
    except DomainError as exc:
        return MinusculeReport(n, (), str(exc))
    return MinusculeReport(n, (), None, lattice)


def build_minuscule_heap(cd: CartanDatum, lam: Weight) -> Heap:
    """The minuscule heap of a minuscule dominant weight.

    Generates and certifies the orbit first; a failed certification is a
    DomainError carrying the report summary.
    """
    report = verify_minuscule(cd, generate_orbit(cd, lam))
    if not report.ok:
        raise DomainError(f"weight {tuple(lam)} is not minuscule ({report.summary()})")
    return report.lattice.heap


def saturated_chain(orbit: OrbitPoset) -> tuple[int, ...]:
    """Labels along the bottom-to-top chain taking the smallest node at each step.

    On a minuscule orbit every such walk is a maximal chain of full
    length; ``verify_minuscule`` reads J(P) for the heap of this word
    off the orbit.  Every cover ascends in weight index, so the walk
    ends within ``len(orbit) - 1`` steps.
    """
    word = []
    u = orbit.bottom
    up = orbit.up_adjacency
    while up[u]:
        i, u = up[u][0]
        word.append(i)
    return tuple(word)
