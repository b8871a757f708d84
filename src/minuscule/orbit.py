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
from .ideals import IdealLattice, enumerate_ideals

DEFAULT_ORBIT_CAP = 10**6


class OrbitPoset(Frozen):
    """Orbit weights with cover edges ``(u, v, i)`` meaning v = u - alpha_i.

    Weight indices ascend along every cover (u < v): ``generate_orbit``
    lists the weights layer by layer, so index order is a linear
    extension of the orbit, and the walks here take the weights in it.
    """

    def __init__(
        self,
        cartan: CartanDatum,
        weights: tuple[Weight, ...],
        covers: tuple[tuple[int, int, int], ...],
        layers: tuple[int, ...],
    ) -> None:
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
        index order; a cover that does not ascend in index, as every
        cycle of the cover digraph has, raises DomainError."""
        below = [0] * len(self.weights)
        for u, up in enumerate(self.up_adjacency):
            for _, v in up:
                if v <= u:
                    raise DomainError(f"orbit cover {u} -> {v} does not ascend in weight index")
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

    ``lattice`` is the ideal lattice of the heap of ``saturated_chain``
    whenever it was enumerated; ``mismatch`` names the first place where
    its weight map fails to be a label-preserving cover isomorphism onto
    the orbit.
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


def _first_mismatch(orbit: OrbitPoset, lattice: IdealLattice) -> str | None:
    """Where ideal -> weight fails to be a bijection onto the orbit that
    sends the covers of J(P) onto the orbit covers with the same labels."""
    n = len(orbit)
    pos = [orbit.index.get(w, -1) for w in lattice.weights]
    if sorted(pos) != list(range(n)):
        k = min(set(range(n)) - set(pos))
        return f"orbit weight {orbit.weights[k]} is the weight of no ideal"
    covers = set(orbit.covers)
    labels = lattice.heap.labels
    hit = set()
    for lo, hi, p in lattice.covers:
        edge = (pos[lo], pos[hi], labels[p])
        if edge not in covers:
            return (
                f"cover {lattice.weights[lo]} -> {lattice.weights[hi]}"
                f" at node {labels[p]} of J(P) is not an orbit cover"
            )
        hit.add(edge)
    if len(hit) != len(covers):
        u, v, i = next(c for c in orbit.covers if c not in hit)
        return f"orbit cover {orbit.weights[u]} -> {orbit.weights[v]} at node {i} is not a cover of J(P)"
    return None


def verify_minuscule(cd: CartanDatum, orbit: OrbitPoset) -> MinusculeReport:
    """Certify that an orbit is the weight lattice of a minuscule representation.

    First every coroot pairing must lie in {-1, 0, 1}; a violation already
    refutes minuscularity and nothing further is built.  Then the heap of
    ``saturated_chain`` is built and its ideal lattice J(P) enumerated, at
    most one ideal per orbit weight.  The orbit is certified when the map
    ideal -> weight is a bijection onto the orbit that sends every cover of
    J(P) to an orbit cover with the same label, and both have equally many
    covers: the orbit is then isomorphic to J(P), hence a distributive
    lattice (Rush and Shi).  The check is linear in the at most
    |J(P)| * rank covers; enumerating J(P) costs O(|J(P)| * |P|).
    Orbit weights of another rank and a cyclic cover digraph are a
    DomainError.
    """
    n = len(orbit)
    for w in orbit.weights:
        if len(w) != cd.rank:
            raise DomainError(f"orbit weights have {len(w)} coordinates, expected {cd.rank}")
    pairing = tuple(
        (w, i, w[i - 1])
        for w in orbit.weights
        for i in cd.nodes
        if not -1 <= w[i - 1] <= 1
    )
    if pairing:
        return MinusculeReport(n, pairing)
    h = heap_from_word(cd, saturated_chain(orbit), base=orbit.weights[orbit.bottom])
    try:
        lattice = enumerate_ideals(h, cap=n)
    except ResourceLimitError:
        return MinusculeReport(n, (), f"the heap of the saturated chain has more than {n} ideals")
    return MinusculeReport(n, (), _first_mismatch(orbit, lattice), lattice)


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
    length; ``verify_minuscule`` certifies the orbit through the heap of
    this word.  A walk longer than ``len(orbit) - 1`` steps repeats a
    weight, so it raises DomainError on a cyclic cover digraph.
    """
    word = []
    u = orbit.bottom
    up = orbit.up_adjacency
    while up[u]:
        if len(word) == len(orbit) - 1:
            raise DomainError("cover digraph contains a cycle")
        i, u = up[u][0]
        word.append(i)
    return tuple(word)
