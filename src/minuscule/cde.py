"""Distributions on an ideal lattice and down-degree expectation checks.

Covers the uniform, maximal-chain, and k-chain distributions (in both
the strict-chain and multichain readings), toggle symmetry, uniform
distributions on action orbits, and an exact linear-programming
certificate that the down-degree expectation is the same for every
toggle-symmetric distribution.  That certificate is a dual witness y
with A^T y = ddeg for the equality matrix A of the toggle polytope,
found by the fraction-free integer elimination ``_bareiss_solve`` that
``cartan`` also uses for the Cartan adjugate, and checked on every ideal;
the simplex runs only when no witness exists, i.e. when the expectation
is not constant on the polytope.

Toggle symmetry, the polytope rows and the witness read the covers
labelled p: each is one site where p is inserted (lo) and deleted (hi).
The indicators of all the orbits of an action are checked in one pass.

Strict chain counts (chains ending at, and starting from, each ideal)
grow one level per chain length, each level the zeta transform of the
last: one pass over the cover edges, element by element.  ``verify``
reads each count vector once and keeps none; ``chain_counts`` keeps
every strict vector of a lattice, computed once.  Multichain
counts are their binomial transform.  Counts stay integers, and the
checks read them through ``ChainRow``: per-element toggle differences
and the sums behind the expectation, all linear in the counts, so each
multichain row is the same combination of the strict rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .cartan import _bareiss_solve
from .errors import DomainError, InternalCheckError
from .ideals import IdealLattice, gyration_images, image_orbits, rowmotion_images
from .simplex import OPTIMAL, solve_lp
from .stats import tcde_constant

Distribution = tuple[Fraction, ...]

STRICT = "strict"
MULTI = "multi"

_chain_count_cache: "WeakKeyDictionary[IdealLattice, tuple]" = WeakKeyDictionary()


def expectation(weights, values) -> Fraction:
    """Mean of ``values`` under ``weights``: a distribution, or integer
    counts over their total."""
    values = tuple(values)
    if len(values) != len(weights):
        raise DomainError(f"statistic has {len(values)} entries, expected {len(weights)}")
    total = sum(weights)
    if total == 0:
        raise DomainError("weights sum to zero")
    return Fraction(sum(w * v for w, v in zip(weights, values)), total)


def uniform_distribution(lattice: IdealLattice) -> Distribution:
    n = len(lattice)
    return tuple(Fraction(1, n) for _ in range(n))


def _zeta_level(level: list[int], edges) -> list[int]:
    z = level[:]
    for a, b in edges:
        z[b] += z[a]
    return [s - v for s, v in zip(z, level)]


def _strict_count_levels(lattice: IdealLattice):
    """Yield the strict k-chains through each ideal, k = 0..|P|.

    With down[m] / up[m] the strict chains of m+1 ideals ending /
    starting at each ideal, the k-chains through it number the sum over
    a of down[a] * up[k-a].  Level m+1 sums level m over each ideal's
    strict down-set (up-set).  Heap positions are a linear extension of
    P, so z[hi] += z[lo] over the covers (lo, hi, p) in ascending p
    reaches every ideal below hi once (the zeta transform of a
    distributive lattice), and z[lo] += z[hi] in descending p every
    ideal above lo; subtracting level m drops the ideal itself.
    """
    edges = [(lo, hi) for lo, hi, _ in sorted(lattice.covers, key=lambda c: c[2])]
    up_edges = [(hi, lo) for lo, hi in reversed(edges)]
    down, up = [[1] * len(lattice)], [[1] * len(lattice)]
    for k in range(len(lattice.heap) + 1):
        if k:
            down.append(_zeta_level(down[-1], edges))
            up.append(_zeta_level(up[-1], up_edges))
        counts = [0] * len(lattice)
        for a in range(k + 1):
            counts = [c + d * u for c, d, u in zip(counts, down[a], up[k - a])]
        yield tuple(counts)


def _strict_counts(lattice: IdealLattice) -> tuple[tuple[int, ...], ...]:
    """``_strict_count_levels``, computed once per lattice and kept."""
    counts = _chain_count_cache.get(lattice)
    if counts is None:
        counts = _chain_count_cache[lattice] = tuple(_strict_count_levels(lattice))
    return counts


def _multichain_weights(k: int, rank: int) -> list[int]:
    """C(k+1, s+1) for s = 0..min(k, rank).

    A weakly increasing chain of k+1 ideals whose distinct members form a
    strict chain of s+1 arises in C(k, s) ways; summing over the position
    that holds a given ideal (Vandermonde) gives, per ideal,
    c^multi_k = sum_s C(k+1, s+1) * c^strict_s (Stanley, EC I, 3.12).
    """
    return [comb(k + 1, s + 1) for s in range(min(k, rank) + 1)]


def chain_counts(lattice: IdealLattice, k: int, mode: str = STRICT) -> tuple[int, ...]:
    """Number of k-chains through each ideal.

    A k-chain is a tuple of k+1 ideals, strictly increasing in strict
    mode and weakly increasing in multi mode; in multi mode an ideal is
    counted once per position it occupies, and the counts are the
    binomial transform of the strict ones.  In strict mode k = |P|
    counts maximal chains and larger k is out of range.
    """
    if mode not in (STRICT, MULTI):
        raise DomainError(f"unknown chain mode {mode!r}")
    if k < 0:
        raise DomainError("chain length must be nonnegative")
    rank = len(lattice.heap)
    if mode == STRICT:
        if k > rank:
            raise DomainError(f"strict chain length {k} exceeds lattice rank {rank}")
        return _strict_counts(lattice)[k]
    counts = [0] * len(lattice)
    for w, strict in zip(_multichain_weights(k, rank), _strict_counts(lattice)):
        counts = [c + w * x for c, x in zip(counts, strict)]
    return tuple(counts)


class ChainRow(NamedTuple):
    """What the toggle-symmetry and expectation checks read off one
    vector c of chain counts."""

    differences: tuple[tuple[int, int], ...]  # (element p, d != 0), ascending p
    ddeg_sum: int  # sum of ddeg * c
    total: int  # sum of c

    @property
    def expectation(self) -> Fraction:
        return Fraction(self.ddeg_sum, self.total)


def chain_row(lattice: IdealLattice, counts) -> ChainRow:
    """The ``ChainRow`` of one count vector c.

    For element p, d = the sum of c over the lower ends of the covers
    labelled p minus the sum over their upper ends; c is toggle-symmetric
    exactly when every d is 0, and the nonzero ones are the violations.
    """
    diff = [0] * len(lattice.heap)
    for lo, hi, p in lattice.covers:
        diff[p] += counts[lo] - counts[hi]
    nonzero = tuple((p, d) for p, d in enumerate(diff) if d)
    return ChainRow(nonzero, sum(map(mul, lattice.down_degrees, counts)), sum(counts))


def strict_chain_rows(lattice: IdealLattice) -> tuple[ChainRow, ...]:
    """The ``ChainRow`` of the strict k-chain counts, k = 0..|P|."""
    return tuple(chain_row(lattice, counts) for counts in _strict_count_levels(lattice))


def multichain_rows(strict: tuple[ChainRow, ...]) -> tuple[ChainRow, ...]:
    """The ``ChainRow`` of the multichain k-chain counts, k = 0..|P|,
    from the strict rows: every entry is linear in the counts, so it is
    the C(k+1, s+1) combination of the strict entries.  Only elements
    with a nonzero strict difference can have a nonzero one here."""
    rank = len(strict) - 1
    elements = sorted({p for row in strict for p, _ in row.differences})
    by_element = [dict(row.differences) for row in strict]
    rows = []
    for k in range(rank + 1):
        weights = _multichain_weights(k, rank)
        diff = [(p, sum(w * d.get(p, 0) for w, d in zip(weights, by_element))) for p in elements]
        rows.append(
            ChainRow(
                tuple((p, d) for p, d in diff if d),
                sum(w * row.ddeg_sum for w, row in zip(weights, strict)),
                sum(w * row.total for w, row in zip(weights, strict)),
            )
        )
    return tuple(rows)


def chain_distribution(lattice: IdealLattice, k: int, mode: str = STRICT) -> Distribution:
    """Probability of each ideal proportional to ``chain_counts``; k = 0
    gives the uniform distribution in both modes, and strict k = |P| the
    maximal-chain distribution."""
    counts = chain_counts(lattice, k, mode)
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


class ToggleSymmetryReport(NamedTuple):
    """Per-element insert and delete expectations, in the weights' units."""

    instances: int
    violations: tuple[tuple[int, Fraction, Fraction], ...]  # (element, E_plus, E_minus)

    @property
    def ok(self) -> bool:
        return not self.violations


def toggle_symmetry_report(lattice: IdealLattice, weights) -> ToggleSymmetryReport:
    """Toggle symmetry of a distribution or of counts (scale-free)."""
    if len(weights) != len(lattice):
        raise DomainError("distribution length does not match lattice")
    n = len(lattice.heap)
    plus, minus = [0] * n, [0] * n
    for lo, hi, p in lattice.covers:
        plus[p] += weights[lo]
        minus[p] += weights[hi]
    violations = [(p, e, f) for p, (e, f) in enumerate(zip(plus, minus)) if e != f]
    return ToggleSymmetryReport(n, tuple(violations))


def orbit_symmetry_violations(lattice: IdealLattice, orbits) -> tuple[tuple[int, ...], ...]:
    """Per orbit, the ascending elements p at which the orbit's 0/1
    indicator is not toggle-symmetric, for ``orbits`` that partition the
    ideals (an action's orbits).

    The indicator of O is toggle-symmetric at p exactly when the covers
    labelled p with lo in O are as many as those with hi in O, so one
    pass over the covers counts every orbit's balance at once; a cover
    inside one orbit adds to it and takes from it alike.
    """
    orbit_of = [0] * len(lattice)
    for j, orbit in enumerate(orbits):
        for k in orbit:
            orbit_of[k] = j
    balance: dict[tuple[int, int], int] = {}
    for lo, hi, p in lattice.covers:
        a, b = orbit_of[lo], orbit_of[hi]
        if a != b:
            balance[p, a] = balance.get((p, a), 0) + 1
            balance[p, b] = balance.get((p, b), 0) - 1
    violations: list[list[int]] = [[] for _ in orbits]
    for (p, j), d in sorted(balance.items()):
        if d:
            violations[j].append(p)
    return tuple(map(tuple, violations))


def orbit_distribution(lattice: IdealLattice, orbit: tuple[int, ...]) -> Distribution:
    """Uniform on the given ideal indices, zero elsewhere.  Each index
    must name an ideal, and at most once."""
    if not orbit:
        raise DomainError("empty orbit")
    share = Fraction(1, len(orbit))
    probs = [Fraction(0)] * len(lattice)
    for k in orbit:
        if not 0 <= k < len(probs):
            raise DomainError(f"ideal index {k} out of range 0..{len(probs) - 1}")
        if probs[k]:
            raise DomainError(f"ideal index {k} repeats in the orbit")
        probs[k] = share
    return tuple(probs)


class LpCertificate(NamedTuple):
    """Exact optima of the down-degree expectation over the polytope of
    toggle-symmetric distributions, with an optimal point for each.

    ``witness`` is the dual vector y (y_0, then y_p in heap order) with
    A^T y = ddeg for the equality matrix A of ``toggle_polytope``, when
    one exists; it proves the expectation is y_0 on the whole polytope.
    It is None when the optima came from the simplex instead."""

    minimum: Fraction
    maximum: Fraction
    minimizer: Distribution
    maximizer: Distribution
    witness: tuple[Fraction, ...] | None


def toggle_polytope(lattice: IdealLattice) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Equality system of the toggle-symmetric polytope: probabilities
    sum to one and every element is as likely to be insertable as
    deletable."""
    n = len(lattice)
    rows = [[Fraction(1)] * n] + [[Fraction(0)] * n for _ in range(len(lattice.heap))]
    for lo, hi, p in lattice.covers:
        rows[p + 1][lo] += 1
        rows[p + 1][hi] -= 1
    return rows, [Fraction(1)] + [Fraction(0)] * len(lattice.heap)


def _dual_witness(lattice: IdealLattice) -> tuple[Fraction, ...] | None:
    """y with A^T y = ddeg on every ideal, for A the equality matrix of
    ``toggle_polytope``, or None.

    Solves the normal equations (A A^T) y = A ddeg, whose Gram entries
    are popcounts of per-element masks of the covers' lower and upper
    ideals, and then checks A^T y = ddeg exactly; only that check
    certifies.  When A has full row rank the solution is unique and
    passes the check exactly when ddeg lies in the row span of A.  A
    singular Gram matrix also gives None.
    """
    degrees = lattice.down_degrees
    m = len(lattice.heap) + 1
    plus, minus = [0] * (m - 1), [0] * (m - 1)
    rhs = [sum(degrees)] + [0] * (m - 1)
    for lo, hi, p in lattice.covers:
        plus[p] |= 1 << lo
        minus[p] |= 1 << hi
        rhs[p + 1] += degrees[lo] - degrees[hi]
    gram = [[0] * m for _ in range(m)]
    gram[0][0] = len(lattice)
    # gram[0][p + 1] is 0: each cover labelled p is one insert and one delete site.
    for p in range(m - 1):
        for q in range(p, m - 1):
            dot = (
                (plus[p] & plus[q]).bit_count()
                + (minus[p] & minus[q]).bit_count()
                - (plus[p] & minus[q]).bit_count()
                - (minus[p] & plus[q]).bit_count()
            )
            gram[p + 1][q + 1] = gram[q + 1][p + 1] = dot
    solved = _bareiss_solve(gram, [rhs])
    if solved is None:
        return None
    (x,), d = solved
    values = [x[0]] * len(lattice)
    for lo, hi, p in lattice.covers:
        values[lo] += x[p + 1]
        values[hi] -= x[p + 1]
    if any(v != d * ddeg for v, ddeg in zip(values, degrees)):
        return None
    return tuple(Fraction(v, d) for v in x)


def lp_certificate(lattice: IdealLattice) -> LpCertificate:
    """Minimize and maximize E(mu; ddeg) over toggle-symmetric mu.

    When a dual witness y exists, every feasible mu has E(mu; ddeg) =
    y^T A mu = y_0, so both optima are y_0 and the uniform distribution
    (feasible and strictly positive) attains them.  Otherwise the two
    optima come from the simplex; since the uniform distribution lies
    in the relative interior of the polytope, that happens exactly when
    the expectation is not constant, provided A has full row rank.  The
    polytope is never empty, so a failed solve signals a bug.
    """
    witness = _dual_witness(lattice)
    if witness is not None:
        uniform = uniform_distribution(lattice)
        return LpCertificate(witness[0], witness[0], uniform, uniform, witness)
    rows, rhs = toggle_polytope(lattice)
    objective = [Fraction(d) for d in lattice.down_degrees]
    low = solve_lp(objective, rows, rhs, maximize=False)
    high = solve_lp(objective, rows, rhs, maximize=True)
    if low.status != OPTIMAL or high.status != OPTIMAL:
        raise InternalCheckError(
            f"toggle polytope solve failed ({low.status}/{high.status})"
        )
    return LpCertificate(low.objective, high.objective, low.solution, high.solution, None)


ACTIONS = {"rowmotion": rowmotion_images, "gyration": gyration_images}


class HomomesyRow(NamedTuple):
    orbit: tuple[int, ...]
    mean: Fraction
    matches: bool


class HomomesyReport(NamedTuple):
    action: str
    constant: Fraction
    rows: tuple[HomomesyRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.matches for r in self.rows)


def homomesy_report(lattice: IdealLattice, action: str = "rowmotion") -> HomomesyReport:
    """Mean down-degree of every orbit of the action, against the
    toggle-symmetric constant of the underlying minuscule weight."""
    if action not in ACTIONS:
        raise DomainError(f"unknown action {action!r}")
    h = lattice.heap
    if h.base is None:
        raise DomainError("heap carries no base weight")
    constant = tcde_constant(h.cartan, h.base)
    degrees = lattice.down_degrees
    rows = []
    for orbit in image_orbits(lattice, ACTIONS[action](lattice)):
        mean = Fraction(sum(degrees[k] for k in orbit), len(orbit))
        rows.append(HomomesyRow(orbit, mean, mean == constant))
    return HomomesyReport(action, constant, tuple(rows))
