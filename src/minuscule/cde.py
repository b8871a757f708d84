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

Chain counts are computed by a two-pass dynamic program (chains ending
at, and chains starting from, each ideal); the counts grow like
standard-tableaux numbers, so everything stays in arbitrary-precision
integers and only the final probabilities become fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from weakref import WeakKeyDictionary

from .cartan import _bareiss_solve
from .errors import DomainError, InternalCheckError
from .ideals import IdealLattice, action_orbits, gyration, rowmotion
from .simplex import OPTIMAL, solve_lp
from .stats import tcde_constant

Distribution = tuple[Fraction, ...]

STRICT = "strict"
MULTI = "multi"

_chain_table_cache: "WeakKeyDictionary[IdealLattice, dict[str, tuple[list, list]]]" = (
    WeakKeyDictionary()
)


def make_distribution(values) -> Distribution:
    probs = tuple(Fraction(v) for v in values)
    if any(p < 0 for p in probs):
        raise DomainError("distribution has a negative entry")
    if sum(probs) != 1:
        raise DomainError("distribution does not sum to 1")
    return probs


def expectation(dist: Distribution, values) -> Fraction:
    values = tuple(values)
    if len(values) != len(dist):
        raise DomainError(f"statistic has {len(values)} entries, expected {len(dist)}")
    return sum((p * v for p, v in zip(dist, values)), Fraction(0))


def uniform_distribution(lattice: IdealLattice) -> Distribution:
    n = len(lattice)
    return tuple(Fraction(1, n) for _ in range(n))


def _chain_tables(lattice: IdealLattice, mode: str, levels: int) -> tuple[list, list]:
    """Tables down[m][k] / up[m][k]: chains of m+1 ideals ending / starting
    at ideal k, strict or weakly increasing according to ``mode``."""
    cache = _chain_table_cache.setdefault(lattice, {})
    if mode not in cache:
        n = len(lattice)
        cache[mode] = ([[1] * n], [[1] * n])
    down, up = cache[mode]
    n = len(lattice)
    while len(down) <= levels:
        prev = down[-1]
        if mode == STRICT:
            down.append([sum(prev[j] for j in lattice.strictly_below[k]) for k in range(n)])
        else:
            down.append(
                [prev[k] + sum(prev[j] for j in lattice.strictly_below[k]) for k in range(n)]
            )
        prev = up[-1]
        if mode == STRICT:
            up.append([sum(prev[j] for j in lattice.strictly_above[k]) for k in range(n)])
        else:
            up.append(
                [prev[k] + sum(prev[j] for j in lattice.strictly_above[k]) for k in range(n)]
            )
    return down, up


def chain_distribution(lattice: IdealLattice, k: int, mode: str = STRICT) -> Distribution:
    """Probability of each ideal proportional to the number of k-chains
    through it.

    A k-chain is a tuple of k+1 ideals, strictly increasing in strict
    mode and weakly increasing in multi mode; in multi mode an ideal is
    counted once per position it occupies.  k = 0 gives the uniform
    distribution in both modes; in strict mode k = |P| gives the
    maximal-chain distribution and larger k is out of range.
    """
    if mode not in (STRICT, MULTI):
        raise DomainError(f"unknown chain mode {mode!r}")
    if k < 0:
        raise DomainError("chain length must be nonnegative")
    rank = len(lattice.heap)
    if mode == STRICT and k > rank:
        raise DomainError(f"strict chain length {k} exceeds lattice rank {rank}")
    down, up = _chain_tables(lattice, mode, k)
    counts = [
        sum(down[a][i] * up[k - a][i] for a in range(k + 1)) for i in range(len(lattice))
    ]
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


def maxchain_distribution(lattice: IdealLattice) -> Distribution:
    return chain_distribution(lattice, len(lattice.heap), STRICT)


@dataclass(frozen=True)
class ToggleSymmetryReport:
    """Per-element comparison of insert and delete expectations."""

    instances: int
    violations: tuple[tuple[int, Fraction, Fraction], ...]  # (element, E_plus, E_minus)

    @property
    def ok(self) -> bool:
        return not self.violations


def toggle_symmetry_report(lattice: IdealLattice, dist: Distribution) -> ToggleSymmetryReport:
    if len(dist) != len(lattice):
        raise DomainError("distribution length does not match lattice")
    violations = []
    for p in range(len(lattice.heap)):
        e_plus = sum((dist[k] for k in lattice.add_sites[p]), Fraction(0))
        e_minus = sum((dist[k] for k in lattice.remove_sites[p]), Fraction(0))
        if e_plus != e_minus:
            violations.append((p, e_plus, e_minus))
    return ToggleSymmetryReport(len(lattice.heap), tuple(violations))


def orbit_distribution(lattice: IdealLattice, orbit: tuple[int, ...]) -> Distribution:
    """Uniform on the given ideal indices, zero elsewhere."""
    if not orbit:
        raise DomainError("empty orbit")
    share = Fraction(1, len(orbit))
    probs = [Fraction(0)] * len(lattice)
    for k in orbit:
        probs[k] = share
    return tuple(probs)


@dataclass(frozen=True)
class LpCertificate:
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

    @property
    def constant(self) -> bool:
        return self.minimum == self.maximum


def toggle_polytope(lattice: IdealLattice) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Equality system of the toggle-symmetric polytope: probabilities
    sum to one and every element is as likely to be insertable as
    deletable."""
    n = len(lattice)
    rows = [[Fraction(1)] * n]
    rhs = [Fraction(1)]
    for p in range(len(lattice.heap)):
        row = [Fraction(0)] * n
        for k in lattice.add_sites[p]:
            row[k] += 1
        for k in lattice.remove_sites[p]:
            row[k] -= 1
        rows.append(row)
        rhs.append(Fraction(0))
    return rows, rhs


def _dual_witness(lattice: IdealLattice) -> tuple[Fraction, ...] | None:
    """y with A^T y = ddeg on every ideal, for A the equality matrix of
    ``toggle_polytope``, or None.

    Solves the normal equations (A A^T) y = A ddeg, whose Gram entries
    are popcounts of per-element ideal masks, and then checks A^T y =
    ddeg exactly; only that check certifies.  When A has full row rank
    the solution is unique and passes the check exactly when ddeg lies
    in the row span of A.  A singular Gram matrix also gives None.
    """
    degrees = lattice.down_degrees
    adds, removes = lattice.add_sites, lattice.remove_sites
    plus = [sum(1 << k for k in sites) for sites in adds]
    minus = [sum(1 << k for k in sites) for sites in removes]
    m = len(lattice.heap) + 1
    gram = [[0] * m for _ in range(m)]
    rhs = [sum(degrees)] + [0] * (m - 1)
    gram[0][0] = len(lattice)
    for p in range(m - 1):
        gram[0][p + 1] = gram[p + 1][0] = len(adds[p]) - len(removes[p])
        rhs[p + 1] = sum(degrees[k] for k in adds[p]) - sum(degrees[k] for k in removes[p])
        for q in range(p, m - 1):
            dot = (
                (plus[p] & plus[q]).bit_count()
                + (minus[p] & minus[q]).bit_count()
                - (plus[p] & minus[q]).bit_count()
                - (minus[p] & plus[q]).bit_count()
            )
            gram[p + 1][q + 1] = gram[q + 1][p + 1] = dot
    solved = _bareiss_solve(gram, rhs)
    if solved is None:
        return None
    x, d = solved
    values = [x[0]] * len(lattice)
    for p in range(m - 1):
        for k in adds[p]:
            values[k] += x[p + 1]
        for k in removes[p]:
            values[k] -= x[p + 1]
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


ACTIONS = {"rowmotion": rowmotion, "gyration": gyration}


@dataclass(frozen=True)
class HomomesyRow:
    orbit: tuple[int, ...]
    mean: Fraction
    matches: bool


@dataclass(frozen=True)
class HomomesyReport:
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
    for orbit in action_orbits(lattice, ACTIONS[action]):
        mean = Fraction(sum(degrees[k] for k in orbit), len(orbit))
        rows.append(HomomesyRow(orbit, mean, mean == constant))
    return HomomesyReport(action, constant, tuple(rows))
