"""Distributions on an ideal lattice and down-degree expectation checks.

Covers the uniform, maximal-chain, and k-chain distributions (in both
the strict-chain and multichain readings), toggle symmetry, uniform
distributions on action orbits, and an exact linear-programming
certificate that the down-degree expectation is the same for every
toggle-symmetric distribution.  That certificate is a dual witness y
with A^T y = ddeg for the equality matrix A of the toggle polytope,
checked on every ideal by ``stats.witness_residues``, one pass over the
covers.  On a heap with a base weight y has a closed form,
``stats.closed_form_witness``, read off the base and the fiber
positions, and its residues are also the ``ddeg_decomposition`` row;
only a heap without a base, or one whose closed form has residues,
solves the Gram system of the integer rows of ``toggle_polytope`` by the
fraction-free elimination ``_bareiss_solve`` that ``cartan`` also uses
for the Cartan adjugate.
The simplex runs only when no witness exists, i.e. when the expectation
is not constant on the polytope.

Every lattice here is J(P), checked by the ``IdealLattice``
constructor, so nothing below guards against a malformed one.  Toggle
symmetry, the polytope rows and the witness read the covers labelled
p: each is one site where p is inserted (lo) and deleted (hi).
``label_sums`` is the one sum of an ideal weighting over either end of
those covers, and every toggle-balance check reads it.

Strict chain counts are packed: each ideal's down polynomial (chains
ending at it, by length) is one integer at t = 2^W, built in one walk
of the ideals in index order that hands a running zeta-transform prefix
up each cover, and its up polynomial is the same walk on the dual
lattice.  One product per ideal then holds its strict k-chain count in
W-bit slot k.  No slot of any sum the rows take exceeds (|P|+1)^2 C,
for C the number of strict chains, which one walk at t = 1 counts, so
W = bit_length((|P|+1)^2 C) keeps every slot from carrying.  Each call
forms the products afresh, once, and keeps none; ``chain_counts`` and
the rows read them alike.  Multichain counts are their binomial
transform.  Counts stay integers, and the checks
read them through ``ChainRow``: per-element toggle differences and the
sums behind the expectation, all linear in the counts, so each row is
read off whole-integer sums of the products, and each multichain row is
the same combination of the strict rows.  The 0/1 indicators of an
action's orbits are packed the same way, orbit j in slot j, and read by
the same reader.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import NamedTuple

from .cartan import _bareiss_solve
from .errors import DomainError, InternalCheckError
from .ideals import IdealLattice, gyration_images, image_orbits, rowmotion_images
from .simplex import OPTIMAL, solve_lp
from .stats import closed_form_witness, tcde_constant, witness_residues

Distribution = tuple[Fraction, ...]

STRICT = "strict"
MULTI = "multi"


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
    return (Fraction(1, n),) * n if n else ()


def _cover_lists(lattice: IdealLattice):
    """Per ideal in index order, its upper covers (p, hi), for the lattice
    and for its dual (ideal N-1-x, element |P|-1-p), each in ascending p.

    The covers increase, so those up from one ideal come in ascending hi,
    and ideals of one cardinality ascend in mask, so in p; those into one
    ideal come in ascending lo, so in descending p, which the dual
    reverses."""
    n, rank = len(lattice), len(lattice.heap)
    upper: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    dual: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for lo, hi, p in lattice.covers:
        upper[lo].append((p, hi))
        dual[n - 1 - hi].append((rank - 1 - p, n - 1 - lo))
    return upper, dual


def _down_polynomials(upper, shift: int):
    """Yield F_x(2**shift) for every ideal x in index order, F_x(t) =
    sum_m down[m][x] t^m with down[m][x] the strict chains of m+1 ideals
    ending at x.

    F_x = 1 + t * sum_{p in Max(x)} Z_p(x - p), where Z_p(y) sums F over
    the ideals z <= y with y - z inside the elements before p.  Heap
    positions are a linear extension of P, so the largest element of
    x - z is maximal in x, and sorting the ideals below x by it is the
    zeta transform of a distributive lattice (Stanley, EC I, 3.4):
    Z_p(y) = F_y + sum_{q in Max(y), q < p} Z_q(y - q), the running
    prefix at y, handed up each cover (y, y + p, p) in index order.
    """
    inbox: list = [[] for _ in upper]
    for x, covers in enumerate(upper):
        incoming = sorted(inbox[x])
        inbox[x] = None
        f = 1 + (sum(z for _, z in incoming) << shift)
        run, i = f, 0
        for p, hi in covers:
            while i < len(incoming) and incoming[i][0] < p:
                run += incoming[i][1]
                i += 1
            inbox[hi].append((p, run))
        yield f


def _strict_products(lattice: IdealLattice) -> tuple[int, tuple[int, ...]]:
    """(W, products): per ideal x, P_x = F_x * G_x at t = 2**W, whose
    W-bit slot k holds the strict k-chains through x, k = 0..|P|.

    G_x, the up polynomial, is F on the dual lattice.  Every sum the rows
    take stays below 2**W in each slot, so no slot of a product or of
    such a sum carries into the next (Kronecker substitution).  Let c_k
    be the number of strict k-chains and C = sum_k c_k = sum_x F_x(1),
    one walk at t = 1.  Slot k summed over all products is (k+1) * c_k
    <= (|P|+1) * C, since a k-chain passes through k+1 ideals.  An ideal
    is the lower end of at most one cover labelled p and the upper end
    of at most one, and its down-degree is at most |P|; so no slot of a
    per-label sum or of the total exceeds (|P|+1) * C, and none of the
    ddeg sum exceeds |P| * (|P|+1) * C.  Both are below 2**W for W =
    bit_length((|P|+1)^2 * C).
    """
    upper, dual = _cover_lists(lattice)
    chains = sum(_down_polynomials(upper, 0))
    width = ((len(lattice.heap) + 1) ** 2 * chains).bit_length()
    up = list(_down_polynomials(dual, width))  # dual index N-1-x: last is x = 0
    return width, tuple(f * up.pop() for f in _down_polynomials(upper, width))


def label_sums(lattice: IdealLattice, values) -> tuple[list, list]:
    """(lows, highs): per element p, the sum of ``values`` (one per ideal)
    over the lower ends of the covers labelled p and over their upper
    ends.  A weighting is toggle-symmetric at p exactly when the two
    sums are equal."""
    lows, highs = [0] * len(lattice.heap), [0] * len(lattice.heap)
    for lo, hi, p in lattice.covers:
        lows[p] += values[lo]
        highs[p] += values[hi]
    return lows, highs


def _chain_sums(lattice: IdealLattice, products) -> tuple[list[int], list[int], int, int]:
    """``label_sums`` of ``products``, then the sum of ddeg times them,
    and their sum."""
    lows, highs = label_sums(lattice, products)
    return lows, highs, sum(map(mul, lattice.down_degrees, products)), sum(products)


def _unpack(value: int, width: int, slots: int) -> list[int]:
    """The ``slots`` W-bit slots of ``value``, lowest first."""
    mask = (1 << width) - 1
    return [value >> (k * width) & mask for k in range(slots)]


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
    if mode == STRICT and k > rank:
        raise DomainError(f"strict chain length {k} exceeds lattice rank {rank}")
    width, products = _strict_products(lattice)
    if mode == STRICT:
        mask = (1 << width) - 1
        return tuple(c >> (k * width) & mask for c in products)
    weights = _multichain_weights(k, rank)
    return tuple(sum(map(mul, weights, _unpack(c, width, len(weights)))) for c in products)


class ChainRow(NamedTuple):
    """What the toggle-symmetry and expectation checks read off one
    integer weighting c of the ideals: a vector of chain counts, or the
    0/1 indicator of an orbit."""

    differences: tuple[tuple[int, int], ...]  # (element p, d != 0), ascending p
    ddeg_sum: int  # sum of ddeg * c
    total: int  # sum of c

    @property
    def expectation(self) -> Fraction:
        return Fraction(self.ddeg_sum, self.total)


def read_chain_rows(
    lattice: IdealLattice, width: int, products, slots: int
) -> tuple[ChainRow, ...]:
    """The ``ChainRow`` of every slot k < ``slots`` of the packed
    ``products``, one per ideal, in W-bit slots that no sum read here
    carries out of.

    For element p and each k, d = the sum of slot k over the lower ends
    of the covers labelled p minus the sum over their upper ends; the
    weighting is toggle-symmetric at p exactly when every d is 0.  The
    two packed sums are compared whole and unpacked only when they
    differ.
    """
    lows, highs, ddeg_sum, total = _chain_sums(lattice, products)
    differences: list[list[tuple[int, int]]] = [[] for _ in range(slots)]
    for p, (low, high) in enumerate(zip(lows, highs)):
        if low != high:
            pairs = zip(_unpack(low, width, slots), _unpack(high, width, slots))
            for k, (a, b) in enumerate(pairs):
                if a != b:
                    differences[k].append((p, a - b))
    return tuple(
        ChainRow(tuple(diff), s, c)
        for diff, s, c in zip(
            differences, _unpack(ddeg_sum, width, slots), _unpack(total, width, slots)
        )
    )


def strict_chain_rows(lattice: IdealLattice) -> tuple[ChainRow, ...]:
    """The ``ChainRow`` of the strict k-chain counts, k = 0..|P|."""
    return read_chain_rows(lattice, *_strict_products(lattice), len(lattice.heap) + 1)


def orbit_rows(lattice: IdealLattice, orbits) -> tuple[ChainRow, ...]:
    """The ``ChainRow`` of each orbit's 0/1 indicator, orbit j in slot j.

    An ideal of J(P) is the lower end of at most one cover labelled p
    and the upper end of at most one, and its down-degree is at most
    |P|; so for 0/1 indicators no slot of any sum the rows read exceeds
    |J(P)| * |P|, and W = bit_length(|J(P)| * (|P| + 1)) keeps every
    slot from carrying.  An empty orbit (no expectation), an index out
    of range or one repeated within an orbit (not a 0/1 indicator)
    raises ``DomainError``.
    """
    width = (len(lattice) * (len(lattice.heap) + 1)).bit_length()
    packed = [0] * len(lattice)
    for j, orbit in enumerate(orbits):
        _check_orbit(lattice, orbit)
        for k in orbit:
            packed[k] += 1 << (j * width)
    return read_chain_rows(lattice, width, packed, len(orbits))


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
    plus, minus = label_sums(lattice, weights)
    violations = [(p, e, f) for p, (e, f) in enumerate(zip(plus, minus)) if e != f]
    return ToggleSymmetryReport(len(lattice.heap), tuple(violations))


def _check_orbit(lattice: IdealLattice, orbit) -> None:
    """An orbit is nonempty, and each of its indices names an ideal, at
    most once."""
    if not orbit:
        raise DomainError("empty orbit")
    seen = set()
    for k in orbit:
        if not 0 <= k < len(lattice):
            raise DomainError(f"ideal index {k} out of range 0..{len(lattice) - 1}")
        if k in seen:
            raise DomainError(f"ideal index {k} repeats in the orbit")
        seen.add(k)


def orbit_distribution(lattice: IdealLattice, orbit: tuple[int, ...]) -> Distribution:
    """Uniform on the given ideal indices, zero elsewhere; the orbit is
    checked as in ``orbit_rows``."""
    _check_orbit(lattice, orbit)
    share = Fraction(1, len(orbit))
    probs = [Fraction(0)] * len(lattice)
    for k in orbit:
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


def toggle_polytope(lattice: IdealLattice) -> tuple[list[list[int]], list[int]]:
    """Equality system of the toggle-symmetric polytope, in integers:
    probabilities sum to one (row 0) and every element p is as likely to
    be insertable as deletable (row p + 1, +1 at the lower end of each
    cover labelled p and -1 at its upper end)."""
    n = len(lattice)
    rows = [[1] * n] + [[0] * n for _ in range(len(lattice.heap))]
    for lo, hi, p in lattice.covers:
        rows[p + 1][lo] += 1
        rows[p + 1][hi] -= 1
    return rows, [1] + [0] * len(lattice.heap)


def _dual_witness(lattice: IdealLattice) -> tuple[Fraction, ...] | None:
    """y with A^T y = ddeg on every ideal, for A the equality matrix of
    ``toggle_polytope``, or None.

    On a heap with a base weight, the Rush-Shi isomorphism gives y in
    closed form, ``stats.closed_form_witness``, whose residues are the
    ``ddeg_decomposition`` row.  That y is returned when it has none;
    the Gram solve of ``_gram_witness`` runs only for a heap without a
    base weight or when the closed form has residues.  Only the exact
    check certifies.
    """
    h = lattice.heap
    if h.base is not None:
        y, d = closed_form_witness(h), h.cartan.det
        if not witness_residues(lattice, y, d):
            return tuple(Fraction(v, d) for v in y)
    return _gram_witness(lattice)


def _gram_witness(lattice: IdealLattice) -> tuple[Fraction, ...] | None:
    """The dual witness y from the normal equations (A A^T) y = A ddeg,
    for A the rows of ``toggle_polytope``, or None.

    ``_bareiss_solve`` solves the system in integers, and
    ``witness_residues`` decides.  When A has full row rank the solution
    is unique and has no residues exactly when ddeg lies in the row span
    of A.  A singular Gram matrix also gives None.
    """
    rows, _ = toggle_polytope(lattice)
    degrees = lattice.down_degrees
    gram = [[sum(map(mul, a, b)) for b in rows] for a in rows]
    solved = _bareiss_solve(gram, [[sum(map(mul, a, degrees)) for a in rows]])
    if solved is None:
        return None
    (x,), d = solved
    if witness_residues(lattice, x, d):
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
