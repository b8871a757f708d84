"""Simply laced root data: Cartan matrices, inner products, reflections.

Weights are plain tuples of coordinates in the fundamental-weight basis,
so the i-th coordinate of ``mu`` is the coroot pairing (mu, alpha_i^vee).
Every root has squared length 2, fixed here once as the class constant
``CartanDatum.omega_sq``: types A, D and E are simply laced, so no other
length occurs.  Coroots then coincide with roots; the simple root
alpha_i has coordinate vector equal to row i of the Cartan matrix, and
both reflections and coroot pairings are integer row operations.

The inverse Cartan matrix is kept as an integer adjugate and determinant
from ``_bareiss_solve``, the fraction-free solver ``cde`` shares for its
dual witness (when no witness exists, ``cde`` runs the simplex, which
pivots by Bland's rule only).  ``det_pairings`` gives det C (mu,
omega_i) for every node, so an inner product of integral weights is an
integer sum over det C.

Node numbering follows Bourbaki.  In type D the fork sits at node
rank-2, with nodes rank-1 and rank as the two prongs.  In type E the
chain is 1-3-4-5-6(-7) and node 2 hangs off node 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import ConfigurationError, DomainError
from .frozen import Frozen

Rational = int | Fraction
Weight = tuple[Rational, ...]


def _dynkin_edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A" and rank >= 1:
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D" and rank >= 3:
        edges = [(i, i + 1) for i in range(1, rank - 2)]
        edges += [(rank - 2, rank - 1), (rank - 2, rank)]
        return edges
    if family == "E" and rank in (6, 7):
        chain = [1, 3, 4, 5, 6, 7][: rank - 1]
        edges = list(zip(chain, chain[1:]))
        edges.append((2, 4))
        return sorted(edges)
    raise ConfigurationError(f"unsupported Cartan type {family}{rank}")


def _bareiss_solve(matrix: list[list[int]], columns: list[list[int]]) -> tuple[list, int] | None:
    """Integer columns x_j and d != 0 such that x_j / d solves the square
    integer system ``matrix y = b_j`` for each b_j in ``columns``, or None
    when the matrix is singular.

    Fraction-free (Bareiss) elimination, once for all columns: every
    entry stays an integer minor of the input, so every division is
    exact, and the last pivot d is the determinant up to sign, so d y is
    integral by Cramer's rule.
    """
    n = len(matrix)
    aug = [row[:] + [b[i] for b in columns] for i, row in enumerate(matrix)]
    width = n + len(columns)
    prev = 1
    for c in range(n):
        pick = next((i for i in range(c, n) if aug[i][c]), None)
        if pick is None:
            return None
        aug[c], aug[pick] = aug[pick], aug[c]
        top = aug[c]
        pv = top[c]
        for row in aug[c + 1 :]:
            f = row[c]
            for j in range(c + 1, width):
                row[j] = (pv * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pv
    solutions = []
    for col in range(n, width):
        x = [0] * n
        for c in reversed(range(n)):
            row = aug[c]
            x[c] = (prev * row[col] - sum(row[j] * x[j] for j in range(c + 1, n))) // row[c]
        solutions.append(x)
    return solutions, prev


class CartanDatum(Frozen):
    """A simply laced Cartan matrix with its integer adjugate and
    determinant, so that inverse = adjugate / det."""

    omega_sq = Fraction(2)  # (alpha_i, alpha_i) for every root

    def __init__(
        self,
        family: str,
        rank: int,
        matrix: tuple[tuple[int, ...], ...],
        adjugate: tuple[tuple[int, ...], ...],
        det: int,
    ) -> None:
        self._set(family=family, rank=rank, matrix=matrix, adjugate=adjugate, det=det)

    @property
    def nodes(self) -> range:
        """Node indices, 1-based."""
        return range(1, self.rank + 1)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Row i-1 lists the nodes j with A[i][j] != 0: node i and its
        Dynkin neighbours, the labels whose reflections do not commute."""
        return tuple(tuple(j for j, a in enumerate(row, 1) if a) for row in self.matrix)

    def __repr__(self) -> str:
        return f"CartanDatum({self.family}{self.rank})"


def build_cartan(family: str, rank: int) -> CartanDatum:
    """Build the Cartan datum for ``family`` in {A, D, E} at ``rank``.

    Supported ranks: A with rank >= 1, D with rank >= 3, E with rank 6
    or 7.  Anything else raises ConfigurationError naming the pair.

    The adjugate comes from one ``_bareiss_solve`` of C x = e_j for all
    j at once.  Every leading minor of a finite-type Cartan matrix is
    positive, so no row is swapped, the last pivot is det C > 0 and x_j
    is column j of the adjugate.
    """
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ConfigurationError(f"rank must be an integer, got {rank!r}")
    edges = _dynkin_edges(family, rank)
    matrix = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        matrix[a - 1][b - 1] = -1
        matrix[b - 1][a - 1] = -1
    identity = [[int(i == j) for i in range(rank)] for j in range(rank)]
    columns, det = _bareiss_solve(matrix, identity)
    adjugate = tuple(zip(*columns))
    frozen = tuple(tuple(row) for row in matrix)
    return CartanDatum(family, rank, frozen, adjugate, det)


def _check_node(cd: CartanDatum, i: int) -> None:
    """A node is an int (not a bool) in 1..rank; anything else raises."""
    if not isinstance(i, int) or isinstance(i, bool):
        raise DomainError(f"node must be an integer, got {i!r}")
    if not 1 <= i <= cd.rank:
        raise DomainError(f"node {i} out of range for {cd.family}{cd.rank}")


def _check_weight(cd: CartanDatum, mu: Weight) -> None:
    if len(mu) != cd.rank:
        raise DomainError(f"weight has {len(mu)} coordinates, expected {cd.rank}")


def fundamental_weight(cd: CartanDatum, k: int) -> Weight:
    _check_node(cd, k)
    return tuple(int(j == k - 1) for j in range(cd.rank))


def det_pairings(cd: CartanDatum, mu: Weight) -> list[Rational]:
    """det C (mu, omega_i) for every node i: the entries of (adj C) mu,
    integers for an integral weight.  Unchecked."""
    return [sum(m * a for m, a in zip(mu, row) if m) for row in cd.adjugate]


def inner_product(cd: CartanDatum, mu: Weight, nu: Weight) -> Fraction:
    """Exact inner product mu^T (adj C) nu / det C, via (omega_i, omega_j)
    = adjugate[i][j] / det.  The sum stays an integer for integral
    weights; a single Fraction is built at the end."""
    _check_weight(cd, mu)
    _check_weight(cd, nu)
    return Fraction(sum(m * s for m, s in zip(mu, det_pairings(cd, nu)) if m), cd.det)


def _reflect(cd: CartanDatum, i: int, mu: Weight) -> Weight:
    """mu - mu_i * (row i of the Cartan matrix), unchecked: the arithmetic
    of ``simple_reflection`` for callers whose node and weight are valid
    by construction."""
    mi = mu[i - 1]
    if mi == 0:
        return tuple(mu)
    return tuple([m - mi * a for m, a in zip(mu, cd.matrix[i - 1])])


def simple_reflection(cd: CartanDatum, i: int, mu: Weight) -> Weight:
    """Reflect mu through alpha_i: mu - (mu, alpha_i^vee) alpha_i."""
    _check_node(cd, i)
    _check_weight(cd, mu)
    return _reflect(cd, i, mu)


def is_integral(mu: Weight) -> bool:
    return all(isinstance(m, int) or (isinstance(m, Fraction) and m.denominator == 1) for m in mu)


def is_dominant(mu: Weight) -> bool:
    return all(m >= 0 for m in mu)
