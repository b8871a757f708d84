"""Toggle indicator identities on ideals, checked exactly in integers.

For an ideal I and element p, the indicators record whether toggling at
p would insert p (plus), delete p (minus), or fix I; the lattice keeps
them per ideal as the bit masks ``IdealLattice.toggle_masks``.
Down-degree is the number of deletable elements.  ``identity_suite``
certifies, on every ideal, the identities tying those indicators to
inner products of the ideal's weight w:

* the count of label-i elements of I equals
  2 ((base, omega_i) - (w, omega_i)) / (alpha_i, alpha_i);
* the signed indicator sum over the label-i fiber equals (w, alpha_i^vee);
* the position-weighted sum  sum_j (j-1) plus_j - j minus_j  over the
  fiber equals  count_i(I) (w, alpha_i^vee);
* the fiber statistic
  sum_j minus_j - sum_j (j-1) signed_j
  + (2 (base, omega_i) / (alpha_i, alpha_i)) sum_j signed_j
  equals (2/(alpha_i, alpha_i)) (w, omega_i) (w, alpha_i^vee);
* down-degree decomposes as the constant 2 (base, base) / omega_sq plus
  a fixed linear combination of signed indicators, and the fiber
  statistics sum to that same constant on every ideal, which is what
  pins the expected down-degree of every toggle-symmetric distribution.

Every identity is compared as integers scaled by d = det C.  With adj
the adjugate of C, the inner product (mu, nu) is mu^T adj nu / d times
omega_sq / 2, and that last factor cancels from every identity; so
d (w, omega_i) becomes the adjugate row sum (adj w)_i, d (alpha_i,
alpha_i) becomes alpha_i^T adj alpha_i, and the constant is
base^T adj base / d.  No Fraction is built for integral weights.  The
per-(ideal, node) reference checks these replace live in the test
oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .bits import iter_bits
from .cartan import CartanDatum, Rational, Weight, inner_product
from .errors import DomainError
from .ideals import IdealLattice


def tcde_constant(cd: CartanDatum, lam: Weight) -> Fraction:
    """2 (lam, lam) / omega_sq: the down-degree expectation shared by all
    toggle-symmetric distributions on the lattice of the minuscule heap."""
    return 2 * inner_product(cd, lam, lam) / cd.omega_sq


class CheckRow(NamedTuple):
    """One report row: a check, its instance count and its failures."""

    check: str
    instances: int
    failures: int


def _adjugate_sums(cd: CartanDatum, mu: Weight) -> list[Rational]:
    """(adj mu)_i for every node: d (mu, omega_i) up to omega_sq / 2."""
    return [sum(m * a for m, a in zip(mu, row) if m) for row in cd.adjugate]


def identity_suite(lattice: IdealLattice) -> tuple[CheckRow, ...]:
    """Check every identity on every (ideal, node) pair of a lattice."""
    h = lattice.heap
    cd = h.cartan
    if lattice.weights is None:
        raise DomainError("lattice carries no weights; build the heap with a base weight")
    if h.base is None:
        raise DomainError("heap carries no base weight")
    base_sums = _adjugate_sums(cd, h.base)
    position = [0] * len(h)  # fiber position j, counted from 1 in heap order
    nodes = []
    for i in cd.nodes:
        for j, p in enumerate(h.fibers[i], start=1):
            position[p] = j
        alpha = cd.matrix[i - 1]
        root_sq = sum(a * s for a, s in zip(alpha, _adjugate_sums(cd, alpha)))
        nodes.append((i - 1, h.fiber_masks[i], root_sq, 2 * base_sums[i - 1]))
    scale = lcm(cd.det, *(root_sq for _, _, root_sq, _ in nodes))
    # scale times the constant 2 (base, base) / omega_sq = base^T adj base / d
    target = scale // cd.det * sum(b * s for b, s in zip(h.base, base_sums))

    label = signed = weighted = statistic = decomposition = 0
    for mask, w, (adds, removes), ddeg in zip(
        lattice.ideals, lattice.weights, lattice.toggle_masks, lattice.down_degrees
    ):
        w_sums = _adjugate_sums(cd, w)
        reconstructed = statistic_sum = 0
        for col, fiber, root_sq, two_base in nodes:
            count = (mask & fiber).bit_count()
            pairing = w[col]
            plus, minus = adds & fiber, removes & fiber
            n_plus, n_minus = plus.bit_count(), minus.bit_count()
            plus_pos = sum(position[p] for p in iter_bits(plus))
            minus_pos = sum(position[p] for p in iter_bits(minus))
            signed_sum = n_plus - n_minus
            weighted_sum = (plus_pos - n_plus) - minus_pos
            shifted = weighted_sum + n_minus  # sum_j (j-1) signed_j
            # the fiber statistic times d (alpha_i, alpha_i)
            fiber_stat = root_sq * (n_minus - shifted) + two_base * signed_sum
            label += count * root_sq != 2 * (base_sums[col] - w_sums[col])
            signed += signed_sum != pairing
            weighted += weighted_sum != count * pairing
            statistic += fiber_stat != 2 * w_sums[col] * pairing
            per_root = scale // root_sq
            reconstructed += per_root * (root_sq * shifted - two_base * signed_sum)
            statistic_sum += per_root * fiber_stat
        decomposition += scale * ddeg != target + reconstructed or statistic_sum != target
    pairs = len(lattice) * cd.rank
    return (
        CheckRow("label_count", pairs, label),
        CheckRow("signed_toggle_sum", pairs, signed),
        CheckRow("weighted_toggle_sum", pairs, weighted),
        CheckRow("fiber_statistic", pairs, statistic),
        CheckRow("ddeg_decomposition", len(lattice), decomposition),
    )
