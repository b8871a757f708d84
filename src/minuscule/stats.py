"""Toggle indicator identities on ideals, checked exactly in integers.

For an ideal I and element p, the indicators record whether toggling at
p would insert p (plus), delete p (minus), or fix I; the lattice keeps
them per ideal as the bit masks ``IdealLattice.toggle_masks``.
Down-degree is the number of deletable elements.  ``identity_suite``
certifies, on every ideal, the identities tying those indicators to
inner products of the ideal's weight w:

* the count of label-i elements of I equals (base, omega_i) - (w, omega_i);
* the signed indicator sum over the label-i fiber equals (w, alpha_i^vee);
* the position-weighted sum  sum_j (j-1) plus_j - j minus_j  over the
  fiber equals  count_i(I) (w, alpha_i^vee);
* the fiber statistic
  sum_j minus_j - sum_j (j-1) signed_j + (base, omega_i) sum_j signed_j
  equals (w, omega_i) (w, alpha_i^vee);
* down-degree equals the constant (base, base) plus
  sum_i sum_j ((j-1) - (base, omega_i)) signed_j, and the fiber
  statistics sum to that same constant on every ideal, which is what
  pins the expected down-degree of every toggle-symmetric distribution.

These are the forms with (alpha_i, alpha_i) = 2, the one root length
``cartan`` supports.  Every identity is compared as integers multiplied by
d = det C: d (mu, omega_i) is the entry (adj C mu)_i that
``cartan.det_pairings`` returns, and d (base, base) is base^T adj C
base.  No Fraction is built for integral weights.  The per-(ideal,
node) reference checks these replace live in the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bits import iter_bits
from .cartan import CartanDatum, Weight, det_pairings, inner_product
from .errors import DomainError
from .ideals import IdealLattice


def tcde_constant(cd: CartanDatum, lam: Weight) -> Fraction:
    """(lam, lam): the down-degree expectation shared by all
    toggle-symmetric distributions on the lattice of the minuscule heap."""
    return inner_product(cd, lam, lam)


class CheckRow(NamedTuple):
    """One report row: a check, its instance count and its failures."""

    check: str
    instances: int
    failures: int


def identity_suite(lattice: IdealLattice) -> tuple[CheckRow, ...]:
    """Check every identity on every (ideal, node) pair of a lattice."""
    h = lattice.heap
    cd = h.cartan
    if lattice.weights is None:
        raise DomainError("lattice carries no weights; build the heap with a base weight")
    if h.base is None:
        raise DomainError("heap carries no base weight")
    d = cd.det
    base_sums = det_pairings(cd, h.base)
    position = [0] * len(h)  # fiber position j, counted from 1 in heap order
    for i in cd.nodes:
        for j, p in enumerate(h.fibers[i], start=1):
            position[p] = j
    nodes = [(i - 1, h.fiber_masks[i], base_sums[i - 1]) for i in cd.nodes]
    target = sum(b * s for b, s in zip(h.base, base_sums))  # d (base, base)

    label = signed = weighted = statistic = decomposition = 0
    for mask, w, (adds, removes), ddeg in zip(
        lattice.ideals, lattice.weights, lattice.toggle_masks, lattice.down_degrees
    ):
        w_sums = det_pairings(cd, w)
        reconstructed = statistic_sum = 0
        for col, fiber, base_sum in nodes:
            count = (mask & fiber).bit_count()
            pairing = w[col]
            plus, minus = adds & fiber, removes & fiber
            n_plus, n_minus = plus.bit_count(), minus.bit_count()
            plus_pos = sum(position[p] for p in iter_bits(plus))
            minus_pos = sum(position[p] for p in iter_bits(minus))
            signed_sum = n_plus - n_minus
            weighted_sum = (plus_pos - n_plus) - minus_pos
            shifted = weighted_sum + n_minus  # sum_j (j-1) signed_j
            fiber_stat = d * (n_minus - shifted) + base_sum * signed_sum  # times d
            label += d * count != base_sum - w_sums[col]
            signed += signed_sum != pairing
            weighted += weighted_sum != count * pairing
            statistic += fiber_stat != w_sums[col] * pairing
            reconstructed += d * shifted - base_sum * signed_sum
            statistic_sum += fiber_stat
        decomposition += d * ddeg != target + reconstructed or statistic_sum != target
    pairs = len(lattice) * cd.rank
    return (
        CheckRow("label_count", pairs, label),
        CheckRow("signed_toggle_sum", pairs, signed),
        CheckRow("weighted_toggle_sum", pairs, weighted),
        CheckRow("fiber_statistic", pairs, statistic),
        CheckRow("ddeg_decomposition", len(lattice), decomposition),
    )
