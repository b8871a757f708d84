"""Label toggles and toggle indicator identities on ideals, checked
exactly in integers in one pass.

For an ideal I and element p, the indicators record whether toggling at
p would insert p (plus), delete p (minus), or fix I; the lattice keeps
them per ideal as the bit masks ``IdealLattice.toggle_masks``.
Down-degree is the number of deletable elements.  ``toggle_suite``
reads those masks once per (ideal, node) pair and certifies two things
on every pair.  Commutation: toggling the label fiber of I lands on the
ideal whose weight is the reflected weight of I; the lattice is J(P),
checked at construction, so that toggle always names an ideal.  And
the identities tying the indicators to inner products of the ideal's
weight w:

* the count of label-i elements of I equals (base, omega_i) - (w, omega_i);
* the signed indicator sum over the label-i fiber equals (w, alpha_i^vee);
* the position-weighted sum  sum_j (j-1) plus_j - j minus_j  over the
  fiber equals  count_i(I) (w, alpha_i^vee);
* the fiber statistic
  sum_j minus_j - sum_j (j-1) signed_j + (base, omega_i) sum_j signed_j
  equals (w, omega_i) (w, alpha_i^vee);
* down-degree equals the constant (base, base) plus
  sum_i sum_j ((j-1) - (base, omega_i)) signed_j.  The fiber statistics
  then sum to that same constant on every ideal, since the minus_j over
  all fibers count the deletable elements; that pins the expected
  down-degree of every toggle-symmetric distribution.

The last identity is A^T y = ddeg for the equality matrix A of the
toggle polytope and the dual witness y in closed form: y_0 = (base,
base), y_p = (j-1) - (base, omega_i).  So ``closed_form_witness`` builds
that y once and ``witness_residues``, one pass over the covers, counts
the ideals where it fails; that count is the ``ddeg_decomposition`` row,
and ``cde`` returns y as the LP witness when it is 0.

These are the forms with (alpha_i, alpha_i) = 2, the one root length
``cartan`` supports.  Every identity is compared as integers multiplied by
d = det C: d (mu, omega_i) is the entry (adj C mu)_i that
``cartan.det_pairings`` returns, and d (base, base) is base^T adj C
base.  No Fraction is built for integral weights.  Those pairings are
carried along the covers: a cover labelled i reflects the weight by
s_i, which subtracts mu_i alpha_i, and adj C alpha_i = d e_i, so one
entry changes by mu_i d.  Each ideal but the empty one takes them along
``IdealLattice.entering``, its first cover in, when its stored weight is
the reflected weight of the cover's lower end, and computes them
directly otherwise, so they stay exact for any stored weights (the
constructor checks only how many there are).  Commutation compares
those pairings too: adj C is invertible, so two weights are equal
exactly when their pairings are, and the pairings of s_i w are those
of w with entry i lowered by w_i d.
The per-(ideal, node) reference checks this pass replaces live in the
test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bits import iter_bits
from .cartan import CartanDatum, Weight, _reflect, det_pairings, inner_product
from .errors import DomainError
from .heap import Heap
from .ideals import IdealLattice, toggle_label


def tcde_constant(cd: CartanDatum, lam: Weight) -> Fraction:
    """(lam, lam): the down-degree expectation shared by all
    toggle-symmetric distributions on the lattice of the minuscule heap."""
    return inner_product(cd, lam, lam)


class CheckRow(NamedTuple):
    """One report row: a check, its instance count and its failures."""

    check: str
    instances: int
    failures: int


class ToggleSuite(NamedTuple):
    """The rows of ``toggle_suite``: ``commutation``, then the five
    identity rows, and the (ideal index, node) pairs where commutation
    fails."""

    rows: tuple[CheckRow, ...]
    violations: tuple[tuple[int, int], ...]


def closed_form_witness(h: Heap) -> list[int]:
    """det C times the dual witness y of the toggle polytope in closed
    form, from the heap's base weight lam: y_0 = (lam, lam), and y_p =
    (t - 1) - (lam, omega_i) for p named (i, t) in ``Heap.names``, the
    t-th element of the label-i fiber.  On a minuscule heap A^T y = ddeg
    on every ideal, which is the ``ddeg_decomposition`` identity."""
    cd = h.cartan
    base_sums = det_pairings(cd, h.base)
    y0 = sum(b * s for b, s in zip(h.base, base_sums))
    return [y0, *(cd.det * (t - 1) - base_sums[i - 1] for i, t in h.names)]


def witness_residues(lattice: IdealLattice, y: list[int], d: int) -> int:
    """How many ideals have A^T y != d ddeg, for A the equality matrix of
    the toggle polytope: y_0, plus y_p over the covers up from the ideal,
    minus y_p over those down from it.  One pass over the covers."""
    values = [y[0]] * len(lattice)
    for lo, hi, p in lattice.covers:
        values[lo] += y[p + 1]
        values[hi] -= y[p + 1]
    return sum(v != d * ddeg for v, ddeg in zip(values, lattice.down_degrees))


def toggle_suite(lattice: IdealLattice) -> ToggleSuite:
    """Check commutation and every identity on every (ideal, node) pair
    of a lattice, in one pass, and ``ddeg_decomposition`` on every ideal
    as the residues of ``closed_form_witness``.

    No two elements of a fiber form a cover in a heap of a reduced word,
    so the fiber toggles at once: mask ^ ((adds | removes) & fiber), from
    the ideal's toggle masks.  A word with a repeated letter can put a
    cover inside a fiber; those labels toggle element by element through
    ``toggle_label``.
    """
    h = lattice.heap
    cd = h.cartan
    if lattice.weights is None:
        raise DomainError("lattice carries no weights; build the heap with a base weight")
    if h.base is None:
        raise DomainError("heap carries no base weight")
    d = cd.det
    labels = h.labels
    base_sums = det_pairings(cd, h.base)
    # at[b] is the fiber position t of element b - 1, named (i, t) in
    # ``Heap.names``, and at[0] = 0: a mask of at most one bit has its
    # position at[mask.bit_length()].
    at = [0, *(t for _, t in h.names)]
    chained = {labels[a] for a, b in h.covers if labels[a] == labels[b]}
    nodes = [(i, h.fiber_masks[i], base_sums[i - 1], i in chained) for i in cd.nodes]
    weights, index = lattice.weights, lattice.index

    pairings = [det_pairings(cd, weights[0])]  # per ideal, det_pairings of its weight
    for w, (lo, p) in zip(weights[1:], lattice.entering[1:]):
        i = labels[p]
        if w == _reflect(cd, i, weights[lo]):
            w_sums = pairings[lo].copy()
            w_sums[i - 1] -= weights[lo][i - 1] * d
        else:
            w_sums = det_pairings(cd, w)
        pairings.append(w_sums)

    violations = []
    label = signed = weighted = statistic = 0
    for k, (mask, w, w_sums, (adds, removes)) in enumerate(
        zip(lattice.ideals, weights, pairings, lattice.toggle_masks)
    ):
        for i, fiber, base_sum, chain in nodes:
            pairing = w[i - 1]
            plus, minus = adds & fiber, removes & fiber
            toggled = toggle_label(h, mask, i) if chain else mask ^ plus ^ minus
            reflected = w_sums  # det_pairings of s_i w
            if pairing:
                reflected = w_sums.copy()
                reflected[i - 1] -= pairing * d
            if pairings[index[toggled]] != reflected:
                violations.append((k, i))
            count = (mask & fiber).bit_count()
            n_plus, n_minus = plus.bit_count(), minus.bit_count()
            if n_plus < 2:
                plus_pos = at[plus.bit_length()]
            else:
                plus_pos = sum(at[p + 1] for p in iter_bits(plus))
            if n_minus < 2:
                minus_pos = at[minus.bit_length()]
            else:
                minus_pos = sum(at[p + 1] for p in iter_bits(minus))
            signed_sum = n_plus - n_minus
            weighted_sum = (plus_pos - n_plus) - minus_pos
            shifted = weighted_sum + n_minus  # sum_j (j-1) signed_j
            fiber_stat = d * (n_minus - shifted) + base_sum * signed_sum  # times d
            label += d * count != base_sum - w_sums[i - 1]
            signed += signed_sum != pairing
            weighted += weighted_sum != count * pairing
            statistic += fiber_stat != w_sums[i - 1] * pairing
    pairs = len(lattice) * cd.rank
    decomposition = witness_residues(lattice, closed_form_witness(h), d)
    rows = (
        CheckRow("commutation", pairs, len(violations)),
        CheckRow("label_count", pairs, label),
        CheckRow("signed_toggle_sum", pairs, signed),
        CheckRow("weighted_toggle_sum", pairs, weighted),
        CheckRow("fiber_statistic", pairs, statistic),
        CheckRow("ddeg_decomposition", len(lattice), decomposition),
    )
    return ToggleSuite(rows, tuple(violations))


def identity_suite(lattice: IdealLattice) -> tuple[CheckRow, ...]:
    """The five identity rows of ``toggle_suite``."""
    return toggle_suite(lattice).rows[1:]


class CommutationReport(NamedTuple):
    """Exhaustive check that label toggles match simple reflections
    through the ideal-to-weight map."""

    instances: int
    violations: tuple[tuple[int, int], ...]  # (ideal index, node)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_commutation(lattice: IdealLattice) -> CommutationReport:
    """The ``commutation`` row of ``toggle_suite``, with its violations."""
    suite = toggle_suite(lattice)
    return CommutationReport(suite.rows[0].instances, suite.violations)
