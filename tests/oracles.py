"""Independent brute-force oracles the tests check the library against.

Everything here recomputes results from first principles with the
dumbest correct algorithm available (fixpoint closures, powerset
filters, exhaustive chain enumeration, subset-table and zeta-table
chain counts, zeta-level strict chain rows, basis enumeration for
polytope vertices, the quadratic heap builder, the pairwise structure
check, the all-reflections orbit closure and the rescanning ideal
enumerator) and stays deliberately ignorant of the library's internals.
The per-(ideal, node) identity checks at the end are the exception: they
are the reference for the batched integer suite, so they take their
Fraction inner products and weights from the library's public API.
The quadratic heap builder returns a library ``Heap`` beside the
tables it computes, so each table a ``Heap`` derives compares directly,
``rowmotion_by_toggles`` sweeps the library's ``toggle``,
``commutation_violations_by_toggle_label`` its
``toggle_label``, and ``replayed_rebuild_failures`` replays the heap
builder's ``_rest_on_last`` once per whole word, where the library
rebuilds a ``Heap`` and matches it by names; ``every_extension_rebuilds``
composes the public heap functions over every linear extension.
``exact_product_width`` is the pass at t = 1 that once set the slot
width of the packed strict products from the sums the rows take, so it
runs the library's chain walk; it is the measured width that the
library's bound must never undercut.
``positive_roots``, ``weyl_dimension`` and ``coxeter_number`` read the
Cartan matrix alone, and ``value_at_root_of_unity`` reads the
``ideal_size_polynomial`` of a lattice at a root of unity as its
remainder modulo a ``cyclotomic`` polynomial, by integer long division.
The lookups that only tests read (the Cartan inverse as Fractions, the
minuscule node table, simple roots, coroot pairings and the weight of
an ideal folded from its reflections) live here too, the last through
the library's public ``simple_reflection``.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from minuscule import (
    DomainError,
    Heap,
    ResourceLimitError,
    fundamental_weight,
    heap_from_word,
    heaps_isomorphic,
    inner_product,
    random_linear_extension,
    simple_reflection,
    tcde_constant,
    toggle,
    toggle_label,
    word_of_extension,
)
from minuscule.cde import ChainRow, _chain_sums, _cover_lists, _down_polynomials
from minuscule.heap import _rest_on_last
from minuscule.stats import CheckRow


def reflect(matrix, i, mu):
    """Reflection through node i (1-based) on fundamental coordinates."""
    mi = mu[i - 1]
    return tuple(m - mi * a for m, a in zip(mu, matrix[i - 1]))


def closure_orbit(matrix, lam):
    """Fixpoint closure of {lam} under all reflections."""
    rank = len(matrix)
    seen = {tuple(lam)}
    while True:
        fresh = {
            reflect(matrix, i, mu) for mu in seen for i in range(1, rank + 1)
        } - seen
        if not fresh:
            return seen
        seen |= fresh


def all_reflections_orbit(matrix, lam):
    """The orbit as the library built it before it walked positive
    coordinates only: a breadth-first closure under every reflection,
    each layer sorted, then the covers from a rescan of every (weight,
    node).  Returns (weights, covers, layers)."""
    rank = len(matrix)
    seen = {lam}
    order, layers = [lam], [0]
    frontier = [lam]
    while frontier:
        fresh = {reflect(matrix, i, mu) for mu in frontier for i in range(1, rank + 1)} - seen
        layer = layers[-1] + 1
        frontier = sorted(fresh)
        seen |= fresh
        order += frontier
        layers += [layer] * len(frontier)
    index = {w: k for k, w in enumerate(order)}
    covers = tuple(
        (u, index[reflect(matrix, i, mu)], i)
        for u, mu in enumerate(order)
        for i in range(1, rank + 1)
        if mu[i - 1] == 1
    )
    return tuple(order), covers, tuple(layers)


def scanning_ideals(h, cap):
    """J(P) as the library enumerated it before it kept ready masks: a
    breadth-first walk up from the empty ideal that rescans all of P for
    the addable elements of each ideal, then sorts the ideals by
    (cardinality, mask) and the covers.  Returns (ideals, covers,
    weights), or raises the library's ResourceLimitError when a new ideal
    would take the count past ``cap``."""
    matrix = h.cartan.matrix
    seen = {0}
    queue = [0]
    weights = {0: h.base}
    edges = []
    for m in queue:
        for p in range(len(h)):
            if m >> p & 1 or h.below[p] & m != h.below[p]:
                continue
            nm = m | 1 << p
            edges.append((m, nm, p))
            if nm not in seen:
                if len(seen) >= cap:
                    raise ResourceLimitError(f"ideal count exceeds cap of {cap}")
                seen.add(nm)
                if h.base is not None:
                    weights[nm] = reflect(matrix, h.labels[p], weights[m])
                queue.append(nm)
    masks = sorted(seen, key=lambda m: (m.bit_count(), m))
    index = {m: k for k, m in enumerate(masks)}
    covers = tuple(sorted((index[m], index[nm], p) for m, nm, p in edges))
    return tuple(masks), covers, None if h.base is None else tuple(weights[m] for m in masks)


def commutation_violations_by_toggle_label(lattice):
    """(ideal index, node) pairs where toggling the label fiber element by
    element, through the library's ``toggle_label``, lands on an ideal
    whose weight is not the reflected weight."""
    h = lattice.heap
    cd = h.cartan
    index = {m: k for k, m in enumerate(lattice.ideals)}
    return tuple(
        (k, i)
        for k, mask in enumerate(lattice.ideals)
        for i in cd.nodes
        if lattice.weights[index[toggle_label(h, mask, i)]]
        != simple_reflection(cd, i, lattice.weights[k])
    )


def gauss_jordan_inverse(matrix):
    """Exact inverse of a nonsingular square matrix by Gauss-Jordan
    elimination over Fractions, with row swaps."""
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def cartan_inverse(cd):
    """The exact inverse of the Cartan matrix, adjugate / det."""
    return tuple(tuple(Fraction(a, cd.det) for a in row) for row in cd.adjugate)


def minuscule_catalog(cd):
    """Nodes k for which omega_k is a minuscule weight, by table; the
    tests cross-check it against the orbit verifier, which accepts
    exactly these nodes."""
    if cd.family == "A":
        return tuple(cd.nodes)
    if cd.family == "D":
        return (1, cd.rank - 1, cd.rank)
    if cd.rank == 6:
        return (1, 6)
    return (7,)


def simple_root(cd, i):
    """alpha_i in fundamental-weight coordinates: row i of the Cartan
    matrix."""
    return cd.matrix[i - 1]


def coroot_pairing(cd, mu, i):
    """(mu, alpha_i^vee): the i-th fundamental coordinate of mu.  A node
    outside 1..rank or a weight of another rank raises DomainError."""
    if not 1 <= i <= cd.rank or len(mu) != cd.rank:
        raise DomainError(f"no pairing of {mu!r} with coroot {i} of {cd!r}")
    return mu[i - 1]


def ideal_weight(h, mask):
    """Weight of an ideal: fold the reflections of a linear extension
    (ascending positions) over the heap's base weight."""
    if h.base is None:
        raise DomainError("heap carries no base weight")
    w = h.base
    for p in range(len(h.labels)):
        if mask >> p & 1:
            w = simple_reflection(h.cartan, h.labels[p], w)
    return w


def identity_product(a, b):
    """Is a @ b the identity, exactly?"""
    n = len(a)
    for i in range(n):
        for j in range(n):
            entry = sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(n))
            if entry != Fraction(int(i == j)):
                return False
    return True


def powerset_ideal_masks(below, n):
    """All downward-closed subsets, by filtering the full powerset."""
    out = []
    for mask in range(1 << n):
        if all(below[p] & mask == below[p] for p in range(n) if mask >> p & 1):
            out.append(mask)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def bit_string_by_positions(mask, width):
    """0/1 string of ``mask``, one position at a time, lowest bit first."""
    return "".join("1" if mask >> p & 1 else "0" for p in range(width))


def is_ideal(h, mask):
    return all(h.below[p] & mask == h.below[p] for p in _bits(mask))


def rescan_covers(h, ideals):
    """Cover edges (lo, hi, p) found by rescanning the heap: each ideal
    in index order, then each element that can be added to it, in
    ascending order."""
    index = {m: k for k, m in enumerate(ideals)}
    return tuple(
        (k, index[m | 1 << p], p)
        for k, m in enumerate(ideals)
        for p in range(len(h))
        if not m >> p & 1 and h.below[p] & m == h.below[p]
    )


def rowmotion_by_toggles(h, mask):
    """Rowmotion as a top-to-bottom toggle sweep; agrees with
    ``rowmotion`` on every ideal."""
    for p in reversed(range(len(h))):
        mask = toggle(h, mask, p)
    return mask


def strict_chain_member_counts(n, leq, k):
    """counts[i] = number of (k+1)-element chains containing i."""
    counts = [0] * n

    def comparable(x, y):
        return leq(x, y) or leq(y, x)

    for combo in combinations(range(n), k + 1):
        if all(comparable(x, y) for x, y in combinations(combo, 2)):
            for x in combo:
                counts[x] += 1
    return counts


def multi_chain_member_counts(n, leq, k):
    """counts[i] = occurrences of i across all weakly increasing
    (k+1)-tuples, counted with multiplicity."""
    counts = [0] * n
    for tup in product(range(n), repeat=k + 1):
        if all(leq(tup[a], tup[a + 1]) for a in range(k)):
            for x in tup:
                counts[x] += 1
    return counts


def subset_table_chain_counts(ideals, k, mode):
    """Chains of k+1 ideals through each ideal, given as bit masks, by
    the two-pass dynamic program over explicit subset tables: down[m][i]
    counts chains of m+1 ideals ending at ideal i and up[m][i] those
    starting there, each level summed over every strictly smaller
    (larger) ideal, plus the ideal itself in multi mode."""
    n = len(ideals)
    strictly_below = [
        [j for j, mj in enumerate(ideals) if mj != m and mj & ~m == 0] for m in ideals
    ]
    strictly_above = [[] for _ in ideals]
    for i, lows in enumerate(strictly_below):
        for j in lows:
            strictly_above[j].append(i)
    down, up = [[1] * n], [[1] * n]
    while len(down) <= k:
        for table, related in ((down, strictly_below), (up, strictly_above)):
            prev = table[-1]
            if mode == "strict":
                table.append([sum(prev[j] for j in related[i]) for i in range(n)])
            else:
                table.append([prev[i] + sum(prev[j] for j in related[i]) for i in range(n)])
    return [sum(down[a][i] * up[k - a][i] for a in range(k + 1)) for i in range(n)]


def _zeta_level(level, edges):
    z = level[:]
    for a, b in edges:
        z[b] += z[a]
    return [s - v for s, v in zip(z, level)]


def zeta_strict_count_levels(lattice):
    """Yield the strict k-chains through each ideal, k = 0..|P|, from
    zeta-transform tables over the cover graph.

    With down[m] / up[m] the strict chains of m+1 ideals ending /
    starting at each ideal, the k-chains through it number the sum over
    a of down[a] * up[k-a].  Level m+1 sums level m over each ideal's
    strict down-set (up-set): z[hi] += z[lo] over the covers (lo, hi, p)
    in ascending p reaches every ideal below hi once, z[lo] += z[hi] in
    descending p every ideal above lo, and subtracting level m drops the
    ideal itself.  The reference for the packed strict counts."""
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


def chain_row(lattice, counts):
    """The ``ChainRow`` of one count vector c, in one pass over the
    covers: for element p, d = the sum of c over the lower ends of the
    covers labelled p minus the sum over their upper ends."""
    diff = [0] * len(lattice.heap)
    for lo, hi, p in lattice.covers:
        diff[p] += counts[lo] - counts[hi]
    nonzero = tuple((p, d) for p, d in enumerate(diff) if d)
    ddeg_sum = sum(d * c for d, c in zip(lattice.down_degrees, counts))
    return ChainRow(nonzero, ddeg_sum, sum(counts))


def zeta_strict_chain_rows(lattice):
    """The strict chain rows, one ``chain_row`` pass per zeta level."""
    return tuple(chain_row(lattice, counts) for counts in zeta_strict_count_levels(lattice))


def exact_product_width(lattice):
    """The bit length of the largest sum the strict chain rows take of
    the packed products at t = 1, where each product is every strict
    chain through its ideal: per element over either end of its covers,
    of ddeg times them, and of them all.  Each of those bounds every
    slot of the same sum at t = 2^W, so no slot carries at this width.
    It forms every product, and walks the dual lattice, to measure it."""
    upper, dual = _cover_lists(lattice)
    up = list(_down_polynomials(dual, 0))  # dual index N-1-x: last is x = 0
    products = [f * up.pop() for f in _down_polynomials(upper, 0)]
    lows, highs, ddeg_sum, total = _chain_sums(lattice, products)
    return max(max(lows + highs, default=0), ddeg_sum, total).bit_length()


def zeta_multichain_counts(lattice, k):
    """Multichains of k+1 ideals through each ideal, counted once per
    position, from zeta-transform tables over the cover graph: each level
    adds the last one over each ideal's down-set (up-set), the ideal
    itself included.  The reference for the binomial transform behind
    ``chain_counts(lattice, k, "multi")``."""
    edges = [(lo, hi) for lo, hi, _ in sorted(lattice.covers, key=lambda c: c[2])]
    up_edges = [(hi, lo) for lo, hi in reversed(edges)]
    down, up = [[1] * len(lattice)], [[1] * len(lattice)]
    while len(down) <= k:
        for table, pairs in ((down, edges), (up, up_edges)):
            z = table[-1][:]
            for a, b in pairs:
                z[b] += z[a]
            table.append(z)
    return [sum(down[a][i] * up[k - a][i] for a in range(k + 1)) for i in range(len(lattice))]


def make_distribution(values):
    """``values`` as a tuple of Fractions, checked to be a probability
    distribution."""
    probs = tuple(Fraction(v) for v in values)
    if any(p < 0 for p in probs):
        raise DomainError("distribution has a negative entry")
    if sum(probs) != 1:
        raise DomainError("distribution does not sum to 1")
    return probs


def maxchain_distribution(lattice):
    """Probability of each ideal proportional to the maximal chains of
    ideals through it, by enumerating every chain of |P|+1 ideals."""
    ideals = lattice.ideals
    counts = strict_chain_member_counts(
        len(ideals), lambda a, b: ideals[a] & ~ideals[b] == 0, len(lattice.heap)
    )
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


def _rref(rows, rhs):
    """Reduce to an independent system; drops zero rows."""
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    m, n = len(aug), len(rows[0])
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        r += 1
        if r == m:
            break
    kept = [row for row in aug[:r]]
    return [row[:-1] for row in kept], [row[-1] for row in kept]


def _solve_square(rows, rhs):
    n = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def polytope_vertices(rows, rhs):
    """All basic feasible solutions of {x >= 0, rows x = rhs}."""
    rows, rhs = _rref(rows, rhs)
    m, n = len(rows), len(rows[0])
    vertices = set()
    for cols in combinations(range(n), m):
        square = [[rows[r][c] for c in cols] for r in range(m)]
        sol = _solve_square(square, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [Fraction(0)] * n
        for c, v in zip(cols, sol):
            x[c] = v
        vertices.add(tuple(x))
    return sorted(vertices)


def _bits(mask):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def quadratic_heap_from_word(cd, word, base=None):
    """The heap of ``word`` from a scan of every earlier position: j lies
    above k and all of below[k] whenever their labels fail to commute;
    covers and ranks are then read off the full masks.  The reference for
    the last-occurrence builder ``heap_from_word``: returns the ``Heap``
    of the word's labels and covers, and the tables a ``Heap`` derives,
    computed here: ``below``, ``above``, ``ranks``, ``names`` and
    ``minimal_mask``, the elements with nothing below them."""
    n = len(word)
    matrix = cd.matrix
    below = [0] * n
    for j in range(n):
        row = matrix[word[j] - 1]
        m = 0
        for k in range(j):
            if row[word[k] - 1] != 0:
                m |= below[k] | (1 << k)
        below[j] = m
    above = [0] * n
    for j, mask in enumerate(below):
        for k in _bits(mask):
            above[k] |= 1 << j
    covers = [(k, j) for j in range(n) for k in _bits(below[j]) if above[k] & below[j] == 0]
    ranks = [0] * n
    for j in range(n):
        ranks[j] = 1 + max((ranks[k] for k in _bits(below[j])), default=-1)
    seen = {}
    names = []
    for i in word:
        seen[i] = seen.get(i, 0) + 1
        names.append((i, seen[i]))
    heap = Heap(cd, tuple(word), tuple(sorted(covers)), tuple(base) if base is not None else None)
    tables = {
        "below": tuple(below),
        "above": tuple(above),
        "ranks": tuple(ranks),
        "names": tuple(names),
        "minimal_mask": sum(1 << j for j in range(n) if not below[j]),
    }
    return heap, tables


def rescanning_linear_extension(h, rng):
    """``random_linear_extension`` by rescanning all elements for the
    ready ones at every step; the same draws give the same extension."""
    n = len(h)
    chosen = 0
    out = []
    for _ in range(n):
        ready = [p for p in range(n) if not chosen >> p & 1 and h.below[p] & ~chosen == 0]
        p = ready[rng.randrange(len(ready))]
        out.append(p)
        chosen |= 1 << p
    return tuple(out)


def less(h, x, y):
    """Is x strictly below y in the heap?"""
    return bool(h.below[y] >> x & 1)


def replayed_rebuild_failures(h, rng, trials):
    """``word_rebuild_failures`` as one replay of ``_rest_on_last`` per
    whole word: the t-th occurrence of label i in the word stands for
    ``h.fibers[i][t - 1]``, and the word passes when its lower covers,
    so mapped into h, equal h's element by element."""
    n = len(h)
    neighbours, rank = h.cartan.neighbours, h.cartan.rank
    lower_masks = [0] * n
    for a, b in h.covers:
        lower_masks[b] |= 1 << a
    failures = 0
    for _ in range(trials):
        word = word_of_extension(h, random_linear_extension(h, rng))
        taken = Counter()
        names = []
        try:
            for i in word:
                names.append(h.fibers[i][taken[i]])
                taken[i] += 1
        except IndexError:  # label i occurs more often than in h
            failures += 1
            continue
        if len(word) != n or _rest_on_last(neighbours, rank, word, names) != lower_masks:
            failures += 1
    return failures


def linear_extensions(h):
    """Every linear extension of h, by choosing at each step any element
    whose lower covers are all chosen."""
    lower = [[a for a, b in h.covers if b == p] for p in range(len(h))]
    out = []

    def extend(prefix, chosen):
        if len(prefix) == len(h):
            out.append(tuple(prefix))
        for p in range(len(h)):
            if p not in chosen and all(a in chosen for a in lower[p]):
                extend(prefix + [p], chosen | {p})

    extend([], frozenset())
    return out


def every_extension_rebuilds(h):
    """Does the word of every linear extension of h build a heap
    label-preserving isomorphic to h?"""
    return all(
        heaps_isomorphic(h, heap_from_word(h.cartan, word_of_extension(h, ext))) is not None
        for ext in linear_extensions(h)
    )


def below_mask_isomorphic(h1, h2):
    """``heaps_isomorphic`` by comparing every mapped down-set mask."""
    if len(h1) != len(h2) or sorted(h1.labels) != sorted(h2.labels):
        return None
    position = {name: p for p, name in enumerate(h2.names)}
    sigma = [position[name] for name in h1.names]
    for x in range(len(h1)):
        mapped = 0
        for k in _bits(h1.below[x]):
            mapped |= 1 << sigma[k]
        if mapped != h2.below[sigma[x]]:
            return None
    return tuple(sigma)


def grid_word(a, b):
    """Row-reading word of the a x b grid heap in type A rank a+b-1:
    cell (r, c) carries node a - r + c."""
    return tuple(a - r + c for r in range(1, a + 1) for c in range(1, b + 1))


def grid_covers(a, b):
    """Cover pairs of the a x b grid poset, indexed like grid_word."""
    def idx(r, c):
        return (r - 1) * b + (c - 1)

    covers = set()
    for r in range(1, a + 1):
        for c in range(1, b + 1):
            if r < a:
                covers.add((idx(r, c), idx(r + 1, c)))
            if c < b:
                covers.add((idx(r, c), idx(r, c + 1)))
    return covers


def join_irreducible_indices(orbit):
    """Weights covering exactly one weight; in a distributive lattice these
    are the join-irreducible elements."""
    lower = Counter(v for _, v, _ in orbit.covers)
    return tuple(k for k in range(len(orbit)) if lower[k] == 1)


def orbit_covers(matrix, weights):
    """Cover pairs (mu, mu - alpha_i) wherever the i-th pairing of mu is 1."""
    return [
        (mu, reflect(matrix, i, mu))
        for mu in weights
        for i in range(1, len(matrix) + 1)
        if mu[i - 1] == 1
    ]


def down_set_closure(n, edges):
    """Per element of 0..n-1, its down-set in the reflexive-transitive
    closure of the edges (u, v), meaning u below v, as a bit mask: a
    fixpoint over the edges in the order given, so it assumes no order
    of the elements and ends on cycles too."""
    down = [1 << k for k in range(n)]
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if down[u] & ~down[v]:
                down[v] |= down[u]
                changed = True
    return down


def is_distributive_lattice(n, edges):
    """Is the reflexive-transitive closure of ``edges`` on 0..n-1 a
    distributive lattice?

    Down-sets come from ``down_set_closure``; the meet of x and y is the
    element whose down-set is the intersection of theirs (joins dually),
    and the distributive law is tested on every triple.  Cubic, so only
    for small n.
    """
    down = down_set_closure(n, edges)
    if len(set(down)) != n:
        return False  # a cycle: not antisymmetric
    up = [sum(1 << v for v in range(n) if down[v] >> u & 1) for u in range(n)]

    def bounds(sets):
        where = {m: k for k, m in enumerate(sets)}
        return [[where.get(sets[x] & sets[y]) for y in range(n)] for x in range(n)]

    meet, join = bounds(down), bounds(up)
    if any(z is None for row in meet + join for z in row):
        return False
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def cubic_minuscule_verdict(matrix, lam):
    """Every coroot pairing over the orbit of lam lies in {-1, 0, 1}, and
    the orbit ordered by its covers is a distributive lattice."""
    weights = sorted(closure_orbit(matrix, lam))
    if any(abs(c) > 1 for mu in weights for c in mu):
        return False
    index = {mu: k for k, mu in enumerate(weights)}
    edges = [(index[a], index[b]) for a, b in orbit_covers(matrix, weights)]
    return is_distributive_lattice(len(weights), edges)


def pairwise_structure_failures(bundle):
    """The ``structure`` check row of ``verify``, one (ideal, ideal) pair
    at a time: sizes, the weight multisets, and containment of ideals
    against the orbit order of their weights.  A weight outside the
    orbit lies below no weight and has no weight below it."""
    lattice, orb = bundle.lattice, bundle.orbit
    n = len(lattice)
    failures = int(n != len(orb)) + int(sorted(lattice.weights) != sorted(orb.weights))
    order = [m | (1 << k) for k, m in enumerate(orb.below_masks)]
    weight_pos = [orb.index.get(w) for w in lattice.weights]
    for a in range(n):
        mask_a, wa = lattice.ideals[a], weight_pos[a]
        for b in range(n):
            contained = mask_a & ~lattice.ideals[b] == 0
            wb = weight_pos[b]
            dominated = None not in (wa, wb) and bool(order[wb] >> wa & 1)
            if contained != dominated:
                failures += 1
    return 2 + n * n, failures


# Per-(ideal, node) reference for the toggle indicator identities that
# ``minuscule.stats.toggle_suite`` checks in one batched integer pass.
# Each check rebuilds its own indicators and takes Fraction inner
# products through ``minuscule.cartan``.


@dataclass(frozen=True)
class ToggleSnapshot:
    """Per-element toggle eligibility for one ideal, as bit masks."""

    adds: int
    removes: int

    def plus(self, p: int) -> int:
        return self.adds >> p & 1

    def minus(self, p: int) -> int:
        return self.removes >> p & 1

    def signed(self, p: int) -> int:
        return (self.adds >> p & 1) - (self.removes >> p & 1)


def snapshot(h, mask):
    """Insertable elements (outside the ideal, everything below inside)
    and deletable ones (inside, nothing above inside)."""
    adds = removes = 0
    for p in range(len(h)):
        if mask >> p & 1:
            if h.above[p] & mask == 0:
                removes |= 1 << p
        elif h.below[p] & mask == h.below[p]:
            adds |= 1 << p
    return ToggleSnapshot(adds, removes)


def down_degree(h, mask):
    """Number of maximal elements of the ideal; equals its down-degree
    in the lattice cover graph and the total minus-indicator."""
    return snapshot(h, mask).removes.bit_count()


def up_degree(h, mask):
    return snapshot(h, mask).adds.bit_count()


def label_count(h, mask, i):
    """How many elements of the ideal carry label ``i``."""
    return sum(1 for p in h.fibers[i] if mask >> p & 1)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    lhs: Fraction
    rhs: Fraction


def _weight_of(h, mask, weight):
    return weight if weight is not None else ideal_weight(h, mask)


def check_label_count_formula(h, mask, i, weight=None):
    """Label count against its inner-product form."""
    cd = h.cartan
    if h.base is None:
        raise DomainError("heap carries no base weight")
    w = _weight_of(h, mask, weight)
    omega = fundamental_weight(cd, i)
    alpha = simple_root(cd, i)
    lhs = Fraction(label_count(h, mask, i))
    rhs = (
        2
        * (inner_product(cd, h.base, omega) - inner_product(cd, w, omega))
        / inner_product(cd, alpha, alpha)
    )
    return CheckResult(lhs == rhs, lhs, rhs)


def check_signed_toggle_sum(h, mask, i, weight=None):
    """Signed indicator sum over the fiber against the coroot pairing."""
    w = _weight_of(h, mask, weight)
    snap = snapshot(h, mask)
    lhs = Fraction(sum(snap.signed(p) for p in h.fibers[i]))
    rhs = Fraction(coroot_pairing(h.cartan, w, i))
    return CheckResult(lhs == rhs, lhs, rhs)


def check_weighted_toggle_sum(h, mask, i, weight=None):
    """Position-weighted indicator sum, with fiber positions j counted
    from 1 in heap order: sum_j (j-1) plus_j - j minus_j."""
    w = _weight_of(h, mask, weight)
    snap = snapshot(h, mask)
    lhs = Fraction(
        sum(
            (j - 1) * snap.plus(p) - j * snap.minus(p)
            for j, p in enumerate(h.fibers[i], start=1)
        )
    )
    rhs = label_count(h, mask, i) * Fraction(coroot_pairing(h.cartan, w, i))
    return CheckResult(lhs == rhs, lhs, rhs)


def fiber_statistic(h, mask, i):
    """Indicator combination attached to one label fiber:

        sum_j minus_j - sum_j (j-1) signed_j
          + (2 (base, omega_i) / (alpha_i, alpha_i)) sum_j signed_j.

    Its expectation vanishes against the signed part of any
    toggle-symmetric distribution, and over all nodes these statistics
    sum to the constant 2 (base, base) / omega_sq on every ideal.
    """
    cd = h.cartan
    if h.base is None:
        raise DomainError("heap carries no base weight")
    snap = snapshot(h, mask)
    fiber = h.fibers[i]
    minus_total = sum(snap.minus(p) for p in fiber)
    weighted = sum((j - 1) * snap.signed(p) for j, p in enumerate(fiber, start=1))
    signed_total = sum(snap.signed(p) for p in fiber)
    omega = fundamental_weight(cd, i)
    alpha = simple_root(cd, i)
    scale = 2 * inner_product(cd, h.base, omega) / inner_product(cd, alpha, alpha)
    return Fraction(minus_total - weighted) + scale * signed_total


def check_fiber_statistic(h, mask, i, weight=None):
    cd = h.cartan
    w = _weight_of(h, mask, weight)
    omega = fundamental_weight(cd, i)
    alpha = simple_root(cd, i)
    lhs = fiber_statistic(h, mask, i)
    rhs = (
        Fraction(2)
        / inner_product(cd, alpha, alpha)
        * inner_product(cd, w, omega)
        * coroot_pairing(cd, w, i)
    )
    return CheckResult(lhs == rhs, lhs, rhs)


@dataclass(frozen=True)
class DecompositionCheck:
    """Down-degree against its constant-plus-indicators form, together
    with the fiber statistics summing to the constant."""

    ddeg: Fraction
    reconstructed: Fraction
    statistic_sum: Fraction
    constant: Fraction

    @property
    def ok(self):
        return self.ddeg == self.reconstructed and self.statistic_sum == self.constant


def check_ddeg_decomposition(h, mask):
    """ddeg(I) = constant + sum_{i,j} c_{i,j} signed_{i,j}(I) with
    c_{i,j} = (j-1) - 2 (base, omega_i) / (alpha_i, alpha_i)."""
    cd = h.cartan
    if h.base is None:
        raise DomainError("heap carries no base weight")
    snap = snapshot(h, mask)
    constant = tcde_constant(cd, h.base)
    total = constant
    stat_sum = Fraction(0)
    for i in cd.nodes:
        omega = fundamental_weight(cd, i)
        alpha = simple_root(cd, i)
        scale = 2 * inner_product(cd, h.base, omega) / inner_product(cd, alpha, alpha)
        for j, p in enumerate(h.fibers[i], start=1):
            total += ((j - 1) - scale) * snap.signed(p)
        stat_sum += fiber_statistic(h, mask, i)
    return DecompositionCheck(Fraction(down_degree(h, mask)), total, stat_sum, constant)


def per_triple_identity_suite(lattice):
    """The identity suite as one check call per (ideal, node, check)."""
    h = lattice.heap
    cd = h.cartan
    if lattice.weights is None:
        raise DomainError("lattice carries no weights; build the heap with a base weight")
    per_node_checks = (
        ("label_count", check_label_count_formula),
        ("signed_toggle_sum", check_signed_toggle_sum),
        ("weighted_toggle_sum", check_weighted_toggle_sum),
        ("fiber_statistic", check_fiber_statistic),
    )
    failures = {name: 0 for name, _ in per_node_checks}
    decomposition_failures = 0
    for k, mask in enumerate(lattice.ideals):
        w = lattice.weights[k]
        for name, fn in per_node_checks:
            for i in cd.nodes:
                if not fn(h, mask, i, weight=w).ok:
                    failures[name] += 1
        if not check_ddeg_decomposition(h, mask).ok:
            decomposition_failures += 1
    pairs = len(lattice) * cd.rank
    rows = [CheckRow(name, pairs, failures[name]) for name, _ in per_node_checks]
    rows.append(CheckRow("ddeg_decomposition", len(lattice), decomposition_failures))
    return tuple(rows)


@cache
def positive_roots(matrix):
    """The positive roots of a simply-laced Cartan matrix, a tuple of
    rows, in simple-root coordinates: the simple roots closed under every simple reflection
    s_j(beta) = beta - <beta, alpha_j> alpha_j, the nonnegative ones
    kept."""
    rank = len(matrix)
    simple = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for j in range(rank):
            pairing = sum(c * a for c, a in zip(beta, matrix[j]))
            image = tuple(c - pairing * (i == j) for i, c in enumerate(beta))
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    return sorted(beta for beta in roots if min(beta) >= 0)


def weyl_dimension(matrix, mu):
    """dim V(mu) for a dominant weight mu in fundamental coordinates, by
    the Weyl dimension formula: the product over positive roots beta =
    sum c_i alpha_i of sum c_i (mu_i + 1) / sum c_i."""
    numerator = denominator = 1
    for beta in positive_roots(matrix):
        numerator *= sum(c * (m + 1) for c, m in zip(beta, mu))
        denominator *= sum(beta)
    dim, rest = divmod(numerator, denominator)
    assert rest == 0, (mu, numerator, denominator)
    return dim


def coxeter_number(matrix):
    """h = 2 |positive roots| / rank, from the Cartan matrix alone."""
    h, rest = divmod(2 * len(positive_roots(matrix)), len(matrix))
    assert rest == 0, matrix
    return h


def ideal_size_polynomial(ideals):
    """F(q) = sum over the ideals I of q^|I|, as its integer
    coefficients, lowest degree first."""
    sizes = [mask.bit_count() for mask in ideals]
    coefficients = [0] * (max(sizes) + 1)
    for size in sizes:
        coefficients[size] += 1
    return coefficients


def _divmod_monic(numerator, divisor):
    """Quotient and remainder of integer polynomials, coefficients lowest
    degree first, by long division; ``divisor`` is monic."""
    top = len(divisor) - 1
    rest = list(numerator) + [0] * max(top - len(numerator), 0)
    quotient = [0] * max(len(rest) - top, 0)
    for k in reversed(range(len(quotient))):
        c = quotient[k] = rest[k + top]
        for j, d in enumerate(divisor):
            rest[k + j] -= c * d
    return quotient, rest[:top]


@cache
def cyclotomic(m):
    """The cyclotomic polynomial Phi_m, coefficients lowest degree first:
    x^m - 1 divided by Phi_d for every proper divisor d of m."""
    phi = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi, rest = _divmod_monic(phi, cyclotomic(d))
            assert not any(rest), (m, d)
    return tuple(phi)


def value_at_root_of_unity(coefficients, m):
    """F(zeta) for zeta a primitive m-th root of unity, when it is an
    integer, else None.  Phi_m is the minimal polynomial of zeta, so
    F(zeta) is the remainder of F modulo Phi_m at zeta; 1, zeta, ...,
    zeta^(deg Phi_m - 1) are linearly independent over Q, so that value
    is an integer c exactly when the remainder is the constant c."""
    _, rest = _divmod_monic(coefficients, cyclotomic(m))
    return None if any(rest[1:]) else rest[0]
