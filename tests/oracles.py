"""Independent brute-force oracles the tests check the library against.

Everything here recomputes results from first principles with the
dumbest correct algorithm available (fixpoint closures, powerset
filters, exhaustive chain enumeration, basis enumeration for polytope
vertices) and stays deliberately ignorant of the library's internals.
"""

from fractions import Fraction
from itertools import combinations, product


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


def orbit_covers(matrix, weights):
    """Cover pairs (mu, mu - alpha_i) wherever the i-th pairing of mu is 1."""
    return [
        (mu, reflect(matrix, i, mu))
        for mu in weights
        for i in range(1, len(matrix) + 1)
        if mu[i - 1] == 1
    ]


def is_distributive_lattice(n, edges):
    """Is the reflexive-transitive closure of ``edges`` on 0..n-1 a
    distributive lattice?

    Down-sets come from a fixpoint closure over plain bit masks; the meet
    of x and y is the element whose down-set is the intersection of
    theirs (joins dually), and the distributive law is tested on every
    triple.  Cubic, so only for small n.
    """
    down = [1 << k for k in range(n)]
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if down[u] & ~down[v]:
                down[v] |= down[u]
                changed = True
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
