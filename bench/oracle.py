"""Closed-form facts about each minuscule case, computed without the package.

For a minuscule weight the ideal lattice J(P) is the Weyl orbit, so its
size and the heap size |P| have classical closed forms.  The constant is
the expected down-degree 2(lambda, lambda)/Omega^2 that every
toggle-symmetric distribution shares, and h is the Coxeter number, which
every rowmotion orbit size divides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


@dataclass(frozen=True)
class Expected:
    ideals: int  # |J(P)|
    elements: int  # |P|
    constant: Fraction
    coxeter: int


def expected(family: str, rank: int, node: int) -> Expected:
    """Closed forms for the minuscule node ``node`` of ``family`` ``rank``
    (Bourbaki numbering); ValueError for anything else."""
    n, k = rank, node
    if family == "A" and 1 <= k <= n:
        return Expected(comb(n + 1, k), k * (n + 1 - k), Fraction(k * (n + 1 - k), n + 1), n + 1)
    if family == "D" and n >= 4 and k == 1:
        return Expected(2 * n, 2 * n - 2, Fraction(1), 2 * n - 2)
    if family == "D" and n >= 4 and k in (n - 1, n):
        return Expected(2 ** (n - 1), n * (n - 1) // 2, Fraction(n, 4), 2 * n - 2)
    if family == "E" and n == 6 and k in (1, 6):
        return Expected(27, 16, Fraction(4, 3), 12)
    if family == "E" and n == 7 and k == 7:
        return Expected(56, 27, Fraction(3, 2), 18)
    raise ValueError(f"{family}{rank}.{node} is not a minuscule case")


def parse_case(case_id: str) -> tuple[str, int, int]:
    """'D10.10' -> ('D', 10, 10)."""
    rank, node = case_id[1:].split(".")
    return case_id[0], int(rank), int(node)


def expected_for(case_id: str) -> Expected:
    return expected(*parse_case(case_id))


def catalog() -> tuple[str, ...]:
    """The case ids that ``verify --all`` sweeps, in sweep order."""
    cases = [f"A{n}.{k}" for n in range(1, 8) for k in range(1, n + 1)]
    cases += [f"D{n}.{k}" for n in range(4, 9) for k in (1, n - 1, n)]
    return tuple(cases + ["E6.1", "E6.6", "E7.7"])
