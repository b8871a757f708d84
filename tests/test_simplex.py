from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minuscule.errors import InternalCheckError
from minuscule.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from oracles import polytope_vertices

F = Fraction


def test_simple_equality_program():
    # min x + 2y  s.t.  x + y = 3, x >= 0, y >= 0
    res = solve_lp([F(1), F(2)], [[F(1), F(1)]], [F(3)])
    assert res.status == OPTIMAL
    assert res.objective == 3
    assert res.solution == (F(3), F(0))


def test_maximization():
    res = solve_lp([F(1), F(2)], [[F(1), F(1)]], [F(3)], maximize=True)
    assert res.objective == 6
    assert res.solution == (F(0), F(3))


def test_two_constraints_fractional_solution():
    # min x + y  s.t.  2x + y = 4, x + 3y = 6
    res = solve_lp([F(1), F(1)], [[F(2), F(1)], [F(1), F(3)]], [F(4), F(6)])
    assert res.status == OPTIMAL
    assert res.solution == (F(6, 5), F(8, 5))
    assert res.objective == F(14, 5)


def test_negative_rhs_handled_by_sign_flip():
    # -x - y = -3  is the same constraint as x + y = 3
    res = solve_lp([F(1), F(2)], [[F(-1), F(-1)]], [F(-3)])
    assert res.objective == 3


def test_infeasible():
    res = solve_lp([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x - y  s.t.  x - y = 0 allows x = y -> infinity
    res = solve_lp([F(-1), F(-1)], [[F(1), F(-1)]], [F(0)])
    assert res.status == UNBOUNDED


def test_redundant_rows_dropped():
    rows = [[F(1), F(1)], [F(2), F(2)], [F(3), F(3)]]
    res = solve_lp([F(1), F(0)], rows, [F(2), F(4), F(6)])
    assert res.status == OPTIMAL
    assert res.objective == 0
    assert res.solution == (F(0), F(2))


def test_degenerate_vertex_terminates():
    # several ties at the origin; must not cycle under any pivot sequence
    rows = [
        [F(1), F(1), F(1), F(0)],
        [F(1), F(0), F(0), F(1)],
    ]
    rhs = [F(1), F(1)]
    res = solve_lp([F(0), F(-1), F(-2), F(1)], rows, rhs)
    assert res.status == OPTIMAL
    assert res.objective == -1  # x2 = x3 = 1
    assert res.solution == (F(0), F(0), F(1), F(1))


def test_exactness_with_awkward_fractions():
    # solution forced to thirds and sevenths; floats would drift
    rows = [[F(1, 3), F(1, 7)]]
    rhs = [F(1)]
    res = solve_lp([F(1), F(0)], rows, rhs)
    assert res.objective == 0
    assert res.solution == (F(0), F(7))
    res = solve_lp([F(1), F(0)], rows, rhs, maximize=True)
    assert res.solution == (F(3), F(0))
    assert res.objective == 3


def test_basis_reported_matches_solution_support():
    res = solve_lp([F(1), F(1), F(0)], [[F(1), F(2), F(1)]], [F(4)])
    assert res.status == OPTIMAL
    support = {j for j, v in enumerate(res.solution) if v != 0}
    assert support <= set(res.basis)


def test_inconsistent_dimensions_raise():
    with pytest.raises(InternalCheckError, match="^inconsistent LP dimensions$"):
        solve_lp([F(1), F(1)], [[F(1)]], [F(1)])
    with pytest.raises(InternalCheckError, match="^inconsistent LP dimensions$"):
        solve_lp([F(1)], [[F(1)]], [F(1), F(2)])


ENTRY = st.integers(-2, 2)


@st.composite
def small_systems(draw):
    """An integer system rows x = rhs with 1..3 rows, 1..4 columns and
    entries in -2..2, an objective over its columns, and a sense."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(ENTRY, min_size=m, max_size=m))
    objective = draw(st.lists(ENTRY, min_size=n, max_size=n))
    return objective, rows, rhs, draw(st.booleans())


@settings(max_examples=1500)
@given(small_systems())
@example(([1], [[-1]], [0], False))  # phase one ends with a zero artificial to drive out
@example(([1], [[2], [-1]], [0, 1], True))  # 0 = 1 after elimination: no solution
def test_solve_lp_agrees_with_the_vertex_oracle(system):
    """OPTIMAL carries the best vertex value and a feasible, nonnegative
    vertex; INFEASIBLE holds exactly when there is no vertex; UNBOUNDED
    has at least one.  Degenerate and redundant systems included."""
    objective, rows, rhs, maximize = system
    vertices = polytope_vertices(rows, rhs)
    res = solve_lp(objective, rows, rhs, maximize=maximize)
    assert (res.status == INFEASIBLE) == (not vertices)
    if res.status == OPTIMAL:
        values = [sum(c * v for c, v in zip(objective, x)) for x in vertices]
        x = res.solution
        assert res.objective == (max(values) if maximize else min(values))
        assert res.objective == sum(c * v for c, v in zip(objective, x))
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
        assert x in vertices
    else:
        assert res.status in (INFEASIBLE, UNBOUNDED)
        assert res.objective is None and res.solution is None


def test_the_vertex_oracle_finds_no_vertex_of_an_inconsistent_system():
    # 2x = 0 and -x = 1 reduce to x = 0 and 0 = 1
    assert polytope_vertices([[2], [-1]], [0, 1]) == []
    assert polytope_vertices([[1, 1], [2, 2]], [1, 3]) == []
    assert polytope_vertices([[2], [-1]], [0, 0]) == [(F(0),)]
