import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import (
    ConfigurationError,
    DomainError,
    build_cartan,
    fundamental_weight,
    heap_from_word,
    inner_product,
    is_dominant,
    simple_reflection,
    toggle_label,
)
import minuscule.cde as cde
import minuscule.simplex as simplex
from minuscule.cartan import _reflect
from oracles import (
    bareiss_adjugate,
    cartan_inverse,
    coroot_pairing,
    gauss_jordan_inverse,
    identity_product,
    minuscule_catalog,
    reflect,
    simple_root,
)

ALL_TYPES = [("A", r) for r in range(1, 8)] + [("D", r) for r in range(3, 9)] + [
    ("E", 6),
    ("E", 7),
]


def test_type_a_adjugate_closed_form_at_rank_150():
    n = 150
    cd = build_cartan("A", n)
    assert cd.det == n + 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert cd.adjugate[i - 1][j - 1] == min(i, j) * (n + 1 - max(i, j))


def test_type_d_adjugate_closed_form_at_rank_150():
    """4 min(i, j) on the path below the fork, 2i against either spin
    node, n on each spin node's diagonal and n - 2 between the two."""
    n = 150
    cd = build_cartan("D", n)
    assert cd.det == 4
    spins = (n - 1, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i in spins and j in spins:
                expected = n if i == j else n - 2
            elif i in spins or j in spins:
                expected = 2 * min(i, j)
            else:
                expected = 4 * min(i, j)
            assert cd.adjugate[i - 1][j - 1] == expected


CLOSED_FORM_TYPES = (
    [("A", r) for r in range(1, 41)] + [("D", r) for r in range(3, 41)] + [("E", 6), ("E", 7)]
)


@pytest.mark.parametrize("family,rank", CLOSED_FORM_TYPES)
def test_closed_form_adjugate_is_the_bareiss_adjugate(family, rank):
    cd = build_cartan(family, rank)
    assert (cd.adjugate, cd.det) == bareiss_adjugate(cd.matrix)


def test_build_cartan_calls_no_solver(monkeypatch):
    calls = []
    for module, name in ((cde, "_bareiss_solve"), (cde, "solve_lp"), (simplex, "solve_lp")):
        monkeypatch.setattr(module, name, lambda *args, _name=name, **kwargs: calls.append(_name))
    for family, rank in CLOSED_FORM_TYPES:
        build_cartan(family, rank)
    assert calls == []


def test_rank_one_matrix():
    assert build_cartan("A", 1).matrix == ((2,),)


def test_a2_matrix():
    assert build_cartan("A", 2).matrix == ((2, -1), (-1, 2))


def test_d4_fork_at_node_two():
    cd = build_cartan("D", 4)
    neighbors = {j + 1 for j in range(4) if cd.matrix[1][j] == -1}
    assert neighbors == {1, 3, 4}
    assert cd.neighbours[1] == (1, 2, 3, 4)
    assert identity_product(cd.matrix, cartan_inverse(cd))


def test_e7_chain_and_branch():
    cd = build_cartan("E", 7)
    edges = {
        (i + 1, j + 1)
        for i in range(7)
        for j in range(i + 1, 7)
        if cd.matrix[i][j] == -1
    }
    assert edges == {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_matrix_invariants(family, rank):
    cd = build_cartan(family, rank)
    for i in range(rank):
        assert cd.matrix[i][i] == 2
        for j in range(rank):
            assert cd.matrix[i][j] == cd.matrix[j][i]
            if i != j:
                assert cd.matrix[i][j] in (0, -1)
    assert identity_product(cd.matrix, cartan_inverse(cd))


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 2), ("D", 2), ("E", 5), ("E", 8), ("F", 4)])
def test_unsupported_types_rejected(family, rank):
    with pytest.raises(ConfigurationError) as err:
        build_cartan(family, rank)
    assert f"{family}{rank}" in str(err.value)


@pytest.mark.parametrize("rank", [3.0, True])
def test_a_rank_that_is_not_an_int_is_a_configuration_error(rank):
    with pytest.raises(ConfigurationError) as err:
        build_cartan("A", rank)
    assert str(err.value) == f"rank must be an integer, got {rank!r}"


def test_a2_fundamental_inner_products():
    cd = build_cartan("A", 2)
    w1, w2 = fundamental_weight(cd, 1), fundamental_weight(cd, 2)
    assert inner_product(cd, w1, w1) == Fraction(2, 3)
    assert inner_product(cd, w1, w2) == Fraction(1, 3)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_roots_have_squared_length_two(family, rank):
    cd = build_cartan(family, rank)
    for i in cd.nodes:
        alpha = simple_root(cd, i)
        assert inner_product(cd, alpha, alpha) == 2


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_fundamental_coroot_duality(family, rank):
    cd = build_cartan(family, rank)
    for i in cd.nodes:
        for j in cd.nodes:
            assert coroot_pairing(cd, fundamental_weight(cd, i), j) == int(i == j)


def test_pairing_reads_a_coordinate():
    cd = build_cartan("A", 2)
    assert coroot_pairing(cd, (-1, 1), 1) == -1


def test_pairing_index_out_of_range():
    cd = build_cartan("A", 2)
    with pytest.raises(DomainError):
        coroot_pairing(cd, (1, 0), 3)


A3 = build_cartan("A", 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fundamental_weight(A3, 1.5),
        lambda: fundamental_weight(A3, True),
        lambda: heap_from_word(A3, ("1",)),
        lambda: simple_reflection(A3, 1.0, (1, 0, 0)),
        lambda: toggle_label(heap_from_word(A3, (1, 2, 3)), 0, 2.5),
    ],
    ids=["float_weight", "bool_weight", "str_word", "float_reflection", "float_toggle"],
)
def test_a_node_that_is_not_an_int_is_a_domain_error(call):
    """A node is an int and not a bool, as a rank must be; a value in
    range of another type raises DomainError, not a zero weight, a
    TypeError or a KeyError."""
    with pytest.raises(DomainError, match="node must be an integer"):
        call()


def test_reflection_example_and_orbit():
    cd = build_cartan("A", 2)
    assert simple_reflection(cd, 1, (1, 0)) == (-1, 1)
    # closure of (1, 0) is the 3-element weight set of the vector representation
    seen = {(1, 0)}
    while True:
        fresh = {simple_reflection(cd, i, w) for w in seen for i in (1, 2)} - seen
        if not fresh:
            break
        seen |= fresh
    assert seen == {(1, 0), (-1, 1), (0, -1)}


def test_reflection_fixed_point_and_involution():
    rng = random.Random(7)
    cd = build_cartan("D", 5)
    for _ in range(50):
        mu = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5))
        for i in cd.nodes:
            if mu[i - 1] == 0:
                assert simple_reflection(cd, i, mu) == mu
            assert simple_reflection(cd, i, simple_reflection(cd, i, mu)) == mu


def test_reflection_is_an_isometry():
    rng = random.Random(11)
    cd = build_cartan("E", 6)
    for _ in range(25):
        mu = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6))
        nu = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6))
        for i in cd.nodes:
            assert inner_product(
                cd, simple_reflection(cd, i, mu), simple_reflection(cd, i, nu)
            ) == inner_product(cd, mu, nu)


def test_inner_product_bilinear_symmetric():
    rng = random.Random(3)
    cd = build_cartan("A", 4)
    for _ in range(25):
        mu, nu, xi = (
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
            for _ in range(3)
        )
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert inner_product(cd, mu, nu) == inner_product(cd, nu, mu)
        combo = tuple(a * m + x for m, x in zip(mu, xi))
        assert inner_product(cd, combo, nu) == a * inner_product(cd, mu, nu) + inner_product(
            cd, xi, nu
        )


def test_dimension_mismatch_raises():
    cd = build_cartan("A", 3)
    with pytest.raises(DomainError):
        inner_product(cd, (1, 0), (0, 1, 0))


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_fundamental_weights_dominant(family, rank):
    cd = build_cartan(family, rank)
    for k in cd.nodes:
        assert is_dominant(fundamental_weight(cd, k))


def test_catalog_contents():
    assert minuscule_catalog(build_cartan("A", 3)) == (1, 2, 3)
    assert minuscule_catalog(build_cartan("D", 4)) == (1, 3, 4)
    assert minuscule_catalog(build_cartan("E", 6)) == (1, 6)
    assert minuscule_catalog(build_cartan("E", 7)) == (7,)


# det A_n = n + 1, det D_n = 4, det E_n = 9 - n (3 for E6, 2 for E7).
EXPECTED_DET = {"A": lambda rank: rank + 1, "D": lambda rank: 4, "E": lambda rank: 9 - rank}


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_adjugate_over_det_is_the_gauss_jordan_inverse(family, rank):
    cd = build_cartan(family, rank)
    assert cd.det == EXPECTED_DET[family](rank)
    assert all(isinstance(a, int) for row in cd.adjugate for a in row)
    assert cartan_inverse(cd) == gauss_jordan_inverse(cd.matrix)


SUPPORTED_UP_TO_RANK_8 = (
    [("A", r) for r in range(1, 9)] + [("D", r) for r in range(3, 9)] + [("E", 6), ("E", 7)]
)


@st.composite
def weight_pairs(draw):
    family, rank = draw(st.sampled_from(SUPPORTED_UP_TO_RANK_8))
    coordinate = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    mu, nu = (
        tuple(draw(st.lists(coordinate, min_size=rank, max_size=rank))) for _ in range(2)
    )
    return build_cartan(family, rank), mu, nu


@settings(max_examples=100)
@given(weight_pairs())
def test_inner_product_matches_the_fraction_formula(case):
    cd, mu, nu = case
    inv = gauss_jordan_inverse(cd.matrix)
    expected = sum(
        (mi * nj * inv[i][j] for i, mi in enumerate(mu) for j, nj in enumerate(nu)),
        Fraction(0),
    )
    assert inner_product(cd, mu, nu) == expected * cd.omega_sq / 2


@settings(max_examples=200)
@given(st.sampled_from(SUPPORTED_UP_TO_RANK_8), st.data())
def test_reflect_matches_the_full_row_formula(family_rank, data):
    """``_reflect`` changes only node i and its Dynkin neighbours; at
    every node it equals mu - mu_i * (row i of the Cartan matrix), on
    integral and fractional weights with zero coordinates among them."""
    cd = build_cartan(*family_rank)
    coordinate = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    mu = tuple(data.draw(st.lists(coordinate, min_size=cd.rank, max_size=cd.rank)))
    for i in cd.nodes:
        assert _reflect(cd, i, mu) == reflect(cd.matrix, i, mu)
