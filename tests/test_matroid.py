import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.errors import (
    MatroidAxiomError,
    NoCommonApartmentError,
    ValidationError,
)
from tropehrhart.lattice import Fan
from tropehrhart.linalg import det
from tropehrhart.matroid import (
    Matroid,
    bergman_project,
    circuit_extension,
    circuits,
    closure,
    initial_matroid,
    loops,
    matroid_polytope,
    max_weight_basis,
    rank,
    uniform_matroid,
)
from tropehrhart.tropvb import validate

from conftest import (
    apartment_contains,
    common_adapted_basis,
    exchange_holds,
    in_lifted_bergman,
    is_flat,
    is_independent,
    oracle_circuits,
    oracle_closure,
    oracle_flats,
    oracle_fundamental_circuit,
    oracle_rank,
    scan_adapted_basis,
)


# ---------------------------------------------------------------------------
# construction and basic derivations
# ---------------------------------------------------------------------------

def test_uniform_matroid_basics(u23_matroid):
    assert rank(u23_matroid, {1, 2}) == 2
    assert closure(u23_matroid, {1}) == frozenset({1})
    assert closure(u23_matroid, {1, 2}) == frozenset({1, 2, 3})
    assert circuits(u23_matroid) == (frozenset({1, 2, 3}),)
    assert loops(u23_matroid) == frozenset()


def test_uniform_matroid_rank_zero():
    # agrees with the basis-list constructor and the CLI schema {"bases": [[]]}
    from tropehrhart.taut import vanishing_check

    for m in range(1, 5):
        matroid = uniform_matroid(0, m)
        assert matroid == Matroid(m, [frozenset()])
        assert matroid.rank(matroid.ground) == 0
        assert vanishing_check(matroid)["all_equal"] is True


def test_fano_closure_adds_third_point(fano_matroid):
    # y1, y2 span the line through z3
    assert closure(fano_matroid, {1, 2}) == frozenset({1, 2, 6})
    assert len(fano_matroid.bases) == 28


def test_matroid_with_loop():
    m = Matroid(3, [{1, 2}])
    assert loops(m) == frozenset({3})
    assert rank(m, {3}) == 0
    assert 3 in closure(m, ())


def test_exchange_axiom_rejected():
    with pytest.raises(MatroidAxiomError):
        Matroid(4, [{1, 2}, {3, 4}])
    with pytest.raises(MatroidAxiomError):
        Matroid(3, [{1}, {1, 2}])
    with pytest.raises(MatroidAxiomError):
        Matroid(3, [])


def test_flats_of_u23(u23_matroid):
    got = set(u23_matroid.flats())
    assert got == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2, 3}),
    }


# ---------------------------------------------------------------------------
# matroid polytopes
# ---------------------------------------------------------------------------

def test_matroid_polytope_u23(u23_matroid):
    p = matroid_polytope(u23_matroid)
    assert set(p.vertices) == {
        tuple(map(Fraction, v)) for v in [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    }


def test_matroid_polytope_u12():
    p = matroid_polytope(uniform_matroid(1, 2))
    assert set(p.vertices) == {
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }


def test_matroid_polytope_fano(fano_matroid):
    p = matroid_polytope(fano_matroid)
    assert len(p.vertices) == 28
    # sits in the hyperplane of coordinate sum = rank
    assert all(sum(v) == 3 for v in p.vertices)


# ---------------------------------------------------------------------------
# greedy bases
# ---------------------------------------------------------------------------

def test_max_weight_basis(u23_matroid, fano_matroid):
    assert max_weight_basis(u23_matroid, (3, 2, 1)) == frozenset({1, 2})
    assert max_weight_basis(u23_matroid, (1, 1, 1)) == frozenset({1, 2})
    b = max_weight_basis(fano_matroid, (1, 1, 0, 0, 0, 0, 0))
    assert {1, 2} <= b
    assert b in fano_matroid.bases


# ---------------------------------------------------------------------------
# Bergman projection
# ---------------------------------------------------------------------------

def test_bergman_project_example(u23_matroid):
    assert bergman_project(u23_matroid, (5, 1, 0)) == (5, 1, 1)


def test_bergman_project_fixes_bergman_points(fano_matroid):
    for w in [(0, 0, 0, 0, 0, 0, 2), (2, 0, 0, 0, 0, 0, 0)]:
        # singletons are flats, so these are already Bergman points
        assert bergman_project(fano_matroid, w) == tuple(map(Fraction, w))


def test_bergman_project_idempotent_and_flags():
    rng = random.Random(31)
    ms = [uniform_matroid(2, 3), uniform_matroid(2, 4), uniform_matroid(3, 5)]
    for m in ms:
        for _ in range(200):
            w = [rng.randint(-4, 4) for _ in range(m.m)]
            p1 = bergman_project(m, w)
            assert in_lifted_bergman(m, p1)
            assert bergman_project(m, p1) == p1
            # membership is exactly the fixed-point property
            fixed = p1 == tuple(map(Fraction, w))
            assert in_lifted_bergman(m, w) == fixed


def test_in_lifted_bergman_examples(u23_matroid, fano_matroid):
    assert in_lifted_bergman(u23_matroid, (1, 0, 0))
    assert not in_lifted_bergman(u23_matroid, (1, 1, 0))
    # a Fano diagram row: levels {y1} and the median line {y1, z1, w}
    assert in_lifted_bergman(fano_matroid, (2, 0, 0, 1, 0, 0, 1))


def test_bergman_within_groebner_loop_free():
    rng = random.Random(37)
    for m in [uniform_matroid(2, 4), uniform_matroid(2, 3)]:
        for _ in range(40):
            w = [rng.randint(-3, 3) for _ in range(m.m)]
            if in_lifted_bergman(m, w):
                assert not loops(initial_matroid(m, w))


# ---------------------------------------------------------------------------
# apartments
# ---------------------------------------------------------------------------

def test_apartment_fano_cone(fano_matroid):
    rows = [(2, 0, 0, 1, 0, 0, 1), (0, 2, 0, 0, 1, 0, 1)]
    assert apartment_contains(fano_matroid, {1, 2, 7}, rows)
    assert not apartment_contains(fano_matroid, {1, 2, 3}, rows)


def test_apartment_max_weight_basis_is_adapted():
    rng = random.Random(43)
    for m in [uniform_matroid(2, 3), uniform_matroid(2, 4), uniform_matroid(3, 5)]:
        for _ in range(30):
            w = bergman_project(m, [rng.randint(-3, 3) for _ in range(m.m)])
            assert apartment_contains(m, max_weight_basis(m, w), [w])


def test_apartment_u23_examples(u23_matroid):
    assert apartment_contains(u23_matroid, {1, 2}, [(1, 0, 0), (0, 1, 0)])
    assert apartment_contains(u23_matroid, {1, 3}, [(1, 0, 0)])
    # {2} is a rank-1 flat missed by {1, 3}
    assert not apartment_contains(u23_matroid, {1, 3}, [(0, 1, 0)])


# ---------------------------------------------------------------------------
# initial matroids and the apartment parameterization
# ---------------------------------------------------------------------------

def test_initial_matroid(u23_matroid):
    assert initial_matroid(u23_matroid, (0, 0, 0)) == u23_matroid
    im = initial_matroid(u23_matroid, (1, 0, 0))
    assert im.bases == frozenset({frozenset({1, 2}), frozenset({1, 3})})


def test_circuit_extension_parameterizes_apartments():
    rng = random.Random(47)
    small = [
        uniform_matroid(1, 2),
        uniform_matroid(2, 3),
        uniform_matroid(2, 4),
        uniform_matroid(3, 5),
        Matroid(4, [{1, 2}, {1, 3}, {2, 3}]),  # loop at 4
    ]
    for m in small:
        for basis in sorted(m.bases, key=sorted):
            for _ in range(8):
                coords = {e: Fraction(rng.randint(-3, 3)) for e in basis}
                w = circuit_extension(m, basis, coords)
                assert in_lifted_bergman(m, w)
                assert all(w[e - 1] == coords[e] for e in basis)
                assert apartment_contains(m, basis, [w])


def test_circuit_extension_requires_basis(u23_matroid):
    with pytest.raises(ValidationError):
        circuit_extension(u23_matroid, frozenset({1}), {1: 0})


def test_fundamental_circuit_fano(fano_matroid):
    # adding y3 to the basis {y1, y2, w} closes the four-point circuit
    c = fano_matroid.fundamental_circuit(frozenset({1, 2, 7}), 3)
    assert c == frozenset({1, 2, 3, 7})
    # adding z1 closes the median line {y1, z1, w}
    c = fano_matroid.fundamental_circuit(frozenset({1, 2, 7}), 4)
    assert c == frozenset({1, 4, 7})


# ---------------------------------------------------------------------------
# refused inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda m: m.rank({1, 99}),
    lambda m: m.closure({99}),
    lambda m: m.fundamental_circuit({1, 2}, 99),
    lambda m: m.fundamental_circuit({1, 99}, 3),
], ids=["rank", "closure", "fundamental_circuit", "fundamental_circuit_basis"])
def test_elements_outside_the_ground_set_are_refused(u23_matroid, call):
    with pytest.raises(ValidationError):
        call(u23_matroid)


@pytest.mark.parametrize("call", [
    lambda m: in_lifted_bergman(m, (0, 0)),
    lambda m: apartment_contains(m, {1, 2}, [(0, 0)]),
    lambda m: apartment_contains(m, {1, 2}, [(1, 0, 0), (0, 0, 0, 1)]),
    lambda m: common_adapted_basis(m, [(1, 0, 0), (0, 1)]),
], ids=["in_lifted_bergman", "apartment_contains",
        "apartment_contains_second_row", "common_adapted_basis"])
def test_wrong_length_vectors_are_refused(u23_matroid, call):
    with pytest.raises(ValidationError):
        call(u23_matroid)


def test_fundamental_circuit_needs_an_independent_set_spanning_e(u23_matroid):
    with pytest.raises(ValidationError):
        u23_matroid.fundamental_circuit({1}, 2)  # {1, 2} is independent
    with pytest.raises(ValidationError):
        uniform_matroid(1, 3).fundamental_circuit({1, 2}, 3)  # {1, 2} is not


def test_uniform_matroid_at_north_star_scale():
    matroid = uniform_matroid(8, 16)
    assert len(matroid.bases) == 12870
    assert len(matroid.rank_table) == 1 << 16
    assert matroid.rank(range(1, 12)) == 8
    assert matroid.rank({2, 5, 7}) == 3


# ---------------------------------------------------------------------------
# the rank table against the basis-list oracles of conftest
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
P2 = Fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])


@st.composite
def families(draw):
    """(m, bases): an equal-size family of subsets of [m], m <= 6.

    Either an arbitrary nonempty family, mostly not the bases of a
    matroid, or the bases of the column matroid of a small integer matrix,
    always a matroid, with loops and parallel elements among them.
    """
    m = draw(st.integers(1, 6))
    r = draw(st.integers(0, m))
    subsets = [frozenset(b) for b in itertools.combinations(range(1, m + 1), r)]
    if draw(st.booleans()):
        return m, draw(st.lists(st.sampled_from(subsets), min_size=1, unique=True))
    cols = [[draw(st.integers(-1, 1)) for _ in range(r)] for _ in range(m)]
    bases = [b for b in subsets if det([cols[e - 1] for e in sorted(b)]) != 0]
    return m, bases or subsets


def matroids():
    return families().filter(lambda family: exchange_holds(family[1]))


@st.composite
def bergman_rows(draw, count):
    """A matroid and `count` integer rows of its lifted Bergman fan."""
    m, bases = draw(matroids())
    matroid = Matroid(m, bases)
    rows = [
        tuple(int(x) for x in bergman_project(
            matroid, [draw(st.integers(-2, 2)) for _ in range(m)]))
        for _ in range(count)
    ]
    return matroid, rows


@SETTINGS
@given(families())
def test_constructor_verdict_equals_the_exchange_check(family):
    m, bases = family
    try:
        Matroid(m, bases)
    except MatroidAxiomError:
        assert not exchange_holds(bases)
    else:
        assert exchange_holds(bases)


def test_families_reach_both_verdicts():
    seen = set()

    @SETTINGS
    @given(families())
    def collect(family):
        seen.add(exchange_holds(family[1]))

    collect()
    assert seen == {True, False}


@SETTINGS
@given(matroids())
def test_rank_table_equals_the_largest_basis_intersection(family):
    m, bases = family
    matroid = Matroid(m, bases)
    assert len(matroid.rank_table) == 1 << m
    for mask in range(1 << m):
        s = Matroid.elements(mask)
        assert matroid.mask(s) == mask
        assert matroid.rank(s) == oracle_rank(bases, s)
        assert is_independent(matroid, s) == (matroid.rank(s) == len(s))
        assert matroid.closure(s) == oracle_closure(matroid, s)


def _by_size(subsets):
    return tuple(sorted(subsets, key=lambda c: (len(c), sorted(c))))


@SETTINGS
@given(matroids())
def test_circuits_flats_and_fundamental_circuits_equal_enumeration(family):
    m, bases = family
    matroid = Matroid(m, bases)
    assert matroid.circuits() == _by_size(oracle_circuits(m, bases))
    assert matroid.flats() == _by_size(oracle_flats(m, bases))
    for s in matroid.flats():
        assert is_flat(matroid, s) and matroid.closure(s) == s
    for b in bases:
        for e in sorted(matroid.ground - b):
            assert matroid.fundamental_circuit(b, e) == oracle_fundamental_circuit(
                bases, b, e)


@SETTINGS
@given(bergman_rows(1))
def test_apartment_contains_exactly_the_maximal_weight_bases(case):
    # the oracle scan runs on apartment_contains, so check it on its own
    matroid, (w,) = case
    weight = {b: sum(w[e - 1] for e in b) for b in matroid.bases}
    top = max(weight.values())
    for b, wt in weight.items():
        assert apartment_contains(matroid, b, [w]) == (wt == top)


@SETTINGS
@given(st.integers(0, 4).flatmap(bergman_rows))
def test_common_adapted_basis_equals_the_sorted_scan(case):
    matroid, rows = case
    assert common_adapted_basis(matroid, rows) == scan_adapted_basis(matroid, rows)


@SETTINGS
@given(bergman_rows(3))
def test_validate_adapted_bases_equal_the_sorted_scan(case):
    matroid, rows = case
    want = {
        key: scan_adapted_basis(matroid, [rows[i] for i in sorted(key)])
        for key in P2.cone_keys
    }
    if None in want.values():
        with pytest.raises(NoCommonApartmentError):
            validate(P2, matroid, rows)
    else:
        assert validate(P2, matroid, rows).adapted_bases == want


def test_row_sets_reach_cones_without_a_common_apartment():
    seen = set()

    @SETTINGS
    @given(st.integers(0, 4).flatmap(bergman_rows))
    def collect_rows(case):
        seen.add(("rows", scan_adapted_basis(*case) is None))

    @SETTINGS
    @given(bergman_rows(3))
    def collect_p2(case):
        matroid, rows = case
        seen.add(("p2", any(
            scan_adapted_basis(matroid, [rows[i] for i in sorted(key)]) is None
            for key in P2.cone_keys
        )))

    collect_rows()
    collect_p2()
    assert seen == {("rows", False), ("rows", True), ("p2", False), ("p2", True)}
