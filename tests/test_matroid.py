import random
from fractions import Fraction

import pytest

from tropehrhart.errors import MatroidAxiomError, ValidationError
from tropehrhart.matroid import (
    Matroid,
    apartment_contains,
    bergman_project,
    circuit_extension,
    circuits,
    closure,
    in_lifted_bergman,
    initial_matroid,
    level_flag,
    loops,
    matroid_polytope,
    max_weight_basis,
    rank,
    uniform_matroid,
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
            level_flag(m, p1)  # raises unless the level sets form a flag
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
