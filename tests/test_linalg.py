"""The integer elimination kernel against Fraction Gauss-Jordan elimination.

`echelon` is the one elimination of `linalg`; `rank`, `nullspace` and
`inverse` are read off it, and every linear system on the rays of a fan
cone is solved through one `inverse` per cone, `Fan.solve_on` and
`Fan.coordinates`.  The oracle is the Fraction reduced row echelon form
`rref` and the solve built on it, `rref_solve`, from conftest; `inverse` is
checked against one `rref_solve` per unit vector.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropehrhart.errors import NotInSupportError
from tropehrhart.lattice import Cone, _double_description, _pivot_inverse
from tropehrhart.linalg import (
    clear_denominators,
    dot,
    echelon,
    integral,
    inverse,
    primitive,
    rank,
)

from conftest import CHARACTER_FANS, CUBE4_FAN, FANS, intify, rref, rref_solve

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def systems(draw):
    """(rows, rhs) of a rational system A x = b.

    Rows are random, zero, or combinations of earlier rows, so square,
    under- and over-determined systems of every rank occur; the right-hand
    side is either A x0 (consistent) or random (mostly inconsistent when A
    has dependent rows).
    """
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combo"]))
        if kind == "zero":
            rows.append((Fraction(0),) * ncols)
        elif kind == "combo" and rows:
            a, b = draw(rationals), draw(rationals)
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(a * x + b * y for x, y in zip(r, s)))
        else:
            rows.append(tuple(draw(rationals) for _ in range(ncols)))
    if draw(st.booleans()):
        x0 = [draw(rationals) for _ in range(ncols)]
        rhs = [dot(r, x0) for r in rows]
    else:
        rhs = [draw(rationals) for _ in rows]
    return rows, rhs


def _kind(rows, sol):
    if not rows:
        return "no rows"
    if sol is None:
        return "inconsistent"
    n, r = len(rows[0]), rank(rows)
    if len(rows) == n == r:
        return "square"
    return "underdetermined" if r < n else "overdetermined"


# every cone of every dimension, simplicial or not; the 4-d cube fan's 3-d
# cones, over the squares of the 4-cube, are not simplicial
SOLVER_FANS = {**FANS, **CHARACTER_FANS, "cube4": CUBE4_FAN}
SOLVER_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def _typed(vec):
    """A vector with the type of every entry, since 1 == Fraction(1)."""
    return None if vec is None else tuple((type(x), x) for x in vec)


def _cone_systems(seed):
    """(fan, cone key, values, point) for every cone of every solver fan.

    The values on the cone's rays, in sorted order, are <u0, v> for a random
    rational u0, or random ints and Fractions, which disagree with every
    linear function on a cone that is not simplicial.  The point is a
    random rational combination of the rays, or a random point, mostly off
    the span of a cone that is not full-dimensional.
    """
    rng = random.Random(seed)

    def number():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    for name in sorted(SOLVER_FANS):
        fan = SOLVER_FANS[name]
        n = fan.ambient_dim
        for key in fan.cone_keys:
            rays = [fan.rays[i] for i in sorted(key)]
            if rng.random() < 0.5:
                u0 = [number() for _ in range(n)]
                values = [dot(r, u0) for r in rays]
            else:
                values = [rng.choice((rng.randint(-4, 4), number())) for _ in rays]
            if rng.random() < 0.5:
                lam = [number() for _ in rays]
                x = tuple(sum(l * r[t] for l, r in zip(lam, rays)) for t in range(n))
            else:
                x = tuple(rng.randint(-4, 4) for _ in range(n))
            yield fan, key, values, x


def _rref_solve_on(fan, key, values):
    """`rref_solve` of <u, v> = values on the cone's rays, the zero vector
    on the cone with no rays."""
    rays = [fan.rays[i] for i in sorted(key)]
    if not rays:
        return (0,) * fan.ambient_dim
    sol = rref_solve(rays, values)
    return None if sol is None else intify(sol)


def _rref_coordinates(fan, key, x):
    """`rref_solve` of x as a combination of the cone's rays; only the zero
    point is a combination of no rays."""
    rays = [fan.rays[i] for i in sorted(key)]
    if not rays:
        return None if any(x) else ()
    sol = rref_solve(list(zip(*rays)), x)
    return None if sol is None else intify(sol)


def _coordinates_or_none(fan, key, x):
    try:
        return fan.coordinates(key, x)
    except NotInSupportError:
        return None


@SOLVER_SETTINGS
@given(st.integers(0, 2**32))
def test_solve_equals_rref_solve(seed):
    # Fan.solve_on and Fan.coordinates equal rref_solve, in value and type
    for fan, key, values, x in _cone_systems(seed):
        sol = fan.solve_on(key, values)
        assert _typed(sol) == _typed(_rref_solve_on(fan, key, values))
        if sol is not None:
            rays = [fan.rays[i] for i in sorted(key)]
            assert [dot(r, sol) for r in rays] == values
        assert _typed(_coordinates_or_none(fan, key, x)) == _typed(
            _rref_coordinates(fan, key, x)
        )


def test_system_cases_cover_every_kind():
    seen = set()

    @SOLVER_SETTINGS
    @given(st.integers(0, 2**32))
    def collect(seed):
        for fan, key, values, x in _cone_systems(seed):
            rays = [fan.rays[i] for i in sorted(key)]
            seen.add(_kind(rays, fan.solve_on(key, values)))
            if _coordinates_or_none(fan, key, x) is None:
                seen.add("off the span")

    collect()
    assert seen == {
        "no rows", "inconsistent", "square", "underdetermined",
        "overdetermined", "off the span",
    }


@SETTINGS
@given(systems())
def test_echelon_rows_are_the_reduced_form_scaled_to_integers(case):
    rows, _ = case
    if not rows:
        return
    ints = [integral(r) for r in rows]
    basis = echelon(ints)
    red, pivots = rref(ints)
    assert [c for _, c, _ in sorted(basis, key=lambda t: t[1])] == pivots
    assert [b for _, _, b in sorted(basis, key=lambda t: t[1])] == [
        primitive(integral(r)) for r in red[: len(pivots)]
    ]
    # the basis rows are the rows independent of the ones before them
    independent = [
        i for i in range(len(ints))
        if len(rref(ints[: i + 1])[1]) > len(rref(ints[:i])[1])
    ]
    assert [i for i, _, _ in basis] == independent
    for stop in range(1, len(basis) + 1):
        assert [i for i, _, _ in echelon(ints, stop)] == independent[:stop]


def test_cone_key_reads_lineality_off_the_reduced_form():
    # two bases of one lineality space give one key, a different space not
    a = Cone([(1, 0, 0)], 3, lineality=[(0, 1, 1), (0, 1, -1)])
    b = Cone([(1, 0, 0)], 3, lineality=[(0, 1, 0), (0, 2, 3)])
    c = Cone([(1, 0, 0)], 3, lineality=[(0, 1, 0), (1, 0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c


@st.composite
def invertible_matrices(draw):
    """A square invertible integer matrix of size 1 to 4: random small
    entries (mostly not unimodular), or a unimodular product L U of
    triangular matrices with units on the diagonal."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        row = st.tuples(*[st.integers(-4, 4)] * n)
        return draw(st.lists(row, min_size=n, max_size=n).filter(lambda m: rank(m) == n))
    entry = st.integers(-2, 2)
    low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[draw(st.sampled_from([1, -1])) if i == j else draw(entry) if j > i else 0
           for j in range(n)] for i in range(n)]
    return [tuple(dot(row, col) for col in zip(*up)) for row in low]


@SETTINGS
@given(invertible_matrices())
@example([(1, 0, 0), (2, 1, 0), (-1, 3, -1)])
@example([(2, 1, 0), (1, 3, 1), (0, 1, 4)])
def test_inverse_is_solve_over_the_least_common_denominator(m):
    n = len(m)
    a, d = inverse(m)
    # column i of the inverse solves M x = e_i
    cols = [rref_solve(m, [int(j == i) for j in range(n)]) for i in range(n)]
    assert d == lcm(*(x.denominator for col in cols for x in col))
    assert a == [tuple(col[r] * d for col in cols) for r in range(n)]
    assert all(type(x) is int for row in a for x in row)
    assert [[dot(row, col) for col in zip(*a)] for row in m] == [
        [d * (i == j) for j in range(n)] for i in range(n)
    ]
    # no smaller positive d leaves A / d an integer matrix times 1 / d
    assert gcd(d, *(x for row in a for x in row)) == 1
    # the one elimination of a cone's rays keeps every row, with every
    # column a pivot, and the double description of the primitive rows is
    # the start cone, whose rays are the primitive columns
    assert _pivot_inverse(m, n)[1] == (list(range(n)), list(range(n)), a, d)
    full = (1 << n) - 1
    assert _double_description([primitive(r) for r in m], n)[0] == sorted(
        (clear_denominators(col), full ^ 1 << i) for i, col in enumerate(cols)
    )


def test_inverse_refuses_a_singular_or_non_square_matrix():
    with pytest.raises(ValueError):
        inverse([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        inverse([(1, 0, 0)])
    assert inverse([]) == ([], 1)
    assert inverse([(2, 0), (1, 1)]) == ([(1, 0), (-1, 2)], 2)


def test_coordinates_refuse_a_point_off_the_span():
    fan = FANS["cube"]
    # the cone over a square of the cube: 4 rays spanning 3 dimensions,
    # and an edge of it, whose span misses (1, 0, 0)
    square = next(k for k in fan.cone_keys if len(k) == 4)
    edge = next(k for k in fan.cone_keys if len(k) == 2 and k < square)
    centre = tuple(sum(fan.rays[i][t] for i in square) for t in range(3))
    lam = fan.coordinates(square, centre)
    assert tuple(
        sum(l * fan.rays[i][t] for l, i in zip(lam, sorted(square))) for t in range(3)
    ) == centre
    with pytest.raises(NotInSupportError):
        fan.coordinates(edge, centre)
    with pytest.raises(NotInSupportError):
        fan.coordinates(frozenset(), (0, 0, 1))
