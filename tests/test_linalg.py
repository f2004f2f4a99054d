"""The integer elimination kernel against Fraction Gauss-Jordan elimination.

`echelon` is the one elimination of `linalg`; `rank`, `nullspace`,
`solve` and `inverse` are read off it.  The oracle is the Fraction reduced
row echelon form `rref` and the solve built on it, `rref_solve`, from
conftest; `inverse` is checked against one `solve` per unit vector.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropehrhart.lattice import Cone, _inverse_columns
from tropehrhart.linalg import (
    clear_denominators,
    dot,
    echelon,
    integral,
    inverse,
    primitive,
    rank,
    solve,
)

from conftest import rref, rref_solve

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


@SETTINGS
@given(systems())
def test_solve_equals_rref_solve(case):
    rows, rhs = case
    sol = solve(rows, rhs)
    assert sol == rref_solve(rows, rhs)
    if sol is not None:
        assert all(isinstance(x, Fraction) for x in sol)
        assert all(dot(r, sol) == b for r, b in zip(rows, rhs))


def test_system_cases_cover_every_kind():
    seen = set()

    @SETTINGS
    @given(systems())
    def collect(case):
        rows, rhs = case
        seen.add(_kind(rows, solve(rows, rhs)))
        if any(not any(r) for r in rows):
            seen.add("zero row")

    collect()
    assert seen == {
        "no rows", "inconsistent", "square", "underdetermined",
        "overdetermined", "zero row",
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
    cols = [solve(m, [int(j == i) for j in range(n)]) for i in range(n)]
    assert d == lcm(*(x.denominator for col in cols for x in col))
    assert a == [tuple(col[r] * d for col in cols) for r in range(n)]
    assert all(type(x) is int for row in a for x in row)
    assert [[dot(row, col) for col in zip(*a)] for row in m] == [
        [d * (i == j) for j in range(n)] for i in range(n)
    ]
    # no smaller positive d leaves A / d an integer matrix times 1 / d
    assert gcd(d, *(x for row in a for x in row)) == 1
    # the double description's start cone keeps its rays
    assert _inverse_columns(m) == [clear_denominators(col) for col in cols]


def test_inverse_refuses_a_singular_or_non_square_matrix():
    with pytest.raises(ValueError):
        inverse([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        inverse([(1, 0, 0)])
    assert inverse([]) == ([], 1)
    assert inverse([(2, 0), (1, 1)]) == ([(1, 0), (-1, 2)], 2)
