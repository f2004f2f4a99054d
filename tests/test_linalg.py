"""The integer elimination kernel against Fraction Gauss-Jordan elimination.

`echelon` is the one elimination of `linalg`; `rank`, `nullspace` and
`solve` are read off it.  The oracle is the Fraction reduced row echelon
form `rref` and the solve built on it, `rref_solve`, from conftest.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.lattice import Cone
from tropehrhart.linalg import dot, echelon, integral, primitive, rank, solve

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
