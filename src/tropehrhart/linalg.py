"""Exact linear algebra over the rationals.

Vectors are plain tuples (of ints or Fractions), matrices are sequences of
row tuples.  Everything here is fraction-free where possible: `rank` is an
integer echelon form, and `nullspace` runs the Fraction reduction (`rref`)
only on the independent rows that echelon form picks.  Nothing ever touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def dot(a, b):
    return sum(map(mul, a, b))


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def primitive(v):
    """Divide an integer vector by the gcd of its entries.

    The sign is kept as given; (0,...,0) stays zero.
    """
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def integral(row):
    """The row times the lcm of its denominators (ints and Fractions)."""
    q = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (q // x.denominator) for x in row)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    return primitive(integral([Fraction(x) for x in v]))


def echelon(rows, stop=None):
    """Fraction-free echelon basis of integer rows, up to `stop` rows.

    Returns (row index, pivot column, reduced row) for every row that is
    independent of the ones before it.  Each reduced row is primitive, has a
    positive pivot entry and is zero at the pivots of the earlier rows.
    """
    basis = []
    for i, row in enumerate(rows):
        v = reduce_mod(row, basis)
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        basis.append((i, c, v if v[c] > 0 else vec_neg(v)))
        if len(basis) == stop:
            break
    return basis


def reduce_mod(v, basis):
    """Positive multiple of the integer vector v, reduced modulo the span of
    an `echelon` basis: zero at every pivot column, and the same for every
    vector in the class of v.  Primitive when v is."""
    v = tuple(v)
    for _, c, b in basis:
        if v[c]:
            v = primitive(tuple(b[c] * x - v[c] * y for x, y in zip(v, b)))
    return v


def rref(rows):
    """Reduced row echelon form over Fraction.

    Returns (reduced_rows, pivot_columns).  Input rows are not modified.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in mat], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(echelon([integral(r) for r in rows], len(rows[0])))


def nullspace(rows, ncols=None):
    """Basis of the right null space, as primitive integer vectors."""
    if not rows:
        assert ncols is not None
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    # the reduced form depends only on the row space: reduce a basis of it
    independent = [b for _, _, b in echelon([integral(r) for r in rows], ncols)]
    if len(independent) == ncols:
        return []
    red, pivots = rref(independent)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(clear_denominators(vec))
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly.

    Returns one solution as a tuple of Fractions, or None if inconsistent.
    The system may be underdetermined; free variables are set to 0.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def solve_unique(rows, rhs):
    """Solve a square full-rank system; None if singular or inconsistent."""
    if not rows:
        return ()
    ncols = len(rows[0])
    if rank(rows) != ncols:
        return None
    return solve(rows, rhs)


def det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def cross_nullvec(rows, dim):
    """Integer spanning vector of the null space of (dim-1) independent rows.

    Generalized cross product: component i is the signed cofactor obtained by
    deleting column i.  Returns the zero vector when the rows are dependent.
    """
    assert len(rows) == dim - 1
    comps = []
    for i in range(dim):
        minor = [[r[j] for j in range(dim) if j != i] for r in rows]
        comps.append(((-1) ** i) * det(minor))
    return tuple(comps)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]]
    diffs = [d for d in diffs if not is_zero(d)]
    if not diffs:
        return 0
    return rank(diffs)
