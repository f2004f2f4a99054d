"""Exact linear algebra over the rationals.

Vectors are plain tuples of exact numbers, matrices are sequences of row
tuples.  An exact number is an int where it is integral and a Fraction
otherwise; `exact` is the one place that rule is applied to a given value.
There is one elimination, the fraction-free integer `echelon` (in the style
of Bareiss 1968): its rows are the reduced row echelon form scaled to
primitive integers, and `rank`, `nullspace` and `inverse` are read off it
(`lattice` reads the dimension of a cone or polytope off its double
description instead).  `pivot_inverse` runs it once on rows that carry
their coefficients over the kept rows, and reads off both the echelon
basis and the inverse of the kept rows at their pivots, as an integer
matrix over the least common denominator; `inverse` is that elimination on
a square matrix.  So the many systems that share one matrix cost one
elimination and then an integer product each (`quotient` divides that
product exactly).  It is the one solver: a linear system on the rays of a
cone is solved through `lattice.Fan.cone_inverse`, the inverse its dual's
double description starts from, from the same elimination.  `det`
(Bareiss) is the one determinant.  Nothing ever touches floating point.
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
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def exact(x):
    """x as an exact number: an int stays an int, an integral Fraction
    becomes its int, and anything else becomes a Fraction.  A non-integral
    Fraction is returned as given.

    The two spellings of an integer compare and hash equal, so normalizing
    changes no test, sort or dict key; it saves the Fraction arithmetic.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def integral(row):
    """The row times the lcm of its denominators (ints and Fractions)."""
    q = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (q // x.denominator) for x in row)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    return primitive(integral([exact(x) for x in v]))


def echelon(rows, stop=None, *, coefficients=False):
    """Fraction-free reduced echelon basis of integer rows, up to `stop` rows.

    Returns (row index, pivot column, reduced row) for every row that is
    independent of the ones before it.  Each reduced row is primitive, has a
    positive pivot entry, is zero before its pivot and zero at every other
    pivot: sorted by pivot, the rows are the reduced row echelon form of the
    rows seen, each scaled to a primitive integer vector.

    With `coefficients`, each row is eliminated followed by the unit vector
    e_k of length `stop`, k the number of rows kept before it, and takes its
    pivot before that block.  The block of a reduced row then holds its
    coefficients over the kept rows, in the order kept, at the row's scale;
    a dependent row leaves its slot to the next one.
    """
    basis = []
    width = None
    for i, row in enumerate(rows):
        if coefficients:
            width, slot = len(row), len(basis)
            row = (*row, *(0,) * slot, 1, *(0,) * (stop - slot - 1))
        v = reduce_mod(row, basis)
        c = next((j for j, x in enumerate(v[:width]) if x), None)
        if c is None:
            continue
        v = primitive(v if v[c] > 0 else vec_neg(v))
        # back-reduce: clear the new pivot column in the earlier rows
        basis = [
            (k, pc, primitive(tuple(v[c] * x - b[c] * y for x, y in zip(b, v))))
            if b[c] else (k, pc, b)
            for k, pc, b in basis
        ]
        basis.append((i, c, v))
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


def rank(rows) -> int:
    if not rows:
        return 0
    return len(echelon([integral(r) for r in rows], len(rows[0])))


def nullspace(rows, ncols=None):
    """Basis of the right null space, as primitive integer vectors.

    One vector per free column f of the reduced echelon form: 1 at f and
    -b[f] / b[pivot] at the pivot of each reduced row b, all scaled by the
    lcm of the pivot entries.
    """
    if not rows:
        assert ncols is not None
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    return echelon_nullspace(echelon([integral(r) for r in rows], ncols), ncols)


def echelon_nullspace(basis, ncols):
    """`nullspace` of the rows of an `echelon` basis, read off the basis."""
    scale = lcm(*(b[pc] for _, pc, b in basis))
    pivots = {pc: (scale // b[pc], b) for _, pc, b in basis}
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for pc, (q, b) in pivots.items():
            vec[pc] = -q * b[fc]
        out.append(primitive(vec))
    return out


def pivot_inverse(rows, dim):
    """(basis, A, d) of integer rows of length dim, from one `echelon` that
    keeps the coefficients of its rows over the kept ones.

    basis is `echelon(rows, dim)`: the left blocks of the reduced rows,
    made primitive.  Let M be the k kept rows restricted to their sorted
    pivot columns; (A, d) are the integer matrix and the least positive d
    with M A = d I.  A reduced row b with pivot pc is zero at the other
    pivots, so its coefficients c over the kept rows are b[pc] times the
    row of M^-1 at pc.  Its left block is an integer combination of c, so
    b is primitive only when c is, and that row is c / b[pc] in lowest
    terms: d is the lcm of the pivot entries.
    """
    found = echelon(rows, dim, coefficients=True)
    d = lcm(*(b[pc] for _, pc, b in found))
    inv = {pc: tuple(d // b[pc] * x for x in b[dim:dim + len(found)]) for _, pc, b in found}
    return [(i, pc, primitive(b[:dim])) for i, pc, b in found], [inv[pc] for pc in sorted(inv)], d


def inverse(square):
    """(A, d) with integer A and the least positive d such that M A = d I,
    for an invertible integer matrix M, from `pivot_inverse`.  Raises
    ValueError when M is not square or singular.
    """
    n = len(square)
    if any(len(row) != n for row in square):
        raise ValueError("only a square matrix has an inverse")
    basis, a, d = pivot_inverse(square, n)
    if len(basis) < n:
        raise ValueError("singular matrix has no inverse")
    return a, d


def quotient(v, d):
    """v / d entrywise as exact numbers (entries may be ints or Fractions)."""
    return tuple(
        x // d if type(x) is int and not x % d else exact(Fraction(x, d))
        for x in v
    )


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

