"""Exact linear algebra over the rationals.

Vectors are plain tuples of exact numbers, matrices are sequences of row
tuples.  An exact number is an int where it is integral and a Fraction
otherwise; `exact` is the one place that rule is applied to a given value.
There is one elimination, the fraction-free integer `echelon` (in the style
of Bareiss 1968): its rows are the reduced row echelon form scaled to
primitive integers, and `rank`, `nullspace` and `inverse` are read off it
(`lattice` reads the dimension of a cone or polytope off its double
description instead).  `inverse` gives an invertible integer matrix's inverse as an integer matrix
over one common denominator, so the many systems that share one matrix cost
one elimination and then an integer product each (`quotient` divides that
product exactly).  It is the one solver: a linear system on the rays of a
cone is solved through `lattice.Fan.cone_inverse`, the inverse its dual's
double description starts from.  `det` (Bareiss) is the one determinant.  Nothing ever touches floating point.
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


def echelon(rows, stop=None):
    """Fraction-free reduced echelon basis of integer rows, up to `stop` rows.

    Returns (row index, pivot column, reduced row) for every row that is
    independent of the ones before it.  Each reduced row is primitive, has a
    positive pivot entry, is zero before its pivot and zero at every other
    pivot: sorted by pivot, the rows are the reduced row echelon form of the
    rows seen, each scaled to a primitive integer vector.
    """
    basis = []
    for i, row in enumerate(rows):
        v = reduce_mod(row, basis)
        c = next((j for j, x in enumerate(v) if x), None)
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


def inverse(square):
    """(A, d) with integer A and the least positive d such that M A = d I,
    for an invertible integer matrix M, from one `echelon` of [M | I].

    Every reduced row b has the left block b[pc] at its pivot pc and zero
    elsewhere, so row pc of M^-1 is b[n:] / b[pc], in lowest terms since b
    is primitive.  The least common denominator d is therefore the lcm of
    the pivot entries.  Raises ValueError when M is not square or singular.
    """
    n = len(square)
    if any(len(row) != n for row in square):
        raise ValueError("only a square matrix has an inverse")
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    basis = echelon([tuple(row) + e for row, e in zip(square, unit)])
    if any(pc >= n for _, pc, _ in basis):
        raise ValueError("singular matrix has no inverse")
    d = lcm(*(b[pc] for _, pc, b in basis))
    rows = {pc: (d // b[pc], b[n:]) for _, pc, b in basis}
    return [tuple(q * x for x in row) for q, row in map(rows.get, range(n))], d


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

