"""Shared fixtures: the standard fans (and `FANS`, named fans for property
tests, and the fans of P^n and (P^1)^n), the Fano-plane bundle, the rank-2
uniform bundle on the projective plane, and independent oracles used to
cross-check the exact machinery: Fraction Gauss-Jordan elimination (`rref`,
`rref_solve`, `solve_unique`), the cofactor null vector (`cross_nullvec`),
matroid ones read off the basis list (the pairwise exchange check, rank as
the largest basis intersection,
subset-enumeration circuits, flats and fundamental circuits, independence,
closure, the flat test and the Klyachko flats of a bundle, membership in
the lifted Bergman fan and in an apartment, the sorted scan for adapted
bases), the per-cone Fraction route of bundle validation
(`common_adapted_basis`, `oracle_adapted_bases`), the per-character
`rref_solve` routes of characters, split resolutions and the Riemann-Roch
extension forms (`oracle_cone_characters`, `oracle_split_characters`,
`oracle_extension_forms`), the pull-back row of a new ray by a search of the
ray subsets of its smallest cone (`oracle_pullback_row`), the
parliament-box route of the global sections (`parliament_box`,
`oracle_h0_nonzero`), the section rank of a cone at one character, read
off the diagram by closures (`oracle_section_rank`, and `oracle_h0`,
`oracle_chi_by_codim` and `oracle_chi` built on it), geometric ones (the
double description started from the inverse of the independent rows
stacked on a lineality basis, `inverse_start_double_description`; the
pulling triangulation from the largest vertex; the
double-dual check of a cone's rays; duals, cuts and face lattices by a
fresh `vcone_from_halfspaces` and dot products; the smallest cone of a fan
containing a point by a scan by dimension; the dual-ray test of a point in
a cone, `dual_ray_contains`, and the routes on it that one point location
replaced, `contains_stellar_subdivision`, `nested_contains_refinement` and
`scan_values_at`; the refinement that cuts every maximal cone by the
branch differences of every maximal cone, `global_split_branches`; the
extreme-ray test, the facets
and completeness of a fan read off face sets and dimensions; the
dimension of a cone as the rank of its generators (`span_dim`) and of a
polytope as the rank of its vertex differences (`affine_rank`); the Fraction
route of hulls, `VPolytope` and `HPolyhedron`, which coerces every
coordinate and bound to a Fraction), the flag
model of the tautological bundle (the chains of subsets, the permutahedral
fan, the bundle's closure rows, adapted bases and characters, and the flag
sum by enumeration) and the pointwise routes built on it (chart sections,
global sections and the Euler characteristic at one character, each
computed two ways), the monomial
route of the Riemann-Roch left side (the polynomial z -> I(alpha[z])
expanded from the volume form by `_branch_sum` into a `MultiPoly`, the
Todd operator on monomials by `apply_todd`, the Bernoulli numbers), the
Fraction route of the Riemann-Roch left side and its top-degree guard
(`oracle_todd_lhs`, `oracle_todd_sum`, `oracle_power_form`,
`oracle_volume_form`, one Fraction per step), the
per-piece box kernel of chains (`oracle_box_values`), and the small
constructions only tests use (box points, point chains, chain boxes,
translates, relative-interior tests, maximal flags, the face alternating
sum)."""

import itertools
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from math import ceil, comb, factorial, floor, prod

import pytest

from tropehrhart import hrr
from tropehrhart.chains import (
    BOX_BLOCK,
    INT64_SAFE,
    ConvexChain,
    SupportNumbers,
    _integer_hrep,
    box_offsets,
    split_branches,
)
from tropehrhart.errors import (
    BoxTooLargeError,
    InterpolationFailureError,
    NoCommonApartmentError,
    NotInSupportError,
    RowNotInBergmanError,
    TropehrhartError,
    ValidationError,
)
from tropehrhart.lattice import (
    Cone,
    Fan,
    HPolyhedron,
    VPolytope,
    _cut,
    _hull_data,
    _pulling_triangulation,
    bounding_box,
    box_size,
    check_box,
    refine_by_hyperplanes,
    vcone_from_halfspaces,
    vertex_enumeration,
)
from tropehrhart.linalg import (
    clear_denominators,
    det,
    dot,
    echelon,
    echelon_nullspace,
    inverse,
    is_zero,
    primitive,
    rank,
    reduce_mod,
    vec_neg,
    vec_sub,
)
from tropehrhart.matroid import (
    Matroid,
    _level_masks,
    _weights,
    bergman_project,
    circuit_extension,
    max_weight_basis,
    uniform_matroid,
)
from tropehrhart.hrr import todd_coeffs
from tropehrhart.tropvb import validate


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def p1_fan():
    return Fan([(1,), (-1,)], [[0], [1]])


@pytest.fixture(scope="session")
def p2_fan():
    return Fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])


@pytest.fixture(scope="session")
def p1xp1_fan():
    return Fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]])


@pytest.fixture(scope="session")
def hexagon_fan():
    return Fan(
        [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
        [[0, 5], [5, 1], [1, 3], [3, 2], [2, 4], [4, 0]],
    )


CUBE_CORNERS = list(itertools.product((1, -1), repeat=3))
# named complete fans of dimension 1 to 3 for property tests
FANS = {
    "P1": Fan([(1,), (-1,)], [[0], [1]]),
    "P2": Fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]]),
    "P1xP1": Fan([(1, 0), (0, 1), (-1, 0), (0, -1)],
                 [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "hexagon": Fan([(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
                   [[0, 5], [5, 1], [1, 3], [3, 2], [2, 4], [4, 0]]),
    # not smooth: one cone of determinant 2
    "weighted": Fan([(1, 0), (1, 2), (-1, 0), (0, -1)],
                    [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "P3": Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    # not simplicial: the cones over the faces of a cube
    "cube": Fan(CUBE_CORNERS,
                [[i for i, v in enumerate(CUBE_CORNERS) if v[axis] == sign]
                 for axis in range(3) for sign in (1, -1)]),
}
CHARACTER_FANS = {
    **{name: FANS[name] for name in ("P2", "P1xP1", "hexagon", "P3", "cube")},
    "P1^3": Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
                [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]),
    # P(1,1,2): the cone {3, 1} has determinant 2
    "P(1,1,2)": Fan([(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [2, 0]]),
}
CUBE4_CORNERS = list(itertools.product((1, -1), repeat=4))
# the cones over the facets of the 4-cube; its 3-d cones, over the squares,
# are not simplicial either
CUBE4_FAN = Fan(CUBE4_CORNERS,
                [[i for i, v in enumerate(CUBE4_CORNERS) if v[axis] == sign]
                 for axis in range(4) for sign in (1, -1)])
# the fan of the point: no rays, one cone, the origin
POINT_FAN = Fan([], [[]], 0)


def projective_fan(n):
    """The fan of P^n: rays e_1, ..., e_n, -(e_1 + ... + e_n)."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return Fan(rays, [list(c) for c in itertools.combinations(range(n + 1), n)])


def p1_power_fan(n):
    """The fan of (P^1)^n: rays +-e_i, one cone per choice of signs."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays += [tuple(-x for x in r) for r in rays]
    return Fan(rays, [[i + n * b for i, b in enumerate(bits)]
                      for bits in itertools.product((0, 1), repeat=n)])


# ---------------------------------------------------------------------------
# Matroids and bundles
# ---------------------------------------------------------------------------

FANO_LINES = [
    {2, 3, 4}, {1, 3, 5}, {1, 2, 6}, {1, 4, 7}, {2, 5, 7}, {3, 6, 7}, {4, 5, 6}
]
# ground set order: y1 y2 y3 z1 z2 z3 w
FANO_DIAGRAM = [
    (2, 0, 0, 1, 0, 0, 1),
    (0, 2, 0, 0, 1, 0, 1),
    (0, 0, 2, 0, 0, 1, 1),
]


@pytest.fixture(scope="session")
def fano_matroid():
    bases = [
        set(b)
        for b in itertools.combinations(range(1, 8), 3)
        if set(b) not in FANO_LINES
    ]
    return Matroid(7, bases)


@pytest.fixture(scope="session")
def u23_matroid():
    return uniform_matroid(2, 3)


@pytest.fixture(scope="session")
def fano_bundle(p2_fan, fano_matroid):
    return validate(p2_fan, fano_matroid, FANO_DIAGRAM)


@pytest.fixture(scope="session")
def u23_bundle(p2_fan, u23_matroid):
    return validate(p2_fan, u23_matroid, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form over Fraction, by Gauss-Jordan elimination.

    Returns (reduced_rows, pivot_columns); zero rows stay at the end.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
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


def rref_solve(rows, rhs):
    """One solution of A x = b read off `rref` of the augmented rows, with
    free variables 0; None if inconsistent."""
    if not rows:
        return ()
    ncols = len(rows[0])
    red, pivots = rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def solve_unique(rows, rhs):
    """The solution of a square full-rank system; None if it is singular or
    inconsistent."""
    if not rows:
        return ()
    if len(rref(rows)[1]) != len(rows[0]):
        return None
    return rref_solve(rows, rhs)


def cross_nullvec(rows, dim):
    """Generalized cross product of dim - 1 integer rows: component i is the
    signed minor with column i deleted.  Zero when the rows are dependent."""
    assert len(rows) == dim - 1
    return tuple(
        (-1) ** i * det([[r[j] for j in range(dim) if j != i] for r in rows])
        for i in range(dim)
    )


def exchange_holds(bases) -> bool:
    """Basis exchange, pair by pair: for bases B1, B2 and x in B1 - B2 some
    y in B2 - B1 makes B1 - x + y a basis."""
    bases = {frozenset(b) for b in bases}
    return all(
        any((b1 - {x}) | {y} in bases for y in b2 - b1)
        for b1 in bases
        for b2 in bases
        for x in b1 - b2
    )


def oracle_rank(bases, subset) -> int:
    """Rank as the largest intersection of the subset with a basis."""
    s = frozenset(subset)
    return max(len(b & s) for b in bases)


def _subsets(m):
    ground = range(1, m + 1)
    for size in range(m + 1):
        for s in itertools.combinations(ground, size):
            yield frozenset(s)


def oracle_circuits(m, bases):
    """Dependent subsets all of whose one-element deletions are independent."""
    def indep(s):
        return oracle_rank(bases, s) == len(s)

    return {
        s for s in _subsets(m)
        if not indep(s) and all(indep(s - {x}) for x in s)
    }


def oracle_flats(m, bases):
    """Subsets that every added element raises in rank."""
    return {
        s for s in _subsets(m)
        if all(
            oracle_rank(bases, s | {e}) > oracle_rank(bases, s)
            for e in range(1, m + 1) if e not in s
        )
    }


def oracle_fundamental_circuit(bases, basis, e):
    """The smallest subset of basis | {e} through e that is a circuit."""
    b = frozenset(basis)
    for size in range(1, len(b) + 2):
        for s in itertools.combinations(sorted(b | {e}), size):
            fs = frozenset(s)
            if e in fs and oracle_rank(bases, fs) < len(fs) and all(
                oracle_rank(bases, fs - {x}) == len(fs) - 1 for x in fs
            ):
                return fs
    return None


def is_independent(matroid, subset) -> bool:
    """Does the subset lie in a basis?"""
    s = frozenset(subset)
    return any(s <= b for b in matroid.bases)


def oracle_closure(matroid, subset) -> frozenset:
    """The elements that do not raise the rank of the subset."""
    s = frozenset(subset)
    r = oracle_rank(matroid.bases, s)
    return frozenset(
        e for e in matroid.ground if oracle_rank(matroid.bases, s | {e}) == r
    )


def is_flat(matroid, subset) -> bool:
    """Is the subset its own closure?"""
    return oracle_closure(matroid, subset) == frozenset(subset)


def klyachko_flat(bundle, ray_index, i) -> frozenset:
    """The flat of the elements whose diagram entry on the ray is >= i: the
    closure of that level set."""
    row = bundle.diagram[ray_index]
    return oracle_closure(bundle.matroid, {e for e, x in enumerate(row, 1) if x >= i})


def oracle_section_rank(bundle, key, u) -> int:
    """Rank of the meet of the Klyachko flats F_rho(<u, v_rho>) over the
    rays rho of a cone, each the closure of its level set {e : D[rho, e] >=
    <u, v_rho>}; the empty meet is the ground set.  It reads the diagram,
    never the bundle's table."""
    return _rank_of_meet(bundle.matroid, _oracle_ray_flats(bundle, u), key)


def _oracle_ray_flats(bundle, u):
    """The masks of F_rho(<u, v_rho>) of `oracle_section_rank`, per ray."""
    closure = bundle.matroid.closure_mask
    flats = []
    for v, row in zip(bundle.fan.rays, bundle.diagram):
        level = sum(a * b for a, b in zip(u, v))
        flats.append(closure(sum(1 << j for j, x in enumerate(row) if x >= level)))
    return flats


def _rank_of_meet(matroid, flats, key) -> int:
    meet = (1 << matroid.m) - 1
    for i in key:
        meet &= flats[i]
    return matroid.rank_table[meet]


def oracle_h0(bundle, u) -> int:
    """h0_u by `oracle_section_rank` on one cone of every ray."""
    return oracle_section_rank(bundle, range(len(bundle.fan.rays)), u)


def oracle_chi_by_codim(bundle, u):
    """Per codimension, the sum of `oracle_section_rank` over its cones."""
    fan = bundle.fan
    flats = _oracle_ray_flats(bundle, u)
    out = [0] * (fan.ambient_dim + 1)
    for key, dim in fan.cone_dims.items():
        out[fan.ambient_dim - dim] += _rank_of_meet(bundle.matroid, flats, key)
    return out


def oracle_chi(bundle, u) -> int:
    """chi_u, the alternating sum of `oracle_chi_by_codim`."""
    return sum(-h if k % 2 else h for k, h in enumerate(oracle_chi_by_codim(bundle, u)))


def in_lifted_bergman(matroid: Matroid, w) -> bool:
    """Is every level set {j : w_j >= k} a flat?  The membership test that
    `validate` makes on the level masks it keeps."""
    return all(
        matroid.closure_mask(level) == level
        for _, level in _level_masks(_weights(matroid, w))
    )


def apartment_contains(matroid: Matroid, basis, vectors) -> bool:
    """Do all given lifted Bergman points lie in the apartment of a basis?

    A point lies in the apartment iff the basis is adapted to its level-set
    flag: every level flat F satisfies |F & B| = rank(F), so that F & B
    spans F.  `validate` tests only the greedy basis of each cone this way.
    """
    b = frozenset(basis)
    if b not in matroid.bases:
        raise ValidationError(f"{sorted(b)} is not a basis")
    b = matroid.mask(b)
    table = matroid.rank_table
    for w in vectors:
        for _, level in _level_masks(_weights(matroid, w)):
            flat = matroid.closure_mask(level) == level
            if not flat or (level & b).bit_count() != table[level]:
                return False
    return True


def scan_adapted_basis(matroid, rows):
    """The first basis in sorted order whose apartment holds every row."""
    for b in sorted(matroid.bases, key=sorted):
        if apartment_contains(matroid, b, rows):
            return b
    return None


def common_adapted_basis(matroid, rows):
    """Lexicographically smallest basis adapted to every given lifted Bergman
    point, or None, by `Fraction` weights: the greedy basis of the rows' sum
    (`max_weight_basis`), kept only if `apartment_contains` holds for it."""
    rows = [tuple(Fraction(x) for x in w) for w in rows]
    if any(len(w) != matroid.m for w in rows):
        raise ValidationError("weight vector length must equal the ground size")
    total = [sum(w[j] for w in rows) for j in range(matroid.m)]
    found = max_weight_basis(matroid, total)
    return found if apartment_contains(matroid, found, rows) else None


def oracle_adapted_bases(fan, matroid, diagram):
    """The adapted basis of every cone, or the error, by the per-cone route:
    `is_flat` on each level set, then `common_adapted_basis` and the
    non-simplicial `rref_solve` per cone.  The diagram has one row per ray and
    one column per element, and the fan is complete."""
    for ri, row in enumerate(diagram):
        for k in set(row):
            level = frozenset(e for e in range(1, matroid.m + 1) if row[e - 1] >= k)
            if not is_flat(matroid, level):
                raise RowNotInBergmanError(ri + 1, row, level)
    adapted = {}
    for key in fan.cone_keys:
        rows = [diagram[i] for i in sorted(key)]
        found = common_adapted_basis(matroid, rows)
        if found is None:
            raise NoCommonApartmentError(key)
        adapted[key] = found
        if len(key) > fan.cone_dims[key]:
            rays = [fan.rays[i] for i in sorted(key)]
            for b in found:
                if rref_solve(rays, [diagram[i][b - 1] for i in sorted(key)]) is None:
                    raise NoCommonApartmentError(key)
    return adapted


def intify(vec):
    """A rational vector with every integral entry as an int, the others
    as Fractions."""
    return tuple(
        int(x) if Fraction(x).denominator == 1 else Fraction(x) for x in vec
    )


def oracle_cone_characters(bundle, key):
    """The sorted characters of a maximal cone by one `rref_solve` over all the
    cone's rays per adapted basis element."""
    idx = sorted(key)
    rows = [bundle.fan.rays[i] for i in idx]
    return tuple(sorted(
        intify(rref_solve(rows, [bundle.diagram[i][b - 1] for i in idx]))
        for b in bundle.adapted_bases[key]
    ))


def oracle_split_characters(bundle, f=None):
    """The character multisets of `split_resolution`, one {maximal cone:
    sorted characters} map per codimension, by one `rref_solve` per (maximal
    cone tau, cone sigma, basis element): the pairing on the rays of sigma,
    f off them."""
    fan = bundle.fan
    if f is None:
        f = tuple(max(row) for row in bundle.diagram)
    else:
        f = tuple(Fraction(x) for x in f)
    out = [{} for _ in range(fan.ambient_dim + 1)]
    for tau in fan.maximal_keys:
        idx = sorted(tau)
        rows = [fan.rays[i] for i in idx]
        for sigma in fan.cone_keys:
            chars = out[fan.codim(sigma)].setdefault(tau, [])
            for b in bundle.adapted_bases[sigma]:
                rhs = [bundle.diagram[i][b - 1] if i in sigma else f[i] for i in idx]
                chars.append(intify(rref_solve(rows, rhs)))
    return [{tau: tuple(sorted(us)) for tau, us in piece.items()} for piece in out]


def oracle_extension_forms(fan, rays):
    """`hrr._extension_forms` by one `rref_solve` per (ray, maximal cone): the
    coordinates of each ray that is not a fan ray over the rays of the
    first maximal cone in which they are nonnegative."""
    index = {r: i for i, r in enumerate(fan.rays)}
    forms = []
    for v in rays:
        if v in index:
            forms.append({index[v]: 1})
            continue
        for key in fan.maximal_keys:
            idx = sorted(key)
            c = rref_solve([tuple(fan.rays[i][t] for i in idx)
                       for t in range(fan.ambient_dim)], v)
            if c is not None and all(x >= 0 for x in c):
                forms.append({i: x for i, x in zip(idx, intify(c)) if x != 0})
                break
    return forms


def conic_coordinates(fan, key, v):
    """Nonnegative coordinates of v over the rays of sorted(key), by a search
    of the independent ray subsets of the cone's dimension for a conic
    combination, zero off the subset found; None when there is none."""
    rays = [fan.rays[i] for i in sorted(key)]
    k = fan.cone_dims[frozenset(key)]
    for subset in itertools.combinations(range(len(rays)), k):
        sub = [rays[i] for i in subset]
        if rank(sub) != k:
            continue
        lam = rref_solve(list(zip(*sub)), v)
        if lam is None or any(x < 0 for x in lam):
            continue
        full = [Fraction(0)] * len(rays)
        for pos, x in zip(subset, lam):
            full[pos] = x
        return tuple(full)
    return None


def oracle_pullback_row(bundle, v):
    """The row that a pull-back gives a new ray v: the adapted coordinates
    of the rows of v's smallest cone, combined by `conic_coordinates`,
    extended by the circuit-minimum formula."""
    key = scan_min_containing_cone(bundle.fan, v)
    lam = conic_coordinates(bundle.fan, key, v)
    basis = bundle.adapted_bases[key]
    coords = {
        b: sum(l * bundle.diagram[i][b - 1] for l, i in zip(lam, sorted(key)))
        for b in basis
    }
    return circuit_extension(bundle.matroid, basis, coords)


def parliament_box(bundle):
    """Unpadded bounding box of the vertices of every parliament polytope,
    one double description per ground element, or None when all are
    empty."""
    pts = []
    for p in bundle.parliament().values():
        pts.extend(vertex_enumeration(p).vertices)
    return bounding_box(pts, 0) if pts else None


def oracle_h0_nonzero(bundle):
    """The parliament-box route of `h0_nonzero`: `section_values` with every
    ray on `parliament_box`, with no margin check.  A character with
    sections lies in some parliament polytope."""
    box = parliament_box(bundle)
    if box is None:
        return []
    lo = box[0]
    everything = [(range(len(bundle.fan.rays)), 1)]
    out = []
    for offsets, values in bundle.section_values(box, everything):
        for off, h in zip(offsets.tolist(), values.tolist()):
            if h:
                out.append((tuple(l + x for l, x in zip(lo, off)), h))
    return out


def double_dual_verdict(cone):
    """"pointed" when the cone is pointed and all its rays are extreme, else
    "lineality" or "not extreme", read off the double dual."""
    extreme, lin = vcone_from_halfspaces(cone.dual.generators, cone.ambient_dim)
    if lin:
        return "lineality"
    return "pointed" if set(extreme) == set(cone.rays) else "not extreme"


def inverse_start_double_description(rows, dim):
    """(sorted (ray, tight mask) pairs, lineality basis) of the cone
    {x : <row, x> >= 0} of distinct primitive nonzero rows, by the double
    description started from the primitive columns of the inverse of the
    independent rows stacked on a lineality basis: the start that the
    columns of `_pivot_inverse`'s inverse at the pivots replaced."""
    if not rows:
        return [], tuple(tuple(int(j == i) for j in range(dim)) for i in range(dim))
    independent = echelon(rows, dim)
    lin = echelon_nullspace(independent, dim)
    start = [i for i, _, _ in independent]
    all_start = sum(1 << i for i in start)
    a, _ = inverse([rows[i] for i in start] + lin)
    rays = [(primitive(col), all_start ^ (1 << i)) for i, col in zip(start, zip(*a))]
    for k, row in enumerate(rows):
        if not all_start >> k & 1:
            rays = _cut(rays, row, 1 << k, len(start))
    if lin:
        lin_basis = echelon(lin)
        rays = [(reduce_mod(v, lin_basis), z) for v, z in rays]
    return sorted(rays), tuple(lin)


def max_pulling_triangulation(n, facets):
    """The pulling triangulation of vertices 0..n-1 from the largest vertex
    of every face: `_pulling_triangulation`, which pulls from the smallest,
    on the negated indices, negated back."""
    negated = [frozenset(-i for i in f) for f in facets]
    return [tuple(-i for i in s)
            for s in _pulling_triangulation(range(0, -n, -1), negated)]


def fresh_dual(cone):
    """The dual cone by one `vcone_from_halfspaces` of the generators."""
    rays, lin = vcone_from_halfspaces(cone.generators, cone.ambient_dim)
    return Cone(rays, cone.ambient_dim, lineality=lin)


def fresh_cut(cone, normals):
    """The cone cut by <n, x> >= 0 for every normal, by one
    `vcone_from_halfspaces` of its fresh dual's generators and the normals."""
    rows = list(fresh_dual(cone).generators) + [tuple(n) for n in normals]
    rays, lin = vcone_from_halfspaces(rows, cone.ambient_dim)
    return Cone(rays, cone.ambient_dim, lineality=lin)


def intersection_closure(n, zero_sets):
    """All intersections of {0, ..., n-1} with subfamilies of zero_sets.

    With the facet incidences of a cone or polytope as zero_sets, these are
    its faces as sets of ray or vertex indices (the empty set included).
    The route the top-down face lattice replaced.
    """
    full = frozenset(range(n))
    closed = {full}
    frontier = [full]
    while frontier:
        face = frontier.pop()
        for z in zero_sets:
            sub = face & z
            if sub not in closed:
                closed.add(sub)
                frontier.append(sub)
    return closed


def fresh_faces(cone):
    """The faces of a cone on rays alone as sets of its ray indices: the
    closure of the zero sets of its fresh dual's rays, found by dot
    products."""
    zero_sets = [
        frozenset(i for i, r in enumerate(cone.rays) if dot(g, r) == 0)
        for g in fresh_dual(cone).rays
    ]
    return intersection_closure(len(cone.rays), zero_sets)


def span_dim(vectors) -> int:
    """Dimension of the span of a cone's generators, by `rank`: the route
    of `Cone.dim` that reading the dual's lineality replaced."""
    vectors = list(vectors)
    return rank(vectors) if vectors else 0


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set, -1 when it is empty, by
    `rank` of the differences: the route of `VPolytope.dim` that counting
    the hull's equalities replaced."""
    pts = list(points)
    if not pts:
        return -1
    return span_dim(vec_sub(p, pts[0]) for p in pts[1:])


def closure_fan_faces(fan):
    """(cone_faces, cone_dims) of a fan by the closure route: the faces of
    each maximal cone from `fresh_faces`, each of dimension `span_dim` of
    its rays."""
    faces, dims = {}, {}
    for key in fan.maximal_keys:
        ordered = sorted(key)
        faces[key] = {frozenset(ordered[i] for i in f)
                      for f in fresh_faces(fan.cone(key))}
        for f in faces[key]:
            dims[f] = span_dim(fan.rays[i] for i in f)
    return faces, dims


def list_refinement(fan, normals):
    """(rays, maximal keys) of `refine_by_hyperplanes` by fresh cuts, with
    the new rays gathered by list membership: the fan's rays first, then
    the new ones sorted."""
    todo = []
    for n in normals:
        p = primitive(tuple(n))
        if any(p):
            p = p if next(x for x in p if x) > 0 else vec_neg(p)
            if p not in todo:
                todo.append(p)
    pieces = []
    for key in fan.maximal_keys:
        stack = [fan.cone(key)]
        for n in todo:
            nxt = []
            for c in stack:
                signs = [dot(n, r) for r in c.rays]
                if min(signs, default=0) >= 0 or max(signs, default=0) <= 0:
                    nxt.append(c)
                else:
                    nxt += [fresh_cut(c, [n]), fresh_cut(c, [vec_neg(n)])]
            stack = nxt
        pieces += stack
    rays = list(fan.rays)
    for c in pieces:
        for r in c.rays:
            if r not in rays:
                rays.append(r)
    old = len(fan.rays)
    rays = rays[:old] + sorted(rays[old:])
    keys = {frozenset(rays.index(r) for r in c.rays) for c in pieces}
    return tuple(rays), keys


def global_split_branches(h):
    """`split_branches` by the global route: every maximal cone cut by the
    branch differences of every maximal cone, pooled into one list."""
    normals = []
    for us in h.branches.values():
        for a in range(len(us)):
            for b in range(a + 1, len(us)):
                diff = vec_sub(us[a], us[b])
                if not is_zero(diff):
                    normals.append(clear_denominators(diff))
    refined = refine_by_hyperplanes(h.fan, normals)
    values = [h.values_at(v) for v in refined.rays]
    return refined, [SupportNumbers(refined, [vals[i] for vals in values])
                     for i in range(h.rank)]


def face_set_extreme(cone) -> bool:
    """Is a cone on rays alone pointed with every ray extreme, read off its
    face sets?  The origin (no ray) is a face exactly when the cone is
    pointed, and a ray is extreme exactly when it alone is a face."""
    faces = fresh_faces(cone)
    return frozenset() in faces and all(
        frozenset((i,)) in faces for i in range(len(cone.rays))
    )


def dimension_filtered_facets(fan, key):
    """The facets of a maximal cone as sorted keys: its faces one dimension
    below it."""
    dim = fan.cone_dims[key]
    return sorted(
        (f for f in fan.cone_faces[key] if fan.cone_dims[f] == dim - 1), key=sorted
    )


def scan_complete(fan) -> bool:
    """Completeness by facet pairing, one scan of the maximal cones per
    facet: every maximal cone is full-dimensional, and each of its
    dimension-filtered facets lies in exactly two maximal cones."""
    n = fan.ambient_dim
    if not fan.maximal_keys or any(fan.cone_dims[k] != n for k in fan.maximal_keys):
        return False
    return all(
        sum(1 for m in fan.maximal_keys if facet <= m) == 2
        for key in fan.maximal_keys
        for facet in dimension_filtered_facets(fan, key)
    )


def scan_min_containing_cone(fan, x):
    """The first cone of the fan, by dimension, whose fresh dual is
    nonnegative on x and zero on x along its lineality."""
    for key in fan.cone_keys:
        d = fresh_dual(fan.cone(key))
        if all(dot(g, x) >= 0 for g in d.rays) and all(
            dot(l, x) == 0 for l in d.lineality
        ):
            return key
    raise NotInSupportError(f"point {tuple(x)} is outside the fan support")


def dual_ray_contains(cone, x) -> bool:
    """`Cone.contains` by the dual-ray test it replaced: the dual's rays are
    nonnegative on x and its lineality is zero on x."""
    d = cone.dual
    return all(dot(g, x) >= 0 for g in d.rays) and all(
        dot(l, x) == 0 for l in d.lineality
    )


def contains_stellar_subdivision(fan, v):
    """`stellar_subdivision` by the route it replaced: a maximal cone that
    contains v gives way to its facets that do not, each tested by
    `dual_ray_contains` on its own cone, joined with v."""
    v = primitive(tuple(v))
    if not any(v):
        raise ValidationError("cannot subdivide at the origin")
    if not any(dual_ray_contains(fan.cone(k), v) for k in fan.maximal_keys):
        raise NotInSupportError(f"{v} is outside the fan support")
    if v in fan.rays:
        return fan
    vi = len(fan.rays)
    maximal = []
    for key in fan.maximal_keys:
        if not dual_ray_contains(fan.cone(key), v):
            maximal.append(key)
            continue
        for facet in fan.facets(key):
            if not dual_ray_contains(fan.cone(facet), v):
                maximal.append(facet | {vi})
    return Fan(list(fan.rays) + [v], maximal, fan.ambient_dim)


def nested_contains_refinement(f2, f1) -> bool:
    """`is_refinement` by nested `dual_ray_contains`: every ray of each
    maximal cone of f2 lies in one maximal cone of f1, f2 is complete when
    f1 is, and every ray of f1 lies in a maximal cone of f2."""
    if f2.ambient_dim != f1.ambient_dim:
        return False
    for key in f2.maximal_keys:
        rays = f2.cone(key).rays
        if not any(all(dual_ray_contains(f1.cone(k1), r) for r in rays)
                   for k1 in f1.maximal_keys):
            return False
    if f1.is_complete() and not f2.is_complete():
        return False
    return all(any(dual_ray_contains(f2.cone(k), r) for k in f2.maximal_keys)
               for r in f1.rays)


def scan_values_at(h, x):
    """`MultiValuedSupportFunction.values_at` by the scan it replaced: the
    branch values on the first maximal cone that `dual_ray_contains` x."""
    for key in h.fan.maximal_keys:
        if dual_ray_contains(h.fan.cone(key), x):
            return tuple(sorted(dot(u, x) for u in h.branches[key]))
    raise NotInSupportError(f"point {tuple(x)} is outside the fan support")


def caratheodory_contains(points, p):
    """Is p in the convex hull of the points?  Exact, by enumerating
    barycentric subsystems of size at most dim + 1."""
    pts = [tuple(Fraction(x) for x in q) for q in points]
    p = tuple(Fraction(x) for x in p)
    if not pts:
        return False
    d = len(p)
    for size in range(1, d + 2):
        for sub in itertools.combinations(pts, size):
            rows = [tuple(q) for q in zip(*sub)] + [tuple([1] * size)]
            rhs = list(p) + [Fraction(1)]
            lam = rref_solve(rows, rhs)
            if lam is None:
                continue
            if all(
                sum(r[j] * lam[j] for j in range(size)) == b
                for r, b in zip(rows, rhs)
            ) and all(x >= 0 for x in lam):
                return True
    return False


def oracle_hull_vertices(points):
    """Extreme points by the direct definition: p is a vertex iff it is not
    in the hull of the other points."""
    pts = sorted(set(tuple(Fraction(x) for x in q) for q in points))
    return [
        p for p in pts if not caratheodory_contains([q for q in pts if q != p], p)
    ]


class FractionVPolytope(VPolytope):
    """`VPolytope` by the Fraction route: every coordinate and bound
    coerced to a Fraction, integral or not, one more sort of the hull's
    vertices, and the incidences re-indexed to the vertices even when every
    point is one."""

    def __init__(self, vertices, ambient_dim=None, *, trusted=False):
        pts = sorted({tuple(Fraction(x) for x in p) for p in vertices})
        if ambient_dim is None:
            ambient_dim = len(pts[0])
        self.ambient_dim = ambient_dim
        self._hull = None
        self._faces = None
        if pts and not trusted:
            kept, ineqs, eqs, on = _hull_data(pts, ambient_dim)
            self._hull = (tuple((n, Fraction(b)) for n, b in ineqs),
                          tuple((n, Fraction(b)) for n, b in eqs), on, kept)
            pts = [pts[i] for i in kept]
        self.vertices = tuple(sorted(set(pts)))


class FractionHPolyhedron(HPolyhedron):
    """`HPolyhedron` by the Fraction route: every bound a Fraction."""

    def __init__(self, inequalities=(), equalities=(), ambient_dim=None):
        super().__init__(inequalities, equalities, ambient_dim)
        self.inequalities = tuple((n, Fraction(b)) for n, b in self.inequalities)
        self.equalities = tuple((n, Fraction(b)) for n, b in self.equalities)

    def generators(self):
        verts, rays, lin = super().generators()
        return tuple(tuple(map(Fraction, v)) for v in verts), rays, lin


def closure_polytope_faces(p):
    """`VPolytope.faces` by the route it replaced: the closure of the facet
    incidences, and `affine_rank` of each face's vertices."""
    if not p.vertices:
        return []
    ineqs, eqs = p.hrep()
    verts = p.vertices
    incidences = [
        frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
        for n, b in ineqs
    ]
    face_sets = intersection_closure(len(verts), incidences)
    face_sets.discard(frozenset())
    result = []
    for fs in sorted(face_sets, key=lambda s: (len(s), sorted(s))):
        pts = [verts[i] for i in sorted(fs)]
        face = VPolytope(pts, p.ambient_dim, trusted=True)
        active = [(n, b) for (n, b), inc in zip(ineqs, incidences) if fs <= inc]
        tangent = HPolyhedron(active, eqs, p.ambient_dim)
        result.append((face, affine_rank(pts), tangent))
    result.sort(key=lambda t: (t[1], t[0].vertices))
    return result


def lattice_points(p):
    """All integer points of a bounded polytope, by a scan of its bounding
    box against the Fraction H-representation."""
    if p.is_empty():
        return []
    ineqs, eqs = p.hrep()
    ranges = [
        range(ceil(min(v[i] for v in p.vertices)),
              floor(max(v[i] for v in p.vertices)) + 1)
        for i in range(p.ambient_dim)
    ]
    return [
        u for u in itertools.product(*ranges)
        if all(dot(n, u) <= b for n, b in ineqs)
        and all(dot(n, u) == b for n, b in eqs)
    ]


def random_lattice_polytope(rng, dim, spread=2, npoints=5):
    pts = [
        tuple(rng.randint(-spread, spread) for _ in range(dim))
        for _ in range(npoints)
    ]
    return VPolytope(pts, dim)


def zonotope_support_numbers(fan, rng, coeff_max=2):
    """Convex support numbers on a fan refined by the lines of its rays.

    Sum of segments along rotated ray directions plus a translation; the
    result is an honest support vector on any fan containing those lines.
    """
    segs = [(-r[1], r[0]) for r in fan.rays]
    coeffs = [rng.randint(0, coeff_max) for _ in segs]
    shift = (rng.randint(-2, 2), rng.randint(-2, 2))
    values = []
    for r in fan.rays:
        v = sum(c * max(0, s[0] * r[0] + s[1] * r[1]) for c, s in zip(coeffs, segs))
        values.append(v + shift[0] * r[0] + shift[1] * r[1])
    return values


def random_split_bundle(fan, matroid, rng, lo=-2, hi=2):
    """Valid bundle whose rows all sit in one apartment."""
    basis = rng.choice(sorted(matroid.bases, key=sorted))
    rows = []
    for _ in fan.rays:
        coords = {e: rng.randint(lo, hi) for e in basis}
        row = circuit_extension(matroid, basis, coords)
        rows.append(tuple(int(x) for x in row))
    return validate(fan, matroid, rows)


def random_p1_bundle(fan, matroid, rng, lo=-2, hi=2):
    """On the line every Bergman row list is a valid bundle."""
    rows = []
    for _ in fan.rays:
        w = [rng.randint(lo, hi) for _ in range(matroid.m)]
        rows.append(tuple(int(x) for x in bergman_project(matroid, w)))
    return validate(fan, matroid, rows)


def random_bundle(fan, matroid, rng, tries=80, lo=-2, hi=2):
    """Random valid bundle by rejection over random Bergman rows.

    Most draws on the small matroids used in tests are compatible; if none
    of the tries validates, fall back to a split bundle.
    """
    from tropehrhart.errors import BundleValidationError

    for _ in range(tries):
        rows = []
        for _ in fan.rays:
            w = [rng.randint(lo, hi) for _ in range(matroid.m)]
            rows.append(tuple(int(x) for x in bergman_project(matroid, w)))
        try:
            return validate(fan, matroid, rows)
        except BundleValidationError:
            continue
    return random_split_bundle(fan, matroid, rng, lo, hi)


def grid_points(dim, radius):
    return itertools.product(range(-radius, radius + 1), repeat=dim)


# ---------------------------------------------------------------------------
# Constructions only tests use
# ---------------------------------------------------------------------------

def box_points(lo, hi):
    """The integer points of the box [lo, hi] in lexicographic order, the
    order of the box kernels; the point cap (`box_size`) is checked before
    any point exists."""
    box_size(lo, hi)
    return itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))


def oracle_box_values(a: ConvexChain, box):
    """The per-piece box kernel that `chains.box_values` replaced: the same
    checks, int64 proof, clipping and blocks, but one int64 product,
    compare, AND-reduce and multiply-add per piece and block, on the piece's
    own rows."""
    import numpy as np

    lo, hi = box
    a._check_length("box", len(lo))
    d = len(lo)
    check_box(box, d)
    pieces = []
    for c, piece in a.terms:
        rows = _integer_hrep(piece)
        if rows is not None:
            pieces.append((c, *rows))
    norm = max((sum(map(abs, n)) for _, ns, _ in pieces for n in ns), default=0)
    reach = max(norm, 1) * max(map(abs, (*lo, *hi)), default=0)
    mass = sum(abs(c) for c, _, _ in pieces)
    if reach >= INT64_SAFE or mass * BOX_BLOCK >= INT64_SAFE:
        raise BoxTooLargeError(
            "box values would leave the exact int64 range of the kernel"
        )
    arrays = [
        (
            c,
            np.array(ns, dtype=np.int64).reshape(len(ns), d).T,
            np.array([min(max(b, -reach - 1), reach + 1) for b in bs],
                     dtype=np.int64),
        )
        for c, ns, bs in pieces
    ]
    origin = np.array(lo, dtype=np.int64)
    for offsets in box_offsets(lo, hi):
        points = offsets + origin
        values = np.zeros(points.shape[0], dtype=np.int64)
        for c, normals, bounds in arrays:
            values += c * (points @ normals <= bounds).all(axis=1)
        yield points, values


def point_chain(coords) -> ConvexChain:
    """The indicator chain of a single point; 1_{{0}} is the unit."""
    return ConvexChain([(1, VPolytope([tuple(coords)], trusted=True))])


def chain_box(a: ConvexChain, pad: int = 1):
    """Bounding box of all bounded pieces' vertices, padded outward."""
    points = []
    for _, piece in a.terms:
        if isinstance(piece, VPolytope):
            points.extend(piece.vertices)
    if not points:
        raise ValidationError("chain has no bounded pieces to bound")
    return bounding_box(points, pad)


def translate(p: VPolytope, t) -> VPolytope:
    return VPolytope(
        [tuple(x + Fraction(dt) for x, dt in zip(v, t)) for v in p.vertices],
        p.ambient_dim,
        trusted=True,
    )


def relint_contains(cone, x) -> bool:
    d = cone.dual
    return all(dot(g, x) > 0 for g in d.rays) and all(
        dot(l, x) == 0 for l in d.lineality
    )


def maximal_flags(fan):
    """The maximal cones of a permutahedral fan, as flags of subsets."""
    return [
        tuple(Matroid.elements(s) for s in c)
        for c in fan.chains
        if len(c) == fan.m - 1
    ]


def face_alternating_sum(p) -> int:
    """Sum of (-1)^dim over all nonempty faces of a line-free polyhedron.

    Equals 1 for bounded and 0 for unbounded polyhedra.
    """
    verts, rays, lin = p.generators()
    if lin:
        raise ValidationError("face sum requires a polyhedron without lineality")
    if not verts:
        return 0
    d = p.ambient_dim
    gens = []
    for v in verts:
        gens.append(clear_denominators(tuple(v) + (Fraction(1),)))
    for r in rays:
        gens.append(tuple(r) + (0,))
    dual_rays, _ = vcone_from_halfspaces(gens, d + 1)
    zero_sets = [
        frozenset(i for i, h in enumerate(gens) if dot(g, h) == 0) for g in dual_rays
    ]
    face_sets = intersection_closure(len(gens), zero_sets)
    total = 0
    for fs in face_sets:
        members = [gens[i] for i in fs]
        if not any(g[d] > 0 for g in members):
            continue  # empty face or a face at infinity
        total += (-1) ** (rank(members) - 1)
    return total


# ---------------------------------------------------------------------------
# Tautological bundles: the flag model, and the pointwise routes of chi_u and
# h0_u built on it
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _chains_of_masks(m: int):
    """All strictly increasing chains of nonempty proper subsets of [m].

    Subsets are bitmasks; the empty chain (zero cone) is included.  Chains
    with G appended correspond to ordered set partitions of [m].
    """
    full = (1 << m) - 1
    proper = [s for s in range(1, full)]
    supersets = {
        s: [t for t in proper if t != s and (s & t) == s] for s in proper
    }

    chains = [()]
    stack = [(s,) for s in proper]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        for t in supersets[chain[-1]]:
            stack.append(chain + (t,))
    return tuple(sorted(chains, key=lambda c: (len(c), c)))


class PermutahedralFan:
    """Flag-combinatorial model of the permutahedral fan on m letters."""

    def __init__(self, m: int):
        self.m = m

    @property
    def chains(self):
        return _chains_of_masks(self.m)

    @property
    def ray_masks(self):
        """The nonempty proper subsets, in the order of the chains of length 1."""
        return range(1, (1 << self.m) - 1)

    def flags(self):
        """All cones, as increasing tuples of subsets (frozensets)."""
        return [tuple(Matroid.elements(s) for s in c) for c in self.chains]

    def codim(self, flag) -> int:
        return self.m - 1 - len(flag)

    def num_cones(self) -> int:
        return len(self.chains)


def permutahedral_fan(m: int) -> PermutahedralFan:
    return PermutahedralFan(m)


def enumerated_flag_sum(m: int) -> int:
    """Sum of (-1)^length over all flags of subsets ending at [m], one
    enumerated chain at a time."""
    return sum((-1) ** (len(chain) + 1) for chain in _chains_of_masks(m))


class TautologicalBundle:
    """Diagram-level data of the tautological bundle of a matroid: one row
    per nonempty proper subset, the indicator vector of its closure."""

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        self.fan = permutahedral_fan(matroid.m)
        self.rows = {}
        for mask in self.fan.ray_masks:
            closed = oracle_closure(matroid, Matroid.elements(mask))
            self.rows[Matroid.elements(mask)] = tuple(
                int(e in closed) for e in range(1, matroid.m + 1)
            )

    def adapted_basis(self, flag) -> frozenset:
        """Maximum-weight basis at a generic weight of the flag's cone."""
        m = self.matroid.m
        w = [0] * m
        for s in flag:
            for e in s:
                w[e - 1] += 1
        return max_weight_basis(self.matroid, w)

    def characters(self, flag):
        """Character multiset {e_i : i in the adapted basis} of a cone."""
        basis = self.adapted_basis(flag)
        return tuple(
            tuple(1 if j == e else 0 for j in range(1, self.matroid.m + 1))
            for e in sorted(basis)
        )


def tautological_bundle(matroid: Matroid) -> TautologicalBundle:
    return TautologicalBundle(matroid)


def _check_slice(matroid: Matroid, u):
    u = tuple(int(x) for x in u)
    if len(u) != matroid.m:
        raise ValidationError("character length must equal the ground size")
    if sum(u) != 1:
        raise ValidationError("characters are restricted to the slice sum(u) = 1")
    return u


def taut_h0_local(matroid: Matroid, flag, u) -> int:
    """Sections of the tautological bundle on the chart of a flag cone.

    Zero when some flag pairing exceeds 1; otherwise the rank of the first
    flag entry (the full set included) whose pairing equals 1.
    """
    u = _check_slice(matroid, u)
    entries = [frozenset(s) for s in flag] + [matroid.ground]
    pairings = [sum(u[e - 1] for e in s) for s in entries]
    if any(p > 1 for p in pairings):
        return 0
    for s, p in zip(entries, pairings):
        if p == 1:
            return matroid.rank(s)
    return 0


def _h0_local_filtration(bundle: TautologicalBundle, flag, u) -> int:
    """Chart sections via the diagram filtrations (independent route)."""
    matroid = bundle.matroid
    flat = matroid.ground
    for s in flag:
        pairing = sum(u[e - 1] for e in s)
        if pairing <= 0:
            continue
        row = bundle.rows[frozenset(s)]
        level = frozenset(
            e for e in range(1, matroid.m + 1) if row[e - 1] >= pairing
        )
        flat = flat & matroid.closure(level)
    return matroid.rank(flat)


def taut_h0_global(matroid: Matroid, u) -> int:
    """Global sections at u: 1 exactly at e_i for a non-loop i.

    Computed both from the closed form and from parliament membership of the
    diagram columns; the two must agree.
    """
    u = _check_slice(matroid, u)
    nonloops = matroid.ground - matroid.loops
    closed = 0
    for i in nonloops:
        if all(u[e - 1] == (1 if e == i else 0) for e in matroid.ground):
            closed = 1
            break

    bundle = tautological_bundle(matroid)
    members = []
    for e in range(1, matroid.m + 1):
        ok = True
        for s, row in bundle.rows.items():
            if sum(u[j - 1] for j in s) > row[e - 1]:
                ok = False
                break
        if ok:
            members.append(e)
    parliament = matroid.rank(frozenset(members))
    if closed != parliament:
        raise TropehrhartError(
            f"section formulas disagree at {u}: {closed} vs {parliament}"
        )
    return closed


class TautChi:
    """Equivariant Euler characteristic at one character, both routes."""

    def __init__(self, flag_formula, cone_sum, by_codim):
        self.flag_formula = flag_formula
        self.cone_sum = cone_sum
        self.by_codim = tuple(by_codim)
        self.equal = flag_formula == cone_sum

    @property
    def value(self) -> int:
        return self.cone_sum

    def __repr__(self):
        return (
            f"TautChi(value={self.cone_sum}, flag_formula={self.flag_formula}, "
            f"by_codim={list(self.by_codim)})"
        )


def taut_chi_u(matroid: Matroid, u) -> TautChi:
    """Euler characteristic at u via two independent computations.

    The cone sum runs over all flag cones with the filtration-based chart
    sections; the flag formula sums rank(S) over subsets pairing to 1,
    weighted by signed counts of flags through S in which S is the first
    pairing-one entry.
    """
    u = _check_slice(matroid, u)
    bundle = tautological_bundle(matroid)
    fan = bundle.fan
    m = matroid.m

    by_codim = [0] * m
    cone_sum = 0
    for flag in fan.flags():
        h0 = _h0_local_filtration(bundle, flag, u)
        codim = fan.codim(flag)
        by_codim[codim] += h0
        cone_sum += (-1) ** codim * h0

    flag_formula = 0
    full_mask = (1 << m) - 1
    for s_mask in range(1, full_mask + 1):
        pairing = sum(u[i] for i in range(m) if s_mask >> i & 1)
        if pairing != 1:
            continue
        s = Matroid.elements(s_mask)
        signed = _signed_flags_through(u, s_mask, m)
        flag_formula += matroid.rank(s) * signed

    return TautChi(flag_formula, cone_sum, by_codim[: m])


def _signed_flags_through(u, s_mask: int, m: int) -> int:
    """Signed count sum of (-1)^(m - l(pi)) over flags in which the subset
    is the first entry pairing to 1, all pairings at most 1."""
    full = (1 << m) - 1

    def pairing(mask):
        return sum(u[i] for i in range(m) if mask >> i & 1)

    def chains_between(lo, hi, bound):
        """Signed count sum of (-1)^len over chains lo < c_1 < ... < c_k < hi
        of nonempty subsets with pairing <= bound."""
        total = 1  # the empty chain, sign (+1)
        stack = [(lo, 1)]
        while stack:
            cur, sign = stack.pop()
            for nxt in _strict_between(cur, hi):
                if pairing(nxt) <= bound:
                    total += -sign
                    stack.append((nxt, -sign))
        return total

    def _strict_between(lo, hi):
        rest = hi & ~lo
        for sub in _nonempty_subsets(rest):
            cand = lo | sub
            if cand != hi:
                yield cand

    def _nonempty_subsets(mask):
        sub = mask
        while sub:
            yield sub
            sub = (sub - 1) & mask

    below = chains_between(0, s_mask, 0)
    if s_mask == full:
        # flags: lower chain + (G); l = len(lower) + 1
        # sign (-1)^(m - l); signed count of lowers with weight (-1)^len is
        # "below" with sign convention (+1 for empty)
        return (-1) ** (m - 1) * below
    above = chains_between(s_mask, full, 1)
    # l = len(lower) + 1 + len(upper) + 1
    return (-1) ** (m - 2) * below * above


# ---------------------------------------------------------------------------
# Riemann-Roch: the polynomial z -> I(alpha[z]) in monomials, and its Todd
# ---------------------------------------------------------------------------

def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention with B_1 = +1/2.

    Computed from the recurrence sum_{j<=n} C(n+1, j) B_j = 0 (which yields
    B_1 = -1/2) and flipping the sign of the odd entries.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return -b[n] if n % 2 else b[n]


class MultiPoly:
    """Polynomial over Q in one variable per fan ray, stored sparsely."""

    def __init__(self, num_vars: int, coeffs=()):
        self.num_vars = num_vars
        self.coeffs = {}
        for mono, c in dict(coeffs).items():
            c = Fraction(c)
            if c != 0:
                self.coeffs[tuple(mono)] = c

    @property
    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(m) for m in self.coeffs)

    def evaluate(self, z) -> Fraction:
        z = tuple(Fraction(x) for x in z)
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = c
            for zi, e in zip(z, mono):
                term *= zi**e
            total += term
        return total

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "MultiPoly(0)"
        parts = []
        for mono in sorted(self.coeffs, key=lambda m: (sum(m), m)):
            parts.append(f"{self.coeffs[mono]}*z^{mono}")
        return "MultiPoly(" + " + ".join(parts) + ")"


def apply_todd(p: MultiPoly) -> Fraction:
    """Evaluate prod_rho T(d/dz_rho) p at z = 0, truncated at deg(p)."""
    b = todd_coeffs(p.total_degree)
    total = Fraction(0)
    for mono, c in p.coeffs.items():
        term = c
        for e in mono:
            term *= b[e] * factorial(e)
        total += term
    return total


def oracle_pulled_back(cones, lin):
    """lambda_s = sum_k A_sk lin[s_k] per cone s of `hrr._simplicial_cones`,
    as {variable index: rational coefficient}, sorted, without zeros."""
    out = []
    for s, a, _ in cones:
        lam = {}
        for j, ak in zip(s, a):
            for i, x in lin[j].items():
                lam[i] = lam.get(i, 0) + ak * x
        out.append({i: x for i, x in sorted(lam.items()) if x})
    return out


def oracle_power_form(cones, lams) -> dict:
    """sum_s (lambda_s . z)^n / (n! D_s) as {variable index tuple: Fraction},
    one monomial and one Fraction at a time."""
    form = {}
    for (s, _, denom), lam in zip(cones, lams):
        # the multinomial expansion of the n-th power; n! cancels
        for combo in itertools.combinations_with_replacement(lam, len(s)):
            e = Counter(combo)
            form[combo] = form.get(combo, 0) + Fraction(
                prod(lam[i] ** k for i, k in e.items()),
                denom * prod(map(factorial, e.values())),
            )
    return {key: c for key, c in form.items() if c}


def volume_form(fan) -> dict:
    """Lawrence's volume form of fan by the integer route,
    `hrr._fan_power_form`, as {ray index tuple: Fraction}."""
    form, m = hrr._fan_power_form(fan)
    return {key: Fraction(c, m) for key, c in form.items()}


def oracle_volume_form(fan) -> dict:
    """Lawrence's volume form of fan by `oracle_power_form`, {ray index
    tuple: Fraction}."""
    cones = hrr._simplicial_cones(fan)
    own = [{i: 1} for i in range(len(fan.rays))]
    return oracle_power_form(cones, oracle_pulled_back(cones, own))


def oracle_todd_sum(cones, lams, values, n) -> Fraction:
    """sum_s sum_k tau_k(lambda_s) sum_i beta_si^(n-k) / ((n-k)! D_s), every
    step in Fractions."""
    todd = todd_coeffs(n)
    total = Fraction(0)
    for (s, a, denom), lam in zip(cones, lams):
        tau = [Fraction(1)] + [Fraction(0)] * n
        for x in lam.values():
            series = [t * x**j for j, t in enumerate(todd)]
            tau = [
                sum(tau[j] * series[k - j] for j in range(k + 1))
                for k in range(n + 1)
            ]
        betas = [sum(ak * vals[j] for j, ak in zip(s, a)) for vals in values]
        total += sum(
            tau[k] * sum(b ** (n - k) for b in betas) / factorial(n - k)
            for k in range(n + 1)
        ) / denom
    return total


def oracle_todd_lhs(h) -> Fraction:
    """`hrr.todd_lhs` with the guard and the Todd loop in Fractions: the
    cones, their weights and the extension forms are the package's."""
    fan = h.fan
    n = fan.ambient_dim
    fan_r, branch_numbers = split_branches(h)
    cones = hrr._simplicial_cones(fan_r)
    lams = oracle_pulled_back(cones, hrr._extension_forms(fan, fan_r.rays))
    if h.rank and oracle_power_form(cones, lams) != oracle_volume_form(fan):
        raise InterpolationFailureError(
            "degree-n part is not rank times the volume polynomial of the fan"
        )
    return oracle_todd_sum(cones, lams, [sn.values for sn in branch_numbers], n)


def _branch_sum(form: dict, values, lin, num_vars: int) -> dict:
    """sum_i V(values[i] + L z) as {exponent tuple: coefficient}.

    V is the form {ray index tuple: c} of `oracle_volume_form` and lin[j] the
    linear form {variable index: coefficient} of (L z)_j.  Each factor of a
    term is either the constant values[i][j] or the linear form lin[j]; the
    constants are summed over i first, so the branches cost one scalar
    product each.
    """
    out = {}
    for key, c in form.items():
        for picks in itertools.product((False, True), repeat=len(key)):
            weight = 0
            for vals in values:
                w = c
                for j, p in zip(key, picks):
                    if not p:
                        w *= vals[j]
                weight += w
            if not weight:
                continue
            terms = {(): weight}
            for j, p in zip(key, picks):
                if not p:
                    continue
                nxt = {}
                for used, t in terms.items():
                    for i, a in lin[j].items():
                        m = tuple(sorted(used + (i,)))
                        nxt[m] = nxt.get(m, 0) + t * a
                terms = nxt
            for used, t in terms.items():
                out[used] = out.get(used, 0) + t
    exponents = {}
    for used, t in out.items():
        mono = [0] * num_vars
        for i in used:
            mono[i] += 1
        exponents[tuple(mono)] = t
    return exponents


def interpolate_volume_polynomial(h) -> MultiPoly:
    """Exact polynomial z -> I(alpha_h * 1_{P(z)}) in ray coordinates.

    On the refined fan where every branch of h is linear, the chain of h is
    the sum of the Brianchon-Gram chains of its branch numbers b_i, and
    convolving with P(z) adds the values L z of the linear extension of z.
    So I(z) = sum_i V(b_i + L z) with V the volume form of the refined fan,
    expanded here into monomials.  The degree-n part must be rank * (volume
    form of the fan itself); a mismatch raises InterpolationFailureError.
    """
    fan = h.fan
    n = fan.ambient_dim
    s = len(fan.rays)
    if not fan.is_complete():
        raise ValidationError("the volume polynomial needs a complete fan")

    fan_r, branch_numbers = split_branches(h)
    lin = hrr._extension_forms(fan, fan_r.rays)
    values = [sn.values for sn in branch_numbers]
    poly = MultiPoly(s, _branch_sum(oracle_volume_form(fan_r), values, lin, s))

    # with zero constants only the degree-n part survives
    own = [{i: 1} for i in range(s)]
    expected = _branch_sum(oracle_volume_form(fan), [(0,) * s], own, s)
    top = {m: c for m, c in poly.coeffs.items() if sum(m) == n}
    if top != {m: h.rank * c for m, c in expected.items() if h.rank * c != 0}:
        raise InterpolationFailureError(
            "degree-n part is not rank times the volume polynomial of the fan"
        )
    return poly


def interpolate_I(bundle) -> MultiPoly:
    """Polynomial z -> I(alpha_E[z]) of a bundle."""
    return interpolate_volume_polynomial(bundle.support_function())
