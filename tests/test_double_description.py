"""The integer polyhedral kernel against the brute-force routes it replaced.

`vcone_from_halfspaces` is an incremental double description; the oracle
here is the subsystem enumeration it replaced, over Fraction elimination.
Its start cone, read off the inverse that `Fan.cone_inverse` solves with,
is checked against the start it replaced, the inverse of the independent
rows stacked on a lineality basis (`inverse_start_double_description`).
Cone intersections, half-space cuts, carried duals and face lattices, which
continue a cone's double description, are checked against one fresh
`vcone_from_halfspaces` each, and the dimension of every face against
the rank of its rays (`span_dim`); polytope faces against the intersection
closure of their facet incidences and `affine_rank`.
Hulls, H-representations and volumes are checked against the same routes
built on that oracle: the rank test for vertices and the Fraction
determinant for simplex volumes.  In dimensions 1 and 2, hulls and volumes
are also checked against the monotone chain and the shoelace formula, and
pulling triangulations, from the smallest and (on negated indices) the
largest vertex, against the same pulling over the full face lattice.
"""

import itertools
import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.lattice import (
    Cone,
    VPolytope,
    _distinct_rows,
    _double_description,
    _pulling_triangulation,
    cone_is_smooth,
    convex_hull_vertices,
    vcone_from_halfspaces,
    volume,
)
from tropehrhart.linalg import (
    clear_denominators,
    dot,
    exact,
    integral,
    is_zero,
    nullspace,
    primitive,
    rank,
    vec_neg,
    vec_sub,
)

from conftest import (
    CUBE4_FAN,
    FANS,
    FractionVPolytope,
    affine_rank,
    closure_polytope_faces,
    cross_nullvec,
    fresh_cut,
    fresh_dual,
    fresh_faces,
    inverse_start_double_description,
    max_pulling_triangulation,
    random_lattice_polytope,
    rref,
    span_dim,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# oracles: Fraction elimination and subsystem enumeration
# ---------------------------------------------------------------------------

def _frac_rank(rows):
    return len(rref(rows)[1]) if rows else 0


def _frac_nullspace(rows, ncols):
    """Null space basis read off the reduced form of all the rows."""
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(clear_denominators(vec))
    return basis


def _frac_in_span(vec, basis):
    if is_zero(vec):
        return True
    return bool(basis) and _frac_rank(list(basis)) == _frac_rank(list(basis) + [vec])


def _reduce_mod_span(vec, echelon_basis, pivots):
    v = list(map(Fraction, vec))
    for row, pc in zip(echelon_basis, pivots):
        if v[pc] != 0:
            f = v[pc] / row[pc]
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)


def _vcone_bruteforce(normals, dim):
    """Extreme rays (reduced modulo the lineality) and lineality basis of
    {x : <n, x> >= 0}, by enumerating every rank-(r-1) row subsystem."""
    rows = []
    for n in normals:
        p = primitive(tuple(n))
        if not is_zero(p) and p not in rows:
            rows.append(p)
    if not rows:
        return (), tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    r = _frac_rank(rows)
    lin = _frac_nullspace(rows, dim)
    lin_red, lin_pivots = rref(lin) if lin else ([], [])
    rays = set()
    tested = set()
    for subset in itertools.combinations(rows, r - 1):
        if r == dim:
            w = cross_nullvec(subset, dim)
            if is_zero(w):
                continue
        else:
            ns = _frac_nullspace(list(subset), dim)
            if len(ns) != dim - r + 1:
                continue
            w = next((c for c in ns if not _frac_in_span(c, lin)), None)
            if w is None:
                continue
        w = primitive(w)
        if w in tested:
            continue
        tested.add(w)
        tested.add(vec_neg(w))
        for cand in (w, vec_neg(w)):
            if all(dot(row, cand) >= 0 for row in rows):
                red = cand
                if lin:
                    red = clear_denominators(_reduce_mod_span(cand, lin_red, lin_pivots))
                if not is_zero(red):
                    rays.add(red)
                break
    return tuple(sorted(rays)), tuple(lin)


def _hull_data_oracle(points, d):
    """(vertices, inequalities, equalities) of a hull: facets from the
    brute-force dual cone, vertices by the rank of their active facets."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    hom_rows = [clear_denominators(p + (Fraction(1),)) for p in pts]
    dual_rays, dual_lin = _vcone_bruteforce(hom_rows, d + 1)
    eqs = [(g[:d], Fraction(-g[d])) for g in dual_lin]
    ineqs = [(vec_neg(g[:d]), Fraction(g[d])) for g in dual_rays if not is_zero(g[:d])]
    verts = []
    for p, h in zip(pts, hom_rows):
        active = list(dual_lin) + [g for g in dual_rays if dot(g, h) == 0]
        if active and _frac_rank(active) == d:
            verts.append(p)
    return verts or pts[:1], ineqs, eqs


def _frac_det(rows):
    """Determinant by Fraction elimination."""
    n = len(rows)
    mat = [list(map(Fraction, r)) for r in rows]
    sign, result = 1, Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if mat[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        result *= mat[k][k]
        for i in range(k + 1, n):
            if mat[i][k] != 0:
                f = mat[i][k] / mat[k][k]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[k])]
    return sign * result


def _pulling_triangulation_oracle(p, use_max_vertex=False):
    """Pulling triangulation over the full face lattice of `VPolytope.faces`,
    with the facets of a face found by dimension and containment."""
    by_verts = {face.vertices: dim for face, dim, _ in p.faces()}
    children = {
        vs: [ws for ws, dw in by_verts.items() if dw == dim - 1 and set(ws) <= set(vs)]
        for vs, dim in by_verts.items()
    }

    def pull(vs):
        v = max(vs) if use_max_vertex else min(vs)
        if by_verts[vs] == 0:
            return [(v,)]
        return [s + (v,) for sub in children[vs] if v not in sub for s in pull(sub)]

    return pull(max(by_verts, key=by_verts.get))


def _volume_oracle(p):
    """Pulling-triangulation volume with Fraction simplex determinants."""
    d = p.ambient_dim
    total = Fraction(0)
    for simplex in _pulling_triangulation_oracle(p):
        total += abs(_frac_det([vec_sub(v, simplex[0]) for v in simplex[1:]]))
    return total / factorial(d)


def _monotone_chain(points):
    """Vertices of a planar hull in counterclockwise order (Andrew's
    monotone chain); collinear and repeated points are dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _shoelace_volume(points):
    """Length (d = 1) or area (d = 2, shoelace over the monotone chain) of
    the hull of a point set."""
    if len(points[0]) == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    ordered = _monotone_chain(points)
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

COORD = st.integers(-3, 3)


@st.composite
def row_sets(draw):
    """Half-space normals in dimension 1..5.  Rows are integer combinations
    of at most d generators, so lineality is common, plus repeated,
    rescaled and opposite copies of drawn rows."""
    d = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[COORD] * d), min_size=1, max_size=d))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        rows.append(tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(d)))
    copies = draw(st.lists(
        st.tuples(st.sampled_from(rows), st.sampled_from([1, -1, 2, -3])), max_size=3
    ))
    rows += [tuple(s * x for x in r) for r, s in copies]
    return d, draw(st.permutations(rows))


@st.composite
def point_clouds(draw, max_dim=4):
    """Rational point clouds in dimension 1..max_dim whose affine hull has
    any dimension from 0 to d (so collinear and coplanar clouds are common),
    with repeated points."""
    d = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, d))
    origin = draw(st.tuples(*[COORD] * d))
    dirs = draw(st.lists(st.tuples(*[COORD] * d), min_size=k, max_size=k))
    q = draw(st.sampled_from([1, 1, 2, 3]))
    pts = []
    for _ in range(draw(st.integers(1, 11))):
        cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        pt = (o + sum(c * v[j] for c, v in zip(cs, dirs)) for j, o in enumerate(origin))
        pts.append(tuple(Fraction(x, q) for x in pt))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return d, draw(st.permutations(pts))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@SETTINGS
@given(row_sets())
def test_vcone_equals_bruteforce(case):
    d, rows = case
    assert vcone_from_halfspaces(rows, d) == _vcone_bruteforce(rows, d)


@SETTINGS
@given(row_sets())
def test_integer_rank_and_nullspace_equal_fraction_elimination(case):
    d, rows = case
    assert rank(rows) == _frac_rank(rows)
    assert nullspace(rows, d) == _frac_nullspace(rows, d)
    halves = [tuple(Fraction(x, 2) for x in r) for r in rows]
    assert rank(halves) == _frac_rank(halves)
    assert nullspace(halves, d) == _frac_nullspace(halves, d)


@SETTINGS
@given(point_clouds())
def test_hull_and_hrep_equal_oracle_route(case):
    d, pts = case
    verts, _, _ = _hull_data_oracle(pts, d)
    assert convex_hull_vertices(pts) == verts
    _, ineqs, eqs = _hull_data_oracle(verts, d)
    poly = VPolytope(pts, d)
    assert poly.vertices == tuple(verts)
    assert poly.hrep() == (tuple(ineqs), tuple(eqs))


@SETTINGS
@given(point_clouds(max_dim=2))
def test_hull_and_volume_equal_monotone_chain_and_shoelace(case):
    d, pts = case
    poly = VPolytope(pts, d)
    if d == 1:
        assert poly.vertices == tuple(sorted({min(pts), max(pts)}))
    else:
        assert poly.vertices == tuple(sorted(_monotone_chain(pts)))
    assert volume(poly) == _shoelace_volume(pts)


def test_vcone_equals_bruteforce_on_degenerate_cases():
    cases = [
        ([(1, 0), (-1, 0)], 2),  # a line of lineality, no rays
        ([(1, 0), (-1, 0), (0, 1)], 2),
        ([(1, 1, 0)], 3),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, -1)], 3),
        ([(2, 0), (1, 0), (3, 0)], 2),  # repeated after reduction
        ([(0, 0, 0)], 3),
        ([], 2),
    ]
    for rows, d in cases:
        assert vcone_from_halfspaces(rows, d) == _vcone_bruteforce(rows, d)


def test_hull_of_homogenized_clouds_equals_oracle():
    # 3-d clouds with a third of their points on one plane: many facets,
    # coplanar points on them that are not vertices
    rng = random.Random(41)
    for n in (8, 14, 20):
        for _ in range(3):
            pts = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(n)]
            pts += [(x, y, 2) for x, y in
                    ((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n // 3))]
            verts, ineqs, eqs = _hull_data_oracle(pts, 3)
            poly = VPolytope(pts, 3)
            assert list(poly.vertices) == verts
            assert poly.hrep() == (tuple(ineqs), tuple(eqs))


def test_volume_equals_fraction_determinant_route():
    rng = random.Random(43)
    checked = 0
    for dim in (3, 4):
        for _ in range(12):
            p = random_lattice_polytope(rng, dim, spread=3, npoints=dim + 4)
            q = rng.choice([1, 2, 3])
            p = VPolytope([tuple(Fraction(x, q) for x in v) for v in p.vertices], dim)
            if p.dim < dim:
                continue
            assert volume(p) == _volume_oracle(p)
            checked += 1
    assert checked >= 16


@SETTINGS
@given(point_clouds())
def test_pulling_triangulation_equals_face_lattice_route(case):
    d, pts = case
    poly = VPolytope(pts, d)
    verts = poly.vertices
    ineqs, _ = poly.hrep()
    facets = [
        frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
        for n, b in ineqs
    ]
    for simplices, use_max_vertex in (
        (_pulling_triangulation(range(len(verts)), facets), False),
        (max_pulling_triangulation(len(verts), facets), True),
    ):
        assert sorted(tuple(verts[i] for i in s) for s in simplices) == sorted(
            _pulling_triangulation_oracle(poly, use_max_vertex)
        )


# ---------------------------------------------------------------------------
# continued double descriptions against fresh ones
# ---------------------------------------------------------------------------

@st.composite
def pointed_cones(draw, d):
    """A pointed cone in dimension d whose rays span 1..d dimensions, all
    on the positive side of one functional; some are not extreme (sums of
    two drawn rays), and a cone may be the origin alone."""
    k = draw(st.integers(1, d))
    basis = draw(st.lists(st.tuples(*[COORD] * d), min_size=k, max_size=k))
    w = draw(st.tuples(*[COORD] * d))
    vecs = []
    for _ in range(draw(st.integers(0, 5))):
        cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        v = tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(d))
        s = dot(w, v)
        if s:
            vecs.append(v if s > 0 else vec_neg(v))
    if len(vecs) >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(vecs))[:2]
        vecs.append(tuple(x + y for x, y in zip(a, b)))
    return Cone(list(dict.fromkeys(primitive(v) for v in vecs)), d)


@st.composite
def cone_cases(draw):
    """Two pointed cones and two normals in one dimension d = 2..4."""
    d = draw(st.integers(2, 4))
    normal = st.tuples(*[COORD] * d)
    return draw(pointed_cones(d)), draw(pointed_cones(d)), draw(normal), draw(normal)


def _assert_equals_fresh(got, want):
    """Rays, lineality, dual and faces equal to the fresh route's, exactly,
    and each face of the dimension `span_dim` gives on its rays."""
    assert (got.rays, got.lineality) == (want.rays, want.lineality)
    dual, fresh = got.dual, fresh_dual(got)
    assert (dual.rays, dual.lineality) == (fresh.rays, fresh.lineality)
    if not got.lineality:
        assert got.face_dims() == {
            face: span_dim(got.rays[i] for i in face) for face in fresh_faces(got)
        }


@SETTINGS
@given(cone_cases())
def test_continued_cuts_equal_fresh_double_descriptions(case):
    a, b, n1, n2 = case
    for cone in (a, b):
        _assert_equals_fresh(cone, cone)
    both = fresh_dual(b).generators
    _assert_equals_fresh(a.intersect(b), fresh_cut(a, both))
    _assert_equals_fresh(b.intersect(a), fresh_cut(a, both))
    once = a.intersect_halfspace(n1)
    _assert_equals_fresh(once, fresh_cut(a, [n1]))
    # a continued cut continues again, as the pieces of a refinement do
    _assert_equals_fresh(once.intersect_halfspace(n2), fresh_cut(a, [n1, n2]))
    _assert_equals_fresh(once.intersect(b), fresh_cut(a, [n1] + list(both)))


def test_cone_cases_reach_every_kind_of_cone():
    seen = set()

    @SETTINGS
    @given(cone_cases())
    def collect(case):
        a = case[0]
        seen.add((a.ambient_dim, a._is_exact(), a.dim == a.ambient_dim))

    collect()
    # a pointed cone below dimension 2 is one ray, so its rays are extreme
    assert seen == {(d, exact, full) for d in (2, 3, 4)
                    for exact in (True, False) for full in (True, False)
                    if exact or full or d > 2}


# ---------------------------------------------------------------------------
# polytope faces against the closure and rank routes
# ---------------------------------------------------------------------------

def _face_table(faces):
    return [(f.vertices, d, t.inequalities, t.equalities) for f, d, t in faces]


@SETTINGS
@given(point_clouds())
def test_polytope_faces_equal_closure_and_affine_rank(case):
    # the cloud and its multiple by 6, a lattice polytope, both of any
    # dimension up to d
    d, pts = case
    for p in (VPolytope(pts, d), VPolytope([tuple(6 * x for x in v) for v in pts], d)):
        assert _face_table(p.faces()) == _face_table(closure_polytope_faces(p))


# ---------------------------------------------------------------------------
# the hull record and a cone's dimension against the routes they replaced
# ---------------------------------------------------------------------------

def _dot_incidences(p):
    """Per inequality, the mask of the vertices on it, by dot products."""
    return [sum(1 << i for i, v in enumerate(p.vertices) if dot(n, v) == b)
            for n, b in p.hrep()[0]]


def _dot_volume(p):
    """Volume by the pulling triangulation on the dot-product incidences,
    with Fraction simplex determinants; zero below full dimension."""
    d, verts = p.ambient_dim, p.vertices
    if affine_rank(verts) < d:
        return Fraction(0)
    facets = [frozenset(i for i in range(len(verts)) if z >> i & 1)
              for z in _dot_incidences(p)]
    total = Fraction(0)
    for s in _pulling_triangulation(range(len(verts)), facets):
        total += abs(_frac_det([vec_sub(verts[i], verts[s[0]]) for i in s[1:]]))
    return total / factorial(d)


@st.composite
def clouds_with_interior_points(draw):
    """A `point_clouds` cloud, with the midpoints of some pairs of its
    points added: interior points, or points inside a face."""
    d, pts = draw(point_clouds())
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                          max_size=4))
    pts += [tuple((x + y) / 2 for x, y in zip(a, b)) for a, b in pairs]
    return d, draw(st.permutations(pts))


@SETTINGS
@given(clouds_with_interior_points())
def test_hull_record_equals_the_replaced_routes(case):
    d, pts = case
    verts, ineqs, eqs = _hull_data_oracle(pts, d)
    p = VPolytope(pts, d)
    assert (p.vertices, p.hrep()) == (tuple(verts), (tuple(ineqs), tuple(eqs)))
    # the masks index the given points until a consumer asks for them
    assert (p._hull[3] is None) == (len(p.vertices) == len(set(map(tuple, pts))))
    trusted = VPolytope(p.vertices, d, trusted=True)
    for q in (p, trusted, FractionVPolytope(pts, d)):
        assert q._incidences() == _dot_incidences(q)
        assert q.dim == affine_rank(q.vertices)
        assert volume(q) == _dot_volume(q)
        assert _face_table(q.faces()) == _face_table(closure_polytope_faces(q))
    assert p._hull[3] is None


def test_empty_polytope_record():
    p = VPolytope([], 3)
    assert (p.dim, p.faces(), volume(p)) == (-1, [], 0)
    assert p.hrep() == ((((0, 0, 0), -1),), ())


@st.composite
def cones_with_lineality(draw):
    """A cone in dimension 1..4 on up to five rays and up to two lineality
    vectors, drawn from a span of any dimension; many rays are not
    extreme, and a cone may have no generator at all."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, d))
    basis = draw(st.lists(st.tuples(*[COORD] * d), min_size=k, max_size=k))

    def vectors(n):
        out = []
        for _ in range(n):
            cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
            v = tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(d))
            if not is_zero(v):
                out.append(primitive(v))
        return list(dict.fromkeys(out))

    rays = vectors(draw(st.integers(0, 5)))
    return Cone(rays, d, lineality=vectors(draw(st.integers(0, 2))))


def _rank_smooth(c):
    """`cone_is_smooth` with simpliciality tested by the rank of the rays."""
    k = len(c.rays)
    if c.lineality or rank(list(c.rays)) != k:
        return False
    g = 0
    for cols in itertools.combinations(range(c.ambient_dim), k):
        g = gcd(g, int(_frac_det([[r[j] for j in cols] for r in c.rays])))
    return g == 1


@SETTINGS
@given(cones_with_lineality())
def test_cone_dim_equals_the_rank_of_its_generators(cone):
    assert cone.dim == span_dim(cone.rays + cone.lineality)
    assert cone_is_smooth(cone) == _rank_smooth(cone)


# ---------------------------------------------------------------------------
# the start cone read off the solver's inverse against the one it replaced
# ---------------------------------------------------------------------------

@st.composite
def start_cone_cases(draw):
    """(kind, dim, rows): distinct primitive nonzero rows for a double
    description.  "rows" are k <= d generators in d = 1..4 and integer
    combinations of them, so every rank 0..d comes up, with lineality below
    rank d and no rows at all at rank 0; "face" rows are the rays of a face
    of a pointed cone, whose dual that is; "hull" rows are a point cloud of
    any affine dimension, homogenized as `_hull_data` homogenizes it."""
    kind = draw(st.sampled_from(["rows", "face", "hull"]))
    if kind == "hull":
        d, pts = draw(point_clouds())
        pts = sorted({tuple(map(exact, p)) for p in pts})
        return kind, d + 1, [integral(p + (1,)) for p in pts]
    d = draw(st.integers(1, 4))
    if kind == "face":
        cone = draw(pointed_cones(d))
        # largest faces first: the cone itself, then its facets
        faces = sorted(cone.face_dims(), key=lambda f: (-len(f), sorted(f)))
        face = draw(st.sampled_from(faces))
        return kind, d, [cone.rays[i] for i in sorted(face)]
    k = draw(st.integers(0, d))
    gens = draw(st.lists(st.tuples(*[COORD] * d), min_size=k, max_size=k))
    rows = list(gens)
    for _ in range(draw(st.integers(0, 6))):
        cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        rows.append(tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(d)))
    return kind, d, _distinct_rows(draw(st.permutations(rows)))


START_SETTINGS = settings(max_examples=1000, deadline=None, derandomize=True)


@START_SETTINGS
@given(start_cone_cases())
def test_double_description_equals_the_inverse_start(case):
    _, d, rows = case
    rays, lin, record = _double_description(rows, d)
    assert (rays, lin) == inverse_start_double_description(rows, d)
    # the record solves the kept rows at their pivots
    pos, piv, a, den = record
    kept = [[rows[i][c] for c in piv] for i in pos]
    assert [[dot(row, col) for col in zip(*a)] for row in kept] == [
        [den * (i == j) for j in range(len(pos))] for i in range(len(pos))
    ]
    assert len(lin) == d - len(pos)


def test_start_cone_cases_reach_every_rank():
    seen = set()

    @START_SETTINGS
    @given(start_cone_cases())
    def collect(case):
        kind, d, rows = case
        seen.add((kind, d, rank(rows) if rows else 0))

    collect()
    assert {("rows", d, r) for d in range(1, 5) for r in range(d + 1)} <= seen
    # hulls of every affine dimension 0..d, as rows of rank 1..d + 1
    assert {("hull", d + 1, r) for d in range(1, 5) for r in range(1, d + 2)} <= seen
    assert {("face", d, r) for d in range(1, 5) for r in range(min(d, 2) + 1)} <= seen


@pytest.mark.parametrize("fan", [*FANS.values(), CUBE4_FAN], ids=[*FANS, "cube4"])
def test_duals_of_fan_cones_equal_the_inverse_start(fan):
    # every cone of a fan, a face of its maximal cones, non-simplicial ones
    # on the cube fans included
    for key in fan.cone_keys:
        rows = [fan.rays[i] for i in sorted(key)]
        got = _double_description(rows, fan.ambient_dim)
        assert got[:2] == inverse_start_double_description(rows, fan.ambient_dim)
        if key in fan.maximal_keys:
            assert got[2] == fan.cone_inverse(key)
