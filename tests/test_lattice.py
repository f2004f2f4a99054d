import itertools
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart import lattice
from tropehrhart.errors import (
    NotInSupportError,
    UnboundedPolyhedronError,
    UnsupportedDimensionError,
    ValidationError,
)
from tropehrhart.lattice import (
    Cone,
    Fan,
    HPolyhedron,
    VPolytope,
    dual_cone,
    faces,
    is_complete,
    is_refinement,
    is_smooth,
    min_containing_cone,
    minkowski_sum,
    refine_by_hyperplanes,
    stellar_subdivision,
    vertex_enumeration,
    volume,
)
from tropehrhart.chains import ConvexChain
from tropehrhart.linalg import det, dot, primitive, vec_sub

from conftest import (
    CUBE4_FAN,
    FANS,
    FractionHPolyhedron,
    FractionVPolytope,
    caratheodory_contains,
    closure_fan_faces,
    dimension_filtered_facets,
    double_dual_verdict,
    face_alternating_sum,
    face_set_extreme,
    fresh_faces,
    grid_points,
    lattice_points,
    list_refinement,
    max_pulling_triangulation,
    PairwiseFan,
    oracle_hull_vertices,
    random_lattice_polytope,
    relint_contains,
    scan_complete,
    scan_min_containing_cone,
    span_dim,
    translate,
)


def frac_pt(*xs):
    return tuple(Fraction(x) for x in xs)


# ---------------------------------------------------------------------------
# dual cones
# ---------------------------------------------------------------------------

def test_primitive_keeps_sign():
    assert primitive((2, -4)) == (1, -2)
    assert primitive((-3, 0, 6)) == (-1, 0, 2)
    assert primitive((0, 0)) == (0, 0)


def test_dual_cone_orthant_self_dual():
    c = Cone([(1, 0), (0, 1)], 2)
    d = dual_cone(c)
    assert set(d.rays) == {(1, 0), (0, 1)}
    assert d.lineality == ()


def test_dual_cone_of_ray_is_halfplane():
    d = dual_cone(Cone([(1, 0)], 2))
    assert set(d.generators) == {(1, 0), (0, 1), (0, -1)}


def test_dual_cone_grid_oracle():
    # sigma_1 of the plane fan: dual membership must match the sign test
    rays = [(0, 1), (-1, -1)]
    d = dual_cone(Cone(rays, 2))

    def oracle(u):
        for a in range(4):
            for b in range(4):
                x = (a * rays[0][0] + b * rays[1][0], a * rays[0][1] + b * rays[1][1])
                if dot(u, x) < 0:
                    return False
        return True

    for u in grid_points(2, 5):
        assert d.contains(u) == oracle(u)


def test_dual_cone_dimension_cap():
    with pytest.raises(UnsupportedDimensionError):
        dual_cone(Cone([(1, 0, 0, 0, 0)], 5))


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def test_vertex_enumeration_interval():
    p = vertex_enumeration(HPolyhedron([((1,), 1), ((-1,), 0)]))
    assert p.vertices == (frac_pt(0), frac_pt(1))


def test_vertex_enumeration_parliament_triangle():
    p = vertex_enumeration(
        HPolyhedron([((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
    )
    assert set(p.vertices) == {frac_pt(-2, 1), frac_pt(1, 1), frac_pt(1, -2)}


def test_vertex_enumeration_random_vs_hull_oracle():
    rng = random.Random(11)
    for dim in (1, 2, 3):
        for _ in range(6):
            poly = random_lattice_polytope(rng, dim)
            ineqs, eqs = poly.hrep()
            again = vertex_enumeration(HPolyhedron(ineqs, eqs, dim))
            assert set(again.vertices) == set(
                oracle_hull_vertices(poly.vertices)
            )


def test_hpolyhedron_refuses_non_integer_normals():
    # a truncated normal (1/2, 0) -> (0, 0) would contain every point
    with pytest.raises(ValidationError, match="non-integer"):
        HPolyhedron([((Fraction(1, 2), 0), 1)])
    with pytest.raises(ValidationError, match="non-integer"):
        HPolyhedron([], [((1, Fraction(-3, 2)), 0)])
    p = HPolyhedron([((Fraction(2), 0), 1)])
    assert p.inequalities == (((2, 0), Fraction(1)),)
    assert not p.contains((5, 0))


def test_hpolyhedron_normals_are_tuples_of_ints():
    # bools, integral Fractions and numpy integers become ints; a tuple of
    # ints and a non-integral Fraction bound are kept as given; an integral
    # bound becomes an int
    normal, bound = (3, -1), Fraction(7, 2)
    p = HPolyhedron(
        [(normal, bound), ((True, Fraction(-2)), 0), ([np.int64(4), 0], 1)],
        [((Fraction(6, 3), False), Fraction(1))],
    )
    assert p.inequalities[0][0] is normal and p.inequalities[0][1] is bound
    rows = p.inequalities + p.equalities
    assert [n for n, _ in rows] == [(3, -1), (1, -2), (4, 0), (2, 0)]
    for n, b in rows:
        assert type(n) is tuple and all(type(x) is int for x in n)
    assert [type(b) for _, b in rows] == [Fraction, int, int, int]
    assert [b for _, b in rows] == [Fraction(7, 2), 0, 1, 1]


def _spelled(q, how):
    """The exact number q spelled as an int (where integral), a Fraction, or
    a Fraction of an unreduced pair such as Fraction(6, 2)."""
    if how == 0 and q.denominator == 1:
        return int(q)
    if how == 2:
        return Fraction(2 * q.numerator, 2 * q.denominator)
    return Fraction(q)


def _is_exact(x):
    """An int where integral, else a Fraction."""
    return type(x) is (int if x.denominator == 1 else Fraction)


@st.composite
def spelled_clouds(draw):
    """(points, probes): a cloud of 1-7 points in dimension 1-4, integer or
    rational, each coordinate spelled one of three ways, and a few probes."""
    dim = draw(st.integers(1, 4))
    den = draw(st.sampled_from((1, 2, 3)))
    number = st.builds(Fraction, st.integers(-3 * den, 3 * den), st.just(den))
    point = st.tuples(*[number] * dim)
    spelled = st.builds(_spelled, number, st.integers(0, 2))
    pts = draw(st.lists(st.tuples(*[spelled] * dim), min_size=1, max_size=7))
    probes = draw(st.lists(point, min_size=1, max_size=6))
    return pts, probes


def _face_table(p):
    return [(f.vertices, d, t.inequalities, t.equalities) for f, d, t in p.faces()]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spelled_clouds(), st.integers(0, 2))
def test_exact_numbers_equal_the_fraction_route(cloud, how):
    pts, probes = cloud
    p, q = VPolytope(pts), FractionVPolytope(pts)
    assert p.vertices == q.vertices
    assert p.hrep() == q.hrep()
    assert volume(p) == volume(q)
    assert _face_table(p) == _face_table(q)
    assert [p.contains(y) for y in probes] == [q.contains(y) for y in probes]
    numbers = [x for v in p.vertices for x in v]
    numbers += [b for rows in p.hrep() for _, b in rows]
    for face, _, tangent in p.faces():
        numbers += [x for v in face.vertices for x in v]
        numbers += [b for _, b in tangent.inequalities + tangent.equalities]
    assert all(map(_is_exact, numbers))
    # the hull's rows with their bounds respelled and the inequalities
    # loosened by 1/2: an int bound where integral, else the given Fraction
    ineqs, eqs = q.hrep()
    loose = [(n, _spelled(b + Fraction(1, 2) * (how == 1), how)) for n, b in ineqs]
    eqs = [(n, _spelled(b, how)) for n, b in eqs]
    h = HPolyhedron(loose, eqs, p.ambient_dim)
    g = FractionHPolyhedron(loose, eqs, p.ambient_dim)
    assert (h.inequalities, h.equalities) == (g.inequalities, g.equalities)
    assert h.generators() == g.generators()
    assert all(_is_exact(b) for _, b in h.inequalities + h.equalities)
    assert all(hb is b for (_, hb), (_, b) in zip(h.inequalities, loose)
               if type(b) is Fraction and b.denominator != 1)
    assert all(_is_exact(x) for v in h.generators()[0] for x in v)
    # pieces that differ only in int or Fraction spelling merge into one term
    as_ints = [tuple(_spelled(Fraction(x), 0) for x in v) for v in pts]
    as_fractions = [tuple(_spelled(Fraction(x), 1) for x in v) for v in pts]
    chain = ConvexChain([
        (1, VPolytope(as_ints)), (2, VPolytope(as_fractions)),
        (1, h), (3, g),
    ])
    assert [c for c, _ in chain.terms] == [3, 4]


def test_vertex_enumeration_errors():
    with pytest.raises(UnboundedPolyhedronError):
        vertex_enumeration(HPolyhedron([((1, 0), 0)]))
    assert vertex_enumeration(
        HPolyhedron([((1,), 0), ((-1,), -1)])
    ).is_empty()
    with pytest.raises(UnsupportedDimensionError):
        vertex_enumeration(HPolyhedron([(tuple([1] * 5), 0)]))


def test_hrep_roundtrip_on_lattice_points():
    rng = random.Random(5)
    for _ in range(5):
        poly = random_lattice_polytope(rng, 2, spread=3)
        ineqs, eqs = poly.hrep()
        for u in grid_points(2, 4):
            member = all(dot(n, u) <= b for n, b in ineqs) and all(
                dot(n, u) == b for n, b in eqs
            )
            assert member == caratheodory_contains(poly.vertices, u)


def test_h_to_v_to_h_same_solution_set():
    # enumerate the vertices of an H-system and re-derive an H-description
    # from them: the two systems must agree on a lattice box
    rng = random.Random(6)
    for dim in (2, 3):
        for _ in range(4):
            source = random_lattice_polytope(rng, dim, spread=2)
            system = HPolyhedron(*source.hrep(), dim)
            verts = vertex_enumeration(system)
            assert all(system.contains(v) for v in verts.vertices)
            rederived = HPolyhedron(*verts.hrep(), dim)
            for u in grid_points(dim, 3):
                assert system.contains(u) == rederived.contains(u)


# ---------------------------------------------------------------------------
# Minkowski sums
# ---------------------------------------------------------------------------

def test_minkowski_identity_element():
    p = VPolytope([(0, 0), (2, 0), (0, 2)])
    assert minkowski_sum(p, VPolytope([(0, 0)])) == p


def test_minkowski_segments():
    seg = VPolytope([(0,), (1,)])
    assert minkowski_sum(seg, seg).vertices == (frac_pt(0), frac_pt(2))


def test_minkowski_square_plus_triangle_is_pentagon():
    square = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = VPolytope([(0, 0), (1, 0), (0, 1)])
    s = minkowski_sum(square, tri)
    sums = [
        (a[0] + b[0], a[1] + b[1])
        for a in square.vertices
        for b in tri.vertices
    ]
    assert set(s.vertices) == set(oracle_hull_vertices(sums))
    assert len(s.vertices) == 5


def test_minkowski_commutative_associative():
    rng = random.Random(23)
    for dim in (2, 3):
        for _ in range(4):
            a = random_lattice_polytope(rng, dim, npoints=4)
            b = random_lattice_polytope(rng, dim, npoints=4)
            c = random_lattice_polytope(rng, dim, npoints=4)
            assert minkowski_sum(a, b) == minkowski_sum(b, a)
            assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
                a, minkowski_sum(b, c)
            )


# ---------------------------------------------------------------------------
# volume and lattice points
# ---------------------------------------------------------------------------

def test_volume_standard_simplex():
    from tropehrhart.lattice import volume

    assert volume(VPolytope([(0, 0), (1, 0), (0, 1)])) == Fraction(1, 2)


def test_volume_lower_dimensional_is_zero():
    from tropehrhart.lattice import volume

    assert volume(VPolytope([(0, 0), (1, 1)])) == 0


def test_volume_parliament_triangle():
    from tropehrhart.lattice import volume

    assert volume(VPolytope([(-2, 1), (1, 1), (1, -2)])) == Fraction(9, 2)


def _max_vertex_volume(p):
    """The volume of a lattice polytope over its pulling triangulation from
    the largest vertex, where `volume` pulls from the smallest."""
    verts = [tuple(int(x) for x in v) for v in p.vertices]
    ineqs, _ = p.hrep()
    facets = [
        frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
        for n, b in ineqs
    ]
    return Fraction(sum(
        abs(det([vec_sub(verts[i], verts[s[0]]) for i in s[1:]]))
        for s in max_pulling_triangulation(len(verts), facets)
    ), factorial(p.ambient_dim))


def test_volume_translation_invariant_and_triangulation_independent():
    from tropehrhart.lattice import volume

    rng = random.Random(3)
    for dim in (1, 2, 3):
        for _ in range(34):
            p = random_lattice_polytope(rng, dim, npoints=dim + 3)
            if p.dim < dim:
                assert volume(p) == 0
                continue
            v1 = volume(p)
            assert v1 == _max_vertex_volume(p)
            shift = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert volume(translate(p, shift)) == v1


def test_lattice_points_segment():
    pts = lattice_points(VPolytope([(0,), (2,)]))
    assert pts == [(0,), (1,), (2,)]


def test_lattice_points_fano_branch_polytopes():
    # branch polytopes of the Fano bundle on the hexagonally refined fan:
    # support numbers (1,1,1,2,2,2) and (2,2,2,2,2,2) on rays
    # (1,0),(0,1),(-1,-1),(1,1),(-1,0),(0,-1)
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)]
    p2 = vertex_enumeration(
        HPolyhedron([(r, v) for r, v in zip(rays, [1, 1, 1, 2, 2, 2])])
    )
    p3 = vertex_enumeration(
        HPolyhedron([(r, v) for r, v in zip(rays, [2, 2, 2, 2, 2, 2])])
    )
    assert len(lattice_points(p2)) == 10
    assert len(lattice_points(p3)) == 19


# ---------------------------------------------------------------------------
# faces and tangent cones
# ---------------------------------------------------------------------------

def test_faces_of_segment():
    seg = VPolytope([(0,), (1,)])
    fs = faces(seg)
    assert [(f.vertices, d) for f, d, _ in fs] == [
        ((frac_pt(0),), 0),
        ((frac_pt(1),), 0),
        ((frac_pt(0), frac_pt(1)), 1),
    ]
    by_dim = {f.vertices: tc for f, _, tc in fs}
    # tangent cone at 0 is [0, oo), at 1 is (-oo, 1], at the segment all of R
    assert by_dim[(frac_pt(0),)].contains((5,)) and not by_dim[(frac_pt(0),)].contains((-1,))
    assert by_dim[(frac_pt(1),)].contains((-5,)) and not by_dim[(frac_pt(1),)].contains((2,))
    assert by_dim[(frac_pt(0), frac_pt(1))].contains((100,))


def test_faces_square_euler_relation():
    square = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    fs = faces(square)
    assert len(fs) == 9
    assert sum((-1) ** d for _, d, _ in fs) == 1


def test_faces_count_matches_probe_oracle_2d():
    # in the plane a full probe is affordable: every face is the argmax set
    # of some integer direction of bounded size, so the counts must agree
    rng = random.Random(17)
    for _ in range(5):
        p = random_lattice_polytope(rng, 2, spread=3, npoints=5)
        if p.dim < 2:
            continue
        found = set()
        for w in itertools.product(range(-40, 41), repeat=2):
            best = max(dot(w, v) for v in p.vertices)
            found.add(frozenset(v for v in p.vertices if dot(w, v) == best))
        face_sets = {frozenset(f.vertices) for f, _, _ in faces(p)}
        assert found == face_sets


def test_faces_probe_oracle_3d():
    rng = random.Random(18)
    for _ in range(3):
        p = random_lattice_polytope(rng, 3, spread=2, npoints=6)
        if p.dim < 3:
            continue
        found = set()
        for w in itertools.product(range(-6, 7), repeat=3):
            best = max(dot(w, v) for v in p.vertices)
            found.add(frozenset(v for v in p.vertices if dot(w, v) == best))
        # every probed face is a face; all vertices and the body are probed
        face_sets = {frozenset(f.vertices) for f, _, _ in faces(p)}
        assert found <= face_sets
        assert frozenset(p.vertices) in found
        for v in p.vertices:
            assert frozenset([v]) in found


def test_face_alternating_sum_lemma():
    rng = random.Random(29)
    for dim in (1, 2, 3):
        for _ in range(6):
            p = random_lattice_polytope(rng, dim, npoints=dim + 3)
            ineqs, eqs = p.hrep()
            # bounded polyhedron: sum is 1
            assert face_alternating_sum(HPolyhedron(ineqs, eqs, dim)) == 1
            # tangent cones of faces: bounded only when the face is everything
            for f, d, tangent in faces(p):
                expected = 1 if d == p.dim and p.dim == dim else 0
                if not tangent.inequalities and not tangent.equalities:
                    continue  # whole space has lineality
                verts, rays, lin = tangent.generators()
                if lin:
                    continue
                assert face_alternating_sum(tangent) == expected


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

def test_min_containing_cone(p2_fan):
    assert sorted(min_containing_cone(p2_fan, (1, 1))) == [0, 1]
    assert sorted(min_containing_cone(p2_fan, (1, 0))) == [0]
    assert sorted(min_containing_cone(p2_fan, (0, 0))) == []
    with pytest.raises(NotInSupportError):
        min_containing_cone(Fan([(1, 0), (0, 1)], [[0, 1]], 2), (-1, 0))


REFINING_NORMALS = {1: [], 2: [(1, -1), (1, 2)], 3: [(1, -1, 0), (0, 1, -2)]}
# fans that miss points: a quadrant, and two rays whose cones are not
# full-dimensional
PARTIAL_FANS = {"quadrant": Fan([(1, 0), (0, 1)], [[0, 1]], 2),
                "two rays": Fan([(1, 0), (0, 1)], [[0], [1]], 2)}


def _smallest_cone(find, f, x):
    try:
        return find(f, x)
    except NotInSupportError:
        return None


@pytest.mark.parametrize("name", sorted(FANS) + sorted(PARTIAL_FANS))
def test_min_containing_cone_equals_the_scan_by_dimension(name):
    # at every ray, inside every face (the sum of its rays) and at random
    # points, on the named fans and their refinements
    fan = FANS.get(name) or PARTIAL_FANS[name]
    rng = random.Random(name)
    d = fan.ambient_dim
    for f in (fan, refine_by_hyperplanes(fan, REFINING_NORMALS[d])):
        points = [tuple(sum(f.rays[i][j] for i in key) for j in range(d))
                  for key in f.cone_keys]
        points += [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(40)]
        for x in points:
            assert _smallest_cone(min_containing_cone, f, x) == _smallest_cone(
                scan_min_containing_cone, f, x
            )


def test_refine_by_hyperplanes_p2(p2_fan):
    refined = refine_by_hyperplanes(p2_fan, [(1, -1)])
    # the wall x1 = x2 splits exactly the cone containing (1,1)
    assert len(refined.maximal_keys) == 4
    assert (1, 1) in refined.rays
    assert is_refinement(refined, p2_fan)
    # every refined cone maps into a unique coarse cone
    for key in refined.maximal_keys:
        interior = tuple(
            sum(refined.rays[i][j] for i in key) for j in range(2)
        )
        min_containing_cone(p2_fan, interior)


def test_refine_no_normals_is_identity(p2_fan):
    assert refine_by_hyperplanes(p2_fan, []) is p2_fan


def test_refine_existing_wall_is_identity(p1_fan):
    refined = refine_by_hyperplanes(p1_fan, [(1,)])
    assert len(refined.maximal_keys) == 2
    assert refined.rays == p1_fan.rays


def test_refine_refuses_a_normal_of_the_wrong_length(p2_fan, monkeypatch):
    # dot pairs (1,) with the first coordinate alone, so P^2 was cut by
    # x = 0 and gained the ray (0, -1)
    with pytest.raises(ValidationError, match="normal has 1 coordinates, expected 2"):
        refine_by_hyperplanes(p2_fan, [(1,)])
    # refused before any cut, whether one list cuts every cone or a map
    # gives each cone its own
    def no_cut(self, normal):
        raise AssertionError("a cone was cut")

    monkeypatch.setattr(Cone, "intersect_halfspace", no_cut)
    with pytest.raises(ValidationError, match="normal has 3 coordinates"):
        refine_by_hyperplanes(p2_fan, [(1, -1), (1, 0, 0)])
    key = min_containing_cone(p2_fan, (1, 1))
    with pytest.raises(ValidationError, match="normal has 1 coordinates"):
        refine_by_hyperplanes(p2_fan, {key: [(1, -1)], p2_fan.maximal_keys[-1]: [(1,)]})


def test_intersect_halfspace_refuses_a_normal_of_the_wrong_length(monkeypatch):
    # dot dropped the 7, so this returned the cone over (1, 0) and (1, 1)
    cone = Cone([(1, 0), (0, 1)], 2)
    with pytest.raises(ValidationError, match="normal has 3 coordinates, expected 2"):
        cone.intersect_halfspace((1, -1, 7))
    with pytest.raises(ValidationError, match="normal has 1 coordinates"):
        Cone([(1, 0)], 2, lineality=[(0, 1)]).intersect_halfspace((1,))

    def no_cut(*args):
        raise AssertionError("a row was cut")

    monkeypatch.setattr(lattice, "_cut", no_cut)
    with pytest.raises(ValidationError, match="normal has 3 coordinates"):
        cone._cut_by([(1, -1), (1, 0, 0)])


def test_cone_refuses_vectors_of_the_wrong_length():
    # the dual raised IndexError, the containment test ValueError, and the
    # dimension was 2
    with pytest.raises(ValidationError, match="generator has 2 coordinates, expected 3"):
        Cone([(1, 0), (0, 1)], 3).dual
    with pytest.raises(ValidationError, match="generator has 3 coordinates, expected 2"):
        Cone([(1, 0, 7)], 2).contains((1, 0))
    with pytest.raises(ValidationError, match="generator has 2 coordinates, expected 3"):
        Cone([(1, 0), (0, 1)], 3).dim
    with pytest.raises(ValidationError, match="generator has 3 coordinates, expected 2"):
        Cone([(1, 0)], 2, lineality=[(0, 1, 0)])


def test_refine_by_a_map_cuts_each_cone_by_its_own_normals(p2_fan):
    # x1 = x2 crosses the cone around (1, 1) only
    key = min_containing_cone(p2_fan, (1, 1))
    refined = refine_by_hyperplanes(p2_fan, {key: [(1, -1)]})
    assert refined.rays == p2_fan.rays + ((1, 1),)
    assert len(refined.maximal_keys) == 4
    assert refined.maximal_keys == refine_by_hyperplanes(p2_fan, [(1, -1)]).maximal_keys
    # given to the other cones, it crosses none, and the fan itself returns
    others = {k: [(1, -1)] for k in p2_fan.maximal_keys if k != key}
    assert refine_by_hyperplanes(p2_fan, others) is p2_fan
    assert refine_by_hyperplanes(p2_fan, {}) is p2_fan
    with pytest.raises(ValidationError, match="not maximal"):
        refine_by_hyperplanes(p2_fan, {frozenset({0}): [(1, -1)]})


def test_refinement_passes_fan_validation_3d():
    # refine_by_hyperplanes skips the fan check, since a common refinement
    # is a fan by construction; rebuilding one with the check must pass
    p3 = Fan(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [c for c in itertools.combinations(range(4), 3)],
        3,
    )
    refined = refine_by_hyperplanes(p3, [(1, -1, 0), (0, 1, -1), (1, 0, -2)])
    assert len(refined.rays) > len(p3.rays)
    checked = Fan(refined.rays, refined.maximal_keys, 3)
    assert checked.cone_keys == refined.cone_keys
    assert is_complete(checked) and is_refinement(checked, p3)


def test_refine_dimension_cap():
    # refinement shares the cap of vertex enumeration: dimension 4 is
    # refined, dimension 5 refused
    orthant = Fan([tuple(int(i == j) for j in range(4)) for i in range(4)],
                  [[0, 1, 2, 3]], 4)
    assert len(refine_by_hyperplanes(orthant, [(1, -1, 0, 0)]).maximal_keys) == 2
    f = Fan([(1, 0, 0, 0, 0), (-1, 0, 0, 0, 0)], [[0], [1]], 5)
    with pytest.raises(UnsupportedDimensionError):
        refine_by_hyperplanes(f, [(1, 0, 0, 0, 0)])


def test_smooth_and_complete(p2_fan, p1xp1_fan):
    assert is_smooth(p2_fan) and is_complete(p2_fan)
    assert is_smooth(p1xp1_fan) and is_complete(p1xp1_fan)
    singular = Fan([(1, 0), (1, 2)], [[0, 1]])
    assert not is_smooth(singular)
    assert not is_complete(singular)


def test_is_refinement(p2_fan):
    refined = stellar_subdivision(p2_fan, (1, 1))
    assert is_refinement(refined, p2_fan)
    assert not is_refinement(p2_fan, refined)
    assert is_refinement(p2_fan, p2_fan)


def test_stellar_subdivision(p2_fan):
    st = stellar_subdivision(p2_fan, (1, 1))
    assert len(st.maximal_keys) == 4
    assert is_complete(st)
    assert stellar_subdivision(p2_fan, (1, 0)) is p2_fan


def test_fan_rejects_bad_input():
    with pytest.raises(ValidationError):
        Fan([(1, 0), (1, 0)], [[0, 1]])
    with pytest.raises(ValidationError):
        # overlapping cones that do not meet in a face
        Fan([(1, 0), (0, 1), (1, 2)], [[0, 1], [0, 2]])
    for rays, dim in (([(1, 0), (0, 1, 0), (-1, -1)], None),
                      ([(1, 0), (0, 1)], 3)):
        with pytest.raises(ValidationError, match="coordinates"):
            Fan(rays, [[0, 1]], dim)


def test_fan_refuses_cones_that_meet_off_a_common_face():
    # a pyramid over a square and a simplicial cone that meet in a diagonal
    # of the square, which is a face of the second cone but not of the first
    rays = [(1, 1, 1, 0), (-1, 1, 1, 0), (-1, -1, 1, 0), (1, -1, 1, 0),
            (0, 0, 1, 1), (1, -1, 1, -1), (0, 0, 1, -1)]
    with pytest.raises(ValidationError, match="do not meet in a face"):
        Fan(rays, [[0, 1, 2, 3, 4], [0, 2, 5, 6]])
    # rays at the corners of a star pentagon, cone i joining ray i to ray
    # i + 2: the five cones cover the plane twice
    star = [(1, 0), (1, 3), (-3, 1), (-3, -2), (1, -3)]
    with pytest.raises(ValidationError, match="do not meet in a face") as info:
        Fan(star, [[i, (i + 2) % 5] for i in range(5)])
    # the library names cones by 0-based ray indices
    assert str(info.value) == "cones [0, 2] and [1, 3] do not meet in a face"
    # two 3-d simplicial cones that overlap: a ray of the second lies
    # inside the first
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -2, 0), (-2, 1, 0)]
    with pytest.raises(ValidationError, match="do not meet in a face"):
        Fan(rays, [[0, 1, 2], [3, 4, 5]])


def test_fan_refuses_a_listed_cone_inside_another_that_is_not_its_face():
    # the cone over a square, listed with one of its diagonals
    corners = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]
    with pytest.raises(ValidationError, match="is not a face of it"):
        Fan(corners, [[0, 1, 2, 3], [0, 2]])
    # a listed edge is a face, and is dropped as before
    assert Fan(corners, [[0, 1, 2, 3], [0, 1]]).maximal_keys == (
        frozenset(range(4)),
    )


@pytest.mark.parametrize("name", sorted(FANS))
def test_common_rays_span_the_intersection_of_two_maximal_cones(name):
    # the fan property, read by MultiValuedSupportFunction from ray indices,
    # against one double description per pair of maximal cones
    fan = FANS[name]
    for f in (fan, refine_by_hyperplanes(fan, REFINING_NORMALS[fan.ambient_dim])):
        for a, b in itertools.combinations(f.maximal_keys, 2):
            inter = f.cone(a).intersect(f.cone(b))
            assert not inter.lineality
            assert set(inter.rays) == {f.rays[i] for i in a & b}


# ---------------------------------------------------------------------------
# dual-cone fan identities
# ---------------------------------------------------------------------------

def _fan_dual_sum(fan, u):
    total = 0
    for key in fan.cone_keys:
        cone = fan.cone(key)
        if cone.dual.contains(u):
            total += (-1) ** fan.codim(key)
    return total


def test_convex_support_dual_identity():
    # fan supported on a convex cone: the signed dual-indicator sum equals
    # (-1)^n on -relint(C dual) and 0 elsewhere
    cases = [
        Fan([(1, 0), (0, 1)], [[0, 1]], 2),
        Fan([(1, 0), (1, 2), (0, 1)], [[0, 1], [1, 2]], 2),
        Fan([(1, 0), (1, 1), (0, 1), (2, 1)], [[0, 3], [3, 1], [1, 2]], 2),
    ]
    for fan in cases:
        support_rays = [fan.rays[i] for m in fan.maximal_keys for i in m]
        cdual = Cone(sorted(set(support_rays)), 2).dual
        for u in grid_points(2, 4):
            expected = 1 if relint_contains(cdual, (-u[0], -u[1])) else 0
            assert _fan_dual_sum(fan, u) == expected


def test_refinement_fiber_identity(p2_fan):
    refined = refine_by_hyperplanes(p2_fan, [(1, -1), (0, 1)])

    def coarse_key(key):
        if not key:
            return frozenset()
        pt = tuple(
            sum(refined.rays[i][j] for i in key) for j in range(2)
        )
        return min_containing_cone(p2_fan, pt)

    fibers = {key: [] for key in p2_fan.cone_keys}
    for key in refined.cone_keys:
        fibers[coarse_key(key)].append(key)

    for ckey in p2_fan.cone_keys:
        cdual = p2_fan.cone(ckey).dual
        for u in grid_points(2, 3):
            lhs = (-1) ** p2_fan.codim(ckey) * (1 if cdual.contains(u) else 0)
            rhs = sum(
                (-1) ** refined.codim(k)
                * (1 if refined.cone(k).dual.contains(u) else 0)
                for k in fibers[ckey]
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# face dimensions and the extreme-ray check, off the face lattice
# ---------------------------------------------------------------------------

LATTICE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def cones(draw):
    """A cone on one to five distinct primitive rays in dimension 2 or 3;
    many have a ray that is not extreme, or are not pointed."""
    d = draw(st.integers(2, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    rays = draw(st.lists(vectors, min_size=1, max_size=5))
    return Cone(list(dict.fromkeys(primitive(r) for r in rays)), d)


@LATTICE_SETTINGS
@given(cones())
def test_face_dims_and_fan_check_equal_cone_dims_and_the_double_dual(cone):
    dims = cone.face_dims()
    assert dims == {
        face: span_dim(cone.rays[i] for i in face) for face in fresh_faces(cone)
    }
    try:
        fan = Fan(cone.rays, [range(len(cone.rays))])
    except ValidationError as exc:
        assert str(exc).endswith("are not all extreme")
        assert double_dual_verdict(cone) != "pointed"
    else:
        assert double_dual_verdict(cone) == "pointed"
        assert fan.cone_dims == dims
        assert cone.dual.dual == cone


def test_cones_reach_every_double_dual_verdict():
    seen = set()

    @LATTICE_SETTINGS
    @given(cones())
    def collect(cone):
        seen.add((cone.ambient_dim, double_dual_verdict(cone)))

    collect()
    assert seen == {(d, v) for d in (2, 3)
                    for v in ("pointed", "not extreme", "lineality")}


# the fans of the face-table properties: every named fan and the 4-cube fan
LATTICE_FANS = {**FANS, "cube4": CUBE4_FAN}


@st.composite
def fans_with_normals(draw):
    """A fan of LATTICE_FANS and up to three refining normals."""
    fan = LATTICE_FANS[draw(st.sampled_from(sorted(LATTICE_FANS)))]
    normal = st.tuples(*[st.integers(-2, 2)] * fan.ambient_dim)
    return fan, draw(st.lists(normal, max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fans_with_normals())
def test_fan_and_refinement_face_dims_equal_cone_dims(case):
    # the faces of every maximal cone and the dimension of each, against
    # the closure route and the rank of the face's rays
    fan, normals = case
    for f in (fan, refine_by_hyperplanes(fan, normals)):
        assert (f.cone_faces, f.cone_dims) == closure_fan_faces(f)
        for key in f.maximal_keys:
            assert double_dual_verdict(f.cone(key)) == "pointed"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fans_with_normals())
def test_refined_rays_and_keys_equal_the_list_route(case):
    fan, normals = case
    refined = refine_by_hyperplanes(fan, normals)
    rays, keys = list_refinement(fan, normals)
    assert refined.rays == rays
    assert set(refined.maximal_keys) == keys
    # each piece the refinement handed over equals a cone built fresh on
    # the fan's rays of its key
    for key in refined.maximal_keys:
        cone = refined.cone(key)
        fresh = Cone([rays[i] for i in sorted(key)], fan.ambient_dim)
        assert cone.rays == fresh.rays
        assert cone._facet_masks() == fresh._facet_masks()
        assert (cone.dual.rays, cone.dual.lineality) == (fresh.dual.rays, fresh.dual.lineality)
        assert fresh._inverse is not None
        assert refined.cone_inverse(key) == fresh._inverse


# ---------------------------------------------------------------------------
# exactness, facets and completeness against the face-set routes they
# replaced
# ---------------------------------------------------------------------------

def _assert_routes_equal_face_set_oracles(fan):
    assert fan._check_complete() == scan_complete(fan)
    for key in fan.maximal_keys:
        assert fan.facets(key) == dimension_filtered_facets(fan, key)
        assert fan.cone(key)._is_exact() == face_set_extreme(fan.cone(key))


# fans with a maximal cone below full dimension: a quadrant and a ray, and
# an octant with two planar cones through the ray (-1, -1, 0)
LOWER_DIMENSIONAL_FANS = [
    Fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [2]]),
    Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)], [[0, 1, 2], [0, 3], [1, 3]]),
    *PARTIAL_FANS.values(),
]


@pytest.mark.parametrize("name", sorted(FANS))
def test_facets_and_completeness_equal_face_set_routes(name):
    fan = FANS[name]
    complete = [fan, refine_by_hyperplanes(fan, REFINING_NORMALS[fan.ambient_dim])]
    if fan.ambient_dim > 1:
        complete.append(stellar_subdivision(fan, [1] * fan.ambient_dim))
    for f in complete:
        assert f.is_complete()
        _assert_routes_equal_face_set_oracles(f)
    # one maximal cone dropped: incomplete
    for drop in fan.maximal_keys:
        f = Fan(fan.rays, [k for k in fan.maximal_keys if k != drop], fan.ambient_dim)
        assert not f.is_complete()
        _assert_routes_equal_face_set_oracles(f)


def test_facets_and_completeness_with_a_lower_dimensional_maximal_cone():
    for fan in LOWER_DIMENSIONAL_FANS:
        assert not fan.is_complete()
        _assert_routes_equal_face_set_oracles(fan)
    # the facet of a ray is the origin, and the octant's are its quadrants
    assert LOWER_DIMENSIONAL_FANS[0].facets({2}) == [frozenset()]
    assert LOWER_DIMENSIONAL_FANS[1].facets({0, 1, 2}) == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]


@LATTICE_SETTINGS
@given(cones())
def test_exactness_facets_and_completeness_on_any_ray_set(cone):
    # the fan check refuses cones that are not pointed or have a ray that is
    # not extreme, so the routes meet those through a fan given the cone,
    # which is taken on trust
    key = frozenset(range(len(cone.rays)))
    fan = Fan(cone.rays, [key], cone.ambient_dim, cones={key: cone})
    assert cone._is_exact() == face_set_extreme(cone) == (
        double_dual_verdict(cone) == "pointed")
    _assert_routes_equal_face_set_oracles(fan)


def test_a_fan_given_duals_is_not_checked():
    # the star pentagon covers the plane twice and is refused when checked;
    # given its cones it is taken as it is
    star = [(1, 0), (1, 3), (-3, 1), (-3, -2), (1, -3)]
    cones_ = [[i, (i + 2) % 5] for i in range(5)]
    with pytest.raises(ValidationError, match="do not meet in a face"):
        Fan(star, cones_)
    given = {frozenset(c): Cone([star[i] for i in sorted(c)], 2) for c in cones_}
    assert len(Fan(star, cones_, cones=given).maximal_keys) == 5
    # a given cone must list its rays in the fan's index order
    turned = {**given, frozenset({0, 2}): Cone([star[2], star[0]], 2)}
    with pytest.raises(ValidationError, match="index order"):
        Fan(star, cones_, cones=turned)


def test_a_fan_given_duals_keeps_every_listed_key(p2_fan):
    # refine_by_hyperplanes builds its keys maximal, so a fan given its
    # cones keeps each listed key as a maximal key, even a listed face; a
    # fan built without them still drops the face
    refined = refine_by_hyperplanes(p2_fan, [(1, -1), (1, 2)])
    keys = list(refined.maximal_keys)
    assert set(keys) == set(refined._cones)
    face = min(f for f in refined.cone_faces[keys[0]] if len(f) == 1)
    listed = keys + [face, keys[0]]
    trusted = Fan(refined.rays, listed, cones=refined._cones)
    assert set(trusted.maximal_keys) == set(keys) | {face}
    assert set(Fan(refined.rays, listed).maximal_keys) == set(keys)


# ---------------------------------------------------------------------------
# the fan check by continued double descriptions against the meet of every
# pair built as a cone
# ---------------------------------------------------------------------------

CHECKED_FANS = [FANS[name] for name in ("P2", "P1xP1", "hexagon", "weighted", "P3", "cube")]


@st.composite
def fan_inputs(draw):
    """(rays, cones, dim) in dimension 2 or 3: some maximal cones of a
    named fan and perhaps one more cone on its rays, or random cones of at
    most dim rays on random rays.  They overlap, include maximal cones
    below full dimension, whose duals have lineality, and cones whose rays
    are not all extreme."""
    if draw(st.booleans()):
        fan = draw(st.sampled_from(CHECKED_FANS))
        rays, dim = list(fan.rays), fan.ambient_dim
        keys = [tuple(sorted(k)) for k in fan.maximal_keys]
        cones = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        extra = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=dim, unique=True)
        return rays, cones + draw(st.lists(extra, max_size=1)), dim
    dim = draw(st.integers(2, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * dim).filter(any).map(primitive)
    rays = draw(st.lists(vectors, min_size=1, max_size=6, unique=True))
    key = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=dim, unique=True)
    return rays, draw(st.lists(key, min_size=1, max_size=5)), dim


VERDICT_ENDINGS = ("do not meet in a face", "are not all extreme", "is not a face of it")


def _fan_verdict(fan_type, rays, cones, dim):
    """The message of the ValidationError a fan check raises, or None."""
    try:
        fan_type(rays, cones, dim)
    except ValidationError as exc:
        return str(exc)
    return None


@LATTICE_SETTINGS
@given(fan_inputs())
def test_fan_check_equals_the_pairwise_intersections(case):
    assert _fan_verdict(Fan, *case) == _fan_verdict(PairwiseFan, *case)


def test_fan_inputs_reach_every_verdict_and_lineality():
    seen = set()

    @LATTICE_SETTINGS
    @given(fan_inputs())
    def collect(case):
        rays, cones, dim = case
        verdict = _fan_verdict(Fan, *case)
        kind = "fan" if verdict is None else next(
            k for k in VERDICT_ENDINGS if verdict.endswith(k))
        lineality = any(
            Cone([rays[i] for i in sorted(c)], dim).dual.lineality for c in cones
        )
        seen.add((kind, lineality))

    collect()
    assert {("fan", False), ("fan", True), ("do not meet in a face", False),
            ("do not meet in a face", True)} <= seen
    assert any(kind == "are not all extreme" for kind, _ in seen)
