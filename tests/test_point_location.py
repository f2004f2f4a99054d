"""One point location: `Cone._face_of` answers every point-in-cone question
and `min_containing_cone` every point-in-fan question.

Each route built on them is compared for exact equality with the route it
replaced, kept in conftest as an oracle, on every named fan, the fans of the
3- and 4-cube, incomplete copies of them and a fan over a half-plane, whose
cone has lineality.  Points lie on rays, on faces, in the interiors of
maximal cones and outside the support.  A point of the wrong length is
refused with ValidationError by every route.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.chains import MultiValuedSupportFunction
from tropehrhart.errors import NotInSupportError, ValidationError
from tropehrhart.lattice import (
    Cone,
    Fan,
    HPolyhedron,
    VPolytope,
    is_refinement,
    min_containing_cone,
    refine_by_hyperplanes,
    stellar_subdivision,
)
from tropehrhart.linalg import dot, primitive

from conftest import (
    CHARACTER_FANS,
    CUBE4_FAN,
    FANS,
    contains_stellar_subdivision,
    dual_ray_contains,
    nested_contains_refinement,
    scan_values_at,
)

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

HALF_PLANE_RAYS = [(1, 0), (-1, 0), (0, 1)]
# the closed upper half-plane as one cone, which holds the line of the
# first axis: the fan check refuses a cone that is not pointed, but a fan
# given the cone takes it as it is
HALF_PLANE_FAN = Fan(HALF_PLANE_RAYS, [[0, 1, 2]], 2, cones={
    frozenset(range(3)): Cone(HALF_PLANE_RAYS, 2),
})
LOCATION_FANS = {**FANS, **CHARACTER_FANS, "cube4": CUBE4_FAN}
_DROPPED = {}


def _dropped(name, i):
    """The named fan without its i-th maximal cone: an incomplete fan."""
    if (name, i) not in _DROPPED:
        fan = LOCATION_FANS[name]
        keys = [k for j, k in enumerate(fan.maximal_keys) if j != i]
        _DROPPED[name, i] = Fan(fan.rays, keys, fan.ambient_dim)
    return _DROPPED[name, i]


@st.composite
def location_fans(draw, lineality=True, dim=None):
    """A fan of LOCATION_FANS, an incomplete copy without one maximal
    cone, or (with `lineality`) the half-plane fan; of dimension `dim`
    when given."""
    names = sorted(n for n, f in LOCATION_FANS.items() if dim in (None, f.ambient_dim))
    if lineality and dim in (None, 2):
        names.append("half-plane")
    name = draw(st.sampled_from(names))
    if name == "half-plane":
        return HALF_PLANE_FAN
    fan = LOCATION_FANS[name]
    if draw(st.booleans()):
        return _dropped(name, draw(st.integers(0, len(fan.maximal_keys) - 1)))
    return fan


@st.composite
def points_of(draw, rays, keys, dim):
    """A point on a ray, in the relative interior of a cone (a face or a
    maximal cone) over `keys`, its negative, or any small point."""
    if keys and draw(st.booleans()):
        key = sorted(draw(st.sampled_from(keys)))
        coeffs = draw(st.lists(st.integers(1, 3), min_size=len(key), max_size=len(key)))
        sign = draw(st.sampled_from((1, -1)))
        return tuple(sign * sum(c * rays[i][j] for c, i in zip(coeffs, key))
                     for j in range(dim))
    return draw(st.tuples(*[st.integers(-4, 4)] * dim))


@st.composite
def fan_points(draw, lineality=True):
    """A fan of `location_fans` and a point of `points_of` its cones."""
    fan = draw(location_fans(lineality))
    return fan, draw(points_of(fan.rays, fan.cone_keys, fan.ambient_dim))


@st.composite
def cone_points(draw):
    """A cone on up to five rays with up to two lineality vectors in
    dimension 1 to 4, or its dual, and a point of `points_of` one, half or
    all of its generators.  Many cones have a ray that is not extreme or
    are not pointed."""
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * d).filter(any)
    rays = list(dict.fromkeys(primitive(r) for r in draw(st.lists(vector, max_size=5))))
    cone = Cone(rays, d, lineality=draw(st.lists(vector, max_size=2)))
    if draw(st.booleans()):
        cone = cone.dual
    gens = cone.generators
    keys = [frozenset(range(len(gens))), frozenset(range(len(gens) // 2)),
            *(frozenset([i]) for i in range(len(gens)))]
    return cone, draw(points_of(gens, keys, d))


def _outcome(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except (NotInSupportError, ValidationError) as exc:
        return type(exc)


def _fan_key(out):
    """The rays and maximal keys of a fan; any other outcome as it is."""
    if isinstance(out, Fan):
        return out.rays, sorted(map(sorted, out.maximal_keys))
    return out


# ---------------------------------------------------------------------------
# each route against the route it replaced
# ---------------------------------------------------------------------------

@PROPERTY_SETTINGS
@given(cone_points())
def test_contains_equals_the_dual_ray_test(case):
    cone, x = case
    assert cone.contains(x) == dual_ray_contains(cone, x)


@PROPERTY_SETTINGS
@given(fan_points())
def test_fan_cone_contains_equals_the_dual_ray_test(case):
    fan, x = case
    for key in fan.cone_keys:
        assert fan.cone(key).contains(x) == dual_ray_contains(fan.cone(key), x)


@PROPERTY_SETTINGS
@given(fan_points())
def test_stellar_subdivision_equals_the_facet_cone_route(case):
    fan, v = case
    got = _outcome(stellar_subdivision, fan, v)
    want = _outcome(contains_stellar_subdivision, fan, v)
    assert _fan_key(got) == _fan_key(want)
    assert (got is fan) == (want is fan)


@st.composite
def refinement_pairs(draw):
    """(fan, other): other refines fan by hyperplanes or by a stellar
    subdivision, or is another fan of the same dimension."""
    fan = draw(location_fans())
    d = fan.ambient_dim
    how = draw(st.sampled_from(["hyperplanes", "stellar", "other"]))
    if how == "hyperplanes":
        normals = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=2))
        return fan, refine_by_hyperplanes(fan, normals)
    if how == "stellar":
        v = draw(points_of(fan.rays, fan.cone_keys, d).filter(any))
        sub = _outcome(stellar_subdivision, fan, v)
        return fan, sub if isinstance(sub, Fan) else fan
    return fan, draw(location_fans(dim=d))


@PROPERTY_SETTINGS
@given(refinement_pairs())
def test_is_refinement_equals_nested_contains_both_ways(pair):
    fan, other = pair
    assert is_refinement(other, fan) == nested_contains_refinement(other, fan)
    assert is_refinement(fan, other) == nested_contains_refinement(fan, other)


def test_refinement_pairs_reach_both_verdicts():
    seen = set()

    @PROPERTY_SETTINGS
    @given(refinement_pairs())
    def collect(pair):
        fan, other = pair
        seen.add((is_refinement(other, fan), is_refinement(fan, other)))

    collect()
    assert {(True, True), (True, False), (False, False)} <= seen


def _support_function(fan, draw):
    """Branches from ray values <g, v> + c max_i |v_i|, one (g, c) per
    branch: linear on every simplicial cone, and on every cone of the cube
    fans, whose rays all have max_i |v_i| = 1."""
    d = fan.ambient_dim
    rank = draw(st.integers(1, 3))
    forms = [(draw(st.tuples(*[st.integers(-2, 2)] * d)), draw(st.integers(-2, 2)))
             for _ in range(rank)]
    branches = {}
    for key in fan.maximal_keys:
        rays = [fan.rays[i] for i in sorted(key)]
        us = [fan.solve_on(key, [dot(g, r) + c * max(map(abs, r)) for r in rays])
              for g, c in forms]
        assert None not in us
        branches[key] = us
    return MultiValuedSupportFunction(fan, branches)


@PROPERTY_SETTINGS
@given(st.data())
def test_values_at_equals_the_maximal_cone_scan(data):
    fan, x = data.draw(fan_points(lineality=False))
    h = _support_function(fan, data.draw)
    assert _outcome(h.values_at, x) == _outcome(scan_values_at, h, x)


def test_stellar_subdivision_outside_the_support_names_the_point():
    quadrant = Fan([(1, 0), (0, 1)], [[0, 1]], 2)
    with pytest.raises(NotInSupportError) as info:
        stellar_subdivision(quadrant, (-2, 2))
    assert str(info.value) == "point (-1, 1) is outside the fan support"


# ---------------------------------------------------------------------------
# a point of the wrong length is refused
# ---------------------------------------------------------------------------

def test_point_location_refuses_a_wrong_length_point(p2_fan):
    h = MultiValuedSupportFunction(
        p2_fan, {k: [(0, 0)] for k in p2_fan.maximal_keys}
    )
    for x in ((1, 0, 5), (1,), ()):
        with pytest.raises(ValidationError, match="coordinates, expected 2"):
            p2_fan.cone({0, 1}).contains(x)
        with pytest.raises(ValidationError, match="coordinates, expected 2"):
            min_containing_cone(p2_fan, x)
        with pytest.raises(ValidationError, match="coordinates, expected 2"):
            h.values_at(x)
    # a cone with lineality takes the same test
    with pytest.raises(ValidationError, match="coordinates, expected 2"):
        HALF_PLANE_FAN.cone({0, 1, 2}).contains((0, 1, 0))
    with pytest.raises(ValidationError, match="coordinates, expected 2"):
        stellar_subdivision(p2_fan, (1, 1, 1))
    # a fan without cones has no cone to test the point against
    empty = Fan([], [], 2)
    with pytest.raises(NotInSupportError):
        min_containing_cone(empty, (1, 2))
    with pytest.raises(ValidationError, match="coordinates, expected 2"):
        min_containing_cone(empty, (1, 2, 3))


def test_fan_coordinates_and_solve_on_refuse_a_wrong_length_vector(p2_fan):
    # (1, 0, 5) used to read as (1, 0) and (1,) to raise IndexError
    assert p2_fan.coordinates({0, 1}, (1, 0)) == (1, 0)
    for x in ((1, 0, 5), (1,)):
        with pytest.raises(ValidationError, match="coordinates, expected 2"):
            p2_fan.coordinates({0, 1}, x)
    # one value for a cone of two rays used to raise IndexError
    assert p2_fan.solve_on({0, 1}, [1, 2]) == (1, 2)
    for values in ([1], [1, 2, 3]):
        with pytest.raises(ValidationError, match="values for a cone of 2 rays"):
            p2_fan.solve_on({0, 1}, values)


def test_polytope_and_polyhedron_contains_refuse_a_wrong_length_point():
    # both used to answer True
    triangle = VPolytope([(0, 0), (1, 0), (0, 1)])
    halfplane = HPolyhedron([((1, 0), 1)])
    assert triangle.contains((0, 0)) and halfplane.contains((0, 0))
    assert triangle.contains((Fraction(1, 2), Fraction(1, 2)))
    for y in ((0, 0, 9), (0,)):
        with pytest.raises(ValidationError, match="coordinates, expected 2"):
            triangle.contains(y)
        with pytest.raises(ValidationError, match="coordinates, expected 2"):
            halfplane.contains(y)
