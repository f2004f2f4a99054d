import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart import hrr
from tropehrhart.chains import (
    MultiValuedSupportFunction,
    invert_polytope,
    split_branches,
)
from tropehrhart.errors import (
    InterpolationFailureError,
    NotInSupportError,
    UnsupportedDimensionError,
    ValidationError,
)
from tropehrhart.hrr import hrr_verify, todd_coeffs, todd_lhs
from tropehrhart.lattice import (
    Fan,
    HPolyhedron,
    minkowski_sum,
    refine_by_hyperplanes,
    vertex_enumeration,
    volume,
)
from tropehrhart.linalg import dot
from tropehrhart.matroid import uniform_matroid
from tropehrhart.tropvb import validate

from conftest import (
    CHARACTER_FANS,
    FANS,
    MultiPoly,
    apply_todd,
    bernoulli,
    interpolate_I,
    interpolate_volume_polynomial,
    lattice_points,
    oracle_extension_forms,
    oracle_power_form,
    oracle_pulled_back,
    oracle_todd_lhs,
    oracle_todd_sum,
    oracle_volume_form,
    p1_power_fan,
    projective_fan,
    random_bundle,
    random_p1_bundle,
    rref_solve,
    solve_unique,
    volume_form,
    zonotope_support_numbers,
)

# asymmetric smooth fan (a Hirzebruch surface); the last case has negative
# Euler characteristic, so the associated chain is genuinely virtual
HIRZEBRUCH_FAN = Fan(
    [(1, 0), (0, 1), (-1, 2), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]]
)
HIRZEBRUCH_CASES = [
    ([(0,), (0,), (0,), (0,)], 1),
    ([(1,), (0,), (0,), (0,)], 2),
    ([(2,), (1,), (0,), (1,)], 9),
    ([(0,), (3,), (1,), (0,)], -4),
]


# ---------------------------------------------------------------------------
# Bernoulli numbers and Todd coefficients
# ---------------------------------------------------------------------------

def test_todd_coeffs_frozen_values():
    assert todd_coeffs(4) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    ]


def test_bernoulli_convention():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)


def test_todd_matches_bernoulli_recurrence():
    # independent route: T(t) = sum_k B_k t^k / k! with B_1 = +1/2, the
    # Bernoulli numbers read off their recurrence
    deg = 8
    assert todd_coeffs(deg) == [bernoulli(k) / factorial(k) for k in range(deg + 1)]


# ---------------------------------------------------------------------------
# the monomial oracle: the Todd operator on polynomials
# ---------------------------------------------------------------------------

def test_apply_todd_linear():
    assert apply_todd(MultiPoly(2, {(1, 0): 1, (0, 1): 1})) == 1


def test_apply_todd_affine():
    for d in range(6):
        p = MultiPoly(2, {(0, 0): d, (1, 0): 1, (0, 1): 1})
        assert apply_todd(p) == d + 1


def test_apply_todd_constant():
    assert apply_todd(MultiPoly(3, {(0, 0, 0): Fraction(7, 3)})) == Fraction(7, 3)


def test_multipoly_shift():
    p = MultiPoly(2, {(2, 0): 1, (1, 1): 2})
    q = compose_shift(p, (1, -1))
    for z in [(0, 0), (3, 2), (-1, 5)]:
        assert q.evaluate(z) == p.evaluate((z[0] + 1, z[1] - 1))


# ---------------------------------------------------------------------------
# the monomial oracle: the integral polynomial
# ---------------------------------------------------------------------------

def test_interpolate_trivial_bundle_on_p1(p1_fan):
    bundle = validate(p1_fan, uniform_matroid(1, 1), [(0,), (0,)])
    poly = interpolate_I(bundle)
    assert poly == MultiPoly(2, {(1, 0): 1, (0, 1): 1})


def test_interpolate_line_bundles_on_p1(p1_fan):
    for d in range(6):
        bundle = validate(p1_fan, uniform_matroid(1, 1), [(d,), (0,)])
        poly = interpolate_I(bundle)
        assert poly == MultiPoly(2, {(0, 0): d, (1, 0): 1, (0, 1): 1})


def test_interpolate_fano_polynomial(fano_bundle):
    poly = interpolate_I(fano_bundle)
    assert poly.total_degree == 2
    # value at zero is the integral of the chain: the two honest branch
    # polytopes contribute 9/2 and 12, the inverted branch -6
    assert poly.evaluate((0, 0, 0)) == Fraction(21, 2)


def test_top_degree_part_is_degree_times_volume_polynomial(fano_bundle, p1_fan,
                                                           u23_bundle):
    # the quadratic part of I(alpha[z]) is deg(alpha) times the volume
    # polynomial of P(z); the latter is the whole polynomial of the trivial
    # rank-one bundle (alpha = 1_{origin}, degree 1)
    p2_fan = fano_bundle.fan
    trivial = validate(p2_fan, uniform_matroid(1, 1), [(0,), (0,), (0,)])
    vol_poly = interpolate_I(trivial)
    for bundle, deg in ((fano_bundle, 3), (u23_bundle, 2), (trivial, 1)):
        poly = interpolate_I(bundle)
        top = {m: c for m, c in poly.coeffs.items() if sum(m) == 2}
        expected = {
            m: deg * c for m, c in vol_poly.coeffs.items() if sum(m) == 2
        }
        assert top == expected


# ---------------------------------------------------------------------------
# the Todd-of-powers route
# ---------------------------------------------------------------------------

def test_interpolation_dimension_cap():
    # fan refinement shares the cap of vertex enumeration, dimension 4: a
    # line bundle on P^5 has no branch to split and is still refused
    bundle = validate(projective_fan(5), uniform_matroid(1, 1), [(1,)] + [(0,)] * 5)
    with pytest.raises(UnsupportedDimensionError):
        hrr_verify(bundle)


def test_volume_polynomial_needs_complete_fan():
    # the upper half plane: consecutive rays (-1, 0), (1, 0) span no cone
    fan = Fan([(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    h = MultiValuedSupportFunction(
        fan, {key: ((0, 0),) for key in fan.maximal_keys}
    )
    with pytest.raises(ValidationError):
        todd_lhs(h)


def test_todd_counts_lattice_points_of_random_polygons(hexagon_fan):
    # Riemann-Roch for honest polygons: the Todd operator applied to the
    # volume polynomial returns the number of lattice points
    rng = random.Random(97)
    checked = 0
    while checked < 20:
        values = zonotope_support_numbers(hexagon_fan, rng, coeff_max=2)
        poly = vertex_enumeration(
            HPolyhedron(list(zip(hexagon_fan.rays, values)))
        )
        if poly.dim < 2:
            continue
        branches = {}
        for key in hexagon_fan.maximal_keys:
            idx = sorted(key)
            u = solve_unique(
                [hexagon_fan.rays[i] for i in idx], [values[i] for i in idx]
            )
            branches[key] = (tuple(u),)
        h = MultiValuedSupportFunction(hexagon_fan, branches)
        assert todd_lhs(h) == len(lattice_points(poly))
        checked += 1


# ---------------------------------------------------------------------------
# the volume form against the shoelace and against polytope volumes
# ---------------------------------------------------------------------------

def sort_rays_ccw(rays):
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def compare(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu - hv
        cr = u[0] * v[1] - u[1] * v[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(rays, key=cmp_to_key(compare))


def shoelace_form(fan):
    """The volume form of a fan of dimension <= 2, by the shoelace formula.

    In dimension one the length of the segment is h_+ + h_-.  In dimension
    two the vertex x_j of the cone spanned by consecutive counter-clockwise
    rays v_j, v_{j+1} solves <v_j, x> = h_j, <v_{j+1}, x> = h_{j+1}, so it is
    linear in h, and the area is (1/2) sum_j x_j x x_{j+1}.  Zero
    coefficients are dropped.
    """
    if fan.ambient_dim == 1:
        return {(0,): 1, (1,): 1}
    index = {r: j for j, r in enumerate(fan.rays)}
    ordered = [index[r] for r in sort_rays_ccw(fan.rays)]
    k = len(ordered)
    vertices = []  # x_j as ({ray index: coeff}, {ray index: coeff})
    for t in range(k):
        a, b = ordered[t], ordered[(t + 1) % k]
        (p, q), (r, s) = fan.rays[a], fan.rays[b]
        det = p * s - q * r
        vertices.append((
            {a: Fraction(s, det), b: Fraction(-q, det)},
            {a: Fraction(-r, det), b: Fraction(p, det)},
        ))
    form = {}
    for t in range(k):
        (x0, y0), (x1, y1) = vertices[t], vertices[(t + 1) % k]
        for left, right, sign in ((x0, y1, 1), (y0, x1, -1)):
            for i, ci in left.items():
                for j, cj in right.items():
                    key = (i, j) if i <= j else (j, i)
                    form[key] = form.get(key, 0) + sign * ci * cj / 2
    return {key: c for key, c in form.items() if c}


P1_CUBED_FAN = Fan(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
    [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)],
)
# the vertices of the simplex whose normal fan is FANS["P3"]
P3_SIMPLEX = [(1, 1, 1), (1, 1, -3), (1, -3, 1), (-3, 1, 1)]
P3_NORMALS = [(1, 2, 0), (0, 1, -2)]


def test_volume_form_equals_shoelace_on_named_fans():
    for name, fan in FANS.items():
        if fan.ambient_dim <= 2:
            assert volume_form(fan) == shoelace_form(fan), name


def test_volume_form_equals_shoelace_on_refined_fans():
    rng = random.Random(23)
    for name in ("P2", "P1xP1", "hexagon"):
        for r, m in ((2, 4), (3, 5)):
            for _ in range(3):
                bundle = random_bundle(FANS[name], uniform_matroid(r, m), rng)
                fan = split_branches(bundle.support_function())[0]
                assert volume_form(fan) == shoelace_form(fan)


def _cone_vertices_in_polytope(fan, h):
    """Does every maximal cone have a point x with <v, x> = h_v on its rays
    and <v, x> <= h_v on every ray of the fan?"""
    for key in fan.maximal_keys:
        idx = sorted(key)
        x = rref_solve([fan.rays[i] for i in idx], [h[i] for i in idx])
        if x is None or any(dot(v, x) > hv for v, hv in zip(fan.rays, h)):
            return False
    return True


def _random_values(fan, rng):
    return [rng.randint(-2, 3) for _ in fan.rays]


def _minkowski_values(fan, rng, simplex=P3_SIMPLEX, normals=P3_NORMALS):
    """Support numbers of a*simplex + sum_j b_j*[0, n_j] + shift, linear on
    every cone of the simplex's normal fan refined by the hyperplanes of
    normals (by default FANS["P3"] and P3_NORMALS)."""
    a = rng.randint(0, 2)
    b = [rng.randint(0, 2) for _ in normals]
    shift = [rng.randint(-2, 2) for _ in range(fan.ambient_dim)]
    return [
        a * max(dot(v, x) for x in simplex)
        + sum(bj * max(0, dot(n, v)) for bj, n in zip(b, normals))
        + dot(shift, v)
        for v in fan.rays
    ]


@pytest.mark.parametrize("name", ["P3", "P1^3", "refined P3"])
def test_volume_form_is_the_volume_of_polytopes_in_3d(name):
    if name == "refined P3":
        fan = refine_by_hyperplanes(FANS["P3"], P3_NORMALS)
        assert any(len(key) > 3 for key in fan.maximal_keys)
        draw = _minkowski_values
    else:
        fan = FANS["P3"] if name == "P3" else P1_CUBED_FAN
        draw = _random_values
    form = volume_form(fan)
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        h = draw(fan, rng)
        if not _cone_vertices_in_polytope(fan, h):
            assert draw is _random_values
            continue
        p = vertex_enumeration(HPolyhedron(list(zip(fan.rays, h))))
        value = sum(c * prod(h[i] for i in key) for key, c in form.items())
        assert value == volume(p)
        checked += 1


@pytest.mark.parametrize("name, r, m", [
    ("P3", 2, 4), ("P3", 3, 5), ("P1^3", 2, 4), ("P1^3", 3, 5),
])
def test_todd_equals_euler_characteristic_on_3d_bundles(name, r, m):
    fan = FANS["P3"] if name == "P3" else P1_CUBED_FAN
    rng = random.Random(41)
    for _ in range(3):
        bundle = random_bundle(fan, uniform_matroid(r, m), rng)
        assert hrr_verify(bundle)["equal"]


# the vertices of the simplex whose normal fan is projective_fan(4): the
# vertex (1, 1, 1, 1) and the four with one entry -4
P4_SIMPLEX = [(1, 1, 1, 1)] + [
    tuple(-4 if i == j else 1 for j in range(4)) for i in range(4)
]
P4_NORMALS = [(1, 2, 0, 0), (0, 1, -2, 1)]


@pytest.mark.parametrize("name", ["P4", "P1^4", "refined P4"])
def test_volume_form_is_the_volume_of_polytopes_in_4d(name):
    if name == "refined P4":
        fan = refine_by_hyperplanes(projective_fan(4), P4_NORMALS)
        assert any(len(key) > 4 for key in fan.maximal_keys)

        def draw(fan, rng):
            return _minkowski_values(fan, rng, P4_SIMPLEX, P4_NORMALS)
    else:
        fan = projective_fan(4) if name == "P4" else p1_power_fan(4)
        draw = _random_values
    form = volume_form(fan)
    rng = random.Random(37)
    checked = 0
    while checked < 12:
        h = draw(fan, rng)
        if not _cone_vertices_in_polytope(fan, h):
            assert draw is _random_values
            continue
        p = vertex_enumeration(HPolyhedron(list(zip(fan.rays, h))))
        value = sum(c * prod(h[i] for i in key) for key, c in form.items())
        assert value == volume(p)
        checked += 1


@pytest.mark.parametrize("name, r, m", [
    ("P4", 1, 1), ("P4", 2, 3), ("P4", 2, 4), ("P1^4", 1, 1), ("P1^4", 2, 3),
    ("P1^4", 2, 4),
])
def test_todd_equals_euler_characteristic_on_4d_bundles(name, r, m):
    fan = projective_fan(4) if name == "P4" else p1_power_fan(4)
    bundle = random_bundle(fan, uniform_matroid(r, m), random.Random(5))
    assert hrr_verify(bundle)["equal"]
    bundle.chain_alpha(verify=True)  # raises where chain and chi disagree


@pytest.mark.parametrize("name, total", [("P4", 582), ("P1^4", 138)])
def test_hrr_and_chain_verification_on_4d_u35_draws(name, total):
    # each maximal cone is cut by the differences of its own branches: the
    # (P^1)^4 draw refines to 15 rays, where cutting every cone by the
    # differences of all cones gave 1,278
    fan = projective_fan(4) if name == "P4" else p1_power_fan(4)
    bundle = random_bundle(fan, uniform_matroid(3, 5), random.Random(1))
    assert bundle.euler_char_total() == total
    assert hrr_verify(bundle) == {"lhs": total, "rhs": total, "equal": True}
    bundle.chain_alpha(verify=True)


def _guard_polynomial(h):
    """Degree-n part of I(alpha_h[z]) as the Todd-of-powers route has it:
    the number of branches times its power form, in exponent tuples."""
    fan = h.fan
    s = len(fan.rays)
    fan_r, branch_numbers = split_branches(h)
    cones = hrr._simplicial_cones(fan_r)
    lams = hrr._pulled_back(cones, hrr._extension_forms(fan, fan_r.rays))
    form, scale = hrr._power_form(cones, lams, fan.ambient_dim)
    poly = {}
    for key, c in form.items():
        mono = tuple(key.count(i) for i in range(s))
        poly[mono] = len(branch_numbers) * Fraction(c, scale)
    return MultiPoly(s, poly)


@pytest.mark.parametrize("name", ["P1", "P2", "P1xP1", "hexagon", "P3", "P1^3"])
def test_extension_forms_equal_the_solve_route(name):
    # coordinates of the refined rays over their smallest cones, in value
    # and type, against one rref_solve per ray and maximal cone
    fan = P1_CUBED_FAN if name == "P1^3" else FANS[name]
    rng = random.Random(47)
    for r, m in ((2, 3), (3, 5)):
        for _ in range(2):
            if name == "P1":
                bundle = random_p1_bundle(fan, uniform_matroid(r, m), rng)
            else:
                bundle = random_bundle(fan, uniform_matroid(r, m), rng)
            rays = split_branches(bundle.support_function())[0].rays
            got = hrr._extension_forms(fan, rays)
            want = oracle_extension_forms(fan, rays)
            assert [{i: (type(x), x) for i, x in form.items()} for form in got] == [
                {i: (type(x), x) for i, x in form.items()} for form in want
            ]


def test_extension_forms_refuse_a_ray_outside_the_fan():
    fan = Fan([(1, 0), (0, 1)], [[0, 1]])
    assert hrr._extension_forms(fan, [(1, 1), (0, 1)]) == [{0: 1, 1: 1}, {1: 1}]
    with pytest.raises(NotInSupportError):
        hrr._extension_forms(fan, [(-1, 0)])


@pytest.mark.parametrize("name", ["P1", "P2", "P1xP1", "hexagon", "P3"])
def test_todd_of_powers_matches_the_monomial_oracle(name):
    # the left side and the top-degree guard polynomial of the product
    # route against Todd of the monomial expansion of sum_i V(b_i + L z)
    fan = FANS[name]
    n = fan.ambient_dim
    rng = random.Random(43)
    draws = 2 if name == "P3" else 3
    for r, m in ((1, 1), (2, 3), (2, 4), (3, 5)):
        for _ in range(draws):
            if name == "P1":
                bundle = random_p1_bundle(fan, uniform_matroid(r, m), rng)
            else:
                bundle = random_bundle(fan, uniform_matroid(r, m), rng)
            h = bundle.support_function()
            poly = interpolate_volume_polynomial(h)
            assert todd_lhs(h) == apply_todd(poly)
            top = {mono: c for mono, c in poly.coeffs.items() if sum(mono) == n}
            assert _guard_polynomial(h) == MultiPoly(len(fan.rays), top)


# ---------------------------------------------------------------------------
# the Riemann-Roch identity for bundles
# ---------------------------------------------------------------------------

def test_hrr_line_bundles_on_p1(p1_fan):
    for d in range(6):
        bundle = validate(p1_fan, uniform_matroid(1, 1), [(d,), (0,)])
        result = hrr_verify(bundle)
        assert result["equal"] and result["lhs"] == d + 1


def test_hrr_u23_bundle(u23_bundle):
    result = hrr_verify(u23_bundle)
    assert result["equal"]
    assert result["lhs"] == 8


def test_hrr_fano(fano_bundle):
    result = hrr_verify(fano_bundle)
    assert result["equal"]
    assert result["lhs"] == 27


def test_hrr_random_bundles_on_p1xp1(p1xp1_fan):
    from conftest import random_split_bundle

    rng = random.Random(151)
    for _ in range(3):
        bundle = random_split_bundle(p1xp1_fan, uniform_matroid(2, 3), rng)
        result = hrr_verify(bundle)
        assert result["equal"]


def test_hrr_on_hirzebruch_fan():
    fan = HIRZEBRUCH_FAN
    assert fan.is_smooth() and fan.is_complete()
    for rows, chi in HIRZEBRUCH_CASES:
        bundle = validate(fan, uniform_matroid(1, 1), rows)
        assert bundle.euler_char_total() == chi
        result = hrr_verify(bundle)
        assert result["equal"] and result["lhs"] == chi


# ---------------------------------------------------------------------------
# the exact oracle: convexify, take honest Minkowski sums, interpolate
# ---------------------------------------------------------------------------
#
# Each branch plus the linear extension of a shifted z is convexified by a
# large multiple t*g of a strictly convex reference function g on a
# zonotopal refinement, so V(b + Lz) = vol(P(b + Lz + t*g) - P(t*g)) is a
# signed sum of volumes of genuine Minkowski sums.  The polynomial is fitted
# on the poised grid {z >= 0, sum z <= n} around a deep base point, checked
# on off-grid points, and recentered.

def compose_shift(p, delta):
    """The polynomial q with q(z) = p(z + delta)."""
    delta = tuple(Fraction(x) for x in delta)
    out = {}
    for mono, c in p.coeffs.items():
        expansions = [
            [(k, comb(e, k) * d ** (e - k)) for k in range(e + 1)]
            for e, d in zip(mono, delta)
        ]
        for picks in itertools.product(*expansions):
            new_mono = tuple(k for k, _ in picks)
            factor = c
            for _, f in picks:
                factor *= f
            out[new_mono] = out.get(new_mono, Fraction(0)) + factor
    return MultiPoly(p.num_vars, out)


def _walls(fan):
    """Convexity data per wall: (prev ray, next ray, a, b, wall ray).

    h is convex across the wall w iff h(prev) + a*h(next) >= b*h(w), where
    prev + a*next = b*w with a, b > 0; in dimension one the single wall is
    the origin and the condition reads h(r0) + h(r1) >= 0.
    """
    if fan.ambient_dim == 1:
        r0, r1 = fan.rays
        return [(r0, r1, Fraction(1), Fraction(0), None)]
    ordered = sort_rays_ccw(fan.rays)
    k = len(ordered)
    walls = []
    for i in range(k):
        prev, w, nxt = ordered[i - 1], ordered[i], ordered[(i + 1) % k]
        a, b = solve_unique(
            [(nxt[0], -w[0]), (nxt[1], -w[1])], (-prev[0], -prev[1])
        )
        assert a > 0 and b >= 0, f"degenerate wall data at ray {w}"
        walls.append((prev, nxt, a, b, w))
    return walls


def _wall_gaps(values, walls, ray_index):
    """h(prev) + a*h(next) - b*h(w) per wall: negative where h is not convex."""
    gaps = []
    for prev, nxt, a, b, w in walls:
        hw = values[ray_index[w]] if w is not None else Fraction(0)
        gaps.append(values[ray_index[prev]] + a * values[ray_index[nxt]] - b * hw)
    return gaps


def _honest_polytope(fan, values):
    """Polytope of convex support numbers, with attainment verified."""
    ineqs = [(fan.rays[i], values[i]) for i in range(len(fan.rays))]
    p = vertex_enumeration(HPolyhedron(ineqs, (), fan.ambient_dim))
    if p.is_empty():
        raise InterpolationFailureError("support numbers cut out no polytope")
    for i, r in enumerate(fan.rays):
        if max(dot(r, v) for v in p.vertices) != values[i]:
            raise InterpolationFailureError(
                f"support number on ray {r} is not attained"
            )
    return p


def _fitted_polynomial(h):
    fan = h.fan
    n = fan.ambient_dim
    s = len(fan.rays)
    fan_r, _ = split_branches(h)
    if n == 1:
        fan_z = fan_r
        gvals = [Fraction(1), Fraction(1)]
    else:
        # zonotopal refinement and a strictly convex reference function on it
        normals = {(-r[1], r[0]) for r in fan_r.rays}
        fan_z = refine_by_hyperplanes(fan_r, sorted(normals))
        normals = {g if g > (0, 0) else (-g[0], -g[1]) for g in normals}
        gvals = [
            Fraction(sum(max(0, dot(g, r)) for g in normals)) for r in fan_z.rays
        ]
    branch_vals = [
        [h.values_at(v)[i] for v in fan_z.rays] for i in range(h.rank)
    ]
    walls = _walls(fan_z)
    ray_index = {r: i for i, r in enumerate(fan_z.rays)}

    scale = max((abs(v) for vals in branch_vals for v in vals), default=0)
    base = (3 * (n + 1) * (int(scale) + 1),) * s
    grid = [
        z for z in itertools.product(range(n + 1), repeat=s) if sum(z) <= n
    ]
    rng = random.Random(20240 + s + n)
    extra = []
    while len(extra) < 5:
        z = tuple(rng.randint(n + 1, n + 6) for _ in range(s))
        if z not in extra:
            extra.append(z)

    def extend(zvec):
        """Values on fan_z rays of the piecewise linear extension of zvec."""
        out = []
        for v in fan_z.rays:
            key = next(
                k for k in fan.maximal_keys if fan.cone(k).contains(v)
            )
            idx = sorted(key)
            u = solve_unique([fan.rays[i] for i in idx], [zvec[i] for i in idx])
            out.append(dot(u, v))
        return out

    extensions = [
        extend([z[i] + base[i] for i in range(s)]) for z in grid + extra
    ]
    # one convexification factor covering every branch and every shift
    worst = max(
        [Fraction(0)]
        + [-g for vals in branch_vals + extensions
           for g in _wall_gaps(vals, walls, ray_index)]
    )
    surplus = min(_wall_gaps(gvals, walls, ray_index))
    assert surplus > 0, "reference function is not strictly convex"
    tg = [2 * (ceil(worst / surplus) + 1) * g for g in gvals]
    inv_chain = invert_polytope(_honest_polytope(fan_z, tg))

    def evaluate_at(ext):
        total = Fraction(0)
        for vals in branch_vals:
            big = _honest_polytope(
                fan_z, [vals[i] + ext[i] + tg[i] for i in range(len(tg))]
            )
            for coef, piece in inv_chain.terms:
                total += coef * volume(minkowski_sum(big, piece))
        return total

    monos = sorted(grid, key=lambda m: (sum(m), m))
    rows = [
        [MultiPoly(s, {m: 1}).evaluate(z) for m in monos] for z in grid
    ]
    values = [evaluate_at(ext) for ext in extensions[: len(grid)]]
    p_shifted = MultiPoly(s, dict(zip(monos, solve_unique(rows, values))))
    for z, ext in zip(extra, extensions[len(grid):]):
        assert p_shifted.evaluate(z) == evaluate_at(ext), f"off-grid {z}"
    return compose_shift(p_shifted, [-c for c in base])


def _assert_matches_oracle(bundle):
    h = bundle.support_function()
    fitted = _fitted_polynomial(h)
    assert interpolate_volume_polynomial(h) == fitted
    assert todd_lhs(h) == apply_todd(fitted)


def test_honest_polytope_guard(hexagon_fan):
    # non-convex support numbers must be caught by the attainment check
    values = [0, 0, 0, 2, 2, 2]
    ordered = dict(zip([(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)], values))
    with pytest.raises(InterpolationFailureError):
        _honest_polytope(
            hexagon_fan, [ordered[r] for r in hexagon_fan.rays]
        )


def test_closed_form_matches_oracle_on_p1(p1_fan):
    for d in range(4):
        _assert_matches_oracle(validate(p1_fan, uniform_matroid(1, 1), [(d,), (0,)]))
    rng = random.Random(5)
    for matroid in (uniform_matroid(2, 3), uniform_matroid(2, 4)):
        _assert_matches_oracle(random_p1_bundle(p1_fan, matroid, rng))


def test_closed_form_matches_oracle_on_named_bundles(fano_bundle, u23_bundle):
    _assert_matches_oracle(fano_bundle)
    _assert_matches_oracle(u23_bundle)


def test_closed_form_matches_oracle_on_hirzebruch_fan():
    for rows, _ in HIRZEBRUCH_CASES:
        _assert_matches_oracle(
            validate(HIRZEBRUCH_FAN, uniform_matroid(1, 1), rows)
        )


# the oracle's cost grows quickly with the refined fan (a hexagon U(3,5)
# draw refined to 10 rays takes about 8 s), so each seed draws a bundle whose
# branches do split the fan but only into a few extra rays
@pytest.mark.parametrize("fan_name, r, m, seed", [
    ("p2_fan", 2, 4, 8),
    ("p2_fan", 3, 5, 3),
    ("p1xp1_fan", 2, 4, 1),
    ("p1xp1_fan", 3, 5, 14),
    ("hexagon_fan", 2, 4, 1),
    ("hexagon_fan", 3, 5, 51),
])
def test_closed_form_matches_oracle_on_random_bundles(request, fan_name, r, m,
                                                      seed):
    fan = request.getfixturevalue(fan_name)
    bundle = random_bundle(fan, uniform_matroid(r, m), random.Random(seed))
    assert len(split_branches(bundle.support_function())[0].rays) > len(fan.rays)
    _assert_matches_oracle(bundle)


def test_top_degree_guard(fano_bundle, monkeypatch):
    h = fano_bundle.support_function()
    real = hrr._extension_forms

    def skewed(fan, rays):
        # values of z on the rays of the refined fan, one coefficient off
        forms = real(fan, rays)
        forms[0] = {i: 2 * c for i, c in forms[0].items()}
        return forms

    monkeypatch.setattr(hrr, "_extension_forms", skewed)
    with pytest.raises(InterpolationFailureError):
        todd_lhs(h)
    with pytest.raises(InterpolationFailureError):
        oracle_todd_lhs(h)


@pytest.mark.parametrize("name", ["fano", "P3", "weighted"])
def test_top_degree_guard_refuses_a_scalar_multiple(fano_bundle, monkeypatch, name):
    # every extension form doubled doubles every lambda_s, so the power form
    # is 2^n times the volume form: the two integer forms are equal once
    # each is divided by the gcd of its own coefficients, and are refused
    # by cross-multiplication
    if name == "fano":
        h = fano_bundle.support_function()
    elif name == "P3":
        bundle = random_bundle(FANS[name], uniform_matroid(2, 4), random.Random(3))
        h = bundle.support_function()
    else:
        h = _branchwise(FANS[name], [[0, 1, Fraction(1, 2), 0],
                                     [Fraction(-2, 3), 0, 1, 2]])
    assert todd_lhs(h) == oracle_todd_lhs(h)
    real = hrr._extension_forms

    def doubled(fan, rays):
        return [{i: 2 * c for i, c in form.items()} for form in real(fan, rays)]

    monkeypatch.setattr(hrr, "_extension_forms", doubled)
    with pytest.raises(InterpolationFailureError):
        todd_lhs(h)
    with pytest.raises(InterpolationFailureError):
        oracle_todd_lhs(h)


def test_same_form_cross_multiplies():
    a = {(0, 0): 2, (0, 1): -4}
    assert hrr._same_form(a, 6, {(0, 0): 1, (0, 1): -2}, 3)
    assert not hrr._same_form(a, 6, {(0, 0): 1, (0, 1): -2}, 6)
    assert not hrr._same_form(a, 6, {(0, 0): 1}, 3)
    assert not hrr._same_form(a, 6, {(0, 0): 1, (0, 1): -2, (1, 1): 1}, 3)


# ---------------------------------------------------------------------------
# the integer route of the left side and the guard against the Fraction one
# ---------------------------------------------------------------------------

# simplicial complete fans of dimension 1 to 4; "weighted" and "P(1,1,2)"
# each have a cone of determinant 2, so the extension forms of refined rays
# inside it have rational coordinates
PROPERTY_FANS = {
    **{name: FANS[name]
       for name in ("P1", "P2", "P1xP1", "hexagon", "weighted", "P3")},
    "P(1,1,2)": CHARACTER_FANS["P(1,1,2)"],
    "P1^3": P1_CUBED_FAN,
    "P4": projective_fan(4),
}


def _branchwise(fan, rows):
    """The support function whose branches on each cone of a simplicial fan
    are the linear functions with the values rows[i] on its rays."""
    branches = {}
    for key in fan.maximal_keys:
        idx = sorted(key)
        branches[key] = tuple(
            tuple(solve_unique([fan.rays[i] for i in idx], [row[i] for i in idx]))
            for row in rows
        )
    return MultiValuedSupportFunction(fan, branches)


@st.composite
def rational_support_functions(draw, fan):
    """A multi-valued support function on fan from r piecewise linear
    functions.

    Each is given by its values on the rays, with denominators 1, 2 or 3,
    and is linear on every cone; the branches of a cone are the r linear
    functions there, so the branch sets differ from cone to cone and agree
    on shared faces as multisets.
    """
    rank = draw(st.integers(1, 3 if fan.ambient_dim <= 2 else 2))
    value = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    rows = [[draw(value) for _ in fan.rays] for _ in range(rank)]
    return _branchwise(fan, rows)


def _perturbed(forms, how):
    """The extension forms as drawn ("none"), all scaled, or one coefficient
    of one form skewed."""
    if how == "none":
        return forms
    if how == "skew":
        forms = list(forms)
        forms[-1] = {i: c + 1 for i, c in forms[-1].items()}
        return forms
    return [{i: how * c for i, c in form.items()} for form in forms]


@pytest.mark.parametrize("name", sorted(PROPERTY_FANS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), how=st.sampled_from(
    ["none", "none", "skew", 2, -1, Fraction(1, 2), Fraction(2, 3)]
))
def test_integer_left_side_and_guard_equal_the_fraction_oracle(name, data, how):
    fan = PROPERTY_FANS[name]
    h = data.draw(rational_support_functions(fan))
    n = fan.ambient_dim
    fan_r, branch_numbers = split_branches(h)
    values = [sn.values for sn in branch_numbers]
    cones = hrr._simplicial_cones(fan_r)
    lin = _perturbed(hrr._extension_forms(fan, fan_r.rays), how)
    lams = hrr._pulled_back(cones, lin)
    oracle_lams = oracle_pulled_back(cones, lin)

    got = hrr._todd_sum(cones, lams, values, n)
    assert type(got) is Fraction
    assert got == oracle_todd_sum(cones, oracle_lams, values, n)
    form, m = hrr._power_form(cones, lams, n)
    assert all(type(c) is int for c in form.values())
    want = oracle_power_form(cones, oracle_lams)
    assert {key: Fraction(c, m) for key, c in form.items()} == want
    volume, mv = hrr._fan_power_form(fan)
    want_volume = oracle_volume_form(fan)
    assert {key: Fraction(c, mv) for key, c in volume.items()} == want_volume
    assert volume_form(fan) == want_volume
    assert hrr._same_form(form, m, volume, mv) == (want == want_volume)
    if how == "none":
        assert want == want_volume
        assert todd_lhs(h) == oracle_todd_lhs(h) == got


def _distinct_cone_denominators(h):
    """The distinct D_s L_T^|lambda_s| q_s^n over the simplicial cones s of
    the refined fan, with the Fraction route's lambda_s and L_T the lcm of
    the denominators of the Todd series; n! and the lcm of the value
    denominators are the same for every cone."""
    fan = h.fan
    n = fan.ambient_dim
    fan_r, _ = split_branches(h)
    cones = hrr._simplicial_cones(fan_r)
    lams = oracle_pulled_back(cones, hrr._extension_forms(fan, fan_r.rays))
    big = math.lcm(*(t.denominator for t in todd_coeffs(n)))
    return len(cones), {
        d * big ** len(lam) * math.lcm(*(x.denominator for x in lam.values())) ** n
        for (_, _, d), lam in zip(cones, lams)
    }


@pytest.mark.parametrize("name", ["fano", "refined hexagon"])
def test_todd_lhs_makes_one_fraction_per_denominator(fano_bundle, hexagon_fan,
                                                     monkeypatch, name):
    if name == "fano":
        bundle = fano_bundle
    else:
        # a draw whose refined cones share denominators: 15 cones, 13
        # distinct denominators
        bundle = random_bundle(hexagon_fan, uniform_matroid(3, 5), random.Random(484))
    h = bundle.support_function()
    num_cones, denominators = _distinct_cone_denominators(h)
    real = hrr.Fraction
    made = []

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(hrr, "Fraction", counting)
    hrr._todd_series.cache_clear()
    hrr.todd_coeffs(h.fan.ambient_dim)
    series = len(made)  # the Todd series itself, made once per dimension
    made.clear()
    hrr._todd_series.cache_clear()
    assert todd_lhs(h) == bundle.euler_char_total()
    # one per distinct denominator, one zero to start the sum, the series
    assert len(made) <= len(denominators) + 1 + series
    if name != "fano":
        assert len(denominators) + 1 + series < num_cones
