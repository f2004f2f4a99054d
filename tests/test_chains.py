import random
from fractions import Fraction

import numpy as np
import pytest

from tropehrhart.chains import (
    ConvexChain,
    _piece_key,
    MultiValuedSupportFunction,
    SupportNumbers,
    brianchon_gram,
    convolve,
    degree,
    evaluate,
    integral,
    invert_polytope,
    lattice_sum,
    split_branches,
    support_function_chain,
)
from tropehrhart.errors import (
    BoxTooSmallError,
    InvalidSupportFunctionError,
    NotInSupportError,
    NotPiecewiseLinearError,
    UnsupportedOperandError,
    ValidationError,
)
from tropehrhart.lattice import (
    Fan,
    HPolyhedron,
    VPolytope,
    min_containing_cone,
    refine_by_hyperplanes,
)
from tropehrhart.linalg import dot
from tropehrhart.matroid import uniform_matroid

from conftest import (
    CUBE4_FAN,
    FANS,
    chain_box,
    grid_points,
    point_chain,
    random_bundle,
    random_lattice_polytope,
    zonotope_support_numbers,
)


def one(piece):
    return ConvexChain([(1, piece)])


UNIT_SQUARE = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SEGMENT = VPolytope([(0,), (1,)])


# ---------------------------------------------------------------------------
# evaluation and degree
# ---------------------------------------------------------------------------

def test_evaluate_square_center():
    assert evaluate(one(UNIT_SQUARE), (Fraction(1, 2), Fraction(1, 2))) == 1


def test_evaluate_cancellation():
    chain = one(UNIT_SQUARE) - one(UNIT_SQUARE)
    assert len(chain) == 0
    assert evaluate(chain, (0, 0)) == 0


def test_chain_merges_equal_pieces_in_first_order_keeping_the_last():
    square = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    same = VPolytope([(1, 1), (0, 1), (1, 0), (0, 0)])
    point = VPolytope([(5, 5)])
    assert _piece_key(square) == _piece_key(same) and square is not same
    chain = ConvexChain([(2, square), (1, point), (-1, same), (0, point)])
    assert [c for c, _ in chain.terms] == [1, 1]
    assert chain.terms[0][1] is same and chain.terms[1][1] is point
    assert len(ConvexChain([(1, square), (-1, same), (3, point)])) == 1


@pytest.mark.parametrize("u", [(5,), (-1, 0, 7)])
def test_evaluate_refuses_points_of_the_wrong_length(u):
    halfplane = one(HPolyhedron([((1, 0), 0)]))  # x <= 0
    assert halfplane.evaluate((-1, 0)) == 1
    with pytest.raises(ValidationError, match="coordinates"):
        halfplane.evaluate(u)
    with pytest.raises(ValidationError, match="coordinates"):
        one(UNIT_SQUARE).evaluate(u)


def test_chain_refuses_pieces_of_different_dimensions():
    # a segment and a triangle: `integral` would add a length to an area
    segment = VPolytope([(0,), (2,)])
    triangle = VPolytope([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValidationError, match="differ in dimension"):
        ConvexChain([(1, segment), (1, triangle)])
    with pytest.raises(ValidationError, match="differ in dimension"):
        one(segment) + one(triangle)
    assert ConvexChain([(1, triangle)]).ambient_dim == 2
    assert ConvexChain().ambient_dim is None


def test_chain_refuses_a_coefficient_that_is_not_an_integer():
    # these used to be truncated: 1/2 to no term, 1.7 to 1, a half to zero
    for coeff in (Fraction(1, 2), 1.7, Fraction(4, 2), 2.0):
        with pytest.raises(ValidationError, match="is not an integer"):
            ConvexChain([(coeff, UNIT_SQUARE)])
    with pytest.raises(ValidationError, match="chain coefficient 0.5 "):
        one(UNIT_SQUARE).scale(0.5)
    chain = ConvexChain([(np.int64(3), UNIT_SQUARE), (True, VPolytope([(5, 5)]))])
    assert [(type(c), c) for c, _ in chain.terms] == [(int, 3), (int, 1)]
    assert one(UNIT_SQUARE).scale(-2).evaluate((0, 0)) == -2


def test_degree():
    assert degree(one(UNIT_SQUARE)) == 1
    assert degree(invert_polytope(SEGMENT)) == 1
    assert degree(ConvexChain()) == 0
    halfline = HPolyhedron([((1,), 0)])
    nothing = HPolyhedron([((1,), 0), ((-1,), -1)])
    assert degree(ConvexChain([(2, halfline), (5, nothing), (3, SEGMENT)])) == 5


# ---------------------------------------------------------------------------
# convolution and inversion
# ---------------------------------------------------------------------------

def test_convolution_identity():
    chain = one(UNIT_SQUARE)
    out = convolve(chain, point_chain((0, 0)))
    assert out.terms == chain.terms


def test_convolution_of_segments():
    out = convolve(one(SEGMENT), one(SEGMENT))
    ((c, piece),) = out.terms
    assert c == 1
    assert piece.vertices == ((Fraction(0),), (Fraction(2),))


def test_convolution_rejects_unbounded():
    halfline = HPolyhedron([((-1,), 0)])
    with pytest.raises(UnsupportedOperandError):
        convolve(ConvexChain([(1, halfline)]), one(SEGMENT))


def test_invert_interval_terms():
    inv = invert_polytope(SEGMENT)
    got = sorted((c, p.vertices) for c, p in inv.terms)
    assert got == [
        (-1, ((Fraction(-1),), (Fraction(0),))),
        (1, ((Fraction(-1),),)),
        (1, ((Fraction(0),),)),
    ]
    # the closed-face inverse has lattice sum 0: the underlying function is
    # minus the indicator of the open interval (-1, 0)
    assert lattice_sum(inv, ((-3,), (3,))) == 0


def test_point_inverse_is_point():
    inv = invert_polytope(VPolytope([(0, 0)]))
    assert inv.terms == point_chain((0, 0)).terms


def test_inversion_convolution_gives_origin():
    rng = random.Random(41)
    for dim in (1, 2, 3):
        for _ in range(4):
            p = random_lattice_polytope(rng, dim, spread=1, npoints=4)
            conv = convolve(one(p), invert_polytope(p))
            for u in grid_points(dim, 3):
                assert conv.evaluate(u) == (1 if all(x == 0 for x in u) else 0)


# ---------------------------------------------------------------------------
# Brianchon-Gram expansions
# ---------------------------------------------------------------------------

def test_brianchon_gram_p2_triangle(p2_fan):
    chain = brianchon_gram(SupportNumbers(p2_fan, (1, 1, 1)))
    triangle = VPolytope([(-2, 1), (1, 1), (1, -2)])
    count = 0
    for u in grid_points(2, 4):
        val = chain.evaluate(u)
        assert val == (1 if triangle.contains(u) else 0)
        count += val
    assert count == 10


def test_brianchon_gram_zero_function(p2_fan):
    chain = brianchon_gram(SupportNumbers(p2_fan, (0, 0, 0)))
    for u in grid_points(2, 2):
        assert chain.evaluate(u) == (1 if u == (0, 0) else 0)


def test_brianchon_gram_fano_virtual_branch(hexagon_fan):
    # the non-convex first branch of the Fano bundle: lattice sum -2
    values = {
        (1, 0): 0, (0, 1): 0, (-1, -1): 0,
        (1, 1): 2, (-1, 0): 2, (0, -1): 2,
    }
    sn = SupportNumbers(hexagon_fan, [values[r] for r in hexagon_fan.rays])
    chain = brianchon_gram(sn)
    assert lattice_sum(chain, ((-6, -6), (6, 6))) == -2


def test_fano_virtual_branch_by_minkowski_inversion(hexagon_fan):
    # same branch written as an honest polytope convolved with an inverse:
    # numbers (0,0,0,2,2,2) = (2,2,2,4,4,4) - (2,2,2,2,2,2)
    from tropehrhart.lattice import vertex_enumeration

    plus = {(1, 0): 2, (0, 1): 2, (-1, -1): 2, (1, 1): 4, (-1, 0): 4, (0, -1): 4}
    minus = {r: 2 for r in hexagon_fan.rays}
    a = vertex_enumeration(
        HPolyhedron([(r, plus[r]) for r in hexagon_fan.rays])
    )
    b = vertex_enumeration(
        HPolyhedron([(r, minus[r]) for r in hexagon_fan.rays])
    )
    chain = convolve(one(a), invert_polytope(b))
    assert lattice_sum(chain, ((-8, -8), (8, 8))) == -2
    # and it agrees pointwise with the tangent-cone expansion
    values = {**{r: 0 for r in hexagon_fan.rays[:3]},
              **{r: 2 for r in hexagon_fan.rays[3:]}}
    bg = brianchon_gram(
        SupportNumbers(hexagon_fan, [values[r] for r in hexagon_fan.rays])
    )
    for u in grid_points(2, 5):
        assert chain.evaluate(u) == bg.evaluate(u)


def test_brianchon_gram_convex_randoms(hexagon_fan):
    rng = random.Random(7)
    from tropehrhart.lattice import vertex_enumeration

    for _ in range(10):
        values = zonotope_support_numbers(hexagon_fan, rng)
        sn = SupportNumbers(hexagon_fan, values)
        chain = brianchon_gram(sn)
        poly = vertex_enumeration(
            HPolyhedron(list(zip(hexagon_fan.rays, values)))
        )
        for u in grid_points(2, 6):
            assert chain.evaluate(u) == (1 if poly.contains(u) else 0)


def test_brianchon_gram_nonlinear_values_rejected():
    # face fan of the cube: square cones force a linearity check
    rays = list(__import__("itertools").product((-1, 1), repeat=3))
    cone_sets = []
    for axis in range(3):
        for sign in (-1, 1):
            cone_sets.append(
                [i for i, r in enumerate(rays) if r[axis] == sign]
            )
    cube_fan = Fan(rays, cone_sets, 3)
    linear = SupportNumbers(cube_fan, [r[0] + 2 * r[1] + 3 * r[2] for r in rays])
    chain = brianchon_gram(linear)
    assert chain.evaluate((1, 2, 3)) == 1
    assert chain.evaluate((1, 2, 4)) == 0
    values = [0] * 8
    values[0] = 1
    with pytest.raises(NotPiecewiseLinearError):
        brianchon_gram(SupportNumbers(cube_fan, values))
    # on the 4-d cube fan the first non-linear cones are the 3-d ones
    values = [0] * len(CUBE4_FAN.rays)
    values[0] = 1
    with pytest.raises(NotPiecewiseLinearError, match="extend linearly"):
        brianchon_gram(SupportNumbers(CUBE4_FAN, values))


# ---------------------------------------------------------------------------
# sums and integrals
# ---------------------------------------------------------------------------

def test_lattice_sum_segment():
    seg = VPolytope([(0,), (4,)])
    assert lattice_sum(one(seg), chain_box(one(seg))) == 5


def test_lattice_sum_margin_check():
    with pytest.raises(BoxTooSmallError):
        lattice_sum(one(SEGMENT), ((0,), (4,)))


def test_integral_examples():
    assert integral(one(UNIT_SQUARE)) == 1
    assert integral(invert_polytope(UNIT_SQUARE)) == 1
    assert integral(one(UNIT_SQUARE) - one(UNIT_SQUARE)) == 0


def test_lattice_sum_additive_degree_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        a = one(random_lattice_polytope(rng, 2)) - ConvexChain(
            [(rng.randint(-2, 2), random_lattice_polytope(rng, 2))]
        )
        b = ConvexChain(
            [(rng.randint(-2, 2), random_lattice_polytope(rng, 2))]
        )
        assert lattice_sum(a + b, chain_box(a + b, 1)) == lattice_sum(
            a, chain_box(a + b, 1)
        ) + lattice_sum(b, chain_box(a + b, 1))
        assert degree(convolve(a, b)) == degree(a) * degree(b)


def test_ring_laws_on_grid():
    rng = random.Random(19)
    pieces = [random_lattice_polytope(rng, 2, spread=1, npoints=3) for _ in range(3)]
    a = ConvexChain([(1, pieces[0]), (-1, pieces[1])])
    b = one(pieces[2])
    c = one(pieces[0])
    ab = convolve(a, b)
    ba = convolve(b, a)
    for u in grid_points(2, 4):
        assert ab.evaluate(u) == ba.evaluate(u)
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    for u in grid_points(2, 6):
        assert left.evaluate(u) == right.evaluate(u)
    # bilinearity
    s = convolve(a + b, c)
    t = convolve(a, c) + convolve(b, c)
    for u in grid_points(2, 6):
        assert s.evaluate(u) == t.evaluate(u)


# ---------------------------------------------------------------------------
# multi-valued support functions
# ---------------------------------------------------------------------------

def test_rank_one_support_function_reduces_to_brianchon_gram(p2_fan):
    h = MultiValuedSupportFunction(
        p2_fan,
        {
            frozenset({0, 1}): ((1, 1),),
            frozenset({1, 2}): ((-2, 1),),
            frozenset({0, 2}): ((1, -2),),
        },
    )
    chain = support_function_chain(h)
    bg = brianchon_gram(SupportNumbers(p2_fan, (1, 1, 1)))
    for u in grid_points(2, 4):
        assert chain.evaluate(u) == bg.evaluate(u)


def test_support_function_face_consistency_checked(p2_fan):
    with pytest.raises(InvalidSupportFunctionError):
        MultiValuedSupportFunction(
            p2_fan,
            {
                frozenset({0, 1}): ((1, 0), (0, 1)),
                frozenset({1, 2}): ((0, 2), (0, 0)),
                frozenset({0, 2}): ((1, -1), (0, -1)),
            },
        )


def _values_at_by_smallest_cone(h, x):
    """The two-scan route of `values_at`: the smallest cone of x, then the
    first maximal cone that contains it."""
    key = min_containing_cone(h.fan, x)
    mkey = next(m for m in h.fan.maximal_keys if key <= m)
    return tuple(sorted(dot(u, x) for u in h.branches[mkey]))


@pytest.mark.parametrize("name", ["P1xP1", "hexagon", "P3"])
def test_values_at_equals_the_smallest_cone_route(name):
    fan = FANS[name]
    rng = random.Random(13)
    for r, m in ((2, 4), (3, 5)):
        h = random_bundle(fan, uniform_matroid(r, m), rng).support_function()
        for x in grid_points(fan.ambient_dim, 2):
            assert h.values_at(x) == _values_at_by_smallest_cone(h, x)


def test_values_at_refuses_a_point_outside_the_support():
    quadrant = Fan([(1, 0), (0, 1)], [[0, 1]], 2)
    h = MultiValuedSupportFunction(quadrant, {frozenset({0, 1}): ((1, 2), (0, 0))})
    assert h.values_at((1, 1)) == (0, 3)
    with pytest.raises(NotInSupportError) as info:
        h.values_at((-1, 0))
    assert str(info.value) == "point (-1, 0) is outside the fan support"


def test_support_function_chain_refinement_independence(u23_bundle):
    # the same support function on a finer fan: each piece of the fan cut
    # by two more lines copies the branches of the cone that contains it
    h = u23_bundle.support_function()
    base = support_function_chain(h)
    refined = refine_by_hyperplanes(h.fan, [(2, 1), (1, 3)])
    branches = {}
    for key in refined.maximal_keys:
        inside = [sum(refined.rays[i][j] for i in key) for j in range(2)]
        branches[key] = h.branches[min_containing_cone(h.fan, inside)]
    assert len(branches) > len(h.branches)
    finer = support_function_chain(MultiValuedSupportFunction(refined, branches))
    for u in grid_points(2, 4):
        assert base.evaluate(u) == finer.evaluate(u)


@pytest.mark.parametrize("name", ["P2", "hexagon", "P3"])
def test_support_function_chain_is_the_sum_of_branch_chains_term_by_term(
    name, fano_bundle
):
    # one merge of all Brianchon-Gram terms equals the running sum of the
    # branch chains: the same coefficients and pieces in the same order
    rng = random.Random(5)
    bundles = [random_bundle(FANS[name], uniform_matroid(r, m), rng)
               for r, m in ((2, 4), (3, 5))]
    if name == "P2":
        bundles.append(fano_bundle)
    for bundle in bundles:
        h = bundle.support_function()
        total = ConvexChain()
        for sn in split_branches(h)[1]:
            total = total + brianchon_gram(sn)
        got = support_function_chain(h)
        assert [(c, _piece_key(p)) for c, p in got.terms] == [
            (c, _piece_key(p)) for c, p in total.terms
        ]
