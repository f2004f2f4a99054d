"""The int64 box kernel of `chains` against the routes it replaced.

`box_values` evaluates a chain on a whole box from integer H-representations:
per block, one product with the chain's distinct normals, one compare with
its distinct rows, and one gather and AND-reduce of every piece's rows;
`lattice_sum` sums it and checks the margin shell.  The oracles are the loop
that called `piece.contains(u)` with Fraction bounds once per point and
piece, and the per-piece kernel `conftest.oracle_box_values`, whose blocks
must be equal array for array.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.chains import (
    BOX_BLOCK,
    ConvexChain,
    _integer_hrep,
    box_values,
    lattice_sum,
)
from tropehrhart.errors import (
    BoxTooLargeError,
    BoxTooSmallError,
    BundleValidationError,
    ValidationError,
)
from tropehrhart.lattice import (
    BOX_MAX_POINTS,
    HPolyhedron,
    VPolytope,
    check_box,
)
from tropehrhart.matroid import uniform_matroid
import tropehrhart.tropvb as tropvb

from conftest import (
    CHARACTER_FANS,
    box_points,
    chain_box,
    oracle_box_values,
    random_bundle,
    random_split_bundle,
)

SETTINGS = settings(max_examples=250, deadline=None, derandomize=True)


def _lattice_sum_loop(a, box):
    """The per-point loop: the sum of `a.evaluate(u)` over the box, raising
    on the first point of the margin shell where the chain is nonzero."""
    lo, hi = box
    total = 0
    for u in box_points(lo, hi):
        val = a.evaluate(u)
        if val != 0 and any(x == l or x == h for x, l, h in zip(u, lo, hi)):
            raise BoxTooSmallError(f"chain is nonzero at {u} on the box margin")
        total += val
    return total


def _outcome(fn, *args):
    try:
        return ("total", fn(*args))
    except BoxTooSmallError as exc:
        return ("margin", str(exc))


# ---------------------------------------------------------------------------
# strategies: a box, then pieces placed relative to it
# ---------------------------------------------------------------------------

# largest side per dimension: boxes of 1-d and 2-d span several blocks
SIDE = {1: 700, 2: 30, 3: 9, 4: 5}
RATIONAL = st.builds(
    Fraction, st.integers(-24, 24), st.sampled_from([1, 1, 2, 3, 4])
)


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 4))
    lo = draw(st.tuples(*[st.integers(-6, 6)] * d))
    sides = draw(st.tuples(*[st.integers(2, SIDE[d])] * d))
    return lo, tuple(l + s for l, s in zip(lo, sides))


@st.composite
def inner_point(draw, box):
    """A rational point of the box, usually strictly inside it."""
    lo, hi = box
    return tuple(
        Fraction(draw(st.integers(3 * l + 2, 3 * h - 2)), 3)
        for l, h in zip(lo, hi)
    )


@st.composite
def h_pieces(draw, box, pool):
    """Half-spaces with rational bounds and equalities whose right-hand side
    may be a non-integer; bounded by the interior of the box or not.  Some
    rows come from the chain's shared pool, maybe twice, and a pool row may
    be an equality, two rows when its bound is an integer."""
    lo, hi = box
    d = len(lo)
    normal = st.tuples(*[st.integers(-3, 3)] * d)
    ineqs = []
    if draw(st.booleans()):
        for i in range(d):
            e = tuple(int(j == i) for j in range(d))
            ineqs.append((e, draw(st.integers(lo[i] + 1, hi[i] - 1))))
            ineqs.append((tuple(-x for x in e), -draw(st.integers(lo[i] + 1, hi[i] - 1))))
    for n in draw(st.lists(normal, max_size=4)):
        ineqs.append((n, draw(RATIONAL)))
    ineqs += draw(st.lists(st.sampled_from(pool), max_size=4))
    eqs = [(n, draw(RATIONAL)) for n in draw(st.lists(normal, max_size=1))]
    eqs += draw(st.lists(st.sampled_from(pool), max_size=1))
    return HPolyhedron(ineqs, eqs, d)


@st.composite
def v_pieces(draw, box):
    n = draw(st.integers(1, len(box[0]) + 3))
    return VPolytope([draw(inner_point(box)) for _ in range(n)])


@st.composite
def chains_on_boxes(draw):
    box = draw(boxes())
    d = len(box[0])
    # rows the H-pieces of the chain share; integer bounds are common
    pool = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * d),
                  st.one_of(st.integers(-4, 4), RATIONAL)),
        min_size=1, max_size=4,
    ))
    pieces = st.one_of(
        h_pieces(box, pool), v_pieces(box), st.just(HPolyhedron([], [], d))
    )
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        terms.append((draw(st.integers(-3, 3)), draw(pieces)))
    return ConvexChain(terms), box


def _kinds(chain):
    """The row kinds a chain reaches: "shared rows" when two of its pieces
    have an integer row in common, "no rows" when a piece has none."""
    kinds, seen = set(), set()
    for _, piece in chain.terms:
        hrep = _integer_hrep(piece)
        if hrep is None:
            continue
        rows = set(zip(*hrep))
        if not rows:
            kinds.add("no rows")
        if rows & seen:
            kinds.add("shared rows")
        seen |= rows
    return kinds


# ---------------------------------------------------------------------------
# the kernel equals the loop
# ---------------------------------------------------------------------------

@SETTINGS
@given(chains_on_boxes())
def test_box_values_equal_pointwise_evaluation(case):
    chain, box = case
    points, values = [], []
    for offsets, v in box_values(chain, box):
        assert offsets.shape[0] <= BOX_BLOCK
        points += map(tuple, (offsets + box[0]).tolist())
        values += v.tolist()
    expected = list(box_points(*box))
    assert points == expected
    assert values == [chain.evaluate(u) for u in expected]


def _assert_blocks_equal_the_oracle(chain, box):
    blocks = list(box_values(chain, box))
    expected = list(oracle_box_values(chain, box))
    assert len(blocks) == len(expected)
    for (offsets, values), (want_points, want_values) in zip(blocks, expected):
        assert offsets.dtype == values.dtype == want_values.dtype == np.int64
        assert np.array_equal(offsets + box[0], want_points)
        assert np.array_equal(values, want_values)


@SETTINGS
@given(chains_on_boxes())
def test_box_values_equal_the_per_piece_kernel(case):
    _assert_blocks_equal_the_oracle(*case)


BUNDLE_SHAPES = [(1, 1), (2, 3), (2, 4), (3, 5)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(["P2", "P3", "P1^3"]),
    st.sampled_from(BUNDLE_SHAPES),
    st.integers(0, 1 << 16),
)
def test_box_values_equal_the_per_piece_kernel_on_bundle_chains(name, shape, seed):
    bundle = random_bundle(
        CHARACTER_FANS[name], uniform_matroid(*shape), random.Random(seed)
    )
    _assert_blocks_equal_the_oracle(
        bundle.chain_alpha(verify=False), bundle.chi_box()
    )


@SETTINGS
@given(chains_on_boxes())
def test_lattice_sum_equals_per_point_loop(case):
    chain, box = case
    assert _outcome(lattice_sum, chain, box) == _outcome(
        _lattice_sum_loop, chain, box
    )


def test_property_cases_cover_totals_margins_and_blocks():
    # the strategies must reach both outcomes, boxes of several blocks that
    # are not a whole number of blocks, pieces that share rows and pieces
    # without rows
    seen = set()

    @SETTINGS
    @given(chains_on_boxes())
    def collect(case):
        chain, box = case
        count = check_box(box, len(box[0]))
        seen.add(_outcome(lattice_sum, chain, box)[0])
        if count > BOX_BLOCK and count % BOX_BLOCK:
            seen.add("ragged")
        seen.update(_kinds(chain))

    collect()
    assert seen == {"total", "margin", "ragged", "shared rows", "no rows"}


def test_margin_error_names_first_point_in_box_order():
    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 2)]
        chain = ConvexChain([(rng.choice([-2, 1, 3]), VPolytope(pts))])
        lo, hi = chain_box(chain, 1)
        # shrink one side so the shell cuts through the piece
        i = rng.randrange(d)
        lo = tuple(l + (j == i) for j, l in enumerate(lo))
        box = (lo, hi)
        if any(h - l < 2 for l, h in zip(lo, hi)):
            continue
        loop = _outcome(_lattice_sum_loop, chain, box)
        assert loop[0] == "margin"
        assert _outcome(lattice_sum, chain, box) == loop
        checked += 1
    assert checked >= 20


def test_rational_bounds_are_floored():
    # -1/3 <= x <= 7/2 holds for the integers 0..3
    piece = HPolyhedron([((1,), Fraction(7, 2)), ((-1,), Fraction(1, 3))])
    assert lattice_sum(ConvexChain([(1, piece)]), ((-3,), (6,))) == 4


def test_unbounded_and_empty_pieces():
    plane = HPolyhedron([], [], 2)  # no rows: the whole plane
    off_grid = HPolyhedron([], [((1, 1), Fraction(1, 2))], 2)
    empty = VPolytope([], 2)
    chain = ConvexChain([(2, plane), (5, off_grid), (7, empty), (-2, plane)])
    assert lattice_sum(chain, ((0, 0), (3, 4))) == 0
    with pytest.raises(BoxTooSmallError, match=r"\(0, 0\)"):
        lattice_sum(ConvexChain([(1, plane)]), ((0, 0), (3, 4)))


def test_chain_alpha_verification_names_first_disagreement(
    u23_bundle, monkeypatch
):
    # one extra term makes alpha differ from chi on a square of the chi box
    extra = HPolyhedron([((-1, 0), 0), ((0, -1), 0)], (), 2)  # x >= 0, y >= 0
    real = tropvb.support_function_chain
    monkeypatch.setattr(
        tropvb,
        "support_function_chain",
        lambda h: real(h) + ConvexChain([(1, extra)]),
    )
    assert u23_bundle.chi_box() == ((-2, -2), (2, 2))
    with pytest.raises(BundleValidationError) as info:
        u23_bundle.chain_alpha(verify=True)
    # (0, 0) is the first point of the quadrant in box order
    assert str(info.value) == "chain value and chi disagree at (0, 0)"


# ---------------------------------------------------------------------------
# box checks and the int64 proof
# ---------------------------------------------------------------------------

SQUARE = ConvexChain([(1, VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))])


@pytest.mark.parametrize("box", [
    ((3, 3), (-3, -3)),  # inverted
    ((0, 0), (1, 5)),  # one side without an interior point
    ((0, 0, 0), (3, 3, 3)),  # three coordinates for 2-d pieces
    ((0, 0), (3, 3, 3)),
    # corners that are not ints reached `range` and raised TypeError
    ((Fraction(-1), Fraction(-1)), (3, 3)),
    ((Fraction(-1, 2), Fraction(-1, 2)), (3, 3)),
    ((-1.0, -1.0), (3, 3)),
])
def test_malformed_boxes_are_refused(box):
    with pytest.raises(ValidationError):
        lattice_sum(SQUARE, box)


def test_point_cap_is_checked_before_enumeration(fano_bundle):
    side = 1 << 10  # (side + 1)^2 points is just above the cap
    box = ((0, 0), (side, side))
    assert (side + 1) ** 2 > BOX_MAX_POINTS
    with pytest.raises(BoxTooLargeError):
        lattice_sum(SQUARE, box)
    with pytest.raises(BoxTooLargeError):
        fano_bundle.euler_char_total(box)


def test_default_boxes_of_test_bundles_stay_under_the_cap(
    fano_bundle, u23_bundle, p1_fan, p2_fan, p1xp1_fan, hexagon_fan
):
    rng = random.Random(17)
    bundles = [fano_bundle, u23_bundle]
    for fan in (p1_fan, p2_fan, p1xp1_fan, hexagon_fan):
        for r, m in ((1, 2), (2, 3), (2, 4), (3, 5)):
            bundles.append(random_bundle(fan, uniform_matroid(r, m), rng))
            bundles.append(random_split_bundle(fan, uniform_matroid(r, m), rng))
    for bundle in bundles:
        box = bundle.chi_box()
        assert check_box(box, bundle.fan.ambient_dim) <= BOX_MAX_POINTS // 64


def test_int64_proof_refuses_instead_of_wrapping():
    big_normal = ConvexChain([(1, HPolyhedron([((1 << 61, 1), 0)], (), 2))])
    with pytest.raises(BoxTooLargeError):
        lattice_sum(big_normal, ((-2, -2), (2, 2)))
    # a box far from the origin is evaluated relative to its corner
    far = ((1 << 62, 1 << 62), ((1 << 62) + 3, (1 << 62) + 3))
    for chain in (SQUARE, ConvexChain()):  # the empty chain has no rows
        assert lattice_sum(chain, far) == _lattice_sum_loop(chain, far) == 0
    # a square near 2^61 is summed exactly
    near = (1 << 61) - 8
    square = VPolytope([(near + x, near + y) for x in (1, 2) for y in (1, 2)])
    box = ((near, near), (near + 3, near + 3))
    assert lattice_sum(ConvexChain([(1, square)]), box) == 4
    heavy = ConvexChain([(1 << 60, VPolytope([(0, 0), (1, 1)]))])
    with pytest.raises(BoxTooLargeError):
        lattice_sum(heavy, ((-2, -2), (2, 2)))


def test_large_exact_values_stay_exact():
    # totals above 2^62 come out as Python integers, unrounded
    coeff = (1 << 62) // (2 * BOX_BLOCK) - 1
    segment = HPolyhedron(
        [((1, 0), 900), ((-1, 0), 0)], [((0, 1), 0)], 2
    )  # 0 <= x <= 900, y = 0
    twice = ConvexChain([(coeff, segment), (coeff, segment)])
    assert lattice_sum(twice, ((-1, -1), (901, 2))) == 2 * coeff * 901 > 1 << 62
    # bounds far beyond the box are clipped without changing comparisons
    huge = HPolyhedron(
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), Fraction(10**30, 7)),
         ((0, -1), 10**40)],
        [((0, 1), 0)],
        2,
    )
    nowhere = HPolyhedron([((1, 0), -(10**30))], (), 2)
    chain = ConvexChain([(1, huge), (4, nowhere)])
    assert lattice_sum(chain, ((-2, -1), (2, 1))) == 3


def test_piece_with_mixed_vertex_lengths_is_refused():
    with pytest.raises(ValidationError):
        VPolytope([(0, 0), (2, 0, 5), (0, 2)])
    with pytest.raises(ValidationError):
        HPolyhedron([((1, 0), 1), ((0, 1, 0), 1)])
