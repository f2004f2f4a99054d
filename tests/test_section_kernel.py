"""The section-rank box kernel of `tropvb` against the per-point loops it
replaced.

`TropicalVectorBundle.section_values` evaluates signed sums of section ranks
on a whole box, per block one half-space compare of `chains`, one segment
sum, one gather and one AND-reduce; `euler_char_total`, `h0_nonzero` and
`chain_alpha(verify=True)` read it.  The oracles are per-point loops of
`oracle_chi` and `oracle_h0` of `conftest`, which read the Klyachko flats
off the diagram and not the bundle's table, the h0 loop on the box of
parliament vertices, and `ConvexChain.evaluate` for the chain values.
"""

import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropehrhart.tropvb as tropvb
from tropehrhart.chains import BOX_BLOCK, ConvexChain, lattice_sum
from tropehrhart.cli import main
from tropehrhart.errors import (
    BoxTooLargeError,
    BoxTooSmallError,
    BundleValidationError,
    ValidationError,
)
from tropehrhart.lattice import Fan, HPolyhedron, check_box
from tropehrhart.matroid import Matroid, uniform_matroid

from conftest import (
    box_points,
    oracle_chi,
    oracle_h0,
    parliament_box,
    random_bundle,
    random_p1_bundle,
    random_split_bundle,
)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# the per-point loops
# ---------------------------------------------------------------------------

def _euler_char_total_loop(bundle, box):
    """Sum of `oracle_chi` over the box, raising on the first point of the
    margin shell where chi is nonzero."""
    check_box(box, bundle.fan.ambient_dim)
    lo, hi = box
    total = 0
    for u in box_points(lo, hi):
        val = oracle_chi(bundle, u)
        if val != 0 and any(x == l or x == h for x, l, h in zip(u, lo, hi)):
            raise BoxTooSmallError(f"chi is nonzero at {u} on the box margin")
        total += val
    return total


def _h0_nonzero_loop(bundle):
    """(u, oracle_h0(bundle, u)) for every u with sections in the box of
    parliament vertices."""
    box = parliament_box(bundle)
    if box is None:
        return []
    out = []
    for u in box_points(*box):
        h = oracle_h0(bundle, u)
        if h:
            out.append((u, h))
    return out


def _first_disagreement(chain, bundle):
    """The first point of the chi box, in box order, where the chain value
    and chi differ; None when they agree everywhere."""
    for u in box_points(*bundle.chi_box()):
        if chain.evaluate(u) != oracle_chi(bundle, u):
            return u
    return None


def _outcome(fn, *args):
    try:
        return ("total", fn(*args))
    except BoxTooSmallError as exc:
        return ("margin", str(exc))
    except ValidationError as exc:
        return ("invalid", str(exc))


def _chi_cones(bundle):
    fan = bundle.fan
    return [(key, (-1) ** fan.codim(key)) for key in fan.cone_keys]


def _kernel_points(bundle, box, cones):
    """(point, value) pairs of `section_values`, absolute points rebuilt
    from the offsets; checks the block sizes on the way."""
    lo = box[0]
    out = []
    for offsets, values in bundle.section_values(box, cones):
        assert offsets.shape[0] == values.shape[0] <= BOX_BLOCK
        for off, v in zip(offsets.tolist(), values.tolist()):
            out.append((tuple(l + x for l, x in zip(lo, off)), v))
    return out


# ---------------------------------------------------------------------------
# bundles on fans of dimension 1 to 3
# ---------------------------------------------------------------------------

FANS = {
    "P1": Fan([(1,), (-1,)], [[0], [1]]),
    "P2": Fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]]),
    "P1xP1": Fan([(1, 0), (0, 1), (-1, 0), (0, -1)],
                 [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "hexagon": Fan([(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
                   [[0, 5], [5, 1], [1, 3], [3, 2], [2, 4], [4, 0]]),
    # not smooth: chi_box comes from rational characters
    "weighted": Fan([(1, 0), (1, 2), (-1, 0), (0, -1)],
                    [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "P3": Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "P1^3": Fan([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                 (0, 0, -1)],
                [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]),
}
MATROIDS = [
    uniform_matroid(1, 1),
    uniform_matroid(1, 2),
    uniform_matroid(2, 3),
    uniform_matroid(2, 4),
    uniform_matroid(3, 5),
    Matroid(3, [{1, 2}, {1, 3}]),  # 2 and 3 parallel
    Matroid(3, [{1, 2}]),  # 3 a loop
]
# extra padding per side beyond the chi box, by dimension, at least half of
# it above: 1-d and 2-d boxes then span several blocks of 256 points, mostly
# with a ragged last block
PAD = {1: 300, 2: 12, 3: 2}


@st.composite
def bundles(draw):
    name = draw(st.sampled_from(sorted(FANS)))
    fan = FANS[name]
    matroid = draw(st.sampled_from(MATROIDS))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if fan.ambient_dim == 1:
        return random_p1_bundle(fan, matroid, rng)
    if fan.ambient_dim == 3 or draw(st.booleans()):
        return random_split_bundle(fan, matroid, rng)
    return random_bundle(fan, matroid, rng)


@st.composite
def bundles_on_boxes(draw):
    """A bundle and a box: its chi box grown by up to PAD per side, or, one
    time in four, shrunk by one on some side so that the margin may cut
    through the support of chi (or leave a side without an interior)."""
    bundle = draw(bundles())
    lo, hi = bundle.chi_box()
    pad = PAD[len(lo)]
    if draw(st.integers(0, 3)) == 0:
        lo = tuple(l + draw(st.integers(0, 1)) for l in lo)
        hi = tuple(h - draw(st.integers(0, 1)) for h in hi)
    else:
        lo = tuple(l - draw(st.integers(0, pad)) for l in lo)
        hi = tuple(h + draw(st.integers(pad // 2, pad)) for h in hi)
    return bundle, (lo, hi)


# ---------------------------------------------------------------------------
# the kernel equals the loops
# ---------------------------------------------------------------------------

@SETTINGS
@given(bundles_on_boxes())
def test_section_values_equal_chi_and_h0_pointwise(case):
    bundle, box = case  # thin boxes too: h0 boxes may have sides below 2
    everything = [(range(len(bundle.fan.rays)), 1)]
    expected = list(box_points(*box))
    chi = _kernel_points(bundle, box, _chi_cones(bundle))
    assert [u for u, _ in chi] == expected
    assert [v for _, v in chi] == [oracle_chi(bundle, u) for u in expected]
    h0 = _kernel_points(bundle, box, everything)
    assert [u for u, _ in h0] == expected
    assert [v for _, v in h0] == [oracle_h0(bundle, u) for u in expected]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bundles(), st.data())
def test_chi_u_is_the_alternating_sum_of_the_codimension_totals(bundle, data):
    # `chi --u` reads chi_u off the totals its report prints
    lo, hi = bundle.chi_box()
    u = tuple(data.draw(st.integers(l, h)) for l, h in zip(lo, hi))
    by_codim = bundle.euler_char_by_codim(u)
    assert len(by_codim) == bundle.fan.ambient_dim + 1
    assert bundle.euler_char_u(u) == sum((-1) ** k * v for k, v in enumerate(by_codim))


@pytest.mark.parametrize("corner", [Fraction(-1), Fraction(-1, 2), -1.0])
def test_euler_char_total_refuses_box_corners_that_are_not_ints(fano_bundle, corner):
    box = ((corner, corner), (3, 3))
    with pytest.raises(ValidationError, match="box corner coordinate .* is not an integer"):
        fano_bundle.euler_char_total(box)


@SETTINGS
@given(bundles_on_boxes())
def test_euler_char_total_equals_per_point_loop(case):
    bundle, box = case
    assert _outcome(bundle.euler_char_total, box) == _outcome(
        _euler_char_total_loop, bundle, box
    )


@SETTINGS
@given(bundles())
def test_h0_nonzero_equals_per_point_loop(bundle):
    assert bundle.h0_nonzero() == _h0_nonzero_loop(bundle)


def _shrunk_chi_box(bundle):
    """`chi_box()` shrunk by one on every side: the unpadded box of the
    characters, whose shell may hold sections."""
    lo, hi = bundle.chi_box()
    return tuple(x + 1 for x in lo), tuple(x - 1 for x in hi)


def _h0_on_shrunk_box(bundle):
    """The outcome of `h0_nonzero` when it scans `_shrunk_chi_box`."""
    shrunk = _shrunk_chi_box(bundle)
    with mock.patch.object(tropvb.TropicalVectorBundle, "chi_box",
                           lambda self: shrunk):
        return _outcome(bundle.h0_nonzero)


@SETTINGS
@given(bundles())
def test_h0_nonzero_names_the_first_section_on_the_margin(bundle):
    # the margin check of the h0 scan, on a box one smaller than the lemma
    # allows: its shell may hold sections
    lo, hi = shrunk = _shrunk_chi_box(bundle)
    shell = [u for u in box_points(*shrunk)
             if any(x in (l, h) for x, l, h in zip(u, lo, hi))]
    first = next((u for u in shell if oracle_h0(bundle, u)), None)
    if first is None:
        assert _h0_on_shrunk_box(bundle) == ("total", _h0_nonzero_loop(bundle))
    else:
        assert _h0_on_shrunk_box(bundle) == (
            "margin", f"h0 is nonzero at {first} on the box margin")


def test_h0_nonzero_on_the_shrunk_fano_box(fano_bundle):
    assert _h0_on_shrunk_box(fano_bundle) == (
        "margin", "h0 is nonzero at (-2, 0) on the box margin")
    assert fano_bundle.h0_nonzero()[0] == ((-2, 0), 1)


def test_property_cases_cover_totals_margins_and_blocks():
    # the strategies must reach every outcome, every fan dimension and
    # boxes of several blocks that are not a whole number of blocks
    seen = set()

    @SETTINGS
    @given(bundles_on_boxes())
    def collect(case):
        bundle, box = case
        seen.add(_outcome(bundle.euler_char_total, box)[0])
        seen.add(f"dim {len(box[0])}")
        if not any(h - l < 2 for l, h in zip(*box)):
            count = check_box(box, len(box[0]))
            if count > BOX_BLOCK and count % BOX_BLOCK:
                seen.add("ragged")

    collect()
    assert seen == {"total", "margin", "invalid", "ragged",
                    "dim 1", "dim 2", "dim 3"}


SMOOTH = sorted(name for name, fan in FANS.items() if fan.is_smooth())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([n for n in SMOOTH if FANS[n].ambient_dim < 3]),
    st.sampled_from(MATROIDS),
    st.integers(0, 10**6),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    st.integers(-3, 3),
    st.sampled_from([-1, 1]),
)
def test_chain_alpha_names_the_first_disagreement(name, matroid, seed,
                                                  normal, bound, coeff):
    # one extra half-plane term makes alpha differ from chi where it holds
    fan = FANS[name]
    bundle = random_split_bundle(fan, matroid, random.Random(seed))
    d = fan.ambient_dim
    extra = HPolyhedron([(tuple(normal[:d]), bound)], (), d)
    real = tropvb.support_function_chain
    with mock.patch.object(
        tropvb, "support_function_chain",
        lambda h: real(h) + ConvexChain([(coeff, extra)]),
    ):
        chain = real(bundle.support_function()) + ConvexChain([(coeff, extra)])
        u = _first_disagreement(chain, bundle)
        if u is None:
            bundle.chain_alpha(verify=True)
        else:
            with pytest.raises(BundleValidationError) as info:
                bundle.chain_alpha(verify=True)
            assert str(info.value) == f"chain value and chi disagree at {u}"


# ---------------------------------------------------------------------------
# huge diagram entries and the int64 range
# ---------------------------------------------------------------------------

BIG = 1 << 70


@pytest.fixture(scope="module")
def far_line_bundle():
    # O(D) on P^2 for the triangle x <= 2^70, y <= 2^70, x + y >= 2^71 - 3,
    # which holds (3 + 1)(3 + 2)/2 = 10 lattice points
    return tropvb.validate(FANS["P2"], uniform_matroid(1, 1),
                           [(BIG,), (BIG,), (-2 * BIG + 3,)])


def test_diagram_entries_near_2_70_get_an_answer(far_line_bundle):
    bundle = far_line_bundle
    assert bundle.h0_nonzero() == _h0_nonzero_loop(bundle)
    assert bundle.h0_total() == 10
    # chi_box() spans the characters, the triangle's corners, and not the
    # origin; it and a wider box are summed relative to their corners
    assert bundle.chi_box() == ((BIG - 4, BIG - 4), (BIG + 1, BIG + 1))
    assert bundle.euler_char_total() == 10
    box = ((BIG - 40, BIG - 30), (BIG + 25, BIG + 50))
    assert bundle.euler_char_total(box) == _euler_char_total_loop(bundle, box) == 10
    expected = list(box_points(*box))
    assert [v for _, v in _kernel_points(bundle, box, _chi_cones(bundle))] == [
        oracle_chi(bundle, u) for u in expected
    ]
    # a shell through the triangle names the same first point as the loop
    shrunk = ((BIG - 2, BIG - 5), (BIG + 1, BIG + 1))
    assert _outcome(bundle.euler_char_total, shrunk) == _outcome(
        _euler_char_total_loop, bundle, shrunk
    )
    assert _outcome(bundle.euler_char_total, shrunk)[0] == "margin"


def test_chain_alpha_verifies_near_2_70(far_line_bundle):
    # both kernels take the box relative to its corner: the chain values
    # are compared with chi on the whole chi box
    far_line_bundle.chain_alpha(verify=True)


def test_chi_h0_and_alpha_agree_near_2_70(far_line_bundle, tmp_path, capsys):
    # the chain's lattice sum answers wherever chi does
    bundle = far_line_bundle
    chain = bundle.chain_alpha(verify=False)
    assert lattice_sum(chain, bundle.chi_box()) == bundle.euler_char_total() == 10
    assert bundle.h0_total() == 10
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "fan": {"rays": [list(v) for v in bundle.fan.rays],
                "cones": [[1, 2], [2, 3], [1, 3]]},
        "matroid": {"m": 1, "bases": [[1]]},
        "diagram": [list(row) for row in bundle.diagram],
    }))
    totals = {}
    for command, key in [("chi", "chi_total"), ("h0", "h0_total"),
                         ("alpha-eval", "alpha_total")]:
        assert main([command, "--bundle", str(path)]) == 0
        totals[key] = json.loads(capsys.readouterr().out)[key]
    assert totals == {"chi_total": 10, "h0_total": 10, "alpha_total": 10}


def test_levels_beyond_int64_are_refused():
    # the levels <u - lo, v> on this box reach 2^62 on the steep ray
    steep = (1 << 50, 1)
    fan = Fan([(1, 0), steep, (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]])
    bundle = tropvb.validate(fan, uniform_matroid(1, 1), [(0,)] * 4)
    assert bundle.euler_char_total() == 1
    assert bundle.euler_char_total(((-1024, -1), (1024, 1))) == 1
    with pytest.raises(BoxTooLargeError):
        bundle.euler_char_total(((-2048, -1), (2048, 1)))
