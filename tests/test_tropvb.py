import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.chains import (
    SupportNumbers,
    brianchon_gram,
    lattice_sum,
    split_branches,
)
from tropehrhart.errors import (
    BundleValidationError,
    InvalidBoundError,
    NoCommonApartmentError,
    RowNotInBergmanError,
    UnsupportedConeError,
    ValidationError,
)
from tropehrhart.lattice import (
    Fan,
    min_containing_cone,
    refine_by_hyperplanes,
    stellar_subdivision,
    vertex_enumeration,
)
from tropehrhart.linalg import dot, vec_sub
from tropehrhart.matroid import (
    Matroid,
    bergman_project,
    circuit_extension,
    uniform_matroid,
)
from tropehrhart.tropvb import (
    k_class,
    k_class_identity,
    split_resolution,
    validate,
)

from conftest import (
    CHARACTER_FANS,
    CUBE4_FAN,
    FANO_DIAGRAM,
    FANO_LINES,
    FANS,
    POINT_FAN,
    common_adapted_basis,
    grid_points,
    intify,
    klyachko_flat,
    oracle_adapted_bases,
    oracle_chi,
    oracle_chi_by_codim,
    oracle_cone_characters,
    oracle_h0,
    oracle_h0_nonzero,
    oracle_pullback_row,
    oracle_section_rank,
    oracle_split_characters,
    random_bundle,
    random_p1_bundle,
    random_split_bundle,
    rref_solve,
)


def h0_global_parliament(bundle, u) -> int:
    """Oracle for `h0_global`: the rank of the set of parliament members
    containing u."""
    members = frozenset(
        e for e, p in bundle.parliament().items() if p.contains(u)
    )
    return bundle.matroid.rank(members)


S12 = frozenset({0, 1})
S23 = frozenset({1, 2})
S13 = frozenset({0, 2})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_fano(fano_bundle):
    assert fano_bundle.rank == 3
    assert fano_bundle.adapted_bases[S12] == frozenset({1, 2, 7})


def test_validate_u23(u23_bundle):
    assert u23_bundle.adapted_bases[S12] == frozenset({1, 2})
    assert u23_bundle.adapted_bases[S23] == frozenset({2, 3})
    assert u23_bundle.adapted_bases[S13] == frozenset({1, 3})


def test_validate_rejects_non_bergman_row(p2_fan, u23_matroid):
    with pytest.raises(RowNotInBergmanError) as info:
        validate(p2_fan, u23_matroid, [(1, 1, 0), (0, 1, 0), (0, 0, 1)])
    assert info.value.row_number == 1
    assert info.value.level_set == frozenset({1, 2})


def test_validate_rejects_incompatible_rows(p2_fan):
    u34 = uniform_matroid(3, 4)
    # two flags demanding disjoint triples as adapted bases
    rows = [(2, 1, 0, 0), (0, 0, 2, 1), (0, 0, 0, 0)]
    with pytest.raises(NoCommonApartmentError):
        validate(p2_fan, u34, rows)


def test_validate_refuses_a_diagram_entry_that_is_not_an_integer(p2_fan):
    # the first diagram used to read as ((1,), (0,), (0,)), with chi 3
    u11 = uniform_matroid(1, 1)
    for rows, bad in (([[Fraction(3, 2)], [0.9], [0]], 1),
                      ([[1], [0.9], [0]], 2),
                      ([[1], [0], [Fraction(2, 1)]], 3)):
        with pytest.raises(BundleValidationError) as info:
            validate(p2_fan, u11, rows)
        assert str(info.value) == f"diagram row {bad} has a non-integer entry"
    # integral entries of any type are taken, as Python ints
    bundle = validate(p2_fan, u11, [[np.int64(1)], [True], [0]])
    assert bundle.diagram == ((1,), (1,), (0,))
    assert {type(x) for row in bundle.diagram for x in row} == {int}


def test_validate_requires_complete_fan(u23_matroid):
    quadrant = Fan([(1, 0), (0, 1)], [[0, 1]], 2)
    with pytest.raises(BundleValidationError):
        validate(quadrant, u23_matroid, [(1, 0, 0), (0, 1, 0)])


# ---------------------------------------------------------------------------
# filtrations and sections
# ---------------------------------------------------------------------------

def _section_rank(bundle, key, u) -> int:
    """`section_values` on the one-point box (u, u) and the one cone."""
    ((_, values),) = bundle.section_values((u, u), [(key, 1)])
    return int(values[0])


def _at_level(ray, i):
    """A character u with <u, ray> = i, for a ray with a coordinate +-1."""
    j = next(j for j, x in enumerate(ray) if abs(x) == 1)
    return tuple(i * ray[j] if k == j else 0 for k in range(len(ray)))


def test_klyachko_flats_fano(fano_bundle):
    # ray 0 is (1, 0): at u = (i, 0) the cone of ray 0 alone has the rank
    # of the flat F_0(i)
    for i, flat in [(1, {1, 4, 7}), (2, {1}), (-5, range(1, 8)), (99, ())]:
        assert klyachko_flat(fano_bundle, 0, i) == frozenset(flat)
        rank = fano_bundle.matroid.rank(flat)
        assert _section_rank(fano_bundle, {0}, (i, 0)) == rank
        assert oracle_section_rank(fano_bundle, {0}, (i, 0)) == rank


def test_filtration_monotone(fano_bundle, u23_bundle):
    for bundle in (fano_bundle, u23_bundle):
        for ri in range(3):
            lo = min(bundle.diagram[ri])
            hi = max(bundle.diagram[ri])
            ray = bundle.fan.rays[ri]
            for i in range(lo, hi + 1):
                here, above = (_section_rank(bundle, {ri}, _at_level(ray, k))
                               for k in (i, i + 1))
                flat = klyachko_flat(bundle, ri, i)
                assert here >= above and here == bundle.matroid.rank(flat)


def test_h0_local_examples(fano_bundle):
    for key, u, rank in [(frozenset(), (5, -7), 3), (S12, (0, 0), 3),
                         (S12, (2, 2), 0)]:
        assert _section_rank(fano_bundle, key, u) == rank
        assert oracle_section_rank(fano_bundle, key, u) == rank


def test_h0_local_bounds(fano_bundle):
    for key in fano_bundle.fan.cone_keys:
        for u in grid_points(2, 3):
            local = _section_rank(fano_bundle, key, u)
            assert fano_bundle.h0_global(u) <= local <= fano_bundle.rank


def test_parliament_fano(fano_bundle):
    parliament = fano_bundle.parliament()
    z3 = vertex_enumeration(parliament[6])
    assert set(z3.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    }
    w = vertex_enumeration(parliament[7])
    assert set(w.vertices) == {
        (Fraction(-2), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(-2)),
    }


def test_h0_global_fano_total(fano_bundle):
    assert fano_bundle.h0_total() == 27


def test_h0_total_with_empty_parliament(p2_fan, u23_matroid):
    # the U(2,3) bundle twisted down by one: every column sums to -2 over
    # the rays of P^2, so every parliament polytope is empty
    bundle = validate(p2_fan, u23_matroid,
                      [(0, -1, -1), (-1, 0, -1), (-1, -1, 0)])
    assert all(not vertex_enumeration(p).vertices
               for p in bundle.parliament().values())
    assert bundle.h0_nonzero() == []
    assert bundle.h0_total() == 0


def test_h0_global_matches_parliament_route(fano_bundle, u23_bundle):
    for bundle in (fano_bundle, u23_bundle):
        for u in grid_points(2, 3):
            assert bundle.h0_global(u) == h0_global_parliament(bundle, u)


@pytest.mark.parametrize("u", [(1,), (0, 0, 9), ()])
def test_characters_of_the_wrong_length_are_refused(u23_bundle, u):
    with pytest.raises(ValidationError, match="coordinates, expected 2"):
        u23_bundle.h0_global(u)
    with pytest.raises(ValidationError, match="coordinates, expected 2"):
        u23_bundle.euler_char_u(u)
    with pytest.raises(ValidationError, match="coordinates, expected 2"):
        u23_bundle.euler_char_by_codim(u)


@pytest.mark.parametrize("u", [(Fraction(1, 2), 0), (0.5, 0), (0, Fraction(-3, 2))])
def test_non_integer_characters_are_refused(fano_bundle, u):
    for call in (fano_bundle.h0_global, fano_bundle.euler_char_u,
                 fano_bundle.euler_char_by_codim):
        with pytest.raises(ValidationError, match="is not an integer"):
            call(u)
    # a box corner too, checked before any array is built
    corner = tuple(x - 3 for x in u)
    with pytest.raises(ValidationError, match="is not an integer"):
        fano_bundle.euler_char_total(box=(corner, (3, 3)))


def test_the_point_bundle_has_its_rank_at_the_origin():
    # the zero cone alone pads to the ground-set column of the kernel
    bundle = validate(POINT_FAN, Matroid(2, [{1, 2}]), [])
    assert bundle.euler_char_u(()) == bundle.h0_global(()) == 2
    assert bundle.euler_char_by_codim(()) == [2]
    assert bundle.euler_char_total() == bundle.h0_total() == 2
    assert bundle.h0_nonzero() == [((), 2)]


def test_the_zero_cone_alone_has_the_rank(fano_bundle, u23_bundle):
    for bundle in (fano_bundle, u23_bundle):
        blocks = bundle.section_values(((-3, -3), (3, 3)), [(frozenset(), 1)])
        values = [v for _, block in blocks for v in block.tolist()]
        assert values == [bundle.rank] * 49


def test_trivial_rank_one_bundle(p2_fan):
    bundle = validate(p2_fan, uniform_matroid(1, 1), [(0,), (0,), (0,)])
    assert bundle.h0_global((0, 0)) == 1
    assert bundle.h0_global((1, 0)) == 0
    assert bundle.euler_char_u((0, 0)) == 1
    assert bundle.euler_char_by_codim((0, 0)) == [3, 3, 1]
    for u in grid_points(2, 2):
        if u != (0, 0):
            assert bundle.euler_char_u(u) == 0


# ---------------------------------------------------------------------------
# Euler characteristics
# ---------------------------------------------------------------------------

def test_euler_char_fano(fano_bundle):
    assert fano_bundle.euler_char_total() == 27
    assert fano_bundle.euler_char_u((0, 0)) == 3


def test_euler_char_total_rejects_small_box(fano_bundle):
    from tropehrhart.errors import BoxTooSmallError

    with pytest.raises(BoxTooSmallError):
        fano_bundle.euler_char_total(((-1, -1), (1, 1)))


def test_chain_alpha_fano(fano_bundle):
    chain = fano_bundle.chain_alpha()  # verify=True checks chi pointwise
    lo, hi = fano_bundle.chi_box()
    wider = (tuple(x - 1 for x in lo), tuple(x + 1 for x in hi))
    assert lattice_sum(chain, wider) == 27
    assert chain.evaluate((0, 0)) == 3


def test_chain_alpha_rank_one_is_brianchon_gram(p2_fan):
    bundle = validate(p2_fan, uniform_matroid(1, 1), [(2,), (1,), (0,)])
    chain = bundle.chain_alpha()
    bg = brianchon_gram(SupportNumbers(p2_fan, (2, 1, 0)))
    for u in grid_points(2, 4):
        assert chain.evaluate(u) == bg.evaluate(u)


def test_chain_alpha_random_p1xp1(p1xp1_fan):
    rng = random.Random(61)
    for _ in range(5):
        bundle = random_split_bundle(p1xp1_fan, uniform_matroid(2, 3), rng)
        chain = bundle.chain_alpha(verify=False)
        lo, hi = bundle.chi_box()
        for u in itertools.product(
            range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)
        ):
            assert chain.evaluate(u) == oracle_chi(bundle, u)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_characters_u23(u23_bundle):
    assert u23_bundle.characters(S12) == ((0, 1), (1, 0))
    assert u23_bundle.characters(S23) == ((-1, 0), (-1, 1))
    assert u23_bundle.characters(S13) == ((0, -1), (1, -1))


def test_characters_fano(fano_bundle):
    assert set(fano_bundle.characters(S12)) == {(2, 0), (0, 2), (1, 1)}
    assert set(fano_bundle.characters(S23)) == {(-2, 2), (-2, 0), (-2, 1)}
    assert set(fano_bundle.characters(S13)) == {(2, -2), (0, -2), (1, -2)}


def test_characters_trivial_bundle(p2_fan):
    bundle = validate(p2_fan, uniform_matroid(1, 1), [(0,), (0,), (0,)])
    assert bundle.characters(S12) == ((0, 0),)


def test_characters_errors(fano_bundle):
    with pytest.raises(UnsupportedConeError):
        fano_bundle.characters(frozenset({0}))
    singular = Fan([(1, 0), (1, 2), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    bundle = validate(singular, uniform_matroid(1, 1), [(0,), (0,), (0,)])
    with pytest.raises(UnsupportedConeError):
        bundle.characters(frozenset({0, 1}))


def test_character_multiset_is_basis_independent(u23_bundle):
    # the pairing multiset over any adapted basis is fixed by the filtration
    # ranks, so every adapted basis yields the same character multiset
    from conftest import apartment_contains, solve_unique

    bundle = u23_bundle
    for key in bundle.fan.maximal_keys:
        rows = [bundle.diagram[i] for i in sorted(key)]
        rays = [bundle.fan.rays[i] for i in sorted(key)]
        reference = bundle.characters(key)
        for basis in sorted(bundle.matroid.bases, key=sorted):
            if not apartment_contains(bundle.matroid, basis, rows):
                continue
            chars = []
            for b in sorted(basis):
                rhs = [bundle.diagram[i][b - 1] for i in sorted(key)]
                chars.append(tuple(int(x) for x in solve_unique(rays, rhs)))
            assert tuple(sorted(chars)) == reference


def test_local_sections_match_dual_cone_count(fano_bundle, u23_bundle):
    # chart sections equal the number of characters inside the dual cone
    # translated by u, i.e. with c - u in the dual cone
    from tropehrhart.lattice import dual_cone

    for bundle in (fano_bundle, u23_bundle):
        for key in bundle.fan.maximal_keys:
            dual = dual_cone(bundle.fan.cone(key))
            chars = bundle.characters(key)
            for u in grid_points(2, 3):
                count = sum(
                    1 for c in chars if dual.contains(vec_sub(c, u))
                )
                assert count == _section_rank(bundle, key, u)


# ---------------------------------------------------------------------------
# pull-backs
# ---------------------------------------------------------------------------

def test_pullback_identity(fano_bundle, p2_fan):
    same = fano_bundle.pullback(p2_fan)
    assert same.diagram == fano_bundle.diagram


def test_pullback_fano_stellar_row(fano_bundle, p2_fan):
    stellar = stellar_subdivision(p2_fan, (1, 1))
    pulled = fano_bundle.pullback(stellar)
    # apartment coordinates (2,2,2) on {y1,y2,w} extend to the constant row
    assert pulled.diagram[3] == (2, 2, 2, 2, 2, 2, 2)
    assert pulled.diagram[:3] == fano_bundle.diagram


def test_pullback_chi_invariance(fano_bundle, u23_bundle, p2_fan):
    refinements = [
        stellar_subdivision(p2_fan, (1, 1)),
        refine_by_hyperplanes(p2_fan, [(1, -1)]),
        refine_by_hyperplanes(p2_fan, [(0, 1), (1, 0), (1, -1)]),
    ]
    for bundle in (fano_bundle, u23_bundle):
        for refined in refinements:
            pulled = bundle.pullback(refined)
            for u in grid_points(2, 4):
                assert pulled.euler_char_u(u) == oracle_chi(bundle, u)


def test_pullback_requires_refinement(fano_bundle, p1xp1_fan):
    with pytest.raises(Exception):
        fano_bundle.pullback(p1xp1_fan)


# ---------------------------------------------------------------------------
# split resolutions and K-classes
# ---------------------------------------------------------------------------

def test_split_resolution_worked_example(u23_bundle):
    res = split_resolution(u23_bundle, f=(0, 0, 0))
    assert res[0].characters[S12] == (
        (0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0)
    )
    assert res[0].characters[S23] == (
        (-1, 0), (-1, 0), (-1, 1), (-1, 1), (0, 0), (0, 0)
    )
    assert res[0].characters[S13] == (
        (0, -1), (0, -1), (0, 0), (0, 0), (1, -1), (1, -1)
    )
    assert res[1].characters[S12] == (
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 1), (1, 0)
    )
    assert res[1].characters[S23] == (
        (-1, 0), (-1, 1), (0, 0), (0, 0), (0, 0), (0, 0)
    )
    assert res[1].characters[S13] == (
        (0, -1), (0, 0), (0, 0), (0, 0), (0, 0), (1, -1)
    )
    assert res[2].characters[S12] == ((0, 0), (0, 0))
    assert res[2].characters[S23] == ((0, 0), (0, 0))
    assert res[2].characters[S13] == ((0, 0), (0, 0))
    assert res[0].rank == 6 and res[1].rank == 6 and res[2].rank == 2
    assert k_class_identity(u23_bundle, res)


def test_split_resolution_default_bound(u23_bundle, fano_bundle):
    for bundle in (u23_bundle, fano_bundle):
        res = split_resolution(bundle, check_bound=True)
        assert k_class_identity(bundle, res)


def test_split_resolution_bound_check(u23_bundle):
    with pytest.raises(InvalidBoundError):
        split_resolution(u23_bundle, f=(0, 0, 0), check_bound=True)


@pytest.mark.parametrize("f", [(Fraction(1, 2), 0, 0), (0, 0.5, 0), (0, 0, Fraction(-3, 2))])
def test_split_resolution_refuses_fractional_twists(u23_bundle, f):
    # f = (1/2, 0, 0) gave characters such as (1/2, -3/2), off the lattice
    with pytest.raises(ValidationError, match="is not an integer"):
        split_resolution(u23_bundle, f)
    # integral twists spelled as Fractions or floats are integers
    spelled, plain = (split_resolution(u23_bundle, g)
                      for g in ((Fraction(2, 1), 2.0, 2), (2, 2, 2)))
    assert [p.characters for p in spelled] == [p.characters for p in plain]


def test_k_class_identity_random(p2_fan, p1xp1_fan):
    rng = random.Random(67)
    for fan in (p2_fan, p1xp1_fan):
        for _ in range(3):
            bundle = random_split_bundle(fan, uniform_matroid(2, 4), rng)
            res = split_resolution(bundle)
            assert k_class_identity(bundle, res)
            # and with a nontrivial twist
            res2 = split_resolution(
                bundle, f=tuple(5 for _ in fan.rays)
            )
            assert k_class_identity(bundle, res2)


def test_k_class_data(u23_bundle):
    kc = k_class(u23_bundle)
    assert kc[S12] == ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# random bundles on the line
# ---------------------------------------------------------------------------

def test_three_dimensional_bundle_alpha_equals_chi():
    # rank-2 split bundle on the product of three lines: exercises the
    # three-dimensional refinement and tangent-cone machinery
    from tropehrhart.matroid import circuit_extension

    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    octants = [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    fan = Fan(rays, octants)
    assert fan.is_complete() and fan.is_smooth()
    matroid = uniform_matroid(2, 3)
    rng = random.Random(9)
    basis = frozenset({1, 2})
    rows = []
    for _ in rays:
        coords = {e: rng.randint(-1, 1) for e in basis}
        rows.append(tuple(int(x) for x in circuit_extension(matroid, basis, coords)))
    bundle = validate(fan, matroid, rows)
    chain = bundle.chain_alpha(verify=False)
    lo, hi = bundle.chi_box()
    for u in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        assert chain.evaluate(u) == oracle_chi(bundle, u)


def test_bundle_over_matroid_with_loop(p2_fan):
    from tropehrhart.matroid import Matroid
    from tropehrhart.hrr import hrr_verify

    loopy = Matroid(3, [{1, 2}])  # element 3 is a loop
    bundle = validate(p2_fan, loopy, [(1, 0, 1), (0, 1, 1), (0, 0, 0)])
    assert bundle.rank == 2
    assert bundle.euler_char_total() == bundle.h0_total() == 6
    bundle.chain_alpha()  # pointwise verification against chi built in
    assert hrr_verify(bundle)["equal"]


def test_bundle_over_matroid_with_parallel_elements(p2_fan):
    from tropehrhart.matroid import Matroid
    from tropehrhart.hrr import hrr_verify

    para = Matroid(3, [{1, 3}, {2, 3}])  # 1 and 2 parallel
    bundle = validate(p2_fan, para, [(2, 2, 0), (0, 0, 1), (0, 0, 0)])
    assert bundle.euler_char_total() == bundle.h0_total() == 9
    assert hrr_verify(bundle)["equal"]


def test_random_p1_bundles_alpha_equals_chi(p1_fan):
    rng = random.Random(71)
    for matroid in (uniform_matroid(2, 3), uniform_matroid(2, 4)):
        for _ in range(4):
            bundle = random_p1_bundle(p1_fan, matroid, rng)
            chain = bundle.chain_alpha(verify=False)
            lo, hi = bundle.chi_box()
            for u in range(lo[0], hi[0] + 1):
                assert chain.evaluate((u,)) == oracle_chi(bundle, (u,))


# ---------------------------------------------------------------------------
# validation against the per-cone Fraction route, and twists
# ---------------------------------------------------------------------------

MATROIDS = [
    uniform_matroid(1, 1),
    uniform_matroid(1, 2),
    uniform_matroid(2, 3),
    uniform_matroid(2, 4),
    uniform_matroid(3, 5),
    Matroid(3, [{1, 2}, {1, 3}]),  # 2 and 3 parallel
    Matroid(3, [{1, 2}]),  # 3 a loop
]
ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _outcome(call, *args):
    try:
        return call(*args)
    except BundleValidationError as exc:
        return (type(exc), str(exc), getattr(exc, "row_number", None),
                getattr(exc, "level_set", None), getattr(exc, "cone_rays", None))


@st.composite
def diagrams(draw):
    """A fan, a matroid and a diagram with one row per ray: raw integer
    rows (mostly off the Bergman fan), Bergman rows (mostly without a
    common apartment on some cone), or the rows of a split bundle whose
    basis coordinates are linear, with one entry perhaps moved by one (so
    that it may fail to extend linearly on a non-simplicial cone)."""
    fan = FANS[draw(st.sampled_from(sorted(FANS)))]
    matroid = draw(st.sampled_from(MATROIDS))
    entries = st.integers(-2, 2)
    kind = draw(st.sampled_from(["raw", "bergman", "linear"]))
    if kind != "linear":
        rows = [tuple(draw(entries) for _ in range(matroid.m)) for _ in fan.rays]
        if kind == "bergman":
            rows = [tuple(int(x) for x in bergman_project(matroid, w)) for w in rows]
        return fan, matroid, rows
    basis = draw(st.sampled_from(sorted(matroid.bases, key=sorted)))
    chars = {e: [draw(entries) for _ in range(fan.ambient_dim)] for e in basis}
    coords = [{e: dot(chars[e], v) for e in basis} for v in fan.rays]
    if basis and draw(st.booleans()):
        coords[draw(st.integers(0, len(coords) - 1))][min(basis)] += 1
    return fan, matroid, [
        tuple(int(x) for x in circuit_extension(matroid, basis, c)) for c in coords
    ]


@ORACLE_SETTINGS
@given(diagrams())
def test_validate_equals_the_fraction_route(case):
    fan, matroid, rows = case
    got = _outcome(lambda: validate(fan, matroid, rows).adapted_bases)
    assert got == _outcome(oracle_adapted_bases, fan, matroid, rows)


def test_diagrams_reach_every_verdict():
    seen = set()

    @ORACLE_SETTINGS
    @given(diagrams())
    def collect(case):
        fan, matroid, rows = case
        got = _outcome(oracle_adapted_bases, fan, matroid, rows)
        verdict = "valid" if isinstance(got, dict) else got[0].__name__
        if verdict == "NoCommonApartmentError" and all(
            common_adapted_basis(matroid, [rows[i] for i in key]) is not None
            for key in fan.cone_keys
        ):
            verdict = "not linear on a non-simplicial cone"
        seen.add(verdict)

    collect()
    assert seen == {"valid", "RowNotInBergmanError", "NoCommonApartmentError",
                    "not linear on a non-simplicial cone"}


@ORACLE_SETTINGS
@given(st.sampled_from(sorted(set(FANS) - {"cube"})), st.sampled_from(MATROIDS),
       st.integers(0, 10**6), st.data())
def test_twisting_moves_the_chi_box_and_keeps_chi(name, matroid, seed, data):
    # the twist by w adds <w, v_rho> to every entry of row rho
    fan = FANS[name]
    rng = random.Random(seed)
    if fan.ambient_dim == 1:
        bundle = random_p1_bundle(fan, matroid, rng)
    else:
        bundle = random_bundle(fan, matroid, rng, tries=20)
    w = data.draw(st.lists(st.integers(-1000, 1000), min_size=fan.ambient_dim,
                           max_size=fan.ambient_dim))
    twisted = validate(fan, matroid, [
        tuple(x + dot(w, v) for x in row) for row, v in zip(bundle.diagram, fan.rays)
    ])
    lo, hi = bundle.chi_box()
    shifted = tuple(tuple(x + y for x, y in zip(corner, w)) for corner in (lo, hi))
    assert twisted.chi_box() == shifted
    total = bundle.euler_char_total()
    assert twisted.euler_char_total() == total
    wider = (tuple(x - 3 for x in lo), tuple(x + 3 for x in hi))
    assert bundle.euler_char_total(wider) == total


def test_chi_box_of_a_line_bundle_far_from_the_origin(p2_fan):
    # the triangle x <= 2000, y <= 2000, x + y >= 3997 holds 10 lattice points
    bundle = validate(p2_fan, uniform_matroid(1, 1), [(2000,), (2000,), (-3997,)])
    assert bundle.chi_box() == ((1996, 1996), (2001, 2001))
    assert bundle.euler_char_total() == bundle.h0_total() == 10


# ---------------------------------------------------------------------------
# characters and split resolutions against the per-character solve route
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def _typed(vectors):
    """Vectors with the type of every entry, since 1 == Fraction(1)."""
    return [tuple((type(x), x) for x in u) for u in vectors]


def _linear_split_rows(fan, matroid, rng):
    """The rows of a split bundle whose basis coordinates
    k_e max|v_i| + <w_e, v> are linear on every cone over a face of a cube."""
    basis = rng.choice(sorted(matroid.bases, key=sorted))
    k = {e: rng.randint(-2, 2) for e in basis}
    w = {e: [rng.randint(-2, 2) for _ in range(fan.ambient_dim)] for e in basis}
    return [
        tuple(int(x) for x in circuit_extension(
            matroid, basis, {e: k[e] * max(map(abs, v)) + dot(w[e], v) for e in basis}
        ))
        for v in fan.rays
    ]


@st.composite
def character_bundles(draw, fan):
    """A bundle on the fan.  The cube fan has non-simplicial cones, on which
    random rows rarely extend linearly: its rows are `_linear_split_rows`."""
    matroid = draw(st.sampled_from(MATROIDS))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if all(len(key) == fan.ambient_dim for key in fan.maximal_keys):
        return random_bundle(fan, matroid, rng, tries=20)
    return validate(fan, matroid, _linear_split_rows(fan, matroid, rng))


@pytest.mark.parametrize("name", sorted(CHARACTER_FANS))
def test_characters_and_split_resolutions_equal_the_solve_route(name):
    fan = CHARACTER_FANS[name]
    twists = st.one_of(
        st.none(),
        st.lists(st.integers(-6, 6), min_size=len(fan.rays), max_size=len(fan.rays)),
        st.lists(rationals, min_size=len(fan.rays), max_size=len(fan.rays)),
    )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(character_bundles(fan), twists)
    def check(bundle, f):
        for key in fan.maximal_keys:
            want = oracle_cone_characters(bundle, key)
            assert _typed(bundle._cone_characters(key)) == _typed(want)
            if fan.is_smooth_cone(key):
                assert _typed(bundle.characters(key)) == _typed(want)
        if not fan.is_smooth():
            with pytest.raises(UnsupportedConeError):
                split_resolution(bundle, f)
            return
        if f is not None and any(Fraction(x).denominator != 1 for x in f):
            # characters off the lattice are no split bundle's
            with pytest.raises(ValidationError, match="is not an integer"):
                split_resolution(bundle, f)
            return
        res = split_resolution(bundle, f)
        for piece, want in zip(res, oracle_split_characters(bundle, f), strict=True):
            for tau in fan.maximal_keys:
                assert _typed(piece.characters[tau]) == _typed(want[tau])
        if f is None:
            assert k_class_identity(bundle, res)

    check()


def test_characters_on_a_cone_of_determinant_two():
    fan = CHARACTER_FANS["P(1,1,2)"]
    bundle = validate(fan, uniform_matroid(2, 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    key = frozenset({2, 0})
    assert fan.cone_inverse(key)[3] == 2
    # a ray is a cone too: it keeps itself and its first nonzero column
    assert fan.cone_inverse({0}) == ([0], [0], [(1,)], 1)
    half = Fraction(-1, 2)
    assert _typed(bundle._cone_characters(key)) == _typed(((0, half), (1, half)))
    assert bundle._cone_characters(key) == oracle_cone_characters(bundle, key)
    with pytest.raises(UnsupportedConeError):
        bundle.characters(key)
    # the other two cones are smooth and keep integer characters
    assert bundle.characters(frozenset({0, 1})) == ((0, 1), (1, 0))
    assert bundle.characters(frozenset({1, 2})) == ((-2, 1), (-1, 0))


def test_each_maximal_cone_is_eliminated_once(fano_matroid, monkeypatch):
    # the double description of each cone's dual starts from the inverse
    # that solves the cone's systems, so the fan check, the summation box
    # and the support function invert each of the three cones once
    from tropehrhart import lattice

    calls = []
    real = lattice.inverse
    monkeypatch.setattr(lattice, "inverse", lambda m: calls.append(m) or real(m))
    fan = Fan([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])
    bundle = validate(fan, fano_matroid, FANO_DIAGRAM)
    bundle.chi_box()
    bundle.support_function()
    assert len(calls) == 3


def test_a_refined_fan_inverts_cones_whose_duals_it_was_given(hexagon_fan):
    bundle = random_bundle(hexagon_fan, uniform_matroid(3, 5), random.Random(484))
    fan_r = split_branches(bundle.support_function())[0]
    checked = Fan(fan_r.rays, fan_r.maximal_keys, fan_r.ambient_dim)
    for key in fan_r.maximal_keys:
        cone = fan_r.cone(key)
        assert cone._dual is not None and cone._inverse is None
        # the record the checked copy kept from its double description
        kept = checked.cone(key)._inverse
        assert kept is not None and checked.cone_inverse(key) is kept
        assert fan_r.cone_inverse(key) == kept


def test_smoothness_is_computed_once_per_cone(monkeypatch):
    from tropehrhart import lattice

    fan = Fan([(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [2, 0]])
    bundle = validate(fan, uniform_matroid(1, 1), [(0,), (0,), (0,)])
    calls = []
    real = lattice.cone_is_smooth
    monkeypatch.setattr(lattice, "cone_is_smooth", lambda c: calls.append(c) or real(c))
    for _ in range(3):
        assert not fan.is_smooth()
        assert bundle.characters(frozenset({0, 1})) == ((0, 0),)
        assert bundle.characters(frozenset({1, 2})) == ((0, 0),)
        with pytest.raises(UnsupportedConeError):
            bundle.characters(frozenset({0, 2}))
    # one answer per maximal cone, whichever caller asked first
    assert sorted(c.rays for c in calls) == sorted(
        fan.cone(key).rays for key in fan.maximal_keys
    )


@pytest.mark.parametrize("name", ["P2", "hexagon", "P3"])
def test_barycentric_coordinates_equal_the_solve_route(name):
    # points in simplicial cones read their coordinates off the inverse
    fan = CHARACTER_FANS[name]
    for v in itertools.product(range(-2, 3), repeat=fan.ambient_dim):
        if not any(v):
            continue
        key = min_containing_cone(fan, v)
        cols = list(zip(*(fan.rays[i] for i in sorted(key))))
        want = intify(rref_solve(cols, v))
        assert _typed([fan.coordinates(key, v)]) == _typed([want])


@pytest.mark.parametrize("fan, points", [
    # face centres, in the non-simplicial maximal cones, and edge midpoints,
    # in simplicial cones of no simplicial maximal cone
    (FANS["cube"], [(1, 0, 0), (0, -1, 0), (0, 0, 1), (1, 1, 0), (-1, 0, 1)]),
    # centres of squares, whose 3-d cones are not simplicial, and of facets
    (CUBE4_FAN, [(1, 1, 0, 0), (0, -1, 0, 1), (1, 0, 0, 0)]),
], ids=["cube", "cube4"])
def test_pullback_rows_in_non_simplicial_cones_equal_the_subset_search(fan, points):
    # any coordinates over the smallest cone's rays give the subset search's
    # row, since the adapted coordinates are linear on that cone
    rng = random.Random(61)
    for matroid in (uniform_matroid(2, 3), uniform_matroid(2, 4)):
        for _ in range(3):
            bundle = validate(fan, matroid, _linear_split_rows(fan, matroid, rng))
            refined = fan
            for v in points:
                refined = stellar_subdivision(refined, v)
            pulled = bundle.pullback(refined)
            for i, v in enumerate(refined.rays):
                if v not in fan.rays:
                    assert pulled.diagram[i] == oracle_pullback_row(bundle, v)


@pytest.mark.parametrize("fan", [FANS["cube"], CUBE4_FAN], ids=["cube", "cube4"])
def test_a_perturbed_cube_row_lies_in_no_common_apartment(fan):
    # a line bundle whose values extend linearly on every cone but the ones
    # through the first ray, once that row is moved
    rows = [(dot((1, 2, 3, 4)[:fan.ambient_dim], v),) for v in fan.rays]
    validate(fan, uniform_matroid(1, 1), rows)
    rows[0] = (rows[0][0] + 1,)
    with pytest.raises(NoCommonApartmentError):
        validate(fan, uniform_matroid(1, 1), rows)


# ---------------------------------------------------------------------------
# global sections in the character box
# ---------------------------------------------------------------------------

SECTION_FANS = {**FANS, **CHARACTER_FANS, "cube4": CUBE4_FAN}
SECTION_MATROIDS = [
    Matroid(7, [set(b) for b in itertools.combinations(range(1, 8), 3)
                if set(b) not in FANO_LINES]),
    uniform_matroid(2, 4),
    uniform_matroid(3, 5),
    Matroid(4, [{1, 2}, {1, 3}, {2, 3}]),  # 4 a loop
]
SECTION_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def section_bundles(draw, fan):
    """A bundle on the fan with one of SECTION_MATROIDS; the cube fans take
    `_linear_split_rows`, as in `character_bundles`."""
    matroid = draw(st.sampled_from(SECTION_MATROIDS))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if all(len(key) == fan.ambient_dim for key in fan.maximal_keys):
        return random_bundle(fan, matroid, rng, tries=20)
    return validate(fan, matroid, _linear_split_rows(fan, matroid, rng))


@pytest.mark.parametrize("name", sorted(SECTION_FANS))
def test_parliament_vertices_lie_in_the_unpadded_character_box(name):
    # the lemma of `h0_nonzero`: the parliament of a nonloop lies in the
    # hull of the characters, so inside `chi_box()` shrunk by one
    vertices = []

    @SECTION_SETTINGS
    @given(section_bundles(SECTION_FANS[name]))
    def check(bundle):
        lo, hi = bundle.chi_box()
        for e, p in bundle.parliament().items():
            if e not in bundle.matroid.loops:
                for v in vertex_enumeration(p).vertices:
                    assert all(l + 1 <= x <= h - 1 for x, l, h in zip(v, lo, hi))
                    vertices.append(v)

    check()
    assert vertices


@pytest.mark.parametrize("name", sorted(SECTION_FANS))
def test_h0_nonzero_equals_the_parliament_box_route(name):
    @SECTION_SETTINGS
    @given(section_bundles(SECTION_FANS[name]))
    def check(bundle):
        assert bundle.h0_nonzero() == oracle_h0_nonzero(bundle)

    check()


POINTWISE_FANS = {**SECTION_FANS, "point": POINT_FAN}


@pytest.mark.parametrize("name", sorted(POINTWISE_FANS))
def test_pointwise_reports_equal_the_section_rank_oracle(name):
    # h0_u, chi_u, its codimension totals and one-point `section_values` on
    # random ray sets, against the ranks read off the diagram
    fan = POINTWISE_FANS[name]
    n = len(fan.rays)

    @SECTION_SETTINGS
    @given(section_bundles(fan), st.data())
    def check(bundle, data):
        lo, hi = bundle.chi_box()
        u = tuple(data.draw(st.integers(l - 2, h + 2)) for l, h in zip(lo, hi))
        assert bundle.h0_global(u) == oracle_h0(bundle, u)
        assert bundle.euler_char_by_codim(u) == oracle_chi_by_codim(bundle, u)
        assert bundle.euler_char_u(u) == oracle_chi(bundle, u)
        cones = data.draw(st.lists(st.tuples(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.sampled_from([-1, 1]),
        ), min_size=1, max_size=4))
        cones = [({i for i, x in enumerate(inside) if x}, sign) for inside, sign in cones]
        ((_, values),) = bundle.section_values((u, u), cones)
        assert values.tolist() == [
            sum(sign * oracle_section_rank(bundle, key, u) for key, sign in cones)
        ]

    check()
