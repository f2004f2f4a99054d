"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a PASS line with its timing (visible with pytest -s);
stated time caps are asserted.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from fractions import Fraction

from tropehrhart.chains import (
    ConvexChain,
    SupportNumbers,
    brianchon_gram,
    convolve,
    degree,
    invert_polytope,
    lattice_sum,
)
from tropehrhart.lattice import (
    HPolyhedron,
    refine_by_hyperplanes,
    stellar_subdivision,
    vertex_enumeration,
)
from tropehrhart.hrr import hrr_verify
from tropehrhart.matroid import Matroid, uniform_matroid
from tropehrhart.taut import flag_alternating_sum, vanishing_check
from tropehrhart.tropvb import k_class_identity, split_resolution, validate

from conftest import (
    face_alternating_sum,
    grid_points,
    lattice_points,
    oracle_chi,
    random_bundle,
    random_lattice_polytope,
    random_p1_bundle,
    random_split_bundle,
    taut_chi_u,
    zonotope_support_numbers,
)

S12 = frozenset({0, 1})
S23 = frozenset({1, 2})
S13 = frozenset({0, 2})


def report(criterion, elapsed, detail):
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s)")


def test_criterion_1_fano_totals(fano_bundle):
    start = time.monotonic()
    h0_total = fano_bundle.h0_total()
    chi_total = fano_bundle.euler_char_total()
    alpha = fano_bundle.chain_alpha(verify=False)
    lo, hi = fano_bundle.chi_box()
    wider = (tuple(x - 1 for x in lo), tuple(x + 1 for x in hi))
    alpha_total = lattice_sum(alpha, wider)
    elapsed = time.monotonic() - start
    assert h0_total == 27
    assert chi_total == 27
    assert alpha_total == 27
    assert elapsed < 5.0
    report(1, elapsed, "Fano bundle: sum h0 = chi = S(alpha) = 27")


def test_criterion_2_fano_parliament_branches(fano_bundle):
    start = time.monotonic()
    from tropehrhart.chains import split_branches

    fan_r, branches = split_branches(fano_bundle.support_function())
    box = ((-7, -7), (7, 7))
    sums = [lattice_sum(brianchon_gram(sn), box) for sn in branches]
    # the two convex branches are honest polytopes
    p2 = vertex_enumeration(
        HPolyhedron(list(zip(fan_r.rays, branches[1].values)))
    )
    p3 = vertex_enumeration(
        HPolyhedron(list(zip(fan_r.rays, branches[2].values)))
    )
    elapsed = time.monotonic() - start
    assert len(lattice_points(p2)) == 10 and sums[1] == 10
    assert len(lattice_points(p3)) == 19 and sums[2] == 19
    assert sums[0] == -2
    assert sum(sums) == 27
    report(2, elapsed, "branch sums (-2, 10, 19) as in the worked example")


def test_criterion_3_chi_equals_alpha_pointwise(fano_bundle, u23_bundle,
                                                p1_fan, p2_fan, p1xp1_fan):
    start = time.monotonic()
    rng = random.Random(2024)
    bundles = [fano_bundle, u23_bundle]
    for _ in range(8):
        matroid = rng.choice([uniform_matroid(2, 3), uniform_matroid(2, 4)])
        bundles.append(random_p1_bundle(p1_fan, matroid, rng))
    for _ in range(6):
        matroid = rng.choice([uniform_matroid(2, 3), uniform_matroid(2, 4)])
        bundles.append(random_bundle(p2_fan, matroid, rng))
    for _ in range(6):
        matroid = rng.choice([uniform_matroid(2, 3), uniform_matroid(2, 4)])
        bundles.append(random_bundle(p1xp1_fan, matroid, rng))
    assert len(bundles) >= 22
    for bundle in bundles:
        bundle.euler_char_total()  # margin check: the box is verified
        chain = bundle.chain_alpha(verify=False)
        lo, hi = bundle.chi_box()
        for u in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            assert chain.evaluate(u) == oracle_chi(bundle, u)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, elapsed, f"chi = alpha pointwise for {len(bundles)} bundles")


def test_criterion_4_pullback_invariance(fano_bundle, u23_bundle,
                                         p2_fan, p1xp1_fan):
    start = time.monotonic()
    p2_refinements = [
        stellar_subdivision(p2_fan, (1, 1)),
        refine_by_hyperplanes(p2_fan, [(1, -1)]),
        refine_by_hyperplanes(p2_fan, [(1, 0), (0, 1), (1, -1)]),
        stellar_subdivision(stellar_subdivision(p2_fan, (1, 1)), (1, 2)),
    ]
    rng = random.Random(404)
    cases = [(fano_bundle, p2_refinements), (u23_bundle, p2_refinements)]
    pxp_refinements = [
        stellar_subdivision(p1xp1_fan, (1, 1)),
        refine_by_hyperplanes(p1xp1_fan, [(1, -1)]),
        refine_by_hyperplanes(p1xp1_fan, [(1, 1), (1, -1)]),
    ]
    cases.append(
        (random_split_bundle(p1xp1_fan, uniform_matroid(2, 3), rng),
         pxp_refinements)
    )
    for bundle, refinements in cases:
        assert len(refinements) >= 3
        for refined in refinements:
            pulled = bundle.pullback(refined)
            for u in grid_points(2, 4):
                assert pulled.euler_char_u(u) == oracle_chi(bundle, u)
    elapsed = time.monotonic() - start
    report(4, elapsed, "chi invariant under stellar and hyperplane pull-backs")


def test_criterion_5_split_resolution(u23_bundle, p2_fan, p1xp1_fan):
    start = time.monotonic()
    res = split_resolution(u23_bundle, f=(0, 0, 0))
    assert res[0].characters[S12] == (
        (0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0)
    )
    assert res[1].characters[S12] == (
        (0, 0), (0, 0), (0, 0), (0, 0), (0, 1), (1, 0)
    )
    for tau in (S12, S23, S13):
        assert res[2].characters[tau] == ((0, 0), (0, 0))
    assert k_class_identity(u23_bundle, res)

    rng = random.Random(505)
    matroids = [uniform_matroid(2, 3), uniform_matroid(2, 4), uniform_matroid(1, 2)]
    for i in range(10):
        fan = p2_fan if i % 2 == 0 else p1xp1_fan
        bundle = random_bundle(fan, rng.choice(matroids), rng)
        assert k_class_identity(bundle, split_resolution(bundle))
    elapsed = time.monotonic() - start
    report(5, elapsed, "worked-example multisets and 10 random K-class identities")


def test_criterion_6_hrr(fano_bundle, u23_bundle, p1_fan):
    start = time.monotonic()
    for d in range(6):
        bundle = validate(p1_fan, uniform_matroid(1, 1), [(d,), (0,)])
        result = hrr_verify(bundle)
        assert result["equal"] and result["lhs"] == d + 1
    result = hrr_verify(u23_bundle)
    assert result["equal"]
    result = hrr_verify(fano_bundle)
    assert result["equal"] and result["lhs"] == Fraction(27)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, elapsed, "Todd(d/dz) I(alpha[z]) at 0 equals chi on all cases")


def test_criterion_7_tautological_vanishing(u23_matroid):
    start = time.monotonic()
    matroids = []
    for m in range(1, 6):
        for r in range(1, m + 1):
            matroids.append(uniform_matroid(r, m))
    assert len(matroids) == 15
    non_uniform = [
        Matroid(4, [{1, 2}]),                                    # two loops
        Matroid(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]),    # 1 || 2
        Matroid(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}]),            # U12 + U12
        Matroid(5, [set(b) | {e}
                    for b in [{1, 2}, {1, 3}, {2, 3}]
                    for e in (4, 5)]),                           # U23 + U12
        Matroid(5, list(itertools.combinations(range(1, 5), 2))),  # loop at 5
    ]
    for matroid in matroids + non_uniform:
        rep = vanishing_check(matroid)
        assert rep["all_equal"], matroid
    result = taut_chi_u(u23_matroid, (1, 0, 0))
    assert list(result.by_codim) == [10, 11, 2]
    assert result.value == 1 and result.flag_formula == 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(7, elapsed, f"vanishing on {len(matroids) + len(non_uniform)} matroids, "
                       "decomposition 10 - 11 + 2 = 1")


def test_criterion_8_chain_algebra_suite(hexagon_fan):
    start = time.monotonic()
    rng = random.Random(808)

    # Minkowski inversion: 1_P * (1_P)^{-1} = 1_{0} on 50 random polytopes
    dims = [1] * 20 + [2] * 15 + [3] * 15
    for dim in dims:
        p = random_lattice_polytope(rng, dim, spread=1, npoints=4)
        conv = convolve(ConvexChain([(1, p)]), invert_polytope(p))
        for u in grid_points(dim, 3):
            assert conv.evaluate(u) == (1 if all(x == 0 for x in u) else 0)

    # Brianchon-Gram equals the honest indicator for 50 convex support vectors
    for _ in range(50):
        values = zonotope_support_numbers(hexagon_fan, rng)
        chain = brianchon_gram(SupportNumbers(hexagon_fan, values))
        poly = vertex_enumeration(
            HPolyhedron(list(zip(hexagon_fan.rays, values)))
        )
        radius = max(
            int(max(abs(x) for x in v)) for v in poly.vertices
        ) + 1 if poly.vertices else 1
        for u in grid_points(2, radius):
            assert chain.evaluate(u) == (1 if poly.contains(u) else 0)

    # degree is multiplicative under convolution on 100 random pairs
    for _ in range(100):
        a = ConvexChain([
            (rng.randint(-2, 2), random_lattice_polytope(rng, 2, npoints=3))
            for _ in range(2)
        ])
        b = ConvexChain([
            (rng.randint(-2, 2), random_lattice_polytope(rng, 2, npoints=3))
            for _ in range(2)
        ])
        assert degree(convolve(a, b)) == degree(a) * degree(b)

    # bounded/unbounded face sums on 50 random polyhedra
    bounded = unbounded = 0
    while bounded + unbounded < 50:
        dim = rng.choice([1, 2, 3])
        p = random_lattice_polytope(rng, dim, npoints=dim + 2)
        ineqs, eqs = p.hrep()
        if rng.random() < 0.5 and len(ineqs) > 1:
            ineqs = ineqs[:-1]  # likely opens a recession direction
        poly = HPolyhedron(ineqs, eqs, dim)
        verts, rays, lin = poly.generators()
        if lin or not verts:
            continue
        value = face_alternating_sum(poly)
        if rays:
            assert value == 0
            unbounded += 1
        else:
            assert value == 1
            bounded += 1
    assert bounded > 0 and unbounded > 0
    elapsed = time.monotonic() - start
    report(8, elapsed, "inversion, Brianchon-Gram, degree and face-sum checks")


def test_criterion_9_flag_lemma():
    start = time.monotonic()
    for m in range(1, 7):
        assert flag_alternating_sum(m) == (-1) ** m
    elapsed = time.monotonic() - start
    report(9, elapsed, "flag alternating sum equals (-1)^m for m = 1..6")
