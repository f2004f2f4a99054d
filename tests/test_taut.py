import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropehrhart.errors import BoxTooLargeError, ValidationError
from tropehrhart.linalg import rank
from tropehrhart.matroid import Matroid, uniform_matroid
from tropehrhart.taut import (
    CHUNK,
    _chains_below,
    _closure_rows,
    _orbit_sizes,
    _slice_box,
    _sweep,
    _symmetry_classes,
    flag_alternating_sum,
    vanishing_check,
)

from conftest import (
    _chains_of_masks,
    enumerated_flag_sum,
    in_lifted_bergman,
    maximal_flags,
    oracle_rank,
    permutahedral_fan,
    taut_chi_u,
    taut_h0_global,
    taut_h0_local,
    tautological_bundle,
)


# ---------------------------------------------------------------------------
# the permutahedral fan (the flag model of the tests)
# ---------------------------------------------------------------------------

def test_fan_counts_m3():
    fan = permutahedral_fan(3)
    assert len(fan.ray_masks) == 6
    assert len(maximal_flags(fan)) == 6
    assert fan.num_cones() == 13


def test_fan_counts_m2():
    fan = permutahedral_fan(2)
    assert len(fan.ray_masks) == 2
    assert len(maximal_flags(fan)) == 2


def test_fan_counts_m4():
    assert len(maximal_flags(permutahedral_fan(4))) == 24


def test_fan_codim():
    fan = permutahedral_fan(3)
    assert fan.codim(()) == 2
    assert fan.codim((frozenset({1}),)) == 1
    assert fan.codim((frozenset({1}), frozenset({1, 2}))) == 0


def test_fan_cap():
    for m in (-1, 0, 8):  # the message names the range, on either side of it
        with pytest.raises(ValidationError, match=r"^flag enumeration supported for m in 1\.\.7$"):
            flag_alternating_sum(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_ray_masks_are_the_flags_of_length_one(m):
    fan = permutahedral_fan(m)
    assert list(fan.ray_masks) == [c[0] for c in fan.chains if len(c) == 1]


def test_bundle_builds_no_flags():
    # the flag model lives in the tests: the package counts chains by the
    # subset DP and reads the diagram rows off the rank table
    import tropehrhart.taut as taut

    assert not hasattr(taut, "_chains_of_masks")
    assert _closure_rows(uniform_matroid(3, 7)).shape == (2 ** 7 - 2, 7, 1)


# ---------------------------------------------------------------------------
# the flag lemma, and the signed-chain DP against the enumeration
# ---------------------------------------------------------------------------

def test_flag_alternating_sum():
    for m in range(1, 8):
        assert flag_alternating_sum(m) == (-1) ** m


def test_flag_sum_small_by_hand():
    # m = 2: flags ending at {1,2} are ({12}), ({1},{12}), ({2},{12})
    assert flag_alternating_sum(2) == -1 + 1 + 1
    assert flag_alternating_sum(1) == -1


def _enumerated_chains_below(m, allowed):
    """Row S: the sum of (-1)^k over the enumerated chains T_1 < ... < T_k
    < S of nonempty subsets with allowed[T_i]; row 0 is 0."""
    by_last = Counter()
    for chain in _chains_of_masks(m):
        if chain and all(allowed[t] for t in chain):
            by_last[chain[-1]] += (-1) ** len(chain)
    return [0] + [
        1 + sum(c for t, c in by_last.items() if t & s == t and t != s)
        for s in range(1, 1 << m)
    ]


@pytest.mark.parametrize("m", range(1, 8))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_chains_below_equals_the_enumeration(m, data):
    # column 0 allows every subset, the flag sum; the others are drawn
    drawn = data.draw(st.lists(
        st.lists(st.booleans(), min_size=1 << m, max_size=1 << m),
        min_size=1, max_size=3))
    allowed = np.array([[True] * (1 << m)] + drawn).T
    B = _chains_below(allowed)
    for j in range(allowed.shape[1]):
        assert B[:, j].tolist() == _enumerated_chains_below(m, allowed[:, j])
    assert -B[-1, 0] == enumerated_flag_sum(m) == flag_alternating_sum(m)


# ---------------------------------------------------------------------------
# the tautological diagram
# ---------------------------------------------------------------------------

def _rows(matroid):
    """The rows of `_closure_rows`, keyed by subset as the oracle's are."""
    return {
        Matroid.elements(mask): tuple(row[:, 0].tolist())
        for mask, row in enumerate(_closure_rows(matroid), 1)
    }


def test_u23_diagram_rows(u23_matroid):
    rows = _rows(u23_matroid)
    assert rows[frozenset({1})] == (1, 0, 0)
    assert rows[frozenset({2})] == (0, 1, 0)
    assert rows[frozenset({3})] == (0, 0, 1)
    # two-element subsets span everything in the rank-2 uniform matroid
    assert rows[frozenset({1, 2})] == (1, 1, 1)
    assert rows[frozenset({1, 3})] == (1, 1, 1)
    assert rows[frozenset({2, 3})] == (1, 1, 1)


def test_fano_diagram_row_is_line(fano_matroid):
    # closure of {y1, y2} is the side line {y1, y2, z3}
    assert _rows(fano_matroid)[frozenset({1, 2})] == (1, 1, 0, 0, 0, 1, 0)


def test_loop_column_is_all_ones():
    loopy = Matroid(3, [{1, 2}])  # 3 is a loop
    assert all(row[2] == 1 for row in _rows(loopy).values())


def test_diagram_rows_are_bergman_points(u23_matroid, fano_matroid):
    for matroid in (u23_matroid, fano_matroid, Matroid(3, [{1, 2}])):
        rows = _rows(matroid)
        assert rows == tautological_bundle(matroid).rows
        for row in rows.values():
            assert in_lifted_bergman(matroid, row)


def test_characters_are_adapted_basis_indicators(u23_matroid):
    bundle = tautological_bundle(u23_matroid)
    flag = (frozenset({1}), frozenset({1, 2}))
    assert bundle.adapted_basis(flag) == frozenset({1, 2})
    assert bundle.characters(flag) == ((1, 0, 0), (0, 1, 0))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def test_h0_global_u23(u23_matroid):
    assert taut_h0_global(u23_matroid, (1, 0, 0)) == 1
    assert taut_h0_global(u23_matroid, (0, 1, 0)) == 1
    assert taut_h0_global(u23_matroid, (1, 1, -1)) == 0


def test_h0_global_loop():
    loopy = Matroid(3, [{1, 2}])
    assert taut_h0_global(loopy, (0, 0, 1)) == 0
    assert taut_h0_global(loopy, (1, 0, 0)) == 1


def test_h0_global_requires_slice(u23_matroid):
    with pytest.raises(ValidationError):
        taut_h0_global(u23_matroid, (1, 1, 0))


def test_h0_local_u23(u23_matroid):
    flag = ({1}, {1, 2})
    assert taut_h0_local(u23_matroid, flag, (1, 0, 0)) == 1
    assert taut_h0_local(u23_matroid, flag, (0, 0, 1)) == 2
    # a pairing above one kills the chart sections
    assert taut_h0_local(u23_matroid, ({1, 2},), (1, 1, -1)) == 0


def test_h0_local_totals_u23(u23_matroid):
    # totals entering the worked Euler characteristic at e_1
    fan = permutahedral_fan(3)
    e1 = (1, 0, 0)
    maximal = sum(
        taut_h0_local(u23_matroid, flag, e1) for flag in maximal_flags(fan)
    )
    rays = sum(
        taut_h0_local(u23_matroid, flag, e1)
        for flag in fan.flags()
        if len(flag) == 1
    )
    zero = taut_h0_local(u23_matroid, (), e1)
    assert (maximal, rays, zero) == (10, 11, 2)


# ---------------------------------------------------------------------------
# Euler characteristic, two routes
# ---------------------------------------------------------------------------

def test_chi_u23_decomposition(u23_matroid):
    result = taut_chi_u(u23_matroid, (1, 0, 0))
    assert result.value == 1
    assert result.flag_formula == 1
    assert list(result.by_codim) == [10, 11, 2]
    assert result.equal


def test_chi_u23_off_support(u23_matroid):
    result = taut_chi_u(u23_matroid, (1, 1, -1))
    assert result.value == 0 and result.flag_formula == 0


def test_chi_m2():
    u12 = uniform_matroid(1, 2)
    result = taut_chi_u(u12, (1, 0))
    assert result.value == 1 and result.equal


def test_chi_paths_agree_on_box():
    for matroid in (uniform_matroid(1, 2), uniform_matroid(2, 3),
                    uniform_matroid(2, 4), Matroid(3, [{1, 2}])):
        m = matroid.m
        for u in itertools.product(range(-m, m + 1), repeat=m):
            if sum(u) != 1:
                continue
            result = taut_chi_u(matroid, u)
            assert result.equal, (matroid, u)


def test_chi_paths_agree_sampled_m5():
    rng = random.Random(101)
    matroid = uniform_matroid(3, 5)
    count = 0
    while count < 12:
        u = [rng.randint(-2, 2) for _ in range(5)]
        if sum(u) != 1:
            continue
        assert taut_chi_u(matroid, tuple(u)).equal
        count += 1


# ---------------------------------------------------------------------------
# vanishing
# ---------------------------------------------------------------------------

def test_vanishing_u23(u23_matroid):
    report = vanishing_check(u23_matroid)
    assert report["all_equal"] and report["failures"] == []


def test_vanishing_uniform_m4():
    for r in (1, 2, 3, 4):
        assert vanishing_check(uniform_matroid(r, 4))["all_equal"]


def test_vanishing_with_loops_and_parallel():
    loopy = Matroid(4, [{1, 2}])  # loops 3, 4
    assert vanishing_check(loopy)["all_equal"]
    parallel = Matroid(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
    assert vanishing_check(parallel)["all_equal"]


def test_vanishing_sweep_matches_pointwise(u23_matroid):
    # the vectorized sweep must agree with the per-character routes
    report = vanishing_check(u23_matroid, max_coord=2)
    assert report["all_equal"]
    for u in itertools.product(range(-2, 3), repeat=3):
        if sum(u) != 1:
            continue
        assert taut_chi_u(u23_matroid, u).value == taut_h0_global(u23_matroid, u)


# ---------------------------------------------------------------------------
# the streamed subset-DP sweep against the per-flag-chain oracle
# ---------------------------------------------------------------------------

def _product_box(m, bound):
    """The slice box by its definition, in itertools.product order."""
    return np.array(
        [u for u in itertools.product(range(-bound, bound + 1), repeat=m)
         if sum(u) == 1],
        dtype=np.int64,
    ).reshape(-1, m)


def _chain_sweep(matroid, U):
    """chi and h0 over the rows of U, one numpy pass per flag chain."""
    m = matroid.m
    bundle = tautological_bundle(matroid)
    full = (1 << m) - 1
    subset_cols = np.zeros((m, full + 1), dtype=np.int64)
    for mask in range(1, full + 1):
        for i in range(m):
            if mask >> i & 1:
                subset_cols[i, mask] = 1
    sums = U @ subset_cols  # (N, 2^m) pairings with every e_S

    rank_of = np.zeros(full + 1, dtype=np.int64)
    for mask in range(full + 1):
        rank_of[mask] = oracle_rank(matroid.bases, Matroid.elements(mask))

    n_pts = U.shape[0]
    chi = np.zeros(n_pts, dtype=np.int64)
    r_total = matroid.rank_total
    for chain in _chains_of_masks(m):
        codim = m - 1 - len(chain)
        sign = -1 if codim % 2 else 1
        over = np.zeros(n_pts, dtype=bool)
        found = np.zeros(n_pts, dtype=bool)
        first_rank = np.full(n_pts, r_total, dtype=np.int64)  # hit at G
        for mask in chain:
            p = sums[:, mask]
            hit = (~found) & (p == 1)
            first_rank[hit] = rank_of[mask]
            found |= hit
            over |= p >= 2
        h0 = np.where(over, 0, first_rank)
        chi += sign * h0

    # parliament membership per element: u in P_e iff every subset pairing
    # is at most the closure-indicator entry of e
    member_mask = np.zeros(n_pts, dtype=np.int64)
    for e in range(1, m + 1):
        ok = np.ones(n_pts, dtype=bool)
        for mask in bundle.fan.ray_masks:
            row = bundle.rows[Matroid.elements(mask)]
            ok &= sums[:, mask] <= row[e - 1]
        member_mask += ok.astype(np.int64) << (e - 1)
    h0 = rank_of[member_mask]
    return chi, h0


def _singletons(m):
    return tuple((i,) for i in range(m))


def _streamed(matroid, bound):
    blocks = list(_sweep(matroid, _slice_box(matroid.m, bound, _singletons(matroid.m))))
    return tuple(np.concatenate([b[i] for b in blocks]) for i in range(3))


def _assert_matches_oracle(matroid, bound):
    U, chi, h0 = _streamed(matroid, bound)
    want_chi, want_h0 = _chain_sweep(matroid, U)
    assert np.array_equal(chi, want_chi), (matroid, bound)
    assert np.array_equal(h0, want_h0), (matroid, bound)


def _all_ranks(m):
    yield Matroid(m, [frozenset()])  # rank zero: every element a loop
    for r in range(1, m + 1):
        yield uniform_matroid(r, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sweep_matches_chain_oracle_uniform(m):
    for matroid in _all_ranks(m):
        _assert_matches_oracle(matroid, max(m, 2))


def test_sweep_matches_chain_oracle_non_uniform():
    for matroid in (
        Matroid(4, [{1, 2}]),                                    # two loops
        Matroid(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]),    # 1 || 2
        Matroid(4, [{1, 3}, {1, 4}, {2, 3}, {2, 4}]),            # U12 + U12
        Matroid(5, [set(b) | {e}
                    for b in [{1, 2}, {1, 3}, {2, 3}]
                    for e in (4, 5)]),                           # U23 + U12
        Matroid(5, list(itertools.combinations(range(1, 5), 2))),  # loop at 5
    ):
        _assert_matches_oracle(matroid, max(matroid.m, 2))


def test_sweep_matches_chain_oracle_m6():
    for r in (2, 3):
        _assert_matches_oracle(uniform_matroid(r, 6), 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_slice_box_matches_product_order(m):
    bounds = {2, 3} | ({max(m, 2)} if m <= 5 else set())
    for bound in sorted(bounds):
        blocks = list(_slice_box(m, bound, _singletons(m)))
        assert all(b.shape[0] == CHUNK for b in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), _product_box(m, bound))


def test_sweep_with_partial_last_chunk():
    matroid = uniform_matroid(2, 5)
    points = _product_box(5, 5).shape[0]
    assert points > CHUNK and points % CHUNK != 0
    blocks = list(_slice_box(5, 5, _singletons(5)))
    assert blocks[-1].shape[0] == points % CHUNK
    _assert_matches_oracle(matroid, 5)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@pytest.mark.parametrize("classes", [
    ((0,), (1,), (2,), (3,)),
    ((0, 1, 2, 3),),
    ((0, 2), (1, 3)),
    ((0, 3, 4), (1,), (2,)),
])
def test_rows_with_more_values_than_a_block_grow_in_windows(
        classes, chunk, monkeypatch):
    # with blocks of at most 5 points the first row of a batch often has
    # more values than a block holds; the stream and its blocks stay those
    # of the product order
    import tropehrhart.taut as taut

    m = sum(len(c) for c in classes)
    for bound in (2, 3):
        want = np.concatenate(list(_slice_box(m, bound, classes)))
        monkeypatch.setattr(taut, "CHUNK", chunk)
        blocks = list(_slice_box(m, bound, classes))
        monkeypatch.undo()
        assert all(b.shape[0] == chunk for b in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), want)


def test_slice_box_memory_does_not_grow_with_the_bound():
    # a bound of 10**6 gives 2 * 10**6 + 1 values of the first coordinate,
    # and of the second after it; the first blocks hold the first points in
    # lexicographic order, (-b, k, b + 1 - k) for k = 1, 2, ...
    import tracemalloc

    bound = 10**6
    tracemalloc.start()
    try:
        blocks = _slice_box(3, bound, _singletons(3))
        first = [next(blocks) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    k = np.arange(1, 3 * CHUNK + 1)
    want = np.stack([np.full_like(k, -bound), k, bound + 1 - k], axis=1)
    assert np.array_equal(np.concatenate(first), want)


def test_vanishing_refuses_a_bound_beyond_int64_before_the_sweep(monkeypatch):
    import tropehrhart.taut as taut

    def no_arrays(*args):
        raise AssertionError("the sweep started")

    matroid = uniform_matroid(2, 3)
    top = (2**63 - 2) // 6  # the largest bound with 2 * 3 * bound + 1 in int64
    monkeypatch.setattr(taut, "_symmetry_classes", no_arrays)
    for bound in (top + 1, 2**62, 3074457345618258602):
        with pytest.raises(BoxTooLargeError):
            vanishing_check(matroid, max_coord=bound)
    monkeypatch.undo()
    # the largest bound is swept exactly: its first points, far out, carry
    # no sections and chi 0
    U, chi, h0 = next(_sweep(matroid, _slice_box(3, top, _singletons(3))))
    assert U[:2].tolist() == [[-top, 1, top], [-top, 2, top - 1]]
    assert (U.sum(axis=1) == 1).all() and (np.abs(U) <= top).all()
    assert not chi.any() and not h0.any()


def test_vanishing_refuses_a_ground_set_above_the_cap_before_the_sweep(monkeypatch):
    import tropehrhart.taut as taut

    def no_arrays(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(taut, "_symmetry_classes", no_arrays)
    with pytest.raises(ValidationError, match=r"^tautological bundles supported for m <= 7$"):
        vanishing_check(uniform_matroid(2, 8))


def test_vanishing_rejects_box_below_two(u23_matroid):
    for bound in (1, 0, -1):
        with pytest.raises(ValidationError):
            vanishing_check(u23_matroid, max_coord=bound)


def test_vanishing_reports_first_failures_across_chunks(monkeypatch):
    # a sweep that disagrees everywhere: the report must list the first 20
    # points in box order and flag the shell, whatever the block boundaries
    import tropehrhart.taut as taut

    def disagreeing(matroid, blocks):
        for U in blocks:
            yield U, np.zeros(U.shape[0], dtype=np.int64), np.ones(U.shape[0], dtype=np.int64)

    monkeypatch.setattr(taut, "CHUNK", 7)
    monkeypatch.setattr(taut, "_sweep", disagreeing)
    report = vanishing_check(uniform_matroid(2, 4), max_coord=2)
    box = _product_box(4, 2)
    assert report["points"] == box.shape[0]
    assert report["failures"] == [tuple(int(x) for x in u) for u in box[:20]]
    assert not report["shell_ok"] and not report["all_equal"]


# ---------------------------------------------------------------------------
# one point per orbit of the transposition symmetries, against the full box
# ---------------------------------------------------------------------------

def _full_report(matroid, bound, sweep=_sweep):
    """The vanishing report by the whole box, one point at a time: the
    singleton-class stream (the box itself, pinned to itertools.product
    order above) swept and folded with weight 1."""
    points, shell_ok, mismatches, failures = 0, True, 0, []
    box = _slice_box(matroid.m, bound, _singletons(matroid.m))
    for U, chi, h0 in sweep(matroid, box):
        points += U.shape[0]
        on_shell = (np.abs(U) == bound).any(axis=1)
        shell_ok = shell_ok and not (chi[on_shell].any() or h0[on_shell].any())
        bad = np.nonzero(chi != h0)[0]
        mismatches += bad.size
        failures += [tuple(int(x) for x in U[i]) for i in bad[: 20 - len(failures)]]
    return {
        "m": matroid.m,
        "max_coord": bound,
        "points": points,
        "shell_ok": shell_ok,
        "all_equal": mismatches == 0 and shell_ok,
        "failures": failures,
    }


def _column_matroid(cols):
    """The matroid of the columns `cols` (rank zero when all are zero)."""
    m, r = len(cols), rank(cols)
    if r == 0:
        return Matroid(m, [frozenset()])
    return Matroid(m, [
        frozenset(b) for b in itertools.combinations(range(1, m + 1), r)
        if rank([cols[e - 1] for e in b]) == r
    ])


@st.composite
def column_matroids(draw):
    """Column matroids of small integer matrices whose columns repeat a few
    drawn vectors: zero columns are loops, repeated columns parallel
    classes, a column off the span of the others a coloop, and columns in
    general position a uniform block, in any order of the ground set."""
    m = draw(st.integers(1, 6))
    r = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-1, 1), min_size=r, max_size=r)
    pool = draw(st.lists(vectors, min_size=1, max_size=m))
    return _column_matroid([draw(st.sampled_from(pool)) for _ in range(m)])


TAUT_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def _brute_force_classes(matroid):
    """Classes of the transpositions fixing every rank, by oracle_rank."""
    m = matroid.m

    def fixes(i, j):
        swap = {i + 1: j + 1, j + 1: i + 1}
        return all(
            oracle_rank(matroid.bases, s)
            == oracle_rank(matroid.bases, {swap.get(e, e) for e in s})
            for k in range(m + 1)
            for s in itertools.combinations(range(1, m + 1), k)
        )

    classes = []
    for i in range(m):
        home = next((c for c in classes if all(fixes(j, i) for j in c)), None)
        if home is None:
            classes.append([i])
        else:
            home.append(i)
    return tuple(tuple(c) for c in classes)


@TAUT_SETTINGS
@given(column_matroids(), st.sampled_from([2, 3]))
def test_orbit_report_equals_full_box_report(matroid, bound):
    assert vanishing_check(matroid, bound) == _full_report(matroid, bound)


@TAUT_SETTINGS
@given(column_matroids())
def test_symmetry_classes_equal_brute_force(matroid):
    assert _symmetry_classes(matroid) == _brute_force_classes(matroid)


def test_symmetry_classes_by_hand(fano_matroid):
    assert _symmetry_classes(fano_matroid) == _singletons(7)
    assert _symmetry_classes(uniform_matroid(3, 7)) == (tuple(range(7)),)
    # {1, 3} and {2, 4} parallel pairs: U(1,2) + U(1,2), interleaved
    assert _symmetry_classes(Matroid(4, [{1, 2}, {1, 4}, {3, 2}, {3, 4}])) == (
        (0, 2), (1, 3))


@pytest.mark.parametrize("classes", [
    ((0,), (1,), (2,), (3,), (4,)),
    ((0, 1, 2, 3, 4),),
    ((0, 2), (1, 3), (4,)),
    ((0, 3, 4), (1,), (2, 5)),
    ((0, 5), (1, 2, 3, 4)),
])
def test_orbit_stream_equals_sorted_box(classes, monkeypatch):
    # the stream is the box's points that are nondecreasing within every
    # class, in product order and blocks of CHUNK, each counting its orbit
    import tropehrhart.taut as taut

    monkeypatch.setattr(taut, "CHUNK", 7)
    m = sum(len(c) for c in classes)
    for bound in (2, 3):
        orbits = Counter()
        for u in _product_box(m, bound):
            key = list(u)
            for c in classes:
                for i, x in zip(c, sorted(u[list(c)])):
                    key[i] = int(x)
            orbits[tuple(key)] += 1
        blocks = list(_slice_box(m, bound, classes))
        assert all(b.shape[0] == 7 for b in blocks[:-1])
        assert all(b.dtype == np.int64 for b in blocks)
        rows = np.concatenate(blocks)
        assert [tuple(int(x) for x in u) for u in rows] == sorted(orbits)
        assert _orbit_sizes(rows, classes).tolist() == [
            orbits[tuple(int(x) for x in u)] for u in rows]


@pytest.mark.parametrize("matroid", [
    uniform_matroid(2, 4),
    Matroid(4, [{1, 2}, {1, 4}, {3, 2}, {3, 4}]),  # classes (0, 2), (1, 3)
    Matroid(5, [set(b) | {e} for b in [{1, 2}, {1, 3}, {2, 3}] for e in (4, 5)]),
])
def test_vanishing_reports_first_failures_of_symmetric_perturbation(
        matroid, monkeypatch):
    # a sweep that disagrees wherever max(u) = 2, a permutation-invariant
    # condition: failing orbits are expanded back to the box's first points
    import tropehrhart.taut as taut

    def perturbed(matroid, blocks):
        for U in blocks:
            yield U, np.zeros(U.shape[0], dtype=np.int64), (U.max(axis=1) == 2).astype(np.int64)

    monkeypatch.setattr(taut, "CHUNK", 3)
    monkeypatch.setattr(taut, "_sweep", perturbed)
    box = _product_box(matroid.m, 3)
    report = vanishing_check(matroid, max_coord=3)
    assert report["points"] == box.shape[0]
    assert report["failures"] == [
        tuple(int(x) for x in u) for u in box if u.max() == 2][:20]
    assert not report["shell_ok"] and not report["all_equal"]
    assert report == _full_report(matroid, 3, perturbed)


def _slice_count(m, bound):
    """Integer points of [-bound, bound]^m with sum 1, by a DP on sums."""
    counts = {0: 1}
    for _ in range(m):
        grown = Counter()
        for total, n in counts.items():
            for x in range(-bound, bound + 1):
                grown[total + x] += n
        counts = grown
    return counts[1]


def test_vanishing_u37_default_box():
    report = vanishing_check(uniform_matroid(3, 7))
    assert report["max_coord"] == 7
    assert report["points"] == _slice_count(7, 7) == 5_812_380
    assert report["all_equal"] and report["failures"] == []
