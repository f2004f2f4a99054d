"""Tautological bundle of a matroid on the permutahedral toric variety.

The cones of the permutahedral fan on m letters are the flags of nonempty
proper subsets of {1..m} (the empty flag is the zero cone, complete flags
are the maximal cones); the ray of a subset S has generator e_S, and the
codimension of a flag with k entries is m - 1 - k.  The fan is never built:
every quantity here is a signed count of chains of subsets, and one subset
DP, `_chains_below`, computes those counts for all subsets at once.
`flag_alternating_sum` is that DP with every subset allowed; the sweep
below runs it with the subsets of pairing <= 0 allowed.

The tautological bundle's diagram row for the ray e_S is the indicator
vector of the closure of S, read off the rank table (the paper's worked
table lists the raw subset indicators, but those rows are not Bergman
points; the closure rows are, and ranks, sections and Euler characteristics
are unchanged).  Character sums are restricted to the slice
{u : sum u_j = 1}, which carries all sections.

The vanishing check sweeps the slice box {sum u = 1, |u_i| <= b}, one point
per orbit of the group generated by the transpositions (i j) that fix the
matroid's rank table.  The bundle is equivariant for these automorphisms
(Berget-Eur-Spink-Tseng), so chi_u and h0_u are constant on orbits, and the
box and its margin shell are invariant under every coordinate permutation.
"(i j) fixes the table" is an equivalence relation, since (i k) = (i j)(j k)
(i j); its classes take O(m^2 2^m) to find, and the group is the product of
the symmetric groups on the classes.  The representative of an orbit is its
point that is nondecreasing within every class, which is also the orbit's
first point in lexicographic order.  The representatives are built in numpy
one coordinate at a time, each coordinate's range cut by the running sum so
that every partial point extends, and streamed in lexicographic order in
blocks of CHUNK points, so memory stays bounded for any m and b.  Each point
counts with its orbit size, a product of multinomial coefficients.  A matroid
with no transposition symmetry (the Fano matroid) has singleton classes, and
its stream is the whole box.

On each block chi_u comes from the flag formula: the flags
whose first pairing-one entry is S factor into signed chains below S with
pairings <= 0 and above S with pairings <= 1, and both signed counts come
from one subset DP over submasks (the chains above S are those below its
complement), O(3^m) per point with one numpy gather per layer of subsets
of one size.  h0_u is parliament membership of the diagram
columns, one broadcast comparison per block.  The DP values count chains of
subsets, so they are at most the number of flags (47,293 at m = 7) in
absolute value and int64 arithmetic stays exact.  The cost is the number of
orbits times 3^m.  The flag model (the fan's flags, the bundle's adapted
bases and characters), the per-flag-chain sweep, the full box sweep and the
pointwise Euler characteristic and section routes are kept in the tests as
oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import BoxTooLargeError, ValidationError
from .matroid import Matroid

MAX_GROUND = 7
INT64_MAX = int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# The signed-chain DP, the streamed sweep and the vanishing check
# ---------------------------------------------------------------------------

# Points per block of the streamed slice box.  A sweep holds O(CHUNK * 3^m)
# int64 values at a time, whatever the box size (about 11 MB at m = 7).
# Measured from 256 to 4096: larger blocks cost memory in proportion and, from
# m = 6 on, run slower; smaller ones pay more per-block overhead.
CHUNK = 1024


def _symmetry_classes(matroid: Matroid):
    """Classes of 0-based elements swapped by automorphisms of the matroid.

    i and j share a class when the transposition (i j) fixes the rank table.
    That is an equivalence relation, since (i k) = (i j)(j k)(i j), so each
    element is compared with the first member of every class found so far,
    one comparison of the table with its swapped copy per pair.  Classes are
    ascending and ordered by their first member.
    """
    rank_of = np.frombuffer(matroid.rank_table, dtype=np.uint8)
    masks = np.arange(1 << matroid.m)
    classes = []
    for i in range(matroid.m):
        for members in classes:
            j = members[0]
            differ = ((masks >> i) ^ (masks >> j)) & 1
            swapped = masks ^ (differ * ((1 << i) | (1 << j)))
            if np.array_equal(rank_of[swapped], rank_of):
                members.append(i)
                break
        else:
            classes.append([i])
    return tuple(tuple(members) for members in classes)


def _slice_box(m: int, bound: int, classes):
    """Integer u with coordinates in [-bound, bound], sum 1, nondecreasing
    along each class of coordinates.

    Yields int64 blocks of CHUNK rows (the last one may be shorter) in
    lexicographic order; with singleton classes that is the whole box.
    Points grow one coordinate at a time.  Coordinate j runs from its class
    predecessor (or -bound) to bound, cut by the running sum s: the later
    coordinates are at most bound each, and at least their class
    predecessors, where the later members of j's class are at least u_j.
    So every partial point extends to a point of the box.  Partial points
    wait on a stack in batches of at most CHUNK rows, with the range of
    their next coordinate once it is known.  A batch grows by at most CHUNK
    rows at a time: its longest prefix whose ranges hold at most CHUNK
    values in all grows, and the rest goes back on the stack; a first row
    with more values grows by the first CHUNK of them and goes back with
    its range cut.  So memory stays O(m * CHUNK) for any bound.
    """
    prev = [-1] * m  # the previous member of each coordinate's class, or -1
    later = [0] * m  # the number of later members
    for members in classes:
        for k, j in enumerate(members):
            prev[j] = members[k - 1] if k else -1
            later[j] = len(members) - 1 - k
    # The coordinates after j outside j's class sum to at least
    # u[:j] @ rest[j, :j] - bound * free[j]: each is at least the last
    # member of its class before j, or -bound when there is none.
    rest = np.zeros((m, m), dtype=np.int64)
    free = [0] * m
    for j in range(m):
        mine = next(members for members in classes if j in members)
        for p in range(j + 1, m):
            if p in mine:
                continue
            q = prev[p]
            while q > j:
                q = prev[q]
            if q >= 0:
                rest[j, q] += 1
            else:
                free[j] += 1

    stack = [(np.zeros((1, 0), dtype=np.int64), None, None)]
    pending, held = [], 0
    while stack:
        rows, lo, hi = stack.pop()
        j = rows.shape[1]
        if j == m:
            pending.append(rows)
            held += rows.shape[0]
            if held >= CHUNK:  # each batch adds at most CHUNK rows
                rows = np.concatenate(pending)
                yield rows[:CHUNK]
                pending, held = [rows[CHUNK:]], held - CHUNK
            continue
        if lo is None:
            s = rows.sum(axis=1)
            lo = np.maximum(
                rows[:, prev[j]] if prev[j] >= 0 else -bound,
                1 - s - bound * (m - 1 - j),
            )
            floor = rows @ rest[j, :j] - bound * free[j]
            hi = np.minimum(bound, (1 - s - floor) // (1 + later[j]))
        # clipped above CHUNK, so that the running total stays small
        counts = np.minimum(np.maximum(hi - lo + 1, 0), CHUNK + 1)
        ends = np.cumsum(counts)
        take = int(np.searchsorted(ends, CHUNK, side="right"))
        if take == 0:
            stack.append((rows, np.concatenate(([lo[0] + CHUNK], lo[1:])), hi))
            take, counts, ends = 1, np.full(1, CHUNK), np.full(1, CHUNK)
        elif take < rows.shape[0]:
            stack.append((rows[take:], lo[take:], hi[take:]))
        rows, lo, counts, ends = rows[:take], lo[:take], counts[:take], ends[:take]
        grown = np.empty((int(ends[-1]), j + 1), dtype=np.int64)
        grown[:, :j] = np.repeat(rows, counts, axis=0)
        starts = np.repeat(ends - counts, counts)
        grown[:, j] = np.repeat(lo, counts) + np.arange(grown.shape[0]) - starts
        stack.append((grown, None, None))
    if held:
        yield np.concatenate(pending)


@lru_cache(maxsize=None)
def _subset_layers(m: int):
    """Subset-lattice index arrays for `_chains_below` and `_sweep`.

    Returns (subset_cols, layers): subset_cols is the (2^m, m) indicator
    matrix of all masks; layers[k - 1] = (masks, below) lists the masks of
    size k and their nonempty proper submasks, as index arrays of shape
    (C(m, k),) and (C(m, k), 2^k - 2).
    """
    full = (1 << m) - 1
    subset_cols = np.array(
        [[mask >> i & 1 for i in range(m)] for mask in range(full + 1)],
        dtype=np.int64,
    )
    layers = []
    for k in range(1, m + 1):
        masks = [s for s in range(1, full + 1) if bin(s).count("1") == k]
        below = [[t for t in range(1, s) if t & s == t] for s in masks]
        layers.append(tuple(np.array(x, dtype=np.intp) for x in (masks, below)))
    return subset_cols, tuple(layers)


def _chains_below(allowed, largest=None):
    """Signed counts of the chains of allowed subsets below every subset.

    `allowed` is a (2^m, N) boolean array, one column per point.  Row S of
    the result is B(S) = 1 - sum B(T) over the nonempty T < S allowed at
    the point, the sum of (-1)^k over the chains T_1 < ... < T_k < S of
    nonempty allowed subsets; row 0, the empty set, is 0.  Each layer of
    subsets of one size is one numpy gather, O(3^m) work per point.  Only
    subsets of at most `largest` elements (all, by default) are filled; the
    rows of larger ones stay 0.  The values count chains, so they are at
    most the number of flags in absolute value and int64 arithmetic stays
    exact.
    """
    B = np.zeros(allowed.shape, dtype=np.int64)
    B_ok = np.zeros_like(B)  # B where allowed, the terms of larger S
    for masks, below in _subset_layers(allowed.shape[0].bit_length() - 1)[1][:largest]:
        b = 1 - B_ok[below].sum(axis=1)
        B[masks] = b
        B_ok[masks] = b * allowed[masks]
    return B


def flag_alternating_sum(m: int) -> int:
    """Sum of (-1)^length over all flags of subsets ending at [m].

    A flag is a chain of nonempty proper subsets with [m] appended, one
    entry longer than the chain, so the sum is -B([m]) of `_chains_below`
    with every subset allowed.
    """
    if not 1 <= m <= MAX_GROUND:
        raise ValidationError(f"flag enumeration supported for m in 1..{MAX_GROUND}")
    return -int(_chains_below(np.ones((1 << m, 1), dtype=bool))[-1, 0])


def _closure_rows(matroid: Matroid):
    """The diagram rows of the tautological bundle, the indicator vectors of
    cl(S) for the nonempty proper S in mask order, as a (2^m - 2, m, 1)
    int64 array."""
    m = matroid.m
    closed = np.array(
        [matroid.closure_mask(mask) for mask in range(1, (1 << m) - 1)],
        dtype=np.int64,
    )
    return closed[:, None, None] >> np.arange(m, dtype=np.int64)[:, None] & 1


def _sweep(matroid: Matroid, blocks):
    """Yield (U, chi, h0) for each block U of character rows (exact int64).

    With p(S) = <u, e_S>, the flags whose first pairing-one entry is S
    factor into chains below S with pairings <= 0 and chains above S with
    pairings <= 1.  Their signed counts satisfy
        B(S) = 1 - sum B(T) over nonempty T < S with p(T) <= 0,
        A(S) = 1 - sum A(T) over S < T < [m] with p(T) <= 1,
    and chi_u = (-1)^m sum rank(S) B(S) A(S) over proper S with p(S) = 1,
    plus (-1)^(m-1) rank(M) B([m]).  Both are `_chains_below`: S < T < [m]
    exactly when [m] - T is a nonempty proper subset of [m] - S, and the
    complement of mask S is row [m] - S, so A, read only where p(S) = 1, is
    `_chains_below` of the rows of p <= 1 reversed, reversed.  That run
    stops below its top layer, A at the empty set, which chi never reads.
    h0_u is the rank of the set of elements e whose parliament contains u:
    p(S) <= [e in cl(S)] for all S.
    """
    m = matroid.m
    full = (1 << m) - 1
    subset_cols = _subset_layers(m)[0]
    rank_of = np.frombuffer(matroid.rank_table, dtype=np.uint8).astype(np.int64)
    closure_rows = _closure_rows(matroid)
    element_bits = (np.int64(1) << np.arange(m, dtype=np.int64))[:, None]
    sign = -1 if m % 2 else 1

    for U in blocks:
        sums = subset_cols @ U.T  # (2^m, N): pairing of every e_S with u
        B = _chains_below(sums <= 0)
        A = _chains_below((sums <= 1)[::-1], m - 1)[::-1]

        proper = slice(1, full)
        first = (sums[proper] == 1) * B[proper] * A[proper]
        chi = sign * (rank_of[proper, None] * first).sum(axis=0)
        chi -= sign * rank_of[full] * B[full]

        members = (sums[1:full, None, :] <= closure_rows).all(axis=0)
        h0 = rank_of[(members * element_bits).sum(axis=0)]
        yield U, chi, h0


def _orbit_sizes(U, classes):
    """Orbit size of each row of U, a point nondecreasing along each class,
    under the permutations within classes: the product over classes of the
    multinomial coefficients of their runs of equal values.  Members join
    one at a time: the n-th multiplies the coefficient by n and divides it
    by the length of the run of equal values it extends, exactly."""
    sizes = np.ones(U.shape[0], dtype=np.int64)
    for members in classes:
        run = np.ones_like(sizes)
        for k in range(1, len(members)):
            run = np.where(U[:, members[k]] == U[:, members[k - 1]], run + 1, 1)
            sizes = sizes * (k + 1) // run
    return sizes


def _orbit(u, classes):
    """The distinct points made from u by permuting within classes."""
    arrangements = [
        set(itertools.permutations([u[i] for i in members]))
        for members in classes
    ]
    point = list(u)
    for choice in itertools.product(*arrangements):
        for members, values in zip(classes, choice):
            for i, x in zip(members, values):
                point[i] = x
        yield tuple(point)


def _first_failures(failures, u, classes):
    """The 20 smallest points among `failures` and the orbit of u."""
    from heapq import nsmallest  # only a failing check needs it

    return nsmallest(20, itertools.chain(failures, _orbit(u, classes)))


def vanishing_check(matroid: Matroid, max_coord=None) -> dict:
    """Verify chi_u = h0_u on the character slice box.

    The box is {u : sum u = 1, |u_i| <= max_coord} (default max(m, 2)); both
    functions must vanish on the box's margin shell, so the verified region
    genuinely contains all of the support.  A bound below 2 is rejected: such
    a box lies entirely on its shell and verifies nothing.  A bound whose
    sums (at most 2 * m * max_coord + 1 in absolute value) leave int64 is
    refused with BoxTooLargeError before any array exists.  A matroid on
    more than MAX_GROUND elements is refused after these two checks, which
    keep their order, and before any array exists too.

    One point per orbit of the matroid's transposition symmetries is swept,
    in blocks of CHUNK points, so memory stays bounded.  `points` counts
    each orbit with its size.  The shell is symmetric, so its test on a
    representative is exact.  `failures` lists the first 20 failing points
    of the whole box in lexicographic order: a representative is the first
    point of its orbit and they come in order, so once 20 failures are held
    no later representative beyond the last of them can add one.
    """
    m = matroid.m
    bound = max_coord if max_coord is not None else max(m, 2)
    if bound < 2:
        raise ValidationError(
            f"max_coord must be at least 2, got {bound}: every point of a "
            "smaller box lies on its margin shell"
        )
    if 2 * m * bound + 1 > INT64_MAX:
        raise BoxTooLargeError(
            f"max_coord {bound} would leave the exact int64 range of the sweep"
        )
    if m > MAX_GROUND:
        raise ValidationError(f"tautological bundles supported for m <= {MAX_GROUND}")
    classes = _symmetry_classes(matroid)
    points, shell_ok, mismatches, failures = 0, True, 0, []
    for U, chi, h0 in _sweep(matroid, _slice_box(m, bound, classes)):
        points += int(_orbit_sizes(U, classes).sum())
        on_shell = (np.abs(U) == bound).any(axis=1)
        shell_ok = shell_ok and not (chi[on_shell].any() or h0[on_shell].any())
        bad = np.nonzero(chi != h0)[0]
        mismatches += bad.size
        for i in bad:
            u = tuple(int(x) for x in U[i])
            if len(failures) == 20 and u > failures[-1]:
                break
            failures = _first_failures(failures, u, classes)
    return {
        "m": m,
        "max_coord": bound,
        "points": points,
        "shell_ok": shell_ok,
        "all_equal": mismatches == 0 and shell_ok,
        "failures": failures,
    }
