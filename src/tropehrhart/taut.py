"""Tautological bundle of a matroid on the permutahedral toric variety.

The permutahedral fan on m letters is handled purely combinatorially: cones
correspond to flags of nonempty proper subsets of {1..m} (the empty flag is
the zero cone, complete flags are the maximal cones), the ray of a subset S
has generator e_S, and all pairings are evaluated in Z^m directly.  Because
the lifted fan has lineality along e_{1..m}, cones are never materialized as
pointed lattice cones; the codimension of a flag with k entries is m - 1 - k.

The tautological bundle's diagram row for the ray e_S is the indicator
vector of the closure of S (the paper's worked table lists the raw subset
indicators, but those rows are not Bergman points; the closure rows are, and
ranks, sections and Euler characteristics are unchanged).  Character sums are
restricted to the slice {u : sum u_j = 1}, which carries all sections.

The vanishing check sweeps the slice box {sum u = 1, |u_i| <= b}.  The box is
built in numpy (the first m - 1 coordinates run over the cube, the last is
solved for) and streamed in blocks of CHUNK points, so memory stays bounded
for any m and b.  On each block chi_u comes from the flag formula: the flags
whose first pairing-one entry is S factor into signed chains below S with
pairings <= 0 and above S with pairings <= 1, and both signed counts are
subset DPs over submasks, O(3^m) per point with one numpy gather per layer
of subsets of one size.  h0_u is parliament membership of the diagram
columns, one broadcast comparison per block.  The DP values count chains of
subsets, so they are at most the number of flags (47,293 at m = 7) in
absolute value and int64 arithmetic stays exact.  The per-flag-chain sweep
this replaces is kept in the tests as the oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TropehrhartError, ValidationError
from .matroid import Matroid, max_weight_basis

MAX_GROUND = 7


# ---------------------------------------------------------------------------
# Flags of subsets / the permutahedral fan
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _chains_of_masks(m: int):
    """All strictly increasing chains of nonempty proper subsets of [m].

    Subsets are bitmasks; the empty chain (zero cone) is included.  Chains
    with G appended correspond to ordered set partitions of [m].
    """
    full = (1 << m) - 1
    proper = [s for s in range(1, full)]
    supersets = {
        s: [t for t in proper if t != s and (s & t) == s] for s in proper
    }

    chains = [()]
    stack = [(s,) for s in proper]
    while stack:
        chain = stack.pop()
        chains.append(chain)
        for t in supersets[chain[-1]]:
            stack.append(chain + (t,))
    return tuple(sorted(chains, key=lambda c: (len(c), c)))


class PermutahedralFan:
    """Flag-combinatorial model of the permutahedral fan on m letters."""

    def __init__(self, m: int):
        if not 1 <= m <= MAX_GROUND:
            raise ValidationError(f"permutahedral fan supported for m <= {MAX_GROUND}")
        self.m = m
        self.chains = _chains_of_masks(m)

    @property
    def ray_masks(self):
        return tuple(c[0] for c in self.chains if len(c) == 1)

    def rays(self):
        """Primitive generators e_S, one per nonempty proper subset."""
        return {
            Matroid.elements(mask): tuple(
                1 if mask >> i & 1 else 0 for i in range(self.m)
            )
            for mask in self.ray_masks
        }

    def flags(self):
        """All cones, as increasing tuples of subsets (frozensets)."""
        return [tuple(Matroid.elements(s) for s in c) for c in self.chains]

    def codim(self, flag) -> int:
        return self.m - 1 - len(flag)

    def num_cones(self) -> int:
        return len(self.chains)

    def __repr__(self):
        return f"PermutahedralFan(m={self.m}, cones={self.num_cones()})"


def permutahedral_fan(m: int) -> PermutahedralFan:
    return PermutahedralFan(m)


def flag_alternating_sum(m: int) -> int:
    """Sum of (-1)^length over all flags of subsets ending at [m]."""
    if not 1 <= m <= MAX_GROUND:
        raise ValidationError(f"flag enumeration supported for m <= {MAX_GROUND}")
    total = 0
    for chain in _chains_of_masks(m):
        total += (-1) ** (len(chain) + 1)
    return total


# ---------------------------------------------------------------------------
# The tautological bundle
# ---------------------------------------------------------------------------

class TautologicalBundle:
    """Diagram-level data of the tautological bundle of a matroid."""

    def __init__(self, matroid: Matroid):
        if matroid.m > MAX_GROUND:
            raise ValidationError(f"tautological bundles supported for m <= {MAX_GROUND}")
        self.matroid = matroid
        self.fan = permutahedral_fan(matroid.m)
        self.rows = {}
        for mask in self.fan.ray_masks:
            closed = matroid.closure_mask(mask)
            self.rows[Matroid.elements(mask)] = tuple(
                closed >> i & 1 for i in range(matroid.m)
            )

    @property
    def rank(self) -> int:
        return self.matroid.rank_total

    def adapted_basis(self, flag) -> frozenset:
        """Maximum-weight basis at a generic weight of the flag's cone."""
        m = self.matroid.m
        w = [0] * m
        for s in flag:
            for e in s:
                w[e - 1] += 1
        return max_weight_basis(self.matroid, w)

    def characters(self, flag):
        """Character multiset {e_i : i in the adapted basis} of a cone."""
        basis = self.adapted_basis(flag)
        out = []
        for e in sorted(basis):
            out.append(tuple(1 if j == e else 0 for j in range(1, self.matroid.m + 1)))
        return tuple(out)

    def __repr__(self):
        return f"TautologicalBundle({self.matroid!r})"


def tautological_bundle(matroid: Matroid) -> TautologicalBundle:
    return TautologicalBundle(matroid)


def _check_slice(matroid: Matroid, u):
    u = tuple(int(x) for x in u)
    if len(u) != matroid.m:
        raise ValidationError("character length must equal the ground size")
    if sum(u) != 1:
        raise ValidationError("characters are restricted to the slice sum(u) = 1")
    return u


def taut_h0_local(matroid: Matroid, flag, u) -> int:
    """Sections of the tautological bundle on the chart of a flag cone.

    Zero when some flag pairing exceeds 1; otherwise the rank of the first
    flag entry (the full set included) whose pairing equals 1.
    """
    u = _check_slice(matroid, u)
    entries = [frozenset(s) for s in flag] + [matroid.ground]
    pairings = [sum(u[e - 1] for e in s) for s in entries]
    if any(p > 1 for p in pairings):
        return 0
    for s, p in zip(entries, pairings):
        if p == 1:
            return matroid.rank(s)
    return 0


def _h0_local_filtration(bundle: TautologicalBundle, flag, u) -> int:
    """Chart sections via the diagram filtrations (independent route)."""
    matroid = bundle.matroid
    flat = matroid.ground
    for s in flag:
        pairing = sum(u[e - 1] for e in s)
        if pairing <= 0:
            continue
        row = bundle.rows[frozenset(s)]
        level = frozenset(
            e for e in range(1, matroid.m + 1) if row[e - 1] >= pairing
        )
        flat = flat & matroid.closure(level)
    return matroid.rank(flat)


def taut_h0_global(matroid: Matroid, u) -> int:
    """Global sections at u: 1 exactly at e_i for a non-loop i.

    Computed both from the closed form and from parliament membership of the
    diagram columns; the two must agree.
    """
    u = _check_slice(matroid, u)
    nonloops = matroid.ground - matroid.loops
    closed = 0
    for i in nonloops:
        if all(u[e - 1] == (1 if e == i else 0) for e in matroid.ground):
            closed = 1
            break

    bundle = tautological_bundle(matroid)
    members = []
    for e in range(1, matroid.m + 1):
        ok = True
        for s, row in bundle.rows.items():
            if sum(u[j - 1] for j in s) > row[e - 1]:
                ok = False
                break
        if ok:
            members.append(e)
    parliament = matroid.rank(frozenset(members))
    if closed != parliament:
        raise TropehrhartError(
            f"section formulas disagree at {u}: {closed} vs {parliament}"
        )
    return closed


class TautChi:
    """Equivariant Euler characteristic at one character, both routes."""

    def __init__(self, flag_formula, cone_sum, by_codim):
        self.flag_formula = flag_formula
        self.cone_sum = cone_sum
        self.by_codim = tuple(by_codim)
        self.equal = flag_formula == cone_sum

    @property
    def value(self) -> int:
        return self.cone_sum

    def __repr__(self):
        return (
            f"TautChi(value={self.cone_sum}, flag_formula={self.flag_formula}, "
            f"by_codim={list(self.by_codim)})"
        )


def taut_chi_u(matroid: Matroid, u) -> TautChi:
    """Euler characteristic at u via two independent computations.

    The cone sum runs over all flag cones with the filtration-based chart
    sections; the flag formula sums rank(S) over subsets pairing to 1,
    weighted by signed counts of flags through S in which S is the first
    pairing-one entry.
    """
    u = _check_slice(matroid, u)
    bundle = tautological_bundle(matroid)
    fan = bundle.fan
    m = matroid.m

    by_codim = [0] * m
    cone_sum = 0
    for flag in fan.flags():
        h0 = _h0_local_filtration(bundle, flag, u)
        codim = fan.codim(flag)
        by_codim[codim] += h0
        cone_sum += (-1) ** codim * h0

    flag_formula = 0
    full_mask = (1 << m) - 1
    for s_mask in range(1, full_mask + 1):
        pairing = sum(u[i] for i in range(m) if s_mask >> i & 1)
        if pairing != 1:
            continue
        s = Matroid.elements(s_mask)
        signed = _signed_flags_through(u, s_mask, m)
        flag_formula += matroid.rank(s) * signed

    return TautChi(flag_formula, cone_sum, by_codim[: m])


def _signed_flags_through(u, s_mask: int, m: int) -> int:
    """Signed count sum of (-1)^(m - l(pi)) over flags in which the subset
    is the first entry pairing to 1, all pairings at most 1."""
    full = (1 << m) - 1

    def pairing(mask):
        return sum(u[i] for i in range(m) if mask >> i & 1)

    def chains_between(lo, hi, bound):
        """Signed count sum of (-1)^len over chains lo < c_1 < ... < c_k < hi
        of nonempty subsets with pairing <= bound."""
        total = 1  # the empty chain, sign (+1)
        stack = [(lo, 1)]
        while stack:
            cur, sign = stack.pop()
            for nxt in _strict_between(cur, hi):
                if pairing(nxt) <= bound:
                    total += -sign
                    stack.append((nxt, -sign))
        return total

    def _strict_between(lo, hi):
        rest = hi & ~lo
        for sub in _nonempty_subsets(rest):
            cand = lo | sub
            if cand != hi:
                yield cand

    def _nonempty_subsets(mask):
        sub = mask
        while sub:
            yield sub
            sub = (sub - 1) & mask

    below = chains_between(0, s_mask, 0)
    if s_mask == full:
        # flags: lower chain + (G); l = len(lower) + 1
        # sign (-1)^(m - l); signed count of lowers with weight (-1)^len is
        # "below" with sign convention (+1 for empty)
        return (-1) ** (m - 1) * below
    above = chains_between(s_mask, full, 1)
    # l = len(lower) + 1 + len(upper) + 1
    return (-1) ** (m - 2) * below * above


# ---------------------------------------------------------------------------
# Streamed subset-DP sweep and the vanishing check
# ---------------------------------------------------------------------------

# Points per block of the streamed slice box.  A sweep holds O(CHUNK * 3^m)
# int64 values at a time, whatever the box size (about 11 MB at m = 7).
# Measured from 256 to 4096: larger blocks cost memory in proportion and, from
# m = 6 on, run slower; smaller ones pay more per-block overhead.
CHUNK = 1024


def _slice_box(m: int, bound: int):
    """All integer u with coordinates in [-bound, bound] and sum 1.

    Yields int64 blocks of CHUNK rows (the last one may be shorter) in
    lexicographic order: the first m - 1 coordinates run over the cube in
    blocks of CHUNK prefixes and the last one is solved for.
    """
    side = 2 * bound + 1
    n_prefix = side ** (m - 1)
    pending, held = [], 0
    for start in range(0, n_prefix, CHUNK):
        code = np.arange(start, min(start + CHUNK, n_prefix), dtype=np.int64)
        block = np.empty((code.size, m), dtype=np.int64)
        for j in range(m - 2, -1, -1):
            code, digit = np.divmod(code, side)
            block[:, j] = digit - bound
        block[:, m - 1] = 1 - block[:, : m - 1].sum(axis=1)
        pending.append(block[np.abs(block[:, m - 1]) <= bound])
        held += pending[-1].shape[0]
        if held >= CHUNK:  # each block adds at most CHUNK rows
            rows = np.concatenate(pending)
            yield rows[:CHUNK]
            pending, held = [rows[CHUNK:]], held - CHUNK
    if held:
        yield np.concatenate(pending)


@lru_cache(maxsize=None)
def _subset_layers(m: int):
    """Subset-lattice index arrays for the DPs of `_sweep`.

    Returns (subset_cols, layers): subset_cols is the (2^m, m) indicator
    matrix of all masks; layers[k - 1] = (masks, below, above) lists the masks
    of size k, their nonempty proper submasks and their proper supersets
    other than [m], as index arrays of shape (C(m, k),), (C(m, k), 2^k - 2)
    and (C(m, k), max(2^(m-k) - 2, 0)).
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
        above = [[t for t in range(s + 1, full) if t & s == s] for s in masks]
        layers.append(tuple(
            np.array(x, dtype=np.intp) for x in (masks, below, above)
        ))
    return subset_cols, tuple(layers)


def _sweep(matroid: Matroid, blocks):
    """Yield (U, chi, h0) for each block U of character rows (exact int64).

    With p(S) = <u, e_S>, the flags whose first pairing-one entry is S
    factor into chains below S with pairings <= 0 and chains above S with
    pairings <= 1.  Their signed counts satisfy
        B(S) = 1 - sum B(T) over nonempty T < S with p(T) <= 0,
        A(S) = 1 - sum A(T) over S < T < [m] with p(T) <= 1,
    and chi_u = (-1)^m sum rank(S) B(S) A(S) over proper S with p(S) = 1,
    plus (-1)^(m-1) rank(M) B([m]).  Each layer of subsets of one size is
    one numpy gather, O(3^m) work per point.  h0_u is the rank of the set of
    elements e whose parliament contains u: p(S) <= [e in cl(S)] for all S.
    """
    m = matroid.m
    full = (1 << m) - 1
    subset_cols, layers = _subset_layers(m)
    rank_of = np.frombuffer(matroid.rank_table, dtype=np.uint8).astype(np.int64)
    bundle = tautological_bundle(matroid)
    closure_rows = np.array(
        [bundle.rows[Matroid.elements(mask)] for mask in range(1, full)],
        dtype=np.int64,
    ).reshape(full - 1, m, 1)
    element_bits = (np.int64(1) << np.arange(m, dtype=np.int64))[:, None]
    sign = -1 if m % 2 else 1

    for U in blocks:
        sums = subset_cols @ U.T  # (2^m, N): pairing of every e_S with u
        below_ok = sums <= 0
        above_ok = sums <= 1

        B = np.empty_like(sums)  # signed chains below S
        B_ok = np.zeros_like(sums)  # B where p <= 0, the terms of larger S
        for masks, below, _ in layers:
            B[masks] = 1 - B_ok[below].sum(axis=1)
            B_ok[masks] = B[masks] * below_ok[masks]
        A = np.zeros_like(sums)  # signed chains above S, zero where p > 1
        for masks, _, above in reversed(layers[:-1]):
            A[masks] = (1 - A[above].sum(axis=1)) * above_ok[masks]

        proper = slice(1, full)
        first = (sums[proper] == 1) * B[proper] * A[proper]
        chi = sign * (rank_of[proper, None] * first).sum(axis=0)
        chi -= sign * rank_of[full] * B[full]

        members = (sums[1:full, None, :] <= closure_rows).all(axis=0)
        h0 = rank_of[(members * element_bits).sum(axis=0)]
        yield U, chi, h0


def vanishing_check(matroid: Matroid, max_coord=None) -> dict:
    """Verify chi_u = h0_u on the character slice box.

    The box is {u : sum u = 1, |u_i| <= max_coord} (default max(m, 2)); both
    functions must vanish on the box's margin shell, so the verified region
    genuinely contains all of the support.  A bound below 2 is rejected: such
    a box lies entirely on its shell and verifies nothing.  The box is
    streamed in blocks of CHUNK points, so memory stays bounded.
    """
    m = matroid.m
    bound = max_coord if max_coord is not None else max(m, 2)
    if bound < 2:
        raise ValidationError(
            f"max_coord must be at least 2, got {bound}: every point of a "
            "smaller box lies on its margin shell"
        )
    points, shell_ok, mismatches, failures = 0, True, 0, []
    for U, chi, h0 in _sweep(matroid, _slice_box(m, bound)):
        points += U.shape[0]
        on_shell = (np.abs(U) == bound).any(axis=1)
        shell_ok = shell_ok and not (chi[on_shell].any() or h0[on_shell].any())
        bad = np.nonzero(chi != h0)[0]
        mismatches += bad.size
        failures += [tuple(int(x) for x in U[i]) for i in bad[: 20 - len(failures)]]
    return {
        "m": m,
        "max_coord": bound,
        "points": points,
        "shell_ok": shell_ok,
        "all_equal": mismatches == 0 and shell_ok,
        "failures": failures,
    }
