"""Matroids and their fans: rank, closure, circuits, flats, the matroid
polytope, greedy bases, the level-set projection onto the lifted Bergman
fan and the circuit parameterization of apartments.

Matroids are given by their bases on a ground set {1, ..., m}, m <= 16, and
held as the rank of every subset, bytes indexed by bitmask (bit e - 1 is
element e), built by two numpy subset DPs.  The bases are those of a matroid
exactly when this table meets the local rank axioms (Oxley, Matroid Theory,
ch. 1), which construction checks in one numpy pass for the unit steps and
one per element for submodularity against the elements below it.
Everything else reads the table.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import MatroidAxiomError, ValidationError
from .lattice import VPolytope
from .linalg import exact


def _halves(arr, i):
    """Views of the masks without and with bit i of a (2^m,) array."""
    cube = arr.reshape(-1, 2, 1 << i)
    return cube[:, 0], cube[:, 1]


def _rank_table(m: int, basis_masks, rank: int):
    """Rank of every subset of [m] as a (2^m,) int8 array indexed by mask."""
    table = np.zeros(1 << m, dtype=np.int8)
    table[basis_masks] = rank
    for i in range(m):  # subsets of bases, the independent sets: |S|
        without, with_ = _halves(table, i)
        np.maximum(without, with_ - 1, out=without)
    for i in range(m):  # the largest independent subset
        without, with_ = _halves(table, i)
        np.maximum(with_, without, out=with_)
    return table


def _check_rank_axioms(m: int, table):
    """Raise unless r(S+e) <= r(S) + 1 and r(S+e+f) + r(S) <= r(S+e) + r(S+f).

    One pass gives every gain r(S+e) - r(S), as an (m, 2^m) array (zero
    where e is in S), and one more per element e compares its gains at S+f
    and S for every element f below e.  Elements are checked from m down,
    each against f from e - 1 down, and the first failure is raised.
    """
    masks = np.arange(1 << m)
    bits = (1 << np.arange(m))[:, None]
    gain = table[masks | bits] - table  # gain[i, S]: element i + 1 added to S
    steps = gain.max(axis=1) > 1
    for i in reversed(range(m)):
        if steps[i]:
            raise MatroidAxiomError(f"rank steps by more than one at element {i + 1}")
        grows = (gain[i, masks | bits[:i]] > gain[i]).any(axis=1)
        if grows.any():
            f = np.flatnonzero(grows)[-1] + 1
            raise MatroidAxiomError(f"bases fail the exchange axiom at elements {f}, {i + 1}")


class Matroid:
    """Matroid on ground set {1, ..., m}: its bases and its rank table."""

    def __init__(self, ground_size: int, bases):
        if ground_size < 1 or ground_size > 16:
            raise ValidationError("ground size must be between 1 and 16")
        self.m = ground_size
        self.ground = frozenset(range(1, ground_size + 1))
        bases = {frozenset(b) for b in bases}
        if not bases:
            raise MatroidAxiomError("a matroid needs at least one basis")
        sizes = {len(b) for b in bases}
        if len(sizes) != 1:
            raise MatroidAxiomError("bases must be equicardinal")
        for b in bases:
            if not b <= self.ground:
                raise MatroidAxiomError(f"basis {sorted(b)} leaves the ground set")
        self.bases = frozenset(bases)
        self.rank_total = sizes.pop()
        table = _rank_table(self.m, [self.mask(b) for b in self.bases], self.rank_total)
        _check_rank_axioms(self.m, table)
        self.rank_table = table.tobytes()

    def mask(self, subset) -> int:
        """Bitmask of a subset of the ground set; bit e - 1 is element e."""
        out = 0
        for e in subset:
            if e not in self.ground:
                raise ValidationError(f"{e!r} is not in the ground set 1..{self.m}")
            out |= 1 << (e - 1)
        return out

    @staticmethod
    def elements(mask: int) -> frozenset:
        """The subset of a bitmask."""
        return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    # -- rank and closure ---------------------------------------------------

    def rank(self, subset) -> int:
        return self.rank_table[self.mask(subset)]

    def closure_mask(self, s: int) -> int:
        """Mask of the closure of the subset with mask s."""
        table, r = self.rank_table, self.rank_table[s]
        return s | sum(1 << i for i in range(self.m) if table[s | 1 << i] == r)

    def closure(self, subset) -> frozenset:
        return self.elements(self.closure_mask(self.mask(subset)))

    @property
    def loops(self) -> frozenset:
        return self.elements(self.closure_mask(0))

    def _sorted_subsets(self, selected):
        """Subsets of the masks where `selected` holds, by size, then sorted."""
        found = (self.elements(int(s)) for s in np.flatnonzero(selected))
        return tuple(sorted(found, key=lambda c: (len(c), sorted(c))))

    def circuits(self):
        """Minimal dependent sets: dependent, every one-element deletion
        independent."""
        table = np.frombuffer(self.rank_table, dtype=np.int8)
        masks = np.arange(1 << self.m, dtype=np.uint32)
        indep = table == np.unpackbits(masks.view(np.uint8)).reshape(-1, 32).sum(axis=1)
        circuit = ~indep
        for i in range(self.m):
            _, with_ = _halves(circuit, i)
            with_ &= _halves(indep, i)[0]
        return self._sorted_subsets(circuit)

    def flats(self):
        """All flats: subsets that every added element raises in rank."""
        table = np.frombuffer(self.rank_table, dtype=np.int8)
        flat = np.ones(table.size, dtype=bool)
        for i in range(self.m):
            without, with_ = _halves(table, i)
            flat_without, _ = _halves(flat, i)
            flat_without &= with_ > without
        return self._sorted_subsets(flat)

    def fundamental_circuit(self, basis, e) -> frozenset:
        """The unique circuit inside basis | {e}, for an independent basis
        spanning e: e and the elements whose exchange for e keeps it so."""
        b = self.mask(basis)
        bit = self.mask((e,))
        if b & bit:
            raise ValidationError(f"{e} already lies in the basis")
        table = self.rank_table
        size = b.bit_count()
        if table[b] != size:
            raise ValidationError(f"{sorted(self.elements(b))} is not independent")
        if table[b | bit] > size:
            raise ValidationError(f"{e} is independent of the basis")
        both = b | bit
        return self.elements(bit | sum(
            1 << i for i in range(self.m) if b >> i & 1 and table[both ^ 1 << i] == size
        ))

    def __repr__(self):
        return f"Matroid(m={self.m}, rank={self.rank_total}, bases={len(self.bases)})"

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.m == other.m
            and self.bases == other.bases
        )

    def __hash__(self):
        return hash((self.m, self.bases))


def uniform_matroid(r: int, m: int) -> Matroid:
    return Matroid(m, itertools.combinations(range(1, m + 1), r))


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def rank(matroid: Matroid, subset) -> int:
    return matroid.rank(subset)


def closure(matroid: Matroid, subset) -> frozenset:
    return matroid.closure(subset)


def circuits(matroid: Matroid):
    return matroid.circuits()


def loops(matroid: Matroid) -> frozenset:
    return matroid.loops


def matroid_polytope(matroid: Matroid) -> VPolytope:
    """Convex hull of the basis indicator vectors in R^m."""
    verts = []
    for b in matroid.bases:
        verts.append(tuple(1 if e in b else 0 for e in range(1, matroid.m + 1)))
    return VPolytope(verts, matroid.m, trusted=True)


def _weights(matroid: Matroid, w):
    """The weight vector as exact numbers (`linalg.exact`), refused unless
    of the ground size."""
    w = tuple(map(exact, w))
    if len(w) != matroid.m:
        raise ValidationError("weight vector length must equal the ground size")
    return w


def _level_masks(w):
    """(k, mask of {j : w_j >= k}) for every value k of w, largest first."""
    return [
        (k, sum(1 << j for j, x in enumerate(w) if x >= k))
        for k in sorted(set(w), reverse=True)
    ]


def max_weight_basis(matroid: Matroid, w) -> frozenset:
    """Greedy maximum-weight basis; ties resolved toward smaller elements,
    which makes the result the lexicographically smallest optimal basis."""
    return Matroid.elements(greedy_basis_mask(matroid, _weights(matroid, w)))


def greedy_basis_mask(matroid: Matroid, w) -> int:
    """Mask of `max_weight_basis` for a checked weight sequence of length m
    (integers or Fractions)."""
    table = matroid.rank_table
    chosen = 0  # independent, so its rank is its size
    for i in sorted(range(matroid.m), key=lambda i: (-w[i], i)):
        if table[chosen | 1 << i] > table[chosen]:
            chosen |= 1 << i
    return chosen


def bergman_project(matroid: Matroid, w):
    """Project a weight vector onto the lifted Bergman fan.

    Coordinate i maps to the largest level k (a value of w) such that i lies
    in the closure of the level set {j : w_j >= k}.  The projection is the
    identity exactly on the lifted Bergman fan and is idempotent.
    """
    w = _weights(matroid, w)
    # every i sits in its own level set, so values only ever move up; the
    # largest level whose closure picks up i wins
    result = list(w)
    for k, level in _level_masks(w):
        closed = matroid.closure_mask(level)
        for i in range(matroid.m):
            if closed >> i & 1 and result[i] < k:
                result[i] = k
    return tuple(result)


def initial_matroid(matroid: Matroid, w) -> Matroid:
    """Matroid whose bases are the bases of maximal total weight."""
    w = tuple(map(exact, w))
    weight = {b: sum(w[e - 1] for e in b) for b in matroid.bases}
    best = max(weight.values())
    return Matroid(matroid.m, [b for b, wt in weight.items() if wt == best])


def circuit_extension(matroid: Matroid, basis, coords):
    """Extend coordinates on a basis to a lifted Bergman point.

    For an element e outside the basis the value is the minimum of the
    coordinates over its fundamental circuit (minus e itself); loops, which
    lie in every flat, take the maximum basis coordinate.  This parameterizes
    the apartment of the basis by R^rank.
    """
    b = frozenset(basis)
    if b not in matroid.bases:
        raise ValidationError(f"{sorted(b)} is not a basis")
    coords = {e: exact(v) for e, v in coords.items()}
    if set(coords) != set(b):
        raise ValidationError("coordinates must be indexed by the basis")
    top = max(coords.values())
    out = []
    for e in range(1, matroid.m + 1):
        if e in b:
            out.append(coords[e])
        elif e in matroid.loops:
            out.append(top)
        else:
            circuit = matroid.fundamental_circuit(b, e)
            out.append(min(coords[j] for j in circuit - {e}))
    return tuple(out)
