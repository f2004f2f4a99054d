"""Matroids and their fans: rank, closure, circuits, flats, the matroid
polytope, membership in the lifted Bergman fan, apartments, and the
level-set projection onto the Bergman fan.

Matroids are given by their bases on a ground set {1, ..., m}; the exchange
axiom is verified exhaustively at construction (fine for m <= 16 and the
basis counts this package works with).  Derived data is cached.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import MatroidAxiomError, ValidationError
from .lattice import VPolytope


class Matroid:
    """Matroid on ground set {1, ..., m}, defined by its bases."""

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
        self._verify_exchange()
        self._rank_cache = {}
        self._closure_cache = {}
        self._circuits = None
        self._flats = None

    def _verify_exchange(self):
        for b1 in self.bases:
            for b2 in self.bases:
                for x in b1 - b2:
                    if not any(
                        (b1 - {x}) | {y} in self.bases for y in b2 - b1
                    ):
                        raise MatroidAxiomError(
                            f"exchange fails for {sorted(b1)}, {sorted(b2)}, "
                            f"element {x}"
                        )

    # -- rank and closure ---------------------------------------------------

    def rank(self, subset) -> int:
        s = frozenset(subset)
        if s not in self._rank_cache:
            self._rank_cache[s] = max(len(b & s) for b in self.bases)
        return self._rank_cache[s]

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        if s not in self._closure_cache:
            r = self.rank(s)
            self._closure_cache[s] = frozenset(
                e for e in self.ground if e in s or self.rank(s | {e}) == r
            )
        return self._closure_cache[s]

    def is_flat(self, subset) -> bool:
        s = frozenset(subset)
        return self.closure(s) == s

    def is_independent(self, subset) -> bool:
        s = frozenset(subset)
        return self.rank(s) == len(s)

    @property
    def loops(self) -> frozenset:
        return self.closure(())

    def circuits(self):
        """Minimal dependent sets (subset enumeration up to rank + 1)."""
        if self._circuits is None:
            found = []
            for size in range(1, self.rank_total + 2):
                for s in itertools.combinations(sorted(self.ground), size):
                    fs = frozenset(s)
                    if self.is_independent(fs):
                        continue
                    if any(c <= fs for c in found):
                        continue
                    found.append(fs)
            self._circuits = tuple(sorted(found, key=lambda c: (len(c), sorted(c))))
        return self._circuits

    def flats(self):
        """All flats, built rank by rank from the loop flat."""
        if self._flats is None:
            current = {self.closure(())}
            all_flats = set(current)
            while current:
                nxt = set()
                for f in current:
                    for e in self.ground - f:
                        g = self.closure(f | {e})
                        if g not in all_flats:
                            nxt.add(g)
                all_flats |= nxt
                current = nxt
            self._flats = tuple(sorted(all_flats, key=lambda f: (len(f), sorted(f))))
        return self._flats

    def fundamental_circuit(self, basis, e) -> frozenset:
        """The unique circuit inside basis | {e}, for e outside the basis."""
        b = frozenset(basis)
        if e in b:
            raise ValidationError(f"{e} already lies in the basis")
        for size in range(1, len(b) + 2):
            for s in itertools.combinations(sorted(b | {e}), size):
                fs = frozenset(s)
                if e in fs and not self.is_independent(fs):
                    if all(self.is_independent(fs - {x}) for x in fs):
                        return fs
        raise ValidationError(f"{e} is independent of the basis")

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


class FlagOfFlats:
    """Strictly increasing chain of flats ending at the full ground set."""

    def __init__(self, matroid: Matroid, chain):
        chain = tuple(frozenset(f) for f in chain)
        if not chain or chain[-1] != matroid.ground:
            raise ValidationError("flag must end at the full ground set")
        for f in chain:
            if not matroid.is_flat(f):
                raise ValidationError(f"{sorted(f)} is not a flat")
        for a, b in zip(chain, chain[1:]):
            if not a < b:
                raise ValidationError("flag entries must strictly increase")
        self.matroid = matroid
        self.chain = chain

    def __len__(self):
        return len(self.chain)

    def __iter__(self):
        return iter(self.chain)

    def __repr__(self):
        return "FlagOfFlats(" + " < ".join(str(sorted(f)) for f in self.chain) + ")"


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


def max_weight_basis(matroid: Matroid, w) -> frozenset:
    """Greedy maximum-weight basis; ties resolved toward smaller elements,
    which makes the result the lexicographically smallest optimal basis."""
    w = tuple(Fraction(x) for x in w)
    if len(w) != matroid.m:
        raise ValidationError("weight vector length must equal the ground size")
    order = sorted(range(1, matroid.m + 1), key=lambda e: (-w[e - 1], e))
    chosen = frozenset()
    for e in order:
        if matroid.rank(chosen | {e}) > len(chosen):
            chosen = chosen | {e}
    return chosen


def bergman_project(matroid: Matroid, w):
    """Project a weight vector onto the lifted Bergman fan.

    Coordinate i maps to the largest level k (a value of w) such that i lies
    in the closure of the level set {j : w_j >= k}.  The projection is the
    identity exactly on the lifted Bergman fan and is idempotent.
    """
    w = tuple(Fraction(x) for x in w)
    if len(w) != matroid.m:
        raise ValidationError("weight vector length must equal the ground size")
    levels = sorted(set(w), reverse=True)
    # every i sits in its own level set, so values only ever move up; the
    # largest level whose closure picks up i wins
    result = list(w)
    for k in levels:
        level_set = frozenset(j + 1 for j, x in enumerate(w) if x >= k)
        for i in matroid.closure(level_set):
            if result[i - 1] < k:
                result[i - 1] = k
    return tuple(result)


def in_lifted_bergman(matroid: Matroid, w) -> bool:
    """Is every level set {j : w_j >= k} a flat?"""
    w = tuple(Fraction(x) for x in w)
    for k in set(w):
        level_set = frozenset(j + 1 for j, x in enumerate(w) if x >= k)
        if not matroid.is_flat(level_set):
            return False
    return True


def level_flag(matroid: Matroid, w) -> FlagOfFlats:
    """Flag of level-set flats of a lifted Bergman point, smallest first."""
    w = tuple(Fraction(x) for x in w)
    chain = []
    for k in sorted(set(w), reverse=True):
        level_set = frozenset(j + 1 for j, x in enumerate(w) if x >= k)
        if not chain or level_set != chain[-1]:
            chain.append(level_set)
    if chain[-1] != matroid.ground:
        chain.append(matroid.ground)
    return FlagOfFlats(matroid, chain)


def apartment_contains(matroid: Matroid, basis, vectors) -> bool:
    """Do all given lifted Bergman points lie in the apartment of a basis?

    A point lies in the apartment iff the basis is adapted to its level-set
    flag: every level flat F satisfies |F & B| = rank(F) and the closure of
    F & B recovers F.
    """
    b = frozenset(basis)
    if b not in matroid.bases:
        raise ValidationError(f"{sorted(b)} is not a basis")
    for w in vectors:
        if not in_lifted_bergman(matroid, w):
            return False
        for f in level_flag(matroid, w):
            if len(f & b) != matroid.rank(f):
                return False
            if matroid.closure(f & b) != f:
                return False
    return True


def initial_matroid(matroid: Matroid, w) -> Matroid:
    """Matroid whose bases are the bases of maximal total weight."""
    w = tuple(Fraction(x) for x in w)
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
    coords = {e: Fraction(v) for e, v in coords.items()}
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
