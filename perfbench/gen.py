"""Seeded input generators for the benchmark.

Nothing here imports tropehrhart: bundles, chains and matroids are built
and sized from first principles, so the program under test only ever sees
the JSON files written from these objects.

Bundles use uniform matroids U(r, m) (plus the fixed Fano bundle). For
U(r, m) a row w lies in the lifted Bergman fan iff its m - r + 1 smallest
entries are equal, i.e. the set S(w) of entries above min(w) has fewer than
r elements; the rows of a cone share an adapted basis iff the union of their
S(w) has at most r elements. The generator draws rows with entries in
[-2, 2] and rejects diagrams that break the cone condition, so every
generated bundle is valid by construction.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

ENTRY_LO, ENTRY_HI = -2, 2

# ---------------------------------------------------------------------------
# Fans (rays and maximal cones, 0-indexed)
# ---------------------------------------------------------------------------


def _p3():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return rays, [list(c) for c in itertools.combinations(range(4), 3)]


def _p1_cubed():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [[i if s == 0 else i + 3 for i, s in enumerate(signs)]
             for signs in itertools.product((0, 1), repeat=3)]
    return rays, cones


FANS = {
    "P2": ([(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]]),
    "P1xP1": ([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "hexagon": (
        [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
        [[0, 5], [5, 1], [1, 3], [3, 2], [2, 4], [4, 0]],
    ),
    "P3": _p3(),
    "P1^3": _p1_cubed(),
}

FANO_LINES = [{2, 3, 4}, {1, 3, 5}, {1, 2, 6}, {1, 4, 7}, {2, 5, 7}, {3, 6, 7}, {4, 5, 6}]
FANO_DIAGRAM = [(2, 0, 0, 1, 0, 0, 1), (0, 2, 0, 0, 1, 0, 1), (0, 0, 2, 0, 0, 1, 1)]


# ---------------------------------------------------------------------------
# Exact helpers
# ---------------------------------------------------------------------------


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return tuple(int(x) // g for x in v) if g else tuple(v)


def _canonical_line(v):
    """Primitive normal of a hyperplane, sign-normalised (first nonzero > 0)."""
    p = _primitive(v)
    first = next(x for x in p if x)
    return p if first > 0 else tuple(-x for x in p)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def _solve(rows, rhs):
    """Unique solution of a square nonsingular system, exact."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] / a[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


class Bundle:
    """A generated bundle plus the sizes the benchmark states for it."""

    def __init__(self, name, fan_name, m, bases, diagram):
        self.name = name
        self.fan_name = fan_name
        self.rays, self.cones = FANS[fan_name]
        self.m = m
        self.bases = bases
        self.diagram = [tuple(row) for row in diagram]

    def to_json(self):
        return {
            "fan": {"rays": [list(r) for r in self.rays],
                    "cones": [[i + 1 for i in c] for c in self.cones]},
            "matroid": {"m": self.m, "bases": [sorted(b) for b in self.bases]},
            "diagram": [list(row) for row in self.diagram],
        }

    def characters(self, cone):
        """Character multiset of a maximal cone of a uniform-matroid bundle."""
        rows = [self.rays[i] for i in cone]
        r = len(self.bases[0])
        mins = [min(self.diagram[i]) for i in cone]
        above = sorted({e for i in cone for e, x in enumerate(self.diagram[i])
                        if x > min(self.diagram[i])})
        chars = [_solve(rows, [self.diagram[i][e] for i in cone]) for e in above]
        chars += [_solve(rows, mins)] * (r - len(above))
        return chars

    def hyperplanes(self):
        """Distinct branch-difference hyperplanes over all maximal cones."""
        out = set()
        for cone in self.cones:
            chars = self.characters(cone)
            for a, b in itertools.combinations(chars, 2):
                diff = tuple(x - y for x, y in zip(a, b))
                if any(diff):
                    den = 1
                    for x in diff:
                        den = den * x.denominator // gcd(den, x.denominator)
                    out.add(_canonical_line([x * den for x in diff]))
        return out

    def has_sections(self):
        """Is some parliament polytope {y : <y, v_i> <= D[i][e]} nonempty?

        The polytope is bounded (the fan is complete), so it is nonempty
        iff some nonsingular choice of dim tight rays gives a feasible point.
        """
        dim = len(self.rays[0])
        for e in range(self.m):
            for tight in itertools.combinations(range(len(self.rays)), dim):
                rows = [self.rays[i] for i in tight]
                if _det(rows) == 0:
                    continue
                y = _solve(rows, [self.diagram[i][e] for i in tight])
                if all(sum(a * b for a, b in zip(y, r)) <= self.diagram[i][e]
                       for i, r in enumerate(self.rays)):
                    return True
        return False

    def refined_rays_2d(self):
        """Ray count of the 2-d fan refined by every difference line."""
        rays = {tuple(r) for r in self.rays}
        for a, b in self.hyperplanes():
            rays.add(_primitive((-b, a)))
            rays.add(_primitive((b, -a)))
        return len(rays)


def _symmetries(fan_name):
    """Ray permutations induced by signed coordinate permutations that map
    the fan onto itself. They keep every size stated here, the chi box
    included, so a relabelled bundle costs the program the same work."""
    rays, cones = FANS[fan_name]
    dim = len(rays[0])
    index = {tuple(r): i for i, r in enumerate(rays)}
    cone_set = {frozenset(c) for c in cones}
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            images = [tuple(signs[k] * r[perm[k]] for k in range(dim)) for r in rays]
            if not all(im in index for im in images):
                continue
            sigma = [index[im] for im in images]
            if {frozenset(sigma[i] for i in c) for c in cones} == cone_set:
                out.append(sigma)
    return out


def relabel(bundle, rng):
    """An isomorphic copy: a fan symmetry moves the rows, a random
    permutation of the ground set moves the columns and the bases."""
    sigma = rng.choice(_symmetries(bundle.fan_name))
    pi = list(range(bundle.m))
    rng.shuffle(pi)
    diagram = [None] * len(bundle.diagram)
    for i, row in enumerate(bundle.diagram):
        new = [None] * bundle.m
        for e, x in enumerate(row):
            new[pi[e]] = x
        diagram[sigma[i]] = tuple(new)
    bases = sorted(sorted(pi[e - 1] + 1 for e in b) for b in bundle.bases)
    return Bundle(bundle.name, bundle.fan_name, bundle.m, bases, diagram)


def fano_bundle():
    bases = [sorted(b) for b in itertools.combinations(range(1, 8), 3)
             if set(b) not in FANO_LINES]
    return Bundle("fano", "P2", 7, bases, FANO_DIAGRAM)


def _uniform_row(rng, m, r):
    low = rng.randint(ENTRY_LO, ENTRY_HI)
    row = [low] * m
    if low < ENTRY_HI:
        for e in rng.sample(range(m), rng.randint(0, r - 1)):
            row[e] = rng.randint(low + 1, ENTRY_HI)
    return row


def _cone_ok(diagram, cone, r):
    above = {e for i in cone for e, x in enumerate(diagram[i]) if x > min(diagram[i])}
    return len(above) <= r


def uniform_bundle(rng, fan_name, r, m, size_of, target, accept=None, tries=20000):
    """Random valid U(r, m) bundle whose stated size equals target.

    size_of maps a Bundle to its stated size (hyperplane count or refined
    ray count). Diagrams are drawn until one is valid, has that size and
    passes `accept` when given.
    """
    rays, cones = FANS[fan_name]
    bases = [list(b) for b in itertools.combinations(range(1, m + 1), r)]
    for _ in range(tries):
        diagram = [_uniform_row(rng, m, r) for _ in rays]
        if not all(_cone_ok(diagram, c, r) for c in cones):
            continue
        b = Bundle(f"{fan_name}-U{r}{m}", fan_name, m, bases, diagram)
        if size_of(b) == target and (accept is None or accept(b)):
            return b
    raise RuntimeError(f"no {fan_name} U({r},{m}) bundle of size {target}")


def hyperplane_count(b):
    return len(b.hyperplanes())


# ---------------------------------------------------------------------------
# Chain files: pieces that all contain the cross-polytope conv(+-e_i)
# ---------------------------------------------------------------------------


def point_cloud_chain(rng, dim, npoints, pieces=3, spread=3):
    """Chain of `pieces` hulls of npoints random lattice points each.

    Every piece's point list includes +-e_i, so 0 is interior to every
    piece; the rest are distinct random points of [-spread, spread]^dim.
    """
    terms = []
    axes = []
    for i in range(dim):
        for s in (1, -1):
            axes.append(tuple(s if j == i else 0 for j in range(dim)))
    for _ in range(pieces):
        pts = list(axes)
        seen = set(pts)
        while len(pts) < npoints:
            p = tuple(rng.randint(-spread, spread) for _ in range(dim))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append({"coeff": coeff, "vertices": [list(p) for p in pts]})
    return {"terms": terms}


def relabel_chain(chain, rng):
    """An isomorphic copy under a random signed permutation of coordinates,
    which keeps +-e_i in every piece; vertex order is shuffled too."""
    dim = len(chain["terms"][0]["vertices"][0])
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    terms = []
    for t in chain["terms"]:
        verts = [[signs[k] * v[perm[k]] for k in range(dim)] for v in t["vertices"]]
        rng.shuffle(verts)
        terms.append({"coeff": t["coeff"], "vertices": verts})
    return {"terms": terms}


def chain_far_point(chain):
    """A lattice point outside every piece's bounding box."""
    top = max(x for t in chain["terms"] for v in t["vertices"] for x in v)
    dim = len(chain["terms"][0]["vertices"][0])
    return (top + 1,) + (0,) * (dim - 1)


# ---------------------------------------------------------------------------
# Tautological sweep
# ---------------------------------------------------------------------------


def uniform_matroid_json(rng, r, m):
    bases = [sorted(b) for b in itertools.combinations(range(1, m + 1), r)]
    rng.shuffle(bases)
    return {"m": m, "bases": bases}


def slice_box_count(m, bound):
    """Number of u in [-bound, bound]^m with sum(u) == 1 (by counting DP)."""
    counts = {0: 1}
    for _ in range(m):
        nxt = {}
        for s, c in counts.items():
            for x in range(-bound, bound + 1):
                nxt[s + x] = nxt.get(s + x, 0) + c
        counts = nxt
    return counts.get(1, 0)


def rng_for(seed, label):
    return random.Random(f"{seed}:{label}")
