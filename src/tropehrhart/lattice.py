"""Exact rational polyhedral geometry: cones, fans, polytopes.

All computations use integer and Fraction arithmetic.  Cones are stored by
primitive integer ray generators (plus explicit lineality generators where
needed, e.g. for dual cones of low-dimensional cones).  Polytopes carry exact
rational vertices; half-space descriptions use integer normals with rational
bounds, read as <y, normal> <= bound.

Dimension caps: vertex enumeration works up to ambient dimension 4 and fan
refinement up to 3, enforced with explicit errors.  Every conversion between
rays and half-spaces (dual cones, intersections, hulls, vertex enumeration)
goes through one incremental double description in integer arithmetic,
`vcone_from_halfspaces`; hulls of every dimension and affine rank take that
route through `_hull_data`.  Face lattices come from one closure of facet
incidences under intersection, `_intersection_closure`.  One pulling
triangulation on index sets and facet incidences, `_pulling_triangulation`,
splits polytopes into simplices for `volume` in every dimension and pointed
cones into simplicial cones on their own rays for the Riemann-Roch volume
form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, factorial, floor, gcd, lcm

from .errors import (
    BoxTooLargeError,
    NotInSupportError,
    UnboundedPolyhedronError,
    UnsupportedDimensionError,
    ValidationError,
)
from .linalg import (
    affine_rank,
    det,
    dot,
    echelon,
    integral,
    is_zero,
    nullspace,
    primitive,
    rank,
    reduce_mod,
    vec_neg,
    vec_sub,
)

VERTEX_ENUM_MAX_DIM = 4
REFINE_MAX_DIM = 3
# integer points in one lattice-sum or Euler-characteristic box
BOX_MAX_POINTS = 1 << 20


# ---------------------------------------------------------------------------
# Half-space representation to generators (incremental double description)
# ---------------------------------------------------------------------------

def vcone_from_halfspaces(normals, dim):
    """Extreme rays and lineality of the cone {x : <n, x> >= 0 for all n}.

    Rays are primitive integer vectors, reduced modulo the lineality space so
    the output is canonical; the lineality basis is `nullspace` of the rows.

    Incremental double description (Fukuda-Prodon 1996) in integers: start
    from the simplicial cone of r independent rows inside the orthogonal
    complement of the lineality, then cut it by the other rows one at a
    time.  Each cut keeps the rays on its nonnegative side and adds one ray
    for every combinatorially adjacent pair of rays on opposite sides.
    """
    rows = []
    seen = set()
    for n in normals:
        p = primitive(tuple(n))
        if not is_zero(p) and p not in seen:
            seen.add(p)
            rows.append(p)
    if not rows:
        basis = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return (), basis
    independent = echelon(rows, dim)
    lin = nullspace([b for _, _, b in independent], dim)
    r = len(independent)
    start = [i for i, _, _ in independent]
    # (ray, bitmask of the rows it is tight on); start ray i is tight on
    # every start row but row i, and orthogonal to the lineality
    all_start = sum(1 << i for i in start)
    rays = []
    for i in start:
        (v,) = nullspace([rows[j] for j in start if j != i] + lin, dim)
        rays.append((v if dot(rows[i], v) > 0 else vec_neg(v), all_start ^ (1 << i)))
    for k, row in enumerate(rows):
        if all_start >> k & 1:
            continue
        bit = 1 << k
        kept, pos, neg = [], [], []
        for v, z in rays:
            s = dot(row, v)
            if s > 0:
                kept.append((v, z))
                pos.append((v, z, s))
            elif s < 0:
                neg.append((v, z, s))
            else:
                kept.append((v, z | bit))
        for vp, zp, sp in pos:
            for vn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < r - 2 or not _adjacent(common, rays):
                    continue
                w = primitive(tuple(sp * a - sn * b for a, b in zip(vn, vp)))
                kept.append((w, common | bit))
        rays = kept
    if lin:
        lin_basis = echelon(lin)
        out = {reduce_mod(v, lin_basis) for v, _ in rays}
    else:
        out = {v for v, _ in rays}
    return tuple(sorted(out)), tuple(lin)


def _adjacent(common, rays):
    """Combinatorial adjacency test: only the two rays of the pair are tight
    on every row of their common zero set."""
    count = 0
    for _, z in rays:
        if z & common == common:
            count += 1
            if count > 2:
                return False
    return True


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

class Cone:
    """Rational polyhedral cone, generated by rays plus a lineality space."""

    def __init__(self, rays, ambient_dim, lineality=()):
        rays = tuple(primitive(tuple(r)) for r in rays)
        if any(is_zero(r) for r in rays):
            raise ValidationError("zero vector is not a valid ray generator")
        if len(set(rays)) != len(rays):
            raise ValidationError("repeated ray generator")
        self.ambient_dim = ambient_dim
        self.rays = rays
        self.lineality = tuple(primitive(tuple(v)) for v in lineality)
        self._dual = None
        self._faces = None

    @property
    def dim(self) -> int:
        vecs = list(self.rays) + list(self.lineality)
        if not vecs:
            return 0
        return rank(vecs)

    @property
    def generators(self):
        """All generators: rays plus both signs of every lineality vector."""
        gens = list(self.rays)
        for l in self.lineality:
            gens.append(l)
            gens.append(vec_neg(l))
        return tuple(gens)

    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def dual(self) -> "Cone":
        """The dual cone {u : <u, x> >= 0 for all x in this cone}."""
        if self._dual is None:
            rays, lin = vcone_from_halfspaces(self.generators, self.ambient_dim)
            self._dual = Cone(rays, self.ambient_dim, lineality=lin)
            self._dual._dual = self  # duality is involutive for closed cones
        return self._dual

    def contains(self, x) -> bool:
        d = self.dual
        return all(dot(g, x) >= 0 for g in d.rays) and all(
            dot(l, x) == 0 for l in d.lineality
        )

    def intersect(self, other: "Cone") -> "Cone":
        normals = list(self.dual.generators) + list(other.dual.generators)
        rays, lin = vcone_from_halfspaces(normals, self.ambient_dim)
        return Cone(rays, self.ambient_dim, lineality=lin)

    def intersect_halfspace(self, normal) -> "Cone":
        normals = list(self.dual.generators) + [tuple(normal)]
        rays, lin = vcone_from_halfspaces(normals, self.ambient_dim)
        return Cone(rays, self.ambient_dim, lineality=lin)

    def face_ray_sets(self):
        """All faces of a pointed cone, as frozensets of local ray indices."""
        if not self.is_pointed():
            raise ValidationError("face enumeration requires a pointed cone")
        if self._faces is not None:
            return self._faces
        zero_sets = [
            frozenset(i for i, r in enumerate(self.rays) if dot(g, r) == 0)
            for g in self.dual.rays
        ]
        faces = _intersection_closure(len(self.rays), zero_sets)
        self._faces = sorted(faces, key=lambda s: (len(s), sorted(s)))
        return self._faces

    def face_dims(self):
        """Dimension of every face, keyed by its set of local ray indices.

        Read off the face lattice, which is graded: a face is one dimension
        above the largest of its proper subfaces.  The smallest face is the
        lineality space, the empty set of rays (dimension 0) when the cone
        is pointed.
        """
        dims = {}
        for face in self.face_ray_sets():  # by size, so subfaces come first
            below = [d for sub, d in dims.items() if sub < face]
            if below:
                dims[face] = 1 + max(below)
            else:
                dims[face] = rank([self.rays[i] for i in face]) if face else 0
        return dims

    def key(self):
        if self.lineality:
            lin_red = (b for _, _, b in echelon(self.lineality))
            return (frozenset(self.rays), frozenset(lin_red))
        return frozenset(self.rays)

    def __repr__(self):
        s = f"Cone(rays={list(self.rays)}"
        if self.lineality:
            s += f", lineality={list(self.lineality)}"
        return s + ")"

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _intersection_closure(n, zero_sets):
    """All intersections of {0, ..., n-1} with subfamilies of zero_sets.

    With the facet incidences of a cone or polytope as zero_sets, these are
    its faces as sets of ray or vertex indices (the empty set included).
    """
    full = frozenset(range(n))
    closed = {full}
    frontier = [full]
    while frontier:
        face = frontier.pop()
        for z in zero_sets:
            sub = face & z
            if sub not in closed:
                closed.add(sub)
                frontier.append(sub)
    return closed


def dual_cone(c: Cone) -> Cone:
    """Generators of {u : <u, x> >= 0 on c}, by double description."""
    if c.ambient_dim > VERTEX_ENUM_MAX_DIM:
        raise UnsupportedDimensionError(
            f"dual cone computation capped at ambient dimension {VERTEX_ENUM_MAX_DIM}"
        )
    return c.dual


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------

class Fan:
    """Rational polyhedral fan, closed under taking faces.

    Rays are indexed; cones are stored as frozensets of ray indices.  The fan
    property (any two cones intersect in a common face) is verified at
    construction.
    """

    def __init__(self, rays, maximal_cones, ambient_dim=None, *, validate=True):
        rays = [primitive(tuple(r)) for r in rays]
        if any(is_zero(r) for r in rays):
            raise ValidationError("zero vector cannot be a fan ray")
        if len(set(rays)) != len(rays):
            raise ValidationError("repeated fan ray")
        if ambient_dim is None:
            if not rays:
                raise ValidationError("ambient dimension required for a trivial fan")
            ambient_dim = len(rays[0])
        if any(len(r) != ambient_dim for r in rays):
            raise ValidationError(
                f"every fan ray needs {ambient_dim} coordinates"
            )
        self.ambient_dim = ambient_dim
        self.rays = tuple(rays)

        listed = []
        for c in maximal_cones:
            key = frozenset(c)
            if any(i < 0 or i >= len(rays) for i in key):
                raise ValidationError("cone refers to a missing ray index")
            if key not in listed:
                listed.append(key)
        # drop cones that are faces of other listed cones
        maximal = [k for k in listed if not any(k < other for other in listed)]

        self._cone_cache = {}
        cone_dims = {}
        # the faces of each maximal cone, as sets of fan ray indices
        self.cone_faces = {}
        for key in maximal:
            ordered = sorted(key)
            faces = self.cone_faces[key] = set()
            for local, dim in self._make_cone(key).face_dims().items():
                face = frozenset(ordered[i] for i in local)
                faces.add(face)
                cone_dims.setdefault(face, dim)
        self.cone_dims = cone_dims
        self.maximal_keys = tuple(
            sorted(maximal, key=lambda k: sorted(k))
        )
        self.cone_keys = tuple(
            sorted(cone_dims, key=lambda k: (cone_dims[k], sorted(k)))
        )
        self._complete = None
        self._smooth = None
        if validate:
            self._validate(listed)

    def _make_cone(self, key) -> Cone:
        if key not in self._cone_cache:
            self._cone_cache[key] = Cone(
                tuple(self.rays[i] for i in sorted(key)), self.ambient_dim
            )
        return self._cone_cache[key]

    def cone(self, key) -> Cone:
        key = frozenset(key)
        if key not in self.cone_dims:
            raise KeyError(f"no cone with ray indices {sorted(key)}")
        return self._make_cone(key)

    def dim(self, key) -> int:
        return self.cone_dims[frozenset(key)]

    def codim(self, key) -> int:
        return self.ambient_dim - self.cone_dims[frozenset(key)]

    def _validate(self, listed):
        for key in self.maximal_keys:
            cone = self._make_cone(key)
            if cone.lineality:
                raise ValidationError("fan cones must be strictly convex")
            # the origin is a face (no ray) exactly when the cone is pointed,
            # and a ray is extreme exactly when it alone is a face
            faces = self.cone_faces[key]
            if frozenset() not in faces or any(
                frozenset((i,)) not in faces for i in key
            ):
                raise ValidationError(
                    f"rays of cone {sorted(key)} are not all extreme"
                )
        for key, other in itertools.product(listed, self.maximal_keys):
            if key < other and key not in self.cone_faces[other]:
                raise ValidationError(
                    f"cone {sorted(key)} lies inside cone {sorted(other)} "
                    "but is not a face of it"
                )
        index = {r: i for i, r in enumerate(self.rays)}
        for a, b in itertools.combinations(self.maximal_keys, 2):
            # pointed cones meet in a pointed cone; its rays must be fan
            # rays and span a face of both
            inter = self._make_cone(a).intersect(self._make_cone(b))
            ikey = frozenset(index.get(r, -1) for r in inter.rays)
            if ikey not in self.cone_faces[a] or ikey not in self.cone_faces[b]:
                raise ValidationError(
                    f"cones {sorted(a)} and {sorted(b)} do not meet in a face"
                )

    # -- global predicates --------------------------------------------------

    def is_complete(self) -> bool:
        """Do the maximal cones cover the whole space?

        Checked by facet pairing: every facet of a maximal cone must be
        shared by exactly two maximal cones.
        """
        if self._complete is None:
            self._complete = self._check_complete()
        return self._complete

    def _check_complete(self) -> bool:
        if not self.maximal_keys:
            return False
        n = self.ambient_dim
        for key in self.maximal_keys:
            if self.cone_dims[key] != n:
                return False
        for key in self.maximal_keys:
            cone = self._make_cone(key)
            ordered = sorted(key)
            for local in cone.face_ray_sets():
                face_key = frozenset(ordered[i] for i in local)
                if self.cone_dims.get(face_key) != n - 1:
                    continue
                count = sum(1 for m in self.maximal_keys if face_key <= m)
                if count != 2:
                    return False
        return True

    def is_smooth(self) -> bool:
        """Does every maximal cone's ray set extend to a lattice basis?"""
        if self._smooth is None:
            self._smooth = all(
                cone_is_smooth(self._make_cone(k)) for k in self.maximal_keys
            )
        return self._smooth

    def support_contains(self, x) -> bool:
        return any(self._make_cone(k).contains(x) for k in self.maximal_keys)

    def __repr__(self):
        return (
            f"Fan(ambient_dim={self.ambient_dim}, rays={len(self.rays)}, "
            f"maximal={len(self.maximal_keys)}, cones={len(self.cone_keys)})"
        )


def cone_is_smooth(c: Cone) -> bool:
    if c.lineality:
        return False
    k = len(c.rays)
    if k == 0:
        return True
    if rank(list(c.rays)) != k:
        return False
    minors = []
    for cols in itertools.combinations(range(c.ambient_dim), k):
        m = [[r[j] for j in cols] for r in c.rays]
        minors.append(abs(det(m)))
    g = 0
    for m in minors:
        g = gcd(g, m)
    return g == 1


def is_smooth(f: Fan) -> bool:
    return f.is_smooth()


def is_complete(f: Fan) -> bool:
    return f.is_complete()


def is_refinement(f2: Fan, f1: Fan) -> bool:
    """Does every cone of f2 sit inside a cone of f1 (with equal support)?"""
    if f2.ambient_dim != f1.ambient_dim:
        return False
    for key in f2.maximal_keys:
        cone = f2.cone(key)
        if not any(
            all(f1.cone(k1).contains(r) for r in cone.rays)
            for k1 in f1.maximal_keys
        ):
            return False
    if f1.is_complete() and not f2.is_complete():
        return False
    # original rays must survive in the refinement
    for r in f1.rays:
        if not f2.support_contains(r):
            return False
    return True


def min_containing_cone(f: Fan, x) -> frozenset:
    """Ray-index key of the unique smallest cone of f containing x."""
    for key in f.cone_keys:  # sorted by dimension
        if f.cone(key).contains(x):
            return key
    raise NotInSupportError(f"point {tuple(x)} is outside the fan support")


def refine_by_hyperplanes(f: Fan, normals) -> Fan:
    """Common refinement of f with the sign cells of linear hyperplanes."""
    if f.ambient_dim > REFINE_MAX_DIM:
        raise UnsupportedDimensionError(
            f"hyperplane refinement capped at ambient dimension {REFINE_MAX_DIM}"
        )
    todo = []
    seen = set()
    for n in normals:
        p = primitive(tuple(n))
        if is_zero(p):
            continue
        canon = p if _sign_key(p) > 0 else vec_neg(p)
        if canon not in seen:
            seen.add(canon)
            todo.append(canon)
    if not todo:
        return f

    pieces = []
    for key in f.maximal_keys:
        stack = [f.cone(key)]
        for n in todo:
            nxt = []
            for c in stack:
                signs = [dot(n, r) for r in c.rays]
                if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
                    nxt.append(c)
                else:
                    nxt.append(c.intersect_halfspace(n))
                    nxt.append(c.intersect_halfspace(vec_neg(n)))
            stack = nxt
        pieces.extend(stack)

    new_rays = list(f.rays)
    for c in pieces:
        for r in c.rays:
            if r not in new_rays:
                new_rays.append(r)
    old = len(f.rays)
    new_rays = new_rays[:old] + sorted(new_rays[old:])
    maximal = [frozenset(new_rays.index(r) for r in c.rays) for c in pieces]
    # a common refinement is a fan by construction
    return Fan(new_rays, maximal, f.ambient_dim, validate=False)


def _sign_key(v) -> int:
    for x in v:
        if x != 0:
            return 1 if x > 0 else -1
    return 0


def stellar_subdivision(f: Fan, v) -> Fan:
    """Star subdivision of f at the primitive lattice point v."""
    v = primitive(tuple(v))
    if is_zero(v):
        raise ValidationError("cannot subdivide at the origin")
    if not f.support_contains(v):
        raise NotInSupportError(f"{v} is outside the fan support")
    if v in f.rays:
        return f
    new_rays = list(f.rays) + [v]
    vi = len(f.rays)
    maximal = []
    for key in f.maximal_keys:
        cone = f.cone(key)
        if not cone.contains(v):
            maximal.append(key)
            continue
        ordered = sorted(key)
        for local in cone.face_ray_sets():
            face_key = frozenset(ordered[i] for i in local)
            if f.cone_dims[face_key] != f.cone_dims[key] - 1:
                continue
            if f.cone(face_key).contains(v):
                continue
            maximal.append(face_key | {vi})
    return Fan(new_rays, maximal, f.ambient_dim)


# ---------------------------------------------------------------------------
# Polyhedra
# ---------------------------------------------------------------------------

def _integer_normal(n):
    """The normal as a tuple of ints; a non-integer entry is refused."""
    n = tuple(n)
    row = tuple(int(x) for x in n)
    if row != n:
        raise ValidationError(
            f"half-space normal ({', '.join(map(str, n))}) has a non-integer entry"
        )
    return row


class HPolyhedron:
    """Intersection of half-spaces <y, v> <= d and hyperplanes <y, v> = d."""

    def __init__(self, inequalities=(), equalities=(), ambient_dim=None):
        ineqs = [(_integer_normal(n), Fraction(b)) for n, b in inequalities]
        eqs = [(_integer_normal(n), Fraction(b)) for n, b in equalities]
        if ambient_dim is None:
            if ineqs:
                ambient_dim = len(ineqs[0][0])
            elif eqs:
                ambient_dim = len(eqs[0][0])
            else:
                raise ValidationError("ambient dimension required")
        if any(len(n) != ambient_dim for n, _ in ineqs + eqs):
            raise ValidationError(
                f"half-space normals must have {ambient_dim} coordinates"
            )
        self.ambient_dim = ambient_dim
        self.inequalities = tuple(ineqs)
        self.equalities = tuple(eqs)
        self._generators = None

    def contains(self, y) -> bool:
        return all(dot(n, y) <= b for n, b in self.inequalities) and all(
            dot(n, y) == b for n, b in self.equalities
        )

    def generators(self):
        """(vertices, rays, lineality) via homogenization.

        Vertices are exact rational points (representatives of minimal faces
        when the polyhedron has lineality); rays and lineality are primitive
        integer vectors.
        """
        if self._generators is not None:
            return self._generators
        d = self.ambient_dim
        rows = []
        for n, b in self.inequalities:
            q = b.denominator
            rows.append(tuple(-q * x for x in n) + (int(b * q),))
        for n, b in self.equalities:
            q = b.denominator
            row = tuple(q * x for x in n) + (-int(b * q),)
            rows.append(row)
            rows.append(vec_neg(row))
        rows.append(tuple([0] * d + [1]))
        crays, clin = vcone_from_halfspaces(rows, d + 1)
        verts = []
        rec_rays = []
        rec_lin = [l[:d] for l in clin]
        for r in crays:
            t = r[d]
            if t > 0:
                verts.append(tuple(Fraction(x, t) for x in r[:d]))
            else:
                rec_rays.append(primitive(r[:d]))
        self._generators = (tuple(sorted(verts)), tuple(sorted(rec_rays)),
                            tuple(sorted(rec_lin)))
        return self._generators

    def is_empty(self) -> bool:
        return not self.generators()[0]

    def __repr__(self):
        return (
            f"HPolyhedron({len(self.inequalities)} inequalities, "
            f"{len(self.equalities)} equalities, dim<={self.ambient_dim})"
        )


class VPolytope:
    """Bounded polytope given by its exact rational vertex set."""

    def __init__(self, vertices, ambient_dim=None, *, trusted=False):
        pts = [tuple(Fraction(x) for x in p) for p in vertices]
        if ambient_dim is None:
            if not pts:
                raise ValidationError("ambient dimension required for empty polytope")
            ambient_dim = len(pts[0])
        if any(len(p) != ambient_dim for p in pts):
            raise ValidationError(
                f"polytope vertices must have {ambient_dim} coordinates"
            )
        self.ambient_dim = ambient_dim
        self._hrep = None
        self._faces = None
        if pts and not trusted:
            facets = []
            pts = convex_hull_vertices(pts, facets)
            self._hrep = facets[0]
        self.vertices = tuple(sorted(set(pts)))

    @property
    def dim(self) -> int:
        return affine_rank(self.vertices)

    def is_empty(self) -> bool:
        return not self.vertices

    def negate(self) -> "VPolytope":
        return VPolytope(
            [tuple(-x for x in v) for v in self.vertices],
            self.ambient_dim,
            trusted=True,
        )

    def hrep(self):
        """(inequalities, equalities) cutting out this polytope."""
        if self._hrep is None:
            if not self.vertices:
                # canonical empty system: 0 <= -1
                self._hrep = (((tuple([0] * self.ambient_dim), Fraction(-1)),), ())
            else:
                _, ineqs, eqs = _hull_data(self.vertices, self.ambient_dim)
                self._hrep = (tuple(ineqs), tuple(eqs))
        return self._hrep

    def contains(self, y) -> bool:
        ineqs, eqs = self.hrep()
        return all(dot(n, y) <= b for n, b in ineqs) and all(
            dot(n, y) == b for n, b in eqs
        )

    def faces(self):
        """Full face lattice (this polytope included, empty face excluded).

        Returns a list of (face, dim, tangent_cone) triples; the tangent cone
        of a face is the intersection of the supporting half-spaces active on
        it, as an HPolyhedron.
        """
        if self._faces is not None:
            return self._faces
        if not self.vertices:
            self._faces = []
            return self._faces
        ineqs, eqs = self.hrep()
        verts = self.vertices
        incidences = [
            frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
            for n, b in ineqs
        ]
        face_sets = _intersection_closure(len(verts), incidences)
        face_sets.discard(frozenset())
        result = []
        for fs in sorted(face_sets, key=lambda s: (len(s), sorted(s))):
            pts = [verts[i] for i in sorted(fs)]
            face = VPolytope(pts, self.ambient_dim, trusted=True)
            active = [
                (n, b) for (n, b), inc in zip(ineqs, incidences) if fs <= inc
            ]
            tangent = HPolyhedron(active, eqs, self.ambient_dim)
            result.append((face, affine_rank(pts), tangent))
        result.sort(key=lambda t: (t[1], t[0].vertices))
        self._faces = result
        return self._faces

    def __eq__(self, other):
        return isinstance(other, VPolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"VPolytope({len(self.vertices)} vertices in dim {self.ambient_dim})"


# ---------------------------------------------------------------------------
# Convex hulls
# ---------------------------------------------------------------------------

def convex_hull_vertices(points, facets=None):
    """Extreme points of a finite point set, in sorted order, by double
    description (`_hull_data`) in every dimension and affine rank.

    When `facets` is a list, the hull's (inequalities, equalities), as
    `VPolytope.hrep` returns them, are appended to it.
    """
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if not pts:
        return []
    verts, ineqs, eqs = _hull_data(pts, len(pts[0]))
    if facets is not None:
        facets.append((tuple(ineqs), tuple(eqs)))
    return verts


def _hull_data(pts, d):
    """(vertices, inequalities, equalities) of the hull of sorted distinct
    rational points."""
    hom_rows = [integral(p + (1,)) for p in pts]
    dual_rays, dual_lin = vcone_from_halfspaces(hom_rows, d + 1)
    eqs = [(g[:d], Fraction(-g[d])) for g in dual_lin]
    ineqs = [
        (vec_neg(g[:d]), Fraction(g[d]))
        for g in dual_rays
        if not is_zero(g[:d])
    ]
    # a point is a vertex when it is the only point tight on every facet it
    # is tight on (else the smallest face containing it holds another point)
    on_facet = [
        sum(1 << i for i, h in enumerate(hom_rows) if dot(g, h) == 0)
        for g in dual_rays
    ]
    everything = (1 << len(pts)) - 1
    verts = []
    for i, p in enumerate(pts):
        common = everything
        for f in on_facet:
            if f >> i & 1:
                common &= f
        if common == 1 << i:
            verts.append(p)
    return verts, ineqs, eqs


# ---------------------------------------------------------------------------
# Polytope operations
# ---------------------------------------------------------------------------

def vertex_enumeration(p: HPolyhedron) -> VPolytope:
    """Exact vertex set of a bounded H-polyhedron.

    Raises UnboundedPolyhedronError for unbounded input; an infeasible system
    yields the empty polytope.
    """
    if p.ambient_dim > VERTEX_ENUM_MAX_DIM:
        raise UnsupportedDimensionError(
            f"vertex enumeration capped at ambient dimension {VERTEX_ENUM_MAX_DIM}"
        )
    verts, rays, lin = p.generators()
    if not verts:
        return VPolytope([], p.ambient_dim)
    if rays or lin:
        raise UnboundedPolyhedronError("polyhedron is unbounded")
    return VPolytope(verts, p.ambient_dim, trusted=True)


def minkowski_sum(a: VPolytope, b: VPolytope) -> VPolytope:
    if a.ambient_dim != b.ambient_dim:
        raise ValidationError("Minkowski sum needs equal ambient dimensions")
    if a.is_empty() or b.is_empty():
        return VPolytope([], a.ambient_dim)
    sums = {
        tuple(x + y for x, y in zip(u, v))
        for u in a.vertices
        for v in b.vertices
    }
    return VPolytope(sums, a.ambient_dim)


def volume(p: VPolytope) -> Fraction:
    """Exact Euclidean volume; zero for polytopes of less than full dimension."""
    d = p.ambient_dim
    if p.dim < d:
        return Fraction(0)
    return _volume_by_pulling(p)


def _volume_by_pulling(p: VPolytope, use_max_vertex=False) -> Fraction:
    d = p.ambient_dim
    verts = p.vertices
    ineqs, _ = p.hrep()
    facets = [
        frozenset(i for i, v in enumerate(verts) if dot(n, v) == b)
        for n, b in ineqs
    ]
    pick = max if use_max_vertex else min  # vertices are sorted
    total = Fraction(0)
    for simplex in _pulling_triangulation(range(len(verts)), facets, pick):
        edges = [vec_sub(verts[i], verts[simplex[0]]) for i in simplex[1:]]
        # `integral` scales each edge by the lcm of its denominators, which
        # scales the determinant by their product
        scale = 1
        for e in edges:
            scale *= lcm(*(x.denominator for x in e))
        total += Fraction(abs(det([integral(e) for e in edges])), scale)
    return total / factorial(d)


def _pulling_triangulation(indices, facets, pick=min):
    """Triangulate by pulling: every face is coned from pick(face) over the
    triangulations of its facets that miss it.

    Faces are sets of `indices`, the vertices of a polytope or the rays of a
    pointed cone, which has the face lattice of a cross-section; `facets`
    are the facet incidences.  The facets of a face G are the maximal proper
    sets among G & F over the facets F.  Returns index tuples.
    """
    done = {}

    def pull(face):
        if face not in done:
            v = pick(face)
            if len(face) == 1:
                done[face] = [(v,)]
            else:
                subs = {face & f for f in facets} - {face}
                done[face] = [
                    s + (v,)
                    for sub in subs
                    if v not in sub and not any(sub < other for other in subs)
                    for s in pull(sub)
                ]
        return done[face]

    return pull(frozenset(indices))


def faces(p: VPolytope):
    return p.faces()


def bounding_box(points, pad=0):
    """Integer bounding box of a set of rational points, padded outward."""
    pts = list(points)
    d = len(pts[0])
    lo = tuple(floor(min(p[i] for p in pts)) - pad for i in range(d))
    hi = tuple(ceil(max(p[i] for p in pts)) + pad for i in range(d))
    return lo, hi


def box_size(lo, hi) -> int:
    """Number of integer points of the box [lo, hi]; BoxTooLargeError above
    BOX_MAX_POINTS."""
    count = 1
    for l, h in zip(lo, hi):
        count *= max(h - l + 1, 0)
    if count > BOX_MAX_POINTS:
        raise BoxTooLargeError(
            f"box has {count} points, above the cap of {BOX_MAX_POINTS}"
        )
    return count


def check_box(box, dim) -> int:
    """Number of integer points of a summation box, after checking the box.

    A box must have `dim` coordinates and hi - lo >= 2 in each, so that an
    interior point lies behind its margin shell, and at most
    BOX_MAX_POINTS points.  All of it is checked before any point exists.
    """
    lo, hi = box
    if len(lo) != dim or len(hi) != dim:
        raise ValidationError(
            f"box has {len(lo)} and {len(hi)} coordinates, expected {dim}"
        )
    for l, h in zip(lo, hi):
        if h - l < 2:
            raise ValidationError(
                f"box side [{l}, {h}] has no interior point (need hi - lo >= 2)"
            )
    return box_size(lo, hi)
