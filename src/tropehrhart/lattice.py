"""Exact rational polyhedral geometry: cones, fans, polytopes.

All computations use integer and Fraction arithmetic.  Cones are stored by
primitive integer ray generators (plus explicit lineality generators where
needed, e.g. for dual cones of low-dimensional cones).  Polytopes carry exact
vertices; half-space descriptions use integer normals with exact bounds, read
as <y, normal> <= bound.  Every coordinate and bound is an exact number in
the sense of `linalg.exact`: an int where it is integral, else a Fraction.
A lattice polytope therefore holds ints only, and its hull and
containment tests run in integer arithmetic.

Dimension cap: vertex enumeration and fan refinement work up to ambient
dimension `VERTEX_ENUM_MAX_DIM` (4), enforced with explicit errors.  Every
conversion between rays and half-spaces (dual cones, intersections, hulls,
vertex enumeration) goes through one incremental double description in
integer arithmetic, `_double_description`, which returns each ray with the
bitmask of the rows tight on it; `vcone_from_halfspaces` is its public form
without the masks.
It starts from the simplicial cone that one elimination gives
(`_pivot_inverse`, which reads the kept rows, their pivots and their
inverse off one `linalg.pivot_inverse`) and cuts it one row at a time
(`_cut`).  A cone's dual and facet masks are one such double description
of its generators, with lineality or without; a pointed cone keeps the
start's inverse for `Fan.cone_inverse`, so each cone is eliminated once.
A pointed cone whose rays are all extreme (`Cone._is_exact`) has one
record (`Cone._description`): its rows and its rays, each with the mask of
the rows tight on it, a finished double description that `_continue` cuts
by new rows only.  `Cone.intersect` and `Cone.intersect_halfspace`,
through the one cut `Cone._cut_by`, continue it, and the result keeps the
continued record and reads its dual and facets off it when asked; any
other cone takes one fresh double description.  The fan check continues
each maximal cone's record by the facet rows of each other one and reads
the meet's rays off the result, without building the meet as a cone.
That way the fan check's pairwise meets, the pieces of
`refine_by_hyperplanes` and the refined fan's faces start no new double
description.  A cut refuses a normal of the wrong length before any cut.
`refine_by_hyperplanes` cuts every maximal cone by one list of
hyperplanes, or each by its own list from a map keyed by maximal cone
(`chains.split_branches` passes each cone the differences of its own
branches).  One point location:
`Cone._face_of` tests a point against a cone's facets and
`min_containing_cone` scans a fan for a point's smallest cone.  A fan
refuses a maximal cone that is not exact, lists the facets of a cone off
the same masks (`Fan.facets`), and is complete when each facet of its
maximal cones, all full-dimensional, is shared by exactly two of them
(counted as bitmasks of fan ray indices).  A fan handed its maximal
`cones`, as a refinement hands over its pieces, is known by construction
and is not checked again.  A hull of any dimension is one
double description of its homogenized points, `_hull_data`, whose masks
give each facet's points and whose lineality the equalities; a `VPolytope`
keeps that record for its faces, volume and dimension (the ambient one
less the number of equalities).  A cone's dimension is the ambient one less
that of its dual's lineality.  One test, `_extreme`, picks a hull's
vertices and checks a cone's rays (`Cone._is_exact`).  Cones, fans and polytopes read their faces and the
dimension of each top-down from facet masks (`_face_lattice`), and the
smallest face around a ray or a point is `_closure`.  One pulling
triangulation on index sets and facet incidences, `_pulling_triangulation`,
splits polytopes into simplices for `volume` in every dimension and pointed
cones into simplicial cones on their own rays for the Riemann-Roch volume
form.  Every linear system on the rays of a fan cone, of any dimension and
simplicial or not, is solved through that one inverse per cone,
`Fan.cone_inverse`: `Fan.solve_on` gives the linear function with given ray
values (or None when there is none) and `Fan.coordinates` a point's
coordinates over the rays.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import ceil, factorial, floor, gcd, lcm
from numbers import Integral

from .errors import (
    BoxTooLargeError,
    NotInSupportError,
    UnboundedPolyhedronError,
    UnsupportedDimensionError,
    ValidationError,
)
from .linalg import (
    det,
    dot,
    echelon,
    echelon_nullspace,
    exact,
    integral,
    is_zero,
    nullspace,
    pivot_inverse,
    primitive,
    quotient,
    reduce_mod,
    vec_neg,
    vec_sub,
)

VERTEX_ENUM_MAX_DIM = 4
# integer points in one lattice-sum or Euler-characteristic box
BOX_MAX_POINTS = 1 << 20


# ---------------------------------------------------------------------------
# Half-space representation to generators (incremental double description)
# ---------------------------------------------------------------------------

def vcone_from_halfspaces(normals, dim):
    """Extreme rays and lineality of the cone {x : <n, x> >= 0 for all n}.

    Rays are primitive integer vectors, reduced modulo the lineality space so
    the output is canonical; the lineality basis is `nullspace` of the rows.
    """
    rays, lin, _ = _double_description(_distinct_rows(normals), dim)
    return tuple(v for v, _ in rays), lin


def _distinct_rows(normals):
    """The nonzero normals as distinct primitive rows, in first-seen order."""
    rows = []
    seen = set()
    for n in normals:
        p = primitive(tuple(n))
        if not is_zero(p) and p not in seen:
            seen.add(p)
            rows.append(p)
    return rows


def _double_description(rows, dim):
    """Sorted (ray, tight mask) pairs, the lineality basis and the
    `_pivot_inverse` record of the cone {x : <row, x> >= 0} of distinct
    primitive nonzero rows.

    Incremental double description (Fukuda-Prodon 1996) in integers: start
    from the simplicial cone of the r rows that `echelon` keeps, whose ray
    i, tight on every kept row but row i, is column i of the record's
    inverse at the pivots and 0 elsewhere; then cut it by the other rows
    one at a time (`_cut`).  Bit k of a ray's mask is set when the ray is
    tight on rows[k].  Rays are reduced modulo the lineality, which keeps
    every <row, ray> and so the masks.
    """
    basis, record = _pivot_inverse(rows, dim)
    start, piv, a, _ = record
    r = len(start)
    at_pivots = dict(zip(piv, a))
    cols = zip(*(at_pivots.get(c, (0,) * r) for c in range(dim)))
    all_start = sum(1 << i for i in start)
    rays = [(primitive(v), all_start ^ (1 << i)) for i, v in zip(start, cols)]
    for k, row in enumerate(rows):
        if not all_start >> k & 1:
            rays = _cut(rays, row, 1 << k, r)
    lin = echelon_nullspace(basis, dim)
    if lin:
        lin_basis = echelon(lin)
        rays = [(reduce_mod(v, lin_basis), z) for v, z in rays]
    return sorted(rays), tuple(lin), record


def _pivot_inverse(rows, dim):
    """(basis, (positions, pivots, A, d)) of integer rows, from one
    elimination (`pivot_inverse`): the `echelon` basis, the positions of
    the rows it keeps, their sorted pivot columns and the inverse of the
    kept rows restricted to the pivots.  On a cone's rays it starts its
    dual's double description and is `Fan.cone_inverse`.
    """
    basis, a, d = pivot_inverse(rows, dim)
    pos = [i for i, _, _ in basis]
    piv = sorted(c for _, c, _ in basis)
    return basis, (pos, piv, a, d)


def _cut(rays, row, bit, r):
    """One double-description step: the rays, with their tight masks, of a
    cone cut out by rows of rank r, cut by <row, x> >= 0 with tight bit
    `bit`.

    Keeps the rays on the nonnegative side and adds one ray for every
    combinatorially adjacent pair of rays on opposite sides.
    """
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
    return kept


def _continue(rows, rays, normals, dim):
    """(added rows, rays) of a finished double description of a pointed
    cone in dimension dim, rays with their masks over `rows`, continued by
    the distinct primitive `normals` that are not among the rows.

    The rows of a pointed cone have full rank, so each cut is `_cut` at
    rank dim; the new row k after the given ones takes bit len(rows) + k.
    The given list of rays is not changed.
    """
    known = set(rows)
    added = []
    for row in normals:
        if row not in known:
            rays = _cut(rays, row, 1 << (len(rows) + len(added)), dim)
            added.append(row)
    return added, rays


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


def _facets_of(face, facets):
    """The facets of a face: the maximal proper sets among face & F over
    the facets F.  Faces are sets of rays or vertices, as bitmasks or
    frozensets, and each is an intersection of facets."""
    subs = {face & f for f in facets} - {face}
    return [s for s in subs if not any(s != o and s & o == s for o in subs)]


def _face_lattice(full, facets, dim):
    """{face mask: dimension} of every face, read top-down from `full` of
    dimension `dim`: the face lattice is graded, so each facet of a face is
    one dimension below it."""
    dims = {full: dim}
    todo = [full]
    while todo:
        face = todo.pop()
        for sub in _facets_of(face, facets):
            if sub not in dims:
                dims[sub] = dims[face] - 1
                todo.append(sub)
    return dims


def _closure(mask, facets, full):
    """The smallest face containing `mask`: the meet of the facets that
    contain it, `full` when none does."""
    for z in facets:
        if z & mask == mask:
            full &= z
    return full


def _extreme(facets, n):
    """Indices of the extreme ones among n rays or points, given the masks
    on the facets: each is alone in the smallest face containing it."""
    full = (1 << n) - 1
    return [i for i in range(n) if _closure(1 << i, facets, full) == 1 << i]


def _check_length(x, dim, what="point"):
    """Refuse a point (or a normal) whose length is not the ambient
    dimension."""
    if len(x) != dim:
        raise ValidationError(f"{what} has {len(x)} coordinates, expected {dim}")


def _satisfies(y, dim, inequalities, equalities) -> bool:
    """Does the point y satisfy <n, y> <= b and <n, y> = b on the rows?"""
    _check_length(y, dim)
    return (all(dot(n, y) <= b for n, b in inequalities)
            and all(dot(n, y) == b for n, b in equalities))


def _bits(mask):
    """Indices of the set bits of a mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

class Cone:
    """Rational polyhedral cone, generated by rays plus a lineality space.

    A cone keeps, next to its dual, the zero set of each dual ray (each
    facet) on its rays as a bitmask.  A pointed cone whose rays are the
    extreme rays (`_is_exact`) has one record (`_description`): its rows
    and its rays, each with the mask of the rows tight on it, a finished
    double description that `intersect` and `intersect_halfspace` continue.
    A cut result is made from the continued record (`_from_record`) and
    reads its dual and facet masks off it when first asked.
    """

    def __init__(self, rays, ambient_dim, lineality=()):
        rays = tuple(primitive(tuple(r)) for r in rays)
        lineality = tuple(primitive(tuple(v)) for v in lineality)
        for v in rays + lineality:
            _check_length(v, ambient_dim, "generator")
        if any(is_zero(r) for r in rays):
            raise ValidationError("zero vector is not a valid ray generator")
        if len(set(rays)) != len(rays):
            raise ValidationError("repeated ray generator")
        self.ambient_dim = ambient_dim
        self.rays = rays
        self.lineality = lineality
        self._dual = None
        self._facets = None  # per dual ray, the mask of the rays tight on it
        self._exact = None
        self._inverse = None  # a pointed cone's `_pivot_inverse` record
        self._start = None  # an exact cone's record: rows, rays with masks

    @classmethod
    def _from_record(cls, rows, rays, dim) -> "Cone":
        """The exact cone of a record: rows, and rays with their masks."""
        cone = cls([v for v, _ in rays], dim)
        cone._start = (rows, rays)
        cone._exact = True
        return cone

    @property
    def dim(self) -> int:
        """The ambient dimension less that of the dual's lineality."""
        return self.ambient_dim - len(self.dual.lineality)

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
        """The dual cone {u : <u, x> >= 0 for all x in this cone}, and the
        facet masks: off the record of a cut, else off one double
        description of the generators, whose first rows are the rays."""
        if self._dual is None:
            if self._start is not None:
                rays, lin, self._facets = self._dual_from_record()
            else:
                found, lin, record = _double_description(
                    _distinct_rows(self.generators), self.ambient_dim
                )
                rays = tuple(g for g, _ in found)
                on_rays = (1 << len(self.rays)) - 1
                self._facets = tuple(z & on_rays for _, z in found)
                if not self.lineality:
                    self._inverse = record
            self._dual = Cone(rays, self.ambient_dim, lineality=lin)
        return self._dual

    def _dual_from_record(self):
        """(rays, lineality, facet masks) of the dual of a cone made from
        its record, without a double description.

        The dual is generated by the record's rows; its lineality is the
        orthogonal complement of the rays, and its rays are the facet
        normals, the rows whose zero sets are maximal among the proper
        ones, reduced modulo the lineality as `vcone_from_halfspaces`
        reduces them.
        """
        rows, rays = self._start
        lin = nullspace(self.rays, self.ambient_dim)
        zero = [0] * len(rows)
        for i, (_, z) in enumerate(rays):
            for k in _bits(z):
                zero[k] |= 1 << i
        maximal = set(_facets_of((1 << len(rays)) - 1, zero))
        lin_basis = echelon(lin)
        facets = {
            reduce_mod(row, lin_basis): z
            for row, z in zip(rows, zero)
            if z in maximal
        }
        normals = tuple(sorted(facets))
        return normals, tuple(lin), tuple(facets[g] for g in normals)

    def _facet_masks(self):
        """Per ray of the dual, the mask of the rays tight on it."""
        self.dual
        return self._facets

    def _is_exact(self) -> bool:
        """Is the cone pointed with every ray extreme?  Then each ray alone
        is the face cut out by the facets it is tight on."""
        if self._exact is None:
            n = len(self.rays)
            self._exact = not self.lineality and len(_extreme(self._facet_masks(), n)) == n
        return self._exact

    def _description(self):
        """(rows, rays) of an exact cone, its record; a cone made from rays
        takes its facet rows (both signs of the dual's lineality included)
        and its rays, each with the mask of the rows tight on it."""
        if self._start is None:
            dual = self.dual
            rows = dual.generators
            lin_bits = (1 << len(rows)) - (1 << len(dual.rays))
            facets = self._facet_masks()
            self._start = (rows, [
                (v, lin_bits | sum(1 << j for j, z in enumerate(facets) if z >> i & 1))
                for i, v in enumerate(self.rays)
            ])
        return self._start

    def _cut_by(self, normals) -> "Cone":
        """This cone cut by <n, x> >= 0 for every normal.

        An exact cone continues its record (`_continue`), and the result
        keeps the continued one.  Any other cone, such as a library cone
        with lineality, takes one fresh double description.  Refuses a
        normal of the wrong length before any cut.
        """
        normals = [tuple(n) for n in normals]
        for n in normals:
            _check_length(n, self.ambient_dim, "normal")
        if not self._is_exact():
            rows = list(self.dual.generators) + normals
            rays, lin = vcone_from_halfspaces(rows, self.ambient_dim)
            return Cone(rays, self.ambient_dim, lineality=lin)
        start, rays = self._description()
        added, rays = _continue(start, rays, _distinct_rows(normals), self.ambient_dim)
        return Cone._from_record([*start, *added], sorted(rays), self.ambient_dim)

    def contains(self, x) -> bool:
        return self._face_of(x) is not None

    def _face_of(self, x):
        """Mask of the rays in the smallest face containing x, read off the
        facets tight at x; None when x is outside.  Refuses a wrong length."""
        _check_length(x, self.ambient_dim)
        d = self.dual
        if any(dot(l, x) for l in d.lineality):
            return None
        face = (1 << len(self.rays)) - 1
        for g, z in zip(d.rays, self._facet_masks()):
            s = dot(g, x)
            if s < 0:
                return None
            if s == 0:
                face &= z
        return face

    def intersect(self, other: "Cone") -> "Cone":
        if other._is_exact() and not self._is_exact():
            return other._cut_by(self.dual.generators)
        return self._cut_by(other.dual.generators)

    def intersect_halfspace(self, normal) -> "Cone":
        return self._cut_by([normal])

    def _lattice(self):
        """{face mask: dimension} of a pointed cone over its rays, read down
        from the cone's dimension (`dim`)."""
        if not self.is_pointed():
            raise ValidationError("face enumeration requires a pointed cone")
        return _face_lattice((1 << len(self.rays)) - 1, self._facet_masks(), self.dim)

    def face_dims(self):
        """Dimension of every face, keyed by its set of local ray indices.

        The smallest face is the lineality space, the empty set of rays
        (dimension 0) when the cone is pointed.
        """
        return {frozenset(_bits(z)): d for z, d in self._lattice().items()}

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
    construction, unless `cones` is given: it maps maximal cone keys of a
    fan known by construction, such as a common refinement, to their
    `Cone`s, each listing its rays in index order, which the fan uses as
    given; a key not mapped gets a cone on its rays.
    """

    def __init__(self, rays, maximal_cones, ambient_dim=None, *, cones=None):
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

        listed = list(dict.fromkeys(frozenset(c) for c in maximal_cones))
        if any(i < 0 or i >= len(rays) for key in listed for i in key):
            raise ValidationError("cone refers to a missing ray index")
        # drop cones that are faces of other listed cones; the keys of a fan
        # given its cones are maximal by construction
        maximal = listed if cones is not None else [
            k for k in listed if not any(k < other for other in listed)
        ]

        self._cones = dict(cones or {})
        cone_dims = {}
        # the faces of each maximal cone, as sets of fan ray indices
        self.cone_faces = {}
        for key in maximal:
            ordered = sorted(key)
            if self._make_cone(key).rays != tuple(rays[i] for i in ordered):
                raise ValidationError("cone {} does not list its rays in index order", key)
            faces = self.cone_faces[key] = set()
            for z, dim in self._cones[key]._lattice().items():
                face = frozenset(ordered[i] for i in _bits(z))
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
        self._smooth_cones = {}
        if cones is None:
            self._validate(listed)

    def _make_cone(self, key) -> Cone:
        if key not in self._cones:
            self._cones[key] = Cone(tuple(self.rays[i] for i in sorted(key)), self.ambient_dim)
        return self._cones[key]

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
            # a cone on rays alone is exact when it is pointed and every ray
            # is extreme; the pairwise intersections below continue it
            if not self._make_cone(key)._is_exact():
                raise ValidationError("rays of cone {} are not all extreme", key)
        for key, other in itertools.product(listed, self.maximal_keys):
            if key < other and key not in self.cone_faces[other]:
                raise ValidationError(
                    "cone {} lies inside cone {} but is not a face of it", key, other
                )
        # pointed cones meet in a pointed cone; its rays must be fan rays and
        # span a face of both.  Each pair continues the double description
        # of its first cone by the facet rows of the second (`_continue`,
        # as `Cone.intersect` does), without building the meet as a cone
        index = {r: i for i, r in enumerate(self.rays)}
        starts = {key: self._make_cone(key)._description() for key in self.maximal_keys}
        dim = self.ambient_dim
        for a, b in itertools.combinations(self.maximal_keys, 2):
            rows, rays = starts[a]
            rays = _continue(rows, rays, starts[b][0], dim)[1]
            ikey = frozenset(index.get(v, -1) for v, _ in rays)
            if ikey not in self.cone_faces[a] or ikey not in self.cone_faces[b]:
                raise ValidationError("cones {} and {} do not meet in a face", a, b)

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
        n = self.ambient_dim
        if not self.maximal_keys or any(
            self.cone_dims[key] != n for key in self.maximal_keys
        ):
            return False
        # each facet as the bitmask of its fan ray indices
        counts = Counter()
        for key in self.maximal_keys:
            ordered = sorted(key)
            counts.update(sum(1 << ordered[i] for i in _bits(z))
                          for z in self._make_cone(key)._facet_masks())
        return all(c == 2 for c in counts.values())

    def facets(self, key):
        """The facets of a cone of the fan, as sorted ray-index keys: the
        zero sets of its dual's rays."""
        ordered = sorted(key)
        masks = self.cone(key)._facet_masks()
        return sorted((frozenset(ordered[i] for i in _bits(z)) for z in masks),
                      key=sorted)

    def is_smooth(self) -> bool:
        """Does every maximal cone's ray set extend to a lattice basis?"""
        return all(self.is_smooth_cone(k) for k in self.maximal_keys)

    def is_smooth_cone(self, key) -> bool:
        """`cone_is_smooth` of a cone of the fan, computed once per cone."""
        key = frozenset(key)
        if key not in self._smooth_cones:
            self._smooth_cones[key] = cone_is_smooth(self.cone(key))
        return self._smooth_cones[key]

    def cone_inverse(self, key):
        """(positions, pivots, A, d) of a cone, the `_pivot_inverse` record
        its dual's double description started from, or of its own rays.

        positions are the places, in sorted(key), of the k independent rays
        that `echelon` keeps (all of them on a simplicial cone), pivots are
        their sorted pivot columns, and (A, d) is `inverse` of the k x k
        matrix of the kept rays restricted to the pivots.  So the u that is
        zero off the pivots and has <u, v> = c_v on the kept rays v is A c / d
        at the pivots (`solve_on`), and a point of the cone's span has
        coordinates A^T x / d over the kept rays, where x is restricted to
        the pivots (`coordinates`).  On a simplicial full-dimensional cone
        both lists are range(n) and A is the inverse of the cone's rays.
        """
        cone = self._make_cone(frozenset(key))
        if cone._inverse is None:  # the dual was read off a record or never computed
            cone._inverse = _pivot_inverse(cone.rays, self.ambient_dim)[1]
        return cone._inverse

    def solve_on(self, key, values):
        """The u with <u, v> = values[k] on the k-th ray of sorted(key), zero
        off the pivots of `cone_inverse`; None when the values on the rays
        that `echelon` does not keep disagree with it.  Entries are ints
        where integral, else Fractions."""
        if len(values) != len(key):
            raise ValidationError(f"{len(values)} values for a cone of {len(key)} rays")
        pos, piv, a, d = self.cone_inverse(key)
        n = self.ambient_dim
        if len(values) == len(pos) == n:
            # simplicial and full-dimensional: one bare integer product
            return quotient([dot(row, values) for row in a], d)
        up = quotient([dot(row, [values[p] for p in pos]) for row in a], d)
        u = [0] * n
        for c, x in zip(piv, up):
            u[c] = x
        if len(pos) < len(values):
            kept = set(pos)
            for p, i in enumerate(sorted(key)):
                if p not in kept and dot(u, self.rays[i]) != values[p]:
                    return None
        return tuple(u)

    def coordinates(self, key, x):
        """Coordinates of x over the rays of sorted(key): A^T x / d on the
        rays that `cone_inverse` keeps, zero on the others.  Raises
        NotInSupportError when x is off the cone's span."""
        _check_length(x, self.ambient_dim)
        pos, piv, a, d = self.cone_inverse(key)
        lam = quotient([dot(col, [x[c] for c in piv]) for col in zip(*a)], d)
        idx = sorted(key)
        if len(pos) < self.ambient_dim:
            span = [sum(l * self.rays[idx[p]][t] for l, p in zip(lam, pos))
                    for t in range(self.ambient_dim)]
            if span != list(x):
                raise NotInSupportError(
                    f"point {tuple(x)} is off the span of cone {idx}"
                )
        out = [0] * len(idx)
        for p, l in zip(pos, lam):
            out[p] = l
        return tuple(out)

    def __repr__(self):
        return (
            f"Fan(ambient_dim={self.ambient_dim}, rays={len(self.rays)}, "
            f"maximal={len(self.maximal_keys)}, cones={len(self.cone_keys)})"
        )


def cone_is_smooth(c: Cone) -> bool:
    """Is the cone pointed and simplicial, with rays that extend to a
    lattice basis, so that the gcd of their maximal minors is 1?"""
    k = len(c.rays)
    if c.lineality or c.dim != k:
        return False
    g = 0
    for cols in itertools.combinations(range(c.ambient_dim), k):
        g = gcd(g, abs(det([[r[j] for j in cols] for r in c.rays])))
    return g == 1


def is_smooth(f: Fan) -> bool:
    return f.is_smooth()


def is_complete(f: Fan) -> bool:
    return f.is_complete()


def is_refinement(f2: Fan, f1: Fan) -> bool:
    """Does every cone of f2 sit inside a cone of f1 (with equal support)?
    A maximal cone of f2 does when the smallest cones in f1 of its rays lie
    in one maximal cone of f1."""
    if f2.ambient_dim != f1.ambient_dim or f1.is_complete() and not f2.is_complete():
        return False
    try:
        under = {i: min_containing_cone(f1, f2.rays[i])
                 for i in frozenset().union(*f2.maximal_keys)}
        for r in f1.rays:  # original rays must survive in the refinement
            min_containing_cone(f2, r)
    except NotInSupportError:
        return False
    joined = (frozenset().union(*map(under.get, key)) for key in f2.maximal_keys)
    return all(any(j <= k1 for k1 in f1.maximal_keys) for j in joined)


def min_containing_cone(f: Fan, x) -> frozenset:
    """Ray-index key of the unique smallest cone of f containing x.

    That cone is the face of any maximal cone containing x that the facets
    tight at x cut out (`Cone._face_of`).
    """
    for key in f.maximal_keys:
        face = f.cone(key)._face_of(x)
        if face is not None:
            ordered = sorted(key)
            return frozenset(ordered[i] for i in _bits(face))
    _check_length(x, f.ambient_dim)  # a fan without cones tests no cone
    raise NotInSupportError(f"point {tuple(x)} is outside the fan support")


def refine_by_hyperplanes(f: Fan, normals) -> Fan:
    """Common refinement of f with the sign cells of linear hyperplanes.

    `normals` is one list of normals that cuts every maximal cone, or a map
    {maximal key of f: normals} that cuts each maximal cone by its own
    list; a key the map leaves out is not cut.  Each cone is cut by the
    hyperplanes that cross it, and the result is f itself when none does.
    The pieces are trusted as a fan, not checked: a common refinement is
    one by construction, and a map must cut every face that two maximal
    cones share into the same cells from both sides.  A normal of the
    wrong length is refused before any cut.
    """
    if f.ambient_dim > VERTEX_ENUM_MAX_DIM:
        raise UnsupportedDimensionError(
            f"hyperplane refinement capped at ambient dimension {VERTEX_ENUM_MAX_DIM}"
        )
    if isinstance(normals, dict):
        if not normals.keys() <= set(f.maximal_keys):
            raise ValidationError("refinement normals given for a cone that is not maximal")
        planes = {key: _hyperplanes(normals.get(key, ()), f.ambient_dim)
                  for key in f.maximal_keys}
    else:
        planes = dict.fromkeys(f.maximal_keys, _hyperplanes(normals, f.ambient_dim))

    pieces = []
    for key in f.maximal_keys:
        stack = [f.cone(key)]
        for n in planes[key]:
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
    if len(pieces) == len(f.maximal_keys):
        return f

    new_rays = list(dict.fromkeys([*f.rays, *(r for c in pieces for r in c.rays)]))
    old = len(f.rays)
    new_rays = new_rays[:old] + sorted(new_rays[old:])
    index = {r: i for i, r in enumerate(new_rays)}
    # the fan takes each piece with its rays in index order: as it is, or
    # re-listed with its record's masks; else it builds the piece itself
    keys, cones = [], {}
    for c in pieces:
        at = [index[r] for r in c.rays]
        keys.append(frozenset(at))
        if at == sorted(at):
            cones[keys[-1]] = c
        elif c._start is not None:
            cones[keys[-1]] = Cone._from_record(
                c._start[0], [r for _, r in sorted(zip(at, c._start[1]))], f.ambient_dim)
    return Fan(new_rays, keys, f.ambient_dim, cones=cones)


def _hyperplanes(normals, dim):
    """The distinct hyperplanes of nonzero normals, each as its primitive
    normal with the first nonzero entry positive, in first-seen order.
    Refuses a normal of the wrong length."""
    planes = {}
    for n in normals:
        n = tuple(n)
        _check_length(n, dim, "normal")
        p = primitive(n)
        if not is_zero(p):
            planes.setdefault(p if _sign_key(p) > 0 else vec_neg(p))
    return list(planes)


def _sign_key(v) -> int:
    for x in v:
        if x != 0:
            return 1 if x > 0 else -1
    return 0


def stellar_subdivision(f: Fan, v) -> Fan:
    """Star subdivision of f at the primitive lattice point v: a maximal cone
    around v's smallest cone gives way to its facets missing it, joined to v."""
    v = primitive(tuple(v))
    if is_zero(v):
        raise ValidationError("cannot subdivide at the origin")
    star = min_containing_cone(f, v)
    if v in f.rays:
        return f
    maximal = []
    for key in f.maximal_keys:
        if not star <= key:
            maximal.append(key)
            continue
        for facet in f.facets(key):
            if not star <= facet:
                maximal.append(facet | {len(f.rays)})
    return Fan(list(f.rays) + [v], maximal, f.ambient_dim)


# ---------------------------------------------------------------------------
# Polyhedra
# ---------------------------------------------------------------------------

def _integer_normal(n):
    """The normal as a tuple of ints; a non-integer entry is refused.

    A tuple of ints is returned as given; bools, integral Fractions and
    other integral numbers become ints.
    """
    if type(n) is tuple and all(type(x) is int for x in n):
        return n
    n = tuple(n)
    row = tuple(int(x) for x in n)
    if row != n:
        raise ValidationError(
            f"half-space normal ({', '.join(map(str, n))}) has a non-integer entry"
        )
    return row


class HPolyhedron:
    """Intersection of half-spaces <y, v> <= d and hyperplanes <y, v> = d.

    Normals become tuples of ints (`_integer_normal`) and bounds exact
    numbers (`linalg.exact`): an int where integral, else the given
    Fraction.
    """

    def __init__(self, inequalities=(), equalities=(), ambient_dim=None):
        ineqs = [(_integer_normal(n), exact(b)) for n, b in inequalities]
        eqs = [(_integer_normal(n), exact(b)) for n, b in equalities]
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
        return _satisfies(y, self.ambient_dim, self.inequalities, self.equalities)

    def generators(self):
        """(vertices, rays, lineality) via homogenization.

        Vertices are points of exact numbers (representatives of minimal
        faces when the polyhedron has lineality); rays and lineality are
        primitive integer vectors.
        """
        if self._generators is not None:
            return self._generators
        d = self.ambient_dim
        rows = []
        for n, b in self.inequalities:
            q = b.denominator
            rows.append(tuple(-q * x for x in n) + (b.numerator,))
        for n, b in self.equalities:
            q = b.denominator
            row = tuple(q * x for x in n) + (-b.numerator,)
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
                verts.append(quotient(r[:d], t))
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
    """Bounded polytope given by its vertex set.

    Coordinates become exact numbers (`linalg.exact`): an int where
    integral, else a Fraction, so a lattice polytope holds ints only.
    `vertices` are sorted and distinct; unless `trusted`, the given points
    are reduced to the extreme ones by `_hull_data`, whose record (taken on
    first use when `trusted`) `hrep`, `faces`, `volume` and `dim` read.
    """

    def __init__(self, vertices, ambient_dim=None, *, trusted=False):
        pts = [tuple(map(exact, p)) for p in vertices]
        if ambient_dim is None:
            if not pts:
                raise ValidationError("ambient dimension required for empty polytope")
            ambient_dim = len(pts[0])
        if any(len(p) != ambient_dim for p in pts):
            raise ValidationError(
                f"polytope vertices must have {ambient_dim} coordinates"
            )
        self.ambient_dim = ambient_dim
        # (inequalities, equalities, per inequality the mask of the points on
        # it, the point index of each vertex or None when the masks index them)
        self._hull = None
        self._faces = None
        self.vertices = tuple(sorted(set(pts)))
        if pts and not trusted:
            # the hull's vertices come sorted and distinct
            kept, ineqs, eqs, on = _hull_data(self.vertices, ambient_dim)
            self._hull = (tuple(ineqs), tuple(eqs), on,
                          kept if len(kept) < len(self.vertices) else None)
            self.vertices = tuple(self.vertices[i] for i in kept)

    def _incidences(self):
        """Per inequality of `hrep`, the mask of the vertices on it,
        re-indexed once from the given points when some were not extreme."""
        self.hrep()
        ineqs, eqs, on, kept = self._hull
        if kept is not None:
            on = [sum(1 << j for j, i in enumerate(kept) if z >> i & 1) for z in on]
            self._hull = (ineqs, eqs, on, None)
        return on

    @property
    def dim(self) -> int:
        """The ambient dimension less the number of equalities, a basis of
        the hyperplanes through the polytope; -1 when it is empty."""
        return self.ambient_dim - len(self.hrep()[1]) if self.vertices else -1

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
        if self._hull is None:
            if not self.vertices:
                # canonical empty system: 0 <= -1
                self._hull = (((tuple([0] * self.ambient_dim), -1),), (), [0], None)
            else:
                _, ineqs, eqs, on = _hull_data(self.vertices, self.ambient_dim)
                self._hull = (tuple(ineqs), tuple(eqs), on, None)
        return self._hull[:2]

    def contains(self, y) -> bool:
        return _satisfies(y, self.ambient_dim, *self.hrep())

    def faces(self):
        """Full face lattice (this polytope included, empty face excluded).

        Returns a list of (face, dim, tangent_cone) triples; the tangent cone
        of a face is the intersection of the supporting half-spaces active on
        it, as an HPolyhedron.
        """
        if self._faces is not None:
            return self._faces
        ineqs, eqs = self.hrep()
        incidences = self._incidences()
        verts = self.vertices
        d = self.ambient_dim
        lattice = _face_lattice((1 << len(verts)) - 1, incidences, self.dim)
        result = []
        for z, dim in lattice.items():
            if z:  # the empty face is left out
                active = [(n, b) for (n, b), inc in zip(ineqs, incidences)
                          if z & inc == z]
                face = VPolytope([verts[i] for i in _bits(z)], d, trusted=True)
                result.append((face, dim, HPolyhedron(active, eqs, d)))
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

def convex_hull_vertices(points):
    """Extreme points of a finite point set, sorted and distinct, by double
    description (`_hull_data`) in every dimension and affine rank.
    Coordinates become exact numbers (`linalg.exact`).
    """
    pts = sorted({tuple(map(exact, p)) for p in points})
    return [pts[i] for i in _hull_data(pts, len(pts[0]))[0]] if pts else []


def _hull_data(pts, d):
    """(vertex indices, inequalities, equalities, incidences) of the hull
    of sorted distinct points of exact numbers: the rows have int bounds,
    read off the integer dual rays, the equalities are a basis of the
    hyperplanes through the hull, and an incidence masks the points on an
    inequality."""
    # distinct points homogenize to distinct primitive rows, so bit i of a
    # dual ray's tight mask is point i lying on that facet
    hom_rows = [integral(p + (1,)) for p in pts]
    dual_rays, dual_lin, _ = _double_description(hom_rows, d + 1)
    eqs = [(g[:d], -g[d]) for g in dual_lin]
    ineqs, on = [], []
    # a dual ray (0, ..., 0, c), on no point, is no facet
    for g, z in dual_rays:
        if not is_zero(g[:d]):
            ineqs.append((vec_neg(g[:d]), g[d]))
            on.append(z)
    return _extreme(on, len(pts)), ineqs, eqs, on


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
    verts = p.vertices
    facets = [frozenset(_bits(z)) for z in p._incidences()]
    total = Fraction(0)
    for simplex in _pulling_triangulation(range(len(verts)), facets):
        edges = [vec_sub(verts[i], verts[simplex[0]]) for i in simplex[1:]]
        # `integral` scales each edge by the lcm of its denominators, which
        # scales the determinant by their product
        scale = 1
        for e in edges:
            scale *= lcm(*(x.denominator for x in e))
        total += Fraction(abs(det([integral(e) for e in edges])), scale)
    return total / factorial(d)


def _pulling_triangulation(indices, facets):
    """Triangulate by pulling: every face is coned from its smallest index
    over the triangulations of its facets that miss it.

    Faces are sets of `indices`, the vertices of a polytope or the rays of a
    pointed cone, which has the face lattice of a cross-section; `facets`
    are the facet incidences, and the facets of a face are `_facets_of` it.
    Returns index tuples.
    """
    done = {}

    def pull(face):
        if face not in done:
            v = min(face)
            if len(face) == 1:
                done[face] = [(v,)]
            else:
                done[face] = [
                    s + (v,)
                    for sub in _facets_of(face, facets)
                    if v not in sub
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

    A box must have `dim` integer coordinates and hi - lo >= 2 in each, so
    that an interior point lies behind its margin shell, and at most
    BOX_MAX_POINTS points.  All of it is checked before any point exists.
    """
    lo, hi = box
    if len(lo) != dim or len(hi) != dim:
        raise ValidationError(
            f"box has {len(lo)} and {len(hi)} coordinates, expected {dim}"
        )
    for x in (*lo, *hi):
        if not isinstance(x, Integral):
            raise ValidationError(f"box corner coordinate {x!r} is not an integer")
    for l, h in zip(lo, hi):
        if h - l < 2:
            raise ValidationError(
                f"box side [{l}, {h}] has no interior point (need hi - lo >= 2)"
            )
    return box_size(lo, hi)
