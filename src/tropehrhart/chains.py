"""The algebra of convex chains: integer combinations of polyhedron indicators.

A chain is a finite formal sum sum_i n_i * 1_{P_i} with integer coefficients.
Pieces are closed rational polyhedra: bounded ones as VPolytope, unbounded
ones (tangent cones from the Brianchon-Gram expansion) as HPolyhedron.
Chains are treated extensionally; two term lists representing the same
function are equal pointwise but are not canonicalized.

Convolution extends Minkowski summation bilinearly; 1_{{0}} is the identity.
The inverse of 1_P is the alternating sum of closed faces of -P.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from numbers import Integral

from .errors import (
    BoxTooLargeError,
    BoxTooSmallError,
    InvalidSupportFunctionError,
    NotPiecewiseLinearError,
    UnboundedPolyhedronError,
    UnsupportedOperandError,
    ValidationError,
)
from .lattice import (
    Fan,
    HPolyhedron,
    VPolytope,
    box_size,
    check_box,
    min_containing_cone,
    minkowski_sum,
    refine_by_hyperplanes,
    vertex_enumeration,
    volume,
)
from .linalg import clear_denominators, dot, exact, is_zero, vec_sub


def _piece_key(piece):
    if isinstance(piece, VPolytope):
        return ("v", piece.vertices)
    return ("h", piece.inequalities, piece.equalities)


class ConvexChain:
    """Finite signed formal sum of indicator functions of closed polyhedra.

    All pieces share one ambient dimension, `ambient_dim` (None for the
    empty chain).
    """

    def __init__(self, terms=()):
        merged = {}  # key -> [coefficient, last piece with that key]
        self.ambient_dim = None
        for coeff, piece in terms:
            if self.ambient_dim is None:
                self.ambient_dim = piece.ambient_dim
            elif piece.ambient_dim != self.ambient_dim:
                raise ValidationError(
                    f"chain pieces differ in dimension: {self.ambient_dim} "
                    f"and {piece.ambient_dim}"
                )
            if type(coeff) is not int and not isinstance(coeff, Integral):
                raise ValidationError(f"chain coefficient {coeff!r} is not an integer")
            if coeff == 0:
                continue
            entry = merged.setdefault(_piece_key(piece), [0, None])
            entry[0] += int(coeff)
            entry[1] = piece
        self.terms = tuple((c, p) for c, p in merged.values() if c != 0)

    def _check_length(self, what, n):
        if self.ambient_dim not in (None, n):
            raise ValidationError(
                f"{what} has {n} coordinates but the chain has dimension "
                f"{self.ambient_dim}"
            )

    def evaluate(self, u) -> int:
        self._check_length("point", len(u))
        return sum(c for c, piece in self.terms if piece.contains(u))

    def __add__(self, other):
        return ConvexChain(self.terms + other.terms)

    def __sub__(self, other):
        return ConvexChain(self.terms + tuple((-c, p) for c, p in other.terms))

    def __neg__(self):
        return ConvexChain(tuple((-c, p) for c, p in self.terms))

    def scale(self, k: int):
        return ConvexChain(tuple((k * c, p) for c, p in self.terms))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"ConvexChain({len(self.terms)} terms)"


def evaluate(a: ConvexChain, u) -> int:
    return a.evaluate(u)


def degree(a: ConvexChain) -> int:
    """Sum of coefficients over nonempty pieces."""
    total = 0
    for c, piece in a.terms:
        if not piece.is_empty():
            total += c
    return total


def _as_vpolytope(piece) -> VPolytope:
    if isinstance(piece, VPolytope):
        return piece
    try:
        return vertex_enumeration(piece)
    except UnboundedPolyhedronError as exc:
        raise UnsupportedOperandError(
            "operation requires bounded chain pieces"
        ) from exc


def convolve(a: ConvexChain, b: ConvexChain) -> ConvexChain:
    """Bilinear extension of Minkowski summation to chains."""
    a_pieces = [(c, _as_vpolytope(p)) for c, p in a.terms]
    b_pieces = [(c, _as_vpolytope(p)) for c, p in b.terms]
    terms = []
    for ca, pa in a_pieces:
        for cb, pb in b_pieces:
            terms.append((ca * cb, minkowski_sum(pa, pb)))
    return ConvexChain(terms)


def invert_polytope(p: VPolytope) -> ConvexChain:
    """Convolution inverse of 1_P, in closed form.

    The inverse is the alternating sum of indicator functions of the closed
    faces of -P, each face weighted by (-1)^dim.
    """
    neg = p.negate()
    terms = [((-1) ** dim, face) for face, dim, _ in neg.faces()]
    return ConvexChain(terms)


class SupportNumbers:
    """Values of a (possibly virtual) support function on the rays of a fan.

    Values become exact numbers (`linalg.exact`): an int where integral,
    else a Fraction.
    """

    def __init__(self, fan: Fan, values):
        values = tuple(map(exact, values))
        if len(values) != len(fan.rays):
            raise ValidationError(
                f"expected {len(fan.rays)} support numbers, got {len(values)}"
            )
        self.fan = fan
        self.values = values

    def __getitem__(self, ray_index: int):
        return self.values[ray_index]

    def __repr__(self):
        return f"SupportNumbers({self.values})"


def brianchon_gram(sn: SupportNumbers) -> ConvexChain:
    """Chain of tangent-cone indicators for given support numbers.

    For each cone of the (complete) fan, the piece is the polyhedron cut out
    by the cone's ray inequalities, weighted by (-1)^codim.  For convex
    support numbers the chain evaluates pointwise to the indicator function
    of the corresponding polytope.
    """
    return ConvexChain(_brianchon_gram_terms(sn))


def _brianchon_gram_terms(sn: SupportNumbers):
    fan = sn.fan
    if not fan.is_complete():
        raise ValidationError("Brianchon-Gram expansion requires a complete fan")
    d = fan.ambient_dim
    terms = []
    for key in fan.cone_keys:
        rays = [fan.rays[i] for i in sorted(key)]
        vals = [sn[i] for i in sorted(key)]
        if len(rays) > fan.dim(key):
            # non-simplicial cone: the ray values must extend linearly
            if fan.solve_on(key, vals) is None:
                raise NotPiecewiseLinearError(
                    "ray values do not extend linearly on cone {}", key
                )
        piece = HPolyhedron(list(zip(rays, vals)), (), d)
        terms.append(((-1) ** fan.codim(key), piece))
    return terms


# points per block of the box kernels; the int64 proof of `box_values` uses it
BOX_BLOCK = 256
INT64_SAFE = 1 << 62


def _integer_hrep(piece):
    """(normals, bounds) of integer rows <n, u> <= b with the same lattice
    points as the piece, or None when the piece has no lattice point.

    Normals are integer already; for integer u, <n, u> <= b holds exactly
    when <n, u> <= floor(b), and <n, u> = b only when b is an integer, in
    which case it becomes the two rows <n, u> <= b and <-n, u> <= -b.
    """
    if isinstance(piece, VPolytope):
        ineqs, eqs = piece.hrep()
    else:
        ineqs, eqs = piece.inequalities, piece.equalities
    normals = [n for n, _ in ineqs]
    bounds = [floor(b) for _, b in ineqs]
    for n, b in eqs:
        if b.denominator != 1:
            return None
        normals += [n, tuple(-x for x in n)]
        bounds += [int(b), -int(b)]
    return normals, bounds


def box_offsets(lo, hi):
    """The integer points of the box [lo, hi] as offsets from lo, streamed.

    Returns an iterator of int64 arrays of at most BOX_BLOCK rows in
    `itertools.product` order (the last coordinate fastest).  The call
    itself checks the point cap (`lattice.box_size`), before any array
    exists.  Offsets are at most hi - lo, whatever the size of lo.
    """
    import numpy as np

    count = box_size(lo, hi)
    sides = [h - l + 1 for l, h in zip(lo, hi)]

    def blocks():
        for start in range(0, count, BOX_BLOCK):
            code = np.arange(start, min(start + BOX_BLOCK, count), dtype=np.int64)
            offsets = np.empty((code.size, len(sides)), dtype=np.int64)
            for j in range(len(sides) - 1, -1, -1):
                code, offsets[:, j] = np.divmod(code, sides[j])
            yield offsets

    return blocks()


def _halfspace_blocks(box, normals, rows, what):
    """Which integer half-spaces <n, u> <= b hold on a box, streamed.

    `normals` are distinct integer vectors and `rows` (normal index, int
    bound) pairs.  Yields, per block of `box_offsets`, the offsets from lo
    and the (rows x points) booleans of one int64 product with the normals
    and one compare.  Before any array exists the point cap is checked, then
    int64 safety: every |<n, u - lo>| is at most reach = max_n
    sum_i (hi_i - lo_i) |n_i|, which must stay below 2^62, else
    BoxTooLargeError.  A bound b becomes b - <n, lo>, in Python ints,
    clipped to one past reach, which changes no compare.  The normals'
    entries on thin sides (hi = lo) only meet zero offsets and are taken
    as 0, so every entry in the int64 product is at most reach.
    """
    import numpy as np

    lo, hi = box
    blocks = box_offsets(lo, hi)
    sides = [max(h - l, 0) for l, h in zip(lo, hi)]
    reach = max((dot(sides, map(abs, n)) for n in normals), default=0)
    if reach >= INT64_SAFE:
        raise BoxTooLargeError(f"{what} would leave the exact int64 range of the kernel")
    entries = [[x if s else 0 for x, s in zip(n, sides)] for n in normals]
    normal_rows = np.array(entries, dtype=np.int64).reshape(len(normals), len(lo))
    row_normal = np.array([k for k, _ in rows], dtype=np.intp)
    shift = [dot(n, lo) for n in normals]
    row_bound = np.array(
        [min(max(b - shift[k], -reach - 1), reach + 1) for k, b in rows],
        dtype=np.int64,
    )[:, None]
    holds = np.empty((len(rows), BOX_BLOCK), dtype=bool)
    for offsets in blocks:
        out = holds[:, :offsets.shape[0]]
        np.less_equal((normal_rows @ offsets.T)[row_normal], row_bound, out=out)
        yield offsets, out


def box_values(a: ConvexChain, box):
    """The chain's values on the integer points of a box, streamed.

    Yields (offsets, values) int64 arrays of `_halfspace_blocks`.  Pieces
    share their half-spaces: a chain of Brianchon-Gram pieces has one per
    cone and branch but only one normal per ray.  So each block costs the
    same few numpy calls whatever the number of pieces: the compare of the
    distinct (normal, bound) rows, one gather and AND-reduce of every
    piece's rows, and one product with the coefficients.  Before any array
    exists the box is checked (`lattice.check_box`), and the block sums, at
    most sum |c| * BOX_BLOCK, must stay below 2^62, else BoxTooLargeError.
    """
    import numpy as np

    lo, hi = box
    a._check_length("box", len(lo))
    d = len(lo)
    check_box(box, d)
    # number the distinct normals, then the distinct (normal, bound) rows;
    # a piece is the set of its row numbers.  Row 0, the always-true
    # <0, u> <= 0, pads every piece to the widest one and is the whole of a
    # piece without rows
    normal_ids, row_ids, coeffs, piece_rows = {(0,) * d: 0}, {(0, 0): 0}, [], []
    for c, piece in a.terms:
        rows = _integer_hrep(piece)
        if rows is not None:
            coeffs.append(c)
            piece_rows.append(sorted({
                row_ids.setdefault(
                    (normal_ids.setdefault(n, len(normal_ids)), b), len(row_ids)
                )
                for n, b in zip(*rows)
            }))
    what = "box values"
    if sum(map(abs, coeffs)) * BOX_BLOCK >= INT64_SAFE:
        raise BoxTooLargeError(f"{what} would leave the exact int64 range of the kernel")
    width = max(map(len, piece_rows), default=0)
    index = np.array(
        [rows + [0] * (width - len(rows)) for rows in piece_rows], dtype=np.intp
    ).reshape(len(piece_rows), width)
    coeffs = np.array(coeffs, dtype=np.int64)
    for offsets, holds in _halfspace_blocks(box, list(normal_ids), list(row_ids), what):
        yield offsets, coeffs @ holds[index].all(axis=1).astype(np.int64)


def _margin_checked(blocks, box, what):
    """Pass the (offsets, values) blocks of a box kernel through, checking
    that the values are 0 on the outermost shell of the box; else
    BoxTooSmallError names the first such point in box order."""
    lo, hi = box
    top = [h - l for l, h in zip(lo, hi)]
    for offsets, values in blocks:
        bad = ((offsets == 0) | (offsets == top)).any(axis=1) & (values != 0)
        if bad.any():
            u = tuple(l + x for l, x in zip(lo, offsets[bad.argmax()].tolist()))
            raise BoxTooSmallError(f"{what} is nonzero at {u} on the box margin")
        yield offsets, values


def lattice_sum(a: ConvexChain, box) -> int:
    """Sum of chain values over the integer points of a box.

    The box must have a zero margin: the chain is required to evaluate to 0
    everywhere on the outermost shell of the box, which makes "the box is
    large enough" a checked precondition rather than an assumption.  The
    error names the first offending point in box order.
    """
    blocks = _margin_checked(box_values(a, box), box, "chain")
    return sum(int(values.sum()) for _, values in blocks)


def integral(a: ConvexChain) -> Fraction:
    """Integral of the chain; lower-dimensional pieces contribute nothing."""
    total = Fraction(0)
    for c, piece in a.terms:
        total += c * volume(_as_vpolytope(piece))
    return total


# ---------------------------------------------------------------------------
# Multi-valued support functions
# ---------------------------------------------------------------------------

class MultiValuedSupportFunction:
    """A piecewise linear function with r linear branches per maximal cone.

    Branches are linear functionals (elements of the character space) given
    per maximal cone; multisets of branch restrictions must agree on shared
    faces of adjacent cones, which is verified at construction.
    """

    def __init__(self, fan: Fan, branches):
        self.fan = fan
        self.branches = {
            frozenset(k): tuple(tuple(u) for u in us) for k, us in branches.items()
        }
        if set(self.branches) != set(fan.maximal_keys):
            raise InvalidSupportFunctionError(
                "branches must be given for exactly the maximal cones"
            )
        ranks = {len(us) for us in self.branches.values()}
        if len(ranks) != 1:
            raise InvalidSupportFunctionError("branch count differs between cones")
        self.rank = ranks.pop()
        self._check_face_agreement()

    def _check_face_agreement(self):
        # two cones of a fan meet in the common face spanned by their
        # common rays
        fan = self.fan
        keys = list(fan.maximal_keys)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                rays = [fan.rays[k] for k in sorted(keys[i] & keys[j])]
                if not rays:
                    continue
                sig_i = sorted(
                    tuple(dot(u, r) for r in rays) for u in self.branches[keys[i]]
                )
                sig_j = sorted(
                    tuple(dot(u, r) for r in rays) for u in self.branches[keys[j]]
                )
                if sig_i != sig_j:
                    raise InvalidSupportFunctionError(
                        "branch multisets disagree on the face shared by {} and {}",
                        keys[i], keys[j],
                    )

    def values_at(self, x):
        """Sorted tuple of branch values at a point of the fan support, read
        on the first maximal cone that contains the point's smallest cone
        (any would do: the branch multisets agree on shared faces)."""
        key = min_containing_cone(self.fan, x)
        first = next(m for m in self.fan.maximal_keys if key <= m)
        return tuple(sorted(dot(u, x) for u in self.branches[first]))


def split_branches(h: MultiValuedSupportFunction):
    """Separate a multi-valued support function into one-valued branches.

    Cuts each maximal cone s by the hyperplanes u_a - u_b = 0 of its own
    branches only, and returns (refined_fan, [SupportNumbers for branch
    1 .. r]), the i-th smallest branch value at every refined ray.  The
    pieces form a fan on which every sorted branch is linear:

    - within s no difference u_a - u_b changes sign on a piece, so each
      sorted branch is one of the u_a there;
    - pieces of s and t meet inside F = s & t.  The cuts of s subdivide F
      by the hyperplanes {(u_a - u_b)|F}, and that set depends only on the
      multiset {u_a|F};
    - `_check_face_agreement` requires that multiset to be equal for s and
      t, so both cones induce the same subdivision of F.

    The chain and the Todd sum do not depend on which such refinement is
    used (Khovanskii-Pukhlikov 1993; Lawrence 1991).
    """
    normals = {}
    for key, us in h.branches.items():
        normals[key] = own = []
        for a in range(len(us)):
            for b in range(a + 1, len(us)):
                diff = vec_sub(us[a], us[b])
                if not is_zero(diff):
                    own.append(clear_denominators(diff))
    refined = refine_by_hyperplanes(h.fan, normals)
    per_branch = [[] for _ in range(h.rank)]
    for v in refined.rays:
        vals = h.values_at(v)
        for i in range(h.rank):
            per_branch[i].append(vals[i])
    return refined, [SupportNumbers(refined, vals) for vals in per_branch]


def support_function_chain(h: MultiValuedSupportFunction) -> ConvexChain:
    """Convex chain of a multi-valued support function.

    Sum of the Brianchon-Gram chains of the one-valued branches on the
    refined fan.  The result does not depend on further refinements.
    """
    _, branch_numbers = split_branches(h)
    return ConvexChain(
        [t for sn in branch_numbers for t in _brianchon_gram_terms(sn)]
    )
