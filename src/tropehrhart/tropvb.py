"""Tropical vector bundles on complete toric varieties.

A bundle is a complete fan together with a matroid and an integer diagram:
one row per fan ray, one column per ground set element.  Each row must be a
point of the lifted Bergman fan of the matroid (all level sets of the row are
flats), and the rows attached to the rays of any single cone must lie in a
common apartment, i.e. admit a common adapted basis.  Validation finds the
lexicographically smallest adapted basis per cone; every quantity computed
from that choice (section flats, ranks, Euler characteristics, character
multisets) is independent of it.

Section ranks and Euler characteristics come from the induced filtrations
by flats through one kernel, `TropicalVectorBundle.section_values`, the only
reader of the bundle's Klyachko table: totals and scans over a box, and
chi_u and h0_u at one character, on the one-point box.  On smooth complete
fans the bundle also has per-cone character multisets, a multi-valued
support function and an associated convex chain whose values reproduce the
equivariant Euler characteristic.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from numbers import Integral

import numpy as np

from .chains import (
    BOX_BLOCK,
    ConvexChain,
    MultiValuedSupportFunction,
    _halfspace_blocks,
    _margin_checked,
    box_values,
    support_function_chain,
)
from .errors import (
    BundleValidationError,
    InvalidBoundError,
    NoCommonApartmentError,
    RowNotInBergmanError,
    UnsupportedConeError,
    ValidationError,
)
from .lattice import (
    Fan,
    HPolyhedron,
    bounding_box,
    check_box,
    is_refinement,
    min_containing_cone,
)
from .linalg import exact
from .matroid import Matroid, circuit_extension, greedy_basis_mask


class TropicalVectorBundle:
    """Fan + matroid + diagram, validated; see the module docstring.

    Use :func:`validate` to construct one.
    """

    def __init__(self, fan: Fan, matroid: Matroid, diagram, adapted_bases,
                 row_flats):
        self.fan = fan
        self.matroid = matroid
        self.diagram = diagram
        self.adapted_bases = dict(adapted_bases)
        self.rank = matroid.rank_total
        # per ray, {k: mask of the flat {e : D[rho, e] >= k}} over the row's
        # distinct entries k, as `validate` proved them flats
        self._row_flats = row_flats
        self._char_cache = {}

    # -- sections at one character ----------------------------------------

    def h0_global(self, u) -> int:
        """h0_u: `section_values` at u on one cone of every ray."""
        return self._value_at(u, [(range(len(self.fan.rays)), 1)])

    def _value_at(self, u, cones) -> int:
        """The value of `section_values` on the one-point box (u, u)."""
        u = tuple(u)
        ((_, values),) = self.section_values((u, u), cones)
        return int(values[0])

    def _check_character(self, u):
        """Refuse a character whose length is not the fan's dimension or
        which has a coordinate that is not an integer."""
        if len(u) != self.fan.ambient_dim:
            raise ValidationError(
                f"character has {len(u)} coordinates, expected "
                f"{self.fan.ambient_dim}"
            )
        for x in u:
            if not isinstance(x, Integral):
                raise ValidationError(f"character coordinate {x!r} is not an integer")

    # -- parliament -------------------------------------------------------

    def parliament(self):
        """Polyhedron P_e = {y : <y, v_rho> <= D[rho, e]} per ground element."""
        out = {}
        for e in range(1, self.matroid.m + 1):
            ineqs = [
                (self.fan.rays[i], self.diagram[i][e - 1])
                for i in range(len(self.fan.rays))
            ]
            out[e] = HPolyhedron(ineqs, (), self.fan.ambient_dim)
        return out

    # -- Euler characteristic ----------------------------------------------

    def euler_char_u(self, u) -> int:
        """chi_u: `section_values` at u on every cone, signed (-1)^codim."""
        return self._value_at(u, self._chi_cones())

    def euler_char_by_codim(self, u):
        """Per-codimension totals of rank h^0 over cones, whose alternating
        sum is chi_u: one `section_values` call per codimension, sign 1."""
        by_codim = [[] for _ in range(self.fan.ambient_dim + 1)]
        for key in self.fan.cone_keys:
            by_codim[self.fan.codim(key)].append((key, 1))
        return [self._value_at(u, cones) for cones in by_codim]

    def chi_box(self):
        """Bounding box, padded by one, of the characters of the maximal
        cones; chi and h0 vanish on its margin, which `euler_char_total` and
        `h0_nonzero` check.

        On a smooth complete fan the support of chi lies in the convex hull
        of the characters.  By localization at the torus-fixed points, chi
        is a sum over the maximal cones of the characters of the fibre at
        that point, each divided by the product of (1 - x^m) over the
        cone's weights m.  Expand every term as a series in the direction
        in which a generic linear functional decreases.  Every term is then
        supported where the functional is at most its value at one of the
        characters, and so is chi, a Laurent polynomial equal to the sum of
        the expansions.  The intersection of these half-spaces over all
        generic functionals is the hull of the characters (Brion's argument
        for the lattice points of a polytope).  Off smooth cones the
        characters are rational and the box is rounded outward.  Twisting
        the bundle by a character w moves chi and the characters by w, so
        the box moves by w.  The origin seeds the box only when there is no
        character, on a bundle of rank zero.
        """
        pts = [u for key in self.fan.maximal_keys for u in self._cone_characters(key)]
        return bounding_box(pts or [(0,) * self.fan.ambient_dim], 1)

    def section_values(self, box, cones):
        """Signed sums of section ranks on the integer points of a box.

        `cones` lists (ray indices, sign) pairs; the value at u is the sum of
        sign * rank(meet of F_rho(<u, v_rho>) over the rays), the empty meet
        being the ground set.  The cones of the fan with signs (-1)^codim
        give chi_u; one cone of every ray with sign 1 gives h0_u.

        Yields (offsets, values) int64 arrays of `chains._halfspace_blocks`;
        the box may be thin.  F_rho is constant below the row's smallest
        entry and above its largest, so ray rho has one half-space
        <v_rho, u> <= k per distinct entry k of its row, and one Klyachko
        mask per entry plus the one above: the mask at level l is the one at
        #{k < l}, the number of rho's rows that fail, counted down from the
        top mask by the rows that hold.  These rows and masks are the
        bundle's Klyachko table, laid out once per bundle
        (`_section_table`).  Each block then costs one segment
        sum of the holding rows, one gather from the masks, and one
        AND-reduce and rank lookup for all cones.
        """
        lo, hi = box
        self._check_character(lo)
        self._check_character(hi)
        rays = self.fan.rays
        rows, starts, masks, top = self._section_table
        # at least one column: the zero cone alone is the ground set
        width = max(1, max(len(key) for key, _ in cones))
        index = np.array(
            [sorted(key) + [len(rays)] * (width - len(key)) for key, _ in cones],
            dtype=np.intp,
        )
        signs = np.array([sign for _, sign in cones], dtype=np.int64)
        rank_of = np.frombuffer(self.matroid.rank_table, dtype=np.uint8)
        at = np.empty((len(rays) + 1, BOX_BLOCK), dtype=np.intp)
        at[-1] = len(masks) - 1
        for offsets, holds in _halfspace_blocks(box, rays, rows, "section levels"):
            n = offsets.shape[0]
            held = np.add.reduceat(holds, starts, axis=0, dtype=np.intp)
            np.subtract(top, held, out=at[:-1, :n])
            meets = np.bitwise_and.reduce(masks[at[:, :n]][index], axis=1)
            yield offsets, signs @ rank_of[meets].astype(np.int64)

    @cached_property
    def _section_table(self):
        """The Klyachko table as `section_values` reads it: the half-space
        rows (ray, entry), the first row of each ray, the masks of all rays
        in one uint32 array with the ground set last, and the index of each
        ray's top mask, the loops, as a column."""
        rows, starts, masks, top = [], [], [], []
        loops = self.matroid.closure_mask(0)
        for i, flats in enumerate(self._row_flats):
            entries = sorted(flats)
            starts.append(len(rows))
            rows += [(i, k) for k in entries]
            masks += [flats[k] for k in entries] + [loops]
            top.append(len(masks) - 1)
        # the last mask is the ground set: it pads every cone to the widest
        # one and is the whole of the zero cone
        masks.append((1 << self.matroid.m) - 1)
        return (
            rows,
            starts,
            np.array(masks, dtype=np.uint32),
            np.array(top, dtype=np.intp)[:, None],
        )

    def _chi_cones(self):
        """The terms of chi_u for `section_values`: every cone, (-1)^codim."""
        return [(key, (-1) ** self.fan.codim(key)) for key in self.fan.cone_keys]

    def euler_char_total(self, box=None) -> int:
        """Sum of chi_u over a box whose margin shell must be chi-free.

        The box is checked by `lattice.check_box` (shape, integer corners
        and point cap) before any point is evaluated; the error for a
        nonzero margin names the first such point in box order.
        """
        if box is None:
            box = self.chi_box()
        check_box(box, self.fan.ambient_dim)
        blocks = _margin_checked(self.section_values(box, self._chi_cones()), box, "chi")
        return sum(int(values.sum()) for _, values in blocks)

    def h0_nonzero(self):
        """(u, h0_u) for every character with global sections, in box order.

        The scan covers `chi_box()` under the margin check of
        `euler_char_total`, by the lemma: on a complete fan every u with
        h0_u != 0 lies in the hull of the characters.  Such a u lies in the
        parliament P_e = {y : <y, v_rho> <= D[rho, e] for all rho} of some
        nonloop e.  Take a maximal cone tau and its adapted basis B.  The
        rows of tau lie in the apartment of B, so D[rho, e] is the minimum
        of D[rho, b] over the fundamental circuit C(B, e) minus e (b = e
        when e is in B).  Fix one such b: on the rays of tau,
        <u, v_rho> <= D[rho, b] = <u_{tau,b}, v_rho>, so <w, u> <=
        <w, u_{tau,b}> for every w in tau.  The fan covers every w, so u
        lies in the hull, inside the unpadded box and off its margin.
        Neither smoothness nor simpliciality is used; the margin check makes
        the lemma a checked precondition.
        """
        box = self.chi_box()
        lo = box[0]
        everything = [(range(len(self.fan.rays)), 1)]
        out = []
        blocks = _margin_checked(self.section_values(box, everything), box, "h0")
        for offsets, values in blocks:
            found = values != 0
            for off, h in zip(offsets[found].tolist(), values[found].tolist()):
                out.append((tuple(l + x for l, x in zip(lo, off)), h))
        return out

    def h0_total(self) -> int:
        """Sum of global section ranks over all characters."""
        return sum(h for _, h in self.h0_nonzero())

    # -- characters and the associated chain --------------------------------

    def characters(self, cone_key):
        """Character multiset of a maximal smooth cone.

        Entry j solves <u_j, v_rho> = D[rho, b_j] over the cone's rays, where
        b_j runs over the adapted basis; for smooth cones the solution is an
        integer vector.  The multiset does not depend on the chosen basis.
        """
        key = frozenset(cone_key)
        if key not in self.fan.cone_dims:
            raise KeyError(f"no cone {sorted(key)}")
        if self.fan.cone_dims[key] != self.fan.ambient_dim:
            raise UnsupportedConeError("characters are defined on maximal cones")
        if not self.fan.is_smooth_cone(key):
            raise UnsupportedConeError("characters need a smooth cone")
        return self._cone_characters(key)

    def _cone_characters(self, key):
        """The sorted solutions u_j of `characters` on any maximal cone:
        rational vectors off smooth cones, where `validate` proved that
        they exist.  Each is `Fan.solve_on` of the cone's rays."""
        if key not in self._char_cache:
            idx = sorted(key)
            self._char_cache[key] = tuple(sorted(
                self.fan.solve_on(key, [self.diagram[i][b - 1] for i in idx])
                for b in self.adapted_bases[key]
            ))
        return self._char_cache[key]

    def support_function(self) -> MultiValuedSupportFunction:
        """Multi-valued support function with the characters as branches."""
        if not self.fan.is_smooth() or not self.fan.is_complete():
            raise UnsupportedConeError(
                "the support function needs a smooth complete fan"
            )
        branches = {key: self.characters(key) for key in self.fan.maximal_keys}
        return MultiValuedSupportFunction(self.fan, branches)

    def chain_alpha(self, verify: bool = True) -> ConvexChain:
        """Convex chain whose values equal the equivariant Euler characteristic.

        With verify=True the pointwise identity with chi_u is checked on the
        chi box, block by block: chain values from `box_values`, chi from
        `section_values`; the error names the first disagreement in box
        order.
        """
        chain = support_function_chain(self.support_function())
        if verify:
            box = self.chi_box()
            chi = self.section_values(box, self._chi_cones())
            lo = box[0]
            for (offsets, alpha), (_, values) in zip(box_values(chain, box), chi):
                bad = alpha != values
                if bad.any():
                    u = tuple(l + x for l, x in zip(lo, offsets[bad.argmax()].tolist()))
                    raise BundleValidationError(f"chain value and chi disagree at {u}")
        return chain

    # -- pull-back -----------------------------------------------------------

    def pullback(self, refined: Fan) -> "TropicalVectorBundle":
        """Bundle induced on a refinement of the fan.

        Rows for surviving rays are copied; a new ray gets the linear
        interpolation of its containing cone's rows in adapted-basis
        coordinates, extended to the other columns by the circuit-minimum
        formula.  Any coordinates of the new ray over the rays of its
        smallest cone give the same row, since `validate` proved the adapted
        coordinates linear on that cone.
        """
        if not is_refinement(refined, self.fan):
            raise ValidationError("pullback target does not refine the fan")
        new_rows = []
        for v in refined.rays:
            if v in self.fan.rays:
                new_rows.append(self.diagram[self.fan.rays.index(v)])
                continue
            key = min_containing_cone(self.fan, v)
            lam = self.fan.coordinates(key, v)
            basis = self.adapted_bases[key]
            coords = {}
            for b in basis:
                coords[b] = sum(
                    l * self.diagram[i][b - 1] for l, i in zip(lam, sorted(key))
                )
            row = circuit_extension(self.matroid, basis, coords)
            if any(x.denominator != 1 for x in row):
                raise ValidationError(
                    f"pullback row for {v} is not integral "
                    "(refined ray in a non-smooth cone)"
                )
            new_rows.append(tuple(int(x) for x in row))
        return validate(refined, self.matroid, new_rows)

    def __repr__(self):
        return (
            f"TropicalVectorBundle(rank={self.rank}, rays={len(self.fan.rays)}, "
            f"ground={self.matroid.m})"
        )


def validate(fan: Fan, matroid: Matroid, diagram) -> TropicalVectorBundle:
    """Check a diagram against a fan and matroid and build the bundle.

    Verifies that the fan is complete, that every row lies in the lifted
    Bergman fan of the matroid, and that the rows of every cone admit a
    common adapted basis (recorded per cone, lexicographically smallest).

    The Bergman check keeps the masks of each row's level sets
    {e : D[rho, e] >= k}, once they are proved to be flats; they are also
    the bundle's table of Klyachko flats.  A basis B is
    adapted to a row when |F & B| = rank(F) for each of its level flats F,
    that is, when B has the row's largest weight.  If the rows of a cone
    have a common adapted basis, the bases of largest weight for the sum of
    the rows are therefore exactly the common adapted bases, and the greedy
    one, with ties toward smaller elements, is the lexicographically
    smallest.  So a cone has a common adapted basis exactly when its greedy
    basis passes the level-mask test.
    """
    diagram = tuple(map(tuple, diagram))
    if len(diagram) != len(fan.rays):
        raise BundleValidationError(
            f"diagram has {len(diagram)} rows for {len(fan.rays)} rays"
        )
    for ri, row in enumerate(diagram):
        if len(row) != matroid.m:
            raise BundleValidationError(
                f"diagram row has {len(row)} columns for ground size {matroid.m}"
            )
        if not all(type(x) is int or isinstance(x, Integral) for x in row):
            raise BundleValidationError(f"diagram row {ri + 1} has a non-integer entry")
    diagram = tuple(tuple(map(int, row)) for row in diagram)
    if not fan.is_complete():
        raise BundleValidationError("bundles require a complete fan")

    row_flats = []
    for ri, row in enumerate(diagram):
        levels = {}
        for k in set(row):
            level = sum(1 << j for j, x in enumerate(row) if x >= k)
            if matroid.closure_mask(level) != level:
                raise RowNotInBergmanError(ri + 1, row, Matroid.elements(level))
            levels[k] = level
        row_flats.append(levels)

    table = matroid.rank_table
    adapted = {}
    for key in fan.cone_keys:
        idx = sorted(key)
        total = [sum(diagram[i][j] for i in idx) for j in range(matroid.m)]
        basis = greedy_basis_mask(matroid, total)
        for i in idx:
            for level in row_flats[i].values():
                if (level & basis).bit_count() != table[level]:
                    raise NoCommonApartmentError(key)
        adapted[key] = Matroid.elements(basis)
        if len(key) > fan.cone_dims[key]:
            # non-simplicial cone: adapted coordinates must extend linearly
            for b in adapted[key]:
                if fan.solve_on(key, [diagram[i][b - 1] for i in idx]) is None:
                    raise NoCommonApartmentError(key)
    return TropicalVectorBundle(fan, matroid, diagram, adapted, row_flats)


# ---------------------------------------------------------------------------
# Split resolutions and K-classes
# ---------------------------------------------------------------------------

class SplitBundle:
    """Direct sum of rank-one pieces, recorded by character multisets.

    For each maximal cone the multiset of characters of all summands is
    stored; this is the data entering the alternating K-class identity.
    """

    def __init__(self, codim: int, fan: Fan, characters):
        self.codim = codim
        self.fan = fan
        self.characters = {
            frozenset(k): tuple(sorted(v)) for k, v in characters.items()
        }

    @property
    def rank(self) -> int:
        return len(next(iter(self.characters.values())))

    def __repr__(self):
        return f"SplitBundle(codim={self.codim}, rank={self.rank})"


def _pairing_values(bundle: TropicalVectorBundle, cone_key):
    """List over the adapted basis of dicts {ray index: diagram entry}."""
    basis = sorted(bundle.adapted_bases[frozenset(cone_key)])
    return [
        {i: bundle.diagram[i][b - 1] for i in sorted(cone_key)} for b in basis
    ]


def split_resolution(bundle: TropicalVectorBundle, f=None, check_bound=False):
    """Sequence of split bundles whose signed K-classes sum to the bundle's.

    For k = 0..n the k-th bundle collects one rank-r summand per codimension-k
    cone sigma; on a maximal cone tau its j-th character pairs with v_rho to
    the sigma-pairing for rays of sigma and to f(v_rho) for the other rays of
    tau.  The twisting numbers f, integers so that every character is a
    lattice point, default to the row maxima of the diagram.  With
    check_bound=True, f must dominate every row's largest non-loop entry
    (the condition making each summand's filtrations taper to the loop flat);
    without a non-loop element there is no bound to check.
    """
    fan = bundle.fan
    if not fan.is_smooth() or not fan.is_complete():
        raise UnsupportedConeError("split resolutions need a smooth complete fan")
    n = fan.ambient_dim
    nonloops = bundle.matroid.ground - bundle.matroid.loops
    if f is None:
        f = tuple(max(row) for row in bundle.diagram)
    else:
        f = tuple(map(exact, f))
        if len(f) != len(fan.rays):
            raise ValidationError("f must give one value per fan ray")
        for x in f:
            if type(x) is not int:
                raise ValidationError(f"twisting number {x} is not an integer")
    if check_bound and nonloops:
        for i, row in enumerate(bundle.diagram):
            limit = max(row[e - 1] for e in nonloops)
            if f[i] < limit:
                raise InvalidBoundError(
                    f"f({fan.rays[i]}) = {f[i]} is below the row bound {limit}"
                )

    by_codim = {k: [] for k in range(n + 1)}
    for key in fan.cone_keys:
        by_codim[fan.codim(key)].append(key)
    pairings = {key: _pairing_values(bundle, key) for key in fan.cone_keys}

    result = []
    for k in range(n + 1):
        chars = {}
        for tau in fan.maximal_keys:
            idx = sorted(tau)
            multiset = []
            for sigma in by_codim[k]:
                for pairing in pairings[sigma]:
                    rhs = [pairing[i] if i in sigma else f[i] for i in idx]
                    multiset.append(fan.solve_on(tau, rhs))
            chars[tau] = tuple(sorted(multiset))
        result.append(SplitBundle(k, fan, chars))
    return result


def k_class(bundle: TropicalVectorBundle):
    """Character multiset per maximal cone (the equivariant K-class data)."""
    return {
        key: bundle.characters(key) for key in bundle.fan.maximal_keys
    }


def k_class_identity(bundle: TropicalVectorBundle, resolution) -> bool:
    """Does the alternating sum of the resolution's K-classes equal the bundle's?

    Checked per maximal cone as a signed multiset identity on the character
    vectors (formal exponents).
    """
    target = k_class(bundle)
    for key in bundle.fan.maximal_keys:
        acc = Counter()
        for piece in resolution:
            sign = (-1) ** piece.codim
            for u in piece.characters[key]:
                acc[u] += sign
        acc = {u: c for u, c in acc.items() if c != 0}
        want = Counter(target[key])
        if acc != dict(want):
            return False
    return True
