"""Todd-operator Riemann-Roch machinery for convex chains of bundles.

The function z -> I(alpha[z]) (integral of the chain convolved with the
virtual polytope of support numbers z) is a polynomial of total degree at
most the ambient dimension: on a fixed complete fan, integration extends
volume polynomially to virtual polytopes (Khovanskii-Pukhlikov; Lawrence,
"Polytope volume computation").  It is built in closed form.  On the fan
refined so that every branch of the bundle's support function is linear,
I(z) = sum_i V(b_i + L z): b_i are the branch values on the refined rays,
L z the values there of the piecewise linear extension of z, and V the
volume form.  V is Lawrence's formula in every dimension, a flat sum over
the simplicial cones of the fan; the generic vector c it needs is fixed
deterministically, and maximal cones that are not simplicial are split on
their own rays, independently of each other.  Fan refinement caps the
dimension at 3.  As a guard, the degree-n part must equal rank times the
volume form of the unrefined fan.  Applying the truncated Todd operator
prod_rho T(d/dz_rho), T(t) = t / (1 - e^{-t}), at z = 0 then turns the
integral polynomial into the lattice sum, i.e. the Euler characteristic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, prod

from .chains import split_branches
from .errors import InterpolationFailureError, ValidationError
from .lattice import Fan, _pulling_triangulation
from .linalg import det, solve


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Todd series
# ---------------------------------------------------------------------------

def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n in the convention with B_1 = +1/2.

    Computed from the recurrence sum_{j<=n} C(n+1, j) B_j = 0 (which yields
    B_1 = -1/2) and flipping the sign of the odd entries.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return -b[n] if n % 2 else b[n]


def todd_coeffs(deg: int):
    """Coefficients of T(t) = t / (1 - e^{-t}) up to degree deg.

    Obtained by inverting the power series (1 - e^{-t})/t exactly, so the
    first few values are [1, 1/2, 1/12, 0, -1/720, ...].
    """
    a = [Fraction((-1) ** k, factorial(k + 1)) for k in range(deg + 1)]
    b = [Fraction(1)]
    for k in range(1, deg + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += a[j] * b[k - j]
        b.append(-acc)
    return b


# ---------------------------------------------------------------------------
# Exact multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Polynomial over Q in one variable per fan ray, stored sparsely."""

    def __init__(self, num_vars: int, coeffs=()):
        self.num_vars = num_vars
        self.coeffs = {}
        for mono, c in dict(coeffs).items():
            c = Fraction(c)
            if c != 0:
                self.coeffs[tuple(mono)] = c

    @property
    def total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(m) for m in self.coeffs)

    def evaluate(self, z) -> Fraction:
        z = tuple(Fraction(x) for x in z)
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            term = c
            for zi, e in zip(z, mono):
                term *= zi**e
            total += term
        return total

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.num_vars == other.num_vars
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "MultiPoly(0)"
        parts = []
        for mono in sorted(self.coeffs, key=lambda m: (sum(m), m)):
            parts.append(f"{self.coeffs[mono]}*z^{mono}")
        return "MultiPoly(" + " + ".join(parts) + ")"


def apply_todd(p: MultiPoly) -> Fraction:
    """Evaluate prod_rho T(d/dz_rho) p at z = 0, truncated at deg(p)."""
    b = todd_coeffs(p.total_degree)
    total = Fraction(0)
    for mono, c in p.coeffs.items():
        term = c
        for e in mono:
            term *= b[e] * factorial(e)
        total += term
    return total


# ---------------------------------------------------------------------------
# The closed-form polynomial z -> I(alpha[z])
# ---------------------------------------------------------------------------

def _volume_form(fan: Fan) -> dict:
    """Volume of P(h) = {x : <v_j, x> <= h_j} as a form in the ray values h_j.

    Returns {ray index tuple: coefficient}, one index per factor h_j.  It is
    Lawrence's formula, a sum over the simplicial cones s of the fan,

        V(h) = sum_s (sum_k A_sk h_sk)^n / (n! |det V_s| prod_k A_sk),

    with the rays of s as the rows of V_s and A_sk = <c, column k of adj V_s>,
    the determinant of V_s with row k replaced by c.  Each term is the
    degree-n part of the integral of exp<c, x> over the tangent cone at the
    vertex V_s^-1 h_s (Brion), so the sum is the same for every c that makes
    no A_sk zero: c = (1, t, ..., t^(n-1)) for the smallest such t >= 1,
    which exists since each A_sk is a nonzero polynomial in t of degree < n.
    A cone that is not simplicial is split on its own rays by
    `_pulling_triangulation`, and the splits of different cones need not
    agree: the dual of a cone is the alternating sum of the duals of the
    cells and interior faces of its split, and the duals of the
    lower-dimensional ones contain lines, so they integrate to zero.  The
    form is thus the fan's own on ray values linear on every cone, and on a
    simplicial fan it extends volume to all, also non-convex, ray values.
    """
    n = fan.ambient_dim
    simplices = []
    for key in fan.maximal_keys:
        facets = [f for f in fan.cone_faces[key] if fan.cone_dims[f] == n - 1]
        simplices += _pulling_triangulation(key, facets)
    rows = [[fan.rays[i] for i in s] for s in simplices]
    for t in itertools.count(1):
        c = tuple(t**i for i in range(n))
        weights = [[det(r[:k] + [c] + r[k + 1:]) for k in range(n)] for r in rows]
        if all(all(a) for a in weights):
            break
    form = {}
    for s, r, a in zip(simplices, rows, weights):
        denom = abs(det(r)) * prod(a)
        # the multinomial expansion of the n-th power; n! cancels
        for combo in itertools.combinations_with_replacement(range(n), n):
            e = [combo.count(k) for k in range(n)]
            key = tuple(sorted(s[k] for k in combo))
            form[key] = form.get(key, 0) + Fraction(
                prod(x**y for x, y in zip(a, e)), denom * prod(map(factorial, e))
            )
    return {key: c for key, c in form.items() if c}


def _extension_forms(fan: Fan, rays):
    """Value at each ray v of the piecewise linear function with values z on fan.

    v is written in the ray basis of a maximal cone of the (simplicial) fan
    that contains it, v = sum_i c_i r_i, and the value is sum_i c_i z_i.
    Returns one {variable index: c_i} map per ray.
    """
    index = {r: i for i, r in enumerate(fan.rays)}
    n = fan.ambient_dim
    forms = []
    for v in rays:
        if v in index:
            forms.append({index[v]: 1})
            continue
        for key in fan.maximal_keys:
            idx = sorted(key)
            c = solve(
                [tuple(fan.rays[i][t] for i in idx) for t in range(n)], v
            )
            if c is not None and all(x >= 0 for x in c):
                forms.append({i: x for i, x in zip(idx, c) if x != 0})
                break
        else:
            raise InterpolationFailureError(f"ray {v} lies in no maximal cone")
    return forms


def _branch_sum(form: dict, values, lin, num_vars: int) -> dict:
    """sum_i V(values[i] + L z) as {exponent tuple: coefficient}.

    V is the form {ray index tuple: c} of _volume_form and lin[j] the linear
    form {variable index: coefficient} of (L z)_j.  Each factor of a term is
    either the constant values[i][j] or the linear form lin[j]; the constants
    are summed over i first, so the branches cost one scalar product each.
    """
    out = {}
    for key, c in form.items():
        for picks in itertools.product((False, True), repeat=len(key)):
            weight = 0
            for vals in values:
                w = c
                for j, p in zip(key, picks):
                    if not p:
                        w *= vals[j]
                weight += w
            if not weight:
                continue
            terms = {(): weight}
            for j, p in zip(key, picks):
                if not p:
                    continue
                nxt = {}
                for used, t in terms.items():
                    for i, a in lin[j].items():
                        m = tuple(sorted(used + (i,)))
                        nxt[m] = nxt.get(m, 0) + t * a
                terms = nxt
            for used, t in terms.items():
                out[used] = out.get(used, 0) + t
    exponents = {}
    for used, t in out.items():
        mono = [0] * num_vars
        for i in used:
            mono[i] += 1
        exponents[tuple(mono)] = t
    return exponents


def interpolate_volume_polynomial(h) -> MultiPoly:
    """Exact polynomial z -> I(alpha_h * 1_{P(z)}) in ray coordinates.

    h is a multi-valued support function on a complete fan of dimension at
    most three, the cap of `refine_by_hyperplanes`.  On the refined fan
    where every branch is linear, the chain of h is the sum of the
    Brianchon-Gram chains of its branch numbers b_i, and convolving with
    P(z) adds the values L z of the linear extension of z.
    So I(z) = sum_i V(b_i + L z) with V the volume form of the refined fan.
    The degree-n part must be rank * (volume form of the fan itself); a
    mismatch raises InterpolationFailureError.
    """
    fan = h.fan
    n = fan.ambient_dim
    s = len(fan.rays)
    if not fan.is_complete():
        raise ValidationError("the volume polynomial needs a complete fan")

    fan_r, branch_numbers = split_branches(h)
    lin = _extension_forms(fan, fan_r.rays)
    values = [sn.values for sn in branch_numbers]
    poly = MultiPoly(s, _branch_sum(_volume_form(fan_r), values, lin, s))

    # with zero constants only the degree-n part survives
    own = [{i: 1} for i in range(s)]
    expected = _branch_sum(_volume_form(fan), [(0,) * s], own, s)
    top = {m: c for m, c in poly.coeffs.items() if sum(m) == n}
    if top != {m: h.rank * c for m, c in expected.items() if h.rank * c != 0}:
        raise InterpolationFailureError(
            "degree-n part is not rank times the volume polynomial of the fan"
        )
    return poly


# ---------------------------------------------------------------------------
# The Riemann-Roch check for bundles
# ---------------------------------------------------------------------------

def interpolate_I(bundle) -> MultiPoly:
    """Polynomial z -> I(alpha_E[z]) for a bundle on a fan of dimension <= 3."""
    return interpolate_volume_polynomial(bundle.support_function())


def hrr_verify(bundle) -> dict:
    """Compare Todd(d/dz) I(alpha_E[z]) at z = 0 with the Euler characteristic."""
    lhs = apply_todd(interpolate_I(bundle))
    rhs = bundle.euler_char_total()
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
