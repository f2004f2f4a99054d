"""Todd-operator Riemann-Roch machinery for convex chains of bundles.

The function z -> I(alpha[z]) (integral of the chain convolved with the
virtual polytope of support numbers z) is a polynomial of total degree at
most the ambient dimension: on a fixed complete fan, integration extends
volume polynomially to virtual polytopes (Khovanskii-Pukhlikov; Lawrence,
"Polytope volume computation").  It is built in closed form.  On the fan
refined so that every branch of the bundle's support function is linear,
I(z) = sum_i V(b_i + L z): b_i are the branch values on the refined rays,
L z the values there of the piecewise linear extension of z, and V the
volume form, the segment length in dimension one and the shoelace area over
the vertices (each linear in the ray values) in dimension two.  As a guard,
the degree-n part must equal rank times the volume form of the unrefined
fan.  Applying the truncated Todd operator prod_rho T(d/dz_rho),
T(t) = t / (1 - e^{-t}), at z = 0 then turns the integral polynomial into
the lattice sum, i.e. the Euler characteristic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import comb, factorial

from .chains import split_branches
from .errors import (
    InterpolationFailureError,
    UnsupportedDimensionError,
    ValidationError,
)
from .lattice import Fan
from .linalg import solve

HRR_MAX_DIM = 2


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

def _sort_rays_ccw(rays):
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def compare(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu - hv
        cr = u[0] * v[1] - u[1] * v[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(rays, key=cmp_to_key(compare))


def _shoelace(fan: Fan) -> dict:
    """Volume of P(h) = {x : <v_j, x> <= h_j} as a form in the ray values h_j.

    Returns {ray index tuple: coefficient}, one index per factor h_j.  In
    dimension one the rays are the primitive +1 and -1, and the length of the
    segment is h_+ + h_-.  In
    dimension two the vertex x_j of the cone spanned by consecutive
    counter-clockwise rays v_j, v_{j+1} solves <v_j, x> = h_j,
    <v_{j+1}, x> = h_{j+1}, so it is linear in h, and the area is the
    shoelace sum (1/2) sum_j x_j x x_{j+1}.  The form is the polynomial
    extension of volume to all, also non-convex, ray values.
    """
    if fan.ambient_dim == 1:
        return {(0,): 1, (1,): 1}
    index = {r: j for j, r in enumerate(fan.rays)}
    ordered = [index[r] for r in _sort_rays_ccw(fan.rays)]
    k = len(ordered)
    vertices = []  # x_j as ({ray index: coeff}, {ray index: coeff})
    for t in range(k):
        a, b = ordered[t], ordered[(t + 1) % k]
        (p, q), (r, s) = fan.rays[a], fan.rays[b]
        det = p * s - q * r
        vertices.append((
            {a: Fraction(s, det), b: Fraction(-q, det)},
            {a: Fraction(-r, det), b: Fraction(p, det)},
        ))
    form = {}
    for t in range(k):
        (x0, y0), (x1, y1) = vertices[t], vertices[(t + 1) % k]
        for left, right, sign in ((x0, y1, 1), (y0, x1, -1)):
            for i, ci in left.items():
                for j, cj in right.items():
                    key = (i, j) if i <= j else (j, i)
                    form[key] = form.get(key, 0) + sign * ci * cj / 2
    return form


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

    V is the form {ray index tuple: c} of _shoelace and lin[j] the linear
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
    most two.  On the refined fan where every branch is linear, the chain of
    h is the sum of the Brianchon-Gram chains of its branch numbers b_i, and
    convolving with P(z) adds the values L z of the linear extension of z.
    So I(z) = sum_i V(b_i + L z) with V the volume form of the refined fan.
    The degree-n part must be rank * (volume form of the fan itself); a
    mismatch raises InterpolationFailureError.
    """
    fan = h.fan
    n = fan.ambient_dim
    s = len(fan.rays)
    if n > HRR_MAX_DIM:
        raise UnsupportedDimensionError(
            f"volume interpolation capped at dimension {HRR_MAX_DIM}"
        )
    if not fan.is_complete():
        raise ValidationError("the volume polynomial needs a complete fan")

    fan_r, branch_numbers = split_branches(h)
    lin = _extension_forms(fan, fan_r.rays)
    values = [sn.values for sn in branch_numbers]
    poly = MultiPoly(s, _branch_sum(_shoelace(fan_r), values, lin, s))

    # with zero constants only the degree-n part survives
    own = [{i: 1} for i in range(s)]
    expected = _branch_sum(_shoelace(fan), [(0,) * s], own, s)
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
    """Polynomial z -> I(alpha_E[z]) for a bundle on a fan of dimension <= 2."""
    return interpolate_volume_polynomial(bundle.support_function())


def hrr_verify(bundle) -> dict:
    """Compare Todd(d/dz) I(alpha_E[z]) at z = 0 with the Euler characteristic."""
    lhs = apply_todd(interpolate_I(bundle))
    rhs = bundle.euler_char_total()
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
