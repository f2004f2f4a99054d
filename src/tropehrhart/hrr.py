"""Todd-operator Riemann-Roch machinery for convex chains of bundles.

The function z -> I(alpha[z]) (integral of the chain convolved with the
virtual polytope of support numbers z) is a polynomial of total degree at
most the ambient dimension n: on a fixed complete fan, integration extends
volume polynomially to virtual polytopes (Khovanskii-Pukhlikov; Lawrence,
"Polytope volume computation").  On the fan refined so that every branch of
the bundle's support function is linear, I(z) = sum_i V(b_i + L z): b_i are
the branch values on the refined rays, L z the values there of the piecewise
linear extension of z, and V the volume form.  V is Lawrence's formula in
every dimension, a sum of n-th powers of linear forms over the simplicial
cones s of the fan, V(h) = sum_s l_s(h)^n / (n! D_s); the generic vector c
it needs is fixed deterministically, and maximal cones that are not
simplicial are split on their own rays, independently of each other.  So
I(z) = sum_s sum_i (beta_si + lambda_s . z)^n / (n! D_s) with
beta_si = l_s(b_i), and the truncated Todd operator prod_rho T(d/dz_rho),
T(t) = t / (1 - e^{-t}), has a closed form on each power (Brion-Vergne):

    Todd (beta + lambda . z)^n at z = 0 = n! sum_k tau_k beta^(n-k) / (n-k)!,
    tau_k = [t^k] prod_rho T(lambda_rho t).

The sum is the lattice sum of the chain, i.e. the Euler characteristic; no
polynomial in z is built.  It is summed in integers.  With L_T the lcm of
the denominators of T_0, ..., T_n (12 for n = 2, 720 for n = 4), q_s the lcm
of the denominators of lambda_s and e one lcm of the denominators of all
branch values, L_T^|lambda_s| q_s^k tau_k and e beta_si are integers, so each
cone adds an integer numerator over n! L_T^|lambda_s| q_s^n e^n D_s.  The
numerators are summed per distinct denominator and one Fraction is made per
denominator at the end.

As a guard, the degree-n part of I, the number of branches times
sum_s (lambda_s . z)^n / (n! D_s), must equal rank times the volume form of
the unrefined fan.  Each side is an integer form over one common
denominator, n! lcm_s(D_s q_s^n), and the two are compared by
cross-multiplication, never reduced on their own.  The same sums in
Fractions, one per step, are the test oracle (`tests/conftest.py`).  Fan
refinement and vertex enumeration share one dimension cap,
`lattice.VERTEX_ENUM_MAX_DIM`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod
from operator import itemgetter

from .chains import split_branches
from .errors import InterpolationFailureError, ValidationError
from .lattice import Fan, _pulling_triangulation, min_containing_cone
from .linalg import det


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


@functools.cache
def _todd_series(n: int):
    """(L_T, (L_T T_0, ..., L_T T_n)) with L_T the lcm of the denominators
    of `todd_coeffs(n)`: the Todd series scaled to integers."""
    todd = todd_coeffs(n)
    big = lcm(*(t.denominator for t in todd))
    return big, tuple(int(t * big) for t in todd)


# ---------------------------------------------------------------------------
# Lawrence's volume form as a sum of powers of linear forms
# ---------------------------------------------------------------------------

def _simplicial_cones(fan: Fan):
    """(s, A_s, D_s) per simplicial cone s of Lawrence's volume formula

        V(h) = sum_s l_s(h)^n / (n! D_s),  l_s(h) = sum_k A_sk h_sk,
        D_s = |det V_s| prod_k A_sk,

    with the rays of s as the rows of V_s and A_sk = <c, column k of adj V_s>,
    the determinant of V_s with row k replaced by c.  Each term is the
    degree-n part of the integral of exp<c, x> over the tangent cone at the
    vertex V_s^-1 h_s of P(h) = {x : <v_j, x> <= h_j} (Brion), so the sum is
    the same for every c that makes no A_sk zero: c = (1, t, ..., t^(n-1))
    for the smallest such t >= 1, which exists since each A_sk is a nonzero
    polynomial in t of degree < n.  A cone that is not simplicial is split
    on its own rays by `_pulling_triangulation`, and the splits of different
    cones need not agree: the dual of a cone is the alternating sum of the
    duals of the cells and interior faces of its split, and the duals of the
    lower-dimensional ones contain lines, so they integrate to zero.  The
    form is thus the fan's own on ray values linear on every cone, and on a
    simplicial fan it extends volume to all, also non-convex, ray values.
    """
    n = fan.ambient_dim
    simplices = []
    for key in fan.maximal_keys:
        simplices += _pulling_triangulation(key, fan.facets(key))
    rows = [[fan.rays[i] for i in s] for s in simplices]
    for t in itertools.count(1):
        c = tuple(t**i for i in range(n))
        weights = [[det(r[:k] + [c] + r[k + 1:]) for k in range(n)] for r in rows]
        if all(all(a) for a in weights):
            break
    return [
        (s, a, abs(det(r)) * prod(a)) for s, r, a in zip(simplices, rows, weights)
    ]


def _pulled_back(cones, lin):
    """(q_s, q_s lambda_s) per cone s, lambda_s = sum_k A_sk lin[s_k].

    So lambda_s . z = l_s(L z).  lin[j] is the linear form {variable index:
    coefficient} that gives the value on ray j; the coefficients are
    rational where a refined ray is not an integer combination of the rays
    of its cone.  q_s is the lcm of the denominators of lambda_s, and
    q_s lambda_s is returned as {variable index: int}, with sorted keys and
    no zeros.
    """
    out = []
    for s, a, _ in cones:
        lam = {}
        for j, ak in zip(s, a):
            for i, x in lin[j].items():
                lam[i] = lam.get(i, 0) + ak * x
        q = lcm(*(x.denominator for x in lam.values()))
        out.append((q, {
            i: x.numerator * (q // x.denominator)
            for i, x in sorted(lam.items()) if x
        }))
    return out


@functools.cache
def _multinomials(k: int, n: int):
    """(pick, n! / prod of the multiplicities) per sorted n-multiset of
    range(k), the terms of the multinomial expansion of an n-th power;
    pick(t) is the tuple of the entries of t at the multiset's indices."""
    out = []
    for combo in itertools.combinations_with_replacement(range(k), n):
        mult = factorial(n) // prod(map(factorial, Counter(combo).values()))
        # itemgetter of one index returns the entry, of a slice a tuple
        if n == 1:
            pick = itemgetter(slice(combo[0], combo[0] + 1))
        else:
            pick = itemgetter(*combo)
        out.append((pick, mult))
    return tuple(out)


def _power_form(cones, lams, n: int):
    """(F, M) with sum_s (lambda_s . z)^n / (n! D_s) = F / M.

    F is {variable index tuple: int}, one index per factor of a monomial,
    sorted, without zeros; M = n! lcm_s(D_s q_s^n), so the term of s is
    multinomial * prod(q_s lambda_s) * M / (n! D_s q_s^n), an integer.
    """
    scales = [d * q**n for (_, _, d), (q, _) in zip(cones, lams)]
    m = lcm(*scales)
    form = {}
    for (_, lam), scale in zip(lams, scales):
        w = m // scale
        keys, xs = tuple(lam), tuple(lam.values())
        for pick, mult in _multinomials(len(keys), n):
            key = pick(keys)
            form[key] = form.get(key, 0) + w * mult * prod(pick(xs))
    return {key: c for key, c in form.items() if c}, factorial(n) * m


def _fan_power_form(fan: Fan):
    """`_power_form` of Lawrence's volume form of fan, l_s itself as lambda_s.

    In the ray values h_j: the volume of P(h) = {x : <v_j, x> <= h_j} is
    F / M, one index per factor h_j in the keys of F.
    """
    cones = _simplicial_cones(fan)
    own = [{i: 1} for i in range(len(fan.rays))]
    return _power_form(cones, _pulled_back(cones, own), fan.ambient_dim)


def _same_form(a, ma, b, mb) -> bool:
    """a / ma == b / mb for integer forms, by cross-multiplication.

    Neither side is reduced on its own: a form that is a scalar multiple of
    the other keeps every ratio of its coefficients and would pass.
    """
    return a.keys() == b.keys() and all(a[k] * mb == b[k] * ma for k in a)


def _extension_forms(fan: Fan, rays):
    """Value at each ray v of the piecewise linear function with values z on fan.

    v is written in the rays of its smallest cone of the (simplicial) fan,
    v = sum_i c_i r_i, by `Fan.coordinates`, and the value is
    sum_i c_i z_i.  Returns one {variable index: c_i} map per ray.
    """
    index = {r: i for i, r in enumerate(fan.rays)}
    forms = []
    for v in rays:
        if v in index:
            forms.append({index[v]: 1})
            continue
        key = min_containing_cone(fan, v)
        c = fan.coordinates(key, v)
        forms.append({i: x for i, x in zip(sorted(key), c) if x != 0})
    return forms


# ---------------------------------------------------------------------------
# The Riemann-Roch check for bundles
# ---------------------------------------------------------------------------

def _todd_sum(cones, lams, values, n: int) -> Fraction:
    """sum_s sum_k tau_k(lambda_s) sum_i beta_si^(n-k) / ((n-k)! D_s).

    values holds the branch values b_i on the rays of the refined fan, and
    lams the scaled (q_s, q_s lambda_s) of `_pulled_back`.  In integers: the
    Todd series scaled by L_T makes L_T^|lambda_s| q_s^k tau_k an integer,
    and one lcm e of the denominators of the values makes e beta_si one.
    Each cone then adds an integer numerator over
    n! L_T^|lambda_s| q_s^n e^n D_s; the numerators are summed per
    denominator, and one Fraction is made per distinct denominator.
    """
    big, series = _todd_series(n)
    e = lcm(*(x.denominator for vals in values for x in vals))
    values = [[x.numerator * (e // x.denominator) for x in vals] for vals in values]
    # n! / (n-k)! e^k, the k-th weight shared by every cone
    weights = [factorial(n) // factorial(n - k) * e**k for k in range(n + 1)]
    numerators = {}
    for (s, a, denom), (q, lam) in zip(cones, lams):
        tau = [1] + [0] * n
        for x in lam.values():
            factor = [c * x**j for j, c in enumerate(series)]
            tau = [
                sum(tau[j] * factor[k - j] for j in range(k + 1))
                for k in range(n + 1)
            ]
        betas = [sum(ak * vals[j] for j, ak in zip(s, a)) for vals in values]
        num = sum(
            tau[k] * weights[k] * q ** (n - k) * sum(b ** (n - k) for b in betas)
            for k in range(n + 1)
        )
        key = denom * big ** len(lam) * q**n
        numerators[key] = numerators.get(key, 0) + num
    scale = factorial(n) * e**n
    return sum(
        (Fraction(num, key * scale) for key, num in numerators.items()),
        Fraction(0),
    )


def todd_lhs(h) -> Fraction:
    """Todd(d/dz) I(alpha_h * 1_{P(z)}) at z = 0, in closed form.

    h is a multi-valued support function on a complete fan.  Per simplicial
    cone s of the refined fan the left side needs one truncated series
    product tau(lambda_s) of degree n and the power sums of the branch
    values beta_si.  The degree-n part of the polynomial in z must be
    rank * (volume form of the fan itself); a mismatch raises
    InterpolationFailureError.
    """
    fan = h.fan
    n = fan.ambient_dim
    if not fan.is_complete():
        raise ValidationError("the volume polynomial needs a complete fan")

    fan_r, branch_numbers = split_branches(h)
    cones = _simplicial_cones(fan_r)
    lams = _pulled_back(cones, _extension_forms(fan, fan_r.rays))

    # the degree-n part is len(values) = rank times the power form, so both
    # sides vanish on a bundle of rank zero
    if h.rank and not _same_form(
        *_power_form(cones, lams, n), *_fan_power_form(fan)
    ):
        raise InterpolationFailureError(
            "degree-n part is not rank times the volume polynomial of the fan"
        )
    return _todd_sum(cones, lams, [sn.values for sn in branch_numbers], n)


def hrr_verify(bundle) -> dict:
    """Compare Todd(d/dz) I(alpha_E[z]) at z = 0 with the Euler characteristic."""
    lhs = todd_lhs(bundle.support_function())
    rhs = bundle.euler_char_total()
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
