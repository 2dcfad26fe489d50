"""Slow reference implementations that the fast code in the package replaced.

Each one is the former implementation, kept only to check its successor:
the exact Carlitz factorial, the multiplicity enumeration of the power sums
at infinity, and the dense delta_i whose inverse the logarithm divides by.
"""

import math

from vcarlitz.algebra import PolyA
from vcarlitz.local import LocalNum, PlaceInf, embed_local


def L_factorial(ctx, i):
    """The Carlitz factorial L_i = (theta - theta^q) ... (theta - theta^(q^i))."""
    if i < 0:
        raise ValueError("index must be >= 0")
    out = PolyA.one(ctx)
    for j in range(1, i + 1):
        out = out * (PolyA.T(ctx) - PolyA.T(ctx).frobenius(j))
    return out


def power_sum_enum(ctx, d, s, prec):
    """Sum of a^(-s) over monic a of degree d, at the infinite place.

    Writing a = theta^d (1 + x) with x = sum_j c_j w^j (w = 1/theta, the
    c_j free over F_q), the sum over coefficient vectors kills every
    monomial of (1+x)^(-s) except those where each of the d digit slots
    appears with multiplicity a positive multiple of q-1; such a slot sums
    to -1.
    """
    place = PlaceInf(ctx)
    if d == 0:
        return embed_local(PolyA.one(ctx), place, prec)
    q, p = ctx.q, ctx.p
    rel = prec - d * s  # digits needed beyond the theta^(-ds) prefactor
    digits = {}

    def recurse(slot, weight, total_m, mult_coeff):
        # slot runs through the d digit positions 1..d; weight = sum j*m_j
        if slot > d:
            c = (mult_coeff * math.comb(s + total_m - 1, total_m)
                 * (-1) ** total_m * (-1) ** d) % p
            if c:
                digits[weight] = (digits.get(weight, 0) + c) % p
            return
        # remaining slots j > slot each cost at least j*(q-1)
        rest_min = (q - 1) * sum(range(slot + 1, d + 1))
        k = 1
        while weight + slot * (q - 1) * k + rest_min < rel:
            m = (q - 1) * k
            recurse(slot + 1, weight + slot * m, total_m + m,
                    mult_coeff * math.comb(total_m + m, m))
            k += 1

    if (q - 1) * d * (d + 1) // 2 < rel:
        recurse(1, 0, 0, 1)
    if not digits:
        return LocalNum.zero_to_precision(place, prec)
    lo = min(digits)
    arr = [0] * (rel - lo)
    for wgt, c in digits.items():
        arr[wgt - lo] = c
    out = LocalNum(place, d * s + lo, arr).truncate(prec)
    pad = prec - out.cutoff
    if pad > 0 and not out.is_zero_to_precision():
        out = LocalNum(place, out.nu, out.coeffs + (0,) * int(pad))
    return out


def delta_local(place, i, W):
    """theta^{q^i} - theta at a deg-1 place: equals pi^{q^i} - pi exactly."""
    qi = place.q ** i
    coeffs = [0] * W
    coeffs[0] = place.ctx.neg(1)
    if qi - 1 < W:
        coeffs[qi - 1] = 1
    return LocalNum(place, 1, coeffs)
