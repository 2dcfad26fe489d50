"""Carlitz multiple (star) polylogarithms and their v-adic deformations.

Everything is evaluated through LocalNum windows, so the returned precision
is provable: the only analytic input is the choice of a truncation index,
and the bound justifying each truncation is computed here from exact
valuations of the arguments.

Every nested sum over chains i_1 > ... > i_r (or i_1 >= ... >= i_r) -- the
CMPL/CMSPL values, the infinite-place MZVs and both deformation sums -- is
evaluated by one suffix-sum routine, _nested_sum, in O(r * I) products of
its factor rows rather than one product per chain.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import PolyA, RatK, theta_power_poly
from .errors import DomainError, ParseError, PrecisionLoss
from .local import INF, LocalNum, PlaceInf, PlaceV, embed_local, embed_poly
from .tseries import TSeries


class Index:
    """A composition (s_1, ..., s_r) of positive integers."""

    __slots__ = ("s",)

    def __init__(self, s):
        s = tuple(int(x) for x in s)
        if not s or any(x < 1 for x in s):
            raise ValueError("index entries must be positive integers")
        self.s = s

    @classmethod
    def parse(cls, text):
        try:
            return cls(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ParseError(f"bad index {text!r}") from exc

    @property
    def weight(self):
        return sum(self.s)

    @property
    def depth(self):
        return len(self.s)

    def __iter__(self):
        return iter(self.s)

    def __getitem__(self, i):
        return self.s[i]

    def __eq__(self, other):
        return isinstance(other, Index) and self.s == other.s

    def __hash__(self):
        return hash(self.s)

    def __str__(self):
        return ",".join(str(x) for x in self.s)

    def __repr__(self):
        return f"Index({self})"


class ArgTuple:
    """Arguments (u_1, ..., u_r) in k, with valuations cached per place."""

    __slots__ = ("u", "_ords")

    def __init__(self, u):
        u = tuple(x if isinstance(x, RatK) else RatK(x) for x in u)
        if not u or any(x.is_zero() for x in u):
            raise ValueError("arguments must be nonzero elements of k")
        self.u = u
        self._ords = {}

    @property
    def depth(self):
        return len(self.u)

    def ords(self, place):
        key = place
        if key not in self._ords:
            self._ords[key] = tuple(place.ord_ratk(x) for x in self.u)
        return self._ords[key]

    def __iter__(self):
        return iter(self.u)

    def __getitem__(self, i):
        return self.u[i]

    def __str__(self):
        return ",".join(str(x) for x in self.u)

    def __repr__(self):
        return f"ArgTuple({self})"


CONV_INF = "ConvInf"
CONV_V = "ConvV"
DEF_V = "DefV"


def domain_check(s, u, tag, place=None):
    """Exact membership in the convergence / defining domains."""
    if s.depth != u.depth:
        raise ValueError("index and argument depths differ")
    if tag == CONV_INF:
        ctx = u[0].ctx
        inf = PlaceInf(ctx)
        q = ctx.q
        for si, x in zip(s, u):
            # |u|_inf < q^(s*q/(q-1))  <=>  -ord_inf(u) < s*q/(q-1)
            if -Fraction(inf.ord_ratk(x)) >= Fraction(si * q, q - 1):
                return False
        return True
    if not isinstance(place, PlaceV):
        raise ValueError("v-adic domain check needs a finite place")
    ords = u.ords(place)
    if tag == CONV_V:
        if ords[0] < 1:
            return False
        return all(o >= 0 for o in ords[1:])
    if tag == DEF_V:
        return all(o >= 0 for o in ords)
    raise ValueError(f"unknown domain tag {tag!r}")


def L_factorial(ctx, i):
    """The Carlitz factorial L_i = (theta - theta^q) ... (theta - theta^(q^i))."""
    if i < 0:
        raise ValueError("index must be >= 0")
    cache = _L_CACHE.setdefault(ctx, [PolyA.one(ctx)])
    while len(cache) <= i:
        j = len(cache)
        factor = PolyA.T(ctx) - theta_power_poly(ctx, ctx.q ** j)
        cache.append(cache[-1] * factor)
    return cache[i]


_L_CACHE = {}
_LINV_CACHE = {}


def _L_inv_local(place, i, window):
    """Cached local embedding of 1/L_i with relative precision window."""
    key = (place, i, window)
    out = _LINV_CACHE.get(key)
    if out is None:
        out = embed_poly(L_factorial(place.ctx, i), place, window).inv()
        _LINV_CACHE[key] = out
    return out


def _truncation_index(bound, prec, cap=10000):
    """Smallest I with bound(i) >= prec for all i >= I, for convex bound."""
    for i in range(cap):
        if bound(i) >= prec and bound(i + 1) >= bound(i):
            return i
    raise PrecisionLoss("truncation index beyond cap; series may diverge")


def _inf_term_floor(place, si, oi):
    """min over i >= 0 of the infinite-place single-slot valuation bound."""
    q = place.q
    best = None
    prev = None
    for i in range(0, 10000):
        g = q ** i * oi + si * (q ** (i + 1) - q) // (q - 1)
        if best is None or g < best:
            best = g
        if prev is not None and g >= prev and g - best > 0 and i > 2:
            # convex and already climbing: the minimum is behind us
            break
        prev = g
    return best


def _chain_plan(s, u, place, prec):
    """Truncation index and working window for a CMPL/CMSPL evaluation."""
    ords = u.ords(place)
    wt = s.weight
    q = place.q
    if isinstance(place, PlaceV):
        d1 = ords[0]
        bound = lambda i: q ** i * d1 - wt * i  # noqa: E731
        floor = min(bound(i) for i in range(0, 40))
    else:
        rest = sum(_inf_term_floor(place, si, oi)
                   for si, oi in zip(s.s[1:], ords[1:]))
        g1 = lambda i: q ** i * ords[0] + s[0] * (q ** (i + 1) - q) // (q - 1)  # noqa: E731
        bound = lambda i: g1(i) + rest  # noqa: E731
        floor = _inf_term_floor(place, s[0], ords[0]) + rest
    I = _truncation_index(bound, prec)
    W = prec + max(0, -floor) + 8
    return I, W


def _nested_sum(rows, strict):
    """Sum of f_1(i_1) ... f_r(i_r) over chains i_1 > ... > i_r (>= if not strict).

    rows[l - 1][i] is f_l(i); entries past the end of a row count as zero.
    Suffix sums take O(r * I) products: S_r(i) = f_r(i) and
    S_l(i) = f_l(i) * sum_(j < i) S_(l+1)(j), with j <= i for weak chains.
    Partial sums start from the empty sum (None, also returned when there
    is no chain), so each product keeps the window its chains give it and
    one code serves LocalNum and TSeries rows.
    """
    below = list(rows[-1])
    for row in reversed(rows[:-1]):
        cur, acc = [], None
        for i, f in enumerate(row):
            if not strict and i < len(below):
                acc = _add(acc, below[i])
            cur.append(None if acc is None else f * acc)
            if strict and i < len(below):
                acc = _add(acc, below[i])
        below = cur
    total = None
    for x in below:
        total = _add(total, x)
    return total


def _add(acc, x):
    if x is None:
        return acc
    return x if acc is None else acc + x


def _tower(x, place, window, I, cutoff=None):
    """x, x^q, ..., x^(q^(I-1)) embedded with the window, each cut at cutoff."""
    out = [embed_local(x, place, window)]
    while len(out) < I:
        nxt = out[-1].qpow()
        out.append(nxt if cutoff is None else nxt.truncate(cutoff))
    return out[:I]


def _clip(total, place, prec):
    """Close a LocalNum chain sum at prec; PrecisionLoss if the window is short."""
    out = _add(LocalNum.zero_to_precision(place, prec), total).truncate(prec)
    if out.cutoff < prec:
        raise PrecisionLoss("window collapsed below the requested precision")
    return out


def _chain_sum(s, u, place, prec, strict):
    I, W = _chain_plan(s, u, place, prec)
    rows = [[a * _L_inv_local(place, i, W).pow(si)
             for i, a in enumerate(_tower(x, place, W, I))]
            for si, x in zip(s, u)]
    return _clip(_nested_sum(rows, strict), place, prec)


def cmpl_eval(s, u, place, prec):
    """Carlitz multiple polylogarithm: sum over strict chains i_1 > ... > i_r."""
    if isinstance(place, PlaceV):
        if not domain_check(s, u, CONV_V, place):
            raise DomainError("arguments outside the v-adic convergence domain")
    else:
        if not domain_check(s, u, CONV_INF):
            raise DomainError("arguments outside the infinite-place domain")
    return _chain_sum(s, u, place, prec, strict=True)


def cmspl_eval(s, u, place, prec):
    """Star variant: sum over weak chains i_1 >= ... >= i_r."""
    if isinstance(place, PlaceV):
        if not domain_check(s, u, CONV_V, place):
            if domain_check(s, u, DEF_V, place):
                raise DomainError("requires extended domain")
            raise DomainError("arguments outside the v-adic convergence domain")
    else:
        if not domain_check(s, u, CONV_INF):
            raise DomainError("arguments outside the infinite-place domain")
    return _chain_sum(s, u, place, prec, strict=False)


def star_expand(s):
    """Write the star sum over weak chains as non-star sums over strict chains.

    Grouping the equal indices of a weak chain gives, for every way of
    merging consecutive blocks of the composition, the non-star sum at the
    merged index with the corresponding arguments multiplied.  Coefficients
    are all 1.
    """
    r = s.depth
    out = []
    for pattern in itertools.product((False, True), repeat=r - 1):
        merged = [s[0]]
        for pos, fuse in enumerate(pattern):
            if fuse:
                merged[-1] += s[pos + 1]
            else:
                merged.append(s[pos + 1])
        out.append((1, Index(merged), pattern))
    return out


def merge_args(u, pattern):
    """Multiply consecutive arguments according to a star_expand pattern."""
    merged = [u[0]]
    for pos, fuse in enumerate(pattern):
        if fuse:
            merged[-1] = merged[-1] * u[pos + 1]
        else:
            merged.append(u[pos + 1])
    return ArgTuple(merged)


# ---------------------------------------------------------------------------
# infinite-place multiple zeta values
# ---------------------------------------------------------------------------

_POWER_SUM_CACHE = {}


def power_sum_inf(ctx, d, s, prec):
    """Sum of a^(-s) over monic a of degree d, at the infinite place.

    Writing a = theta^d (1 + x) with x = sum_j c_j w^j (w = 1/theta, the
    c_j free over F_q), the sum over coefficient vectors kills every
    monomial of (1+x)^(-s) except those where each of the d digit slots
    appears with multiplicity a positive multiple of q-1; such a slot sums
    to -1.  This leaves a short certified expansion with valuation at
    least d*s + (q-1)*d*(d+1)/2.
    """
    key = (ctx, d, s, prec)
    out = _POWER_SUM_CACHE.get(key)
    if out is not None:
        return out
    place = PlaceInf(ctx)
    if d == 0:
        out = embed_local(RatK.one(ctx), place, prec)
        _POWER_SUM_CACHE[key] = out
        return out
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
        out = LocalNum.zero_to_precision(place, prec)
    else:
        lo = min(digits)
        arr = [0] * (rel - lo)
        for wgt, c in digits.items():
            arr[wgt - lo] = c
        out = LocalNum(place, d * s + lo, arr).truncate(prec)
        pad = prec - out.cutoff
        if pad > 0 and not out.is_zero_to_precision():
            out = LocalNum(place, out.nu, out.coeffs + (0,) * int(pad))
    _POWER_SUM_CACHE[key] = out
    return out


def mzv_inf(s, ctx, D_max, prec=None):
    """Multiple zeta value over A at the infinite place, degrees <= D_max.

    The nested sum factors through the per-degree power sums, and the tail
    over degrees beyond D_max is bounded by q^(-(D_max+1)*s_1).
    """
    if D_max < 0:
        raise ValueError("degree cutoff must be >= 0")
    tail = (D_max + 1) * s[0]
    if prec is None or prec > tail:
        prec = tail
    # every power sum has valuation >= 0, so chains whose top degree has a
    # power sum that is zero to prec add nothing and their rows are not built
    top = [power_sum_inf(ctx, d, s[0], prec) for d in range(D_max + 1)]
    while top and top[-1].is_zero_to_precision():
        top.pop()
    rows = [top] + [[power_sum_inf(ctx, d, si, prec)
                     for d in range(len(top) - ell)]
                    for ell, si in enumerate(s.s[1:], 1)]
    return _clip(_nested_sum(rows, strict=True), PlaceInf(ctx), prec)


# ---------------------------------------------------------------------------
# deformation series at the finite place
# ---------------------------------------------------------------------------

_OMEGA_TAIL_CACHE = {}


def _uniformizer_local(place, window):
    return embed_poly(place.uniformizer(), place, window)


def _omega_tail(place, i, D, N):
    """The twisted product t^(-i) F_i = prod_(j>i) (1 - pi^(q^j) t) mod (t^D, pi^N)."""
    key = (place, i, D, N)
    out = _OMEGA_TAIL_CACHE.get(key)
    if out is not None:
        return out
    q = place.q
    pi = _uniformizer_local(place, N)
    out = TSeries.one(place, D, N)
    j = i + 1
    while q ** j < N:
        factor = TSeries.from_local_coeffs(
            place, [LocalNum.unit_one(place, N), -pi.pow(q ** j).truncate(N)],
            D, N)
        out = out * factor
        j += 1
    out = TSeries(place, [c.truncate(N) for c in out.coeffs])
    _OMEGA_TAIL_CACHE[key] = out
    return out


def omega_product(alpha, place, D, N):
    """The product prod_(i>=1) (1 - alpha^(q^i) t), truncated at (t^D, pi^N)."""
    if place.ord_ratk(alpha) < 1:
        raise DomainError("alpha must lie in the open unit disk at v")
    q = place.q
    a = embed_local(alpha, place, N)
    da = place.ord_ratk(alpha)
    out = TSeries.one(place, D, N)
    i = 1
    apow = a
    while q ** i * da < N:
        apow = apow.qpow()
        factor = TSeries.from_local_coeffs(
            place, [LocalNum.unit_one(place, N), -apow.truncate(N)], D, N)
        out = out * factor
        i += 1
    return TSeries(place, [c.truncate(N) for c in out.coeffs])


def omega_decay(place, alpha):
    """Certified coefficient decay of omega_product: ord of the t^n digit."""
    q = place.q
    da = place.ord_ratk(alpha)
    return lambda n: da * (q ** (n + 1) - q) // (q - 1)


def pi_tilde(alpha, place, N):
    """Value of the omega product at t = 1/alpha: prod (1 - alpha^(q^i - 1))."""
    if place.ord_ratk(alpha) < 1:
        raise DomainError("alpha must lie in the open unit disk at v")
    q = place.q
    da = place.ord_ratk(alpha)
    a = embed_local(alpha, place, N)
    ainv = a.inv()
    out = LocalNum.unit_one(place, N)
    i = 1
    apow = a
    while (q ** i - 1) * da < N:
        apow = apow.qpow()
        out = out * (LocalNum.unit_one(place, N) - (apow * ainv).truncate(N))
        i += 1
    return out.truncate(N)


def omega_at_inverse_power(alpha, place, N_power, prec):
    """Omega at t = alpha^(-q^N): exact zero for N >= 1 (a vanishing factor)."""
    if N_power < 0:
        raise ValueError("power index must be >= 0")
    if N_power == 0:
        return pi_tilde(alpha, place, prec)
    if place.ord_ratk(alpha) < 1:
        raise DomainError("alpha must lie in the open unit disk at v")
    return LocalNum.exact_zero(place)


def _F_series(place, i, s_pow, D, N):
    """F_i^s with F_i = t^i * prod_(j>i)(1 - pi^(q^j) t), mod (t^D, pi^N)."""
    base = _omega_tail(place, i, D, N)
    out = base.pow(s_pow) if s_pow != 1 else base
    if i:
        out = out.t_shift(i * s_pow, N) if s_pow != 1 else out.t_shift(i, N)
    return out


def deformation_build(s, u, place, D, N):
    """The deformation series, assembled from its rearranged product form.

    Each summand of the defining sum over strict chains is
    prod_l u_l^(q^(i_l)) * F_(i_l)^(s_l), where F_i carries the t-power and
    the tail of the omega product; chains with q^(i_1)*ord(u_1) >= N
    contribute 0 mod pi^N and are dropped.
    """
    if not domain_check(s, u, CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    q = place.q
    d1 = u.ords(place)[0]
    I = 0
    while q ** I * d1 < N and I < D:
        I += 1
    # slot l at index i carries t^(i*s_l): its row stops where that is >= D
    rows = [[_F_series(place, i, si, D, N).scale(c) for i, c in
             enumerate(_tower(x, place, N, min(I, -(-D // si)), cutoff=N))]
            for si, x in zip(s, u)]
    acc = _add(TSeries.zero(place, D, N), _nested_sum(rows, strict=True))
    return TSeries(place, [c.truncate(N) for c in acc.coeffs])


def _F_at_inverse_power(place, i, N_twist, prec):
    """F_i evaluated at t = pi^(-q^N): exact zero for i < N, else a computed unit times pi^(-i q^N)."""
    q = place.q
    if i < N_twist:
        return LocalNum.exact_zero(place)
    qN = q ** N_twist
    W = prec + 8
    out = LocalNum.unit_one(place, W)
    j = i + 1
    while q ** j - qN < W:
        out = out * (LocalNum.unit_one(place, W)
                     - LocalNum(place, q ** j - qN, (1,) + (0,) * (W - 1)))
        j += 1
    return out.shift(-i * qN)


def deformation_specialize(s, u, place, N_twist, prec, normalized=True):
    """The deformation series at t = pi^(-q^N), by per-summand exact evaluation.

    Summands with any chain entry below N_twist vanish exactly, so the sum
    runs over chains i_1 > ... > i_r >= N_twist.  The raw value of the
    series at pi^(-q^N) is pi^(-N*wt*q^N) times the q^N-th power of
    pi_tilde^weight times the v-adic CMPL value, because the power of t
    attached to a chain does not commute with twisting.  By default the
    result is normalized by that power of the uniformizer, so that it
    equals (pi_tilde^wt * Li)^(q^N) on the nose; pass normalized=False for
    the literal series value.
    """
    if not domain_check(s, u, CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    q = place.q
    r = s.depth
    wt = s.weight
    d1 = u.ords(place)[0]
    qN = q ** N_twist
    shift = N_twist * wt * qN if normalized else 0
    bound = lambda i: q ** i * d1 - qN * wt * i + shift  # noqa: E731
    I = max(_truncation_index(bound, prec), N_twist + r)
    floor = min(bound(i) for i in range(I + 1))
    W = prec + max(0, -floor) + 8
    rows = [[a * _F_at_inverse_power(place, i, N_twist, W).pow(si)
             for i, a in enumerate(_tower(x, place, W, I)) if i >= N_twist]
            for si, x in zip(s, u)]
    total = _nested_sum(rows, strict=True)
    return _clip(None if total is None else total.shift(shift), place, prec)
