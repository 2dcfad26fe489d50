"""Carlitz multiple (star) polylogarithms and their v-adic deformations.

Everything is evaluated through LocalNum windows, so the returned precision
is provable: the only analytic input is a convex lower bound on the ord of
each term, computed here from exact valuations of the arguments, and _plan
reads both the truncation index and the working window off that bound.

No nested sum takes one product per chain.  The CMPL and CMSPL values run
down the chain entries by Horner's rule over the factorial ratios
ell_i / ell_(i-1) (_chain_sum): each step is a division by a power of
1 - pi^(q^i - 1), a prefix pass over the digits (geometric_divide), and a
product by a q^i-th power tower entry per slot, with no power of 1/ell_i.
The infinite-place MZVs and both deformation sums keep one prefix pass,
_nested_sum, in O(r * I) products of their factor rows over strict chains.
The pass gives the sum of every prefix of the index at once, so
deformation_build returns the series of every prefix, which is what a
difference system's psi holds.  The specialization at t = pi^(-q^N) keeps
its own product route on purpose: MPL conditions (3) and (4) compare it
with the chain sum, so it must not rest on the same recursion.

A deformation row is a twist orbit: the twist of the coefficients is a ring
map sending prod_(j>i) (1 - pi^(q^j) t) to the product over j > i + 1, so
row l of the nested sum is t^(i s_l) times the i-th twist of the one series
Omega^(s_l) u_l, and each row costs one product and its twists.

Omega^k, pi_tilde and F_i at t = pi^(-q^N) are products
prod_(j>i) (1 - x^(q^j - c) t^d)^k, and their digits are read off in
closed form from the exponent tuples (_product_digits), placed as pi-digits
at alpha = pi and evaluated at the powers of the embedded alpha otherwise;
no factor is multiplied as a series or a LocalNum.
"""

from __future__ import annotations

import functools
import itertools
import math

from .algebra import RatK
from .errors import DomainError, ParseError, PrecisionLoss, TooLarge
from .local import (LocalNum, PlaceInf, PlaceV, embed_local, geometric_divide,
                    geometric_prefixes)


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
        if place not in self._ords:
            self._ords[place] = tuple(place.ord_ratk(x) for x in self.u)
        return self._ords[place]

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
        # |u|_inf < q^(s*q/(q-1))  <=>  -ord_inf(u) * (q-1) < s*q, as q > 1
        return all(-inf.ord_ratk(x) * (q - 1) < si * q for si, x in zip(s, u))
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


def inv_ells(place, count, window):
    """1/ell_i for i < count, ell_i = (theta - theta^q) ... (theta -
    theta^(q^i)), to `window` digits.

    A factor is pi (1 - pi^(q^j - 1)) at v, as lambda^(q^j) = lambda, and
    -w^(-q^j) (1 - w^(q^j - 1)) at infinity, so 1/ell_i is pi^(-i) G_i at v
    and (-1)^i w^(q + ... + q^i) G_i at infinity, G_i = prod_(j <= i)
    1/(1 - pi^(q^j - 1)); a factor with q^j - 1 >= W is 1 mod pi^W, and
    geometric_divide returns its dividend as it is.  One prefix pass of
    geometric_prefixes gives every G_i.
    """
    q = place.q
    G = geometric_prefixes(place, [q ** j - 1 for j in range(1, count)],
                           window)[:count]
    if isinstance(place, PlaceV):
        return [g.shift(-i) for i, g in enumerate(G)]
    out = [g.shift((q ** (i + 1) - q) // (q - 1)) for i, g in enumerate(G)]
    out[1::2] = [g.scale_fq(place.ctx.neg(1)) for g in out[1::2]]
    return out


def _plan(bound, prec):
    """(I, floor) for a sum whose term i has ord >= bound(i), bound convex.

    I is the least index with bound(j) >= prec for every j >= I, so the
    terms from I on vanish mod pi^prec, and floor is min(prec, bound(i) for
    i < I), the least ord a summed term can have.  A convex bound that has
    stopped falling at i (bound(i + 1) >= bound(i)) never falls again, so
    the scan ends at the first such i with bound(i) >= prec.  A bound still
    falling or below prec at the cap raises PrecisionLoss.

    The window.  Take each factor of a term with W digits.  A product x y
    is known to min(nu_x + cutoff_y, nu_y + cutoff_x) and a sum to its
    operands' least cutoff, so by induction along a prefix pass every
    partial sum, and so the total, is known to (least ord of a summed term)
    + W >= floor + W; cancellation can only raise a nu, never lower a
    cutoff.  W = prec + max(0, -floor) thus brings the sum to prec, with no
    guard digits.
    """
    floor, I = prec, 0
    for i in range(10000):
        b = bound(i)
        if b < prec:
            floor, I = min(floor, b), i + 1
        elif bound(i + 1) >= b:
            return I, floor
    raise PrecisionLoss("truncation index beyond cap; series may diverge")


def _chain_plan(s, u, place, prec):
    """Truncation index and working window for a CMPL/CMSPL evaluation.

    The term of a chain i_1 > ... > i_r (or >=) is prod_l u_l^(q^(i_l))
    ell_(i_l)^(-s_l).  At v, ord 1/ell_i = -i and ord u_l >= 0, so it has
    ord >= q^(i_1) ord(u_1) - wt i_1.  At infinity slot l has ord
    g_l(i) = q^i o_l + s_l (q^(i+1) - q)/(q - 1), and
    g_l(i+1) - g_l(i) = q^i ((q - 1) o_l + s_l q) > 0 in the domain, so the
    term has ord >= g_1(i_1) + o_2 + ... + o_r.
    """
    ords = u.ords(place)
    q = place.q
    if isinstance(place, PlaceV):
        bound = lambda i: q ** i * ords[0] - s.weight * i  # noqa: E731
    else:
        bound = lambda i: (q ** i * ords[0] + sum(ords[1:])  # noqa: E731
                           + s[0] * (q ** (i + 1) - q) // (q - 1))
    I, floor = _plan(bound, prec)
    return I, prec + max(0, -floor)


def _nested_sum(rows):
    """Sums of f_1(i_1) ... f_l(i_l) over strict chains i_1 > ... > i_l, one
    for each prefix length l = 1, ..., r.

    rows[l - 1][i] is f_l(i); entries past the end of a row count as zero.
    One pass from the outer slot inwards takes O(r * I) products:
    P_1(i) = f_1(i) and P_l(i) = f_l(i) * sum_(j > i) P_(l-1)(j), and the
    prefix-l sum is sum_i P_l(i).  The running sum over P_(l-1) that slot l
    reads ends on the prefix-(l-1) sum.  Partial sums start from the empty
    sum (None, also the sum of a prefix with no chain), so each product
    keeps the window its chains give it and one code serves LocalNum and
    TSeries rows.
    """
    totals, above = [], None
    for row in rows:
        if above is None:
            above = list(row)
            continue
        acc = functools.reduce(_add, reversed(above[len(row):]), None)
        cur = [None] * len(row)
        for i in reversed(range(len(row))):
            cur[i] = None if acc is None else row[i] * acc
            if i < len(above):
                acc = _add(acc, above[i])
        totals.append(acc)
        above = cur
    return totals + [functools.reduce(_add, above, None)]


def _add(acc, x):
    if x is None:
        return acc
    return x if acc is None else acc + x


def _tower(x, place, window, I):
    """x, x^q, ..., x^(q^(I-1)) embedded with the window."""
    x = embed_local(x, place, window)
    return [x.qpow(i) if i else x for i in range(I)]


def _clip(total, place, prec):
    """Close a LocalNum chain sum at prec; PrecisionLoss if the window is short."""
    out = _add(LocalNum.zero_to_precision(place, prec), total).truncate(prec)
    if out.cutoff < prec:
        raise PrecisionLoss("window collapsed below the requested precision")
    return out


def _chain_rows(s, u, place, window, factors, start=0):
    """Row l of a chain sum: u_l^(q^i) f_i^(s_l) for i = start, start + 1,
    ..., factors[i - start] = f_i, with the window; each power of the
    factors is built once per distinct s_l."""
    I = start + len(factors)
    pows = {si: [f.pow(si) for f in factors] for si in set(s)}
    return [[a * f for a, f in zip(_tower(x, place, window, I)[start:],
                                   pows[si])]
            for si, x in zip(s, u)]


def _chain_sum(s, u, place, prec, strict):
    """The CMPL (strict) or CMSPL value, after the domain checks: a star
    value in the extended domain but not the convergence domain at v is
    refused as such.

    The sum runs down the chain entries by Horner's rule over the ratios
    ell_i / ell_(i-1).  Write 1/ell_i = c_i G_i as in inv_ells, c_i =
    pi^(-i) at v and (-1)^i w^(q + ... + q^i) at infinity, G_i = G_(i-1) /
    (1 - pi^(q^i - 1)), and S_l = s_1 + ... + s_l.  Let A_l(i) be the sum
    over the chains i_1 > ... > i_l > i (i_1 >= ... >= i_l > i for star
    values) of prod_m u_m^(q^(i_m)) c_(i_m)^(s_m), each times the factors
    1/(1 - pi^(q^j - 1)), j > i, of prod_m G_(i_m)^(s_m).  All l entries
    are >= i, so the factor j = i comes with the power S_l whether i_l = i
    or i_l > i, and

        A_l(i - 1) = (Q_l(i) + A_l(i)) / (1 - pi^(q^i - 1))^(S_l),

    where Q_l(i) = u_l^(q^i) c_i^(s_l) A_(l-1)(i), A_0 = 1, sums the chains
    with i_l = i (for star values A_(l-1)(i) becomes the sum through i,
    Q_(l-1)(i) + A_(l-1)(i)).  The chains with i_1 >= I are dropped, so
    A_l(I - 1) = 0, and G_0 = 1, so the value is Q_r(0) + A_r(0).  Step
    i (from I - 1 down to 0) divides B[l] = Q_l(i + 1) + A_l(i + 1) by
    (1 - pi^(q^(i+1) - 1))^(S_l), which gives A_l(i), and adds Q_l(i).  It
    updates the slots from r down for strict chains, so that slot l reads
    A_(l-1)(i), and from 1 up for star values, so that it reads the sum
    through i.  There is no power of a window and no product of two dense
    windows, only geometric_divide and products by the tower entries
    u_l^(q^i), whose digits are q^i apart.

    The window.  _chain_plan's W is kept: every partial sum is known to
    (least ord of its chains) + W, as in _plan's induction.  A tower entry
    has W digits and c_i is exact, so Q_l(i) is known to
    min(nu_t + cutoff_A, nu_A + nu_t + W), at least its least chain ord
    plus W, and a sum keeps the least cutoff.  Dividing by a unit known
    exactly keeps the valuation and the cutoff (geometric_divide).  So the
    value is known to floor + W >= prec, and _clip prints the digits that
    the product route printed.
    """
    if not isinstance(place, PlaceV):
        if not domain_check(s, u, CONV_INF):
            raise DomainError("arguments outside the infinite-place domain")
    elif not domain_check(s, u, CONV_V, place):
        if not strict and domain_check(s, u, DEF_V, place):
            raise DomainError("requires extended domain")
        raise DomainError("arguments outside the v-adic convergence domain")
    I, W = _chain_plan(s, u, place, prec)
    q, neg, at_v = place.q, place.ctx.neg(1), isinstance(place, PlaceV)
    towers = [_tower(x, place, W, I) for x in u]
    B = [LocalNum.exact_zero(place)] * s.depth
    for i in reversed(range(I)):
        B = [geometric_divide(b, q ** (i + 1) - 1, S)
             for b, S in zip(B, itertools.accumulate(s))]
        k = -i if at_v else (q ** (i + 1) - q) // (q - 1)
        for l in reversed(range(s.depth)) if strict else range(s.depth):
            if l and B[l - 1].is_exact_zero():      # no chain through i yet
                continue
            x = towers[l][i].shift(k * s[l])
            if not at_v and i * s[l] % 2 and neg != 1:
                x = x.scale_fq(neg)
            B[l] = B[l] + (x * B[l - 1] if l else x)
    return _clip(B[-1], place, prec)


def cmpl_eval(s, u, place, prec):
    """Carlitz multiple polylogarithm: sum over strict chains i_1 > ... > i_r."""
    return _chain_sum(s, u, place, prec, strict=True)


def cmspl_eval(s, u, place, prec):
    """Star variant: sum over weak chains i_1 >= ... >= i_r."""
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

def power_sum_inf(ctx, d, s, prec):
    """S_d(s), the sum of a^(-s) over monic a of degree d, at the infinite place.

    Carlitz's e_d(x) = prod_(deg b < d) (x - b) is F_q-linear,
    e_d(x) = sum_(i <= d) alpha_i x^(q^i), with e_d(theta^d) = D_d (the
    product of the monic a of degree d) and alpha_i = D_d/(D_i ell_(d-i)^(q^i))
    (Goss, Basic Structures, 3.1).  Here D_i = prod_(j < i) (theta^(q^i) -
    theta^(q^j)), and the factorial is ell_i = (-1)^i L_i = prod_(j <= i)
    (theta - theta^(q^j)): the sign of ell_(d-i)^(q^i) against L_(d-i)^(q^i)
    is (-1)^(d-i) for odd q, and there are no signs for even q.  As
    e_d' = alpha_0, linearity gives

        sum_(deg b < d) 1/(theta^d + eps - b) = alpha_0 / (D_d + e_d(eps)),

    whose eps^(s-1) coefficient is (-1)^(s-1) S_d(s).  With alpha_0/D_d =
    1/ell_d and beta_i = alpha_i/D_d = 1/(D_i ell_(d-i)^(q^i)),

        S_d(s) = (-1)^(s-1) ell_d^(-1)
                 sum_m (-1)^|m| binom(|m|; m) prod_i beta_i^(m_i)

    over the m with sum_i m_i q^i = s - 1, the multinomial taken mod p; for
    s <= q this is Carlitz's ell_d^(-s).  The sum over m is the eps^(s-1)
    coefficient c_(s-1) of that expansion, and c_0 = 1,
    c_n = -sum_(q^i <= n) beta_i c_(n - q^i) computes it in characteristic
    p without the multinomials.  At infinity ord 1/ell_d = q + ... + q^d =
    sigma_d and ord beta_i = i q^i + sigma_d - sigma_i >= 0, so S_d(s)
    vanishes mod w^sigma_d and the c_n are needed mod w^(prec - sigma_d).
    Returns the value mod w^prec with cutoff prec.
    """
    place = PlaceInf(ctx)
    q = ctx.q
    sigma = lambda i: (q ** (i + 1) - q) // (q - 1)  # noqa: E731
    R = prec - sigma(d)
    if R <= 0:
        return LocalNum.zero_to_precision(place, prec)
    # beta_i to cutoff R, or None if it is zero there, for the i with
    # q^i < s; 1/D_i = w^(i q^i) prod_(j < i) 1/(1 - w^(q^i - q^j))
    betas = []
    for i in itertools.takewhile(lambda i: q ** i < s, range(d + 1)):
        o = i * q ** i + sigma(d) - sigma(i)
        betas.append(None if o >= R else geometric_prefixes(
            place, [q ** i - q ** j for j in range(i)], R - o)[-1].shift(
                i * q ** i) * inv_ells(place, d - i + 1, R - o)[-1].qpow(i))
    c = [LocalNum.unit_one(place, R)]
    for n in range(1, s):
        acc = LocalNum.zero_to_precision(place, R)
        for i, beta in enumerate(betas):
            if beta is not None and q ** i <= n:
                acc = acc + beta * c[n - q ** i]
        c.append(-acc)
    out = inv_ells(place, d + 1, R)[-1] * c[-1]
    return _clip(out if s % 2 else -out, place, prec)


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
    sums = {si: [power_sum_inf(ctx, d, si, prec) for d in range(D_max + 1)]
            for si in set(s.s)}
    # every power sum has valuation >= 0, so chains whose top degree has a
    # power sum that is zero to prec add nothing
    n = D_max + 1
    while n and sums[s[0]][n - 1].zero_to(prec):
        n -= 1
    rows = [sums[si][:n - ell] for ell, si in enumerate(s.s)]
    return _clip(_nested_sum(rows)[-1], PlaceInf(ctx), prec)


# ---------------------------------------------------------------------------
# deformation series at the finite place
# ---------------------------------------------------------------------------

_OMEGA_TAIL_CACHE = {}


def _omega_power(place, k, D, N):
    """Omega^k mod (t^D, pi^N), k >= 1, Omega = prod_(j>=1) (1 - pi^(q^j) t).

    Each (place, k, D, N) is built once, by omega_product, and every psi
    builder and every deformation row reads it from here.
    """
    key = (place, k, D, N)
    if key not in _OMEGA_TAIL_CACHE:
        _OMEGA_TAIL_CACHE[key] = omega_product(RatK(place.uniformizer()),
                                               place, D, N, k)
    return _OMEGA_TAIL_CACHE[key]


def _product_digits(place, k, i0, shift, d, X, D=1):
    """{n: [(m, c), ...]}, the nonzero F_p digits c of t^n x^m, n < D and
    m < X, of prod_(j>i0) (1 - x^(e_j) t^d)^k, e_j = q^j - shift >= 1; d
    is 1, or 0 for the product with t collapsed to 1 (then D = 1).
    Omega^k is (i0, shift, d) = (0, 0, 1), pi_tilde (0, 1, 0), and F_i at
    t = pi^(-q^N) (i, q^N, 0).

    The closed form.  Factor j is sum_(i <= k) (-1)^i binom(k, i)
    x^(i e_j) t^(i d), so each tuple (i_j) gives the monomial
    t^(d sum i_j) x^(sum i_j e_j) times prod_j (-1)^(i_j) binom(k, i_j),
    and the digit of t^n x^m is the sum of these over the tuples that reach
    (n, m), read mod p, the characteristic.  For Omega^k (e_j = q^j, d = 1)
    and k < q, i_j < q makes m = sum i_j q^j a base-q expansion, so each m
    has one tuple, its base-q digits, at n = their sum.  Once an i_j can
    reach q, tuples collide, as (q, 0, 1) and (0, q + 1, 0) at n = q + 1,
    m = q^2 + q^3 (k > q), and their products add mod p; with t collapsed
    n no longer tells them apart.
    A tuple with an i where binom(k, i) = 0 mod p adds nothing: by Lucas,
    binom(k, i) is nonzero mod p exactly when each base-p digit of i is at
    most k's, and only those i are tried ((1 - y)^p = 1 - y^p has two
    terms).  Every exponent is >= 0, so a partial tuple at m >= X or
    n >= D stays there and is dropped.  The sum runs factor by factor:
    after factor j the table holds, per (n, m), the sum over the tuples of
    the first j factors, so tuples that meet are added before the next
    factor extends them.
    """
    p = place.ctx.p
    steps = [(i, (-1) ** i * math.comb(k, i) % p) for i in range(1, k + 1)
             if math.comb(k, i) % p]
    acc = {(0, 0): 1} if X > 0 and D > 0 else {}
    for j in itertools.count(i0 + 1):
        e = place.q ** j - shift
        if e >= X:
            break
        for (n, m), c in list(acc.items()):
            for i, b in steps:
                if m + i * e >= X or n + i * d >= D:
                    break
                key = n + i * d, m + i * e
                acc[key] = (acc.get(key, 0) + c * b) % p
    rows = {}
    for (n, m), c in acc.items():
        if c:
            rows.setdefault(n, []).append((m, c))
    return rows


def _placed(place, nu, terms, W):
    """pi^nu sum_m c pi^m over the (m, c) with m < W, to W digits."""
    lo = min((m for m, _ in terms), default=W)
    row = [0] * (W - lo)
    for m, c in terms:
        row[m - lo] = c
    return LocalNum(place, nu + lo, row)


def _at_alpha(place, a, terms, N):
    """sum_m c alpha^m mod pi^N over the (m, c) with m ord(alpha) < N, a
    the embedded alpha with N digits.

    At alpha = pi (1 + O(pi^N)), alpha^m = pi^m mod pi^(m + N), so the
    digits are placed.  Otherwise each alpha^m is a power of a: its window
    stays N, so it is known to pi^(m ord(alpha) + N), and the sum, started
    from a zero known to pi^N, is known to exactly pi^N.
    """
    if a.nu == 1 and a.coeffs[0] == 1 and not any(a.coeffs[1:]):
        return _placed(place, 0, terms, N)
    return sum((a.pow(m).scale_fq(c) for m, c in terms),
               LocalNum.zero_to_precision(place, N)).truncate(N)


def _embedded(alpha, place, N):
    """alpha embedded with N digits, and X, the least m with
    m ord(alpha) >= N; DomainError off the open unit disk."""
    # an embedding keeps the exact valuation, ord_v(alpha)
    a = embed_local(alpha, place, N)
    if a.nu < 1:
        raise DomainError("alpha must lie in the open unit disk at v")
    return a, -(-N // a.nu)


def omega_product(alpha, place, D, N, k=1):
    """(prod_(i>=1) (1 - alpha^(q^i) t))^k, truncated at (t^D, pi^N).

    Coefficient n is sum_m c_(n,m) alpha^m over the digits c_(n,m) of
    t^n x^m in prod_j (1 - x^(q^j) t)^k (_product_digits), for the m with
    m ord(alpha) < N, each read mod pi^N.

    It is the series that the factor-by-factor route gave (which
    tests/oracles.py keeps).  That route started from 1 known to pi^N and
    took each factor 1 - alpha^(q^i) t as a t-shift, a scaling by
    alpha^(q^i) (valuation >= 1, window N) and a difference, so every
    coefficient kept valuation >= 0 and a cutoff >= N, and its last
    clip(N) left each known to exactly pi^N.  Its Omega^k was the series
    product Omega^(k-1) * Omega, whose coefficient n is known modulo pi^c,
    c = min over i + j = n of min(nu(a_i), nu(b_j)) + N = N, since
    a_0 = 1.  A coefficient known to exactly pi^N is its digits below pi^N,
    normalized (a leading nonzero digit, or a zero known to pi^N), and
    those digits are the true ones, which are these.  So .runs are equal.
    """
    from .tseries import TSeries
    a, X = _embedded(alpha, place, N)
    rows = _product_digits(place, k, 0, 0, 1, X, D)
    top = max(rows, default=-1) + 1
    return TSeries.from_runs(place, [
        (1, _at_alpha(place, a, rows.get(n, ()), N)) for n in range(top)]
        + [(D - top, LocalNum.zero_to_precision(place, N))])


def pi_tilde(alpha, place, N):
    """Value of the omega product at t = 1/alpha: prod (1 - alpha^(q^i - 1)).

    The digits of prod_i (1 - x^(q^i - 1)) (_product_digits with t
    collapsed) at x = alpha, mod pi^N.  The product route (kept in
    tests/oracles.py) multiplied units with N digits, each factor
    1 - alpha^(q^i) alpha^(-1) truncated at pi^N, so it knew the value to
    exactly pi^N, as here.
    """
    a, X = _embedded(alpha, place, N)
    return _at_alpha(place, a,
                     _product_digits(place, 1, 0, 1, 0, X).get(0, ()), N)


def deformation_build(s, u, place, D, N):
    """The deformation series of every prefix (s_1, ..., s_l; u_1, ..., u_l),
    l = 1, ..., r, assembled from the rearranged product form; the last is
    the series of (s; u).

    Each summand of the defining sum over strict chains is
    prod_l u_l^(q^(i_l)) * F_(i_l)^(s_l), F_i = t^i prod_(j>i) (1 - pi^(q^j) t);
    chains with q^(i_1)*ord(u_1) >= N contribute 0 mod pi^N and are dropped.
    That cut reads only u_1, so slot l has the same row in every prefix,
    and one prefix pass over one set of rows gives all r series.

    The twist x -> x^q of the coefficients is a ring map, and it sends
    pi^(q^j) to pi^(q^(j+1)), so prod_(j>i) (1 - pi^(q^j) t) is
    twist^i(Omega), and entry i of row l is t^(i s_l) twist^i(Omega^(s_l)
    u_l): one product E_0 = Omega^(s_l) u_l per row, then E_i =
    twist(E_(i-1)) clipped at pi^N, shifted by t^(i s_l).

    Every window before the final clip is at least N, so the clipped
    series is the same series whichever route made it: Omega's
    coefficients and the embedded u_l have valuation >= 0 and cutoff >= N,
    and a product keeps both, its cutoff being min(nu_a + c_b, nu_b + c_a).
    A twist sends a coefficient pi^nu (W digits) to pi^(Q nu) with the same
    W digits, and a zero known to pi^c to one known to pi^(Q c), so no
    cutoff falls; clip(N) and t_shift(., N) leave cutoffs >= N, and the
    nested sum's products and sums keep valuation >= 0 and cutoff >= N.
    Then zero + total, clipped, holds exactly the proved digits below pi^N.
    """
    if not domain_check(s, u, CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    from .tseries import TSeries, frobenius_twist
    d1 = u.ords(place)[0]
    I = min(_plan(lambda i: place.q ** i * d1, N)[0], D)
    rows = []
    for si, x in zip(s, u):
        # slot l at index i carries t^(i*s_l): its row stops where that is >= D
        E = _omega_power(place, si, D, N).scale(embed_local(x, place, N))
        row = [E]
        for i in range(1, min(I, -(-D // si))):
            E = frobenius_twist(E).clip(N)
            row.append(E.t_shift(i * si, N))
        rows.append(row[:I])
    zero = TSeries.zero(place, D, N)
    return [_add(zero, total).clip(N)
            for total in _nested_sum(rows)]


def _F_at_inverse_power(place, i, N_twist, prec):
    """F_i evaluated at t = pi^(-q^N), i >= N (below N it is an exact zero):
    pi^(-i q^N) prod_(j>i) (1 - pi^(q^j - q^N)), the product to prec digits.

    The product's digits are those of prod_(j>i) (1 - x^(q^j - q^N))
    below x^prec (_product_digits with t collapsed).  The product route
    (kept in tests/oracles.py) multiplied units with prec digits, so it
    knew the product to exactly pi^prec before the shift, as here.
    """
    qN = place.q ** N_twist
    return _placed(place, -i * qN, _product_digits(
        place, 1, i, qN, 0, prec).get(0, ()), prec)


# the most digits deformation_specialize takes in a window
WINDOW_BUDGET = 1 << 20


def deformation_specialize(s, u, place, N_twist, prec):
    """The literal value at t = pi^(-q^N) of the deformation series of
    (s; u), known to prec, by per-summand exact evaluation.

    The value is pi^(-N wt q^N) (pi_tilde^wt Li)^(q^N), Li the v-adic CMPL
    value: twisting a chain's coefficients q^N times does not move the
    power of t attached to it.  At N = 0 it is pi_tilde^wt Li.

    Summands with any chain entry below N_twist vanish exactly (F_i has the
    factor 1 - pi^(q^N) t for i < N), so the sum runs over chains
    i_1 > ... > i_r >= N_twist.  F_i(pi^(-q^N)) has ord -i q^N, so the
    chain with top entry N_twist + i has ord >= its bound
    q^(N+i) ord(u_1) - q^N wt (N + i), and the plan's floor covers the
    summed tops N_twist <= i < I only.

    The window is prec minus that floor, about prec + N wt q^N digits (40 +
    40 * 3^40 at q = 3, N = 40, wt = 1).  A window of more than
    WINDOW_BUDGET digits is refused with TooLarge before any is allocated.
    """
    if N_twist < 0:
        raise ValueError("power index must be >= 0")
    if not domain_check(s, u, CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    q = place.q
    d1 = u.ords(place)[0]
    qN = q ** N_twist
    I, floor = _plan(lambda i: q ** (N_twist + i) * d1
                     - qN * s.weight * (N_twist + i), prec)
    I = N_twist + max(I, s.depth)
    W = prec + max(0, -floor)
    if W > WINDOW_BUDGET:
        raise TooLarge(f"a window of {W} digits, past {WINDOW_BUDGET}")
    rows = _chain_rows(s, u, place, W, [
        _F_at_inverse_power(place, i, N_twist, W) for i in range(N_twist, I)],
        N_twist)
    return _clip(_nested_sum(rows)[-1], place, prec)
