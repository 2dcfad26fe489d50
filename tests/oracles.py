"""Slow reference implementations that the fast code in the package replaced.

Each one is the former implementation, kept only to check its successor:
the exact Carlitz factorial, the multiplicity enumeration of the power sums
at infinity, the dense delta_i whose inverse the logarithm divides by, the
convergence test at infinity in fractions, the TSeries operations on one
LocalNum per coefficient (with the packed digit sum they used and the
packed window rule, next to its plain pairwise definition), the per-digit
LocalNum sums, scaling and q-power spread, the exact t-module exponential and logarithm
coefficients over k, the fixed-point iterations for those coefficients, the
suffix nested sum that gave only the whole index's sum, the omega product
and its tails with one series product per factor and their powers by
repeated squaring, the omega product as t-shifts and differences and its
powers by repeated products, pi_tilde and F_i(pi^(-q^N)) one LocalNum
product per factor, the deformation series built one prefix at a time,
its values at t = pi^(-q^N) for every prefix from one pass, the CMPL and
CMSPL values as products of rows of powers of 1/ell_i (with the prefix pass
that also summed weak chains) and the division by (1 - pi^m)^S one digit at
a time, the
two-path specialization check that set the zero entries of
psi(alpha^(-q^N)) at N >= 1 and read Omega(alpha^(-q^N)) as one,
ord_v by repeated division by the uniformizer, the powers of (1 - alpha^q
t) by repeated t-polynomial products, the determinant test on the whole
twisted matrix, the vABP check on the whole psi vector, a t-polynomial
acting on a series as one product series and the residuals read from the
built differences, the telescoping Horner solve of the twisted Sylvester
equation, the log coefficients with each right-hand side a dense matrix
product, the t-module log stopped by observed term bounds with each term
the full product, d[a] = a(B0) by Horner over k and its Gauss-Jordan
inverse (with B0 = theta Id + N0 and the matrix sums, scalings, products
and identity over k they use), the F_q
products (one schoolbook for F_q codes and LocalNum
coefficients alike, and the F_q product kernel routed by counts of
pairs and positions with one-byte slots only), polynomial division and series inversion one field
operation at a time, and F_q row reduction one element at a time.

The Carlitz action over k (the one-dimensional oracle of the t-module
action), the zeta(s)_v pipeline, the series 1 (once TSeries.one), the
padding of a coefficient list to a series, the reader of the printed
LocalNum form, the matrix negation, difference and Frobenius twist over k,
and the writers of the decomposition and t-module spec files (whose readers
are in the package) are here because only tests call them.
"""

import math
import sys
from array import array
from fractions import Fraction

from vcarlitz import diffsys, polylog, relations, tmodule
from vcarlitz.algebra import (
    _WIDTHS, PolyA, RatK, _digits, _pack, _packed_product, _pair_sums,
    _parse_fq_coeff, _parse_int, _rows, _slot_size, _split_terms, _unpack,
)
from vcarlitz.errors import (
    AssertionFailure, CertificationFailed, ConvergenceNotCertified,
    DomainError, ParseError, PrecisionLoss, SingularStep,
)
from vcarlitz.linalg import fqmat_identity, fqmat_mul, kmat
from vcarlitz.local import INF, LocalNum, PlaceInf, embed_local
from vcarlitz.polylog import ArgTuple, Index
from vcarlitz.tmodule import _delta_inv
from vcarlitz.tseries import TSeries, _aligned


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
    if pad > 0 and out.coeffs:
        out = LocalNum(place, out.nu, [*out.coeffs, *[0] * int(pad)])
    return out


def domain_check_inf(s, u):
    """-ord_inf(u_l) < s_l q/(q - 1) for every slot l, in fractions."""
    ctx = u[0].ctx
    inf = PlaceInf(ctx)
    return all(-Fraction(inf.ord_ratk(x)) < Fraction(si * ctx.q, ctx.q - 1)
               for si, x in zip(s, u))


def delta_local(place, i, W):
    """theta^{q^i} - theta at a deg-1 place: equals pi^{q^i} - pi exactly."""
    qi = place.q ** i
    coeffs = [0] * W
    coeffs[0] = place.ctx.neg(1)
    if qi - 1 < W:
        coeffs[qi - 1] = 1
    return LocalNum(place, 1, coeffs)


# -- the coefficient-tuple TSeries operations ----------------------------
#
# A series here is a sequence of LocalNum, one per power of t.  These are the
# operations as they ran before the run-length layout: each walks every
# coefficient, with the packed digit arithmetic (``algebra._packed_product``,
# never the sparse route).

_FIELD_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _grid_sum(ctx, a, b, stride, widths, negate=False):
    """The sum a + b, or a - b when `negate`, of two digit grids.

    Grids and the rows returned are as for ``algebra._grid_product``.  A
    difference adds (p - 1) * b, so a coordinate slot holds at most
    (p - 1) + (p - 1)^2 = p (p - 1) before it is read modulo p; the fold
    of ``algebra._unpack`` finds nothing above degree e - 1.
    """
    p = ctx.p
    size = _WIDTHS[-(-(p * (p - 1)).bit_length() // 8)]
    total = _pack(ctx, a, size) + (p - 1 if negate else 1) * _pack(
        ctx, b, size)
    return _rows(ctx, total, stride, widths, size)


def series_sum(place, a, b, negate=False):
    """a + b, or a - b, with LocalNum's sum window per coefficient."""
    D = min(len(a), len(b))
    a, b = tuple(a[:D]), tuple(b[:D])
    out = list(a)
    spans = []                  # (n, base, cutoff) of the packed rows
    for n, (x, y) in enumerate(zip(a, b)):
        if y.nu == INF:
            continue
        if x.nu == INF and not negate:
            out[n] = y
            continue
        cut = min(x.nu + len(x.coeffs), y.nu + len(y.coeffs))
        base = min(x.nu, y.nu)
        if cut <= base:
            out[n] = LocalNum.zero_to_precision(place, cut)
        else:
            spans.append((n, base, cut))
    if spans:
        S = max(cut - base for _, base, cut in spans)
        pa, pb = [], []
        for r, (n, base, cut) in enumerate(spans):
            for c, pieces in ((a[n], pa), (b[n], pb)):
                if c.coeffs and c.nu < cut:
                    pieces.append((r * S + c.nu - base,
                                   c.coeffs[:cut - c.nu]))
        rows = _grid_sum(place.ctx, pa, pb, S,
                         [cut - base for _, base, cut in spans], negate)
        for (n, base, _), (lo, digits) in zip(spans, rows):
            out[n] = LocalNum(place, base + lo, digits)
    return out


def series_mul(place, a, b):
    """The product mod t^D, one packed Kronecker product."""
    D = min(len(a), len(b))
    a, b = tuple(a[:D]), tuple(b[:D])
    ctx = place.ctx
    ra = [(i, c) for i, c in enumerate(a) if c.coeffs]
    rb = [(j, c) for j, c in enumerate(b) if c.coeffs]
    cuts = window_rule(a, b)
    first, rows = D, []
    if ra and rb:
        ta, tb = ra[0][0], rb[0][0]
        first = ta + tb
        oa = min(c.nu for _, c in ra)
        ob = min(c.nu for _, c in rb)
        wa = max(c.cutoff for _, c in ra) - oa
        wb = max(c.cutoff for _, c in rb) - ob
        C = wa + wb - 1
        widths = [0 if cut is None else max(0, min(cut - oa - ob, C))
                  for cut in cuts[first:ra[-1][0] + rb[-1][0] + 1]]
        if any(widths):
            rows = _packed_product(
                ctx, [((i - ta) * C + c.nu - oa, c.coeffs) for i, c in ra],
                [((j - tb) * C + c.nu - ob, c.coeffs) for j, c in rb],
                C, widths, min(len(ra), len(rb)) * min(wa, wb))
    out = []
    for n, cut in enumerate(cuts):
        r = n - first
        if cut is None:
            out.append(LocalNum.exact_zero(place))
        elif 0 <= r < len(rows) and rows[r][1]:
            out.append(LocalNum(place, oa + ob + rows[r][0], rows[r][1]))
        else:
            out.append(LocalNum.zero_to_precision(place, cut))
    return out


def series_scale(place, a, x):
    """Every coefficient times the LocalNum x, one packed product."""
    live = [n for n, c in enumerate(a) if c.coeffs] if x.coeffs else []
    rows = []
    if live:
        wa = max(len(a[n].coeffs) for n in live)
        xd = x.coeffs[:wa]
        S = wa + len(xd) - 1
        widths = [0] * (live[-1] + 1)
        for n in live:
            widths[n] = min(len(a[n].coeffs), len(xd))
        rows = _packed_product(
            place.ctx, [(n * S, a[n].coeffs) for n in live], [(0, xd)],
            S, widths, min(wa, len(xd)))
    out = []
    for n, c in enumerate(a):
        if c.nu == INF or x.nu == INF:
            out.append(LocalNum.exact_zero(place))
        elif c.coeffs and x.coeffs:
            lo, digits = rows[n]
            out.append(LocalNum(place, c.nu + x.nu + lo, digits))
        else:
            out.append(LocalNum.zero_to_precision(
                place, min(c.nu + x.cutoff, x.nu + c.cutoff)))
    return out


def series_t_shift(place, a, n, window):
    """Multiply by t^n, n >= 0: zeros known to pi^window come in at the bottom."""
    zero = LocalNum.zero_to_precision(place, window)
    n = min(n, len(a))
    return (zero,) * n + tuple(a[:len(a) - n])


def series_twist(a, n=1):
    """Each coefficient raised to the q^n-th power."""
    return [c.qpow(n) for c in a]


def window_rule(a, b):
    """Cutoff of each coefficient of a*b, or None where it is an exact zero.

    The minimum, over the pairs i + j = n with no exact-zero factor, of
    min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)); fields packed in one
    integer, one pass per run of equal (nu, cutoff) in a.
    """
    D = len(a)
    na, nb = [c.nu for c in a], [c.nu for c in b]
    ca = [c.nu + len(c.coeffs) for c in a]
    cb = [c.nu + len(c.coeffs) for c in b]
    base = min(na + nb, default=INF)
    if base == INF:
        return [None] * D
    R = max(c for c in ca + cb if c != INF) - base
    none = 2 * R + 1
    size = next(w for w in (1, 2, 4, 8) if 8 * w > (3 * R + 1).bit_length())
    k = 8 * size
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * D, "little")
    guard = ones << (k - 1)
    full = (1 << D * k) - 1
    nones = none * ones

    def smin(x, y):
        g = ((x | guard) - y) & guard
        return x ^ ((x ^ y) & (g - (g >> (k - 1))))

    def shift(x, s):
        return ((x << s * k) & full) | (nones & ((1 << s * k) - 1))

    def fields(arr):
        if sys.byteorder == "big":
            arr.byteswap()
        return arr

    code = _FIELD_CODES[size]
    tables = [[int.from_bytes(fields(array(code, [
        none if x == INF else x - base for x in xs])), "little")]
        for xs in (cb, nb)]

    def window(t, L):
        levels = tables[t]
        h = L.bit_length() - 1
        while len(levels) <= h:
            x = levels[-1]
            levels.append(smin(x, shift(x, 1 << (len(levels) - 1))))
        x = levels[h]
        return x if L == 1 << h else smin(x, shift(x, L - (1 << h)))

    acc = nones
    i = 0
    while i < D:
        start, v, c = i, na[i], ca[i]
        i += 1
        while i < D and na[i] == v and ca[i] == c:
            i += 1
        if v == INF:
            continue
        L = i - start
        cand = smin(window(0, L) + (v - base) * ones,
                    window(1, L) + (c - base) * ones)
        acc = smin(acc, shift(cand, start))
    return [None if f > 2 * R else f + 2 * base
            for f in fields(array(code, acc.to_bytes(D * size, "little")))]


def window_rule_pairwise(a, b):
    """The window rule by its definition, with nothing packed: for each n,
    the minimum over the pairs i + j = n with no exact-zero factor of
    min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)), None without one."""
    D = min(len(a), len(b))
    return [min((min(x.nu + y.cutoff, y.nu + x.cutoff)
                 for x, y in zip(a[:n + 1], reversed(b[:n + 1]))
                 if x.nu != INF and y.nu != INF), default=None)
            for n in range(D)]


# -- the per-digit LocalNum sums, scaling and q-power spread --------------
#
# Each walks the digits with one FqContext call per digit, on lists, and
# moves leading zero digits into nu itself (_normalized), so that none
# relies on the byte runs or the strip of the LocalNum constructor.

def _normalized(place, nu, digits):
    digits = list(digits)
    while digits and digits[0] == 0:
        nu, digits = nu + 1, digits[1:]
    return LocalNum(place, nu, digits)


def localnum_add(x, y):
    if x.is_exact_zero():
        return y
    if y.is_exact_zero():
        return x
    cutoff = min(x.cutoff, y.cutoff)
    base = min(x.nu, y.nu)
    if cutoff <= base:
        return LocalNum.zero_to_precision(x.place, cutoff)
    n = int(cutoff - base)
    out = [0] * n
    for i, c in enumerate(x.coeffs):
        pos = int(x.nu - base) + i
        if pos < n:
            out[pos] = c
    add = x.place.ctx.add
    for i, c in enumerate(y.coeffs):
        pos = int(y.nu - base) + i
        if pos < n:
            out[pos] = add(out[pos], c)
    return _normalized(x.place, base, out)


def localnum_neg(x):
    if x.is_exact_zero() or not x.coeffs:
        return x
    neg = x.place.ctx.neg
    return _normalized(x.place, x.nu, [neg(c) for c in x.coeffs])


def localnum_sub(x, y):
    return localnum_add(x, localnum_neg(y))


def localnum_scale_fq(x, c):
    if x.is_exact_zero() or not x.coeffs:
        return x
    mul = x.place.ctx.mul
    return _normalized(x.place, x.nu, [mul(c, d) for d in x.coeffs])


def localnum_qpow(x, n=1):
    """x^Q, Q = q^n: digit i of x moves to position Q i of the W digits."""
    if x.is_exact_zero():
        return x
    Q, W = x.place.ctx.q ** n, len(x.coeffs)
    out = [0] * W
    for i, c in enumerate(x.coeffs):
        if Q * i < W:
            out[Q * i] = c
    return _normalized(x.place, Q * x.nu, out)


# -- the F_q products, division and inversion one element at a time -------

def fq_schoolbook(a, b, n, add, mul, zero=0):
    """The first n coefficients of the product of two sequences, one ring
    operation per pair: coefficient k is zero + a_0 b_k + a_1 b_(k-1) + ...

    Over F_q codes (add and mul the field's methods) it is the oracle of
    algebra.fq_convolve and of the loop PolyA's product was.  Over LocalNum
    coefficients, from an exact zero, it is the coefficient schoolbook of
    the series product, each sum keeping LocalNum's window.  Empty when a
    factor is.
    """
    out = []
    for k in range(min(n, len(a) + len(b) - 1) if a and b else 0):
        acc = zero
        for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
            acc = add(acc, mul(a[i], b[k - i]))
        out.append(acc)
    return out


def fq_convolve_by_count(ctx, a, b, n):
    """algebra.fq_convolve as it was before its routes were chosen by cost:
    the pair loop while the pairs of nonzero entries are at most the n
    positions, then one-byte slots for e = 1 while min(len a, len b)
    (p - 1)^2 < 256, then coordinate slots."""
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if la == 1 or lb == 1:
        row, rest = (ctx._mul[b[0]], a) if lb == 1 else (ctx._mul[a[0]], b)
        return [row[x] for x in rest[:n]]
    n = min(n, la + lb - 1)
    if (la - a.count(0)) * (lb - b.count(0)) <= n:
        return _pair_sums(ctx, [(i, x) for i, x in enumerate(a[:n]) if x],
                          [(j, y) for j, y in enumerate(b) if y], n)[0]
    if ctx.e == 1 and min(la, lb) * (ctx.p - 1) ** 2 < 256:
        prod = (int.from_bytes(bytes(a), "little")
                * int.from_bytes(bytes(b), "little"))
        return list(prod.to_bytes(la + lb - 1, "little")[:n]
                    .translate(ctx._residue))
    size = _slot_size(ctx, min(la, lb))
    prod = _pack(ctx, [(0, a)], size) * _pack(ctx, [(0, b)], size)
    return _digits(ctx, _unpack(ctx, prod, n, size)[1], 0, n)


def polya_divmod_loop(f, g):
    """(quotient, remainder) of f by g != 0, one field method call per
    coefficient step."""
    ctx = f.ctx
    rem = list(f.coeffs)
    db = g.degree
    inv_lead = ctx.inv(g.lead)
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        c = ctx.mul(rem[-1], inv_lead)
        shift = len(rem) - 1 - db
        quo[shift] = c
        for i, bc in enumerate(g.coeffs):
            rem[shift + i] = ctx.add(rem[shift + i], ctx.neg(ctx.mul(c, bc)))
        while rem and rem[-1] == 0:
            rem.pop()
    return PolyA(ctx, quo), PolyA(ctx, rem)


def localnum_inv_loop(x):
    """Schoolbook series inversion of a LocalNum with digits, one field
    method call per step."""
    ctx = x.place.ctx
    a = x.coeffs
    inv0 = ctx.inv(a[0])
    out = [0] * len(a)
    out[0] = inv0
    for n in range(1, len(a)):
        s = 0
        for i in range(1, n + 1):
            if a[i]:
                s = ctx.add(s, ctx.mul(a[i], out[n - i]))
        out[n] = ctx.neg(ctx.mul(inv0, s))
    return LocalNum(x.place, -x.nu, out)


# -- F_q row reduction one element at a time ------------------------------

def fq_rref_loop(ctx, rows):
    """Reduced row echelon form over F_q through the field's methods, one
    element at a time; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ctx.add(x, ctx.neg(ctx.mul(f, y)))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows], pivots


# -- exact t-module coefficients over k ----------------------------------

def solve_twisted_sylvester(spec, i, R):
    """Solve Q (theta^{q^i} Id + N0) - (theta Id + N0) Q = R over k.

    This is Q (delta + N0) - N0 Q = R with delta = theta^{q^i} - theta;
    _sylvester_solve gives Q by back-substitution, and Q is checked exactly.
    """
    ctx = spec.ctx
    delta = RatK(PolyA.T(ctx).frobenius(i) - PolyA.T(ctx))
    Q = tmodule._sylvester_solve(spec, R, delta.inv())
    comm = kmat_sub(_lmat_n0(spec, Q, "right"), _lmat_n0(spec, Q))
    if kmat_add(kmat_scale(Q, delta), comm) != R:
        raise SingularStep("twisted Sylvester solution failed its check")
    return Q


def sylvester_solve_horner(spec, R, dinv):
    """The P with P (delta + N0) - N0 P = R, given dinv = 1/delta, by the
    telescoping sum that _sylvester_solve's back-substitution replaced.

    With M = (delta + N0)^{-1} = sum_{b<dim} (-N0)^b dinv^{b+1}, the
    solution is P = sum_{a<dim} N0^a R M^{a+1}: P (delta + N0) =
    sum_{a<dim} N0^a R M^a, N0 P = sum_{1<=a<dim} N0^a R M^a (N0^dim = 0),
    and the difference is the a = 0 term R.  Horner's rule evaluates it:
    X <- R, then dim - 1 times X <- R + N0 X M, and P = X M.  Entries lie
    in k or in a completion.
    """
    ctx, dim = spec.ctx, spec.dim
    powers = [dinv]
    for _ in range(dim - 1):
        powers.append(powers[-1] * dinv)
    neg_n0 = tuple(tuple(ctx.neg(c) for c in r) for r in spec.N0)
    C = fqmat_identity(dim)                           # (-N0)^b over F_q
    M = [[None] * dim for _ in range(dim)]
    for b, d in enumerate(powers):
        if b:
            C = fqmat_mul(ctx, C, neg_n0)
        for j in range(dim):
            for k in range(dim):
                if C[j][k]:
                    t = tmodule._scale_coord(d, C[j][k])
                    M[j][k] = t if M[j][k] is None else M[j][k] + t
    zero = tmodule._zero_like(dinv)
    M = kmat([[zero if e is None else e for e in r] for r in M])
    X = R
    for _ in range(dim - 1):
        X = kmat_add(R, _lmat_n0(spec, kmat_mul(X, M)))
    return kmat_mul(X, M)


def explog_coeffs(spec, I_max):
    """The exact coefficient lists (Q_0..Q_I_max, P_0..P_I_max) over k of
    the exponential and the logarithm."""
    ident = kmat_identity(spec.ctx, spec.dim)
    Q, P = [ident], [ident]
    for m in range(1, I_max + 1):
        R = kmat_mul(spec.B1, kmat_frobenius(Q[m - 1]))
        Q.append(solve_twisted_sylvester(spec, m, R))
        # P_m = -sum_{j<m} P_j Q_{m-j}^(j)
        acc = kmat_zero(spec.ctx, spec.dim, spec.dim)
        for j in range(m):
            acc = kmat_add(acc, kmat_mul(P[j], kmat_frobenius(Q[m - j], j)))
        P.append(kmat_neg(acc))
    return Q, P


# -- fixed-point iterations for the t-module coefficients -----------------
#
# Both equations read P (delta + N0) - N0 P = R; dividing by delta makes P a
# fixed point of P -> (R + N0 P - P N0)/delta, and ad_N0 is nilpotent.

def solve_twisted_sylvester_fixed_point(spec, i, R):
    """Q with Q (theta^{q^i} Id + N0) - (theta Id + N0) Q = R over k."""
    ctx = spec.ctx
    delta = RatK(PolyA.T(ctx).frobenius(i) - PolyA.T(ctx))
    dinv = delta.inv()
    N0 = kmat([[RatK(PolyA.constant(ctx, c)) for c in r] for r in spec.N0])
    Q = kmat_zero(ctx, spec.dim, spec.dim)
    for _ in range(2 * spec.dim + 2):
        nxt = kmat_scale(
            kmat_add(R, kmat_sub(kmat_mul(N0, Q), kmat_mul(Q, N0))), dinv)
        if nxt == Q:
            return Q
        Q = nxt
    raise SingularStep("twisted Sylvester iteration did not stabilize")


def _lmat_n0(spec, A, side="left"):
    """N0 @ A (side='left') or A @ N0 (side='right') for N0 over F_q,
    entries of A in k or in a completion."""
    dim = spec.dim
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = None
            for l in range(dim):
                c = spec.N0[i][l] if side == "left" else spec.N0[l][j]
                if c:
                    x = A[l][j] if side == "left" else A[i][l]
                    t = tmodule._scale_coord(x, c)
                    acc = t if acc is None else acc + t
            row.append(tmodule._zero_like(A[0][0]) if acc is None else acc)
        out.append(row)
    return kmat(out)


def kmat_neg(A):
    return kmat([[-a for a in r] for r in A])


def kmat_identity(ctx, d):
    one, zero = RatK.one(ctx), RatK.zero(ctx)
    return kmat([[one if i == j else zero for j in range(d)] for i in range(d)])


def kmat_add(A, B):
    return kmat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def kmat_scale(A, c):
    return kmat([[a * c for a in r] for r in A])


def tmodule_b0(spec):
    """B0 = theta Id + N0 over k."""
    ctx = spec.ctx
    lift = kmat([[RatK(PolyA.constant(ctx, c)) for c in r] for r in spec.N0])
    return kmat_add(kmat_scale(kmat_identity(ctx, spec.dim), RatK.T(ctx)),
                    lift)


def kmat_zero(ctx, rows, cols):
    zero = RatK.zero(ctx)
    return kmat([[zero] * cols for _ in range(rows)])


def kmat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = None
            for l in range(m):
                t = A[i][l] * B[l][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return kmat(out)


def kmat_inv(A):
    """Gauss-Jordan inverse over k; raises SingularStep when singular."""
    d = len(A)
    ctx = A[0][0].ctx
    work = [list(r) + list(ir) for r, ir in zip(A, kmat_identity(ctx, d))]
    for col in range(d):
        piv = next((r for r in range(col, d) if not work[r][col].is_zero()),
                   None)
        if piv is None:
            raise SingularStep("matrix over k is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inv()
        work[col] = [x * inv for x in work[col]]
        for r in range(d):
            if r != col and not work[r][col].is_zero():
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return kmat([row[d:] for row in work])


def kmat_poly_eval(a, M, ctx):
    """Evaluate a polynomial a in A at a square matrix over k (Horner in
    the powers of M)."""
    d = len(M)
    out = kmat_zero(ctx, d, d)
    power = kmat_identity(ctx, d)
    for i, c in enumerate(a.coeffs):
        if i:
            power = kmat_mul(power, M)
        if c:
            out = kmat_add(out, kmat_scale(power, RatK(PolyA.constant(ctx, c))))
    return out


def local_log_dense(spec, place, W, i_max):
    """The windowed log coefficients P_0, ..., P_i_max with each right-hand
    side R = -P_(i-1) B1^(i-1) formed by the dense matrix product over every
    entry, then negated."""
    dim = spec.dim
    P = [kmat([[LocalNum.unit_one(place, W) if i == j
                else LocalNum.exact_zero(place)
                for j in range(dim)] for i in range(dim)])]
    B1tw = kmat([[embed_local(e, place, W) for e in r] for r in spec.B1])
    for i in range(1, i_max + 1):
        if i > 1:
            B1tw = kmat([[x.qpow() for x in r] for r in B1tw])
        R = kmat_neg(kmat_mul(P[i - 1], B1tw))
        P.append(tmodule._sylvester_solve(spec, R, _delta_inv(place, i, W)))
    return P


def local_log_fixed_point(spec, place, W, i_max):
    """The windowed log coefficients P_0, ..., P_i_max by 2 dim + 1 passes
    of the fixed-point map, each starting from R / delta."""
    dim = spec.dim
    P = [kmat([[LocalNum.unit_one(place, W) if i == j
                else LocalNum.exact_zero(place)
                for j in range(dim)] for i in range(dim)])]
    B1tw = kmat([[embed_local(e, place, W) for e in r] for r in spec.B1])
    for i in range(1, i_max + 1):
        if i > 1:
            B1tw = kmat([[x.qpow() for x in r] for r in B1tw])
        R = kmat_neg(kmat_mul(P[i - 1], B1tw))
        dinv = _delta_inv(place, i, W)
        Pi = kmat_scale(R, dinv)
        for _ in range(2 * dim + 1):
            comm = kmat_sub(_lmat_n0(spec, Pi), _lmat_n0(spec, Pi, "right"))
            Pi = kmat_scale(kmat_add(R, comm), dinv)
        P.append(Pi)
    return P


def log_at_point_observed(spec, w, place, prec, I_cap=64):
    """Log(w) = sum_i P_i w^(i), stopped by observed term bounds: the loop
    ends once three consecutive term bounds ord P_i + q^i m clear prec and
    the proved tail bound q^j m - c j clears prec and climbs at j = i + 1,
    each term the full product of P_i and w^(i)."""
    w = tuple(w)
    ords = [x.valuation() for x in w if not x.is_exact_zero()]
    if not ords:
        return tuple(LocalNum.exact_zero(place) for _ in w)
    if any(o is None for o in ords):
        raise ValueError("logarithm needs exact valuations of the point")
    m = min(ords)
    if m < 1:
        raise ConvergenceNotCertified(
            "point is not inside the domain of the logarithm")
    q = place.q
    c = 2 * spec.dim - 1
    coeffs = tmodule._local_log_coeffs(
        spec, place, tmodule._log_window(spec, q, prec))

    def mat_ord_bound(P):
        bounds = [e.nu for r in P for e in r if not e.is_exact_zero()]
        return min(bounds) if bounds else None

    acc = [LocalNum.zero_to_precision(place, prec) for _ in range(spec.dim)]
    term_ords = []
    wq = w
    for i in range(I_cap + 1):
        coeffs.ensure(i)
        P = coeffs.P[i]
        ordP = mat_ord_bound(P)
        if ordP is None:
            term_ords.append(None)
        else:
            if ordP < -c * i:
                raise AssertionFailure(
                    f"log coefficient P_{i} has ord {ordP}, below the "
                    f"proved bound -{c}*{i}")
            term_ords.append(ordP + q ** i * m)
            for r in range(spec.dim):
                row = LocalNum.exact_zero(place)
                for jc in range(spec.dim):
                    row = row + P[r][jc] * wq[jc]
                acc[r] = acc[r] + row
        if i >= 2:
            last3 = term_ords[i - 2:i + 1]
            if all(t is None or t >= prec for t in last3):
                f = lambda j: q ** j * m - c * j  # noqa: E731
                if f(i + 1) >= prec and f(i + 2) >= f(i + 1):
                    out = tuple(x.truncate(prec) for x in acc)
                    if any(x.cutoff < prec for x in out):
                        raise PrecisionLoss(
                            "logarithm window fell short of the requested "
                            "precision")
                    return out
        wq = tuple(x.qpow() for x in wq)
    raise ConvergenceNotCertified(
        "logarithm stopping rule not achieved within the term cap")


# -- the chain sums as products of factor rows, and the digit division ---

def nested_sum_prefixes(rows, strict):
    """Sums of f_1(i_1) ... f_l(i_l) over chains i_1 > ... > i_l (>= if not
    strict), one for each prefix length l = 1, ..., r: the prefix pass
    polylog._nested_sum was while the star chain sums used it, with its
    weak-chain branch.  rows[l - 1][i] is f_l(i); entries past the end of a
    row count as zero, and the empty sum is None."""
    totals, above = [], None
    for row in rows:
        if above is None:
            above = list(row)
            continue
        acc = None
        for x in reversed(above[len(row):]):
            acc = polylog._add(acc, x)
        cur = [None] * len(row)
        for i in reversed(range(len(row))):
            if not strict and i < len(above):
                acc = polylog._add(acc, above[i])
            if acc is not None:
                cur[i] = row[i] * acc
            if strict and i < len(above):
                acc = polylog._add(acc, above[i])
        totals.append(acc)
        above = cur
    total = None
    for x in above:
        total = polylog._add(total, x)
    totals.append(total)
    return totals


def geometric_divide_loop(x, m, S=1):
    """x / (1 - pi^m)^S with the window of x: S prefix sums with stride m,
    y_n = x_n + y_(n - m), one F_q addition per digit."""
    add, out = x.place.ctx._add, list(x.coeffs)
    for _ in range(S):
        for n in range(m, len(out)):
            out[n] = add[out[n]][out[n - m]]
    return _normalized(x.place, x.nu, out) if out else x


def chain_sum_products(s, u, place, prec, strict):
    """The CMPL (strict) or CMSPL value by the product route that the Horner
    recursion over the factorial ratios replaced: row l holds
    u_l^(q^i) (1/ell_i)^(s_l), each power of 1/ell_i by LocalNum.pow, and
    one prefix pass multiplies the rows, at the same plan and window."""
    I, W = polylog._chain_plan(s, u, place, prec)
    rows = polylog._chain_rows(s, u, place, W, polylog.inv_ells(place, I, W))
    return polylog._clip(nested_sum_prefixes(rows, strict)[-1], place, prec)


# -- the suffix nested sum and the per-prefix deformation series ----------

def nested_sum_suffix(rows, strict):
    """Sum of f_1(i_1) ... f_r(i_r) over chains i_1 > ... > i_r (>= if not
    strict), by suffix sums from the inner slot outwards:
    S_r(i) = f_r(i) and S_l(i) = f_l(i) * sum_(j < i) S_(l+1)(j), with
    j <= i for weak chains.  Only the whole index's sum comes out."""
    below = list(rows[-1])
    for row in reversed(rows[:-1]):
        cur, acc = [], None
        for i, f in enumerate(row):
            if not strict and i < len(below):
                acc = polylog._add(acc, below[i])
            cur.append(None if acc is None else f * acc)
            if strict and i < len(below):
                acc = polylog._add(acc, below[i])
        below = cur
    total = None
    for x in below:
        total = polylog._add(total, x)
    return total


def ord_poly_divmod(place, f):
    """ord_v f at a finite place by repeated division by the uniformizer."""
    if f.is_zero():
        return INF
    pi = place.uniformizer()
    n = 0
    while True:
        quo, rem = f.divmod(pi)
        if not rem.is_zero():
            return n
        f = quo
        n += 1


def omega_product_loop(alpha, place, D, N):
    """prod_(i>=1) (1 - alpha^(q^i) t) mod (t^D, pi^N), one series product
    per factor."""
    q = place.q
    a = embed_local(alpha, place, N)
    da = place.ord_ratk(alpha)
    out = tseries_one(place, D, N)
    i = 1
    apow = a
    while q ** i * da < N:
        apow = apow.qpow()
        factor = from_local_coeffs(
            place, [LocalNum.unit_one(place, N), -apow.truncate(N)], D, N)
        out = out * factor
        i += 1
    return out.clip(N)


def tseries_one(place, D, window):
    """The series 1 mod t^D: a unit with `window` digits at t^0, zeros
    known to pi^window above."""
    unit = LocalNum(place, 0, (1,) + (0,) * (window - 1))
    zero = LocalNum.zero_to_precision(place, window)
    return TSeries.from_runs(place, ((min(D, 1), unit), (D - 1, zero)))


def omega_product_shift_loop(alpha, place, D, N):
    """prod_(i>=1) (1 - alpha^(q^i) t) mod (t^D, pi^N), each factor a
    t-shift, a scaling and a difference."""
    a = embed_local(alpha, place, N)
    if a.nu < 1:
        raise DomainError("alpha must lie in the open unit disk at v")
    q = place.q
    out = tseries_one(place, D, N)
    i = 1
    apow = a
    while q ** i * a.nu < N:
        apow = apow.qpow()
        out = out - out.t_shift(1, N).scale(apow.truncate(N))
        i += 1
    return out.clip(N)


def omega_power_products(place, k, D, N):
    """Omega^k mod (t^D, pi^N) at alpha = pi, k >= 1: one series product
    Omega^(j-1) * Omega per power, with no clip after the products."""
    omega = omega_product_shift_loop(RatK(place.uniformizer()), place, D, N)
    out = omega
    for _ in range(k - 1):
        out = out * omega
    return out


def pi_tilde_loop(alpha, place, N):
    """prod_(i>=1) (1 - alpha^(q^i - 1)) to N digits, one LocalNum product
    per factor, each alpha^(q^i) * alpha^(-1)."""
    a = embed_local(alpha, place, N)
    if a.nu < 1:
        raise DomainError("alpha must lie in the open unit disk at v")
    q = place.q
    ainv = a.inv()
    out = LocalNum.unit_one(place, N)
    i = 1
    apow = a
    while (q ** i - 1) * a.nu < N:
        apow = apow.qpow()
        out = out * (LocalNum.unit_one(place, N) - (apow * ainv).truncate(N))
        i += 1
    return out.truncate(N)


def F_at_inverse_power_loop(place, i, N_twist, prec):
    """F_i at t = pi^(-q^N): an exact zero for i < N, else
    prod_(j>i) (1 - pi^(q^j - q^N)) to prec digits, one LocalNum product
    per factor, times pi^(-i q^N)."""
    q = place.q
    if i < N_twist:
        return LocalNum.exact_zero(place)
    qN = q ** N_twist
    W = prec
    out = LocalNum.unit_one(place, W)
    j = i + 1
    while q ** j - qN < W:
        out = out * (LocalNum.unit_one(place, W)
                     - LocalNum(place, q ** j - qN, (1,) + (0,) * (W - 1)))
        j += 1
    return out.shift(-i * qN)


def series_pow(f, n):
    """The series f^n, n >= 1, by repeated squaring."""
    out, base = None, f
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def omega_tail_loop(place, i, D, N):
    """prod_(j>i) (1 - pi^(q^j) t) mod (t^D, pi^N), one series product per
    factor, each pi^(q^j) a power of the embedded uniformizer."""
    q = place.q
    pi = embed_local(place.uniformizer(), place, N)
    out = tseries_one(place, D, N)
    j = i + 1
    while q ** j < N:
        factor = from_local_coeffs(
            place, [LocalNum.unit_one(place, N), -pi.pow(q ** j).truncate(N)],
            D, N)
        out = out * factor
        j += 1
    return out.clip(N)


def deformation_build_one(s, u, place, D, N):
    """The deformation series of (s; u) alone: its own rows, the suffix
    nested sum, and omega tails from omega_tail_loop."""
    if not polylog.domain_check(s, u, polylog.CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    q = place.q
    d1 = u.ords(place)[0]
    I = 0
    while q ** I * d1 < N and I < D:
        I += 1

    def F(i, si):
        out = series_pow(omega_tail_loop(place, i, D, N), si)
        return out.t_shift(i * si, N) if i else out

    def tower(x, n):
        out = [embed_local(x, place, N)]
        while len(out) < n:
            out.append(out[-1].qpow().truncate(N))
        return out[:n]

    rows = [[F(i, si).scale(c) for i, c in
             enumerate(tower(x, min(I, -(-D // si))))]
            for si, x in zip(s, u)]
    return polylog._add(TSeries.zero(place, D, N),
                        nested_sum_suffix(rows, strict=True)).clip(N)


def deformation_build_per_prefix(s, u, place, D, N):
    """The series of every prefix of (s; u), each built on its own."""
    return [deformation_build_one(Index(s.s[:l]), ArgTuple(u.u[:l]), place,
                                  D, N) for l in range(1, s.depth + 1)]


# -- the specialization at t = alpha^(-q^N) by prefixes and two paths -----

def deformation_specialize_prefixes(s, u, place, N_twist, prec):
    """The literal values at t = pi^(-q^N) of the deformation series of
    every prefix (s_1, ..., s_l; u_1, ..., u_l), l = 1, ..., r, from one
    prefix pass at the plan of the whole index.

    That plan covers every prefix.  A chain with top entry i contributes
    ord >= q^i ord(u_1) - q^N wt_l i to prefix l, and wt_l <= wt, so each
    prefix's bound is at least the whole index's, with a rise at least as
    steep: the prefix's own truncation index is no larger, the terms past
    it lie at or above prec, and its own window is no wider.  Clipped at
    prec, each value is the one the prefix's own plan gives.
    """
    if not polylog.domain_check(s, u, polylog.CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    q = place.q
    d1 = u.ords(place)[0]
    qN = q ** N_twist
    I, floor = polylog._plan(lambda i: q ** (N_twist + i) * d1
                             - qN * s.weight * (N_twist + i), prec)
    I = N_twist + max(I, s.depth)
    W = prec + max(0, -floor)
    rows = polylog._chain_rows(s, u, place, W, [
        polylog._F_at_inverse_power(place, i, N_twist, W)
        for i in range(N_twist, I)], N_twist)
    return [polylog._clip(total, place, prec)
            for total in polylog._nested_sum(rows)]


def omega_at_inverse_power(alpha, place, N_power, prec):
    """Omega at t = alpha^(-q^N): pi_tilde to prec at N = 0, and an exact
    zero for N >= 1 (the factor 1 - alpha^(q^N) t vanishes)."""
    if N_power < 0:
        raise ValueError("power index must be >= 0")
    if N_power == 0:
        return polylog.pi_tilde(alpha, place, prec)
    polylog._embedded(alpha, place, 1)
    return LocalNum.exact_zero(place)


def specialize_vector(sys, N_twist, prec, om):
    """The literal value vector psi(alpha^(-q^N)) of an omega or CMPL
    system, given om = Omega(alpha^(-q^N)); at N >= 1 every entry but the
    last is set to an exact zero."""
    if sys.kind not in ("cmpl", "omega"):
        raise CertificationFailed("specialization needs a constructed system")
    if sys.kind == "omega":
        return (om,)
    s = sys.index
    out = [om.pow(sys.weight) if not om.is_exact_zero() else om]
    deps = deformation_specialize_prefixes(s, sys.args, sys.place, N_twist,
                                           prec)
    for l, dep in enumerate(deps, 1):
        tail = sum(s[l:])
        if not tail:
            out.append(dep)
        elif N_twist >= 1:
            out.append(LocalNum.exact_zero(sys.place))
        else:
            out.append((dep * om.pow(tail)).truncate(prec))
    return tuple(out)


def specialization_holds_two_path(sys, N, prec, pt, target):
    """Whether psi(alpha^(-q^N)) ends in target (its q^N-th power at
    N >= 1): at N = 0 the last entry alone, at N >= 1 the whole vector,
    whose entries but the last must be exact zeros, and its last entry
    times pi^(N w q^N)."""
    if N == 0:
        last = (pt if sys.kind == "omega" else deformation_specialize_prefixes(
            sys.index, sys.args, sys.place, 0, prec)[-1])
        return (last - target).zero_to(prec)
    vals = specialize_vector(
        sys, N, prec, omega_at_inverse_power(sys.alpha, sys.place, N, prec))
    if not all(x.is_exact_zero() for x in vals[:-1]):
        return False
    lit = vals[-1].shift(N * sys.weight * sys.place.q ** N)
    return (lit - target.qpow(N)).zero_to(prec)


# -- the powers of (1 - alpha^q t) and the whole-matrix determinant test ---

def one_minus_alpha_q_t_loop(place, n):
    """(1 - alpha^q t)^k over k[t] for k = 0..n, one t-polynomial product on
    from the last."""
    ctx = place.ctx
    aq = RatK(place.uniformizer()).frobenius()
    out = [diffsys.tp_one(ctx)]
    for _ in range(n):
        out.append(diffsys.tp_mul(out[-1], (RatK.one(ctx), -aq), ctx))
    return out


def det_structural_whole(sys):
    """True when det of the whole twisted matrix, multiplied out, is
    c * t^a * (1 - alpha^q t)^b."""
    ctx = sys.place.ctx
    det = diffsys._tp_det(sys.phi, ctx)
    if not det:
        return False
    a = 0
    while det[a].is_zero():
        a += 1
    body = det[a:]
    b = len(body) - 1
    base = one_minus_alpha_q_t_loop(sys.place, b)[b]
    return tuple(body) == diffsys.tp_scale(base, body[0], ctx)


def vabp_certify_full(sys, gamma, rho, P, D, N):
    """vabp_certify on the whole psi vector, every block's deformation
    series built, with the entries where P_j = 0 skipped afterwards."""
    if len(P) != sys.size or len(rho) != sys.size:
        raise ValueError("certificate vectors must match the system size")
    if not diffsys._det_structural(sys):
        raise diffsys.CertificationFailed("determinant not structural")
    for pj, rj in zip(P, rho):
        if diffsys.tp_eval_k(pj, gamma) != rj:
            return False
    psi = [p.truncate(D) for p in sys.psi(D, N)]
    return residual_by_series(
        sys.place, None, [(pj, fj) for pj, fj in zip(P, psi) if pj],
        N) >= N


def tp_apply(a, g, place, N):
    """The t-polynomial a acting on a TSeries g, truncated to g's order.

    One series product: the embedded coefficients of a, padded with exact
    zeros, times g.  The windows are those of the sum over m of
    c_m * (t^m g), with t^m g padded by zeros known to pi^N: coefficient n is
    also capped at N, and at N + nu(c_m) for each nonzero c_m, n < m < D.
    Adding a zero known to pi^cap truncates a coefficient there and turns an
    exact zero into that zero, so the caps are one walk over the product's
    runs.
    """
    D = g.order
    coeffs = [embed_local(c, place, N) for c in a[:D]]
    cap, caps = N, [(D - max(len(coeffs) - 1, 0), N)]   # from the top down
    for c in reversed(coeffs[1:]):
        if not c.is_exact_zero():
            cap = min(cap, N + c.nu)
        caps.append((1, cap))
    prod = TSeries.from_runs(place, [(1, c) for c in coeffs] + [
        (D - len(coeffs), LocalNum.exact_zero(place))]) * g
    return TSeries.from_runs(place, [
        (n, LocalNum.zero_to_precision(place, cap) if x.is_exact_zero()
         else x.truncate(cap))
        for n, x, cap in _aligned(prod.runs, reversed(caps))])


def series_residual(f, N):
    """The order of the TSeries f read modulo pi^N: the least of min(nu, N)
    over the coefficients that are not exact zeros, INF when there are
    none."""
    low = min((c.nu for _, c in f.runs), default=INF)
    return low if low == INF else min(low, N)


def residual_by_series(place, base, terms, N):
    """The residual order of base - sum a * g from built series: each a * g
    a TSeries from tp_apply, subtracted row by row, read by
    series_residual.  A base of None is the zero known to pi^N, to which
    the terms are added, as the vABP check did."""
    if base is None:
        row = TSeries.zero(place, min((g.order for _, g in terms),
                                      default=0), N)
        for a, g in terms:
            row = row + tp_apply(a, g, place, N)
    else:
        row = base
        for a, g in terms:
            row = row - tp_apply(a, g, place, N)
    return series_residual(row, N)


# -- the Carlitz action over k and the zeta pipeline ----------------------

def carlitz_theta(z):
    """C_T(z) = T z + z^q for z in k."""
    ctx = z.ctx
    return RatK.T(ctx) * z + z ** ctx.q


def carlitz_action(a, z):
    """C_a(z) for a in A: the F_q-linear Carlitz module action, the
    one-dimensional case of tmodule.tm_action."""
    ctx = a.ctx
    iterates = [z]                  # C_(T^i)(z)
    for _ in range(len(a.coeffs) - 1):
        iterates.append(carlitz_theta(iterates[-1]))
    out = RatK.zero(ctx)
    for i, c in enumerate(a.coeffs):
        if c:
            out = out + iterates[i] * RatK(PolyA.constant(ctx, c))
    return out


def zeta_v(ctx, place, s, prec, N_cert=40):
    """zeta(s)_v: certify the depth-one decomposition at infinity, then
    evaluate it at the place."""
    dec = relations.depth1_decomposition(ctx, s)
    relations.verify_decomposition_inf(dec, N_cert)
    return relations.eval_vmzv(dec, place, prec)


# -- series padding, LocalNum reading and file writing --------------------

def from_local_coeffs(place, coeffs, D, window):
    """The series of a finite coefficient list, padded up to order D with
    zeros known to pi^window (not exact zeros)."""
    coeffs = coeffs[:D]
    return TSeries.from_runs(
        place, [(1, c) for c in coeffs]
        + [(D - len(coeffs), LocalNum.zero_to_precision(place, window))])


def parse_local(place, text):
    """Parse the canonical LocalNum print form."""
    text = text.strip()
    if text == "0":
        return LocalNum.exact_zero(place)
    sym = place.symbol
    ctx = place.ctx
    cutoff = None
    digits = {}
    for part in _split_terms(text):
        part = part.strip()
        if not part:
            continue
        if part.startswith("O("):
            if not part.endswith(")"):
                raise ParseError(f"bad tail {part!r}")
            inner = part[2:-1]
            if not inner.startswith(f"{sym}^"):
                raise ParseError(f"bad tail {part!r}")
            cutoff = _parse_int(inner[len(sym) + 1:], part, "tail")
            continue
        if sym in part:
            head, _, tail = part.partition(sym)
            head = head.rstrip("*")
            if not tail.startswith("^"):
                raise ParseError(f"bad term {part!r}")
            k = _parse_int(tail[1:], part, "term")
        else:
            head, k = part, 0
        if head == "":
            c = 1
        elif head.startswith("["):
            c = _parse_fq_coeff(ctx, head)
        else:
            c = _parse_int(head, part, "term") % ctx.p
        if k in digits:
            raise ParseError(f"repeated power {sym}^{k}")
        digits[k] = c
    if cutoff is None:
        raise ParseError("missing O(...) tail")
    if digits and max(digits) >= cutoff:
        raise ParseError(f"term {sym}^{max(digits)} at or above the tail "
                         f"O({sym}^{cutoff})")
    if not digits:
        return LocalNum.zero_to_precision(place, cutoff)
    nu = min(digits)
    out = [0] * (cutoff - nu)
    for k, c in digits.items():
        out[k - nu] = c
    return LocalNum(place, nu, out)


def kmat_sub(A, B):
    return kmat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def kmat_frobenius(A, n=1):
    return kmat([[a.frobenius(n) for a in r] for r in A])


def dump_decomposition(dec, ctx):
    """Write a decomposition in the file format relations.parse_decomposition
    reads."""
    lines = [f"p: {ctx.p}", f"e: {ctx.e}", f"target: {dec.target}"]
    for b, s_l, u_l in dec.terms:
        lines.append(f"term: {b} | {s_l} | {u_l}")
    if dec.certified:
        lines.append("certified: true")
        lines.append(f"prec: {dec.certification.get('prec')}")
    return "\n".join(lines) + "\n"


def dump_tmodule_spec(spec):
    """Write a spec in the file format tmodule.parse_tmodule_spec reads."""
    lines = [f"name: {spec.name}",
             f"p: {spec.ctx.p}",
             f"e: {spec.ctx.e}",
             f"dim: {spec.dim}"]
    for r in spec.N0:
        lines.append("n0-row: " + " ".join(str(x) for x in r))
    for r in spec.B1:
        lines.append("b1-row: " + ", ".join(str(e.num) for e in r))
    lines.append("readout: " + " ".join(str(i + 1) for i in spec.readout))
    lines.append(f"index: {spec.index}")
    lines.append(f"args: {spec.args}")
    lines.append("point: " + ", ".join(str(x) for x in spec.point))
    for tp_args, tp_point in spec.test_points:
        lines.append("test-point: " + str(tp_args) + " | "
                     + ", ".join(str(x) for x in tp_point))
    return "\n".join(lines) + "\n"
