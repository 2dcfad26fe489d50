"""Truncated Laurent arithmetic in the completions k_v and k_infinity.

A LocalNum is a window of the uniformizer expansion of an element: the
value is congruent to pi^nu * sum(coeffs[i] * pi^i) modulo pi^(nu + W),
where pi is theta + lambda at a degree-one finite place or 1/theta at the
infinite place.  Every operation computes the provable window of its
result; there are no optimistic digits.

The leading stored digit is nonzero (so nu is the exact valuation) unless
the window is empty, in which case the value is only known to be divisible
by pi^nu.  Exact zero is a separate state with infinite valuation.

The field picks the digit container, FqContext.run: one bytes object
while every code fits a byte (q <= 256), else a tuple.  On bytes,
negation and scaling by a constant are one bytes.translate through a row
of the product table, the q^n-power spreads the digits into a bytearray,
and the overlap of a sum at e = 1 and p < 128 is one integer add read mod
p (each byte at most 2 (p - 1) < 256, so nothing carries).  Sums at e > 1
or p > 127, and every digit operation at q > 256, walk the rows of the
F_q tables.
"""

from __future__ import annotations

import itertools
import math

from .algebra import (
    FqContext, PolyA, RatK, binary_power, fq_convolve, fq_terms,
)
from .errors import DivisionByZero, PrecisionLoss

INF = math.inf

# Every F_q product of digits goes through algebra: fq_convolve for two
# runs of digits, algebra._grid_product for the digit grids of a series
# product.


class Place:
    """Shared interface of the two supported places."""

    symbol = "?"

    def ord_poly(self, f):
        raise NotImplementedError

    def ord_ratk(self, r):
        if r.is_zero():
            return INF
        return self.ord_poly(r.num) - self.ord_poly(r.den)

    def poly_digits(self, f):
        raise NotImplementedError


class PlaceV(Place):
    """Degree-one finite place with uniformizer theta + lambda."""

    symbol = "v"

    def __init__(self, ctx, lam=0):
        if not isinstance(ctx, FqContext):
            raise TypeError("FqContext expected")
        if not 0 <= lam < ctx.q:
            raise ValueError("lambda must be an element code of F_q")
        self.ctx = ctx
        self.lam = lam
        self.q = ctx.q

    def uniformizer(self):
        return PolyA(self.ctx, (self.lam, 1))

    def theta_root(self):
        """The residue of theta at this place: -lambda."""
        return self.ctx.neg(self.lam)

    def ord_poly(self, f):
        """ord_v f: the index of the first nonzero digit of poly_digits."""
        if f.is_zero():
            return INF
        return next(n for n, c in enumerate(self.poly_digits(f)) if c)

    def poly_digits(self, f):
        """Exact digits of f in powers of the uniformizer pi = theta + lambda.

        The digits are the coefficients of f(T + r), r = -lambda, computed
        by a Taylor shift in characteristic p (von zur Gathen and Gerhard,
        ISSAC 1997).  With m the largest power of p below len(f.coeffs),
        write f = f_lo + T^m f_hi; since (T + r)^m = T^m + r^m,

            f(T + r) = f_lo(T + r) + (T^m + r^m) f_hi(T + r),

        and the shift recurses on f_lo and f_hi down to pieces of at most p
        coefficients, each shifted by the Horner scheme, all on lists of
        coefficients.
        """
        return _taylor_shift(self.ctx, list(f.coeffs), self.theta_root())

    def __eq__(self, other):
        return (isinstance(other, PlaceV) and self.ctx == other.ctx
                and self.lam == other.lam)

    def __hash__(self):
        return hash(("v", self.ctx, self.lam))

    def __repr__(self):
        return f"PlaceV(q={self.ctx.q}, lam={self.lam})"


class PlaceInf(Place):
    """The infinite place, uniformizer 1/theta."""

    symbol = "w"

    def __init__(self, ctx):
        self.ctx = ctx
        self.lam = None
        self.q = ctx.q

    def ord_poly(self, f):
        if f.is_zero():
            return INF
        return -f.degree

    def poly_digits(self, f):
        # f = theta^d * (c_d + c_{d-1} w + ... + c_0 w^d)
        return list(reversed(f.coeffs))

    def __eq__(self, other):
        return isinstance(other, PlaceInf) and self.ctx == other.ctx

    def __hash__(self):
        return hash(("inf", self.ctx))

    def __repr__(self):
        return f"PlaceInf(q={self.ctx.q})"


def _taylor_shift(ctx, cs, r):
    """The coefficients of f(T + r), r in F_q, f given by its coefficients
    cs; see PlaceV.poly_digits.  The shift keeps the degree and the leading
    coefficient, so the list has len(cs) entries and no trailing zero.

    At most p coefficients split one at a time (m = 1), so there the shift
    is the Horner scheme in place: n - 1 passes of synthetic division by
    T - r, a_j <- a_j + r a_(j+1) from the top down.  Above p,
    f_lo(T + r) + (T^m + r^m) f_hi(T + r) is added up in one list.  Every
    step is over the rows of the F_q tables.
    """
    n = len(cs)
    if n < 2 or r == 0:
        return cs
    add = ctx._add
    if n <= ctx.p:
        mul_r = ctx._mul[r]
        a = list(cs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                a[j] = add[a[j]][mul_r[a[j + 1]]]
        return a
    m = 1
    while m * ctx.p < n:
        m *= ctx.p
    hi = _taylor_shift(ctx, cs[m:], r)
    out = _taylor_shift(ctx, cs[:m], r) + [0] * (n - m)
    mul_rm = ctx._mul[ctx.pow(r, m)]
    out[:len(hi)] = [add[x][mul_rm[y]] for x, y in zip(out, hi)]
    out[m:] = [add[x][y] for x, y in zip(out[m:], hi)]
    return out


class LocalNum:
    """Window of a uniformizer expansion; see module docstring."""

    __slots__ = ("place", "nu", "coeffs")

    def __init__(self, place, nu, coeffs):
        self.place = place
        # normalize: strip leading zero digits into the valuation
        coeffs = place.ctx.run(coeffs)
        if coeffs and not coeffs[0]:
            tail = place.ctx.run_strip(coeffs)
            nu += len(coeffs) - len(tail)
            coeffs = tail
        self.nu = nu
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------

    @classmethod
    def exact_zero(cls, place):
        return cls(place, INF, ())

    @classmethod
    def zero_to_precision(cls, place, cutoff):
        return cls(place, cutoff, ())

    @classmethod
    def unit_one(cls, place, window):
        return cls(place, 0, (1,) + (0,) * (window - 1))

    # -- state ---------------------------------------------------------

    @property
    def window(self):
        return len(self.coeffs)

    @property
    def cutoff(self):
        """The value is known modulo pi^cutoff."""
        return self.nu + len(self.coeffs)

    def is_exact_zero(self):
        return self.nu is INF

    def zero_to(self, prec):
        """True for an exact zero, or for no digits known to pi^prec."""
        return self.nu is INF or not self.coeffs and self.nu >= prec

    def valuation(self):
        """Exact valuation, or None when only a lower bound is known."""
        if self.coeffs:
            return self.nu
        return None

    def valuation_lower_bound(self):
        return self.nu

    def truncate(self, cutoff):
        if self.is_exact_zero():
            return self
        if cutoff <= self.nu:
            return LocalNum.zero_to_precision(self.place, cutoff)
        keep = min(len(self.coeffs), cutoff - self.nu)
        return LocalNum(self.place, self.nu, self.coeffs[:keep])

    def digits(self, lo, hi):
        """The digits of pi^lo, ..., pi^(hi - 1), zeros below nu; pi^(hi - 1)
        must lie inside the known window."""
        if hi > self.cutoff:
            raise PrecisionLoss(f"digit pi^{self.cutoff} beyond window")
        if self.is_exact_zero():
            return (0,) * (hi - lo)
        start = min(max(lo, self.nu), hi)
        return (0,) * (start - lo) + tuple(
            self.coeffs[start - self.nu:hi - self.nu])

    # -- arithmetic ----------------------------------------------------

    def _check_place(self, other):
        if not (self.place is other.place or self.place == other.place):
            raise ValueError("operands live at different places")

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other when negate is set.

        A difference negates other's digits first.  The lower operand's
        digits below the other's start are copied, and the overlap is one
        FqContext.run_add.
        """
        self._check_place(other)
        if other.nu is INF:
            return self
        if self.nu is INF:
            return -other if negate else other
        ctx, x, y = self.place.ctx, self.coeffs, other.coeffs
        if negate:
            y = ctx.run_scale(ctx._neg[1], y)
        cutoff = min(self.nu + len(x), other.nu + len(y))
        base = min(self.nu, other.nu)
        n = cutoff - base
        if n <= 0:
            return LocalNum.zero_to_precision(self.place, cutoff)
        if self.nu <= other.nu:
            k = min(other.nu - base, n)
            head, x, y = x[:k], x[k:n], y[:n - k]
        else:
            k = min(self.nu - base, n)
            head, x, y = y[:k], x[:n - k], y[k:n]
        return LocalNum(self.place, base, head + ctx.run_add(x, y))

    def __neg__(self):
        return self.scale_fq(self.place.ctx._neg[1])

    def __mul__(self, other):
        self._check_place(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return LocalNum.exact_zero(self.place)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            cutoff = min(self.nu + other.cutoff, other.nu + self.cutoff)
            return LocalNum.zero_to_precision(self.place, cutoff)
        # leading digits are nonzero, so the product keeps n = min(W_a, W_b)
        # digits from nu_a + nu_b on, its cutoff min(nu_a + c_b, nu_b + c_a);
        # they read only the first n of each operand, so an operand c pi^nu
        # there is its one digit c, and fq_convolve scales the other by c
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if not any(a[1:]):
            a = a[:1]
        elif not any(b[1:]):
            b = b[:1]
        return LocalNum(self.place, self.nu + other.nu,
                        fq_convolve(self.place.ctx, a, b, n))

    def scale_fq(self, c):
        """Multiply by a nonzero constant of F_q (window preserved)."""
        if c == 0:
            raise ValueError("scale by zero loses the valuation; use mul")
        if c == 1 or self.is_exact_zero() or not self.coeffs:
            return self
        return LocalNum(self.place, self.nu,
                        self.place.ctx.run_scale(c, self.coeffs))

    def shift(self, n):
        """Multiply by pi^n (exact)."""
        if self.is_exact_zero():
            return self
        return LocalNum(self.place, self.nu + n, self.coeffs)

    def inv(self):
        """Schoolbook series inversion of the unit part: out_0 = 1/a_0 and
        out_n = -out_0 sum_(1 <= i <= n) a_i out_(n - i), over the rows of
        the F_q tables of the nonzero a_i."""
        if self.is_exact_zero() or not self.coeffs:
            raise DivisionByZero("inverse of (possible) zero")
        ctx = self.place.ctx
        a = self.coeffs
        inv0 = ctx.inv(a[0])
        add, mul = ctx._add, ctx._mul
        scale = mul[ctx._neg[inv0]]
        rows = [(i, mul[x]) for i, x in enumerate(a) if i and x]
        out = [inv0]
        for n in range(1, len(a)):
            s = 0
            for i, row in rows:
                if i > n:
                    break
                s = add[s][row[out[n - i]]]
            out.append(scale[s])
        return LocalNum(self.place, -self.nu, out)

    def __truediv__(self, other):
        return self * other.inv()

    def pow(self, n):
        if n < 0:
            return self.inv().pow(-n)
        if n == 0:
            if self.is_exact_zero():
                raise ValueError("0^0")
            return LocalNum.unit_one(self.place, self.window)
        return binary_power(self, n)

    def qpow(self, n=1):
        """Raise to the Q = q^n power by spreading the digits.

        x^Q = sum c_i^Q pi^(Q (nu + i)) = pi^(Q nu) sum c_i pi^(Q i), because
        c^Q = c on F_q and Frobenius is additive in characteristic p.  The
        result keeps the W = len(coeffs) digits from Q nu on, the window of
        the product of Q copies of x, so its digits are that product's.
        """
        if n < 0:
            raise ValueError("only forward q-powers are supported")
        if self.is_exact_zero():
            return self
        ctx = self.place.ctx
        Q, W = ctx.q ** n, len(self.coeffs)
        out = bytearray(W) if ctx.run is bytes else [0] * W
        out[::Q] = self.coeffs[:-(-W // Q)]
        return LocalNum(self.place, Q * self.nu, out)

    # -- comparisons ---------------------------------------------------

    def congruent(self, other, cutoff=None):
        """True iff self - other is zero to the (common) window."""
        d = self - other
        if cutoff is not None:
            d = d.truncate(cutoff)
        return d.is_exact_zero() or not d.coeffs

    def __eq__(self, other):
        return (isinstance(other, LocalNum) and self.place == other.place
                and self.nu == other.nu and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.place, self.nu, self.coeffs))

    # -- printing ------------------------------------------------------

    def __str__(self):
        if self.is_exact_zero():
            return "0"
        sym = self.place.symbol
        terms = fq_terms(self.place.ctx, (
            (c, f"{sym}^{k}" if k else "")
            for k, c in enumerate(self.coeffs, self.nu) if c))
        return " + ".join([*terms, f"O({sym}^{self.cutoff})"])

    def __repr__(self):
        return f"LocalNum({self})"


def geometric_divide(x, m, S=1):
    """x / (1 - pi^m)^S for m >= 1 and S >= 0, with the window of x.

    The divisor g is a unit known exactly, so the quotient keeps the
    valuation and the cutoff of x: if x is known mod pi^c, x = x' + pi^c z
    with z integral, then x/g = x'/g + pi^c z/g and z/g is integral, so x/g
    is known mod pi^c; and the digit of pi^n of x'/g reads the digits of x'
    up to pi^n only, its leading digit being that of x'.  So the W digits
    of x give the W digits of x/g from the same nu.

    In characteristic p, (1 - pi^m)^(p^j) = 1 - pi^(m p^j), so for each
    base-p digit k of S at p^j the digits are divided k times by
    1 - pi^M, M = m p^j; the divisions with M >= W leave the W digits as
    they are.

    Dividing by 1 - pi^M is the prefix sum y_n = x_n + y_(n - M), and
    1/(1 - z) = (1 + z)(1 + z^2)(1 + z^4) ... mod z^K, so it is
    ceil(log2(W / M)) shift-adds y += y pi^(2^b M), 2^b M < W, on one
    integer with a byte slot per digit, the fq_convolve byte slots.  The
    divisor has F_p coefficients, so each F_p coordinate plane of the codes
    is divided on its own: digits outside F_p (only at e > 1) take e byte
    slots each, one per plane.  A code's byte read mod p through the table
    _residue is its first coordinate; subtracting it leaves a multiple of p
    in every byte, and the exact quotient by p holds the next coordinates.
    The slots are read mod p before a shift-add could carry one past 255,
    so a slot never exceeds 2 (p - 1) < 256 for p < 128.
    Codes that need more than a byte (q > 256) or slots that would (p >
    127) take the same shift-adds on the list, through the F_q addition
    table.
    """
    W, ctx, p, shifts = len(x.coeffs), x.place.ctx, x.place.ctx.p, []
    while S and m < W:      # the shifts 2^b M < W, k times for each M
        doubled = [m << b for b in range(((W - 1) // m).bit_length())]
        shifts, S, m = shifts + doubled * (S % p), S // p, m * p
    if not shifts:
        return x
    if p > 127 or ctx.q > 256:
        out = list(x.coeffs)
        for M in shifts:
            out[M:] = [ctx._add[a][b] for a, b in zip(out[M:], out)]
        return LocalNum(x.place, x.nu, out)
    data = x.coeffs
    e = ctx.e if max(data) >= p else 1
    if e > 1:       # the planes, interleaved: byte u of a digit's e bytes
        y, data = int.from_bytes(data, "little"), bytearray(e * W)
        for u in range(e):
            data[u::e] = y.to_bytes(W, "little").translate(ctx._residue)
            y = (y - int.from_bytes(data[u::e], "little")) // p
    y, top, mask = int.from_bytes(data, "little"), p - 1, (1 << 8 * e * W) - 1
    for M in shifts:
        if 2 * top > 255:
            y, top = int.from_bytes(y.to_bytes(e * W, "little").translate(
                ctx._residue), "little"), p - 1
        y, top = (y + (y << 8 * e * M)) & mask, 2 * top
    raw = y.to_bytes(e * W, "little").translate(ctx._residue)
    if e > 1:
        raw = sum(p ** u * int.from_bytes(raw[u::e], "little")
                  for u in range(e)).to_bytes(W, "little")
    return LocalNum(x.place, x.nu, raw)


def geometric_prefixes(place, exponents, window):
    """prod_m 1/(1 - pi^m) over each prefix of the exponents m >= 1, to
    `window` digits: entry k is the product of the first k factors, each
    one geometric_divide of the entry before.  The digit of pi^n counts,
    mod p, the ways to write n as a sum of the exponents."""
    if window < 1:
        raise ValueError("window must be >= 1")
    return list(itertools.accumulate(exponents, geometric_divide,
                                     initial=LocalNum.unit_one(place, window)))


def embed_poly(f, place, window):
    """Embed a polynomial with the stated window (exact valuation)."""
    if f.is_zero():
        return LocalNum.exact_zero(place)
    x = LocalNum(place, -f.degree if isinstance(place, PlaceInf) else 0,
                 place.poly_digits(f))
    # a polynomial is exact; pad the window with exact zero digits
    return LocalNum(place, x.nu, x.coeffs + place.ctx.run(bytes(window))
                    ).truncate(x.nu + window)


def embed_local(r, place, window):
    """Embed r in k into its completion at the place, with W good digits."""
    if isinstance(r, PolyA):
        r = RatK(r)
    if r.is_zero():
        return LocalNum.exact_zero(place)
    num = embed_poly(r.num, place, window)
    if r.den.is_one():
        return num
    den = embed_poly(r.den, place, window)
    return num * den.inv()
