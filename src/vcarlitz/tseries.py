"""Truncated power series in t with LocalNum coefficients.

A TSeries holds the coefficients a_0, ..., a_(D-1) of a Tate-algebra
element modulo t^D; each coefficient carries its own precision window.
Twisting is forward only, and it spreads digits: a coefficient
pi^nu sum c_i pi^i raised to the power Q = q^n is pi^(Q nu) sum c_i pi^(Q i),
because c^Q = c on F_q and the Q-th power is additive in characteristic p
(``LocalNum.qpow``).  It keeps the coefficient's W digits, the window of
the product of Q copies of it, so the digits are that product's.

A sum, a difference and a scaling by one LocalNum are each one packed
big-integer operation (``local._grid_sum``, ``local._grid_product``), with
LocalNum's sum or product window per coefficient.  A product is one
big-integer multiplication (two-dimensional Kronecker substitution, with a
third axis for the F_p coordinates when q = p^e, e > 1): each operand's
digit grid, t by pi, is packed into one integer, and the first D t-rows of
the product are read back in bulk (``local._grid_product``, which alone
knows the slot layout).  Its windows are those of the coefficient
schoolbook sum_(i+j=n) a_i * b_j: coefficient n is known modulo pi^c, c the
minimum over the pairs with no exact-zero factor of
min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)), and is an exact zero
when every pair has an exact-zero factor (``_window_rule``).
"""

from __future__ import annotations

import sys
from array import array

from .errors import DecayNotCertified, PrecisionLoss
from .local import INF, LocalNum, _grid_product, _grid_sum, embed_local

_FIELD_CODES = {array(code).itemsize: code for code in "BHILQ"}


class TSeries:
    __slots__ = ("place", "coeffs")

    def __init__(self, place, coeffs):
        self.place = place
        self.coeffs = tuple(coeffs)

    @property
    def order(self):
        """The t-truncation order D."""
        return len(self.coeffs)

    @classmethod
    def one(cls, place, D, window):
        unit = LocalNum(place, 0, (1,) + (0,) * (window - 1))
        zero = LocalNum.zero_to_precision(place, window)
        return cls(place, (unit,) + (zero,) * (D - 1))

    @classmethod
    def zero(cls, place, D, window):
        z = LocalNum.zero_to_precision(place, window)
        return cls(place, (z,) * D)

    @classmethod
    def from_local_coeffs(cls, place, coeffs, D, window):
        """Pad a finite coefficient list with exact zeros up to order D."""
        zero = LocalNum.zero_to_precision(place, window)
        coeffs = list(coeffs[:D])
        coeffs += [zero] * (D - len(coeffs))
        return cls(place, coeffs)

    @classmethod
    def from_ratk_poly(cls, place, ratk_coeffs, D, window):
        """Embed a polynomial in t with coefficients in k."""
        return cls.from_local_coeffs(
            place, [embed_local(c, place, window) for c in ratk_coeffs], D, window)

    def coeff(self, i):
        return self.coeffs[i]

    def truncate(self, D):
        return TSeries(self.place, self.coeffs[:D])

    def _check(self, other):
        if not (self.place is other.place or self.place == other.place):
            raise ValueError("series live at different places")

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other when `negate`: one packed sum.

        Coefficient n has LocalNum's sum window: known modulo pi^c,
        c = min(cutoff(a_n), cutoff(b_n)), with digits from
        min(nu(a_n), nu(b_n)) on.  An exact zero b_n passes a_n through, and
        an exact zero a_n passes b_n through in a sum.
        """
        self._check(other)
        place = self.place
        D = min(self.order, other.order)
        a, b = self.coeffs[:D], other.coeffs[:D]
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
            # row r holds coefficient spans[r][0], from its base on
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
        return TSeries(place, out)

    def __mul__(self, other):
        self._check(other)
        D = min(self.order, other.order)
        a, b = self.coeffs[:D], other.coeffs[:D]
        place = self.place
        ctx = place.ctx
        # The coefficients with digits form a grid per operand: coefficient i
        # is t row i - ta (ta the first with digits), its pi^nu digit column
        # nu - oa.  One packed product convolves both grids; row r of the
        # product holds coefficient ta + tb + r from pi^(oa + ob) on.
        ra = [(i, c) for i, c in enumerate(a) if c.coeffs]
        rb = [(j, c) for j, c in enumerate(b) if c.coeffs]
        cuts = _window_rule(a, b)
        first, rows = D, []
        if ra and rb:
            ta, tb = ra[0][0], rb[0][0]
            first = ta + tb
            oa = min(c.nu for _, c in ra)
            ob = min(c.nu for _, c in rb)
            wa = max(c.cutoff for _, c in ra) - oa
            wb = max(c.cutoff for _, c in rb) - ob
            C = wa + wb - 1                     # columns per product row
            # a digit pair reaching a row puts its cutoff at most C columns
            # up, so the clamp only cuts all-zero rows
            widths = [0 if cut is None else max(0, min(cut - oa - ob, C))
                      for cut in cuts[first:ra[-1][0] + rb[-1][0] + 1]]
            if any(widths):
                rows = _grid_product(
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
        return TSeries(place, out)

    def scale(self, x):
        """Multiply every coefficient by the LocalNum x: one packed product.

        Coefficient n gets LocalNum's product window: the min(W(a_n), W(x))
        digits from nu(a_n) + nu(x) on, or an exact zero when a factor is one.
        """
        self._check(x)
        place = self.place
        a = self.coeffs
        live = [n for n, c in enumerate(a) if c.coeffs] if x.coeffs else []
        rows = []
        if live:
            wa = max(len(a[n].coeffs) for n in live)
            xd = x.coeffs[:wa]
            S = wa + len(xd) - 1                 # a row's full convolution
            widths = [0] * (live[-1] + 1)
            for n in live:
                widths[n] = min(len(a[n].coeffs), len(xd))
            rows = _grid_product(
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
        return TSeries(place, out)

    def t_shift(self, n, window):
        """Multiply by t^n (drops the top n coefficients)."""
        zero = LocalNum.zero_to_precision(self.place, window)
        n = min(n, self.order)
        return TSeries(self.place, (zero,) * n + self.coeffs[:self.order - n])

    def pow(self, n):
        if n < 0:
            raise ValueError("negative powers of a TSeries")
        if n == 0:
            w = min((c.cutoff for c in self.coeffs), default=0)
            return TSeries.one(self.place, self.order,
                               int(w) if w != INF else 1)
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def is_zero_to_window(self):
        return all(c.is_exact_zero() or not c.coeffs for c in self.coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            parts.append(f"({c})*t^{i}" if i else f"({c})")
        return " + ".join(parts) + f" + O(t^{self.order})"


def _window_rule(a, b):
    """Cutoff of each coefficient of a*b, or None where it is an exact zero.

    Coefficient n is known modulo pi^c with c the minimum, over the pairs
    i + j = n with neither a_i nor b_j an exact zero, of
    min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)): the window that
    LocalNum's product and sum give term by term.  With no such pair the
    coefficient is an exact zero.

    Both (min, +) convolutions run on fields packed into one integer (SWAR).
    Padded and built series repeat (nu, cutoff) along t, so there is one pass
    per run of equal (nu, cutoff) in a, not per coefficient: the minimum of
    b's fields over the run's length comes from a table of power-of-two
    window minima.
    """
    D = len(a)
    na, nb = [c.nu for c in a], [c.nu for c in b]
    ca = [c.nu + len(c.coeffs) for c in a]
    cb = [c.nu + len(c.coeffs) for c in b]
    base = min(na + nb, default=INF)       # exact zeros have nu = INF
    if base == INF:
        return [None] * D
    R = max(c for c in ca + cb if c != INF) - base
    # a value is at most R, a live pair at most 2R; bigger means no pair
    none = 2 * R + 1
    # fields of 1, 2, 4 or 8 bytes, with room for 3R + 1 and a guard bit
    size = next(w for w in (1, 2, 4, 8) if 8 * w > (3 * R + 1).bit_length())
    k = 8 * size
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * D, "little")
    guard = ones << (k - 1)
    full = (1 << D * k) - 1
    nones = none * ones

    def smin(x, y):
        # fieldwise min: the guard bit of 2^(k-1) + x_f - y_f stays set
        # iff x_f >= y_f, and no field borrows from the next
        g = ((x | guard) - y) & guard
        return x ^ ((x ^ y) & (g - (g >> (k - 1))))

    def shift(x, s):
        # field j moves to j + s; the s vacated fields read "no pair"
        return ((x << s * k) & full) | (nones & ((1 << s * k) - 1))

    def fields(arr):
        # an array of fields <-> the little-endian integer holding them
        if sys.byteorder == "big":
            arr.byteswap()
        return arr

    code = _FIELD_CODES[size]
    tables = [[int.from_bytes(fields(array(code, [
        none if x == INF else x - base for x in xs])), "little")]
        for xs in (cb, nb)]

    def window(t, L):
        levels = tables[t]          # levels[h]: minima over 2^h fields
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


def frobenius_twist(f, n=1):
    """Raise each coefficient to the Q = q^n power.

    sum a_i t^i becomes sum a_i^Q t^i.  Each a_i^Q is a_i's digits spread Q
    apart (c^Q = c on F_q, and the Q-th power is additive in characteristic
    p), with the window of the product of Q copies of a_i; nothing is
    multiplied.
    """
    if n < 0:
        raise ValueError("only forward twists are supported")
    if n == 0:
        return f
    return TSeries(f.place, [c.qpow(n) for c in f.coeffs])


class GaussNorm:
    """A q-power ``q^exponent``; exact == False flags a lower bound only."""

    __slots__ = ("exponent", "exact")

    def __init__(self, exponent, exact):
        self.exponent = exponent
        self.exact = exact

    def __eq__(self, other):
        if isinstance(other, GaussNorm):
            return (self.exponent, self.exact) == (other.exponent, other.exact)
        return NotImplemented

    def __str__(self):
        tag = "" if self.exact else ">="
        if self.exponent is None:
            return "0 (to window)"
        return f"{tag}q^{self.exponent}"

    def __repr__(self):
        return f"GaussNorm({self})"


def gauss_norm(f):
    """Sup of the coefficient norms, as a q-power exponent."""
    best = None          # largest exponent -nu over exactly-known coefficients
    bound = None         # largest -nu over window-zero coefficients
    for c in f.coeffs:
        if c.is_exact_zero():
            continue
        e = -c.nu
        if c.coeffs:
            best = e if best is None else max(best, e)
        else:
            bound = e if bound is None else max(bound, e)
    if best is None and bound is None:
        return GaussNorm(None, True)      # zero to window
    if bound is not None and (best is None or bound > best):
        return GaussNorm(best if best is not None else bound,
                         False)
    return GaussNorm(best, True)


def eval_series(f, x, decay=None, scan=200):
    """Evaluate sum a_i x^i with a certified tail.

    ``decay`` maps i to a lower bound for ord(a_i), valid for all i and
    eventually increasing in i after adding i*ord(x).  Without it, the
    coefficients are assumed to lie in the closed unit ball, which only
    certifies a tail when ord(x) >= 1.
    """
    place = f.place
    if x.is_exact_zero():
        return f.coeffs[0]
    ordx = x.valuation()
    if ordx is None:
        raise PrecisionLoss("evaluation point with unknown valuation")
    if decay is None:
        if ordx < 1:
            raise DecayNotCertified(
                "need a decay certificate to evaluate outside the open unit disk")
        decay = lambda i: 0  # noqa: E731
    D = f.order
    tail = min(decay(i) + i * ordx for i in range(D, D + scan))
    acc = None
    xp = None
    for i, c in enumerate(f.coeffs):
        if i == 0:
            term = c
        else:
            xp = x if xp is None else xp * x
            term = c * xp
        acc = term if acc is None else acc + term
    acc = acc + LocalNum.zero_to_precision(place, tail)
    return acc
