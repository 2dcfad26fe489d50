"""Truncated power series in t with LocalNum coefficients.

A TSeries holds the coefficients a_0, ..., a_(D-1) of a Tate-algebra
element modulo t^D; each coefficient carries its own precision window.

The coefficients are stored as runs, ``runs``: a tuple of (count,
LocalNum) pairs that covers t^0, ..., t^(D-1) in order.  A coefficient with
digits is a run of count one.  Consecutive coefficients without digits that
share a valuation bound -- zeros known to the same pi^nu, or exact zeros
(nu = INF) -- are one run.  The series built here are mostly such zeros
(the t^n coefficient of Omega has valuation at least (q^(n+1) - q)/(q - 1)),
so every operation walks runs and pays per coefficient with digits and per
run, not per power of t.  ``coeffs`` expands the runs for cold readers.

Twisting is forward only, and it spreads digits: a coefficient
pi^nu sum c_i pi^i raised to the power Q = q^n is pi^(Q nu) sum c_i pi^(Q i),
because c^Q = c on F_q and the Q-th power is additive in characteristic p
(``LocalNum.qpow``).  It keeps the coefficient's W digits, the window of
the product of Q copies of it, so the digits are that product's.

A sum, a difference and a scaling by one LocalNum are each one packed
big-integer operation over the coefficients with digits
(``local._grid_sum``, ``local._grid_product``), with LocalNum's sum or
product window per coefficient.  A product is one big-integer
multiplication (two-dimensional Kronecker substitution, with a third axis
for the F_p coordinates when q = p^e, e > 1): each operand's digit grid, t
by pi, is packed into one integer, and the product rows that a digit pair
reaches are read back in bulk (``local._grid_product``, which alone knows
the slot layout).  Its windows are those of the coefficient schoolbook
sum_(i+j=n) a_i * b_j: coefficient n is known modulo pi^c, c the minimum
over the pairs with no exact-zero factor of
min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)), and is an exact zero
when every pair has an exact-zero factor (``_window_rule``).
"""

from __future__ import annotations

import sys
from array import array
from itertools import groupby

from .errors import DecayNotCertified, PrecisionLoss
from .local import INF, LocalNum, _grid_product, _grid_sum, embed_local

_FIELD_CODES = {array(code).itemsize: code for code in "BHILQ"}


class TSeries:
    __slots__ = ("place", "order", "runs")

    def __init__(self, place, coeffs):
        self._set(place, [(1, c) for c in coeffs])

    @classmethod
    def from_runs(cls, place, runs):
        """The series of the (count, LocalNum) runs, in the order of t.

        A LocalNum with digits becomes runs of count one, runs of count zero
        are dropped, and neighbouring zeros with the same nu merge.
        """
        out = cls.__new__(cls)
        out._set(place, runs)
        return out

    def _set(self, place, runs):
        merged = []
        for n, c in runs:
            _push(merged, n, c)
        self.place = place
        self.runs = tuple(merged)
        self.order = sum(n for n, _ in merged)

    @property
    def coeffs(self):
        """The coefficients a_0, ..., a_(D-1), expanded from the runs."""
        return tuple(c for n, c in self.runs for _ in range(n))

    @classmethod
    def one(cls, place, D, window):
        unit = LocalNum(place, 0, (1,) + (0,) * (window - 1))
        zero = LocalNum.zero_to_precision(place, window)
        return cls.from_runs(place, ((min(D, 1), unit), (D - 1, zero)))

    @classmethod
    def zero(cls, place, D, window):
        return cls.from_runs(
            place, ((D, LocalNum.zero_to_precision(place, window)),))

    @classmethod
    def from_local_coeffs(cls, place, coeffs, D, window):
        """Pad a finite coefficient list up to order D with zeros known to
        pi^window (not exact zeros)."""
        coeffs = coeffs[:D]
        return cls.from_runs(
            place, [(1, c) for c in coeffs]
            + [(D - len(coeffs), LocalNum.zero_to_precision(place, window))])

    @classmethod
    def from_ratk_poly(cls, place, ratk_coeffs, D, window):
        """Embed a polynomial in t with coefficients in k."""
        return cls.from_local_coeffs(
            place, [embed_local(c, place, window) for c in ratk_coeffs], D, window)

    def coeff(self, i):
        if not 0 <= i < self.order:
            raise IndexError("coefficient index out of range")
        for n, c in self.runs:
            if i < n:
                return c
            i -= n

    def truncate(self, D):
        """The series mod t^D."""
        if D >= self.order:
            return self
        return TSeries.from_runs(self.place, _cut(self.runs, D))

    def clip(self, N):
        """Every coefficient truncated at pi^N (exact zeros stay exact)."""
        return TSeries.from_runs(
            self.place, [(n, c.truncate(N)) for n, c in self.runs])

    def residual(self, N):
        """(ord, exact) of the series read modulo pi^N.

        ord is the least of min(nu, N) over the coefficients that are not
        exact zeros, INF when there are none; exact is True when one of them
        has a digit below pi^N, so that ord is its valuation.
        """
        low = min((c.nu for _, c in self.runs), default=INF)
        exact = any(c.coeffs and c.nu < N for _, c in self.runs)
        return (low if low == INF else min(low, N)), exact

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
        an exact zero a_n passes b_n through in a sum.  Only a pair with a
        digit below c is packed; it is a run of count one.
        """
        self._check(other)
        place = self.place
        out = []
        spans = []              # (index in out, base, cutoff, a_n, b_n)
        for n, x, y in _aligned(self.runs, other.runs):
            if y.nu == INF:
                out.append((n, x))
                continue
            if x.nu == INF and not negate:
                out.append((n, y))
                continue
            cut = min(x.cutoff, y.cutoff)
            base = min(x.nu, y.nu)
            if cut > base:
                spans.append((len(out), base, cut, x, y))
                out.append(None)
            else:
                out.append((n, LocalNum.zero_to_precision(place, cut)))
        if spans:
            # row r holds span r, from its base on
            S = max(cut - base for _, base, cut, _, _ in spans)
            pa, pb = [], []
            for r, (_, base, cut, x, y) in enumerate(spans):
                for c, pieces in ((x, pa), (y, pb)):
                    if c.coeffs and c.nu < cut:
                        pieces.append((r * S + c.nu - base,
                                       c.coeffs[:cut - c.nu]))
            rows = _grid_sum(place.ctx, pa, pb, S,
                             [cut - base for _, base, cut, _, _ in spans],
                             negate)
            for (k, base, _, _, _), (lo, digits) in zip(spans, rows):
                out[k] = (1, LocalNum(place, base + lo, digits))
        return TSeries.from_runs(place, out)

    def __mul__(self, other):
        self._check(other)
        D = min(self.order, other.order)
        a, b = _cut(self.runs, D), _cut(other.runs, D)
        place = self.place
        ctx = place.ctx
        # The coefficients with digits form a grid per operand: coefficient i
        # is t row i - ta (ta the first with digits), its pi^nu digit column
        # nu - oa.  One packed product convolves both grids; row r of the
        # product holds coefficient ta + tb + r from pi^(oa + ob) on.
        ra, rb = _live(a), _live(b)
        cuts = _window_rule(a, b, D)
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
                      for cut in _expand(cuts, first,
                                         ra[-1][0] + rb[-1][0] + 1)]
            if any(widths):
                rows = _grid_product(
                    ctx, [((i - ta) * C + c.nu - oa, c.coeffs) for i, c in ra],
                    [((j - tb) * C + c.nu - ob, c.coeffs) for j, c in rb],
                    C, widths, min(len(ra), len(rb)) * min(wa, wb))
        out = []
        pos = 0
        for n, cut in cuts:
            if cut is None:
                out.append((n, LocalNum.exact_zero(place)))
                pos += n
                continue
            # zeros below, the product rows inside, and zeros above the run
            zero = LocalNum.zero_to_precision(place, cut)
            lo = min(max(first, pos), pos + n)
            hi = min(max(first + len(rows), pos), pos + n)
            out.append((lo - pos, zero))
            for lead, digits in rows[lo - first:hi - first]:
                out.append((1, LocalNum(place, oa + ob + lead, digits)
                            if digits else zero))
            out.append((pos + n - hi, zero))
            pos += n
        return TSeries.from_runs(place, out)

    def scale(self, x):
        """Multiply every coefficient by the LocalNum x: one packed product.

        Coefficient n gets LocalNum's product window: the min(W(a_n), W(x))
        digits from nu(a_n) + nu(x) on, or an exact zero when a factor is one.
        """
        self._check(x)
        place = self.place
        live = [c for _, c in self.runs if c.coeffs] if x.coeffs else []
        rows = iter(())
        if live:
            wa = max(len(c.coeffs) for c in live)
            xd = x.coeffs[:wa]
            S = wa + len(xd) - 1                 # a row's full convolution
            rows = iter(_grid_product(
                place.ctx, [(r * S, c.coeffs) for r, c in enumerate(live)],
                [(0, xd)], S, [min(len(c.coeffs), len(xd)) for c in live],
                min(wa, len(xd))))
        out = []
        for n, c in self.runs:
            if c.nu == INF or x.nu == INF:
                out.append((n, LocalNum.exact_zero(place)))
            elif c.coeffs and x.coeffs:
                lo, digits = next(rows)
                out.append((1, LocalNum(place, c.nu + x.nu + lo, digits)))
            else:
                out.append((n, LocalNum.zero_to_precision(
                    place, min(c.nu + x.cutoff, x.nu + c.cutoff))))
        return TSeries.from_runs(place, out)

    def t_shift(self, n, window):
        """Multiply by t^n, n >= 0: the top n coefficients drop, and zeros
        known to pi^window fill t^0, ..., t^(n-1)."""
        if n < 0:
            raise ValueError("t_shift needs n >= 0")
        zero = LocalNum.zero_to_precision(self.place, window)
        n = min(n, self.order)
        return TSeries.from_runs(
            self.place, ((n, zero),) + _cut(self.runs, self.order - n))

    def pow(self, n):
        if n < 0:
            raise ValueError("negative powers of a TSeries")
        if n == 0:
            w = min((c.cutoff for _, c in self.runs), default=0)
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
        return all(not c.coeffs for _, c in self.runs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            parts.append(f"({c})*t^{i}" if i else f"({c})")
        return " + ".join(parts) + f" + O(t^{self.order})"


def _push(runs, n, c):
    """Append n copies of c to a run list: a coefficient with digits as n
    runs of one, a zero merged into an equal zero before it."""
    if n <= 0:
        return
    if c.coeffs:
        runs += [(1, c)] * n
        return
    if runs:
        m, last = runs[-1]
        if not last.coeffs and last.nu == c.nu:
            runs[-1] = (m + n, last)
            return
    runs.append((n, c))


def _cut(runs, D):
    """The runs of the first D coefficients."""
    out = []
    for n, c in runs:
        if D <= 0:
            break
        out.append((min(n, D), c))
        D -= n
    return tuple(out)


def _aligned(a, b):
    """(count, a_n, b_n) over the stretches where both run lists are constant."""
    a, b = iter(a), iter(b)
    (m, x), (n, y) = next(a, (0, None)), next(b, (0, None))
    while m and n:
        k = min(m, n)
        yield k, x, y
        m, n = m - k, n - k
        if not m:
            m, x = next(a, (0, None))
        if not n:
            n, y = next(b, (0, None))


def _live(runs):
    """(position, coefficient) of the coefficients with digits."""
    out = []
    pos = 0
    for n, c in runs:
        if c.coeffs:
            out.append((pos, c))
        pos += n
    return out


def _expand(runs, lo, hi):
    """The values of positions lo, ..., hi - 1 of (count, value) runs."""
    out = []
    pos = 0
    for n, v in runs:
        if pos >= hi:
            break
        k = min(pos + n, hi) - max(pos, lo)
        if k > 0:
            out += [v] * k
        pos += n
    return out


def _window_rule(a, b, D):
    """Cutoffs of the coefficients of a*b as (count, cutoff) runs.

    a and b are run lists of D coefficients.  Coefficient n is known modulo
    pi^c with c the minimum, over the pairs i + j = n with neither a_i nor
    b_j an exact zero, of min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)):
    the window that LocalNum's product and sum give term by term.  With no
    such pair the coefficient is an exact zero, and its cutoff reads None.

    Let Ba and Bb be the first positions of the last runs.  From
    n = Ba + Bb on, the pairs (a_i, b_(n-i)) take the same values for every
    n: (a_i, b_last) for i < Ba, (a_last, b_j) for j < Bb, and
    (a_last, b_last).  So only the coefficients up to Ba + Bb are computed,
    and the last one's cutoff holds up to t^(D-1).

    Both (min, +) convolutions run on fields packed into one integer (SWAR),
    one field per coefficient.  The rule is symmetric, so the passes go over
    the operand with fewer runs: one pass per stretch of equal (nu, cutoff),
    in which the minimum of the other operand's fields over the stretch's
    length comes from a table of power-of-two window minima.
    """
    if not D:
        return []
    M = min(D, 2 * D - a[-1][0] - b[-1][0] + 1)     # the fields computed
    a, b = _cut(a, M), _cut(b, M)
    if len(b) < len(a):
        a, b = b, a
    base = min((c.nu for _, c in a + b), default=INF)   # exact zeros: INF
    if base == INF:
        return [(D, None)]
    R = max(c.cutoff for _, c in a + b if c.nu != INF) - base
    # a value is at most R, a live pair at most 2R; bigger means no pair
    none = 2 * R + 1
    # fields of 1, 2, 4 or 8 bytes, with room for 3R + 1 and a guard bit
    size = next(w for w in (1, 2, 4, 8) if 8 * w > (3 * R + 1).bit_length())
    k = 8 * size
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * M, "little")
    guard = ones << (k - 1)
    full = (1 << M * k) - 1
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

    def table(value):
        arr = array(code)
        for n, c in b:
            arr += array(code, [none if c.nu == INF else value(c) - base]) * n
        return [int.from_bytes(fields(arr), "little")]

    tables = [table(lambda c: c.cutoff), table(lambda c: c.nu)]

    def window(t, L):
        levels = tables[t]          # levels[h]: minima over 2^h fields
        h = L.bit_length() - 1
        while len(levels) <= h:
            x = levels[-1]
            levels.append(smin(x, shift(x, 1 << (len(levels) - 1))))
        x = levels[h]
        return x if L == 1 << h else smin(x, shift(x, L - (1 << h)))

    acc = nones
    start = i = 0
    while i < len(a):
        L, c = a[i]
        v, cut = c.nu, c.cutoff
        i += 1
        while i < len(a) and a[i][1].nu == v and a[i][1].cutoff == cut:
            L += a[i][0]
            i += 1
        if v != INF:
            cand = smin(window(0, L) + (v - base) * ones,
                        window(1, L) + (cut - base) * ones)
            acc = smin(acc, shift(cand, start))
        start += L
    out = [(len(list(g)), None if f > 2 * R else f + 2 * base) for f, g in
           groupby(fields(array(code, acc.to_bytes(M * size, "little"))))]
    out[-1] = (out[-1][0] + D - M, out[-1][1])
    return out


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
    return TSeries.from_runs(f.place, [(m, c.qpow(n)) for m, c in f.runs])


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
    for _, c in f.runs:
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
        return f.coeff(0)
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
