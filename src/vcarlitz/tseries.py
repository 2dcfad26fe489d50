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

A sum, a difference and a scaling by one LocalNum walk the runs: each
stretch where the operands' runs are constant is one LocalNum sum or
product, with its window.  The product multiplies the operands' digit
grids, t by pi, in one call (``local._grid_product``).  Their digits are
mostly zero (a q^i-th power spreads digits q^i apart), so it adds the
product of each pair of nonzero digits into the product rows; when the
pairs outnumber the product's positions it makes one big-integer
multiplication of the packed grids instead (two-dimensional Kronecker
substitution, with a third axis for the F_p coordinates when q = p^e,
e > 1).  Either way its windows are those of the coefficient schoolbook
sum_(i+j=n) a_i * b_j: coefficient n is known modulo pi^c, c the minimum
over the pairs with no exact-zero factor of
min(nu(a_i) + cutoff(b_j), nu(b_j) + cutoff(a_i)), and is an exact zero
when every pair has an exact-zero factor (``_window_rule``).
"""

from __future__ import annotations

import heapq

from .local import INF, LocalNum, _grid_product


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
        """The order of the series read modulo pi^N: the least of min(nu, N)
        over the coefficients that are not exact zeros, INF when there are
        none."""
        low = min((c.nu for _, c in self.runs), default=INF)
        return low if low == INF else min(low, N)

    def _check(self, other):
        if not (self.place is other.place or self.place == other.place):
            raise ValueError("series live at different places")

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other when `negate`, one LocalNum sum per
        stretch where both run lists are constant.

        Coefficient n has LocalNum's sum window: known modulo pi^c,
        c = min(cutoff(a_n), cutoff(b_n)), with digits from
        min(nu(a_n), nu(b_n)) on; an exact-zero operand passes the other
        through (negated in a difference).
        """
        self._check(other)
        return TSeries.from_runs(self.place, [
            (n, x - y if negate else x + y)
            for n, x, y in _aligned(self.runs, other.runs)])

    def __mul__(self, other):
        self._check(other)
        D = min(self.order, other.order)
        a, b = _cut(self.runs, D), _cut(other.runs, D)
        place = self.place
        ctx = place.ctx
        # The coefficients with digits form a grid per operand: coefficient i
        # is t row i - ta (ta the first with digits), its pi^nu digit column
        # nu - oa.  One grid product convolves both grids; row r of the
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
        """Multiply every coefficient by the LocalNum x.

        Coefficient n gets LocalNum's product window: the min(W(a_n), W(x))
        digits from nu(a_n) + nu(x) on, or an exact zero when a factor is one.
        """
        self._check(x)
        return TSeries.from_runs(self.place,
                                 [(n, c * x) for n, c in self.runs])

    def t_shift(self, n, window):
        """Multiply by t^n, n >= 0: the top n coefficients drop, and zeros
        known to pi^window fill t^0, ..., t^(n-1)."""
        if n < 0:
            raise ValueError("t_shift needs n >= 0")
        zero = LocalNum.zero_to_precision(self.place, window)
        n = min(n, self.order)
        return TSeries.from_runs(
            self.place, ((n, zero),) + _cut(self.runs, self.order - n))

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


def _positions(runs):
    """(position, count, value) of each run."""
    out = []
    pos = 0
    for n, c in runs:
        out.append((pos, n, c))
        pos += n
    return out


def _live(runs):
    """(position, coefficient) of the coefficients with digits."""
    return [(i, c) for i, _, c in _positions(runs) if c.coeffs]


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

    A run of a at i with m coefficients and a run of b at j with n
    coefficients pair up on exactly the coefficients i + j, ...,
    i + j + m + n - 2, all with the same value.  So the cutoffs are the
    lower envelope of one interval per pair of runs, swept by start with a
    heap of (value, end).
    """
    spans = sorted(
        (i + j, min(i + j + m + n - 1, D),
         min(x.nu + y.cutoff, y.nu + x.cutoff))
        for i, m, x in _positions(a) if x.nu != INF
        for j, n, y in _positions(b) if y.nu != INF and i + j < D)
    out, heap = [], []
    pos = k = 0
    while pos < D:
        while k < len(spans) and spans[k][0] <= pos:
            _, end, value = spans[k]
            heapq.heappush(heap, (value, end))
            k += 1
        while heap and heap[0][1] <= pos:
            heapq.heappop(heap)
        stop = spans[k][0] if k < len(spans) else D
        value = None
        if heap:
            value, end = heap[0]
            stop = min(stop, end)
        if out and out[-1][1] == value:
            out[-1] = (out[-1][0] + stop - pos, value)
        else:
            out.append((stop - pos, value))
        pos = stop
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
