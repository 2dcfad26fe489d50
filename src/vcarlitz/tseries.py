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
grids, t by pi, in one call (``algebra._grid_product``).  Their digits are
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

A difference-equation residual is one number, so it is read without
building a series: ``residual_order`` takes a base and terms a * g (a
t-polynomial's embedded coefficients acting on a series) and finds the
order of base - sum a * g modulo pi^N from the least window and one
accumulation of the digit products that land below it, pair by pair, or
by one grid product for a term with dense digits, as in the product.
"""

from __future__ import annotations

import bisect
import heapq
import itertools

from .algebra import _grid_product, _packed_product
from .local import INF, LocalNum


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


def _live(runs):
    """(position, coefficient) of the coefficients with digits."""
    out = []
    pos = 0
    for n, c in runs:
        if c.coeffs:
            out.append((pos, c))
        pos += n
    return out


def _known(runs):
    """(position, count, nu, cutoff) of each run that is not an exact zero,
    read once."""
    out = []
    pos = 0
    for n, c in runs:
        if c.nu != INF:
            out.append((pos, n, c.nu, c.nu + len(c.coeffs)))
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

    A run of a at i with m coefficients and a run of b at j with n
    coefficients pair up on exactly the coefficients i + j, ...,
    i + j + m + n - 2, all with the same value.  So the cutoffs are the
    lower envelope of one span per pair of runs, swept by start with a heap
    of (value, end).  Each run's position, count, nu and cutoff are read
    once, before the pairs.
    """
    ys = _known(b)
    spans = []
    for i, m, u, c in _known(a):
        for j, n, v, d in ys:
            start = i + j
            if start >= D:
                break
            end, x, y = start + m + n - 1, u + d, v + c
            spans.append((start, end if end < D else D, x if x < y else y))
    spans.sort()
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


def residual_order(place, base, terms, N):
    """The order modulo pi^N of base - sum_k a_k * g_k, without building it.

    base is a TSeries, or None for zero; a term is (coeffs, g), the
    embedded coefficients c_0, c_1, ... of a t-polynomial a (at most g's
    order of them) and a TSeries g.  The order is the one of the series
    route: each a * g built as the product of the coefficients, padded with
    exact zeros, by g, its coefficient n capped at N and at N + nu(c_m) for
    each c_m, n < m, that is not an exact zero (an exact zero becoming a
    zero known to pi^cap); the products subtracted from base as TSeries,
    over D = min(order of base, orders of the g) coefficients; and the
    result read modulo pi^N, as the least min(nu, N) over its coefficients
    that are not exact zeros (INF when there are none).

    Why the same number comes out.  Truncation commutes with addition: a
    LocalNum sum is known modulo its operands' least cutoff, with the
    digits of the exact sum below it, and an exact-zero operand passes the
    other through.  A capped product is never an exact zero.  So row n of
    the result is an exact zero only when base_n is one and there are no
    terms; otherwise it is known modulo pi^C_n, the least of cutoff(base_n),
    the product windows min(nu(c_m) + cutoff(g_j), nu(g_j) + cutoff(c_m))
    over m + j = n, and the caps, with the digits of
    base_n - sum c_m g_(n-m) below it.  The reading takes min(nu, N) per
    row, so the order is min(L, p): L the least min(C_n, N), and p the
    least position of a nonzero digit of a row n below min(C_n, N).  A
    digit at or above L cannot lower that, and every row is known below L,
    so L is all that is needed of the windows, and only the digit products
    that land below pi^L are added, next to base's digits there.  The digit
    of pi^p in row n sits at key p * D + n, so the least key holding a
    nonzero digit gives p.

    A term's digit products are added pair by pair of nonzero digits, or,
    when those pairs outnumber the positions of the term's product grid
    below pi^L, read from one packed product of the two grids
    (``_packed_product``, the route ``_grid_product`` takes by the same
    rule).  The built series took that rule, so dense operands cost one
    big-integer product here too.
    """
    D = min(([] if base is None else [base.order])
            + [g.order for _, g in terms], default=0)
    low = N if terms else INF
    if base is not None:
        low = min([low] + [c for i, _, _, c in _known(base.runs) if i < D])
    for coeffs, g in terms:
        # the pairs of c_m with the runs of g at j < D - m: the least
        # nu(c_m) + cutoff(g_j) and nu(g_j) + cutoff(c_m) are c_m's nu and
        # cutoff plus the least cutoff and nu over those runs, kept as
        # prefix minima over the runs in the order of t
        known = _known(g.runs)
        starts = [j for j, _, _, _ in known]
        nus = list(itertools.accumulate((v for _, _, v, _ in known), min))
        cuts = list(itertools.accumulate((d for _, _, _, d in known), min))
        for m, c in enumerate(coeffs):
            if c.nu == INF:
                continue
            if m and N + c.nu < low:
                low = N + c.nu
            k = bisect.bisect_left(starts, D - m)
            if k:
                low = min(low, c.nu + cuts[k - 1],
                          nus[k - 1] + c.nu + len(c.coeffs))
    if D == 0 or low == INF:
        return INF
    low = min(low, N)
    ctx = place.ctx
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    lim = low * D
    acc = {}
    if base is not None:
        for n, c in _live(_cut(base.runs, D)):
            for k, d in enumerate(c.coeffs, c.nu):
                if k >= low:
                    break
                if d:
                    acc[k * D + n] = d
    get = acc.get
    for coeffs, g in terms:
        live_c = [(m, c) for m, c in enumerate(coeffs[:D]) if c.coeffs]
        live_g = _live(_cut(g.runs, D))
        if not live_c or not live_g:
            continue
        # a digit of c_m at u meets those of g at w >= ob, the least nu of g,
        # and reaches below pi^low only when u + w < low; the same for g's
        oa = min(c.nu for _, c in live_c)
        ob = min(y.nu for _, y in live_g)
        xs = [(m, c.nu, c.coeffs[:max(low - ob - c.nu, 0)]) for m, c in live_c]
        ys = [(j, y.nu, y.coeffs[:max(low - oa - y.nu, 0)]) for j, y in live_g]
        # the rule of algebra._grid_product: when the pairs of nonzero digits
        # outnumber the positions of the product grid (the rows from
        # t^(ta + tb) to the last that a pair reaches below t^D, and
        # C = low - oa - ob columns at stride 2C - 1, so no row spills into
        # the next), one packed product of the grids is cheaper
        ta, tb, C = xs[0][0], ys[0][0], low - oa - ob
        rows = min(D, xs[-1][0] + ys[-1][0] + 1) - ta - tb
        stride = 2 * C - 1
        pairs = (sum(len(ds) - ds.count(0) for _, _, ds in xs)
                 * sum(len(ds) - ds.count(0) for _, _, ds in ys))
        if 0 < rows * stride < pairs:
            grid = _packed_product(
                ctx, [((m - ta) * stride + u - oa, ds) for m, u, ds in xs],
                [((j - tb) * stride + w - ob, ds) for j, w, ds in ys],
                stride, [C] * rows, min(len(xs), len(ys)) * C)
            for n, (lo, ds) in enumerate(grid, ta + tb):
                for k, d in enumerate(ds, oa + ob + lo):
                    if d:
                        key = k * D + n
                        acc[key] = add[get(key, 0)][neg[d]]
            continue
        # digits as (key offset, value): p * D + j for g_j; p * D + m and
        # the row of the F_q product table for c_m, negated, so that the
        # products are subtracted
        gk = [(j, [(k * D + j, d) for k, d in enumerate(ds, w) if d])
              for j, w, ds in ys]
        for m, u, ds_c in xs:
            ck = [(k * D + m, mul[neg[d]])
                  for k, d in enumerate(ds_c, u) if d]
            for j, ds in gk:
                if m + j >= D:
                    break
                for ka, row in ck:
                    for kb, d in ds:
                        key = ka + kb
                        if key >= lim:
                            break
                        acc[key] = add[get(key, 0)][row[d]]
    first = min((key for key, d in acc.items() if d), default=lim)
    return min(low, first // D)


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
