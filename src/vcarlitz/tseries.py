"""Truncated power series in t with LocalNum coefficients.

A TSeries holds the coefficients a_0, ..., a_(D-1) of a Tate-algebra
element modulo t^D; each coefficient carries its own precision window.
Twisting is forward only: coefficients are raised to q-th powers by exact
multiplication, never coefficientwise on digits.
"""

from __future__ import annotations

from .errors import DecayNotCertified, PrecisionLoss
from .local import INF, LocalNum, embed_local


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
        if self.place != other.place:
            raise ValueError("series live at different places")

    def __add__(self, other):
        self._check(other)
        D = min(self.order, other.order)
        return TSeries(self.place,
                       [self.coeffs[i] + other.coeffs[i] for i in range(D)])

    def __neg__(self):
        return TSeries(self.place, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        D = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for n in range(D):
            acc = None
            for i in range(n + 1):
                term = a[i] * b[n - i]
                acc = term if acc is None else acc + term
            out.append(acc)
        return TSeries(self.place, out)

    def scale(self, x):
        """Multiply every coefficient by the LocalNum x."""
        return TSeries(self.place, [c * x for c in self.coeffs])

    def t_shift(self, n, window):
        """Multiply by t^n (drops the top n coefficients)."""
        zero = LocalNum.zero_to_precision(self.place, window)
        return TSeries(self.place, (zero,) * n + self.coeffs[:self.order - n])

    def pow(self, n):
        if n < 0:
            raise ValueError("negative powers of a TSeries")
        if n == 0:
            w = min((c.cutoff for c in self.coeffs), default=0)
            return TSeries.one(self.place, self.order, int(w) if w is not INF else 1)
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


def ts_arith(f, g, op):
    """Dispatch form: op in {add, mul}."""
    if op == "add":
        return f + g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown op {op!r}")


def frobenius_twist(f, n=1):
    """Raise each coefficient to the q^n power (exact powering)."""
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
