"""Executable norm lemmas over the ring of functions regular away from v.

Everything is specialized to the rational base field: R_v = F_q[1/pi_v] for
a degree-one finite place, the automorphism-max norm collapses to |.|_v,
and the pigeonhole existence arguments become exact kernel computations
over F_q.  Norms are carried as integer exponents of q throughout ("q^n"
in reports), so every comparison is exact.
"""

from __future__ import annotations

import itertools

from .algebra import PolyA, RatK, fq_terms, parse_terms, schoolbook_mul
from .errors import (
    AssertionFailure, NoSolutionInBudget, RootCheckFailed, TooLarge,
)
from .linalg import fq_kernel
from .local import PlaceV


# -- elements of R_v -----------------------------------------------------

class RvElem:
    """A polynomial in 1/pi_v with F_q coefficients; ||x||_v = q^degree."""

    __slots__ = ("place", "coeffs")

    def __init__(self, place, coeffs):
        if not isinstance(place, PlaceV):
            raise ValueError("RvElem needs a degree-one finite place")
        coeffs = [int(c) for c in coeffs]
        if any(not 0 <= c < place.q for c in coeffs):
            raise ValueError("coefficients must be F_q element codes")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.place = place
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, place):
        return cls(place, ())

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree in 1/pi; -1 for zero."""
        return len(self.coeffs) - 1

    def norm_exp(self):
        """log_q of ||x||_v; None for zero."""
        return None if self.is_zero() else self.degree

    def ord_v(self):
        """v-adic valuation: -degree (None for zero)."""
        return None if self.is_zero() else -self.degree

    def __eq__(self, other):
        return (isinstance(other, RvElem) and self.place == other.place
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.place, self.coeffs))

    def _poly(self):
        # the coefficients of 1/pi, lifted to A for PolyA's arithmetic
        return PolyA(self.place.ctx, self.coeffs)

    def __add__(self, other):
        return RvElem(self.place, (self._poly() + other._poly()).coeffs)

    def __neg__(self):
        return RvElem(self.place, (-self._poly()).coeffs)

    def __sub__(self, other):
        return RvElem(self.place, (self._poly() - other._poly()).coeffs)

    def __mul__(self, other):
        return RvElem(self.place, (self._poly() * other._poly()).coeffs)

    def to_ratk(self):
        """The element of k: sum c_j / pi^j."""
        ctx = self.place.ctx
        d = max(len(self.coeffs) - 1, 0)
        pi = self.place.uniformizer()
        num = PolyA.zero(ctx)
        for j, c in enumerate(self.coeffs):
            if c:
                num = num + (pi ** (d - j)).scale(c)
        return RatK(num, pi ** d)

    def __str__(self):
        if self.is_zero():
            return "0"
        sym, cs = self.place.symbol, self.coeffs
        return "+".join(fq_terms(self.place.ctx, (
            (cs[j], f"{sym}^-{j}" if j else "")
            for j in range(len(cs) - 1, -1, -1) if cs[j])))

    def __repr__(self):
        return f"RvElem({self})"


def parse_rv(place, text):
    """Parse the canonical RvElem text form, e.g. "2*v^-3+v^-1+1"."""
    return RvElem(place, parse_terms(place.ctx, text, place.symbol, "^-"))


# -- Lemma: sup of a polynomial on a closed disk -------------------------

def sup_norm_disk(coeffs, r_exp):
    """log_q of sup_{|x| <= q^r_exp} |f(x)| for f = sum a_i t^i over k_v.

    Coefficients are LocalNum values with exact valuations (or exact
    zeros).  The sup equals max_i |a_i| r^i by the ultrametric.
    """
    best = None
    for i, a in enumerate(coeffs):
        if a.is_exact_zero():
            continue
        v = a.valuation()
        if v is None:
            raise ValueError("sup norm needs exact coefficient valuations")
        e = -v + i * r_exp
        if best is None or e > best:
            best = e
    if best is None:
        raise ValueError("sup norm of the zero polynomial")
    return best


def sup_norm_factored(lam, omegas, n_zero, r_exp):
    """Two-route sup norm for f = lam * t^n_zero * prod (1 - t/omega_i).

    Computes the factored formula |lam| r^n_zero prod_{0<|w|<r} r/|w| and
    cross-checks it against the coefficient route on the expanded product;
    disagreement raises AssertionFailure.
    """
    place = lam.place
    if lam.is_exact_zero():
        raise ValueError("leading constant must be nonzero")
    e = -lam.valuation() + n_zero * r_exp
    for w in omegas:
        wv = w.valuation()
        if wv is None:
            raise ValueError("zeros need exact valuations")
        if -wv < r_exp:          # |w| < r contributes r/|w|
            e += r_exp - (-wv)
    # expand and cross-check
    from .local import LocalNum
    coeffs = [lam]
    for w in omegas:
        winv = w.inv()
        nxt = []
        for i in range(len(coeffs) + 1):
            c = LocalNum.exact_zero(place)
            if i < len(coeffs):
                c = c + coeffs[i]
            if i > 0:
                c = c - coeffs[i - 1] * winv
            nxt.append(c)
        coeffs = nxt
    coeffs = [LocalNum.exact_zero(place)] * n_zero + coeffs
    other = sup_norm_disk(coeffs, r_exp)
    if other != e:
        raise AssertionFailure(
            f"sup-norm routes disagree: q^{e} vs q^{other}")
    return e


# -- Lemma: basic norm bounds in R_v -------------------------------------

def norm_bound_checks(x):
    """Norm inequalities for nonzero x in R_v; returns (norm, |x|_v) exps.

    With the base field itself as coefficient field the inequalities read
    ||x|| >= 1 and |x|_v >= ||x||^0 = 1, and in fact |x|_v = ||x||_v here.
    """
    if x.is_zero():
        raise ValueError("norm bounds apply to nonzero elements")
    n = x.norm_exp()
    a = -x.ord_v()
    if n < 0:
        raise AssertionFailure("norm of a nonzero element below 1")
    if a < 0:
        raise AssertionFailure("|x|_v of a nonzero R_v element below 1")
    return n, a


# -- Lemma: Liouville-type inequality ------------------------------------

def liouville_check(f_coeffs, lam, mu, place):
    """Liouville inequality for a root lam of f = sum a_i z^i, a_i in A.

    Verifies by exact synthetic division that lam is a root of multiplicity
    at least mu, then checks |lam|_v^mu >= (max_i size(a_i))^(-1) with
    size(a) = q^(deg a) the infinite-place absolute value.  Returns
    (lhs_exp, rhs_exp, True).
    """
    if mu < 1:
        raise ValueError("multiplicity must be >= 1")
    if lam.is_zero():
        raise ValueError("the inequality concerns nonzero roots")
    coeffs = [RatK(c) if isinstance(c, PolyA) else c for c in f_coeffs]
    if all(c.is_zero() for c in coeffs):
        raise ValueError("zero polynomial")
    work = list(coeffs)
    for _ in range(mu):
        # synthetic division by (z - lam):
        # quotient b_{n-1} = a_n, b_{i-1} = a_i + lam b_i, remainder f(lam)
        n = len(work) - 1
        b = [RatK.zero(lam.ctx)] * n
        carry = work[n]
        for i in range(n - 1, -1, -1):
            b[i] = carry
            carry = work[i] + lam * carry
        if not carry.is_zero():
            raise RootCheckFailed(
                f"not a root to multiplicity {mu}: remainder {carry}")
        work = b if b else [RatK.zero(lam.ctx)]
    lhs_exp = -mu * place.ord_ratk(lam)            # log_q |lam|^mu
    sizes = [c.num.degree for c in coeffs if not c.is_zero()]
    rhs_exp = -max(sizes)                          # log_q (max size)^(-1)
    if lhs_exp < rhs_exp:
        raise AssertionFailure(
            f"Liouville inequality violated: q^{lhs_exp} < q^{rhs_exp}")
    return lhs_exp, rhs_exp, True


# -- Lemma: counting norm balls ------------------------------------------

def norm_ball_count(place, n, budget=200000):
    """#{x in R_v : ||x||_v <= q^n} by explicit enumeration; equals q^(n+1).

    Cross-checks the Riemann-Roch-shaped closed form q^(n+1) (one extra
    dimension from the constants).
    """
    if n < 0:
        raise ValueError("exponent must be >= 0")
    q = place.q
    if q ** (n + 1) > budget:
        raise TooLarge(f"enumeration of {q ** (n + 1)} elements refused")
    count = 0
    for tup in itertools.product(range(q), repeat=n + 1):
        x = RvElem(place, tup)
        ne = x.norm_exp()
        if ne is None or ne <= n:
            count += 1
    if count != q ** (n + 1):
        raise AssertionFailure("ball count disagrees with the closed form")
    return count


# -- Lemma: small solutions of underdetermined systems -------------------

def rvt_norm_exp(entry):
    """Norm of an R_v[t] polynomial: max over coefficients."""
    exps = [c.norm_exp() for c in entry if not c.is_zero()]
    return max(exps) if exps else None


def small_solution(M, C_exp, deg_budget, place):
    """A nonzero kernel vector of an r x s matrix over R_v[t], kept small.

    The pigeonhole of the existence lemma is replaced by an exact kernel
    computation: the ball {||x|| < C^(r/(s-r)), deg_t <= deg_budget} is an
    F_q-vector space with basis pi^(-j) t^m, and M x = 0 is F_q-linear in
    the coordinates.  The returned x is re-verified exactly.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows >= cols:
        raise ValueError("the system must be strictly underdetermined")
    if deg_budget < 0:
        raise ValueError(f"deg-budget must be >= 0, got {deg_budget}")
    mnorm = max((rvt_norm_exp(e) or 0) for row in M for e in row)
    if mnorm >= C_exp:
        raise ValueError("matrix norm must be below C")
    # the largest integer below C r/(s - r) is ceil(C r/(s - r)) - 1
    d_x = -(-C_exp * rows // (cols - rows)) - 1
    if d_x < 0:
        raise NoSolutionInBudget("the norm ball contains only zero")
    e_t = deg_budget
    # unknowns: c[j][jj][m] multiplying pi^(-jj) t^m in coordinate j
    unknowns = []
    for j in range(cols):
        for jj in range(d_x + 1):
            for m in range(e_t + 1):
                unknowns.append((j, jj, m))
    eq_rows = {}
    ctx = place.ctx
    for col_idx, (j, jj, m) in enumerate(unknowns):
        for i in range(rows):
            entry = M[i][j]
            for tm, c in enumerate(entry):
                for pdeg, cf in enumerate(c.coeffs):
                    if not cf:
                        continue
                    row = eq_rows.setdefault((i, jj + pdeg, m + tm), {})
                    row[col_idx] = ctx.add(row.get(col_idx, 0), cf)
    nunk = len(unknowns)
    mat = [tuple(row.get(c, 0) for c in range(nunk))
           for row in eq_rows.values()]
    kernel = fq_kernel(ctx, mat, nunk)
    sol = next((v for v in kernel if any(v)), None)
    if sol is None:
        raise NoSolutionInBudget(
            "no kernel vector inside the norm ball at this degree budget")
    x = []
    for j in range(cols):
        coeff_lists = [[0] * (d_x + 1) for _ in range(e_t + 1)]
        for col_idx, (jj_, jj, m) in enumerate(unknowns):
            if jj_ == j and sol[col_idx]:
                coeff_lists[m][jj] = sol[col_idx]
        x.append(tuple(RvElem(place, cl) for cl in coeff_lists))
    _verify_small_solution(M, x, C_exp, place)
    return tuple(x)


def _verify_small_solution(M, x, C_exp, place):
    if all(c.is_zero() for entry in x for c in entry):
        raise AssertionFailure("produced the zero vector")
    zero = RvElem.zero(place)
    for row in M:
        prods = [schoolbook_mul(e, xi, zero) for e, xi in zip(row, x)]
        acc = [zero] * max([len(prod) for prod in prods] + [1])
        for prod in prods:
            for i, c in enumerate(prod):
                acc[i] = acc[i] + c
        if any(not c.is_zero() for c in acc):
            raise AssertionFailure("claimed solution does not annihilate M")
    nx = max(rvt_norm_exp(entry) or 0 for entry in x)
    rows, cols = len(M), len(x)
    if not nx * (cols - rows) < C_exp * rows:        # nx < C r/(s - r)
        raise AssertionFailure("solution norm exceeds the lemma bound")
