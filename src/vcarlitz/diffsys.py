"""Frobenius difference systems and their certificates.

A system is a pair (Phi, psi) with psi = Phi^(1) psi^(1) in forward-twisted
form.  Phi is stored *twisted*: the matrix kept here is Phi^(1), whose
entries are honest polynomials in t over k even when Phi itself would need
q-th roots of the arguments.  psi vectors are built lazily at a requested
truncation (t^D, pi^N) from the omega product and the deformation series.

Entries of Phi are "t-polynomials": tuples of RatK coefficients, ascending
in t.
"""

from __future__ import annotations

import math

from .algebra import RatK, schoolbook_mul
from .errors import CertificationFailed, DomainError
from .local import PlaceV, embed_local
from .polylog import (
    _omega_power, cmpl_eval, deformation_build, deformation_specialize,
    domain_check, pi_tilde, CONV_V,
)
from .tseries import frobenius_twist, residual_order

INF = float("inf")


# -- t-polynomials over k ------------------------------------------------

def tp_normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def tp_one(ctx):
    return (RatK.one(ctx),)


def tp_add(a, b, ctx):
    if not a or not b:
        return tp_normalize(a or b)
    n = max(len(a), len(b))
    zero = RatK.zero(ctx)
    return tp_normalize([(a[i] if i < len(a) else zero)
                         + (b[i] if i < len(b) else zero) for i in range(n)])


def tp_mul(a, b, ctx):
    return tp_normalize(schoolbook_mul(a, b, RatK.zero(ctx)))


def tp_scale(a, c, ctx):
    if c == RatK.one(ctx):
        return tp_normalize(a)
    return tp_normalize([x * c for x in a])


def tp_shift(a, n, ctx):
    if not a:
        return ()
    return (RatK.zero(ctx),) * n + tuple(a)


def tp_eval_k(a, x):
    """Evaluate at x in k (Horner)."""
    if not a:
        return RatK.zero(x.ctx)
    out = a[-1]
    for c in reversed(a[:-1]):
        out = out * x + c
    return out


def tp_apply(a, g, place, N):
    """The term a * g of a residual, for ``tseries.residual_order``.

    The t-polynomial a acts on the TSeries g truncated to g's order, so its
    coefficients c_0, ..., c_(D-1), D = g's order, are embedded to pi^N.
    ``residual_order`` gives the product the windows of the sum over m of
    c_m * (t^m g), t^m g padded by zeros known to pi^N.
    """
    return [embed_local(c, place, N) for c in a[:g.order]], g


# -- the system ----------------------------------------------------------

class DiffSystem:
    """A (Phi, psi) pair in twisted form, with lazy psi construction.

    psi_build(D, N, rows) returns psi mod (t^D, pi^N) as a sequence of
    length size: a series at every index in rows, or at every index when
    rows is None.  An entry outside rows may be None, so a builder asked
    for some rows builds only what those rows need.
    """

    def __init__(self, place, phi_twisted, psi_build, weight, alpha,
                 index=None, args=None, structural_det=False,
                 kind="generic"):
        self.place = place
        self.phi = tuple(tuple(r) for r in phi_twisted)
        self.size = len(self.phi)
        self._psi_build = psi_build
        self.weight = weight
        self.alpha = alpha
        self.index = index
        self.args = args
        self.structural_det = structural_det
        self.kind = kind

    def psi(self, D, N, rows=None):
        return tuple(self._psi_build(D, N, rows))

    def __repr__(self):
        return f"DiffSystem({self.kind}, size={self.size}, w={self.weight})"


def _one_minus_alpha_q_t(place, ks):
    """(1 - alpha t)^k twisted, (1 - alpha^q t)^k over k[t], for each k in ks.

    Coefficient j is binom(k, j) (-alpha^q)^j, with the binomial read in
    F_p, whose constant m < p has element code m.  One list of powers of
    -alpha^q, up to the largest k asked for, serves every k; a binomial
    scales a coefficient's numerator by a field constant.  Returns a dict
    from k to the t-polynomial.
    """
    ctx = place.ctx
    ks = set(ks)
    x = -RatK(place.uniformizer()).frobenius()
    powers = [RatK.one(ctx)]
    for _ in range(max(ks, default=0)):
        powers.append(powers[-1] * x)
    zero = RatK.zero(ctx)
    out = {}
    for k in ks:
        coeffs = []
        for j in range(k + 1):
            m = math.comb(k, j) % ctx.p
            c = powers[j]
            coeffs.append(c if m == 1 else zero if m == 0
                          else RatK(c.num.scale(m), c.den))
        out[k] = tp_normalize(coeffs)
    return out


def build_omega_system(place):
    """The rank-one system psi = (Omega), Phi = (1 - alpha t)."""
    alpha = RatK(place.uniformizer())
    phi = ((_one_minus_alpha_q_t(place, [1])[1],),)

    def build(D, N, rows):
        return [_omega_power(place, 1, D, N)
                if rows is None or 0 in rows else None]

    return DiffSystem(place, phi, build, weight=1, alpha=alpha,
                      structural_det=True, kind="omega")


def build_cmpl_system(s, u, place):
    """The paper's bidiagonal system carrying Li_s(u) at the finite place.

    psi = (Omega^w, Omega^(s_2+..+s_r) L_(s_1), ..., L_s) with w the weight;
    the twisted Phi has rows
      (1 - alpha^q t)^w                                   [row 1]
      u_l t^(s_1+..+s_(l-1)) (1 - alpha^q t)^(s_l+..+s_r) [subdiagonal]
      t^(s_1+..+s_l) (1 - alpha^q t)^(s_(l+1)+..+s_r)     [diagonal]
    so its last column is (0,..,0,t^w).
    """
    if not isinstance(place, PlaceV):
        raise DomainError("difference systems live at a finite place")
    if not domain_check(s, u, CONV_V, place):
        raise DomainError("arguments outside the v-adic convergence domain")
    ctx = place.ctx
    alpha = RatK(place.uniformizer())
    r = s.depth
    w = s.weight
    ell = r + 1
    phi = [[()] * ell for _ in range(ell)]
    tails = [sum(s[l:]) for l in range(1, r + 1)]   # s_(l+1)+..+s_r
    factor = _one_minus_alpha_q_t(
        place, [w] + tails + [s[l] + t for l, t in enumerate(tails)])
    phi[0][0] = factor[w]
    for l, tail in enumerate(tails, 1):
        head = w - tail - s[l - 1]                  # s_1+..+s_(l-1)
        sub = tp_scale(factor[s[l - 1] + tail], u[l - 1], ctx)
        phi[l][l - 1] = tp_shift(sub, head, ctx)
        phi[l][l] = tp_shift(factor[tail], head + s[l - 1], ctx)

    exps = [w] + tails          # psi_l carries Omega^exps[l]

    def build(D, N, rows):
        rows = range(ell) if rows is None else rows
        # the powers of Omega the rows carry; deformation_build reads its
        # Omega^(s_l) from the same list
        omega = {l: _omega_power(place, exps[l], D, N)
                 for l in rows if exps[l]}
        # one prefix pass builds every deformation row (l > 0); row 0,
        # Omega^w, needs none
        deps = [None] + (deformation_build(s, u, place, D, N)
                         if any(rows) else [None] * r)
        out = [None] * ell
        for l in rows:
            out[l] = (omega[0] if l == 0 else
                      deps[l] * omega[l] if exps[l] else deps[l])
        return out

    return DiffSystem(place, phi, build, weight=w, alpha=alpha,
                      index=s, args=u, structural_det=True, kind="cmpl")


def block_sum(systems):
    """Direct sum, with omega-padding so all blocks share the top weight.

    Blocks of weight w_j < w_1 are multiplied by (1 - alpha t)^(w_1 - w_j)
    (in twisted form) and their psi by Omega^(w_1 - w_j); this preserves the
    twisted difference equation block by block.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("block_sum of nothing")
    place = systems[0].place
    alpha = systems[0].alpha
    for sysj in systems[1:]:
        if sysj.place != place or sysj.alpha != alpha:
            raise ValueError("blocks live at different places or parameters")
    ctx = place.ctx
    w1 = max(sysj.weight for sysj in systems)
    offsets = [0]
    for sysj in systems:
        offsets.append(offsets[-1] + sysj.size)
    total = offsets[-1]
    phi = [[()] * total for _ in range(total)]
    pads = [w1 - sysj.weight for sysj in systems]
    factor = _one_minus_alpha_q_t(place, pads)
    for sysj, pad, off in zip(systems, pads, offsets):
        for i in range(sysj.size):
            for j in range(sysj.size):
                entry = sysj.phi[i][j]
                if entry:
                    phi[off + i][off + j] = (
                        tp_mul(factor[pad], entry, ctx) if pad else entry)

    def build(D, N, rows):
        # each block's own rows; a block with none is not built
        asks = [None if rows is None else
                {j - lo for j in rows if lo <= j < hi}
                for lo, hi in zip(offsets, offsets[1:])]
        out = []
        for sysj, pad, ask in zip(systems, pads, asks):
            if ask is not None and not ask:
                out.extend((None,) * sysj.size)
                continue
            block = sysj.psi(D, N, ask)
            if pad:
                block = [None if p is None else
                         p * _omega_power(place, pad, D, N) for p in block]
            out.extend(block)
        return out

    return DiffSystem(place, phi, build, weight=w1, alpha=alpha,
                      structural_det=all(s.structural_det for s in systems),
                      kind="block[" + ",".join(s.kind for s in systems) + "]")


# -- residual verification ----------------------------------------------

class Residual:
    """Outcome of a difference-equation check at truncation (t^D, pi^N)."""

    def __init__(self, N, ord_bound):
        self.N = N
        self.ord = ord_bound     # INF means zero to the working window

    @property
    def is_zero(self):
        return self.ord >= self.N

    def __repr__(self):
        return f"Residual(ord={self.ord}, zero={self.is_zero})"


def verify_difference(sys, D, N):
    """Gauss-norm bound of psi - Phi^(1) psi^(1) mod (t^D, pi^N)."""
    place = sys.place
    psi = [p.truncate(D) for p in sys.psi(D, N)]
    psi_tw = [frobenius_twist(p) for p in psi]
    worst = INF
    for i in range(sys.size):
        terms = [tp_apply(a, g, place, N)
                 for a, g in zip(sys.phi[i], psi_tw) if a]
        worst = min(worst, residual_order(place, psi[i], terms, N))
    return Residual(N, worst)


# -- specialization ------------------------------------------------------

def _specialization_holds(sys, N, prec, target):
    """Whether psi(alpha^(-q^N)) of a CMPL system ends in target^(q^N).

    Every entry but the last carries a positive power of
    Omega = prod_(i>=1) (1 - alpha^(q^i) t): Omega^w, and Omega^(s_(l+1) +
    ... + s_r) on the deformation series of the prefix of depth l < r.  At
    N >= 1 the factor i = N of Omega vanishes at t = alpha^(-q^N), so those
    entries are exact zeros and condition (4) is the last entry alone, as
    condition (3) is at N = 0.  That entry is the deformation series of the
    whole index at t = alpha^(-q^N), whose literal value carries
    pi^(-N w q^N) (w the system's weight; see deformation_specialize), so
    it is compared times pi^(N w q^N) with target^(q^N).  At N = 0 the
    shift and the q-power are the identity.
    """
    last = deformation_specialize(sys.index, sys.args, sys.place, N, prec)
    return (last.shift(N * sys.weight * sys.place.q ** N)
            - target.qpow(N)).zero_to(prec)


# -- MPL-property certificate -------------------------------------------

class MplCertificate:
    """Checked conditions of the f(t)-type MPL property of weight w."""

    def __init__(self, conditions):
        self.conditions = conditions

    @property
    def ok(self):
        return all(self.conditions.values())

    def __bool__(self):
        return self.ok

    def failed(self):
        return sorted(k for k, v in self.conditions.items() if not v)

    def __repr__(self):
        return f"MplCertificate(ok={self.ok}, failed={self.failed()})"


def mpl_certificate(sys, w, ftype, N_list, prec=30):
    """Check the f(t)-type MPL property of weight w on a built system.

    ftype is the polynomial f as a t-polynomial over k.  Condition (1)
    (non-vanishing of det Phi along the twisted orbit of alpha^(-1)) holds
    when the determinant, computed for the system at hand, equals
    c t^a (1 - alpha^q t)^b, whose zeros never meet alpha^(-q^(-i)); any
    other determinant fails it.  Conditions (2)-(4) are checked
    numerically to prec; (4) only over the finite N_list.  A system that is
    not a CMPL system is refused.
    """
    if sys.kind != "cmpl":
        raise CertificationFailed("specialization needs a constructed system")
    place = sys.place
    conditions = {}
    # (1) determinant structure
    conditions[1] = _det_structural(sys)
    # (2) last column (0,..,0,f)
    col_ok = all(not sys.phi[i][sys.size - 1] for i in range(sys.size - 1))
    conditions[2] = col_ok and (
        sys.phi[sys.size - 1][sys.size - 1] == tp_normalize(ftype))
    # (3) psi(alpha^{-1}) = (pitilde^w, ..., Z pitilde^w); the first entry
    # of psi(alpha^{-1}) is pitilde to the system's weight
    pt = pi_tilde(sys.alpha, place, prec)
    ptw = pt.pow(w)
    first_ok = (w == sys.weight
                or (pt.pow(sys.weight) - ptw).zero_to(prec))
    Z = cmpl_eval(sys.index, sys.args, place, prec)
    target = Z * ptw
    last_ok = _specialization_holds(sys, 0, prec, target)
    conditions[3] = first_ok and last_ok
    # (4) psi(alpha^{-q^N}) = (0,...,0,(Z pitilde^w)^{q^N})
    ok4 = True
    for N in N_list:
        if N < 1:
            raise ValueError("condition (4) indices must be positive")
        ok4 = _specialization_holds(sys, N, prec, target) and ok4
    conditions[4] = ok4
    return MplCertificate(conditions)


def _det_structural(sys):
    """True when det of the twisted matrix is c * t^a * (1 - alpha^q t)^b.

    Such determinants vanish only at t = 0 and t = alpha^(-q), so they are
    nonzero along the twisted orbit alpha^(-q^(-i)), i >= 1.

    The test runs on the diagonal blocks.  k is a block boundary when no row
    above k has a nonzero entry in column k or to its right; Phi is then
    block lower triangular, and det Phi is the product of the determinants
    of its diagonal blocks.  k[t] is a UFD whose units are k^x, and t and
    1 - alpha^q t are non-associate primes, so by unique factorization a
    product has the form c t^a (1 - alpha^q t)^b, c in k^x, exactly when
    every factor has it.  A dense Phi is one block; a built Phi, lower
    triangular, is n blocks of size 1.
    """
    phi, ctx = sys.phi, sys.place.ctx
    cuts, reach = [], 0   # reach: 1 + the last nonzero column of rows above
    for k, row in enumerate(phi):
        if reach <= k:
            cuts.append(k)
        reach = max([reach] + [j + 1 for j, e in enumerate(row) if e])
    cuts.append(sys.size)
    bodies = []
    for lo, hi in zip(cuts, cuts[1:]):
        det = _tp_det(tuple(row[lo:hi] for row in phi[lo:hi]), ctx)
        if not det:
            return False
        a = 0
        while det[a].is_zero():
            a += 1
        bodies.append(det[a:])
    base = _one_minus_alpha_q_t(sys.place, [len(b) - 1 for b in bodies])
    # (1 - alpha^q t)^b has constant term 1, so c is the body's first term
    return all(tuple(body) == tp_scale(base[len(body) - 1], body[0], ctx)
               for body in bodies)


def _tp_det(phi, ctx):
    """Determinant of a square matrix of t-polynomials.

    Laplace expansion along successive rows: the minor left after the first
    rows depends only on the columns still free, so it is memoized on that
    tuple, and a zero entry prunes its whole subtree.  An entry of the last
    row is its own minor, taken as is rather than multiplied by 1, so a
    1 x 1 block costs no arithmetic.  A triangular matrix costs O(n^2)
    steps, any pattern at most n * 2^n products.
    """
    n = len(phi)
    memo = {(): tp_one(ctx)}

    def minor(cols):
        out = memo.get(cols)
        if out is None:
            row = phi[n - len(cols)]
            out = ()
            for k, j in enumerate(cols):
                if not row[j]:
                    continue
                rest = cols[:k] + cols[k + 1:]
                term = tp_mul(row[j], minor(rest), ctx) if rest else row[j]
                if k % 2:
                    term = tp_scale(term, -RatK.one(ctx), ctx)
                out = tp_add(out, term, ctx)
            memo[cols] = out
        return out

    return minor(tuple(range(n)))


# -- vABP certification --------------------------------------------------

def vabp_certify(sys, gamma, rho, P, D, N):
    """Check a claimed linear relation certificate against the system.

    True iff P(gamma) = rho entrywise and P . psi vanishes mod (t^D, pi^N).
    det Phi is computed for every system first; unless it equals
    c t^a (1 - alpha^q t)^b the check refuses (CertificationFailed) rather
    than guesses.  An entry with P_j = 0 adds nothing to P . psi, so psi
    is built only on the support {j : P_j != 0}: a block no P_j reads is
    not built, and one read only at row 0 is Omega^w, with no deformation
    series.
    """
    if len(P) != sys.size or len(rho) != sys.size:
        raise ValueError("certificate vectors must match the system size")
    if not _det_structural(sys):
        raise CertificationFailed(
            "determinant non-vanishing along the twisted orbit could not "
            "be established for this system")
    for pj, rj in zip(P, rho):
        if tp_eval_k(pj, gamma) != rj:
            return False
    place = sys.place
    rows = [j for j, pj in enumerate(P) if pj]
    psi = sys.psi(D, N, set(rows))
    terms = [tp_apply(P[j], psi[j].truncate(D), place, N) for j in rows]
    return residual_order(place, None, terms, N) >= N
