"""Anderson t-modules for polylogarithm values.

A t-module here is the data (B0, B1) of a twisted-polynomial action
phi_theta(z) = B0 z + B1 z^(1) with B0 = theta*Id + N0, N0 nilpotent over
F_q.  Tensor powers of the Carlitz module realize depth-one (star)
polylogarithms through the last coordinate of the module logarithm; higher
depth modules are ingested as data files and carry no authority until
validate_tmodule has checked them against the direct series.

The point of the module is extended v-adic evaluation: for arguments that
are merely v-integral the defining series does not converge, but the
residue annihilator a(theta) moves the evaluation point into the domain of
the logarithm, and d[a]^{-1} Log(phi_a(point)) recovers the value.

The exponential coefficients Q_i and the logarithm coefficients P_i both
solve a twisted Sylvester equation P (delta + N0) - N0 P = R, with
delta = theta^{q^i} - theta.  N0 is nilpotent over F_q, so F_q^dim has a
basis B adapted to the flag ker N0 < ker N0^2 < ... < F_q^dim; N0 maps each
step of the flag into the one before, so U = S N0 B (S = B^{-1}) is
strictly upper triangular.  With P = B P' S and R' = S R B the equation
reads delta P' + P' U - U P' = R', whose entry (r, c) is
delta P'[r][c] = R'[r][c] + sum_{l>r} U[r][l] P'[l][c]
                 - sum_{l<c} P'[r][l] U[l][c].
The right side reads only entries below (r, c) in its column and left of
it in its row, so back-substitution from the last row and the first
column gives the unique solution with one division by delta per entry
(_sylvester_solve), over k and in the completions alike; the changes of
basis are F_q combinations.
"""

from __future__ import annotations

from math import comb

from .algebra import (
    FqContext, PolyA, RatK, parse_fields, parse_poly, parse_ratk,
)
from .errors import (
    AnnihilationFailure, AssertionFailure, ConvergenceNotCertified,
    DomainError, ParseError, PrecisionLoss,
)
from .linalg import (
    fq_kernel, fq_min_poly, fq_rref, fqmat_identity, fqmat_mul, kmat,
)
from .local import LocalNum, PlaceV, embed_local, geometric_prefixes
from .polylog import (
    DEF_V, ArgTuple, Index, _plan, cmspl_eval, domain_check,
)


class TModuleSpec:
    """A t-module together with the polylog value it claims to realize."""

    def __init__(self, ctx, dim, N0, B1, readout, index, args, point,
                 test_points=(), name="anonymous"):
        if len(N0) != dim or any(len(r) != dim or not all(
                0 <= int(x) < ctx.q for x in r) for r in N0):
            raise ValueError("N0 must be a dim x dim matrix over F_q")
        if len(B1) != dim or any(len(r) != dim for r in B1):
            raise ValueError("B1 must be a dim x dim matrix over A")
        self.ctx = ctx
        self.dim = dim
        self.N0 = tuple(tuple(int(x) for x in r) for r in N0)
        self.B1 = kmat([[RatK(e) if isinstance(e, PolyA) else e for e in r]
                        for r in B1])
        if any(not e.is_poly() for r in self.B1 for e in r):
            raise ValueError("B1 entries must lie in A")
        self.readout = tuple(readout)
        self.index = index
        self.args = args
        self.point = tuple(x if isinstance(x, RatK) else RatK(x)
                           for x in point)
        self.test_points = tuple(
            (tp_args, tuple(x if isinstance(x, RatK) else RatK(x)
                            for x in tp_point))
            for tp_args, tp_point in test_points)
        self.name = name
        self.validated = False
        # B: columns adapted to the flag of kernels of the powers of N0,
        # which reaches F_q^dim exactly when N0 is nilpotent
        basis, power = [], self.N0
        for _ in range(dim):
            for v in fq_kernel(ctx, power, dim):
                if len(fq_rref(ctx, basis + [v])[1]) > len(basis):
                    basis.append(v)
            power = fqmat_mul(ctx, power, self.N0)
        if len(basis) < dim:
            raise ValueError("N0 is not nilpotent")
        B = tuple(zip(*basis))
        rref, _ = fq_rref(ctx, [r + e for r, e in zip(B, fqmat_identity(dim))])
        S = tuple(r[dim:] for r in rref)
        self._flag = (B, S, fqmat_mul(ctx, fqmat_mul(ctx, S, self.N0), B))
        # (place, W) -> _LocalLogCoeffs
        self._llog_cache = {}

    def __repr__(self):
        return (f"TModuleSpec({self.name}, dim={self.dim}, "
                f"validated={self.validated})")


def tensor_carlitz_spec(s, place):
    """Tensor power of the Carlitz module realizing Li_(s)(u) at depth one.

    The superdiagonal/corner conventions are not trusted: they are pinned
    down by validate_tmodule against the direct series on the test points
    pi, pi^2 and pi^2 + pi, pi the uniformizer of the degree-one place,
    which lie in its convergence domain at every lambda.
    """
    if s < 1:
        raise ValueError("tensor power must be >= 1")
    ctx = place.ctx
    N0 = [[1 if j == i + 1 else 0 for j in range(s)] for i in range(s)]
    zero, one = PolyA.zero(ctx), PolyA.one(ctx)
    B1 = [[one if (i, j) == (s - 1, 0) else zero for j in range(s)]
          for i in range(s)]
    pi = RatK(place.uniformizer())
    tests = []
    for u in (pi, pi * pi, pi * pi + pi):
        tests.append((ArgTuple([u]),
                      tuple([RatK.zero(ctx)] * (s - 1) + [u])))
    u1 = pi
    return TModuleSpec(
        ctx, s, N0, B1, readout=(s - 1,), index=Index([s]),
        args=ArgTuple([u1]),
        point=tuple([RatK.zero(ctx)] * (s - 1) + [u1]),
        test_points=tests, name=f"tensor-carlitz-{s}")


def with_args(spec, args, point):
    """Same module, different claimed argument tuple and evaluation point."""
    out = TModuleSpec(spec.ctx, spec.dim, spec.N0,
                      [[e.num for e in r] for r in spec.B1],
                      spec.readout, spec.index, args, point,
                      spec.test_points, spec.name)
    out.validated = spec.validated
    # the coefficients depend on N0, B1, the place and W only
    out._llog_cache = spec._llog_cache
    return out


# -- the module action ---------------------------------------------------

def _phi_theta(spec, z):
    """phi_theta(z) = theta z + N0 z + B1 z^(1) for z over k."""
    theta, zq = RatK.T(spec.ctx), [x.frobenius() for x in z]
    out = []
    for x, n0, b1 in zip(z, spec.N0, spec.B1):
        acc = theta * x + _fq_combo(n0, z)
        for b, y in zip(b1, zq):
            acc = acc + b * y
        out.append(acc)
    return tuple(out)


def _embedded_matrix(M, place, W):
    return kmat([[embed_local(e, place, W) for e in r] for r in M])


def _scale_coord(x, c):
    """x times the nonzero constant c of F_q, x in k or in a completion."""
    if c == 1:
        return x
    if isinstance(x, LocalNum):
        return x.scale_fq(c)
    return x * RatK(PolyA.constant(x.ctx, c))


def _zero_like(x):
    """The exact zero of the ring x lives in: k or its completion."""
    if isinstance(x, LocalNum):
        return LocalNum.exact_zero(x.place)
    return RatK.zero(x.ctx)


def tm_action(spec, a, z):
    """phi_a(z) for a in A, acting on a vector over k."""
    z = tuple(z)
    if len(z) != spec.dim:
        raise ValueError("point has the wrong dimension")
    out = [_zero_like(z[0])] * spec.dim
    cur = z
    for j, c in enumerate(a.coeffs):
        if j:
            cur = _phi_theta(spec, cur)
        if c:
            out = [acc + _scale_coord(x, c) for acc, x in zip(out, cur)]
    return tuple(out)


# -- the twisted Sylvester equation -------------------------------------

def _fq_combo(coeffs, xs):
    """sum of c x over the nonzero c of F_q, x in k or in a completion."""
    acc = None
    for c, x in zip(coeffs, xs):
        if c:
            t = _scale_coord(x, c)
            acc = t if acc is None else acc + t
    return _zero_like(xs[0]) if acc is None else acc


def _fq_conj(L, X, R):
    """L X R for L, R over F_q and X over k or a completion, by F_q
    combinations only.  A pass with F maps Y to (F Y)^T, so the passes with
    L and R^T give (R^T (L X)^T)^T = L X R."""
    for F in (L, tuple(zip(*R))):
        X = [[_fq_combo(row, col) for row in F] for col in zip(*X)]
    return kmat(X)


def _sylvester_solve(spec, R, dinv):
    """The P with P (delta + N0) - N0 P = R, given dinv = 1/delta.

    Entries lie in k (RatK) or in a completion (LocalNum).  In the flag
    basis B of the spec (S = B^{-1}, U = S N0 B strictly upper triangular),
    P'[r][c] = dinv (R'[r][c] + sum_{l>r} U[r][l] P'[l][c]
    - sum_{l<c} P'[r][l] U[l][c]) with R' = S R B, for r from the last row
    up and c from the first column on (see the module docstring); then
    P = B P' S.
    """
    ctx, dim = spec.ctx, spec.dim
    B, S, U = spec._flag
    Rp = _fq_conj(S, R, B)
    P = [[None] * dim for _ in range(dim)]
    for r in reversed(range(dim)):
        for c in range(dim):
            coeffs = (1, *U[r][r + 1:], *(ctx.neg(U[l][c]) for l in range(c)))
            terms = (Rp[r][c], *(P[l][c] for l in range(r + 1, dim)),
                     *P[r][:c])
            P[r][c] = _fq_combo(coeffs, terms) * dinv
    return _fq_conj(B, P, S)


# -- residue annihilator -------------------------------------------------

def _require_integral_b1(spec, place):
    """Refuse a B1 with an entry of negative valuation at v: the residue
    reduction and the log's valuation bound both rest on B1 being v-integral."""
    if any(place.ord_ratk(e) < 0 for r in spec.B1 for e in r):
        raise DomainError("B1 is not v-integral")


def residue_annihilator(spec, place):
    """Annihilator of the residue module at a degree-one finite place.

    On the residue field F_q the q-power map is the identity, so phi_theta
    reduces to the plain matrix M = (B0 + B1)|_{theta = -lambda}; the
    minimal polynomial a of M then satisfies ord_v(phi_a(z)) >= 1 for every
    v-integral z.  Returns (a, M invertible?).
    """
    if not isinstance(place, PlaceV):
        raise ValueError("residue annihilator needs a finite place")
    _require_integral_b1(spec, place)
    ctx = spec.ctx
    root = place.theta_root()
    M = []
    for i in range(spec.dim):
        row = []
        for j in range(spec.dim):
            c = spec.B1[i][j].num.eval_fq(root)
            if i == j:
                c = ctx.add(c, root)
            c = ctx.add(c, spec.N0[i][j])
            row.append(c)
        M.append(tuple(row))
    M = tuple(M)
    a = fq_min_poly(ctx, M)
    # M is invertible exactly when the minimal polynomial has nonzero
    # constant term
    invertible = bool(a.coeffs[0])
    return a, invertible


# -- logarithm evaluation ------------------------------------------------
#
# Exact coefficient matrices over k (the test oracle) have polynomials of
# degree ~ q^i.  Evaluation solves the same recursions in windowed local
# arithmetic, whose windows bound the error of every retained digit.

def _delta_inv(place, i, W):
    """1/delta_i to W digits at a degree-one place, where delta_i =
    theta^(q^i) - theta = pi^(q^i) - pi: -pi^(-1) / (1 - pi^(q^i - 1))."""
    out = geometric_prefixes(place, [place.q ** i - 1], W)[-1].shift(-1)
    return out.scale_fq(place.ctx.neg(1))


class _LocalLogCoeffs:
    """Windowed log coefficient matrices P_i at a fixed place and window.

    Log composed with phi_theta equals d[theta] composed with Log, which
    pins P_i down by the same twisted Sylvester equation as the exponential
    coefficients but with right-hand side R_i = -P_{i-1} B1^(i-1).  Unlike
    the compositional-inverse route, this recursion never multiplies by
    twisted matrices of large negative valuation, so the windows stay put.
    Each P_i is solved by _sylvester_solve.

    Bounds, at a degree-one place with c = 2 dim - 1: ord P_i >= -c i and
    cutoff(P_i) >= W - c i, for every nilpotent N0.  Write v(Y) and e(Y)
    for the least nu and the least cutoff of the entries of Y.  A sum keeps
    v and e at least the least of its terms', F_q multiples lose nothing,
    and a product entry is known to min(nu_a + cutoff_b, nu_b + cutoff_a).
    B1^(i-1) has v >= 0 and e >= W (A is v-integral, and qpow keeps the
    window), so R = -P_(i-1) B1^(i-1) has v(R) >= v(P_(i-1)) and
    e(R) >= min(e(P_(i-1)), v(P_(i-1)) + W); R' = S R B and P = B P' S
    are F_q combinations.  1/delta_i = -pi^(-1) / (1 - pi^(q^i - 1)) has
    nu -1 and cutoff W - 1, so a product by it takes (v, e) to at least
    (v - 1, min(v + W, e) - 1).  Entry (r, col) of P' is that product of
    R'[r][col] plus F_q multiples of entries below it or left of it, so it
    ends a chain of at most k = (dim - r) + col <= c such products, and
    induction along the chains gives v(P') >= v(R) - c and
    e(P') >= min(e(R), v(R) + W) - c.  From P_0 = Id (v = 0, e = W),
    induction on i gives both bounds.
    """

    def __init__(self, spec, place, W):
        _require_integral_b1(spec, place)
        self.spec = spec
        self.place = place
        self.W = W
        ident = kmat([[LocalNum.unit_one(place, W) if i == j
                       else LocalNum.exact_zero(place)
                       for j in range(spec.dim)] for i in range(spec.dim)])
        self.P = [ident]
        self._B1tw = _embedded_matrix(spec.B1, place, W)  # B1^(i-1)

    def ensure(self, i_max):
        spec, place, W = self.spec, self.place, self.W
        zero = LocalNum.exact_zero(place)
        while len(self.P) <= i_max:
            i = len(self.P)
            if i > 1:
                self._B1tw = kmat([[x.qpow() for x in r]
                                   for r in self._B1tw])
            # R = -P_(i-1) B1^(i-1) from the entries of B1^(i-1) that are
            # not exact zeros, each negated once: a product with an
            # exact-zero factor is an exact zero, a sum passes one through,
            # and negation is additive (B1 of the shipped modules has one)
            cols = [[(l, -row[c]) for l, row in enumerate(self._B1tw)
                     if not row[c].is_exact_zero()] for c in range(spec.dim)]
            R = kmat([[sum((x[l] * b for l, b in col), zero) for col in cols]
                      for x in self.P[i - 1]])
            self.P.append(_sylvester_solve(spec, R, _delta_inv(place, i, W)))


def _local_log_coeffs(spec, place, W):
    key = (place, W)
    out = spec._llog_cache.get(key)
    if out is None:
        out = spec._llog_cache[key] = _LocalLogCoeffs(spec, place, W)
    return out


def _log_plan(spec, q, m, prec):
    """_plan of the log's term bound q^i m - (2 dim - 1) i at a point of
    least ord m (log_at_point derives it)."""
    c = 2 * spec.dim - 1
    return _plan(lambda i: q ** i * m - c * i, prec)


def log_at_point(spec, w, place, prec):
    """Log(w) = sum_(i < I) P_i w^(i), with I proved a priori.

    _LocalLogCoeffs proves ord P_i >= -c i, c = 2 dim - 1, so with m the
    least ord of w the term P_i w^(i) has ord >= f(i) = q^i m - c i.  f is
    convex, and _plan gives the least I with f(j) >= prec for every
    j >= I: those terms vanish mod pi^prec, so only P_0, ..., P_(I-1) are
    computed.  An I past the plan's cap raises ConvergenceNotCertified; a
    P_i below -c i contradicts the proof and raises AssertionFailure.

    Each term is formed to prec only.  A product x y is known to
    min(nu_x + cutoff_y, nu_y + cutoff_x), and x.truncate(prec - nu_y) to
    min(cutoff_x, prec - nu_y), so P[r][j].truncate(prec - nu(z_j)) times
    z_j.truncate(prec - nu(P[r][j])), z = w^(i), has the full product's
    digits below its cutoff min(prec, full cutoff).  A pair with nu sum
    >= prec (an exact zero among them) is 0 mod pi^prec, known to prec, and
    is skipped.  So the sum has the full sum's digits below prec, and falls
    short of prec (raising PrecisionLoss) exactly when that one does: never,
    with the coefficients' window from _log_window, which depends on
    (prec, dim, q) only.
    """
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
    q, c = place.q, 2 * spec.dim - 1
    try:
        I, _ = _log_plan(spec, q, m, prec)
    except PrecisionLoss:
        raise ConvergenceNotCertified(
            "logarithm truncation index beyond the plan's cap") from None
    coeffs = _local_log_coeffs(spec, place, _log_window(spec, q, prec))
    coeffs.ensure(I - 1)
    acc = [LocalNum.zero_to_precision(place, prec)] * spec.dim
    for i in range(I):
        z = [x.qpow(i) for x in w]
        for r, row in enumerate(coeffs.P[i]):
            for x, y in zip(row, z):
                if x.nu < -c * i:
                    raise AssertionFailure(
                        f"log coefficient P_{i} has ord {x.nu}, below the "
                        f"proved bound -{c}*{i}")
                if x.nu + y.nu < prec:
                    acc[r] = acc[r] + (x.truncate(prec - y.nu)
                                       * y.truncate(prec - x.nu))
    out = tuple(x.truncate(prec) for x in acc)
    if any(x.cutoff < prec for x in out):
        raise PrecisionLoss(
            "logarithm window fell short of the requested precision")
    return out


def _log_window(spec, q, prec):
    """The window that makes each term P_i z^(i) of log_at_point known to
    prec from both sides of the product, for a point z of ord m >= 1 (the
    log refuses any other): the digits W of the coefficients P_i, and the
    good digits C (as embed_local counts them) of the point.

    With c = 2 dim - 1, _LocalLogCoeffs proves nu(P_i) >= -c i and
    cutoff(P_i) >= W - c i.  From the coefficients' side, z^(i) has
    nu >= q^i m >= q^i, so the term is known to W - c i + q^i.  From the
    point's side, a coordinate z_j = pi^(n_j) (unit) with C good digits is
    known to n_j + C, and qpow keeps the C digits, so z_j^(q^i) is known
    to q^i n_j + C and its product with an entry of P_i to
    nu(P_i) + q^i n_j + C >= C - c i + q^i.  (Frobenius alone would keep
    q^i times the absolute precision; qpow keeps the relative window of
    the product of q^i copies.)  Both sides ask for the same
    prec - min_(i >= 0) (q^i - c i), which is prec - floor for the plan
    of the log's own term bound at m = 1 (floor is that minimum, or prec
    when the minimum is not below prec, and then one digit is enough).  At
    least one digit keeps each valuation exact.  A result still known
    below prec raises PrecisionLoss in log_at_point.
    """
    return max(1, prec - _log_plan(spec, q, 1, prec)[1])


def _da_inv_row(spec, a):
    """The readout row of d[a]^(-1), d[a] = a(B0), read in k[N0].

    B0 = theta Id + N0 with N0^dim = 0, so Taylor's formula gives
    d[a] = sum_(k < dim) c_k N0^k, c_k = (H^k a)(theta), where H^k is the
    k-th Hasse derivative, (H^k a)_j = C(j + k, k) a_(j+k) mod p.  As
    c_0 = a(theta) is nonzero, the inverse in k[N0] is the power series
    sum_(n < dim) e_n N0^n, e_0 = 1/c_0 and
    e_n = -e_0 sum_(1 <= i <= n) c_i e_(n-i).  Row r is
    sum_n e_n (N0^n)[r], F_q combinations of the e_n.
    """
    ctx, dim = spec.ctx, spec.dim
    c = [RatK(PolyA(ctx, [ctx.mul(comb(j, k) % ctx.p, x)
                          for j, x in enumerate(a.coeffs[k:], k)]))
         for k in range(dim)]
    e = [c[0].inv()]
    for n in range(1, dim):
        e.append(-e[0] * sum((c[i] * e[n - i] for i in range(1, n + 1)
                              if not c[i].is_zero()), RatK.zero(ctx)))
    powers = [fqmat_identity(dim)[spec.readout[0]]]
    while len(powers) < dim:
        powers.append(fqmat_mul(ctx, powers[-1:], spec.N0)[0])
    return [_fq_combo(col, e) for col in zip(*powers)]


def extended_cmspl_v(spec, place, prec, annihilator=None):
    """Extended-domain v-adic CMSPL value carried by a validated t-module.

    Pipeline: w = phi_a(point) for the residue annihilator a (every
    coordinate must gain positive valuation), then the designated
    coordinate of d[a]^{-1} Log(w), d[a] = a(theta Id + N0).

    With e = max(0, -ord d[a]^{-1}), the log is taken to prec + e, so each
    product d_j Log(w)_j is known to ord d_j + prec + e >= prec from the
    log's side; d_j is embedded with prec - ord d_j - ord Log(w)_j digits,
    which closes the other side at prec.  w itself is embedded to the
    window _log_window derives for the log at prec + e.  A value still
    known below prec raises PrecisionLoss.
    """
    if not spec.validated:
        raise DomainError(
            "t-module spec is not validated; run validate_tmodule first")
    if not domain_check(spec.index, spec.args, DEF_V, place):
        raise DomainError("arguments outside the v-adic defining domain")
    a = annihilator
    if a is None:
        a, _ = residue_annihilator(spec, place)
    w = tm_action(spec, a, spec.point)
    for x in w:
        if not x.is_zero() and place.ord_ratk(x) < 1:
            raise AnnihilationFailure(
                "annihilator left a v-unit coordinate: " + str(x))
    row = _da_inv_row(spec, a)
    ords = [None if e.is_zero() else place.ord_ratk(e) for e in row]
    lprec = prec + max(0, -min(o for o in ords if o is not None))
    C = _log_window(spec, place.q, lprec)
    w_loc = tuple(embed_local(x, place, C) for x in w)
    logw = log_at_point(spec, w_loc, place, lprec)
    out = LocalNum.exact_zero(place)
    for e, o, x in zip(row, ords, logw):
        if o is not None and not x.is_exact_zero():
            out = out + embed_local(e, place, max(1, prec - o - x.nu)) * x
    out = out.truncate(prec)
    if out.cutoff < prec:
        raise PrecisionLoss(
            "extended value is known below the requested precision")
    return out


# -- validation ----------------------------------------------------------

class ValidationCertificate:
    """Outcome of checking a t-module against the direct series."""

    def __init__(self, results):
        self.results = tuple(results)  # (args, point, ok, residual_ord)
        self.ok = all(r[2] for r in results)

    def __repr__(self):
        return f"ValidationCertificate(ok={self.ok})"


def validate_tmodule(spec, place, prec=30):
    """Certify a spec by matching log readouts to cmspl_eval on test points.

    Requires at least three test points strictly inside the convergence
    domain; a failed check marks the spec unusable for extended evaluation.
    Each test point is embedded to the window _log_window derives for the
    log at prec.
    """
    from .polylog import CONV_V
    if len(spec.test_points) < 3:
        raise ValueError("validation needs at least three test points")
    results = []
    C = _log_window(spec, place.q, prec)
    for tp_args, tp_point in spec.test_points:
        if not domain_check(spec.index, tp_args, CONV_V, place):
            raise ValueError("test point outside the convergence domain")
        z = tuple(embed_local(x, place, C) for x in tp_point)
        try:
            logz = log_at_point(spec, z, place, prec)
            got = logz[spec.readout[0]]
            want = cmspl_eval(spec.index, tp_args, place, prec)
            diff = got - want
            ok = diff.zero_to(prec)
            residual = None if ok else diff.valuation_lower_bound()
        except ConvergenceNotCertified:
            ok, residual = False, None
        results.append((tp_args, tp_point, ok, residual))
    cert = ValidationCertificate(results)
    spec.validated = cert.ok
    return cert


# -- spec files ----------------------------------------------------------

def parse_tmodule_spec(text):
    """Parse a t-module spec file, the schema of the shipped data/tmodules."""
    fields = parse_fields(text, repeated=("n0-row", "b1-row", "test-point"))
    try:
        ctx = FqContext(int(fields["p"]), int(fields.get("e", "1")))
        dim = int(fields["dim"])
        N0 = [[int(x) for x in row.split()] for row in fields["n0-row"]]
        B1 = [[parse_poly(ctx, e.strip()) for e in row.split(",")]
              for row in fields["b1-row"]]
        readout = tuple(int(x) - 1 for x in fields["readout"].split())
        index = Index.parse(fields["index"])
        args = ArgTuple([parse_ratk(ctx, x) for x in fields["args"].split(",")])
        point = [parse_ratk(ctx, x) for x in fields["point"].split(",")]
        test_points = []
        for t in fields["test-point"]:
            a_s, _, p_s = t.partition("|")
            tp_args = ArgTuple([parse_ratk(ctx, x) for x in a_s.split(",")])
            tp_point = [parse_ratk(ctx, x) for x in p_s.split(",")]
            test_points.append((tp_args, tuple(tp_point)))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad t-module spec: {exc}") from exc
    return TModuleSpec(ctx, dim, N0, B1, readout, index, args, point,
                       test_points, name=fields.get("name", "anonymous"))
