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
"""

from __future__ import annotations

from .algebra import (
    FqContext, PolyA, RatK, parse_fields, parse_poly, parse_ratk,
    theta_power_poly,
)
from .errors import (
    AnnihilationFailure, ConvergenceNotCertified, DomainError, ParseError,
    SingularStep,
)
from .linalg import (
    fq_min_poly, kmat, kmat_add, kmat_frobenius, kmat_identity, kmat_inv,
    kmat_mul, kmat_neg, kmat_poly_eval, kmat_scale, kmat_sub, kmat_zero,
)
from .local import LocalNum, PlaceV, embed_local
from .polylog import DEF_V, ArgTuple, Index, cmspl_eval, domain_check


class TModuleSpec:
    """A t-module together with the polylog value it claims to realize."""

    def __init__(self, ctx, dim, N0, B1, readout, index, args, point,
                 test_points=(), name="anonymous"):
        if len(N0) != dim or any(len(r) != dim for r in N0):
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
        self._nilpotency_check()
        # N0 lifted to k, and B0 = theta*Id + N0
        lift = kmat([[RatK(PolyA.constant(ctx, c)) for c in r]
                     for r in self.N0])
        self.N0k = lift
        theta = RatK.T(ctx)
        self.B0 = kmat_add(kmat_scale(kmat_identity(ctx, dim), theta), lift)
        self._log = _LogCoeffs(self)

    def _nilpotency_check(self):
        from .linalg import fqmat_mul
        M = self.N0
        for _ in range(self.dim):
            M = fqmat_mul(self.ctx, M, self.N0)
        if any(x for r in M for x in r):
            raise ValueError("N0 is not nilpotent")

    def __repr__(self):
        return (f"TModuleSpec({self.name}, dim={self.dim}, "
                f"validated={self.validated})")


def tensor_carlitz_spec(s, ctx):
    """Tensor power of the Carlitz module realizing Li_(s)(u) at depth one.

    The superdiagonal/corner conventions are not trusted: they are pinned
    down by validate_tmodule against the direct series on the test points.
    """
    if s < 1:
        raise ValueError("tensor power must be >= 1")
    N0 = [[1 if j == i + 1 else 0 for j in range(s)] for i in range(s)]
    zero, one = PolyA.zero(ctx), PolyA.one(ctx)
    B1 = [[one if (i, j) == (s - 1, 0) else zero for j in range(s)]
          for i in range(s)]
    T = RatK.T(ctx)
    tests = []
    for u in (T, T * T, T * T + T):
        tests.append((ArgTuple([u]),
                      tuple([RatK.zero(ctx)] * (s - 1) + [u])))
    u1 = T
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
    out._log = spec._log
    return out


# -- the module action ---------------------------------------------------

def _phi_theta(spec, z):
    if isinstance(z[0], LocalNum):
        place = z[0].place
        W = max([x.cutoff - x.nu for x in z if not x.is_exact_zero()],
                default=32)
        B0 = _embedded_matrix(spec, "B0", place, W)
        B1 = _embedded_matrix(spec, "B1", place, W)
        zq = [x.qpow() for x in z]
        out = []
        for i in range(spec.dim):
            acc = LocalNum.exact_zero(place)
            for j in range(spec.dim):
                acc = acc + B0[i][j] * z[j] + B1[i][j] * zq[j]
            out.append(acc)
        return tuple(out)
    zq = [x.frobenius() for x in z]
    out = []
    for i in range(spec.dim):
        acc = RatK.zero(spec.ctx)
        for j in range(spec.dim):
            acc = acc + spec.B0[i][j] * z[j] + spec.B1[i][j] * zq[j]
        out.append(acc)
    return tuple(out)


def _embedded_matrix(spec, which, place, W):
    cache = getattr(spec, "_embed_cache", None)
    if cache is None:
        cache = spec._embed_cache = {}
    key = (which, place, W)
    out = cache.get(key)
    if out is None:
        M = spec.B0 if which == "B0" else spec.B1
        out = kmat([[embed_local(e, place, W) for e in r] for r in M])
        cache[key] = out
    return out


def _scale_coord(x, c):
    if isinstance(x, LocalNum):
        return x.scale_fq(c)
    return x * RatK(PolyA.constant(x.ctx, c))


def tm_action(spec, a, z):
    """phi_a(z) for a in A, acting on a vector over k or over a completion."""
    z = tuple(z)
    if len(z) != spec.dim:
        raise ValueError("point has the wrong dimension")
    zero = (LocalNum.exact_zero(z[0].place) if isinstance(z[0], LocalNum)
            else RatK.zero(spec.ctx))
    out = [zero] * spec.dim
    cur = z
    for j, c in enumerate(a.coeffs):
        if j:
            cur = _phi_theta(spec, cur)
        if c:
            out = [acc + _scale_coord(x, c) for acc, x in zip(out, cur)]
    return tuple(out)


# -- exponential / logarithm coefficients --------------------------------

class _LogCoeffs:
    """Lazily extended coefficient matrices Q_i (exp) and P_i (log)."""

    def __init__(self, spec):
        self.spec = spec
        ident = kmat_identity(spec.ctx, spec.dim)
        self.Q = [ident]
        self.P = [ident]

    def ensure(self, i_max):
        spec = self.spec
        ctx = spec.ctx
        while len(self.Q) <= i_max:
            i = len(self.Q)
            R = kmat_mul(spec.B1, kmat_frobenius(self.Q[i - 1]))
            self.Q.append(_solve_twisted_sylvester(spec, i, R))
            # P_m = -sum_{i<m} P_i Q_{m-i}^(i)
            m = len(self.P)
            acc = kmat_zero(ctx, spec.dim, spec.dim)
            for j in range(m):
                acc = kmat_add(
                    acc, kmat_mul(self.P[j], kmat_frobenius(self.Q[m - j], j)))
            self.P.append(kmat_neg(acc))


def _solve_twisted_sylvester(spec, i, R):
    """Solve Q (theta^{q^i} Id + N0) - (theta Id + N0) Q = R over k.

    Dividing by delta = theta^{q^i} - theta turns this into a fixed point
    of the nilpotent map Q -> (N0 Q - Q N0)/delta, so plain iteration
    terminates; the fixed point is checked exactly.
    """
    ctx = spec.ctx
    delta = RatK(theta_power_poly(ctx, ctx.q ** i) - PolyA.T(ctx))
    dinv = delta.inv()
    N0 = spec.N0k
    Q = kmat_zero(ctx, spec.dim, spec.dim)
    for _ in range(2 * spec.dim + 2):
        nxt = kmat_scale(
            kmat_add(R, kmat_sub(kmat_mul(N0, Q), kmat_mul(Q, N0))), dinv)
        if nxt == Q:
            return Q
        Q = nxt
    raise SingularStep("twisted Sylvester iteration did not stabilize")


def explog_coeffs(spec, I_max):
    """The pair of coefficient lists (Q_0..Q_I, P_0..P_I)."""
    if I_max < 0:
        raise ValueError("I_max must be >= 0")
    spec._log.ensure(I_max)
    return spec._log.Q[:I_max + 1], spec._log.P[:I_max + 1]


# -- residue annihilator -------------------------------------------------

def residue_annihilator(spec, place):
    """Annihilator of the residue module at a degree-one finite place.

    On the residue field F_q the q-power map is the identity, so phi_theta
    reduces to the plain matrix M = (B0 + B1)|_{theta = -lambda}; the
    minimal polynomial a of M then satisfies ord_v(phi_a(z)) >= 1 for every
    v-integral z.  Returns (a, M invertible?).
    """
    if not isinstance(place, PlaceV):
        raise ValueError("residue annihilator needs a finite place")
    ctx = spec.ctx
    root = place.theta_root()
    M = []
    for i in range(spec.dim):
        row = []
        for j in range(spec.dim):
            b1 = spec.B1[i][j].num
            if place.ord_ratk(spec.B1[i][j]) < 0:
                raise DomainError("B1 is not v-integral")
            c = b1.eval_fq(root)
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
# Exact matrices over k are kept only for small indices (explog_coeffs);
# beyond that the entries involve polynomials of degree ~ q^i and exact
# rational arithmetic is hopeless.  Evaluation therefore recomputes the
# same recursions in windowed local arithmetic: valuation *lower bounds*
# read off the windows are sound inputs to the stopping rule, and the
# windows themselves bound the error of every retained digit.

def _lmat_zero(place, dim):
    z = LocalNum.exact_zero(place)
    return kmat([[z] * dim for _ in range(dim)])


def _lmat_add(A, B):
    return kmat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def _lmat_mul(A, B, place):
    dim = len(A)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = LocalNum.exact_zero(place)
            for l in range(dim):
                acc = acc + A[i][l] * B[l][j]
            row.append(acc)
        out.append(row)
    return kmat(out)


def _lmat_qpow(A, n=1):
    return kmat([[a.qpow(n) for a in r] for r in A])


def _lmat_n0(spec, A, place, side):
    """N0 @ A (side='left') or A @ N0 (side='right'), N0 over F_q."""
    dim = spec.dim
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = LocalNum.exact_zero(place)
            for l in range(dim):
                c = spec.N0[i][l] if side == "left" else spec.N0[l][j]
                x = A[l][j] if side == "left" else A[i][l]
                if c:
                    acc = acc + x.scale_fq(c)
            row.append(acc)
        out.append(row)
    return kmat(out)


def _delta_local(place, i, W):
    """theta^{q^i} - theta at a deg-1 place: equals pi^{q^i} - pi exactly."""
    qi = place.q ** i
    coeffs = [0] * W
    coeffs[0] = place.ctx.neg(1)
    if qi - 1 < W:
        coeffs[qi - 1] = 1
    return LocalNum(place, 1, coeffs)


class _LocalLogCoeffs:
    """Windowed log coefficient matrices P_i at a fixed place and window.

    Log composed with phi_theta equals d[theta] composed with Log, which
    pins P_i down by the same twisted Sylvester equation as the exponential
    coefficients but with right-hand side -P_{i-1} B1^(i-1).  Unlike the
    compositional-inverse route, this recursion never multiplies by twisted
    matrices of large negative valuation, so the windows stay put.
    """

    def __init__(self, spec, place, W):
        self.spec = spec
        self.place = place
        self.W = W
        ident = kmat([[LocalNum.unit_one(place, W) if i == j
                       else LocalNum.exact_zero(place)
                       for j in range(spec.dim)] for i in range(spec.dim)])
        self.P = [ident]
        self._B1tw = _embedded_matrix(spec, "B1", place, W)  # B1^(i-1)

    def ensure(self, i_max):
        spec, place, W = self.spec, self.place, self.W
        while len(self.P) <= i_max:
            i = len(self.P)
            if i > 1:
                self._B1tw = _lmat_qpow(self._B1tw)
            R = kmat([[-x for x in r]
                      for r in _lmat_mul(self.P[i - 1], self._B1tw, place)])
            dinv = _delta_local(place, i, W).inv()
            P = _lmat_zero(place, spec.dim)
            for _ in range(2 * spec.dim + 2):
                comm = _lmat_add(
                    _lmat_n0(spec, P, place, "left"),
                    kmat([[-x for x in r]
                          for r in _lmat_n0(spec, P, place, "right")]))
                P = kmat([[(a + b) * dinv for a, b in zip(ra, rb)]
                          for ra, rb in zip(R, comm)])
            self.P.append(P)


def _local_log_coeffs(spec, place, W):
    cache = getattr(spec, "_llog_cache", None)
    if cache is None:
        cache = spec._llog_cache = {}
    key = (place, W)
    out = cache.get(key)
    if out is None:
        out = _LocalLogCoeffs(spec, place, W)
        cache[key] = out
    return out


def _mat_ord_bound(P):
    """Sound lower bound for the valuation of the entries, or None if 0."""
    best = None
    for r in P:
        for e in r:
            if e.is_exact_zero():
                continue
            b = e.valuation_lower_bound()
            if best is None or b < best:
                best = b
    return best


def log_at_point(spec, w, place, prec, I_cap=64):
    """Log(w) = sum_i P_i w^(i), with a certified stopping rule.

    Valuation lower bounds of the P_i entries are tracked; the loop stops
    once three consecutive term bounds clear prec and the structural tail
    bound q^j * minord(w) - c*j (c = observed max denominator growth rate,
    which covers every computed index) stays above prec and is climbing.
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
    q = place.q
    W = prec + 2 * spec.dim * 8 + 16
    coeffs = _local_log_coeffs(spec, place, W)
    acc = [LocalNum.zero_to_precision(place, prec) for _ in range(spec.dim)]
    c_rate = 0
    term_ords = []
    wq = w
    for i in range(I_cap + 1):
        coeffs.ensure(i)
        P = coeffs.P[i]
        ordP = _mat_ord_bound(P)
        if ordP is None:
            term_ords.append(None)
        else:
            if i and ordP < 0:
                c_rate = max(c_rate, (-ordP + i - 1) // i)
            term_ords.append(ordP + q ** i * m)
            for r in range(spec.dim):
                row = LocalNum.exact_zero(place)
                for jc in range(spec.dim):
                    row = row + P[r][jc] * wq[jc]
                acc[r] = acc[r] + row
        # stopping rule
        if i >= 2:
            last3 = term_ords[i - 2:i + 1]
            if all(t is None or t >= prec for t in last3):
                f = lambda j: q ** j * m - c_rate * j  # noqa: E731
                if f(i + 1) >= prec and f(i + 2) >= f(i + 1):
                    return tuple(x.truncate(prec) for x in acc)
        wq = tuple(x.qpow() for x in wq)
    raise ConvergenceNotCertified(
        "logarithm stopping rule not achieved within the term cap")


def extended_cmspl_v(spec, place, prec, annihilator=None):
    """Extended-domain v-adic CMSPL value carried by a validated t-module.

    Pipeline: w = phi_a(point) for the residue annihilator a (every
    coordinate must gain positive valuation), then the designated
    coordinate of d[a]^{-1} Log(w), d[a] = a(theta Id + N0).
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
    W = prec + 16
    w_loc = tuple(embed_local(x, place, W) for x in w)
    logw = log_at_point(spec, w_loc, place, prec)
    da = kmat_poly_eval(a, spec.B0, spec.ctx)
    dainv = kmat_inv(da)
    dainv_ord = min(place.ord_ratk(e) for r in dainv for e in r
                    if not e.is_zero())
    Wd = prec + max(0, -dainv_ord) + 8
    dal = kmat([[embed_local(e, place, Wd) for e in r] for r in dainv])
    i0 = spec.readout[0]
    out = LocalNum.exact_zero(place)
    for j in range(spec.dim):
        out = out + dal[i0][j] * logw[j]
    return out.truncate(prec)


# -- validation ----------------------------------------------------------

class ValidationCertificate:
    """Outcome of checking a t-module against the direct series."""

    def __init__(self, spec, place, prec, results):
        self.spec_name = spec.name
        self.place = place
        self.prec = prec
        self.results = tuple(results)  # (args, point, ok, residual_ord)
        self.ok = all(r[2] for r in results)

    def __repr__(self):
        return f"ValidationCertificate({self.spec_name}, ok={self.ok})"


def validate_tmodule(spec, place, prec=30):
    """Certify a spec by matching log readouts to cmspl_eval on test points.

    Requires at least three test points strictly inside the convergence
    domain; a failed check marks the spec unusable for extended evaluation.
    """
    from .polylog import CONV_V
    if len(spec.test_points) < 3:
        raise ValueError("validation needs at least three test points")
    results = []
    for tp_args, tp_point in spec.test_points:
        if not domain_check(spec.index, tp_args, CONV_V, place):
            raise ValueError("test point outside the convergence domain")
        W = prec + 16
        z = tuple(embed_local(x, place, W) for x in tp_point)
        try:
            logz = log_at_point(spec, z, place, prec)
            got = logz[spec.readout[0]]
            want = cmspl_eval(spec.index, tp_args, place, prec)
            diff = got - want
            ok = diff.is_zero_to_precision() and diff.cutoff >= prec
            residual = None if ok else diff.valuation_lower_bound()
        except ConvergenceNotCertified:
            ok, residual = False, None
        results.append((tp_args, tp_point, ok, residual))
    cert = ValidationCertificate(spec, place, prec, results)
    spec.validated = cert.ok
    return cert


# -- depth-two candidates (no authority until validated) -----------------

def candidate_depth2_spec(ctx, s1, s2, u1):
    """A block-triangular candidate for Li*_(s1,s2)(u1, -).

    This is a guess at the shape used in the literature, emitted for
    experimentation only: it ships with no test points, so it cannot be
    validated here and extended evaluation refuses it.
    """
    if s1 < 1 or s2 < 1:
        raise ValueError("index entries must be >= 1")
    u1 = u1 if isinstance(u1, RatK) else RatK(u1)
    if not u1.is_poly():
        raise ValueError("candidate generator expects a polynomial argument")
    d1, d = s1 + s2, s1 + 2 * s2
    N0 = [[0] * d for _ in range(d)]
    for i in range(d1 - 1):
        N0[i][i + 1] = 1
    for i in range(d1, d - 1):
        N0[i][i + 1] = 1
    zero = PolyA.zero(ctx)
    B1 = [[zero] * d for _ in range(d)]
    B1[d1 - 1][0] = PolyA.one(ctx)
    B1[d - 1][d1] = PolyA.one(ctx)
    B1[d - 1][0] = u1.num
    T = RatK.T(ctx)
    point = [RatK.zero(ctx)] * d
    point[d - 1] = T
    return TModuleSpec(
        ctx, d, N0, B1, readout=(d - 1,), index=Index([s1, s2]),
        args=ArgTuple([u1, T]), point=point, test_points=(),
        name=f"candidate-depth2-{s1}-{s2}")


# -- spec files ----------------------------------------------------------

def dump_tmodule_spec(spec):
    """Serialize a spec to the documented structured-text schema."""
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


def parse_tmodule_spec(text):
    """Parse the structured-text schema produced by dump_tmodule_spec."""
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
