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

import itertools

from .algebra import PolyA, RatK
from .errors import CertificationFailed, DomainError
from .local import LocalNum, PlaceV, embed_local
from .polylog import (
    ArgTuple, Index, cmpl_eval, deformation_build, deformation_specialize,
    domain_check, omega_at_inverse_power, omega_product, pi_tilde, CONV_V,
)
from .tseries import TSeries, frobenius_twist

INF = float("inf")


# -- t-polynomials over k ------------------------------------------------

def tp_normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def tp_zero(ctx):
    return ()


def tp_one(ctx):
    return (RatK.one(ctx),)


def tp_const(c):
    return tp_normalize([c])


def tp_add(a, b, ctx):
    n = max(len(a), len(b))
    zero = RatK.zero(ctx)
    return tp_normalize([(a[i] if i < len(a) else zero)
                         + (b[i] if i < len(b) else zero) for i in range(n)])


def tp_mul(a, b, ctx):
    if not a or not b:
        return ()
    zero = RatK.zero(ctx)
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return tp_normalize(out)


def tp_pow(a, n, ctx):
    out = tp_one(ctx)
    for _ in range(n):
        out = tp_mul(out, a, ctx)
    return out


def tp_scale(a, c, ctx):
    return tp_normalize([x * c for x in a])


def tp_shift(a, n, ctx):
    if not a:
        return ()
    return (RatK.zero(ctx),) * n + tuple(a)


def tp_eval_k(a, x):
    """Evaluate at x in k (Horner)."""
    out = RatK.zero(x.ctx)
    for c in reversed(a):
        out = out * x + c
    return out


def tp_str(a):
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c.is_zero():
            continue
        cs = str(c)
        if ("+" in cs or "/" in cs) and i > 0:
            cs = f"({cs})"
        if i == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append(f"t^{i}")
        else:
            parts.append(f"{cs}*t^{i}")
    return " + ".join(parts)


def tp_apply(a, g, place, N):
    """The t-polynomial a acting on a TSeries g, truncated to g's order."""
    out = TSeries.zero(place, g.order, N)
    for m, c in enumerate(a):
        if c.is_zero():
            continue
        if m >= g.order:
            break
        out = out + g.t_shift(m, N).scale(embed_local(c, place, N))
    return out


# -- the system ----------------------------------------------------------

class DiffSystem:
    """A (Phi, psi) pair in twisted form, with lazy psi construction."""

    def __init__(self, place, phi_twisted, psi_build, weight, alpha,
                 index=None, args=None, c=None, structural_det=False,
                 kind="generic"):
        self.place = place
        self.phi = tuple(tuple(r) for r in phi_twisted)
        self.size = len(self.phi)
        self._psi_build = psi_build
        self._psi_cache = {}
        self.weight = weight
        self.alpha = alpha
        self.index = index
        self.args = args
        self.c = c if c is not None else RatK.one(place.ctx)
        self.structural_det = structural_det
        self.kind = kind

    def psi(self, D, N):
        key = (D, N)
        out = self._psi_cache.get(key)
        if out is None:
            out = tuple(self._psi_build(D, N))
            self._psi_cache[key] = out
        return out

    def __repr__(self):
        return f"DiffSystem({self.kind}, size={self.size}, w={self.weight})"


def _one_minus_alpha_q_t(place, power=1):
    """((1 - alpha t)^power) twisted: (1 - alpha^q t)^power over k[t]."""
    ctx = place.ctx
    aq = RatK(place.uniformizer()).frobenius()
    return tp_pow((RatK.one(ctx), -aq), power, ctx)


def build_omega_system(place):
    """The rank-one system psi = (Omega), Phi = (1 - alpha t)."""
    ctx = place.ctx
    alpha = RatK(place.uniformizer())
    phi = ((_one_minus_alpha_q_t(place),),)

    def build(D, N):
        return [omega_product(alpha, place, D, N)]

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
    zero = tp_zero(ctx)
    phi = [[zero] * ell for _ in range(ell)]
    phi[0][0] = _one_minus_alpha_q_t(place, w)
    for l in range(1, r + 1):
        head = sum(s[i] for i in range(l - 1))      # s_1+..+s_(l-1)
        tail = sum(s[i] for i in range(l, r))       # s_(l+1)+..+s_r
        sub = tp_mul(tp_const(u[l - 1]),
                     _one_minus_alpha_q_t(place, s[l - 1] + tail), ctx)
        phi[l][l - 1] = tp_shift(sub, head, ctx)
        phi[l][l] = tp_shift(_one_minus_alpha_q_t(place, tail),
                             head + s[l - 1], ctx)

    def build(D, N):
        omega = omega_product(alpha, place, D, N)
        out = [omega.pow(w)]
        for l in range(1, r + 1):
            pre_s = Index(list(s)[:l])
            pre_u = ArgTuple(list(u)[:l])
            dep = deformation_build(pre_s, pre_u, place, D, N)
            tail = sum(s[i] for i in range(l, r))
            out.append(dep * omega.pow(tail) if tail else dep)
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
    total = sum(sysj.size for sysj in systems)
    zero = tp_zero(ctx)
    phi = [[zero] * total for _ in range(total)]
    off = 0
    pads = []
    for sysj in systems:
        pad = w1 - sysj.weight
        pads.append(pad)
        padpoly = _one_minus_alpha_q_t(place, pad) if pad else tp_one(ctx)
        for i in range(sysj.size):
            for j in range(sysj.size):
                if sysj.phi[i][j]:
                    phi[off + i][off + j] = tp_mul(padpoly, sysj.phi[i][j],
                                                  ctx)
        off += sysj.size

    def build(D, N):
        omega = omega_product(alpha, place, D, N)
        out = []
        for sysj, pad in zip(systems, pads):
            block = sysj.psi(D, N)
            if pad:
                op = omega.pow(pad)
                block = [p * op for p in block]
            out.extend(block)
        return out

    return DiffSystem(place, phi, build, weight=w1, alpha=alpha,
                      structural_det=all(s.structural_det for s in systems),
                      kind="block[" + ",".join(s.kind for s in systems) + "]")


# -- residual verification ----------------------------------------------

class Residual:
    """Outcome of a difference-equation check at truncation (t^D, pi^N)."""

    def __init__(self, place, D, N, ord_bound, exact):
        self.place = place
        self.D = D
        self.N = N
        self.ord = ord_bound     # INF means zero to the working window
        self.exact = exact       # True when a nonzero digit was found

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
    exact = False
    for i in range(sys.size):
        row = psi[i]
        for j in range(sys.size):
            if sys.phi[i][j]:
                row = row - tp_apply(sys.phi[i][j], psi_tw[j], place, N)
        for c in row.coeffs:
            c = c.truncate(N)
            if c.is_exact_zero():
                continue
            v = c.valuation()
            if v is None:
                worst = min(worst, c.nu if c.coeffs else c.cutoff)
            else:
                worst = min(worst, v)
                exact = True
    return Residual(place, D, N, worst, exact)


# -- specialization ------------------------------------------------------

def specialize_psi(sys, N_twist, prec):
    """The literal value vector psi(alpha^(-q^N)) for a CMPL system."""
    if sys.kind not in ("cmpl", "omega"):
        raise CertificationFailed("specialization needs a constructed system")
    place, alpha = sys.place, sys.alpha
    om = omega_at_inverse_power(alpha, place, N_twist, prec)
    if sys.kind == "omega":
        return (om,)
    s, u = sys.index, sys.args
    r = s.depth
    out = [om.pow(sys.weight) if not om.is_exact_zero() else om]
    for l in range(1, r + 1):
        tail = sum(s[i] for i in range(l, r))
        pre_s = Index(list(s)[:l])
        pre_u = ArgTuple(list(u)[:l])
        if N_twist >= 1 and tail > 0:
            # an exactly vanishing omega factor kills the entry
            out.append(LocalNum.exact_zero(place))
            continue
        dep = deformation_specialize(pre_s, pre_u, place, N_twist, prec,
                                     normalized=False)
        if tail:
            dep = dep * om.pow(tail)
        out.append(dep.truncate(prec) if not dep.is_exact_zero() else dep)
    return tuple(out)


# -- MPL-property certificate -------------------------------------------

class MplCertificate:
    """Checked conditions of the f(t)-type MPL property of weight w."""

    def __init__(self, weight, ftype, checked_N):
        self.weight = weight
        self.ftype = tuple(ftype)
        self.checked_N = tuple(checked_N)
        self.conditions = {}
        self.notes = []

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
    (non-vanishing of det Phi along the twisted orbit of alpha^(-1)) is
    established structurally: the determinant factors as c t^a (1-alpha t)^b
    whose zeros never meet alpha^(-q^(-i)).  Conditions (2)-(4) are checked
    numerically to prec; (4) only over the finite N_list, which the
    certificate records.
    """
    cert = MplCertificate(w, ftype, N_list)
    place, ctx = sys.place, sys.place.ctx
    # (1) determinant structure
    cert.conditions[1] = _det_structural(sys)
    # (2) last column (0,..,0,f)
    col_ok = all(not sys.phi[i][sys.size - 1] for i in range(sys.size - 1))
    col_ok = col_ok and sys.phi[sys.size - 1][sys.size - 1] == tp_normalize(
        ftype)
    cert.conditions[2] = col_ok
    # (3) psi(alpha^{-1}) = (pitilde^w, ..., c Z pitilde^w)
    pt = pi_tilde(sys.alpha, place, prec)
    vals = specialize_psi(sys, 0, prec)
    first_ok = (vals[0] - pt.pow(w)).is_zero_to_precision()
    Z = cmpl_eval(sys.index, sys.args, place, prec)
    target = embed_local(sys.c, place, prec) * Z * pt.pow(w)
    last_ok = (vals[-1] - target).is_zero_to_precision()
    cert.conditions[3] = first_ok and last_ok
    # (4) psi(alpha^{-q^N}) = (0,...,0,(c Z pitilde^w)^{q^N})
    ok4 = True
    for N in N_list:
        if N < 1:
            raise ValueError("condition (4) indices must be positive")
        vals = specialize_psi(sys, N, prec)
        if not all(x.is_exact_zero() for x in vals[:-1]):
            ok4 = False
            continue
        qN = place.q ** N
        shift = N * w * qN
        lit_ok = (vals[-1].shift(shift) - target.qpow(N)).is_zero_to_precision()
        if not lit_ok:
            ok4 = False
    cert.conditions[4] = ok4
    cert.notes.append(
        "condition (4) compared after normalizing by the explicit power "
        "alpha^(N w q^N) carried by the literal specialization")
    cert.notes.append(f"condition (4) checked for N in {sorted(N_list)} only")
    return cert


def _det_structural(sys):
    """True when det of the twisted matrix is c * t^a * (1 - alpha^q t)^b.

    Such determinants vanish only at t = 0 and t = alpha^(-q), so they are
    nonzero along the twisted orbit alpha^(-q^(-i)), i >= 1.
    """
    ctx = sys.place.ctx
    det = tp_zero(ctx)
    for perm in itertools.permutations(range(sys.size)):
        term = tp_one(ctx)
        ok = True
        for i, j in enumerate(perm):
            if not sys.phi[i][j]:
                ok = False
                break
            term = tp_mul(term, sys.phi[i][j], ctx)
        if not ok:
            continue
        sign = _perm_sign(perm)
        if sign < 0:
            term = tp_scale(term, -RatK.one(ctx), ctx)
        det = tp_add(det, term, ctx)
    if not det:
        return False
    a = 0
    while det[a].is_zero():
        a += 1
    body = det[a:]
    b = len(body) - 1
    base = _one_minus_alpha_q_t(sys.place, b)
    c = body[0]  # (1 - alpha^q t)^b has constant term 1
    cand = tp_scale(base, c, ctx)
    return tuple(body) == cand


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


# -- vABP certification --------------------------------------------------

def vabp_certify(sys, gamma, rho, P, D, N):
    """Check a claimed linear relation certificate against the system.

    True iff P(gamma) = rho entrywise and P . psi vanishes mod (t^D, pi^N).
    The determinant precondition is established structurally for built
    systems; for ingested systems without the structural factorization the
    check refuses rather than guesses.
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
    psi = [p.truncate(D) for p in sys.psi(D, N)]
    acc = TSeries.zero(place, D, N)
    for pj, fj in zip(P, psi):
        if pj:
            acc = acc + tp_apply(pj, fj, place, N)
    for c in acc.coeffs:
        c = c.truncate(N)
        if c.is_exact_zero():
            continue
        if c.valuation() is not None:
            return False
        if (c.nu if c.coeffs else c.cutoff) < N:
            return False
    return True


# -- dumps ---------------------------------------------------------------

def dump_system(sys):
    lines = [f"kind: {sys.kind}",
             f"size: {sys.size}",
             f"weight: {sys.weight}",
             f"alpha: {sys.alpha}"]
    for i in range(sys.size):
        for j in range(sys.size):
            lines.append(f"phi[{i}][{j}]: {tp_str(sys.phi[i][j])}")
    psi = sys.psi(4, 12)
    for i, p in enumerate(psi):
        lines.append(f"psi[{i}]: {p}")
    return "\n".join(lines) + "\n"
