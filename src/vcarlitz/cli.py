"""Command-line surface over the evaluators, verifiers, and certifiers.

Pure argv-to-output behavior: no environment variables, no interaction.
Exit status 0 means success (or "verified"), 1 means a verification ran
and failed, 2 means the request itself was unusable.  Machine output is
one ``key=value`` record per line in a stable order; human output renders
the same records as ``key: value``.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import FqContext, RatK, parse_ratk
from .errors import (
    CertificationFailed, MissingTModuleSpec, UncertifiedDecomposition,
    VCarlitzError,
)
from .local import PlaceInf, PlaceV, embed_local
from .polylog import ArgTuple, Index, cmpl_eval, cmspl_eval, mzv_inf, pi_tilde
from .relations import (
    ValueHandle, depth1_decomposition, eval_vmzv, find_k_relations,
    parse_decomposition, verify_decomposition_inf,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class RunConfig:
    """Validated run-wide settings shared by every subcommand."""

    def __init__(self, p=3, e=1, lam=0, prec=40, t_order=40, inf_prec=40,
                 output="machine"):
        self.ctx = FqContext(p, e)
        if not 0 <= lam < self.ctx.q:
            raise ValueError("the place parameter must lie in F_q")
        self.lam = lam
        for name, value in (("prec", prec), ("t-order", t_order),
                            ("infinite-place prec", inf_prec)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.prec = prec
        self.t_order = t_order
        self.inf_prec = inf_prec
        if output not in ("machine", "human"):
            raise ValueError("output mode must be machine or human")
        self.output = output

    @property
    def place_v(self):
        return PlaceV(self.ctx, self.lam)

    @property
    def place_inf(self):
        return PlaceInf(self.ctx)

    def emit(self, records, out=None):
        out = out or sys.stdout
        sep = "=" if self.output == "machine" else ": "
        for key, val in records:
            print(f"{key}{sep}{val}", file=out)


def _factor_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, e
    raise ValueError(f"q = {q} is not a prime power")


def _add_common(sub):
    sub.add_argument("--q", type=int, default=3)
    sub.add_argument("--lambda", dest="lam", type=int, default=0)
    sub.add_argument("--prec", type=int, default=40)
    sub.add_argument("--t-order", type=int, default=40)
    sub.add_argument("--output", choices=("machine", "human"),
                     default="machine")


def _config(ns):
    p, e = _factor_prime_power(ns.q)
    return RunConfig(p, e, ns.lam, prec=ns.prec,
                     t_order=getattr(ns, "t_order", 40),
                     inf_prec=ns.prec, output=ns.output)


def _parse_args_tuple(cfg, text):
    return ArgTuple([parse_ratk(cfg.ctx, x) for x in text.split(",")])


def _parse_tpoly(cfg, text):
    if text.strip() == "0":
        return ()
    return tuple(parse_ratk(cfg.ctx, c) for c in text.split(","))


def _build_parser():
    top = argparse.ArgumentParser(
        prog="vcarlitz",
        description="exact Carlitz polylogarithm and v-adic MZV toolkit")
    cmds = top.add_subparsers(dest="command", required=True)

    ev = cmds.add_parser("eval", help="evaluate a value")
    evsub = ev.add_subparsers(dest="what", required=True)
    for what in ("cmpl", "cmspl"):
        s = evsub.add_parser(what)
        _add_common(s)
        s.add_argument("--index", required=True)
        s.add_argument("--args", required=True)
        s.add_argument("--place", choices=("v", "inf"), default="v")
    s = evsub.add_parser("mzv-inf")
    _add_common(s)
    s.add_argument("--index", required=True)
    s = evsub.add_parser("mzv-v")
    _add_common(s)
    s.add_argument("--index", required=True)
    s.add_argument("--decomposition", help="decomposition file to transport")
    s.add_argument("--tmodule", help="t-module spec file for deeper terms")
    s.add_argument("--trust-unvalidated", action="store_true",
                   help="use a t-module spec that failed or skipped "
                        "validation (results carry no certification)")
    s.add_argument("--cert-prec", type=int, default=40)

    ver = cmds.add_parser("verify", help="run a verifier")
    vsub = ver.add_subparsers(dest="what", required=True)
    s = vsub.add_parser("omega")
    _add_common(s)
    for what in ("deformation", "system"):
        s = vsub.add_parser(what)
        _add_common(s)
        s.add_argument("--index", required=True, action="append")
        s.add_argument("--args", required=True, action="append")
    s = vsub.add_parser("specialize")
    _add_common(s)
    s.add_argument("--index", required=True)
    s.add_argument("--args", required=True)
    s.add_argument("--twist", type=int, default=0)
    s = vsub.add_parser("decomposition")
    _add_common(s)
    s.add_argument("--file", required=True)
    s = vsub.add_parser("tmodule")
    _add_common(s)
    s.add_argument("--file", required=True)

    cert = cmds.add_parser("certify", help="check a certificate")
    csub = cert.add_subparsers(dest="what", required=True)
    s = csub.add_parser("mpl")
    _add_common(s)
    s.add_argument("--index", required=True)
    s.add_argument("--args", required=True)
    s.add_argument("--ftype", help="f as comma-separated t-coefficients")
    s.add_argument("--n-list", default="1,2")
    s = csub.add_parser("vabp")
    _add_common(s)
    s.add_argument("--index", action="append", default=None)
    s.add_argument("--args", action="append", default=None)
    s.add_argument("--omega-copies", type=int, default=0)
    s.add_argument("--gamma", required=True)
    s.add_argument("--rho", required=True)
    s.add_argument("--pcoeffs", required=True,
                   help="rows of P: t-coefficients comma-separated, "
                        "entries separated by ';'")

    rel = cmds.add_parser("relations", help="search for k-relations")
    rsub = rel.add_subparsers(dest="what", required=True)
    s = rsub.add_parser("find")
    _add_common(s)
    s.add_argument("--value", action="append", required=True,
                   help="star value as 'index|args', repeatable")
    s.add_argument("--deg", type=int, default=1)
    s.add_argument("--n-recheck", type=int, default=60)

    app = cmds.add_parser("appendix", help="executable norm lemmas")
    asub = app.add_subparsers(dest="what", required=True)
    s = asub.add_parser("count-ball")
    _add_common(s)
    s.add_argument("--n", type=int, required=True)
    s = asub.add_parser("sup-norm")
    _add_common(s)
    s.add_argument("--coeffs", required=True,
                   help="comma-separated R_v coefficients of f(t)")
    s.add_argument("--radius", type=int, required=True,
                   help="exponent r with disk |t| <= q^r")
    s = asub.add_parser("small-solution")
    _add_common(s)
    s.add_argument("--rows", required=True,
                   help="rows '/'-separated; entries ','-separated; "
                        "t-coefficients ';'-separated R_v elements")
    s.add_argument("--c-exp", type=int, required=True)
    s.add_argument("--deg-budget", type=int, default=2)
    return top


# -- subcommand bodies ---------------------------------------------------

def _cmd_eval(ns):
    cfg = _config(ns)
    if ns.what in ("cmpl", "cmspl"):
        place = cfg.place_v if ns.place == "v" else cfg.place_inf
        s = Index.parse(ns.index)
        u = _parse_args_tuple(cfg, ns.args)
        fn = cmpl_eval if ns.what == "cmpl" else cmspl_eval
        val = fn(s, u, place, cfg.prec)
        cfg.emit([("value", val)])
        return EXIT_OK
    if ns.what == "mzv-inf":
        s = Index.parse(ns.index)
        D_max = cfg.prec // s[0] + 1
        val = mzv_inf(s, cfg.ctx, D_max, prec=cfg.prec)
        cfg.emit([("value", val)])
        return EXIT_OK
    # mzv-v: transport a certified decomposition to the finite place
    if ns.cert_prec < 1:
        raise ValueError(f"cert-prec must be >= 1, got {ns.cert_prec}")
    s = Index.parse(ns.index)
    if ns.decomposition:
        with open(ns.decomposition) as fh:
            dec, ctx = parse_decomposition(fh.read())
        if ctx.q != cfg.ctx.q:
            raise VCarlitzError("decomposition file is for a different q")
        if dec.target != s:
            raise VCarlitzError("decomposition file targets a different index")
    else:
        if s.depth != 1:
            raise VCarlitzError(
                "built-in decompositions cover depth one; supply a file")
        dec = depth1_decomposition(cfg.ctx, s[0])
    # a "certified" line in a file is a claim, never a substitute for the check
    verify_decomposition_inf(dec, ns.cert_prec)
    tmodules = None
    if ns.tmodule:
        from .tmodule import parse_tmodule_spec, validate_tmodule
        with open(ns.tmodule) as fh:
            spec = parse_tmodule_spec(fh.read())
        if not spec.validated:
            try:
                validate_tmodule(spec, cfg.place_v, 30)
            except (VCarlitzError, ValueError):
                pass
        if not spec.validated:
            if not ns.trust_unvalidated:
                raise MissingTModuleSpec(
                    "t-module spec is not validated; pass "
                    "--trust-unvalidated to use it anyway")
            spec.validated = True
        tmodules = {str(spec.index): spec}
    val = eval_vmzv(dec, cfg.place_v, cfg.prec, tmodules=tmodules)
    cfg.emit([("value", val),
              ("is_zero_to_prec", str(val.is_zero_to_precision()).lower())])
    return EXIT_OK


def _residual_records(res):
    ordtxt = "inf" if res.is_zero else str(res.ord)
    status = "ok" if res.is_zero else "fail"
    return [("residual_ord", ordtxt), ("status", status)], \
        EXIT_OK if res.is_zero else EXIT_FAILED


def _cmd_verify(ns):
    from .diffsys import (
        block_sum, build_cmpl_system, build_omega_system, specialize_psi,
        verify_difference,
    )
    cfg = _config(ns)
    if ns.what == "omega":
        res = verify_difference(build_omega_system(cfg.place_v),
                                ns.t_order, cfg.prec)
        records, code = _residual_records(res)
        cfg.emit(records)
        return code
    if ns.what in ("deformation", "system"):
        if len(ns.index) != len(ns.args):
            raise VCarlitzError("each --index needs a matching --args")
        systems = [build_cmpl_system(Index.parse(i),
                                     _parse_args_tuple(cfg, a), cfg.place_v)
                   for i, a in zip(ns.index, ns.args)]
        sys_ = systems[0] if len(systems) == 1 else block_sum(systems)
        res = verify_difference(sys_, ns.t_order, cfg.prec)
        records, code = _residual_records(res)
        cfg.emit(records)
        return code
    if ns.what == "specialize":
        s = Index.parse(ns.index)
        u = _parse_args_tuple(cfg, ns.args)
        place = cfg.place_v
        sys_ = build_cmpl_system(s, u, place)
        w, N = sys_.weight, ns.twist
        vals = specialize_psi(sys_, N, cfg.prec)
        pt = pi_tilde(sys_.alpha, place, cfg.prec)
        target = cmpl_eval(s, u, place, cfg.prec) * pt.pow(w)
        if N == 0:
            ok = (vals[-1] - target).is_zero_to_precision()
        else:
            ok = all(x.is_exact_zero() for x in vals[:-1])
            lit = vals[-1].shift(N * w * place.q ** N)
            ok = ok and (lit - target.qpow(N)).is_zero_to_precision()
        cfg.emit([("twist", N), ("status", "ok" if ok else "fail")])
        return EXIT_OK if ok else EXIT_FAILED
    if ns.what == "decomposition":
        with open(ns.file) as fh:
            dec, _ctx = parse_decomposition(fh.read())
        try:
            cert = verify_decomposition_inf(dec, cfg.prec)
        except CertificationFailed as exc:
            cfg.emit([("certified", "false"),
                      ("residual_ord", exc.residual_ord)])
            return EXIT_FAILED
        cfg.emit([("certified", "true"), ("prec", cert["prec"])])
        return EXIT_OK
    # tmodule
    from .tmodule import parse_tmodule_spec, validate_tmodule
    with open(ns.file) as fh:
        spec = parse_tmodule_spec(fh.read())
    cert = validate_tmodule(spec, cfg.place_v, min(cfg.prec, 30))
    records = [("validated", str(cert.ok).lower())]
    for i, (args, _pt, ok, residual) in enumerate(cert.results):
        note = "ok" if ok else f"fail residual_ord={residual}"
        records.append((f"point_{i}", f"args={args} {note}"))
    cfg.emit(records)
    return EXIT_OK if cert.ok else EXIT_FAILED


def _cmd_certify(ns):
    from .diffsys import (
        block_sum, build_cmpl_system, build_omega_system, mpl_certificate,
        vabp_certify,
    )
    cfg = _config(ns)
    if ns.what == "mpl":
        s = Index.parse(ns.index)
        u = _parse_args_tuple(cfg, ns.args)
        sys_ = build_cmpl_system(s, u, cfg.place_v)
        w = sys_.weight
        if ns.ftype is None:
            ftype = (RatK.zero(cfg.ctx),) * w + (RatK.one(cfg.ctx),)
        else:
            ftype = _parse_tpoly(cfg, ns.ftype)
        n_list = [int(x) for x in ns.n_list.split(",")]
        cert = mpl_certificate(sys_, w, ftype, n_list,
                               prec=min(ns.prec, 30))
        records = [("ok", str(cert.ok).lower()), ("weight", w)]
        for k in sorted(cert.conditions):
            records.append((f"condition_{k}",
                            "pass" if cert.conditions[k] else "fail"))
        cfg.emit(records)
        return EXIT_OK if cert.ok else EXIT_FAILED
    # vabp
    systems = []
    for _ in range(ns.omega_copies):
        systems.append(build_omega_system(cfg.place_v))
    for i, a in zip(ns.index or (), ns.args or ()):
        systems.append(build_cmpl_system(Index.parse(i),
                                         _parse_args_tuple(cfg, a),
                                         cfg.place_v))
    if not systems:
        raise VCarlitzError("vabp needs --omega-copies or --index/--args")
    sys_ = systems[0] if len(systems) == 1 else block_sum(systems)
    gamma = parse_ratk(cfg.ctx, ns.gamma)
    rho = tuple(parse_ratk(cfg.ctx, x) for x in ns.rho.split(","))
    P = tuple(_parse_tpoly(cfg, entry) for entry in ns.pcoeffs.split(";"))
    ok = vabp_certify(sys_, gamma, rho, P, ns.t_order, ns.prec)
    cfg.emit([("certified", str(ok).lower())])
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_relations(ns):
    cfg = _config(ns)
    if ns.deg < 0:
        raise ValueError(f"deg must be >= 0, got {ns.deg}")
    values = []
    for i, text in enumerate(ns.value):
        idx_s, sep, args_s = text.partition("|")
        if not sep:
            raise VCarlitzError(f"bad --value {text!r}; expected 'index|args'")
        s = Index.parse(idx_s)
        u = _parse_args_tuple(cfg, args_s)
        val = cmspl_eval(s, u, cfg.place_v, ns.n_recheck + 10)
        values.append(ValueHandle(f"v{i}", s.weight, val, provenance=text))
    reports = find_k_relations(values, ns.deg, cfg.prec, ns.n_recheck)
    records = [("count", len(reports))]
    for i, rep in enumerate(reports):
        records.append((f"relation_{i}", rep.line()))
    cfg.emit(records)
    return EXIT_OK


def _cmd_appendix(ns):
    from .abp import (
        norm_ball_count, parse_rv, small_solution, sup_norm_disk,
    )
    cfg = _config(ns)
    place = cfg.place_v
    if ns.what == "count-ball":
        cfg.emit([("count", norm_ball_count(place, ns.n))])
        return EXIT_OK
    if ns.what == "sup-norm":
        coeffs = [embed_local(parse_rv(place, c).to_ratk(), place,
                              cfg.prec)
                  for c in ns.coeffs.split(",")]
        cfg.emit([("norm_exp", sup_norm_disk(coeffs, ns.radius))])
        return EXIT_OK
    # small-solution
    M = []
    for row in ns.rows.split("/"):
        M.append([tuple(parse_rv(place, c) for c in entry.split(";"))
                  for entry in row.split(",")])
    x = small_solution(M, ns.c_exp, ns.deg_budget, place)
    records = []
    for i, entry in enumerate(x):
        records.append((f"x_{i}", " ; ".join(str(c) for c in entry) or "0"))
    cfg.emit(records)
    return EXIT_OK


_DISPATCH = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "relations": _cmd_relations,
    "appendix": _cmd_appendix,
}


def run_command(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _DISPATCH[ns.command](ns)
    except (VCarlitzError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (CertificationFailed, UncertifiedDecomposition,
                            MissingTModuleSpec)):
            return EXIT_FAILED
        return EXIT_USAGE


def main():
    raise SystemExit(run_command())
