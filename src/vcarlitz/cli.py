"""Command-line surface over the evaluators, verifiers, and certifiers.

Pure argv-to-output behavior: no environment variables, no interaction.
Exit status 0 means success (or "verified"), 1 means a verification ran
and failed, 2 means the request itself was unusable.  Machine output is
one ``key=value`` record per line in a stable order; human output renders
the same records as ``key: value``.

A process loads only what its subcommand runs: each subcommand imports the
modules it calls, and the parser builds only the selected leaf's arguments.
``polylog`` stays a module-level import because the benchmark's tracer
requires ``cli.cmspl_eval`` to be a binding of this module.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import FqContext, RatK, parse_ratk
from .errors import (
    CertificationFailed, MissingTModuleSpec, ParseError,
    UncertifiedDecomposition, VCarlitzError,
)
from .local import PlaceInf, PlaceV, embed_local
from .polylog import ArgTuple, Index, cmpl_eval, cmspl_eval, mzv_inf, pi_tilde

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class RunConfig:
    """Validated run-wide settings shared by every subcommand."""

    def __init__(self, p=3, e=1, lam=0, prec=40, t_order=40,
                 output="machine"):
        self.ctx = FqContext(p, e)
        if not 0 <= lam < self.ctx.q:
            raise ValueError("the place parameter must lie in F_q")
        self.lam = lam
        for name, value in (("prec", prec), ("t-order", t_order)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.prec = prec
        self.t_order = t_order
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


def _config(ns):
    p, e = _factor_prime_power(ns.q)
    return RunConfig(p, e, ns.lam, prec=ns.prec,
                     t_order=getattr(ns, "t_order", 40), output=ns.output)


def _parse_args_tuple(cfg, text):
    return ArgTuple([parse_ratk(cfg.ctx, x) for x in text.split(",")])


def _parse_tpoly(cfg, text):
    if text.strip() == "0":
        return ()
    return tuple(parse_ratk(cfg.ctx, c) for c in text.split(","))


def _arg(flag, **kw):
    return flag, kw


_INDEX = _arg("--index", required=True)
_ARGS = _arg("--args", required=True)
_INDICES = _arg("--index", required=True, action="append")
_ARGS_LIST = _arg("--args", required=True, action="append")
_COMMON = (
    _arg("--q", type=int, default=3),
    _arg("--lambda", dest="lam", type=int, default=0),
    _arg("--prec", type=int, default=40),
    _arg("--t-order", type=int, default=40),
    _arg("--output", choices=("machine", "human"), default="machine"),
)
_CHAIN = (_INDEX, _ARGS, _arg("--place", choices=("v", "inf"), default="v"))

# group -> (help, leaf -> the leaf's arguments after _COMMON)
_COMMANDS = {
    "eval": ("evaluate a value", {
        "cmpl": _CHAIN,
        "cmspl": _CHAIN,
        "mzv-inf": (_INDEX,),
        "mzv-v": (
            _INDEX,
            _arg("--decomposition", help="decomposition file to transport"),
            _arg("--tmodule", help="t-module spec file for deeper terms"),
            _arg("--trust-unvalidated", action="store_true",
                 help="use a t-module spec that failed or skipped "
                      "validation (results carry no certification)"),
            _arg("--cert-prec", type=int, default=40)),
    }),
    "verify": ("run a verifier", {
        "omega": (),
        "deformation": (_INDICES, _ARGS_LIST),
        "system": (_INDICES, _ARGS_LIST),
        "specialize": (_INDEX, _ARGS, _arg("--twist", type=int, default=0)),
        "decomposition": (_arg("--file", required=True),),
        "tmodule": (_arg("--file", required=True),),
    }),
    "certify": ("check a certificate", {
        "mpl": (_INDEX, _ARGS,
                _arg("--ftype", help="f as comma-separated t-coefficients"),
                _arg("--n-list", default="1,2")),
        "vabp": (
            _arg("--index", action="append", default=None),
            _arg("--args", action="append", default=None),
            _arg("--omega-copies", type=int, default=0),
            _arg("--gamma", required=True),
            _arg("--rho", required=True),
            _arg("--pcoeffs", required=True,
                 help="rows of P: t-coefficients comma-separated, "
                      "entries separated by ';'")),
    }),
    "relations": ("search for k-relations", {
        "find": (_arg("--value", action="append", required=True,
                      help="star value as 'index|args', repeatable"),
                 _arg("--deg", type=int, default=1),
                 _arg("--n-recheck", type=int, default=60)),
    }),
    "appendix": ("executable norm lemmas", {
        "count-ball": (_arg("--n", type=int, required=True),),
        "sup-norm": (
            _arg("--coeffs", required=True,
                 help="comma-separated R_v coefficients of f(t)"),
            _arg("--radius", type=int, required=True,
                 help="exponent r with disk |t| <= q^r")),
        "small-solution": (
            _arg("--rows", required=True,
                 help="rows '/'-separated; entries ','-separated; "
                      "t-coefficients ';'-separated R_v elements"),
            _arg("--c-exp", type=int, required=True),
            _arg("--deg-budget", type=int, default=2)),
    }),
}


def _build_parser(argv):
    """The parser tree, built only along the path that argv selects.

    No top or group option takes a value, so the first two words of argv
    not starting with '-' name the group and leaf that parse.  Every group
    parser exists and the selected group has all its leaves, so names,
    choices, usage and errors read as with the whole tree."""
    selected = tuple(a for a in argv if not a.startswith("-"))[:2]
    top = argparse.ArgumentParser(
        prog="vcarlitz",
        description="exact Carlitz polylogarithm and v-adic MZV toolkit")
    cmds = top.add_subparsers(dest="command", required=True)
    for group, (text, leaves) in _COMMANDS.items():
        sub = cmds.add_parser(group, help=text)
        if selected[:1] != (group,):
            continue
        sub = sub.add_subparsers(dest="what", required=True)
        for leaf, args in leaves.items():
            s = sub.add_parser(leaf)
            if selected == (group, leaf):
                for flag, kw in _COMMON + args:
                    s.add_argument(flag, **kw)
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
    from .relations import (
        depth1_decomposition, eval_vmzv, parse_decomposition,
        verify_decomposition_inf,
    )
    if ns.cert_prec < 1:
        raise ValueError(f"cert-prec must be >= 1, got {ns.cert_prec}")
    s = Index.parse(ns.index)
    spec = _read_tmodule(cfg, ns.tmodule) if ns.tmodule else None
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
    if spec is not None and not spec.validated:
        from .tmodule import validate_tmodule
        try:
            validate_tmodule(spec, cfg.place_v, 30)
        except (VCarlitzError, ValueError):
            pass
        if not spec.validated and not ns.trust_unvalidated:
            raise MissingTModuleSpec(
                "t-module spec is not validated; pass "
                "--trust-unvalidated to use it anyway")
        spec.validated = True
    tmodules = None if spec is None else {str(spec.index): spec}
    val = eval_vmzv(dec, cfg.place_v, cfg.prec, tmodules=tmodules)
    cfg.emit([("value", val),
              ("is_zero_to_prec", str(val.is_zero_to_precision()).lower())])
    return EXIT_OK


def _read_tmodule(cfg, path):
    """The t-module spec in a file, refused unless its field is --q's."""
    from .tmodule import parse_tmodule_spec
    with open(path) as fh:
        spec = parse_tmodule_spec(fh.read())
    if spec.ctx != cfg.ctx:
        raise VCarlitzError("t-module spec is for a different q")
    return spec


def _residual_records(res):
    ordtxt = "inf" if res.is_zero else str(res.ord)
    status = "ok" if res.is_zero else "fail"
    return [("residual_ord", ordtxt), ("status", status)], \
        EXIT_OK if res.is_zero else EXIT_FAILED


def _cmd_verify(ns):
    cfg = _config(ns)
    if ns.what == "decomposition":
        from .relations import parse_decomposition, verify_decomposition_inf
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
    if ns.what == "tmodule":
        from .tmodule import validate_tmodule
        spec = _read_tmodule(cfg, ns.file)
        cert = validate_tmodule(spec, cfg.place_v, min(cfg.prec, 30))
        records = [("validated", str(cert.ok).lower())]
        for i, (args, _pt, ok, residual) in enumerate(cert.results):
            note = "ok" if ok else f"fail residual_ord={residual}"
            records.append((f"point_{i}", f"args={args} {note}"))
        cfg.emit(records)
        return EXIT_OK if cert.ok else EXIT_FAILED
    from .diffsys import _specialization_holds, verify_difference
    if ns.what == "specialize":
        sys_ = _system(cfg, [ns.index], [ns.args])
        place, N = cfg.place_v, ns.twist
        target = cmpl_eval(sys_.index, sys_.args, place, cfg.prec) \
            * pi_tilde(sys_.alpha, place, cfg.prec).pow(sys_.weight)
        ok = _specialization_holds(sys_, N, cfg.prec, target)
        cfg.emit([("twist", N), ("status", "ok" if ok else "fail")])
        return EXIT_OK if ok else EXIT_FAILED
    # omega, deformation, system
    sys_ = _system(cfg, getattr(ns, "index", []), getattr(ns, "args", []),
                   int(ns.what == "omega"))
    records, code = _residual_records(
        verify_difference(sys_, ns.t_order, cfg.prec))
    cfg.emit(records)
    return code


def _system(cfg, index, args, omegas=0):
    """The system of omegas Omega blocks, then one CMPL block per matched
    --index and --args: the block sum, or the one block itself."""
    from .diffsys import block_sum, build_cmpl_system, build_omega_system
    if len(index) != len(args):
        raise VCarlitzError("each --index needs a matching --args")
    place = cfg.place_v
    systems = [build_omega_system(place) for _ in range(omegas)] + [
        build_cmpl_system(Index.parse(i), _parse_args_tuple(cfg, a), place)
        for i, a in zip(index, args)]
    return systems[0] if len(systems) == 1 else block_sum(systems)


def _cmd_certify(ns):
    from .diffsys import mpl_certificate, vabp_certify
    cfg = _config(ns)
    if ns.what == "mpl":
        sys_ = _system(cfg, [ns.index], [ns.args])
        w = sys_.weight
        if ns.ftype is None:
            ftype = (RatK.zero(cfg.ctx),) * w + (RatK.one(cfg.ctx),)
        else:
            ftype = _parse_tpoly(cfg, ns.ftype)
        try:
            n_list = [int(x) for x in ns.n_list.split(",")]
        except ValueError:
            raise ParseError(f"bad --n-list {ns.n_list!r}; expected "
                             "comma-separated integers") from None
        cert = mpl_certificate(sys_, w, ftype, n_list,
                               prec=min(ns.prec, 30))
        records = [("ok", str(cert.ok).lower()), ("weight", w)]
        for k in sorted(cert.conditions):
            records.append((f"condition_{k}",
                            "pass" if cert.conditions[k] else "fail"))
        cfg.emit(records)
        return EXIT_OK if cert.ok else EXIT_FAILED
    # vabp
    if ns.omega_copies < 0:
        raise ValueError(f"omega-copies must be >= 0, got {ns.omega_copies}")
    if not (ns.omega_copies or ns.index or ns.args):
        raise VCarlitzError("vabp needs --omega-copies or --index/--args")
    sys_ = _system(cfg, ns.index or [], ns.args or [], ns.omega_copies)
    gamma = parse_ratk(cfg.ctx, ns.gamma)
    rho = tuple(parse_ratk(cfg.ctx, x) for x in ns.rho.split(","))
    P = tuple(_parse_tpoly(cfg, entry) for entry in ns.pcoeffs.split(";"))
    ok = vabp_certify(sys_, gamma, rho, P, ns.t_order, ns.prec)
    cfg.emit([("certified", str(ok).lower())])
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_relations(ns):
    from .relations import ValueHandle, find_k_relations
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
        values.append(ValueHandle(f"v{i}", s.weight, val))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
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


if __name__ == "__main__":
    main()
