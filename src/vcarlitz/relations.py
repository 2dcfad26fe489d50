"""Relation discovery among v-adic values and assembly of v-adic MZVs.

A v-adic MZV is defined through a decomposition of the classical zeta value
into star polylogarithms; the decomposition must first be certified at the
infinite place (where both sides converge and can be compared digit by
digit) before its right-hand side is re-evaluated v-adically.  Relation
search over k with bounded coefficient degree reduces to F_q-linear algebra
on ϖ-digit vectors; reported relations are candidates certified to a stated
precision, never proofs.
"""

from __future__ import annotations

from .algebra import FqContext, PolyA, RatK, parse_fields, parse_ratk
from .errors import (
    CertificationFailed, MissingTModuleSpec, ParseError,
    UncertifiedDecomposition,
)
from .linalg import fq_kernel
from .local import LocalNum, PlaceInf, embed_local
from .polylog import (
    ArgTuple, CONV_INF, CONV_V, DEF_V, Index, cmspl_eval, domain_check,
    mzv_inf,
)

INF = float("inf")


class ValueHandle:
    """A computed value tagged with its weight and provenance."""

    __slots__ = ("label", "weight", "value", "provenance")

    def __init__(self, label, weight, value, provenance=""):
        self.label = label
        self.weight = weight
        self.value = value
        self.provenance = provenance

    def __repr__(self):
        return f"ValueHandle({self.label}, w={self.weight})"


class RelationReport:
    """A candidate relation sum_i a_i(theta) x_i = 0, certified to precision."""

    def __init__(self, coeffs, residual_ord, N, N_recheck, labels=()):
        self.coeffs = tuple(coeffs)
        self.residual_ord = residual_ord
        self.N = N
        self.N_recheck = N_recheck
        self.labels = tuple(labels)

    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if not c.is_zero())

    def line(self):
        coeffs = ", ".join(str(c) for c in self.coeffs)
        ordtxt = ("inf" if self.residual_ord is INF
                  else str(self.residual_ord))
        return f"coeffs=[{coeffs}] residual_ord={ordtxt}"

    def __repr__(self):
        return f"RelationReport({self.line()})"


def find_k_relations(values, d, N, N_recheck):
    """F_q-kernel search for relations with A-coefficients of degree <= d.

    The map (c_{i,j}) -> sum_i (sum_j c_{i,j} theta^j) x_i is F_q-linear;
    its kernel modulo ϖ^N is computed exactly, then every basis relation is
    re-checked at the stricter precision N_recheck against the full stored
    digits.  Survivors are reported; nothing here is a proof.
    """
    if not values:
        return []
    if N_recheck <= N:
        raise ValueError("recheck precision must exceed the search precision")
    place = values[0].value.place
    if any(v.value.place != place for v in values):
        raise ValueError("values live at different places")
    for v in values:
        if v.value.cutoff < N_recheck:
            raise ValueError(
                f"value {v.label} known only to O({place.symbol}^"
                f"{v.value.cutoff}); need {N_recheck}")
    ctx = place.ctx
    theta = RatK.T(ctx)
    columns = []       # (value index, theta power) per unknown
    digitized = []
    m_min = 0
    for i, v in enumerate(values):
        tp = embed_local(RatK.one(ctx), place, N_recheck + 4 * (d + 1))
        th = embed_local(theta, place, N_recheck + 4 * (d + 1))
        for j in range(d + 1):
            if j:
                tp = tp * th
            y = tp * v.value
            columns.append((i, j))
            digitized.append(y)
            if not y.is_exact_zero():
                m_min = min(m_min, y.nu)
    rows = []
    for m in range(m_min, N):
        row = []
        for y in digitized:
            if y.is_exact_zero() or m < y.nu:
                row.append(0)
            else:
                row.append(y.digit(m))
        rows.append(tuple(row))
    reports = []
    for ker in fq_kernel(ctx, rows, len(columns)):
        coeffs = []
        for i in range(len(values)):
            poly = [0] * (d + 1)
            for col_idx, (vi, j) in enumerate(columns):
                if vi == i:
                    poly[j] = ker[col_idx]
            coeffs.append(PolyA(ctx, poly))
        if all(c.is_zero() for c in coeffs):
            continue
        coeffs = _normalize_leading(ctx, coeffs)
        residual = LocalNum.exact_zero(place)
        for c, v in zip(coeffs, values):
            if not c.is_zero():
                residual = residual + embed_local(
                    RatK(c), place, N_recheck + 4 * (d + 1)) * v.value
        if residual.is_exact_zero():
            bound = INF
        else:
            bound = residual.valuation_lower_bound()
        if bound >= N_recheck:
            reports.append(RelationReport(
                coeffs, bound, N, N_recheck,
                labels=tuple(v.label for v in values)))
    return reports


def _normalize_leading(ctx, coeffs):
    lead = next((c for c in coeffs if not c.is_zero()), None)
    inv = ctx.inv(lead.lead)
    return [c.scale(inv) for c in coeffs]


# -- decompositions ------------------------------------------------------

class Decomposition:
    """zeta_A(target) = sum_l b_l Li*_{s_l}(u_l), with certification state."""

    def __init__(self, target, terms, certification=None):
        self.target = target
        self.terms = tuple(terms)
        for b, s_l, u_l in self.terms:
            if s_l.weight != target.weight:
                raise ValueError("decomposition terms must preserve weight")
            if s_l.depth > target.depth:
                raise ValueError("decomposition terms must not raise depth")
            if s_l.depth != u_l.depth:
                raise ValueError("index/argument depth mismatch")
        self.certification = dict(certification or {})

    @property
    def certified(self):
        return bool(self.certification.get("certified"))

    def __repr__(self):
        return (f"Decomposition({self.target}, {len(self.terms)} terms, "
                f"certified={self.certified})")


def depth1_decomposition(ctx, s):
    """The built-in single-term candidate zeta_A(s) = Li*_(s)(1), s <= q-1.

    A candidate only: it must still pass infinite-place certification.
    """
    if not 1 <= s <= ctx.q - 1:
        raise ValueError("built-in candidates cover 1 <= s <= q-1 only")
    return Decomposition(Index([s]),
                         [(RatK.one(ctx), Index([s]),
                           ArgTuple([RatK.one(ctx)]))])


def verify_decomposition_inf(dec, N):
    """Certify a decomposition by comparing both sides at the infinite place.

    The zeta side is summed with its tail bound below q^-N; the star side
    is evaluated to the same window; the difference must vanish to N digits
    or CertificationFailed carries the observed residual valuation.
    """
    if not dec.terms:
        raise ValueError("empty decomposition")
    ctx = dec.terms[0][0].num.ctx
    inf = PlaceInf(ctx)
    for _, s_l, u_l in dec.terms:
        if not domain_check(s_l, u_l, CONV_INF):
            raise CertificationFailed(
                "a term lies outside the infinite-place convergence domain")
    s1 = dec.target[0]
    D_max = N // s1 + 1
    lhs = mzv_inf(dec.target, ctx, D_max, prec=N)
    rhs = LocalNum.exact_zero(inf)
    for b, s_l, u_l in dec.terms:
        term = cmspl_eval(s_l, u_l, inf, N + 4)
        rhs = rhs + embed_local(b, inf, N + 4) * term
    residual = lhs - rhs
    bound = INF if residual.is_exact_zero() \
        else residual.valuation_lower_bound()
    if bound < N:
        raise CertificationFailed(
            f"decomposition residual at the infinite place has order {bound}",
            residual_ord=bound)
    dec.certification = {"certified": True, "prec": N}
    return dict(dec.certification)


_TENSOR_CACHE = {}


def _depth1_extended(s, u1, place, prec):
    from .tmodule import (
        extended_cmspl_v, tensor_carlitz_spec, validate_tmodule, with_args,
    )
    key = (place, s)
    spec = _TENSOR_CACHE.get(key)
    if spec is None:
        spec = tensor_carlitz_spec(s, place.ctx)
        cert = validate_tmodule(spec, place, 30)
        if not cert.ok:
            raise MissingTModuleSpec(
                f"tensor power {s} failed validation at this place")
        _TENSOR_CACHE[key] = spec
    ctx = place.ctx
    point = tuple([RatK.zero(ctx)] * (s - 1) + [u1])
    run = with_args(spec, ArgTuple([u1]), point)
    return extended_cmspl_v(run, place, prec)


def eval_vmzv(dec, place, prec, tmodules=None):
    """The v-adic MZV attached to a certified decomposition.

    Terms inside the convergence domain go through the direct star series;
    terms that are merely v-integral need a validated t-module (depth one
    is built in via the tensor powers; deeper terms must be supplied).
    """
    if not dec.terms:
        raise ValueError("empty decomposition")
    if not dec.certified:
        raise UncertifiedDecomposition(
            "decomposition lacks infinite-place certification")
    out = LocalNum.exact_zero(place)
    for b, s_l, u_l in dec.terms:
        if domain_check(s_l, u_l, CONV_V, place):
            term = cmspl_eval(s_l, u_l, place, prec)
        elif domain_check(s_l, u_l, DEF_V, place):
            if s_l.depth == 1:
                term = _depth1_extended(s_l[0], u_l[0], place, prec)
            else:
                spec = (tmodules or {}).get(str(s_l))
                if spec is None or not spec.validated:
                    raise MissingTModuleSpec(
                        f"no validated t-module for index ({s_l})")
                from .tmodule import extended_cmspl_v
                term = extended_cmspl_v(spec, place, prec)
        else:
            raise CertificationFailed(
                "a term lies outside the v-adic defining domain")
        out = out + embed_local(b, place, prec + 8) * term
    return out.truncate(prec)


def zeta_v(ctx, place, s, prec, N_cert=40):
    """Convenience pipeline: certify the depth-one candidate, then evaluate."""
    dec = depth1_decomposition(ctx, s)
    verify_decomposition_inf(dec, N_cert)
    return eval_vmzv(dec, place, prec)


# -- decomposition files -------------------------------------------------

def dump_decomposition(dec, ctx):
    lines = [f"p: {ctx.p}", f"e: {ctx.e}", f"target: {dec.target}"]
    for b, s_l, u_l in dec.terms:
        lines.append(f"term: {b} | {s_l} | {u_l}")
    if dec.certified:
        lines.append("certified: true")
        lines.append(f"prec: {dec.certification.get('prec')}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text):
    fields = parse_fields(text, repeated=("term",))
    try:
        ctx = FqContext(int(fields["p"]), int(fields.get("e", "1")))
        target = Index.parse(fields["target"])
        parsed = []
        for t in fields["term"]:
            b_s, s_s, u_s = (part.strip() for part in t.split("|"))
            b = parse_ratk(ctx, b_s)
            s_l = Index.parse(s_s)
            u_l = ArgTuple([parse_ratk(ctx, x) for x in u_s.split(",")])
            parsed.append((b, s_l, u_l))
        cert = None
        if fields.get("certified") == "true":
            # a "date" line from older files is accepted and ignored
            cert = {"certified": True, "prec": int(fields["prec"])}
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad decomposition file: {exc}") from exc
    return Decomposition(target, parsed, cert), ctx
