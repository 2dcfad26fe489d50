"""Tests for Frobenius difference systems and their certificates."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcarlitz.algebra import FqContext, PolyA, RatK
from vcarlitz.cli import _residual_records
from vcarlitz.errors import CertificationFailed, DomainError
from vcarlitz.local import LocalNum, PlaceV, embed_local
from vcarlitz.polylog import (
    ArgTuple, Index, cmpl_eval, deformation_specialize, omega_product,
    pi_tilde,
)
from vcarlitz.diffsys import (
    DiffSystem, Residual, _det_structural, _one_minus_alpha_q_t,
    _specialization_holds, _tp_det, block_sum, build_cmpl_system, build_omega_system,
    mpl_certificate, tp_add, tp_eval_k, tp_mul, tp_normalize,
    tp_one, tp_scale, vabp_certify, verify_difference,
)
from vcarlitz.diffsys import tp_apply as tp_apply_term
from vcarlitz.tseries import TSeries, residual_order

from oracles import (
    deformation_build_per_prefix, det_structural_whole, from_local_coeffs,
    omega_power_products, one_minus_alpha_q_t_loop, residual_by_series,
    series_pow, tp_apply, vabp_certify_full,
)

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
T = RatK.T(CTX3)
ONE = RatK.one(CTX3)


def t_power(w):
    return (RatK.zero(CTX3),) * w + (ONE,)


# -- t-polynomials -------------------------------------------------------

def test_tpoly_arithmetic_and_print():
    a = (ONE, T)          # 1 + T t
    b = (T, -ONE)         # T - t
    ab = tp_mul(a, b, CTX3)
    assert tp_eval_k(ab, T) == tp_eval_k(a, T) * tp_eval_k(b, T)
    assert tp_add(a, tp_scale(a, -ONE, CTX3), CTX3) == ()
    assert tp_normalize([T, RatK.zero(CTX3)]) == (T,)


def test_tpoly_apply_matches_scalar_action():
    g = from_local_coeffs(
        V0, [embed_local(c, V0, 20) for c in (ONE, T, T * T)], 5, 20)
    a = (T, ONE)  # T + t
    out = tp_apply(a, g, V0, 20)
    # coefficient of t^1: T*T + 1*1
    want = T * T + ONE
    assert (out.coeffs[1] - embed_local(want, V0, 20)).zero_to(20)


def _tp_apply_by_terms(a, g, place, N):
    """The sum over m of c_m * (t^m g), t^m g padded by zeros known to pi^N."""
    zero = LocalNum.zero_to_precision(place, N)
    out = []
    for n in range(g.order):
        acc = zero
        for m, c in enumerate(a[:g.order]):
            if not c.is_zero():
                term = g.coeffs[n - m] if m <= n else zero
                acc = acc + term * embed_local(c, place, N)
        out.append(acc)
    return out


_TP_FIELDS = [FqContext(2), CTX3, FqContext(2, 2), FqContext(5),
              FqContext(2, 3), FqContext(3, 2)]


@st.composite
def _tp_apply_cases(draw):
    ctx = draw(st.sampled_from(_TP_FIELDS))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))
    poly = st.lists(st.integers(0, ctx.q - 1), max_size=3).map(
        lambda c: PolyA(ctx, c))
    # num / (pi^k h): pi^k gives negative valuations at v
    ratk = st.tuples(poly, st.integers(0, 2), poly).map(
        lambda t: RatK(t[0], place.uniformizer() ** t[1]
                       * (t[2] if not t[2].is_zero() else PolyA.one(ctx))))
    coeff = st.one_of(
        st.just(LocalNum.exact_zero(place)),
        st.integers(-4, 16).map(
            lambda c: LocalNum.zero_to_precision(place, c)),
        st.tuples(st.integers(-4, 8),
                  st.lists(st.integers(0, ctx.q - 1), min_size=1,
                           max_size=16)).map(lambda t: LocalNum(place, *t)))
    a = tuple(draw(st.lists(ratk, max_size=6)))
    g = TSeries(place, draw(st.lists(coeff, max_size=8)))
    return a, g, place, draw(st.integers(1, 16))


@given(_tp_apply_cases())
@settings(max_examples=150, deadline=None)
def test_tp_apply_matches_shifted_sum(case):
    a, g, place, N = case
    got = tp_apply(a, g, place, N).coeffs
    want = _tp_apply_by_terms(a, g, place, N)
    assert [(c.is_exact_zero(), c.nu, c.coeffs) for c in got] == [
        (c.is_exact_zero(), c.nu, c.coeffs) for c in want]


@st.composite
def _residual_cases(draw, dense=False):
    """(place, base, terms, N): terms (a, g) with a a t-polynomial over k
    (exact-zero coefficients, poles at v), g a series with exact-zero runs,
    zero runs and digits; base None (with terms), random, or the sum of the
    terms with one digit changed at or just past its last claimed
    position.  With `dense`, every coefficient of g has nonzero digits past
    pi^N, so most terms have more digit pairs than grid positions."""
    ctx = draw(st.sampled_from(_TP_FIELDS))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))
    N = draw(st.integers(8 if dense else 1, 16))
    D = draw(st.integers(1, 8))
    poly = st.lists(st.integers(0, ctx.q - 1), max_size=3).map(
        lambda c: PolyA(ctx, c))
    ratk = st.tuples(poly, st.integers(0, 2), poly).map(
        lambda t: RatK(t[0], place.uniformizer() ** t[1]
                       * (t[2] if not t[2].is_zero() else PolyA.one(ctx))))
    coeff = st.one_of(
        st.just(LocalNum.exact_zero(place)),
        st.integers(-4, 16).map(
            lambda c: LocalNum.zero_to_precision(place, c)),
        st.tuples(st.integers(-4, 8),
                  st.lists(st.integers(0, ctx.q - 1), min_size=1,
                           max_size=16)).map(lambda t: LocalNum(place, *t)))
    if dense:
        coeff = st.tuples(st.integers(0, 2), st.lists(
            st.integers(1, ctx.q - 1), min_size=N + 4, max_size=N + 4)).map(
                lambda t: LocalNum(place, *t))

    def series(n):
        return st.lists(coeff, min_size=n, max_size=n).map(
            lambda cs: TSeries(place, cs))

    terms = draw(st.lists(
        st.tuples(st.lists(ratk, min_size=1, max_size=5).map(tuple),
                  st.integers(0, 1).flatmap(lambda k: series(D + k))),
        max_size=3))
    kind = draw(st.sampled_from(["none", "random", "sum", "last", "past"]))
    if not terms:
        kind = "random"
    if kind == "none":
        return place, None, terms, N
    if kind == "random":
        return place, draw(series(D + draw(st.integers(0, 1)))), terms, N
    base = TSeries.zero(place, D, N)
    for a, g in terms:
        base = base + tp_apply(a, g, place, N)
    coeffs = list(base.coeffs)
    n = draw(st.integers(0, D - 1))
    c = coeffs[n]
    if not c.is_exact_zero():
        digit = draw(st.integers(1, ctx.q - 1))
        coeffs[n] = c + LocalNum(place, c.cutoff - (kind == "last"), (digit,))
    return place, TSeries(place, coeffs), terms, N


# a pole: the product pi^-1 (1 + pi + ...) is known only to
# nu(g_0) + cutoff(c_0) = 3, below the cap N = 4, and base agrees with it
# through pi^7
_POLE = (V0, TSeries(V0, [LocalNum(V0, -1, (1,) * 9)]),
         [((ONE / T,), TSeries(V0, [LocalNum(V0, 0, (1,) * 8)]))], 4)


@given(_residual_cases())
@example(_POLE)
@settings(max_examples=300, deadline=None)
def test_residual_order_matches_series_route(case):
    place, base, terms, N = case
    got = residual_order(place, base, [tp_apply_term(a, g, place, N)
                                       for a, g in terms], N)
    assert got == residual_by_series(place, base, terms, N)


@given(_residual_cases(dense=True))
@settings(max_examples=100, deadline=None)
def test_residual_order_of_dense_terms_matches_series_route(case):
    place, base, terms, N = case
    got = residual_order(place, base, [tp_apply_term(a, g, place, N)
                                       for a, g in terms], N)
    assert got == residual_by_series(place, base, terms, N)


# -- construction and residuals -----------------------------------------

@pytest.mark.parametrize("q,lam", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_omega_system_verifies(q, lam):
    place = PlaceV(FqContext(q), lam)
    res = verify_difference(build_omega_system(place), 40, 40)
    assert res.is_zero
    records, ok = _residual_records(res)
    assert records[0][0] == "residual_ord" and ok is True


@pytest.mark.parametrize("s,u", [
    ((1,), (T,)),
    ((2,), (T,)),
    ((2, 1), (T, T + ONE)),
    ((1, 1, 1), (T * T, T, T + ONE)),
])
def test_cmpl_system_verifies(s, u):
    sys = build_cmpl_system(Index(list(s)), ArgTuple(list(u)), V0)
    assert verify_difference(sys, 40, 40).is_zero


def test_cmpl_depth2_diagonal_shape():
    sys = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    # twisted diagonal: (1-pi^q t)^3, t^2 (1-pi^q t), t^3
    assert len(sys.phi[0][0]) == 4
    assert sys.phi[1][1][:2] == (RatK.zero(CTX3),) * 2
    assert sys.phi[2][2] == t_power(3)
    # last column above the corner is zero
    assert sys.phi[0][2] == () and sys.phi[1][2] == ()


def test_cmpl_rejects_bad_domain():
    with pytest.raises(DomainError):
        build_cmpl_system(Index([1]), ArgTuple([ONE / T]), V0)


def test_perturbation_detected():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    psi = list(sys.psi(20, 20))
    bad = list(psi[1].coeffs)
    bad[2] = bad[2] + LocalNum(V0, 3, (1,) + (0,) * 17)
    perturbed = DiffSystem(
        V0, sys.phi, lambda D, N, rows: (psi[0], TSeries(V0, bad)),
        sys.weight, sys.alpha, kind=sys.kind)
    res = verify_difference(perturbed, 20, 20)
    assert not res.is_zero and res.ord <= 4


def _perturbed_cmpl(D, N, nu):
    """The CMPL system of (2, 1; T, T + 1), its last deformation row (built
    from Omega u_2 and its twists) changed by pi^nu at t^(D - 2)."""
    sys = build_cmpl_system(Index((2, 1)), ArgTuple((T, T + ONE)), V0)

    def build(D_, N_, rows):
        psi = list(sys.psi(D_, N_, rows))
        bad = list(psi[-1].coeffs)
        bad[D - 2] = bad[D - 2] + LocalNum(V0, nu, (2,))
        psi[-1] = TSeries(V0, bad)
        return psi

    return DiffSystem(V0, sys.phi, build, sys.weight, sys.alpha,
                      index=sys.index, args=sys.args, kind=sys.kind)


def test_verify_difference_fails_at_the_last_claimed_digit():
    # a digit at pi^(N-1) is the last one the residual check claims: fail
    # with ord N - 1; the same digit at pi^N is beyond it: ok.  The twisted
    # copy of the change, at pi^(q (N-1)), lies past pi^N.
    D, N = 12, 16
    res = verify_difference(_perturbed_cmpl(D, N, N - 1), D, N)
    assert _residual_records(res) == (
        [("residual_ord", str(N - 1)), ("status", "fail")], False)
    res = verify_difference(_perturbed_cmpl(D, N, N), D, N)
    assert _residual_records(res) == (
        [("residual_ord", "inf"), ("status", "ok")], True)


# -- block sums ----------------------------------------------------------

def test_block_sum_single_is_identity_shape():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    bs = block_sum([sys])
    assert bs.size == sys.size and bs.phi == sys.phi
    assert verify_difference(bs, 20, 20).is_zero


def test_block_sum_two_omegas():
    bs = block_sum([build_omega_system(V0), build_omega_system(V0)])
    assert bs.size == 2
    assert verify_difference(bs, 30, 30).is_zero


def test_block_sum_padded_weights_still_verifies():
    s1 = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    s2 = build_cmpl_system(Index([2]), ArgTuple([T]), V0)
    bs = block_sum([s1, s2])
    assert bs.weight == 2
    assert verify_difference(bs, 30, 30).is_zero


_BLOCKS = [None, ((1,), (T,)), ((2,), (T * T,)), ((2, 1), (T, T + ONE)),
           ((1, 1), (T * T, ONE))]


def _block(entry):
    if entry is None:
        return build_omega_system(V0)
    return build_cmpl_system(Index(entry[0]), ArgTuple(entry[1]), V0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_BLOCKS), st.integers(1, 16), st.integers(1, 24))
def test_psi_matches_per_prefix_builds(entry, D, N):
    # psi = (Omega^w, L_(s_1) Omega^(s_2+..+s_r), ..., L_s), each series
    # built on its own and Omega's powers by repeated squaring
    sys = _block(entry)
    omega = omega_product(sys.alpha, V0, D, N)
    want = [series_pow(omega, sys.weight)]
    if entry is not None:
        s = Index(entry[0])
        for l, dep in enumerate(deformation_build_per_prefix(
                s, ArgTuple(entry[1]), V0, D, N), 1):
            tail = sum(s[l:])
            want.append(dep * series_pow(omega, tail) if tail else dep)
    assert [p.runs for p in sys.psi(D, N)] == [p.runs for p in want]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=3),
       st.integers(1, 16), st.integers(1, 24))
def test_block_sum_psi_is_blocks_times_omega_pad(entries, D, N):
    systems = [_block(e) for e in entries]
    bs = block_sum(systems)
    omega = omega_product(bs.alpha, V0, D, N)
    want = []
    for sysj in systems:
        pad = bs.weight - sysj.weight
        want += [p * series_pow(omega, pad) if pad else p
                 for p in sysj.psi(D, N)]
    assert [p.runs for p in bs.psi(D, N)] == [p.runs for p in want]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=3),
       st.integers(1, 16), st.integers(1, 24), st.data())
def test_psi_on_rows_matches_the_full_vector(entries, D, N, data):
    bs = block_sum([_block(e) for e in entries])
    rows = data.draw(st.sets(st.integers(0, bs.size - 1)))
    full, got = bs.psi(D, N), bs.psi(D, N, rows)
    assert [j for j, p in enumerate(got) if p is not None] == sorted(rows)
    assert all(got[j].runs == full[j].runs for j in rows)


def test_block_sum_builds_each_omega_power_once(monkeypatch):
    # the 8-entry vABP system: two (1,1,1) blocks of weight 3 read Omega^3
    # (row 0), Omega^2 and Omega; each power is read off in closed form,
    # once per (place, k, D, N), and no series product builds one
    import vcarlitz.polylog as polylog
    D, N = 16, 20
    powers = [omega_power_products(V0, k, D, N).runs for k in (1, 2, 3)]
    monkeypatch.setattr(polylog, "_OMEGA_TAIL_CACHE", {})
    products, builds = [], []
    real_mul, real_build = TSeries.__mul__, polylog.omega_product

    def spy_mul(a, b):
        out = real_mul(a, b)
        products.append(out.runs)
        return out

    def spy_build(alpha, place, D, N, k=1):
        builds.append((place, k, D, N))
        return real_build(alpha, place, D, N, k)

    monkeypatch.setattr(TSeries, "__mul__", spy_mul)
    monkeypatch.setattr(polylog, "omega_product", spy_build)
    bs = block_sum([build_cmpl_system(Index((1, 1, 1)), ArgTuple(u), V0)
                    for u in ((T, ONE, ONE), (T * T, T, ONE))])
    assert bs.size == 8
    psi = bs.psi(D, N)
    assert products and not any(runs in products for runs in powers)
    assert sorted(builds, key=lambda b: b[1]) == [(V0, k, D, N)
                                                  for k in (1, 2, 3)]
    assert psi[0].runs == psi[4].runs == powers[2]


def test_block_sum_refuses_mixed_places():
    with pytest.raises(ValueError):
        block_sum([build_omega_system(V0),
                   build_omega_system(PlaceV(CTX3, 1))])


# -- specialization ------------------------------------------------------

def test_specialization_at_inverse_uniformizer():
    # the last entry of psi(alpha^(-1)) is pitilde^w Li, read literally
    s = Index([2])
    u = ArgTuple([T])
    pt = pi_tilde(RatK(V0.uniformizer()), V0, 30)
    li = cmpl_eval(s, u, V0, 30)
    last = deformation_specialize(s, u, V0, 0, 30)
    assert (last - pt.pow(2) * li).zero_to(30)


def test_specialization_at_higher_twist_kills_all_but_last():
    # Omega(alpha^(-q^N)) = 0 for N >= 1 leaves the last entry, read
    # literally, as the whole check
    sys = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    target = cmpl_eval(sys.index, sys.args, V0, 30) \
        * pi_tilde(sys.alpha, V0, 30).pow(sys.weight)
    assert deformation_specialize(sys.index, sys.args, V0, 1, 30).coeffs
    assert _specialization_holds(sys, 1, 30, target)
    assert not _specialization_holds(sys, 1, 30,
                                     target + LocalNum(V0, 1, (1,) + (0,) * 30))


def test_specialization_at_zero_twist_reads_the_last_entry():
    """At N = 0 the check reads only the last entry of psi(alpha^(-1)): it
    passes that entry and fails it off in its last digit."""
    sys = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    last = deformation_specialize(sys.index, sys.args, V0, 0, 30)
    assert last.cutoff == 30
    assert _specialization_holds(sys, 0, 30, last)
    assert not _specialization_holds(sys, 0, 30,
                                     last + LocalNum(V0, 29, (1,)))


def test_specialization_refuses_a_zero_short_of_prec():
    """A difference with no digits, known only to pi^(prec - 1), is not
    zero to prec: the check asks zero_to(prec), not only for no digits."""
    sys = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    last = deformation_specialize(sys.index, sys.args, V0, 0, 30)
    short = last.truncate(29)
    d = last - short
    assert not d.coeffs and d.cutoff == 29
    assert not _specialization_holds(sys, 0, 30, short)


# -- MPL certificates ----------------------------------------------------

def test_mpl_certificate_weight1():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    cert = mpl_certificate(sys, 1, t_power(1), [1, 2], prec=30)
    assert cert.ok and bool(cert)


def test_mpl_certificate_wrong_weight_fails_condition3():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    cert = mpl_certificate(sys, 2, t_power(1), [1], prec=30)
    assert not cert.ok
    assert 3 in cert.failed()


def test_mpl_certificate_depth2_weight3():
    sys = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    cert = mpl_certificate(sys, 3, t_power(3), [1], prec=30)
    assert cert.ok


def test_mpl_certificate_wrong_ftype_fails_condition2():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    cert = mpl_certificate(sys, 1, t_power(2), [1], prec=20)
    assert 2 in cert.failed()


@pytest.mark.parametrize("kind", ["omega", "block", "generic"])
def test_mpl_certificate_refuses_a_system_that_is_not_cmpl(kind):
    # none of these has an index to evaluate Z at
    cmpl = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    sys = {"omega": lambda: build_omega_system(V0),
           "block": lambda: block_sum([build_omega_system(V0), cmpl]),
           "generic": lambda: DiffSystem(V0, cmpl.phi, cmpl.psi, cmpl.weight,
                                         cmpl.alpha)}[kind]()
    with pytest.raises(CertificationFailed,
                       match="specialization needs a constructed system"):
        mpl_certificate(sys, 1, t_power(1), [1], prec=20)


# -- vABP certification --------------------------------------------------

def test_vabp_duplicated_rows():
    dup = block_sum([build_omega_system(V0), build_omega_system(V0)])
    gamma = RatK(V0.uniformizer()).inv()
    one = tp_one(CTX3)
    neg = tp_scale(one, -ONE, CTX3)
    assert vabp_certify(dup, gamma, (ONE, -ONE), (one, neg), 30, 30)


def test_vabp_zero_certificate():
    sys = build_omega_system(V0)
    gamma = RatK(V0.uniformizer()).inv()
    assert vabp_certify(sys, gamma, (RatK.zero(CTX3),), ((),), 30, 30)


def test_vabp_rejects_false_claim():
    sys = build_omega_system(V0)
    gamma = RatK(V0.uniformizer()).inv()
    assert not vabp_certify(sys, gamma, (ONE,), (tp_one(CTX3),), 30, 30)


def test_vabp_checks_evaluation_at_gamma():
    dup = block_sum([build_omega_system(V0), build_omega_system(V0)])
    gamma = RatK(V0.uniformizer()).inv()
    one = tp_one(CTX3)
    neg = tp_scale(one, -ONE, CTX3)
    # right relation, wrong claimed values at gamma
    assert not vabp_certify(dup, gamma, (ONE, ONE), (one, neg), 20, 20)


def test_vabp_refuses_unstructured_determinant():
    sys = build_omega_system(V0)
    broken = DiffSystem(V0, (((),),),
                        lambda D, N, rows: [TSeries.zero(V0, D, N)],
                        1, sys.alpha)
    gamma = RatK(V0.uniformizer()).inv()
    with pytest.raises(CertificationFailed):
        vabp_certify(broken, gamma, (RatK.zero(CTX3),), ((),), 10, 10)


def _spy_deformation_build(monkeypatch):
    import vcarlitz.diffsys as diffsys
    calls, real = [], diffsys.deformation_build

    def spy(s, u, place, D, N):
        calls.append(s.s)
        return real(s, u, place, D, N)

    monkeypatch.setattr(diffsys, "deformation_build", spy)
    return calls


def test_psi_rows_build_only_the_blocks_read(monkeypatch):
    calls = _spy_deformation_build(monkeypatch)
    # rows 0-1, 2-4 and 5-7; row 0 of each block is Omega^w padded
    bs = block_sum([_block(e) for e in _BLOCKS[1:2] + _BLOCKS[3:]])
    full = bs.psi(12, 12)
    assert calls == [(1,), (2, 1), (1, 1)]
    calls.clear()
    got = bs.psi(12, 12, {3})
    assert calls == [(2, 1)]
    assert [j for j, p in enumerate(got) if p is not None] == [3]
    assert got[3].runs == full[3].runs
    calls.clear()
    got = bs.psi(12, 12, {0, 2, 5})
    assert calls == []
    assert [j for j, p in enumerate(got) if p is not None] == [0, 2, 5]
    assert all(got[j].runs == full[j].runs for j in (0, 2, 5))
    assert bs.psi(12, 12, set()) == (None,) * bs.size


def test_vabp_on_first_entries_builds_no_deformation_series(monkeypatch):
    calls = _spy_deformation_build(monkeypatch)
    bs = block_sum([_block(e) for e in _BLOCKS[2:4]])
    gamma = RatK(V0.uniformizer()).inv()
    one = tp_one(CTX3)
    P = (one, (), tp_scale(one, -ONE, CTX3), (), ())
    rho = tuple(tp_eval_k(pj, gamma) for pj in P)
    assert vabp_certify(bs, gamma, rho, P, 20, 20)
    assert calls == []


_PI = RatK(V0.uniformizer())


@pytest.mark.parametrize("certify", [True, False])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_vabp_on_the_support_matches_the_full_psi_check(certify, data):
    # f (e_a - e_b) on the first entries of two blocks is a relation;
    # extra entries with P_j = pi^N c or t^D c vanish mod (t^D, pi^N), and
    # a unit constant on a deformation row (ord <= 6 < N) never does
    entries = data.draw(st.lists(st.sampled_from(_BLOCKS), min_size=2,
                                 max_size=3))
    D, N = data.draw(st.integers(4, 16)), data.draw(st.integers(8, 20))
    systems = [_block(e) for e in entries]
    bs = block_sum(systems)
    offs = [sum(sj.size for sj in systems[:i]) for i in range(len(systems))]
    deform = [o + l for o, sj in zip(offs, systems) for l in range(1, sj.size)]
    a, b = sorted(data.draw(st.permutations(range(len(systems))))[:2])
    f = data.draw(st.sampled_from([(ONE,), (T,), (T + ONE, ONE)]))
    P = [() for _ in range(bs.size)]
    P[offs[a]], P[offs[b]] = f, tp_scale(f, -ONE, CTX3)
    vanish = [(_PI ** N,), t_power(D)]
    for j in data.draw(st.lists(st.sampled_from(range(bs.size)),
                                max_size=3, unique=True)):
        if j not in (offs[a], offs[b]):
            P[j] = tp_scale(data.draw(st.sampled_from(vanish)),
                            data.draw(st.sampled_from([ONE, T])), CTX3)
    if not certify and deform:
        P[data.draw(st.sampled_from(deform))] = (
            data.draw(st.sampled_from([ONE, -ONE, T + ONE])),)
    gamma = _PI.inv()
    rho = tuple(tp_eval_k(pj, gamma) for pj in P)
    got = vabp_certify(bs, gamma, rho, tuple(P), D, N)
    assert got == vabp_certify_full(bs, gamma, rho, tuple(P), D, N)
    assert got == (certify or not deform)


def _last_digit_certificate(D, N, k):
    """Two copies of the CMPL system of (1; T): psi_1 - psi_3 = 0 on their
    deformation rows, perturbed by pi^k psi_1, whose lowest digit is at
    ord k + 1.  rho is P(gamma), so only the series check can fail."""
    bs = block_sum([_block(_BLOCKS[1]), _block(_BLOCKS[1])])
    low = min(c.valuation() for c in bs.psi(D, N)[1].coeffs
              if c.valuation() is not None)
    assert low == 1
    P = ((), (ONE + _PI ** k,), (), (-ONE,))
    gamma = _PI.inv()
    return bs, gamma, tuple(tp_eval_k(pj, gamma) for pj in P), P


def test_vabp_refuses_a_term_at_the_last_claimed_digit():
    # P . psi gains a term of valuation exactly N - 1: refused; times pi,
    # of valuation N, it vanishes mod pi^N: certified
    D, N = 30, 30
    cert = _last_digit_certificate(D, N, N - 2)
    assert not vabp_certify(*cert, D, N)
    assert not vabp_certify_full(*cert, D, N)
    cert = _last_digit_certificate(D, N, N - 1)
    assert vabp_certify(*cert, D, N)
    assert vabp_certify_full(*cert, D, N)


# -- determinants --------------------------------------------------------

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


def _det_by_permutations(phi, ctx):
    """The n! permutation sum that the Laplace expansion replaced."""
    det = ()
    for perm in itertools.permutations(range(len(phi))):
        term = tp_one(ctx)
        for i, j in enumerate(perm):
            term = tp_mul(term, phi[i][j], ctx)
        if _perm_sign(perm) < 0:
            term = tp_scale(term, -ONE, ctx)
        det = tp_add(det, term, ctx)
    return det


_COEFFS = [RatK.zero(CTX3), ONE, -ONE, T, T + ONE, T.inv(), T * T]
_ENTRY = st.one_of(
    st.just(()),
    st.lists(st.sampled_from(_COEFFS), min_size=1, max_size=3).map(
        tp_normalize))


@st.composite
def _tp_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        rows[j] = rows[i]     # singular: a repeated row
    return tuple(tuple(r) for r in rows)


@given(_tp_matrices())
@settings(max_examples=60, deadline=None)
def test_tp_det_matches_permutation_sum(phi):
    assert _tp_det(phi, CTX3) == _det_by_permutations(phi, CTX3)


def test_tp_det_of_built_systems():
    sys = block_sum([build_cmpl_system(Index([1, 1]), ArgTuple([T, T]), V0),
                     build_omega_system(V0)])
    diag = tp_one(CTX3)
    for i in range(sys.size):
        diag = tp_mul(diag, sys.phi[i][i], CTX3)
    assert _tp_det(sys.phi, CTX3) == diag
    assert _tp_det(sys.phi, CTX3) == _det_by_permutations(sys.phi, CTX3)


# -- the powers of (1 - alpha^q t) ---------------------------------------

_POWER_FIELDS = {2: FqContext(2), 3: CTX3, 4: FqContext(2, 2),
                 5: FqContext(5), 9: FqContext(3, 2)}
_POWER_LOOPS = {}


def _power_loop(place):
    """The oracle's powers k = 0..30, built once per place."""
    if place not in _POWER_LOOPS:
        _POWER_LOOPS[place] = one_minus_alpha_q_t_loop(place, 30)
    return _POWER_LOOPS[place]


@pytest.mark.parametrize("q", sorted(_POWER_FIELDS))
@given(st.lists(st.integers(0, 30), max_size=6))
@example(list(range(31)))
@settings(max_examples=20, deadline=None)
def test_closed_form_powers_match_products(q, ks):
    ctx = _POWER_FIELDS[q]
    for lam in range(q):
        place = PlaceV(ctx, lam)
        got = _one_minus_alpha_q_t(place, ks)
        assert sorted(got) == sorted(set(ks))   # only the powers asked for
        loop = _power_loop(place)
        assert all(got[k] == loop[k] for k in got)


# -- the blockwise determinant test --------------------------------------

_F = _one_minus_alpha_q_t(V0, [1])[1]          # 1 - alpha^q t
_TV = (RatK.zero(CTX3), ONE)                    # t
_ONE_PLUS_T = (ONE, ONE)
_UNITS = [ONE, -ONE, T, T.inv() + ONE]


def _tp_matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ()
            for k in range(n):
                acc = tp_add(acc, tp_mul(a[i][k], b[k][j], CTX3), CTX3)
            row.append(acc)
        out.append(row)
    return out


def _system(phi):
    return DiffSystem(V0, phi,
                      lambda D, N, rows: [TSeries.zero(V0, D, N)] * len(phi),
                      1, RatK(V0.uniformizer()))


@st.composite
def _structured_entries(draw):
    """c t^a (1 - alpha^q t)^b, c a unit of k."""
    out = tp_scale(tp_one(CTX3), draw(st.sampled_from(_UNITS)), CTX3)
    for _ in range(draw(st.integers(0, 2))):
        out = tp_mul(out, _TV, CTX3)
    for _ in range(draw(st.integers(0, 2))):
        out = tp_mul(out, _F, CTX3)
    return out


@st.composite
def _diagonal_blocks(draw):
    """A diagonal block of size 1, 2 or 3: L U with L lower unitriangular
    and U upper triangular with structured diagonal entries (one of them
    times 1 + t when `broken`), or one with random entries."""
    n = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) == 0:
        return [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    U = [[draw(_structured_entries()) if i == j else
          draw(_ENTRY) if j > i else () for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        U[k][k] = tp_mul(U[k][k], _ONE_PLUS_T, CTX3)
    L = [[tp_one(CTX3) if i == j else draw(_ENTRY) if j < i else ()
          for j in range(n)] for i in range(n)]
    return _tp_matmul(L, U)


@st.composite
def _block_lower_triangular(draw):
    blocks = draw(st.lists(_diagonal_blocks(), min_size=1, max_size=3))
    n = sum(len(b) for b in blocks)
    phi = [[()] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            phi[off + i][:off] = [draw(_ENTRY) for _ in range(off)]
            phi[off + i][off:off + len(b)] = row
        off += len(b)
    return tuple(tuple(r) for r in phi)


@given(_block_lower_triangular())
@settings(max_examples=60, deadline=None)
def test_blockwise_det_test_matches_whole_matrix(phi):
    sys = _system(phi)
    assert _det_structural(sys) == det_structural_whole(sys)


def _cmpl_with_phi(phi):
    base = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    return DiffSystem(V0, phi, base._psi_build, base.weight, base.alpha,
                      index=base.index, args=base.args, kind=base.kind)


def test_built_phi_with_a_stray_factor_is_refused():
    base = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    assert _det_structural(base)
    phi = [list(r) for r in base.phi]
    phi[1][1] = tp_mul(phi[1][1], _ONE_PLUS_T, CTX3)
    sys = _cmpl_with_phi(phi)
    assert not _det_structural(sys)
    gamma = RatK(V0.uniformizer()).inv()
    zeros = (RatK.zero(CTX3),) * sys.size
    with pytest.raises(CertificationFailed):
        vabp_certify(sys, gamma, zeros, ((),) * sys.size, 10, 10)
    assert 1 in mpl_certificate(sys, 3, t_power(3), [1], prec=20).failed()


def _with_coupled_block(block):
    """A built omega block, then the 2 x 2 block, coupled below to it."""
    one, f = tp_one(CTX3), _F
    return ((f, (), ()),
            (one, block[0][0], block[0][1]),
            (_TV, block[1][0], block[1][1]))


def test_coupled_block_with_unstructured_det_is_refused():
    # det [[1, t], [t, 1]] = (1 - t)(1 + t)
    sys = _system(_with_coupled_block(((tp_one(CTX3), _TV),
                                       (_TV, tp_one(CTX3)))))
    assert not _det_structural(sys) and not det_structural_whole(sys)
    gamma = RatK(V0.uniformizer()).inv()
    with pytest.raises(CertificationFailed):
        vabp_certify(sys, gamma, (RatK.zero(CTX3),) * 3, ((),) * 3, 10, 10)


def test_coupled_block_with_structured_det_passes():
    # L U with L = [[1, 0], [1 + t, 1]] and U = [[t, 1 + t], [0, 1 - a^q t]]:
    # no entry has the form, the determinant t (1 - alpha^q t) has it
    L = [[tp_one(CTX3), ()], [_ONE_PLUS_T, tp_one(CTX3)]]
    U = [[_TV, _ONE_PLUS_T], [(), _F]]
    block = _tp_matmul(L, U)
    sys = _system(_with_coupled_block(block))
    assert _det_structural(sys) and det_structural_whole(sys)
    gamma = RatK(V0.uniformizer()).inv()
    assert vabp_certify(sys, gamma, (RatK.zero(CTX3),) * 3, ((),) * 3, 10, 10)


# -- dumps ---------------------------------------------------------------

def test_residual_dump_format():
    res = verify_difference(build_omega_system(V0), 10, 10)
    assert _residual_records(res) == (
        [("residual_ord", "inf"), ("status", "ok")], True)
