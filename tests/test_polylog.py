"""Tests for polylogarithms, zeta values, and the deformation series."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcarlitz.algebra import (
    FqContext, PolyA, RatK, monic_enumerate, parse_poly, parse_ratk,
)
from vcarlitz.diffsys import _specialization_holds, build_cmpl_system
from vcarlitz.errors import DomainError, PrecisionLoss
from vcarlitz.local import LocalNum, PlaceInf, PlaceV, embed_local, embed_poly
from vcarlitz.tseries import TSeries, frobenius_twist
from vcarlitz import polylog as pl
from vcarlitz import tmodule

from oracles import (
    F_at_inverse_power_loop, L_factorial, chain_sum_products,
    deformation_build_per_prefix, deformation_specialize_prefixes,
    delta_local, domain_check_inf, from_local_coeffs, nested_sum_prefixes,
    omega_power_products, omega_product_loop, omega_tail_loop,
    pi_tilde_loop, power_sum_enum, series_pow,
    specialization_holds_two_path,
)

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
V1 = PlaceV(CTX3, 1)
INF3 = PlaceInf(CTX3)
TH = RatK.T(CTX3)
ONE = RatK.one(CTX3)


# -- index / argument plumbing -----------------------------------------

def test_index_basics():
    s = pl.Index.parse("2,1,3")
    assert s.weight == 6 and s.depth == 3
    assert str(s) == "2,1,3"
    with pytest.raises(ValueError):
        pl.Index((0, 1))


@st.composite
def inf_domain_cases(draw):
    ctx = draw(st.sampled_from([FqContext(2), CTX3, FqContext(2, 2),
                                FqContext(5)]))

    def nonzero_poly():
        tail = draw(st.lists(st.integers(0, ctx.q - 1), max_size=7))
        return PolyA(ctx, tail + [draw(st.integers(1, ctx.q - 1))])

    r = draw(st.integers(1, 3))
    s = pl.Index(draw(st.lists(st.integers(1, 6), min_size=r, max_size=r)))
    return s, pl.ArgTuple([RatK(nonzero_poly(), nonzero_poly())
                           for _ in range(r)])


@given(inf_domain_cases())
@settings(max_examples=300, deadline=None)
def test_domain_check_at_infinity_matches_fractions(case):
    s, u = case
    assert pl.domain_check(s, u, pl.CONV_INF) == domain_check_inf(s, u)


def test_argtuple_rejects_zero():
    with pytest.raises(ValueError):
        pl.ArgTuple((RatK.zero(CTX3),))


# -- L_i ----------------------------------------------------------------

def test_L_factorial_values():
    assert L_factorial(CTX3, 0).is_one()
    assert str(L_factorial(CTX3, 1)) == "2*T^3+T"  # theta - theta^3
    assert embed_poly(L_factorial(CTX3, 2), V0, 8).valuation() == 2
    assert embed_poly(L_factorial(CTX3, 3), V1, 8).valuation() == 3
    assert pl.inv_ells(V0, 3, 8)[-1].valuation() == -2
    assert pl.inv_ells(V1, 4, 8)[-1].valuation() == -3
    assert pl.inv_ells(INF3, 3, 8)[-1].valuation() == 3 + 9


def test_L_factorial_recursion():
    q = CTX3.q
    for i in (1, 2, 3):
        factor = PolyA.T(CTX3) - PolyA.T(CTX3) ** (q ** i)
        assert L_factorial(CTX3, i) == L_factorial(CTX3, i - 1) * factor


# (p, e) of the fields q in {2, 3, 4, 5, 8, 9}
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


@st.composite
def places(draw, finite=False):
    """Every degree-one place and, unless `finite`, the infinite place."""
    ctx = FqContext(*draw(st.sampled_from(FIELDS)))
    lam = draw(st.integers(0 if finite else -1, ctx.q - 1))
    return PlaceInf(ctx) if lam < 0 else PlaceV(ctx, lam)


@settings(max_examples=150, deadline=None)
@given(places(), st.integers(0, 5), st.sampled_from([1, 2, 5, 20, 60]))
def test_inv_ell_matches_exact_factorial(place, i, window):
    # every entry of the prefix pass, not only the last
    got = pl.inv_ells(place, i + 1, window)
    assert len(got) == i + 1
    for j, x in enumerate(got):
        assert x == embed_poly(L_factorial(place.ctx, j), place, window).inv()


@settings(max_examples=100, deadline=None)
@given(places(finite=True), st.integers(1, 6), st.integers(1, 60))
def test_delta_inverse_matches_dense(place, i, window):
    assert tmodule._delta_inv(place, i, window) \
        == delta_local(place, i, window).inv()


# -- domains ------------------------------------------------------------

def test_domain_checks():
    s1 = pl.Index((1,))
    assert pl.domain_check(s1, pl.ArgTuple((TH,)), pl.CONV_V, V0)
    assert not pl.domain_check(s1, pl.ArgTuple((ONE,)), pl.CONV_V, V0)
    assert pl.domain_check(s1, pl.ArgTuple((ONE,)), pl.DEF_V, V0)
    assert pl.domain_check(pl.Index((2,)), pl.ArgTuple((ONE,)), pl.CONV_INF)
    # |theta|_inf = q and the bound for s=1 is q^(q/(q-1)) = 3^1.5
    assert pl.domain_check(s1, pl.ArgTuple((TH,)), pl.CONV_INF)
    assert not pl.domain_check(s1, pl.ArgTuple((TH * TH,)), pl.CONV_INF)


# -- CMPL / CMSPL -------------------------------------------------------

def test_cmpl_v_depth1_theta():
    li = pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((TH,)), V0, 4)
    tgt = embed_local(parse_ratk(CTX3, "T^2+T"), V0, 4)
    assert li.congruent(tgt, 4)


def test_cmpl_single_term_truncation():
    # at precision 1 only the i = 0 term survives: Li_(1)(theta) = theta + O
    li = pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((TH,)), V0, 2)
    assert li.nu == 1 and li.digits(1, 2) == (1,)


def test_plan_pins_the_least_index():
    # the bounds 5, 3, 6, 19, ... never drop below 3: nothing is summed
    assert pl._plan(lambda i: 5 * 2 ** i - 7 * i, 3) == (0, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.integers(1, 5), st.integers(0, 40),
       st.integers(-30, 30), st.integers(-20, 80))
def test_plan_matches_a_scan_of_the_bound(q, a, c, k, prec):
    # a q^i - c i + k is convex; past i = 12 it is above every prec drawn
    def bound(i):
        return a * q ** i - c * i + k
    ords = [bound(i) for i in range(40)]
    I = max((i + 1 for i, b in enumerate(ords) if b < prec), default=0)
    assert pl._plan(bound, prec) == (I, min([prec] + ords[:I]))


def test_chain_window_is_tight_at_infinity(monkeypatch):
    # Li_1(T) at infinity: ord T = -1 is the floor, so W = prec + 1, and
    # one digit fewer leaves the sum known below prec
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    I, W = pl._chain_plan(s, u, INF3, 20)
    assert W == 21 and pl.cmpl_eval(s, u, INF3, 20).cutoff == 20
    monkeypatch.setattr(pl, "_chain_plan", lambda *args: (I, W - 1))
    with pytest.raises(PrecisionLoss):
        pl.cmpl_eval(s, u, INF3, 20)


def test_cmpl_inf_depth1_one():
    li = pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((ONE,)), INF3, 10)
    acc = embed_local(ONE, INF3, 14)
    for i in range(1, 8):
        acc = acc + embed_poly(L_factorial(CTX3, i), INF3, 14).inv()
    assert li.congruent(acc, 10)


def test_cmpl_domain_errors():
    with pytest.raises(DomainError):
        pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((ONE,)), V0, 10)
    with pytest.raises(DomainError):
        pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((TH * TH,)), INF3, 10)


def test_cmspl_requires_extended_domain_hint():
    with pytest.raises(DomainError, match="extended"):
        pl.cmspl_eval(pl.Index((2,)), pl.ArgTuple((ONE,)), V0, 10)


def test_cmspl_depth1_equals_cmpl():
    s, u = pl.Index((2,)), pl.ArgTuple((TH,))
    a = pl.cmspl_eval(s, u, V0, 20)
    b = pl.cmpl_eval(s, u, V0, 20)
    assert a.congruent(b, 20)


def test_star_expand_patterns():
    assert [(c, tuple(i.s)) for c, i, _ in pl.star_expand(pl.Index((4,)))] \
        == [(1, (4,))]
    assert [(c, tuple(i.s)) for c, i, _ in pl.star_expand(pl.Index((1, 2)))] \
        == [(1, (1, 2)), (1, (3,))]
    got = sorted(tuple(i.s) for _, i, _ in pl.star_expand(pl.Index((1, 2, 3))))
    assert got == sorted([(1, 2, 3), (3, 3), (1, 5), (6,)])
    # all merges preserve the weight
    for _, idx, _ in pl.star_expand(pl.Index((2, 1, 1))):
        assert idx.weight == 4


def test_star_recombination_depth2_paper_identity():
    s = pl.Index((1, 1))
    u = pl.ArgTuple((TH, TH))
    star = pl.cmspl_eval(s, u, V0, 20)
    plain = pl.cmpl_eval(s, u, V0, 20)
    merged = pl.cmpl_eval(pl.Index((2,)), pl.ArgTuple((TH * TH,)), V0, 20)
    assert star.congruent(plain + merged, 20)


@pytest.mark.parametrize("svec,place", [
    ((1, 2), V0), ((2, 1), V0), ((1, 1, 1), V0), ((1, 2), V1),
])
def test_star_recombination_general(svec, place):
    s = pl.Index(svec)
    u = pl.ArgTuple((TH,) * len(svec)) if place is V0 \
        else pl.ArgTuple((parse_ratk(CTX3, "T+1"),) * len(svec))
    star = pl.cmspl_eval(s, u, place, 16)
    acc = LocalNum.zero_to_precision(place, 16)
    for coeff, idx, pattern in pl.star_expand(s):
        assert coeff == 1
        acc = acc + pl.cmpl_eval(idx, pl.merge_args(u, pattern), place, 16)
    assert star.congruent(acc, 16)


@pytest.mark.parametrize("place", [V0, INF3])
def test_depth1_stuffle(place):
    if place is V0:
        u, w = TH, TH * TH
    else:
        u, w = ONE, TH
    s, t = 1, 2
    lhs = pl.cmpl_eval(pl.Index((s,)), pl.ArgTuple((u,)), place, 14) \
        * pl.cmpl_eval(pl.Index((t,)), pl.ArgTuple((w,)), place, 14)
    rhs = pl.cmpl_eval(pl.Index((s, t)), pl.ArgTuple((u, w)), place, 14) \
        + pl.cmpl_eval(pl.Index((t, s)), pl.ArgTuple((w, u)), place, 14) \
        + pl.cmpl_eval(pl.Index((s + t,)), pl.ArgTuple((u * w,)), place, 14)
    assert lhs.congruent(rhs, 14)


# -- the Horner recursion against the product route ----------------------

@st.composite
def chain_cases(draw):
    """A chain sum at q in {2, 3, 4, 5, 9}, at a degree-one place with any
    lambda or at infinity, depth 1-4, strict or star, its argument
    constants drawn from all of F_q (outside F_p at q = 4 and 9)."""
    ctx = FqContext(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1),
                                           (3, 2)])))

    def poly():
        # a constant or a linear polynomial, so |u|_inf <= q: inside the
        # domain at infinity for every s >= 1
        head = draw(st.lists(st.integers(0, ctx.q - 1), max_size=1))
        return PolyA(ctx, head + [draw(st.integers(1, ctx.q - 1))])

    r = draw(st.integers(1, 4))
    s = pl.Index(draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    lam = draw(st.integers(-1, ctx.q - 1))
    if lam < 0:
        place = PlaceInf(ctx)
        u = [RatK(poly(), poly()) for _ in range(r)]
    else:
        place = PlaceV(ctx, lam)
        u = [RatK(place.uniformizer() * poly())] + [RatK(poly())
                                                    for _ in range(r - 1)]
    return (s, pl.ArgTuple(u), place, draw(st.integers(1, 40)),
            draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(chain_cases())
def test_chain_sum_matches_the_product_route(case):
    # same digits and cutoff as the rows of 1/ell_i powers multiplied by
    # one prefix pass, at the same plan
    s, u, place, prec, strict = case
    got = (pl.cmpl_eval if strict else pl.cmspl_eval)(s, u, place, prec)
    want = chain_sum_products(s, u, place, prec, strict)
    assert (got.nu, got.coeffs) == (want.nu, want.coeffs)


# -- the prefix pass against the chain loop -----------------------------

def chain_loop(rows, strict):
    """Brute-force oracle: one product per chain, entries past a row's end zero."""
    n = max(len(row) for row in rows)
    chains = (itertools.combinations(range(n), len(rows)) if strict
              else itertools.combinations_with_replacement(range(n), len(rows)))
    total = None
    for chain in chains:
        idx = tuple(reversed(chain))  # i_1 >= ... >= i_r
        if any(i >= len(row) for i, row in zip(idx, rows)):
            continue
        term = None
        for i, row in zip(idx, rows):
            term = row[i] if term is None else term * row[i]
        total = term if total is None else total + term
    return total


@st.composite
def local_entry(draw, place, window, nu_min):
    """A LocalNum with exact valuation, or sometimes an exact zero."""
    if draw(st.integers(0, 9)) == 0:
        return LocalNum.exact_zero(place)
    w = draw(st.integers(0, 6)) if window is None else window
    q = place.ctx.q
    digits = draw(st.lists(st.integers(0, q - 1), min_size=w, max_size=w))
    if digits:
        digits[0] = draw(st.integers(1, q - 1))
    return LocalNum(place, draw(st.integers(nu_min, 6)), digits)


@st.composite
def local_rows(draw, uniform):
    """Up to 4 rows of at most 6 entries; a uniform draw shares one window."""
    place = draw(st.sampled_from([V0, INF3, PlaceV(FqContext(2), 1)]))
    window = draw(st.integers(1, 6)) if uniform else None
    n = draw(st.integers(0, 6))
    return [draw(st.lists(local_entry(place, window, -4), max_size=n))
            for _ in range(draw(st.integers(1, 4)))]


def nested_sum(rows, strict):
    """The package's prefix pass on strict chains; weak chains, which no
    package code sums by rows any more, on the oracle that kept them."""
    return pl._nested_sum(rows) if strict else nested_sum_prefixes(rows, False)


@settings(max_examples=150, deadline=None)
@given(local_rows(uniform=True), st.booleans())
def test_nested_sum_matches_chain_loop(rows, strict):
    # one relative window, as in every chain sum: same digits, same cutoff,
    # for the sum of every prefix of the rows
    assert nested_sum(rows, strict) == [
        chain_loop(rows[:l], strict) for l in range(1, len(rows) + 1)]


@settings(max_examples=150, deadline=None)
@given(local_rows(uniform=False), st.booleans())
def test_nested_sum_window_never_narrower(rows, strict):
    for l, fast in enumerate(nested_sum(rows, strict), 1):
        slow = chain_loop(rows[:l], strict)
        assert (fast is None) == (slow is None)
        if slow is not None:
            assert fast.cutoff >= slow.cutoff and fast.congruent(slow)


@st.composite
def tseries_rows(draw):
    """Rows of series mod (t^D, pi^N) whose digits are integral and known to N."""
    D, N = draw(st.integers(1, 3)), draw(st.integers(1, 5))

    def coeff():
        if draw(st.booleans()):
            return LocalNum.zero_to_precision(V0, N + draw(st.integers(0, 2)))
        return draw(local_entry(V0, N + 2, 0)).truncate(N + 2)

    n = draw(st.integers(0, 4))
    rows = [[TSeries(V0, [coeff() for _ in range(D)])
             for _ in range(draw(st.integers(0, n)))]
            for _ in range(draw(st.integers(1, 3)))]
    return rows, N


@settings(max_examples=60, deadline=None)
@given(tseries_rows(), st.booleans())
def test_nested_sum_matches_chain_loop_on_series(rows_N, strict):
    rows, N = rows_N
    for l, fast in enumerate(nested_sum(rows, strict), 1):
        slow = chain_loop(rows[:l], strict)
        assert (fast is None) == (slow is None)
        if slow is not None:
            # every digit below pi^N is known on both sides and agrees
            assert all(c.cutoff >= N for c in fast.coeffs + slow.coeffs)
            assert [c.truncate(N) for c in fast.coeffs] \
                == [c.truncate(N) for c in slow.coeffs]


# -- infinite-place zeta values ----------------------------------------

def naive_mzv(svec, D_max, prec=30):
    """Direct nested enumeration over monic polynomials (oracle)."""
    acc = LocalNum.zero_to_precision(INF3, prec)
    monics = {d: monic_enumerate(CTX3, d) for d in range(D_max + 1)}

    def rec(pos, bound, cur):
        nonlocal acc
        if pos == len(svec):
            acc = acc + cur
            return
        for d in range(0, bound):
            for a in monics[d]:
                f = embed_poly(a, INF3, prec + 10).inv().pow(svec[pos])
                rec(pos + 1, d, f if cur is None else cur * f)

    rec(0, D_max + 1, None)
    return acc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 13),
       st.integers(1, 60))
def test_power_sum_matches_enumeration(field, d, s, prec):
    ctx = FqContext(*field)
    fast = pl.power_sum_inf(ctx, d, s, prec)
    slow = power_sum_enum(ctx, d, s, prec)
    assert fast.cutoff == slow.cutoff == prec
    assert (fast.nu, fast.coeffs) == (slow.nu, slow.coeffs)


# (p, e, d) with q^d <= 16, so the exact sum stays small
EXACT_SUMS = [(p, e, d) for p, e in [(2, 1), (3, 1), (2, 2), (5, 1)]
              for d in range(3) if (p ** e) ** d <= 16]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EXACT_SUMS), st.integers(1, 8), st.integers(1, 40))
def test_power_sum_matches_exact_sum(ped, s, prec):
    p, e, d = ped
    ctx = FqContext(p, e)
    place = PlaceInf(ctx)
    exact = RatK.zero(ctx)
    for a in monic_enumerate(ctx, d):
        exact = exact + RatK(a).inv() ** s
    want = embed_local(exact, place, prec + 1).truncate(prec)
    if want.is_exact_zero():
        want = LocalNum.zero_to_precision(place, prec)
    assert pl.power_sum_inf(ctx, d, s, prec) == want


def test_mzv_degree_zero_partial():
    z = pl.mzv_inf(pl.Index((3,)), CTX3, 0)
    assert z.digits(0, 1) == (1,)


def test_mzv_zeta1_through_degree1():
    z = pl.mzv_inf(pl.Index((1,)), CTX3, 1)
    tgt = embed_local(ONE - parse_ratk(CTX3, "T^3+2*T").inv(), INF3, 4)
    assert z.congruent(tgt, 2)


def test_mzv_depth2_block():
    # the degree-(1,0) block of zeta(1,1) is the degree-1 power sum times 1
    s11 = pl.power_sum_inf(CTX3, 1, 1, 12)
    tgt = embed_local(-parse_ratk(CTX3, "T^3+2*T").inv(), INF3, 12)
    assert s11.congruent(tgt, 12)


@pytest.mark.parametrize("svec,D_max", [
    ((1,), 3), ((2,), 3), ((1, 1), 3), ((2, 1), 2), ((3,), 2),
])
def test_mzv_against_naive_enumeration(svec, D_max):
    fast = pl.mzv_inf(pl.Index(svec), CTX3, D_max)
    slow = naive_mzv(svec, D_max)
    cut = min(fast.cutoff, 20)
    assert fast.congruent(slow, cut)


def test_mzv_partial_sums_cauchy():
    prev = None
    for D in range(0, 6):
        cur = pl.mzv_inf(pl.Index((2,)), CTX3, D, prec=12)
        if prev is not None:
            d = cur - prev
            assert d.valuation_lower_bound() >= 2 * D
        prev = cur


# -- omega and pi_tilde -------------------------------------------------

def test_omega_constant_and_linear_coefficients():
    om = pl.omega_product(TH, V0, 6, 9)
    assert om.coeffs[0].congruent(LocalNum.unit_one(V0, 9), 9)
    tgt = embed_local(-(TH ** 3), V0, 6)
    assert om.coeffs[1].congruent(tgt, 9)


def test_omega_difference_equation():
    om = pl.omega_product(TH, V0, 6, 9)
    aq = embed_local(TH ** 3, V0, 9)
    fac = from_local_coeffs(
        V0, [LocalNum.unit_one(V0, 9), -aq], 6, 9)
    resid = om - fac * frobenius_twist(om)
    assert all(not c.coeffs for _, c in resid.runs)


def test_omega_rejects_units():
    with pytest.raises(DomainError):
        pl.omega_product(ONE, V0, 4, 8)


def test_pi_tilde_value_and_unit():
    pt = pl.pi_tilde(TH, V0, 9)
    tgt = embed_local(ONE - TH ** 2 - TH ** 8, V0, 9)
    assert pt.congruent(tgt, 9)
    assert pt.valuation() == 0


def test_pi_tilde_agrees_with_series_evaluation():
    # the t^n coefficient of Omega has ord >= (q^(n+1) - q)/(q - 1), so at
    # t = 1/theta every term from n = 3 on has ord >= 39 - 3 = 36
    om = pl.omega_product(TH, V0, 3, 12)
    x = embed_local(TH.inv(), V0, 14)
    val = om.coeffs[0] + om.coeffs[1] * x + om.coeffs[2] * x * x
    assert val.cutoff >= 9
    assert val.congruent(pl.pi_tilde(TH, V0, 9), 9)


# -- deformation series -------------------------------------------------

def _uniformizer_ratk(place):
    return RatK(place.uniformizer())


def test_deformation_functional_equation_depth1():
    D, N = 8, 20
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    L = pl.deformation_build(s, u, V0, D, N)[-1]
    om = pl.omega_product(_uniformizer_ratk(V0), V0, D, N)
    pi_loc = embed_poly(V0.uniformizer(), V0, N)
    fac = from_local_coeffs(
        V0, [LocalNum.unit_one(V0, N), -pi_loc.pow(3)], D, N)
    rhs = frobenius_twist(om).scale(embed_local(TH, V0, N)) * fac \
        + frobenius_twist(L).t_shift(1, N)
    assert all(not c.coeffs for _, c in (L - rhs).runs)


@pytest.mark.parametrize("svec", [(2, 1), (1, 1, 1)])
def test_deformation_functional_equation_higher_depth(svec):
    # the recursion peels the innermost chain entry; the outer slots leave
    # a residual power t^(s_1 + ... + s_(r-1)) on the non-recursive term
    D, N = 8, 20
    s = pl.Index(svec)
    u = pl.ArgTuple((TH,) * len(svec))
    sub_s = pl.Index(svec[:-1])
    sub_u = pl.ArgTuple((TH,) * (len(svec) - 1))
    L = pl.deformation_build(s, u, V0, D, N)[-1]
    Lsub = pl.deformation_build(sub_s, sub_u, V0, D, N)[-1]
    om = pl.omega_product(_uniformizer_ratk(V0), V0, D, N)
    pi_loc = embed_poly(V0.uniformizer(), V0, N)
    sr = svec[-1]
    head = sum(svec[:-1])
    fac = series_pow(from_local_coeffs(
        V0, [LocalNum.unit_one(V0, N), -pi_loc.pow(3)], D, N), sr)
    rhs = (series_pow(frobenius_twist(om), sr).scale(embed_local(TH, V0, N))
           * fac * frobenius_twist(Lsub)).t_shift(head, N) \
        + frobenius_twist(L).t_shift(head + sr, N)
    assert all(not c.coeffs for _, c in (L - rhs).runs)


def test_deformation_constant_term_depth1():
    D, N = 4, 12
    L, = pl.deformation_build(pl.Index((1,)), pl.ArgTuple((TH,)), V0, D, N)
    c0 = L.coeffs[0]
    # only the chain (0) reaches t^0: u_1 times the omega-tail constant 1
    assert c0.valuation() == 1 and c0.digits(1, 2) == (1,)


@st.composite
def deformation_cases(draw):
    """(s, u, place, D, N) in the convergence domain: u_1 = pi^a f_1 with
    a >= 1, the other u_l polynomials, so v-integral."""
    ctx = draw(st.sampled_from([FqContext(2), CTX3, FqContext(2, 2),
                                FqContext(5), FqContext(3, 2)]))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))

    def poly():
        tail = draw(st.lists(st.integers(0, ctx.q - 1), max_size=2))
        return RatK(PolyA(ctx, tail + [draw(st.integers(1, ctx.q - 1))]))

    r = draw(st.integers(1, 3))
    s = pl.Index(draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    u1 = RatK(place.uniformizer()) ** draw(st.integers(1, 2)) * poly()
    u = pl.ArgTuple([u1] + [poly() for _ in range(r - 1)])
    return s, u, place, draw(st.integers(1, 40)), draw(st.integers(1, 60))


@settings(max_examples=40, deadline=None)
@given(deformation_cases())
def test_deformation_prefixes_match_per_prefix_builds(case):
    got = pl.deformation_build(*case)
    want = deformation_build_per_prefix(*case)
    assert [f.runs for f in got] == [f.runs for f in want]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FqContext(2), CTX3, FqContext(2, 2), FqContext(5)]),
       st.data(), st.integers(1, 20), st.integers(1, 40))
def test_omega_product_matches_product_loop(ctx, data, D, N):
    # alpha = pi^a f / (pi g + c) with f, g polynomials and c in F_q^*
    place = PlaceV(ctx, data.draw(st.integers(0, ctx.q - 1)))
    pi = place.uniformizer()

    def poly():
        tail = data.draw(st.lists(st.integers(0, ctx.q - 1), max_size=2))
        return PolyA(ctx, tail + [data.draw(st.integers(1, ctx.q - 1))])

    c = PolyA.constant(ctx, data.draw(st.integers(1, ctx.q - 1)))
    alpha = RatK(pi ** data.draw(st.integers(1, 3)) * poly(), pi * poly() + c)
    assert pl.omega_product(alpha, place, D, N).runs \
        == omega_product_loop(alpha, place, D, N).runs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FqContext(2), CTX3, FqContext(2, 2), FqContext(5)]),
       st.integers(0, 4), st.integers(0, 4), st.integers(1, 20),
       st.integers(1, 40))
def test_omega_tail_matches_power_loop(ctx, lam, i, D, N):
    # the tail prod_(j>i) (1 - pi^(q^j) t) is the i-th twist of Omega
    place = PlaceV(ctx, lam % ctx.q)
    tail = frobenius_twist(pl._omega_power(place, 1, D, N), i).clip(N)
    assert tail.runs == omega_tail_loop(place, i, D, N).runs


@pytest.mark.parametrize("ctx", [CTX3, FqContext(2, 2), FqContext(5)])
def test_omega_product_at_a_scaled_uniformizer(ctx):
    # alpha = c pi, c != 1, has pi's valuation and digits below the first,
    # so its digits may not be placed as pi's: alpha^(q^j) = c pi^(q^j)
    place = PlaceV(ctx, 1)
    alpha = RatK(place.uniformizer().scale(2))
    assert pl.omega_product(alpha, place, 6, 20).runs \
        == omega_product_loop(alpha, place, 6, 20).runs


CLOSED_FORM_FIELDS = [FqContext(2), CTX3, FqContext(2, 2), FqContext(5),
                      FqContext(3, 2)]


@st.composite
def _places(draw):
    ctx = draw(st.sampled_from(CLOSED_FORM_FIELDS))
    return PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))


@settings(max_examples=200, deadline=None)
@given(_places(), st.data(), st.integers(0, 80), st.integers(1, 100))
def test_omega_power_matches_series_products(place, data, D, N):
    # Omega^k read off its base-q digits against k - 1 series products,
    # k <= 2q, so tuples collide (k >= q) and binomials vanish mod p
    k = data.draw(st.integers(1, 2 * place.q))
    got = pl.omega_product(_uniformizer_ratk(place), place, D, N, k)
    assert got.runs == omega_power_products(place, k, D, N).runs


@settings(max_examples=200, deadline=None)
@given(_places(), st.data(), st.integers(1, 100))
def test_pi_tilde_matches_product_loop(place, data, N):
    # alpha = pi, or pi^a f / (pi g + c) with f, g polynomials, c in F_q^*
    ctx, pi = place.ctx, place.uniformizer()

    def poly():
        tail = data.draw(st.lists(st.integers(0, ctx.q - 1), max_size=2))
        return PolyA(ctx, tail + [data.draw(st.integers(1, ctx.q - 1))])

    c = PolyA.constant(ctx, data.draw(st.integers(1, ctx.q - 1)))
    alpha = data.draw(st.sampled_from([
        RatK(pi), RatK(pi ** data.draw(st.integers(1, 3)) * poly(),
                       pi * poly() + c)]))
    assert pl.pi_tilde(alpha, place, N) == pi_tilde_loop(alpha, place, N)


@settings(max_examples=200, deadline=None)
@given(_places(), st.integers(0, 2), st.integers(0, 5), st.integers(1, 100))
def test_F_at_inverse_power_matches_product_loop(place, N_twist, di, prec):
    # the chain sums read F_i only at i >= N; below it is an exact zero
    i = N_twist + di
    assert pl._F_at_inverse_power(place, i, N_twist, prec) \
        == F_at_inverse_power_loop(place, i, N_twist, prec)


@pytest.mark.parametrize("svec,uvec", [
    ((1,), ("T",)), ((2,), ("T",)), ((2, 1), ("T", "T")),
])
def test_specialize_matches_pi_tilde_times_cmpl(svec, uvec):
    s = pl.Index(svec)
    u = pl.ArgTuple(tuple(parse_ratk(CTX3, t) for t in uvec))
    got = pl.deformation_specialize(s, u, V0, 0, 20)
    pt = pl.pi_tilde(_uniformizer_ratk(V0), V0, 30)
    tgt = pt.pow(s.weight) * pl.cmpl_eval(s, u, V0, 30)
    assert got.congruent(tgt, 20)


def test_specialize_twist_is_qpow():
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    v0 = pl.deformation_specialize(s, u, V0, 0, 20)
    v1 = pl.deformation_specialize(s, u, V0, 1, 20)
    assert v1.shift(3).congruent(v0.qpow(), 18)


def test_specialize_raw_value_carries_uniformizer_power():
    # the literal value at twist N is pi^(-N*wt*q^N) (pitilde^wt Li)^(q^N)
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    v0 = pl.deformation_specialize(s, u, V0, 0, 15)
    raw = pl.deformation_specialize(s, u, V0, 1, 15)
    assert raw.nu == 3 * v0.nu - 3
    assert raw.shift(3).congruent(v0.qpow(), 12)


@st.composite
def _specialize_cases(draw):
    ctx = draw(st.sampled_from([FqContext(2), CTX3, FqContext(5)]))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))
    pi = place.uniformizer()
    r = draw(st.integers(1, 3))
    s = pl.Index(draw(st.lists(st.integers(1, 2), min_size=r, max_size=r)))
    # u_1 in the open unit disk at v, the others v-integral
    inner = [PolyA.one(ctx), PolyA.T(ctx), pi, PolyA(ctx, (1, 1))]
    u = [pi ** draw(st.integers(1, 2)) * draw(st.sampled_from(inner[:2]))]
    u += [draw(st.sampled_from(inner)) for _ in range(r - 1)]
    return (s, pl.ArgTuple([RatK(x) for x in u]), place,
            draw(st.integers(0, 2)), draw(st.integers(1, 30)))


@settings(max_examples=40, deadline=None)
@given(_specialize_cases())
def test_specialize_prefixes_match_each_prefix(case):
    # each prefix on its own plan gives the value the one prefix pass at
    # the whole index's plan gave it
    s, u, place, N, prec = case
    got = [pl.deformation_specialize(pl.Index(s.s[:l]), pl.ArgTuple(u.u[:l]),
                                     place, N, prec)
           for l in range(1, s.depth + 1)]
    want = deformation_specialize_prefixes(s, u, place, N, prec)
    assert [(x.nu, x.coeffs) for x in got] == [(x.nu, x.coeffs) for x in want]


@settings(max_examples=40, deadline=None)
@given(_specialize_cases(), st.data())
def test_specialization_check_matches_the_two_path_check(case, data):
    # one comparison at every twist gives the verdict of the route that
    # built psi(alpha^(-q^N)) with its zero entries set at N >= 1, for the
    # target and for the target moved by one digit
    s, u, place, N, prec = case
    sys_ = build_cmpl_system(s, u, place)
    pt = pl.pi_tilde(sys_.alpha, place, prec)
    target = pl.cmpl_eval(s, u, place, prec) * pt.pow(sys_.weight)
    n = data.draw(st.integers(min(0, target.nu), target.cutoff))
    c = data.draw(st.integers(1, place.q - 1))
    moved = target + LocalNum(place, n, (c,) + (0,) * (target.cutoff - n))
    for tgt in (target, moved):
        assert _specialization_holds(sys_, N, prec, tgt) \
            == specialization_holds_two_path(sys_, N, prec, pt, tgt)


def test_specialize_drops_low_chains():
    # with N_twist = 2 every chain entry below 2 vanishes; depth 1 check
    # against the double qpow
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    v0 = pl.deformation_specialize(s, u, V0, 0, 12)
    v2 = pl.deformation_specialize(s, u, V0, 2, 12)
    assert v2.shift(18).congruent(v0.qpow(2), 10)
