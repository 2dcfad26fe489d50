"""Tests for polylogarithms, zeta values, and the deformation series."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcarlitz.algebra import (
    FqContext, PolyA, RatK, monic_enumerate, parse_poly, parse_ratk,
)
from vcarlitz.errors import DomainError
from vcarlitz.local import (
    LocalNum, PlaceInf, PlaceV, embed_local, embed_poly, valuation_of,
)
from vcarlitz.tseries import TSeries, eval_series, frobenius_twist
from vcarlitz import polylog as pl

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


def test_argtuple_rejects_zero():
    with pytest.raises(ValueError):
        pl.ArgTuple((RatK.zero(CTX3),))


# -- L_i ----------------------------------------------------------------

def test_L_factorial_values():
    assert pl.L_factorial(CTX3, 0).is_one()
    assert str(pl.L_factorial(CTX3, 1)) == "2*T^3+T"  # theta - theta^3
    assert valuation_of(embed_poly(pl.L_factorial(CTX3, 2), V0, 8)) == 2
    assert valuation_of(embed_poly(pl.L_factorial(CTX3, 3), V1, 8)) == 3


def test_L_factorial_recursion():
    q = CTX3.q
    for i in (1, 2, 3):
        factor = PolyA.T(CTX3) - PolyA.T(CTX3) ** (q ** i)
        assert pl.L_factorial(CTX3, i) == pl.L_factorial(CTX3, i - 1) * factor


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
    assert li.nu == 1 and li.digit(1) == 1


def test_cmpl_inf_depth1_one():
    li = pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((ONE,)), INF3, 10)
    acc = embed_local(ONE, INF3, 14)
    for i in range(1, 8):
        acc = acc + embed_poly(pl.L_factorial(CTX3, i), INF3, 14).inv()
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


# -- the suffix-sum engine against the chain loop ------------------------

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


@settings(max_examples=150, deadline=None)
@given(local_rows(uniform=True), st.booleans())
def test_nested_sum_matches_chain_loop(rows, strict):
    # one relative window, as in every chain sum: same digits, same cutoff
    assert pl._nested_sum(rows, strict) == chain_loop(rows, strict)


@settings(max_examples=150, deadline=None)
@given(local_rows(uniform=False), st.booleans())
def test_nested_sum_window_never_narrower(rows, strict):
    fast, slow = pl._nested_sum(rows, strict), chain_loop(rows, strict)
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
    fast, slow = pl._nested_sum(rows, strict), chain_loop(rows, strict)
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


def test_mzv_degree_zero_partial():
    z = pl.mzv_inf(pl.Index((3,)), CTX3, 0)
    assert z.digit(0) == 1


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
    assert om.coeff(0).congruent(LocalNum.unit_one(V0, 9), 9)
    tgt = embed_local(-(TH ** 3), V0, 6)
    assert om.coeff(1).congruent(tgt, 9)


def test_omega_difference_equation():
    om = pl.omega_product(TH, V0, 6, 9)
    aq = embed_local(TH ** 3, V0, 9)
    fac = TSeries.from_local_coeffs(
        V0, [LocalNum.unit_one(V0, 9), -aq], 6, 9)
    resid = om - fac * frobenius_twist(om)
    assert resid.is_zero_to_window()


def test_omega_rejects_units():
    with pytest.raises(DomainError):
        pl.omega_product(ONE, V0, 4, 8)


def test_pi_tilde_value_and_unit():
    pt = pl.pi_tilde(TH, V0, 9)
    tgt = embed_local(ONE - TH ** 2 - TH ** 8, V0, 9)
    assert pt.congruent(tgt, 9)
    assert valuation_of(pt) == 0


def test_pi_tilde_agrees_with_series_evaluation():
    om = pl.omega_product(TH, V0, 12, 12)
    val = eval_series(om, embed_local(TH.inv(), V0, 14),
                      decay=pl.omega_decay(V0, TH))
    assert val.congruent(pl.pi_tilde(TH, V0, 9), 9)


def test_omega_at_inverse_powers():
    assert pl.omega_at_inverse_power(TH, V0, 1, 9).is_exact_zero()
    assert pl.omega_at_inverse_power(TH, V0, 2, 9).is_exact_zero()
    assert pl.omega_at_inverse_power(TH, V0, 0, 9).congruent(
        pl.pi_tilde(TH, V0, 9), 9)


# -- deformation series -------------------------------------------------

def _uniformizer_ratk(place):
    return RatK(place.uniformizer())


def test_deformation_functional_equation_depth1():
    D, N = 8, 20
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    L = pl.deformation_build(s, u, V0, D, N)
    om = pl.omega_product(_uniformizer_ratk(V0), V0, D, N)
    pi_loc = embed_poly(V0.uniformizer(), V0, N)
    fac = TSeries.from_local_coeffs(
        V0, [LocalNum.unit_one(V0, N), -pi_loc.pow(3)], D, N)
    rhs = frobenius_twist(om).scale(embed_local(TH, V0, N)) * fac \
        + frobenius_twist(L).t_shift(1, N)
    assert (L - rhs).is_zero_to_window()


@pytest.mark.parametrize("svec", [(2, 1), (1, 1, 1)])
def test_deformation_functional_equation_higher_depth(svec):
    # the recursion peels the innermost chain entry; the outer slots leave
    # a residual power t^(s_1 + ... + s_(r-1)) on the non-recursive term
    D, N = 8, 20
    s = pl.Index(svec)
    u = pl.ArgTuple((TH,) * len(svec))
    sub_s = pl.Index(svec[:-1])
    sub_u = pl.ArgTuple((TH,) * (len(svec) - 1))
    L = pl.deformation_build(s, u, V0, D, N)
    Lsub = pl.deformation_build(sub_s, sub_u, V0, D, N)
    om = pl.omega_product(_uniformizer_ratk(V0), V0, D, N)
    pi_loc = embed_poly(V0.uniformizer(), V0, N)
    sr = svec[-1]
    head = sum(svec[:-1])
    fac = TSeries.from_local_coeffs(
        V0, [LocalNum.unit_one(V0, N), -pi_loc.pow(3)], D, N).pow(sr)
    rhs = (frobenius_twist(om).pow(sr).scale(embed_local(TH, V0, N)) * fac
           * frobenius_twist(Lsub)).t_shift(head, N) \
        + frobenius_twist(L).t_shift(head + sr, N)
    assert (L - rhs).is_zero_to_window()


def test_deformation_constant_term_depth1():
    D, N = 4, 12
    L = pl.deformation_build(pl.Index((1,)), pl.ArgTuple((TH,)), V0, D, N)
    c0 = L.coeff(0)
    # only the chain (0) reaches t^0: u_1 times the omega-tail constant 1
    assert c0.valuation() == 1 and c0.digit(1) == 1


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
    assert v1.congruent(v0.qpow(), 18)


def test_specialize_raw_value_carries_uniformizer_power():
    # the literal series value differs from the normalized one by pi^(N*wt*q^N)
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    norm = pl.deformation_specialize(s, u, V0, 1, 15)
    raw = pl.deformation_specialize(s, u, V0, 1, 15, normalized=False)
    assert raw.congruent(norm.shift(-3), 12)


def test_specialize_drops_low_chains():
    # with N_twist = 2 every chain entry below 2 vanishes; depth 1 check
    # against the double qpow
    s, u = pl.Index((1,)), pl.ArgTuple((TH,))
    v0 = pl.deformation_specialize(s, u, V0, 0, 12)
    v2 = pl.deformation_specialize(s, u, V0, 2, 12)
    assert v2.congruent(v0.qpow(2), 10)
