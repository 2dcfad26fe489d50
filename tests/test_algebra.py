"""Tests for the base field, polynomial, and rational-function arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcarlitz.algebra import (
    FqContext, PolyA, RatK, irreducible_test, monic_enumerate, parse_poly,
    parse_ratk,
)
from vcarlitz.errors import DivisionByZero, ParseError

from oracles import (
    carlitz_action, carlitz_theta, fq_schoolbook, polya_divmod_loop,
)

CTX3 = FqContext(3)
CTX4 = FqContext(2, 2)
CTX9 = FqContext(3, 2)


def poly_strategy(ctx, max_deg=6):
    return st.lists(st.integers(0, ctx.q - 1), min_size=0, max_size=max_deg + 1) \
             .map(lambda c: PolyA(ctx, c))


# -- field tables -------------------------------------------------------

def test_fp_tables():
    assert CTX3.add(2, 2) == 1
    assert CTX3.mul(2, 2) == 1
    assert CTX3.inv(2) == 2
    assert CTX3.neg(1) == 2
    with pytest.raises(DivisionByZero):
        CTX3.inv(0)


def test_f4_tables():
    # codes: 0, 1, 2 = x, 3 = x + 1 with x^2 = x + 1
    assert CTX4.mul(2, 2) == 3
    assert CTX4.mul(2, 3) == 1
    assert CTX4.add(2, 3) == 1
    assert CTX4.inv(2) == 3


def test_f9_frobenius_is_field_automorphism():
    for a in range(CTX9.q):
        for b in range(CTX9.q):
            lhs = CTX9.pow(CTX9.add(a, b), 3)
            rhs = CTX9.add(CTX9.pow(a, 3), CTX9.pow(b, 3))
            assert lhs == rhs


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_field_axioms(a, b, c):
    ctx = CTX9
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.mul(a, b) == ctx.mul(b, a)
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1


# -- polynomials --------------------------------------------------------

def test_poly_roundtrip_print_parse():
    for text in ("T^2+2", "2*T^3+T", "T", "1", "0", "T^5+2*T^2+2"):
        f = parse_poly(CTX3, text)
        assert str(f) == text


def test_poly_bracket_coefficients():
    f = parse_poly(CTX4, "[x+1]*T^2+[x]*T+1")
    assert f.coeffs == (1, 2, 3)
    assert str(f) == "[x+1]*T^2+[x]*T+1"


@given(poly_strategy(CTX3), poly_strategy(CTX3), poly_strategy(CTX3))
def test_poly_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@given(poly_strategy(CTX3), poly_strategy(CTX3))
def test_poly_divmod(f, g):
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


# q in {2, 3, 4, 5, 9, 17, 101}: e > 1 and p > 16 (multi-byte slots) too
KERNEL_FIELDS = [FqContext(*pe) for pe in ((2, 1), (3, 1), (2, 2), (5, 1),
                                           (3, 2), (17, 1), (101, 1))]


@st.composite
def poly_pairs(draw):
    """Two polynomials over one field with 0 to 100 coefficients, dense or
    mostly zero."""
    ctx = draw(st.sampled_from(KERNEL_FIELDS))

    def poly():
        digit = st.integers(0, ctx.q - 1)
        if draw(st.booleans()):
            digit = st.one_of(st.just(0), st.just(0), st.just(0), digit)
        return PolyA(ctx, draw(st.lists(digit, max_size=100)))

    return poly(), poly()


@given(poly_pairs())
@settings(max_examples=300, deadline=None)
def test_poly_product_and_division_match_field_method_loops(pair):
    f, g = pair
    ctx = f.ctx
    want = fq_schoolbook(f.coeffs, g.coeffs, len(f.coeffs) + len(g.coeffs),
                         ctx.add, ctx.mul)
    assert f * g == PolyA(ctx, want)
    if not g.is_zero():
        assert f.divmod(g) == polya_divmod_loop(f, g)
        assert (f * g).divmod(g) == (f, PolyA.zero(ctx))


@given(st.sampled_from(KERNEL_FIELDS).flatmap(
    lambda ctx: poly_strategy(ctx, 5)))
@settings(max_examples=100, deadline=None)
def test_poly_power_matches_repeated_product(f):
    want = PolyA.one(f.ctx)
    for n in range(10):
        assert f ** n == want
        want = want * f


@given(poly_strategy(CTX9, 4), poly_strategy(CTX9, 4))
def test_frobenius_additive(f, g):
    assert (f + g).frobenius() == f.frobenius() + g.frobenius()


FROB_FIELDS = [FqContext(2), CTX3, CTX4, FqContext(5), FqContext(2, 3), CTX9]


@st.composite
def frob_cases(draw):
    ctx = draw(st.sampled_from(FROB_FIELDS))
    return draw(poly_strategy(ctx, 3)), draw(st.integers(0, 2))


@given(frob_cases())
@settings(max_examples=100, deadline=None)
def test_frobenius_spread_matches_powering(case):
    f, n = case
    want = f
    for _ in range(n):
        want = want ** f.ctx.q
    assert f.frobenius(n) == want


def _fp_polymul(a, b, p):
    """Schoolbook product of two F_p[x] coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _fp_polymod(a, m, p):
    """Remainder of a by the monic modulus m over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _tables_by_search(ctx):
    """The field tables built coordinatewise, by vector products and by
    searching for negatives and inverses."""
    p, e, q = ctx.p, ctx.e, ctx.q
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            # base-p digits are the coordinates over F_p
            add[a][b] = sum((a // p ** u + b // p ** u) % p * p ** u
                            for u in range(e))
            prod = _fp_polymul(ctx.to_vector(a), ctx.to_vector(b), p)
            if e > 1:
                prod = _fp_polymod(prod, ctx.modulus, p)
            mul[a][b] = ctx.from_vector(prod)
    neg = [next(b for b in range(q) if add[a][b] == 0) for a in range(q)]
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
    return add, neg, mul, inv


@pytest.mark.parametrize("p,e,modulus", [
    (2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None),
    (2, 2, None), (3, 2, None), (5, 2, None), (7, 2, (1, 0, 1))])
def test_field_tables_match_search(p, e, modulus):
    ctx = FqContext(p, e, modulus)
    assert (ctx._add, ctx._neg, ctx._mul, ctx._inv) == _tables_by_search(ctx)


@pytest.mark.parametrize("p,e,modulus", [
    (2, 2, (1, 0, 1)),      # x^2 + 1 = (x + 1)^2 over F_2
    (3, 2, (2, 0, 1))])     # x^2 + 2 = (x + 1)(x + 2) over F_3
def test_reducible_modulus_is_refused(p, e, modulus):
    with pytest.raises(ValueError, match="not irreducible"):
        FqContext(p, e, modulus)


def test_monic_enumerate_lexicographic():
    ms = monic_enumerate(CTX3, 2)
    assert len(ms) == 9
    assert str(ms[0]) == "T^2"
    assert str(ms[1]) == "T^2+1"
    assert str(ms[-1]) == "T^2+2*T+2"
    assert all(m.lead == 1 and m.degree == 2 for m in ms)


def test_irreducibility():
    assert irreducible_test(parse_poly(CTX3, "T^2+1"))
    assert not irreducible_test(parse_poly(FqContext(2), "T^2+1"))
    assert irreducible_test(parse_poly(CTX3, "T+2"))
    assert not irreducible_test(parse_poly(CTX3, "T^2+2"))  # = (T+1)(T+2)


# -- rational functions -------------------------------------------------

def test_ratk_reduction_and_print():
    r = parse_ratk(CTX3, "(T^2+2*T)/(T^2+T)")  # T(T+2) / T(T+1)
    assert str(r) == "(T+2)/(T+1)"
    assert parse_ratk(CTX3, str(r)) == r


RATK_FIELDS = [FqContext(2), CTX3, CTX4, FqContext(5), CTX9]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RATK_FIELDS).flatmap(
    lambda ctx: st.tuples(poly_strategy(ctx, 4), poly_strategy(ctx, 4))))
def test_ratk_print_parse_roundtrip(pair):
    num, den = pair
    if den.is_zero():
        return
    r = RatK(num, den)
    assert parse_ratk(num.ctx, str(r)) == r


@pytest.mark.parametrize("text", [
    "1/T+1",            # read as 1/(T+1) before parentheses were required
    "(T+1)/T+2",
    "T+1/T",
    "((T+1",
    "T+1)",
    "((T+1))",
    "(T+1",
    "(T)(T)",
    "1/T/T",
    "[x+1]/T",          # printed ([x+1])/T: a side holding '+' is bracketed
])
def test_parse_ratk_refuses_unbracketed_or_unbalanced_text(text):
    with pytest.raises(ParseError):
        parse_ratk(CTX4, text)


@given(poly_strategy(CTX3, 3), poly_strategy(CTX3, 3),
       poly_strategy(CTX3, 3), poly_strategy(CTX3, 3))
def test_ratk_field_axioms(a, b, c, d):
    if b.is_zero() or d.is_zero():
        return
    x, y = RatK(a, b), RatK(c, d)
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@given(poly_strategy(CTX9, 3), poly_strategy(CTX9, 3), st.integers(1, 8))
def test_ratk_polynomial_fast_exit_is_reduced(f, g, c):
    # RatK(f) takes the exit for a denominator of one; RatK(f g c, g c) takes
    # the gcd and the monic rescale
    if g.is_zero():
        return
    h = g.scale(c)
    fast, general = RatK(f), RatK(f * h, h)
    assert (fast.num, fast.den) == (general.num, general.den)
    assert RatK(f, PolyA.one(CTX9)).den == general.den
    s = RatK(f) + RatK(g)
    assert (s.num, s.den) == (f + g, PolyA.one(CTX9))


@st.composite
def ratk_pairs(draw):
    """Two fractions whose denominators are often equal or share a factor."""
    ctx = draw(st.sampled_from([FqContext(2), CTX3, CTX4, FqContext(5)]))
    polys = poly_strategy(ctx, 3)
    nonzero = polys.filter(lambda f: not f.is_zero())
    g = draw(nonzero)
    b = draw(nonzero) * g
    if draw(st.booleans()):
        d = b
    else:
        d = draw(nonzero) * draw(st.sampled_from([g, PolyA.one(ctx)]))
    return RatK(draw(polys), b), RatK(draw(polys), d)


@given(ratk_pairs())
@settings(max_examples=300, deadline=None)
def test_ratk_sum_shortcuts_match_the_plain_sum(pair):
    x, y = pair
    den = x.den * y.den
    for got, want in ((x + y, RatK(x.num * y.den + y.num * x.den, den)),
                      (x - y, RatK(x.num * y.den - y.num * x.den, den)),
                      (-y, RatK(-y.num, y.den))):
        assert (got.num, got.den) == (want.num, want.den)


def test_ratk_monic_denominator():
    r = RatK(parse_poly(CTX3, "T"), parse_poly(CTX3, "2*T+1"))
    assert r.den.lead == 1


# -- Carlitz action -----------------------------------------------------

def test_carlitz_theta():
    z = RatK.T(CTX3)
    assert str(carlitz_theta(z)) == "T^3+T^2"


def test_carlitz_action_theta_squared():
    z = RatK.T(CTX3)
    a = parse_poly(CTX3, "T^2")
    assert str(carlitz_action(a, z)) == "T^9+T^6+T^4+T^3"


@given(poly_strategy(CTX3, 3), poly_strategy(CTX3, 3))
@settings(max_examples=25)
def test_carlitz_action_additive_in_a(a, b):
    z = RatK.T(CTX3)
    lhs = carlitz_action(a + b, z)
    rhs = carlitz_action(a, z) + carlitz_action(b, z)
    assert lhs == rhs


def test_carlitz_action_composes():
    z = RatK.T(CTX3)
    a = parse_poly(CTX3, "T+1")
    b = parse_poly(CTX3, "T^2+2")
    assert carlitz_action(a * b, z) == carlitz_action(a, carlitz_action(b, z))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly(CTX3, "T^2+T^2")
    with pytest.raises(ParseError):
        parse_poly(CTX3, "T%3")
