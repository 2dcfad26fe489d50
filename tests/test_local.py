"""Tests for truncated Laurent windows at the two places."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcarlitz import algebra
from vcarlitz.algebra import (
    FqContext, PolyA, RatK, fq_convolve, parse_poly, parse_ratk,
)
from vcarlitz.errors import DivisionByZero, ParseError, PrecisionLoss
from vcarlitz.local import (
    INF, LocalNum, PlaceInf, PlaceV, embed_local, embed_poly,
    geometric_divide,
)

from oracles import (
    fq_schoolbook, geometric_divide_loop, localnum_add, localnum_inv_loop,
    localnum_neg, localnum_qpow, localnum_scale_fq, localnum_sub,
    ord_poly_divmod, parse_local,
)

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
V1 = PlaceV(CTX3, 1)
INF3 = PlaceInf(CTX3)


def localnum_strategy(place, q=3):
    return st.tuples(
        st.integers(-5, 5),
        st.lists(st.integers(0, q - 1), min_size=1, max_size=10),
    ).map(lambda t: LocalNum(place, t[0], t[1]))


# -- division by (1 - pi^m)^S -------------------------------------------

@st.composite
def divide_cases(draw):
    """(x, m, S): q in {2, 3, 4, 5, 9, 127, 131}, digits from all of F_q or
    only from F_p, windows up to 300 digits."""
    ctx = FqContext(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1),
                                           (3, 2), (127, 1), (131, 1)])))
    top = draw(st.sampled_from([ctx.q, ctx.p])) - 1
    digits = draw(st.lists(st.integers(0, top), max_size=300))
    x = LocalNum(PlaceV(ctx, 0), draw(st.integers(-5, 5)), digits)
    return x, draw(st.integers(1, 40)), draw(st.integers(0, 2 * ctx.p + 1))


@given(divide_cases())
@settings(max_examples=200, deadline=None)
def test_geometric_divide_matches_the_digit_loop(case):
    x, m, S = case
    got, want = geometric_divide(x, m, S), geometric_divide_loop(x, m, S)
    assert (got.nu, got.coeffs) == (x.nu, want.coeffs)


# -- places -------------------------------------------------------------

def test_place_orders():
    f = parse_poly(CTX3, "T^3+2*T")  # theta(theta-1)(theta+1)
    assert V0.ord_poly(f) == 1
    assert V1.ord_poly(f) == 1
    assert INF3.ord_poly(f) == -3
    assert V0.ord_poly(parse_poly(CTX3, "T^2")) == 2
    assert V0.ord_ratk(parse_ratk(CTX3, "T/(T+1)")) == 1


def test_poly_digits_shifted_place():
    # theta = pi - 1 at lambda = 1, so theta^2 = 1 - 2 pi + pi^2
    digits = V1.poly_digits(parse_poly(CTX3, "T^2"))
    assert digits == [1, 1, 1]  # 1 + pi + pi^2 over F_3


def _deflate(f, root):
    """The quotient of f by (T - root), dropping the remainder f(root)."""
    ctx, coeffs = f.ctx, f.coeffs
    out = [0] * max(len(coeffs) - 1, 0)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = ctx.add(coeffs[i], ctx.mul(root, carry))
        out[i - 1] = carry
    return PolyA(ctx, out)


def _digits_by_deflation(place, f):
    """pi-digits of f by repeated synthetic division by pi = T + lambda."""
    root, digits = place.theta_root(), []
    while not f.is_zero():
        digits.append(f.eval_fq(root))
        f = _deflate(f, root)
    return digits


def _ord_by_deflation(place, f):
    root, n = place.theta_root(), 0
    while f.eval_fq(root) == 0:
        f = _deflate(f, root)
        n += 1
    return n


SHIFT_FIELDS = [FqContext(2), CTX3, FqContext(2, 2), FqContext(5),
                FqContext(3, 2)]


@st.composite
def shift_cases(draw):
    """(place, f, k): f nonzero of degree <= 300, times pi^k."""
    ctx = draw(st.sampled_from(SHIFT_FIELDS))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))
    deg = draw(st.integers(0, 300))
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), min_size=deg,
                           max_size=deg))
    f = PolyA(ctx, coeffs + [draw(st.integers(1, ctx.q - 1))])
    k = draw(st.integers(0, 12))
    return place, f * place.uniformizer() ** k, k


@st.composite
def ord_cases(draw):
    """(place, f, k): every lambda of q in {2, 3, 4, 5, 9}, f nonzero of
    degree <= 300, times pi^k."""
    ctx = draw(st.sampled_from(SHIFT_FIELDS))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))
    deg = draw(st.integers(0, 300))
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), min_size=deg,
                           max_size=deg))
    f = PolyA(ctx, coeffs + [draw(st.integers(1, ctx.q - 1))])
    k = draw(st.integers(0, 40))
    return place, f * place.uniformizer() ** k, k


@given(ord_cases())
@settings(max_examples=150, deadline=None)
def test_ord_poly_matches_division_loop(case):
    place, f, k = case
    assert place.ord_poly(f) == ord_poly_divmod(place, f) >= k


@given(shift_cases())
@settings(max_examples=150, deadline=None)
def test_taylor_shift_digits_match_deflation(case):
    place, f, k = case
    digits = place.poly_digits(f)
    assert digits == _digits_by_deflation(place, f)
    assert digits[:k] == [0] * k
    assert place.ord_poly(f) == _ord_by_deflation(place, f) >= k


@st.composite
def short_shift_cases(draw):
    """(place, f, k): lambda != 0 of q in {2, 3, 4, 5, 9}, f nonzero of
    degree <= p^2 + p, times pi^k with k <= 4: the shift's Horner pass on at
    most p coefficients, alone and under one, two or three splits."""
    ctx = draw(st.sampled_from(SHIFT_FIELDS))
    place = PlaceV(ctx, draw(st.integers(1, ctx.q - 1)))
    deg = draw(st.integers(0, ctx.p * ctx.p + ctx.p))
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), min_size=deg,
                           max_size=deg))
    f = PolyA(ctx, coeffs + [draw(st.integers(1, ctx.q - 1))])
    k = draw(st.integers(0, 4))
    return place, f * place.uniformizer() ** k, k


@given(short_shift_cases())
@settings(max_examples=200, deadline=None)
def test_short_taylor_shift_matches_division_loop(case):
    place, f, k = case
    assert place.ord_poly(f) == ord_poly_divmod(place, f) >= k
    assert place.poly_digits(f) == _digits_by_deflation(place, f)


# -- embeddings ---------------------------------------------------------

def test_embed_poly_exact_padding():
    x = embed_poly(parse_poly(CTX3, "T"), V0, 6)
    assert x.nu == 1 and tuple(x.coeffs) == (1, 0, 0, 0, 0, 0)


def test_embed_geometric_inverse():
    # 1/(1-theta) = 1 + theta + theta^2 + ... at v (lambda = 0)
    r = parse_ratk(CTX3, "1/(2*T+1)")
    x = embed_local(r, V0, 5)
    assert x.nu == 0 and tuple(x.coeffs) == (1, 1, 1, 1, 1)


def test_embed_inf():
    x = embed_local(parse_ratk(CTX3, "T^3+2*T"), INF3, 6)
    assert x.nu == -3
    assert x.valuation() == -3


def test_valuation_of_window_zero():
    z = LocalNum.zero_to_precision(V0, 7)
    assert z.valuation() is None and z.valuation_lower_bound() == 7


# -- arithmetic ---------------------------------------------------------

@given(localnum_strategy(V0), localnum_strategy(V0), localnum_strategy(V0))
def test_add_mul_distribute_to_window(x, y, z):
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert lhs.congruent(rhs, min(lhs.cutoff, rhs.cutoff))


@given(localnum_strategy(V0), localnum_strategy(V0))
def test_ultrametric_valuation(x, y):
    s = x + y
    assert s.valuation_lower_bound() >= min(x.nu, y.nu)
    if not x.coeffs or not y.coeffs:
        return
    p = x * y
    assert p.nu == x.nu + y.nu


@given(localnum_strategy(V0))
def test_inverse_is_inverse(x):
    if not x.coeffs:
        return
    prod = x * x.inv()
    one = LocalNum.unit_one(V0, int(prod.cutoff))
    assert prod.congruent(one, prod.cutoff)


def test_mul_window_soundness():
    # multiplying by a bare O(pi^3) keeps only what is provable
    x = LocalNum(V0, 0, (1, 2))           # 1 + 2 pi + O(pi^2)
    z = LocalNum.zero_to_precision(V0, 3)  # O(pi^3)
    p = x * z
    assert p.zero_to(3) and p.cutoff == 3


SUM_FIELDS = [FqContext(2), CTX3, FqContext(2, 2), FqContext(5),
              FqContext(2, 3), FqContext(3, 2)]


def _operand(place, nu):
    """An exact zero, a window zero, or digits from pi^nu (leading digit
    possibly zero, so the constructor moves nu)."""
    q = place.ctx.q
    return st.one_of(
        st.just(LocalNum.exact_zero(place)),
        st.just(LocalNum.zero_to_precision(place, nu)),
        st.lists(st.integers(0, q - 1), min_size=1, max_size=20).map(
            lambda d: LocalNum(place, nu, d)))


@st.composite
def sum_cases(draw):
    """(x, y, c) at v or at infinity; y is drawn independently of x, or
    lies entirely at or above x's cutoff."""
    ctx = draw(st.sampled_from(SUM_FIELDS))
    place = draw(st.one_of(
        st.just(PlaceInf(ctx)),
        st.integers(0, ctx.q - 1).map(lambda lam: PlaceV(ctx, lam))))
    x = draw(st.integers(-8, 8).flatmap(lambda nu: _operand(place, nu)))
    if x.is_exact_zero() or draw(st.booleans()):
        nu = draw(st.integers(-8, 8))
    else:
        nu = x.cutoff + draw(st.integers(0, 3))
    y = draw(_operand(place, nu))
    if draw(st.booleans()):
        x, y = y, x
    return x, y, draw(st.integers(1, ctx.q - 1))


def _state(x):
    return x.is_exact_zero(), x.nu, x.coeffs


@given(sum_cases())
@settings(max_examples=400, deadline=None)
def test_sums_and_scaling_match_digit_loops(case):
    x, y, c = case
    assert _state(x + y) == _state(localnum_add(x, y))
    assert _state(x - y) == _state(localnum_sub(x, y))
    assert _state(-x) == _state(localnum_neg(x))
    assert _state(x.scale_fq(c)) == _state(localnum_scale_fq(x, c))


# bytes digit runs at e = 1 (p < 128 and p > 127) and e > 1 (XOR sums at
# q = 2, 4 and 8), tuples at 1021
RUN_FIELDS = [FqContext(*pe) for pe in ((2, 1), (3, 1), (2, 2), (2, 3),
                                        (5, 1), (3, 2), (127, 1), (131, 1),
                                        (1021, 1))]


@st.composite
def run_cases(draw):
    """(x, y, c, n, m, S) over RUN_FIELDS.  x is an exact zero or up to 60
    digits from pi^nu (none: a zero known to pi^nu; all zero: one known
    to pi^(nu + W)).  y is drawn on its own, from x's cutoff on (disjoint
    windows), inside x's window (nested), or as x's first k digits, negated
    or not, then others, so that x + y or x - y cancels k leading digits
    (all of them when nothing follows)."""
    ctx = draw(st.sampled_from(RUN_FIELDS))
    place = PlaceV(ctx, 0)
    digits = st.lists(st.one_of(st.just(0), st.integers(0, ctx.q - 1)),
                      max_size=60)
    x = draw(st.one_of(st.just(LocalNum.exact_zero(place)), st.builds(
        lambda nu, d: LocalNum(place, nu, d), st.integers(-8, 8), digits)))
    mode = draw(st.sampled_from(["free", "disjoint", "nested", "cancel"]))
    ys = draw(digits)
    if x.is_exact_zero() or mode == "free":
        nu = draw(st.integers(-8, 8))
    elif mode == "disjoint":
        nu = x.cutoff + draw(st.integers(0, 3))
    elif mode == "nested":
        nu = draw(st.integers(x.nu, x.cutoff))
        ys = ys[:x.cutoff - nu]
    else:
        nu, k = x.nu, draw(st.integers(0, len(x.coeffs)))
        head = list(x.coeffs[:k])
        if draw(st.booleans()):
            head = [ctx.neg(d) for d in head]
        ys = head + ys[:draw(st.integers(0, 5))]
    y = LocalNum(place, nu, ys)
    if draw(st.booleans()):
        x, y = y, x
    return (x, y, draw(st.integers(1, ctx.q - 1)), draw(st.integers(0, 2)),
            draw(st.integers(1, 12)), draw(st.integers(0, 2 * ctx.p + 1)))


def _digit_state(x):
    return x.is_exact_zero(), x.nu, tuple(x.coeffs)


@given(run_cases())
@settings(max_examples=300, deadline=None)
def test_digit_runs_match_table_loops(case):
    x, y, c, n, m, S = case
    pairs = [(x + y, localnum_add(x, y)), (x - y, localnum_sub(x, y)),
             (-x, localnum_neg(x)), (x.scale_fq(c), localnum_scale_fq(x, c)),
             (x.qpow(n), localnum_qpow(x, n)),
             (geometric_divide(x, m, S), geometric_divide_loop(x, m, S))]
    for got, want in pairs:
        assert _digit_state(got) == _digit_state(want)
        assert got.cutoff == want.cutoff


@pytest.mark.parametrize("pe", [(2, 1), (3, 2), (131, 1), (1021, 1)])
def test_the_field_picks_the_digit_container(pe):
    ctx = FqContext(*pe)
    place, run = PlaceV(ctx, 0), (bytes if ctx.q <= 256 else tuple)
    ds = [0, 0, 1, ctx.q - 1, 0, 1]
    makers = [list, tuple, lambda d: (c for c in d)]
    if ctx.q <= 256:
        makers += [bytes, bytearray]
    xs = [LocalNum(place, -2, make(ds)) for make in makers]
    x = xs[0]
    assert all(z == x and hash(z) == hash(x) for z in xs)
    assert (x.nu, tuple(x.coeffs)) == (0, (1, ctx.q - 1, 0, 1))
    for z in (x, x + x.shift(1), x - x.shift(1), x - x, -x,
              x.scale_fq(ctx.q - 1),
              x.qpow(), x * x, x.inv(), geometric_divide(x, 1),
              embed_poly(PolyA(ctx, ds), place, 8)):
        assert type(z.coeffs) is run


# q in {2, 3, 4, 5, 8, 9, 17, 31, 101}: e > 1 and p > 16 (two-byte and
# coordinate slots) too
KERNEL_FIELDS = [FqContext(*pe) for pe in ((2, 1), (3, 1), (2, 2), (5, 1),
                                           (2, 3), (3, 2), (17, 1), (31, 1),
                                           (101, 1))]

# min(len a, len b) on either side of a slot-width boundary: one- to
# two-byte slots at q = 3 (64 digits) and q = 5 (16), two-byte to
# coordinate slots at q = 31 (73) and q = 101 (7)
BOUNDARY_LENGTHS = [6, 7, 15, 16, 63, 64, 72, 73]


def _schoolbook(ctx, a, b, n):
    return fq_schoolbook(a, b, n, ctx.add, ctx.mul)


@st.composite
def kernel_operands(draw):
    """(ctx, a, b): two code sequences of length 0 to 130 or at a slot
    boundary, dense, sparse (mostly zero) or all q - 1 (every slot at its
    largest sum)."""
    ctx = draw(st.sampled_from(KERNEL_FIELDS))
    length = st.one_of(st.integers(0, 130), st.sampled_from(BOUNDARY_LENGTHS))

    def seq():
        n = draw(length)
        kind = draw(st.sampled_from(["dense", "sparse", "top"]))
        if kind == "top":
            return [ctx.q - 1] * n
        digit = st.integers(0, ctx.q - 1)
        if kind == "sparse":
            digit = st.one_of(st.just(0), st.just(0), st.just(0), digit)
        return draw(st.lists(digit, min_size=n, max_size=n))

    return ctx, seq(), seq()


@given(kernel_operands(), st.data())
@settings(max_examples=400, deadline=None)
def test_convolve_matches_schoolbook(case, data):
    # fq_convolve against one field operation per pair, at the full length,
    # at an n below both operand lengths, and on tuples (LocalNum digits)
    ctx, a, b = case
    full = len(a) + len(b) - 1
    want = _schoolbook(ctx, a, b, full)
    assert fq_convolve(ctx, a, b, full) == want
    assert fq_convolve(ctx, a, b, full + 5) == want
    n = data.draw(st.integers(0, max(0, min(len(a), len(b)) - 1)))
    assert fq_convolve(ctx, tuple(a), tuple(b), n) == want[:n]


@pytest.mark.parametrize("p, m", [(3, 63), (3, 64), (5, 15), (5, 16),
                                  (31, 72), (31, 73), (101, 6), (101, 7)])
def test_convolve_at_slot_width_boundaries(p, m):
    # all entries p - 1: the middle position sums m (p - 1)^2, the largest
    # sum a slot holds, on each side of each slot-width boundary
    ctx = FqContext(p)
    a = [p - 1] * m
    assert fq_convolve(ctx, a, a, 2 * m - 1) == _schoolbook(ctx, a, a,
                                                            2 * m - 1)


@pytest.mark.parametrize("pe, W, called", [
    ((2, 2), 4, ["_pair_sums"]),        # q = 4: not coordinate slots
    ((3, 1), 80, []),                   # q = 3: two-byte slots
    ((3, 2), 64, ["_pack", "_pack"]),   # q = 9: coordinate slots
])
def test_convolve_takes_the_cheaper_route(monkeypatch, pe, W, called):
    # dense products: the first two went to coordinate slots under the
    # rule of pairs against positions, at 3 to 5 times the cost
    seen = []

    def spy(name):
        real = getattr(algebra, name)
        return lambda *args: seen.append(name) or real(*args)

    for name in ("_pair_sums", "_pack"):
        monkeypatch.setattr(algebra, name, spy(name))
    ctx = FqContext(*pe)
    a = [i % (ctx.q - 1) + 1 for i in range(W)]
    assert fq_convolve(ctx, a, a, W) == _schoolbook(ctx, a, a, W)
    assert seen == called


@given(st.sampled_from([FqContext(127), FqContext(131), FqContext(181)]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_convolve_reads_two_byte_slots_only_below_p_128(ctx, data):
    # at p > 128 a slot's two residues, low byte mod p and 256 h mod p,
    # can add up to 256 and carry; a short operand of large codes times a
    # long one at p = 131 and 181 would be read wrong in two-byte slots
    code = st.integers(ctx.p // 2, ctx.p - 1)
    a = data.draw(st.lists(code, min_size=2, max_size=3))
    b = data.draw(st.lists(code, min_size=20, max_size=60))
    full = len(a) + len(b) - 1
    assert fq_convolve(ctx, a, b, full) == _schoolbook(ctx, a, b, full)


@st.composite
def monomial_products(draw):
    """(x, y): x is c pi^nu on its first k digits (W up to 80, sometimes
    with further digits after them), y any window of 1 to 80 digits."""
    ctx = draw(st.sampled_from(SHIFT_FIELDS))
    place = draw(st.sampled_from([PlaceV(ctx, draw(st.integers(0, ctx.q - 1))),
                                  PlaceInf(ctx)]))
    digit = st.integers(0, ctx.q - 1)
    k = draw(st.integers(0, 79))
    tail = draw(st.lists(digit, max_size=80 - 1 - k))
    x = LocalNum(place, draw(st.integers(-5, 5)),
                 [draw(st.integers(1, ctx.q - 1))] + [0] * k + tail)
    y = LocalNum(place, draw(st.integers(-5, 5)),
                 [draw(st.integers(1, ctx.q - 1))]
                 + draw(st.lists(digit, max_size=79)))
    return x, y


@given(monomial_products())
@settings(max_examples=300, deadline=None)
def test_monomial_operand_product_matches_convolve(case):
    # an operand that is c pi^nu on the first min(W_a, W_b) digits skips
    # the convolution; the digits must be fq_convolve's, in either order
    x, y = case
    ctx = x.place.ctx
    n = min(x.window, y.window)
    want = LocalNum(x.place, x.nu + y.nu,
                    fq_convolve(ctx, x.coeffs, y.coeffs, n)).truncate(
        min(x.nu + y.cutoff, y.nu + x.cutoff))
    assert _state(x * y) == _state(want)
    assert _state(y * x) == _state(want)


@st.composite
def window_operands(draw):
    """Two LocalNum at one place, q in {2, 3, 4, 5, 8, 9, 17}, each an
    exact zero, a zero known to pi^c, c pi^nu (zeros after the digit) or
    dense digits, windows of 1 to 60 digits."""
    ctx = draw(st.sampled_from([c for c in KERNEL_FIELDS if c.q < 101]))
    place = draw(st.sampled_from([PlaceV(ctx, draw(st.integers(0, ctx.q - 1))),
                                  PlaceInf(ctx)]))

    def operand():
        kind = draw(st.sampled_from(["exact", "window", "monomial", "dense"]))
        nu = draw(st.integers(-5, 5))
        if kind == "exact":
            return LocalNum.exact_zero(place)
        if kind == "window":
            return LocalNum.zero_to_precision(place, nu)
        lead = draw(st.integers(1, ctx.q - 1))
        n = draw(st.integers(0, 59))
        tail = ([0] * n if kind == "monomial" else draw(st.lists(
            st.integers(0, ctx.q - 1), min_size=n, max_size=n)))
        return LocalNum(place, nu, [lead] + tail)

    return operand(), operand()


@given(window_operands())
@settings(max_examples=400, deadline=None)
def test_product_window(case):
    # the cutoff is min(nu_a + c_b, nu_b + c_a) with no truncation step,
    # and the digits are the schoolbook product's below it
    x, y = case
    ctx = x.place.ctx
    for a, b in ((x, y), (y, x)):
        prod = a * b
        if a.is_exact_zero() or b.is_exact_zero():
            assert prod.is_exact_zero()
            continue
        cutoff = min(a.nu + b.cutoff, b.nu + a.cutoff)
        assert prod.cutoff == cutoff
        if not a.coeffs or not b.coeffs:
            assert prod.zero_to(cutoff)
            continue
        assert prod.nu == a.nu + b.nu
        assert list(prod.coeffs) == fq_schoolbook(
            a.coeffs, b.coeffs, cutoff - prod.nu, ctx.add, ctx.mul)


@given(st.sampled_from(KERNEL_FIELDS).flatmap(lambda ctx: st.tuples(
    st.sampled_from([PlaceV(ctx, 0), PlaceV(ctx, 1 % ctx.p), PlaceInf(ctx)]),
    st.integers(-5, 5), st.integers(1, ctx.q - 1),
    st.lists(st.integers(0, ctx.q - 1), max_size=99))))
@settings(max_examples=200, deadline=None)
def test_inverse_matches_field_method_loop(case):
    place, nu, lead, tail = case
    x = LocalNum(place, nu, [lead] + tail)
    assert _state(x.inv()) == _state(localnum_inv_loop(x))


def test_convolve_slots_never_overflow():
    # 4200 * 1020^2 exceeds 2^32: fixed 32-bit slots read digit 4199 as 9
    ctx = FqContext(1021)
    place = PlaceV(ctx, 0)
    x = LocalNum(place, 0, [1020] * 4200)
    y = LocalNum(place, 0, [(7 * i + 3) % 1021 for i in range(4200)])
    for a, b in ((x, x), (x, y)):
        prod = a * b
        for n in (0, 2099, 4199):
            want = sum(a.coeffs[i] * b.coeffs[n - i] for i in range(n + 1))
            assert prod.digits(n, n + 1) == (want % 1021,)
    assert (x * x).digits(4199, 4200) == (116,)


def test_exact_zero_absorbs():
    z = LocalNum.exact_zero(V0)
    x = LocalNum(V0, 2, (1, 1))
    assert (x * z).is_exact_zero()
    assert (x + z) == x
    assert z.nu is INF


def test_qpow_matches_polynomial_power():
    f = parse_poly(CTX3, "T^2+T+2")
    x = embed_poly(f, V0, 12)
    cube = embed_poly(f ** 3, V0, 12)
    assert x.qpow().congruent(cube, 12)


@given(localnum_strategy(V0, 3))
def test_qpow_is_additive(x):
    y = LocalNum(V0, 0, (1, 2, 1))
    lhs = (x + y).qpow()
    rhs = x.qpow() + y.qpow()
    assert lhs.congruent(rhs, min(lhs.cutoff, rhs.cutoff))


QPOW_FIELDS = [FqContext(2), FqContext(3), FqContext(2, 2), FqContext(5),
               FqContext(2, 3), FqContext(3, 2)]


@st.composite
def qpow_cases(draw):
    ctx = draw(st.sampled_from(QPOW_FIELDS))
    place = draw(st.one_of(
        st.just(PlaceInf(ctx)),
        st.integers(0, ctx.q - 1).map(lambda lam: PlaceV(ctx, lam))))
    x = draw(st.one_of(
        st.just(LocalNum.exact_zero(place)),
        st.integers(-8, 8).map(
            lambda c: LocalNum.zero_to_precision(place, c)),
        st.tuples(st.integers(-8, 8),
                  st.lists(st.integers(0, ctx.q - 1), min_size=1,
                           max_size=12)).map(lambda t: LocalNum(place, *t))))
    return x, draw(st.sampled_from([1, 2]))


@given(qpow_cases())
@settings(max_examples=150, deadline=None)
def test_qpow_matches_repeated_powering(case):
    x, n = case
    want = x
    for _ in range(n):
        want = want.pow(x.place.q)
    got = x.qpow(n)
    assert (got.is_exact_zero(), got.nu, got.coeffs) == (
        want.is_exact_zero(), want.nu, want.coeffs)


def test_digit_access_and_precision_loss():
    x = LocalNum(V0, 1, (2, 0, 1))
    assert x.digits(0, 4) == (0, 2, 0, 1) and x.digits(2, 3) == (0,)
    assert LocalNum.exact_zero(V0).digits(-1, 2) == (0, 0, 0)
    assert LocalNum.zero_to_precision(V0, 5).digits(1, 5) == (0,) * 4
    with pytest.raises(PrecisionLoss):
        x.digits(3, 5)


def test_inv_of_possible_zero_raises():
    with pytest.raises(DivisionByZero):
        LocalNum.zero_to_precision(V0, 4).inv()


# -- printing -----------------------------------------------------------

def test_print_and_parse_roundtrip_v():
    x = LocalNum(V0, -2, (2, 0, 1, 1))
    s = str(x)
    assert s == "2*v^-2 + 1 + v^1 + O(v^2)"
    assert parse_local(V0, s) == x


def test_print_and_parse_roundtrip_inf():
    x = LocalNum(INF3, -3, (1, 0, 2))
    s = str(x)
    assert s == "w^-3 + 2*w^-1 + O(w^0)"
    assert parse_local(INF3, s) == x


def test_parse_errors_name_the_term():
    above = "term v^{} at or above the tail O(v^3)"
    for text, named in (("y*v^2 + O(v^5)", "bad term 'y*v^2'"),
                        ("v^x + O(v^5)", "bad term 'v^x'"),
                        ("1 + O(v^z)", "bad tail 'O(v^z)'"),
                        ("v^5 + O(v^3)", above.format(5)),
                        ("1 + v^3 + O(v^3)", above.format(3)),
                        ("v^1 + 2*v^1 + O(v^4)", "repeated power v^1"),
                        ("1 + 2 + O(v^4)", "repeated power v^0")):
        with pytest.raises(ParseError) as info:
            parse_local(V0, text)
        assert str(info.value) == named


def test_parse_window_zero():
    z = parse_local(V0, "O(v^5)")
    assert z.zero_to(5) and z.cutoff == 5
    assert parse_local(V0, "0").is_exact_zero()
