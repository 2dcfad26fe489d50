"""Tests for truncated Tate-algebra series."""

import operator
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcarlitz.algebra import (
    FqContext, RatK, _packed_product, _sparse_product, parse_ratk,
)
from vcarlitz.local import INF, LocalNum, PlaceInf, PlaceV
from vcarlitz.polylog import ArgTuple, Index, deformation_build, omega_product
from vcarlitz.tseries import TSeries, _window_rule, frobenius_twist

import oracles

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
W = 10


def series_strategy(D=5, window=8):
    coeff = st.tuples(
        st.integers(0, 3),
        st.lists(st.integers(0, 2), min_size=1, max_size=window),
    ).map(lambda t: LocalNum(V0, t[0], t[1]))
    return st.lists(coeff, min_size=D, max_size=D).map(
        lambda cs: TSeries(V0, cs))


def unit(window=W):
    return LocalNum.unit_one(V0, window)


def pi(window=W):
    return LocalNum(V0, 1, (1,) + (0,) * (window - 1))


def test_telescoping_product():
    a = oracles.from_local_coeffs(V0, [unit(), -pi()], 5, W)
    b = oracles.from_local_coeffs(V0, [unit(), pi(), pi() * pi()], 5, W)
    c = a * b
    assert c.coeffs[0].congruent(unit())
    assert c.coeffs[1].is_zero_to_precision()
    assert c.coeffs[2].is_zero_to_precision()
    assert c.coeffs[3].congruent(-pi().pow(3))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=40)
def test_ring_axioms_to_window(f, g, h):
    lhs = f * (g + h)
    rhs = f * g + f * h
    d = lhs - rhs
    assert all(c.is_exact_zero() or not c.coeffs for c in d.coeffs)


# -- the packed product against the coefficient schoolbook ---------------

FIELDS = {2: FqContext(2), 3: FqContext(3), 4: FqContext(2, 2),
          5: FqContext(5), 8: FqContext(2, 3), 9: FqContext(3, 2)}


def _schoolbook(f, g):
    return oracles.fq_schoolbook(f.coeffs, g.coeffs, min(f.order, g.order),
                                 operator.add, operator.mul,
                                 LocalNum.exact_zero(f.place))


def _states(coeffs):
    """Exact zero or window zero, valuation and digits of each coefficient."""
    return [(c.is_exact_zero(), c.nu, c.coeffs) for c in coeffs]


def _coeff(place):
    """Exact zeros, window zeros and digit windows, negative nu included."""
    ctx = place.ctx
    return st.one_of(
        st.just(LocalNum.exact_zero(place)),
        st.integers(-6, 20).map(
            lambda c: LocalNum.zero_to_precision(place, c)),
        st.tuples(st.integers(-6, 12),
                  st.lists(st.integers(0, ctx.q - 1), min_size=1,
                           max_size=24)).map(lambda t: LocalNum(place, *t)))


def _series(place):
    # runs of equal coefficients, as in padded and built series; every
    # other copy loses `drop` digits, so neighbours share nu but not cutoff
    run = st.tuples(_coeff(place), st.integers(1, 4), st.integers(0, 3)).map(
        lambda t: [t[0].truncate(t[0].cutoff - t[2]) if m % 2 else t[0]
                   for m in range(t[1])])
    return st.lists(run, max_size=8).map(
        lambda runs: TSeries(place, [c for r in runs for c in r]))


@st.composite
def series_pairs(draw):
    ctx = draw(st.sampled_from([FIELDS[q] for q in sorted(FIELDS)]))
    place = PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))
    return draw(_series(place)), draw(_series(place))


@given(series_pairs())
@settings(max_examples=150, deadline=None)
def test_product_matches_schoolbook(pair):
    f, g = pair
    assert _states((f * g).coeffs) == _states(_schoolbook(f, g))


@given(series_pairs())
@settings(max_examples=150, deadline=None)
def test_sum_and_difference_match_coefficientwise(pair):
    f, g = pair
    assert _states((f + g).coeffs) == _states(
        [x + y for x, y in zip(f.coeffs, g.coeffs)])
    assert _states((f - g).coeffs) == _states(
        [x - y for x, y in zip(f.coeffs, g.coeffs)])


@given(series_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_scale_matches_coefficientwise(pair, data):
    f = pair[0]
    x = data.draw(_coeff(f.place))
    assert _states(f.scale(x).coeffs) == _states([c * x for c in f.coeffs])


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_product_matches_schoolbook_on_built_series(q):
    ctx = FIELDS[q]
    place = PlaceV(ctx, 1 % ctx.p)
    pi = RatK(place.uniformizer())
    D = N = 24
    om = omega_product(pi, place, D, N)
    dep = deformation_build(Index((2, 1)),
                            ArgTuple((pi, parse_ratk(ctx, "T"))), place, D,
                            N)[-1]
    tw = frobenius_twist(om)
    for f, g in ((om, om), (om, dep), (dep, tw), (dep, dep), (tw, om)):
        assert _states((f * g).coeffs) == _states(_schoolbook(f, g))


def test_one_keeps_order_zero():
    assert oracles.tseries_one(V0, 0, 5).order == 0
    assert oracles.tseries_one(V0, 1, 5).coeffs == (LocalNum.unit_one(V0, 5),)
    assert TSeries(V0, []).order == 0


@given(series_strategy(), series_strategy())
@settings(max_examples=30)
def test_twist_is_multiplicative(f, g):
    d = frobenius_twist(f * g) - frobenius_twist(f) * frobenius_twist(g)
    assert all(not c.coeffs for _, c in d.runs)


def test_twist_composition_and_identity():
    f = oracles.from_local_coeffs(V0, [unit(), pi()], 4, W)
    assert frobenius_twist(f, 0) is f
    one_twist_twice = frobenius_twist(frobenius_twist(f))
    d = one_twist_twice - frobenius_twist(f, 2)
    assert all(not c.coeffs for _, c in d.runs)
    with pytest.raises(ValueError):
        frobenius_twist(f, -1)


def test_t_shift_keeps_the_order():
    f = oracles.from_local_coeffs(V0, [unit(), pi()], 4, W)
    g = f.t_shift(1, W)
    assert g.order == 4
    assert g.coeffs[0].is_zero_to_precision() and g.coeffs[1].congruent(unit())
    for n in (4, 6):
        g = oracles.tseries_one(V0, 4, W).t_shift(n, W)
        assert g.order == 4
        assert all(c.is_zero_to_precision() and c.cutoff == W
                   for c in g.coeffs)


def test_t_shift_refuses_a_negative_shift():
    f = oracles.from_local_coeffs(V0, [unit(), pi()], 4, W)
    with pytest.raises(ValueError):
        f.t_shift(-2, 4)


# -- the run layout against the coefficient-tuple operations -------------

RUN_FIELDS = [FIELDS[q] for q in (2, 3, 4, 5, 9)]


@st.composite
def run_places(draw):
    ctx = draw(st.sampled_from(RUN_FIELDS))
    if draw(st.booleans()):
        return PlaceInf(ctx)
    return PlaceV(ctx, draw(st.integers(0, ctx.q - 1)))


@st.composite
def run_series(draw, place, D, sparse=False):
    """A series of order D drawn run by run.

    A run is a coefficient with digits, repeated up to 4 times with every
    other copy losing digits (equal nu, unequal cutoffs), zeros known to one
    pi^c, or exact zeros; neighbouring zero runs may or may not share c.
    When `sparse`, a coefficient with digits is a q^n-th power (n = 1, 2)
    of a window of up to 48 digits with at most 4 nonzero, shifted: most of
    its digits are zero, and the others lie q^n apart, as in Omega and the
    twisted deformation rows.
    """
    ctx = place.ctx
    runs, total = [], 0
    while total < D:
        kind = draw(st.sampled_from(("live", "window", "exact")))
        if kind == "live":
            nu = draw(st.integers(-6, 12))
            if sparse:
                W = draw(st.integers(1, 48))
                head = [draw(st.integers(1, ctx.q - 1))] + draw(st.lists(
                    st.integers(0, ctx.q - 1), max_size=3))
                c = LocalNum(place, 0, (head + [0] * W)[:W]).qpow(
                    draw(st.integers(1, 2))).shift(nu)
            else:
                c = LocalNum(place, nu, draw(st.lists(
                    st.integers(0, ctx.q - 1), min_size=1, max_size=16)))
            copies = min(draw(st.integers(1, 4)), D - total)
            drop = draw(st.integers(0, 3))
            runs += [(1, c.truncate(c.cutoff - drop) if m % 2 else c)
                     for m in range(copies)]
            total += copies
            continue
        n = min(draw(st.integers(1, D)), D - total)
        if kind == "window":
            c = LocalNum.zero_to_precision(place, draw(st.integers(-6, 24)))
        else:
            c = LocalNum.exact_zero(place)
        runs.append((n, c))
        total += n
    return TSeries.from_runs(place, runs)


@st.composite
def run_pairs(draw, sparse=False):
    place = draw(run_places())
    D = draw(st.integers(1, 80))
    E = draw(st.sampled_from([D, draw(st.integers(1, 80))]))
    return (place, draw(run_series(place, D, sparse)),
            draw(run_series(place, E, sparse)))


def _canonical(f):
    """A coefficient with digits is a run of its own; equal zeros merge."""
    assert f.order == sum(n for n, _ in f.runs)
    for (m, x), (n, y) in zip(f.runs, f.runs[1:]):
        assert not (not x.coeffs and not y.coeffs and x.nu == y.nu)
    assert all(n == 1 for n, c in f.runs if c.coeffs)
    assert all(n >= 1 for n, _ in f.runs)
    return f


@given(st.one_of(run_pairs(), run_pairs(sparse=True)))
@settings(max_examples=200, deadline=None)
def test_runs_product_matches_tuple_oracle(case):
    place, f, g = case
    assert _states(_canonical(f * g).coeffs) == _states(
        oracles.series_mul(place, f.coeffs, g.coeffs))


@given(run_pairs())
@settings(max_examples=120, deadline=None)
def test_runs_sum_and_difference_match_tuple_oracle(case):
    place, f, g = case
    for negate, h in ((False, f + g), (True, f - g)):
        assert _states(_canonical(h).coeffs) == _states(
            oracles.series_sum(place, f.coeffs, g.coeffs, negate))


@given(run_pairs(), st.data())
@settings(max_examples=120, deadline=None)
def test_runs_scale_matches_tuple_oracle(case, data):
    place, f, _ = case
    x = data.draw(_coeff(place))
    assert _states(_canonical(f.scale(x)).coeffs) == _states(
        oracles.series_scale(place, f.coeffs, x))


@given(run_pairs(), st.integers(0, 2))
@settings(max_examples=120, deadline=None)
def test_runs_twist_matches_tuple_oracle(case, n):
    place, f, _ = case
    assert _states(_canonical(frobenius_twist(f, n)).coeffs) == _states(
        oracles.series_twist(f.coeffs, n))


@given(run_pairs(), st.integers(0, 90), st.integers(-6, 24))
@settings(max_examples=120, deadline=None)
def test_runs_t_shift_matches_tuple_oracle(case, n, window):
    place, f, _ = case
    assert _states(_canonical(f.t_shift(n, window)).coeffs) == _states(
        oracles.series_t_shift(place, f.coeffs, n, window))


@given(run_pairs())
@settings(max_examples=120, deadline=None)
def test_window_rule_on_runs_matches_tuple_oracle(case):
    _, f, g = case
    D = min(f.order, g.order)
    f, g = f.truncate(D), g.truncate(D)
    cuts = [c for n, c in _window_rule(f.runs, g.runs, D) for _ in range(n)]
    assert cuts == oracles.window_rule(f.coeffs, g.coeffs)
    assert cuts == oracles.window_rule_pairwise(f.coeffs, g.coeffs)


@given(run_pairs(), st.integers(-6, 24))
@settings(max_examples=120, deadline=None)
def test_clip_and_residual_match_coefficientwise(case, N):
    place, f, _ = case
    assert _states(_canonical(f.clip(N)).coeffs) == _states(
        [c.truncate(N) for c in f.coeffs])
    # the scan that verify_difference and vabp_certify ran per coefficient
    worst = INF
    for c in f.coeffs:
        c = c.truncate(N)
        if c.is_exact_zero():
            continue
        if c.valuation() is None:
            worst = min(worst, c.nu if c.coeffs else c.cutoff)
        else:
            worst = min(worst, c.valuation())
    assert oracles.series_residual(f, N) == worst


# -- the two routes of the grid product ----------------------------------

ROUTE_FIELDS = [FIELDS[q] for q in sorted(FIELDS)] + [FqContext(1021)]


@st.composite
def grid_pairs(draw):
    """Two digit grids laid out as TSeries.__mul__ lays them out, with
    widths that may clamp any product row.

    Digits are mostly 0, 1 and -1 and pieces start in the first columns,
    so product positions, the first of a row too, often cancel; half the
    cases make a whole product row cancel.
    """
    ctx = draw(st.sampled_from(ROUTE_FIELDS))
    digit = st.one_of(st.sampled_from([0, 1, ctx._neg[1]]),
                      st.integers(0, ctx.q - 1))
    wa, wb = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    stride = wa + wb - 1

    def grid(w):
        pieces = []
        for row in range(draw(st.integers(1, 6))):
            col = draw(st.integers(0, min(w - 1, draw(st.sampled_from(
                [1, w])))))
            digits = draw(st.lists(digit, max_size=w - col))
            if digits:
                pieces.append((row * stride + col, tuple(digits)))
        return pieces

    a, b = grid(wa), grid(wb)
    if a and draw(st.booleans()):
        # a piece on rows 0 and 1 times d - d t: product row 1 cancels
        col, digits = a[0][0] % stride, a[0][1]
        d = draw(st.integers(1, ctx.q - 1))
        a = [(col, digits), (stride + col, digits)]
        b = [(0, (d,)), (stride, (ctx._neg[d],))]
    rows = max(len(a) + len(b) - 1, 1)
    widths = draw(st.lists(st.integers(0, stride), min_size=rows,
                           max_size=rows))
    terms = min(sum(len(d) for _, d in a), sum(len(d) for _, d in b))
    return ctx, a, b, stride, widths, terms


@given(grid_pairs())
@settings(max_examples=300, deadline=None)
def test_grid_product_routes_give_the_same_rows(case):
    ctx, a, b, stride, widths, terms = case
    assert _sparse_product(ctx, a, b, stride, widths) == _packed_product(
        ctx, a, b, stride, widths, terms)


@pytest.mark.parametrize("ctx", ROUTE_FIELDS, ids=lambda c: f"q{c.q}")
def test_grid_product_routes_keep_cancelled_rows(ctx):
    """(1 + t)(1 - t) = 1 - t^2: row 1 is reached by two digit pairs that
    cancel, so it reads (0, [0]), not an untouched row (width, [])."""
    one, neg = 1, ctx._neg[1]
    a, b = [(0, (one,)), (1, (one,))], [(0, (one,)), (1, (neg,))]
    # a row clamped to width 0 keeps nothing
    for widths, row in (([1, 1, 1], (0, [0])), ([1, 0, 1], (0, []))):
        want = [(0, [one]), row, (0, [neg])]
        assert _sparse_product(ctx, a, b, 1, widths) == want
        assert _packed_product(ctx, a, b, 1, widths, 2) == want


def test_from_runs_splits_live_runs_and_merges_zeros():
    z = LocalNum.zero_to_precision(V0, 5)
    f = TSeries.from_runs(V0, [(2, pi()), (0, unit()), (1, z), (3, z),
                               (2, LocalNum.exact_zero(V0))])
    assert f.runs == ((1, pi()), (1, pi()), (4, z),
                      (2, LocalNum.exact_zero(V0)))
    assert f.order == 8 and f.coeffs == (pi(), pi()) + (z,) * 4 + (
        LocalNum.exact_zero(V0),) * 2
    assert TSeries(V0, f.coeffs).runs == f.runs


def test_runs_cost_per_live_coefficient(monkeypatch):
    """With 3 live coefficients, a product, sum, scaling, twist and t-shift
    build as many LocalNums, and allocate about as much memory, at
    D = 1,000 as at D = 50,000."""
    place = PlaceV(CTX3, 1)

    def series(D, shift):
        a = LocalNum(place, shift, (1, 2, 0, 1, 1, 2, 1, 0))
        return TSeries.from_runs(place, [
            (1, a), (1, a.scale_fq(2)),
            (4, LocalNum.zero_to_precision(place, 9)), (1, a.shift(2)),
            (D - 7, LocalNum.zero_to_precision(place, 12))])

    built = []
    init = LocalNum.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    def costs(D):
        f, g = series(D, 0), series(D, 1)
        x = LocalNum(place, 1, (2, 1, 1))
        out = []
        for op in (lambda: f * g, lambda: f + g, lambda: f - g,
                   lambda: f.scale(x), lambda: frobenius_twist(f),
                   lambda: f.t_shift(3, 10)):
            built.clear()
            monkeypatch.setattr(LocalNum, "__init__", counting)
            tracemalloc.start()
            try:
                assert op().order == D
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                monkeypatch.setattr(LocalNum, "__init__", init)
            out.append((len(built), peak))
        return out

    small, large = costs(1_000), costs(50_000)
    assert [n for n, _ in small] == [n for n, _ in large]
    # one pointer per coefficient would be 400 kB more at D = 50,000
    assert all(b < a + 50_000 for (_, a), (_, b) in zip(small, large))
