"""Tests for Anderson t-modules and extended-domain v-adic evaluation."""

import importlib.resources as resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcarlitz import tmodule
from vcarlitz.algebra import FqContext, PolyA, RatK, parse_poly
from vcarlitz.errors import (
    AnnihilationFailure, AssertionFailure, ConvergenceNotCertified,
    DomainError, ParseError, PrecisionLoss,
)
from vcarlitz.linalg import (
    kmat, fq_kernel, fq_min_poly, fq_rref, fqmat_identity, fqmat_mul,
)
from vcarlitz.local import LocalNum, PlaceV, embed_local
from vcarlitz.polylog import ArgTuple, Index, cmpl_eval, cmspl_eval
from vcarlitz.tmodule import (
    TModuleSpec, _LocalLogCoeffs, _log_window, extended_cmspl_v, log_at_point,
    parse_tmodule_spec, residue_annihilator, tensor_carlitz_spec, tm_action,
    validate_tmodule, with_args,
)

from oracles import (
    L_factorial, carlitz_action, dump_tmodule_spec, explog_coeffs,
    fq_rref_loop, kmat_add, kmat_frobenius, kmat_identity, kmat_inv,
    kmat_mul, kmat_poly_eval, kmat_zero, local_log_dense,
    local_log_fixed_point, log_at_point_observed, solve_twisted_sylvester,
    solve_twisted_sylvester_fixed_point, sylvester_solve_horner, tmodule_b0,
    zeta_v,
)

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
T = RatK.T(CTX3)
SOLVER_FIELDS = [FqContext(2), CTX3, FqContext(2, 2), FqContext(5),
                 FqContext(3, 2)]


@pytest.fixture(scope="module")
def specs():
    out = {s: tensor_carlitz_spec(s, V0) for s in (1, 2, 3)}
    for spec in out.values():
        assert validate_tmodule(spec, V0, 30).ok
    return out


# -- linear algebra helpers ---------------------------------------------

def test_kmat_inverse():
    M = ((T, RatK.one(CTX3)), (RatK.zero(CTX3), T * T))
    Minv = kmat_inv(M)
    assert kmat_mul(M, Minv) == kmat_identity(CTX3, 2)


def test_fq_kernel_recovers_dependence():
    # rows of a rank-1 matrix over F_3
    rows = [(1, 2, 0), (2, 1, 0)]
    ker = fq_kernel(CTX3, rows, 3)
    assert len(ker) == 2
    for v in ker:
        for row in rows:
            s = 0
            for a, b in zip(row, v):
                s = CTX3.add(s, CTX3.mul(a, b))
            assert s == 0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fq_rref_matches_the_element_loop(data):
    # q in {2, 3, 4, 5, 9}; wide, square and tall shapes, with zero rows
    ctx = data.draw(st.sampled_from(SOLVER_FIELDS))
    ncols = data.draw(st.integers(1, 7))
    fq = st.integers(0, ctx.q - 1)
    row = st.one_of(st.just((0,) * ncols), st.tuples(*[fq] * ncols))
    rows = data.draw(st.lists(row, max_size=7))
    assert fq_rref(ctx, rows) == fq_rref_loop(ctx, rows)


def test_fq_min_poly_involution():
    M = ((0, 1), (1, 0))
    a = fq_min_poly(CTX3, M)
    assert str(a) == "T^2+2"  # x^2 - 1


# -- module action -------------------------------------------------------

def test_action_dim1_is_carlitz():
    spec = tensor_carlitz_spec(1, V0)
    a = parse_poly(CTX3, "T^2+2*T")
    z = T * T + T
    assert tm_action(spec, a, (z,))[0] == carlitz_action(a, z)


def test_action_identity_and_ring_homomorphism():
    spec = tensor_carlitz_spec(2, V0)
    z = (T, T + RatK.one(CTX3))
    assert tm_action(spec, PolyA.one(CTX3), z) == z
    a = parse_poly(CTX3, "T+1")
    b = parse_poly(CTX3, "T^2+2")
    assert tm_action(spec, a * b, z) == tm_action(spec, a, tm_action(spec, b, z))
    lhs = tm_action(spec, a + b, z)
    rhs = tuple(x + y for x, y in
                zip(tm_action(spec, a, z), tm_action(spec, b, z)))
    assert lhs == rhs


# -- exp/log coefficients ------------------------------------------------

def test_explog_dim1_carlitz_factorials():
    spec = tensor_carlitz_spec(1, V0)
    Q, P = explog_coeffs(spec, 3)
    assert P[0][0][0] == RatK.one(CTX3)
    for i in range(4):
        assert P[i][0][0] == RatK(L_factorial(CTX3, i)).inv()


def test_explog_compositional_inverse():
    spec = tensor_carlitz_spec(2, V0)
    Q, P = explog_coeffs(spec, 3)
    assert Q[0] == P[0] == kmat_identity(CTX3, 2)
    for m in range(1, 4):
        for first, second in ((Q, P), (P, Q)):
            acc = kmat_zero(CTX3, 2, 2)
            for i in range(m + 1):
                acc = kmat_add(acc, kmat_mul(first[i],
                                             kmat_frobenius(second[m - i], i)))
            assert all(e.is_zero() for r in acc for e in r)


# -- the twisted Sylvester solver ----------------------------------------

def _fq_inverse(ctx, S):
    d = len(S)
    rows, pivots = fq_rref(ctx, [tuple(r) + e
                                 for r, e in zip(S, fqmat_identity(d))])
    if pivots[:d] != list(range(d)):
        return None
    return tuple(r[d:] for r in rows)


@st.composite
def random_specs(draw, max_dim=3):
    """A t-module with random nilpotent N0 (strictly upper triangular, or
    conjugated by an invertible matrix over F_q) and random B1 over A."""
    ctx = draw(st.sampled_from(SOLVER_FIELDS))
    dim = draw(st.integers(1, max_dim))
    fq = st.integers(0, ctx.q - 1)
    N0 = tuple(tuple(draw(fq) if j > i else 0 for j in range(dim))
               for i in range(dim))
    if draw(st.booleans()):
        S = tuple(tuple(draw(fq) for _ in range(dim)) for _ in range(dim))
        S_inv = _fq_inverse(ctx, S)
        if S_inv is not None:
            N0 = fqmat_mul(ctx, fqmat_mul(ctx, S, N0), S_inv)
    B1 = [[PolyA(ctx, draw(st.lists(fq, max_size=2))) for _ in range(dim)]
          for _ in range(dim)]
    T_ = RatK.T(ctx)
    return TModuleSpec(ctx, dim, N0, B1, readout=(dim - 1,),
                       index=Index([dim]), args=ArgTuple([T_]),
                       point=(T_,) * dim, name="random")


@given(random_specs(max_dim=4))
@settings(max_examples=60, deadline=None)
def test_flag_basis_triangularises_n0(spec):
    ctx = spec.ctx
    B, S, U = spec._flag
    assert fqmat_mul(ctx, S, B) == fqmat_identity(spec.dim)
    assert U == fqmat_mul(ctx, fqmat_mul(ctx, S, spec.N0), B)
    assert all(U[r][c] == 0 for r in range(spec.dim) for c in range(r + 1))


@pytest.mark.parametrize("N0, why", [
    (((1, 0), (0, 0)), "N0 is not nilpotent"),
    (((0, 1), (1, 0)), "N0 is not nilpotent"),
    (((1, 1, 0), (0, 0, 1), (0, 0, 0)), "N0 is not nilpotent"),
    (((0, 3), (0, 0)), "over F_q"),
    (((0, -1), (0, 0)), "over F_q"),
])
def test_spec_refuses_n0_out_of_range_or_not_nilpotent(N0, why):
    dim = len(N0)
    zero = PolyA.zero(CTX3)
    with pytest.raises(ValueError, match=why):
        TModuleSpec(CTX3, dim, N0, [[zero] * dim] * dim, readout=(0,),
                    index=Index([dim]), args=ArgTuple([T]), point=(T,) * dim)


def _agree(a, b):
    """The digits of a and b agree on their common window."""
    d = a - b
    return d.is_exact_zero() or d.is_zero_to_precision()


def _local_p(spec, place, W, i_max):
    coeffs = _LocalLogCoeffs(spec, place, W)
    coeffs.ensure(i_max)
    return coeffs.P


@given(random_specs(), st.data())
@settings(max_examples=60, deadline=None)
def test_sylvester_solver_matches_fixed_point(spec, data):
    ctx = spec.ctx
    I_exact = 2 if ctx.q <= 4 else 1
    Q, P = explog_coeffs(spec, I_exact)
    for i in range(1, I_exact + 1):
        R = kmat_mul(spec.B1, kmat_frobenius(Q[i - 1]))
        got = solve_twisted_sylvester(spec, i, R)
        assert got == solve_twisted_sylvester_fixed_point(spec, i, R)
        dinv = RatK(PolyA.T(ctx).frobenius(i) - PolyA.T(ctx)).inv()
        assert got == sylvester_solve_horner(spec, R, dinv)
    place = PlaceV(ctx, data.draw(st.integers(0, ctx.q - 1)))
    W = data.draw(st.integers(1, 120))
    I = 4
    got = _local_p(spec, place, W, I)
    want = local_log_fixed_point(spec, place, W, I)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tmodule, "_sylvester_solve", sylvester_solve_horner)
        horner = _local_p(spec, place, W, I)
    for i in range(I + 1):
        for r in range(spec.dim):
            for c in range(spec.dim):
                assert _agree(got[i][r][c], want[i][r][c])
                assert _agree(got[i][r][c], horner[i][r][c])
                if i <= I_exact:
                    exact = embed_local(P[i][r][c], place, W + 8 * i)
                    assert _agree(got[i][r][c], exact)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_sylvester_solver_is_the_fixed_point_on_tensor_powers(q):
    ctx = FqContext(2, 2) if q == 4 else FqContext(q)
    for s in (1, 2, 3):
        spec = tensor_carlitz_spec(s, PlaceV(ctx))
        for lam in range(q):
            place = PlaceV(ctx, lam)
            for W in (20, 62):
                got = _local_p(spec, place, W, 5)
                want = local_log_fixed_point(spec, place, W, 5)
                assert [[[(e.nu, e.coeffs) for e in r] for r in Pi]
                        for Pi in got] == \
                    [[[(e.nu, e.coeffs) for e in r] for r in Pi]
                     for Pi in want]


def _dense_b1_spec(ctx):
    """A dim-3 module whose B1 has no zero entry: every term of
    -P_(i-1) B1^(i-1) is a product of two nonzero factors."""
    T_ = PolyA.T(ctx)
    one = PolyA.one(ctx)
    B1 = [[one + T_, T_, one], [one, T_ * T_, one + T_], [T_, one, one]]
    N0 = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    return TModuleSpec(ctx, 3, N0, B1, readout=(2,), index=Index([3]),
                       args=ArgTuple([RatK.T(ctx)]),
                       point=(RatK.T(ctx),) * 3, name="dense-b1")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_log_step_from_b1_entries_matches_the_dense_product(q):
    ctx = FqContext(2, 2) if q == 4 else FqContext(q)
    specs = [tensor_carlitz_spec(s, PlaceV(ctx)) for s in (1, 2, 3)]
    for spec in specs + [_dense_b1_spec(ctx)]:
        for lam in range(q):
            place = PlaceV(ctx, lam)
            for W in (12, 40):
                got = _local_p(spec, place, W, 5)
                want = local_log_dense(spec, place, W, 5)
                assert [[[(e.nu, e.coeffs) for e in r] for r in Pi]
                        for Pi in got] == \
                    [[[(e.nu, e.coeffs) for e in r] for r in Pi]
                     for Pi in want]


def _check_log_bound(spec, place, W, i_max):
    # ord P_i >= -c i, and P_i is known to W - c i, which the log's window
    # rests on
    c = 2 * spec.dim - 1
    for i, Pi in enumerate(_local_p(spec, place, W, i_max)):
        for r in Pi:
            for e in r:
                if e.coeffs:
                    assert e.nu >= -c * i
                if not e.is_exact_zero():
                    assert e.cutoff >= W - c * i


def test_log_coefficient_valuation_bound_shipped_modules():
    for s in (1, 2, 3):
        text = resources.files("vcarlitz").joinpath(
            f"data/tmodules/tensor_q3_s{s}.txt").read_text()
        spec = parse_tmodule_spec(text)
        for lam in range(3):
            _check_log_bound(spec, PlaceV(CTX3, lam), 80, 7)


@given(random_specs(max_dim=4), st.data())
@settings(max_examples=40, deadline=None)
def test_log_coefficient_valuation_bound_random(spec, data):
    place = PlaceV(spec.ctx, data.draw(st.integers(0, spec.ctx.q - 1)))
    _check_log_bound(spec, place, data.draw(st.integers(1, 120)), 5)


def test_with_args_shares_local_caches(monkeypatch):
    built = []
    init = _LocalLogCoeffs.__init__

    def counting(self, *args):
        built.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(_LocalLogCoeffs, "__init__", counting)
    monkeypatch.setattr("vcarlitz.relations._TENSOR_CACHE", {})
    ctx = FqContext(3)
    place = PlaceV(ctx, 0)
    for _ in range(3):
        zeta_v(ctx, place, 1, 40)
    assert len(built) == 2
    spec = tensor_carlitz_spec(1, place)
    run = with_args(spec, ArgTuple([T]), (T,))
    assert run._llog_cache is spec._llog_cache


# -- residue annihilators ------------------------------------------------

def test_annihilator_carlitz_lambda0():
    a, invertible = residue_annihilator(tensor_carlitz_spec(1, V0), V0)
    assert str(a) == "T+2" and invertible  # theta - 1


def test_annihilator_carlitz_q2_lambda1():
    place = PlaceV(FqContext(2), 1)
    a, invertible = residue_annihilator(tensor_carlitz_spec(1, place), place)
    assert str(a) == "T" and not invertible


def test_annihilator_tensor_square():
    a, invertible = residue_annihilator(tensor_carlitz_spec(2, V0), V0)
    assert str(a) == "T^2+2" and invertible  # theta^2 - 1


def test_annihilator_gains_valuation(specs):
    for spec in specs.values():
        a, _ = residue_annihilator(spec, V0)
        z = tuple([T + RatK.one(CTX3)] * spec.dim)  # v-units everywhere
        w = tm_action(spec, a, z)
        assert all(V0.ord_ratk(x) >= 1 for x in w)


# -- validation gate -----------------------------------------------------

def test_validation_passes_tensor_powers(specs):
    for spec in specs.values():
        assert spec.validated


def test_validation_fails_broken_corner():
    good = tensor_carlitz_spec(2, V0)
    zero = PolyA.zero(CTX3)
    broken = TModuleSpec(
        CTX3, 2, good.N0, [[zero, zero], [zero, zero]], good.readout,
        good.index, good.args, good.point, good.test_points, name="broken")
    cert = validate_tmodule(broken, V0, 20)
    assert not cert.ok
    assert not broken.validated
    with pytest.raises(DomainError):
        extended_cmspl_v(broken, V0, 20)


@pytest.mark.parametrize("short, ok", [(1, False), (0, True)])
def test_validation_refuses_a_comparison_known_below_prec(monkeypatch, short,
                                                          ok):
    # the direct series known only to pi^(prec - 1) agrees with the log to
    # its cutoff; the comparison is then not known to prec and fails
    def known_to(index, args, place, prec):
        return cmspl_eval(index, args, place, prec).truncate(prec - short)

    monkeypatch.setattr("vcarlitz.tmodule.cmspl_eval", known_to)
    spec = tensor_carlitz_spec(2, V0)
    cert = validate_tmodule(spec, V0, 30)
    assert cert.ok is ok and spec.validated is ok
    assert [r[3] for r in cert.results] == [None if ok else 29] * 3


def test_validation_needs_three_points():
    spec = tensor_carlitz_spec(1, V0)
    starved = TModuleSpec(CTX3, 1, spec.N0,
                          [[e.num for e in r] for r in spec.B1],
                          spec.readout, spec.index, spec.args, spec.point,
                          spec.test_points[:2], name="starved")
    with pytest.raises(ValueError):
        validate_tmodule(starved, V0, 20)


# -- logarithm -----------------------------------------------------------

def test_log_functional_equation(specs):
    # Log(phi_a(z)) = d[a] Log(z) at depth 1 with a = theta
    spec = specs[1]
    z = (embed_local(T, V0, 50),)
    az = tuple(embed_local(x, V0, 50)
               for x in tm_action(spec, PolyA.T(CTX3), (T,)))
    lhs = log_at_point(spec, az, V0, 30)[0]
    rhs = embed_local(T, V0, 40) * log_at_point(spec, z, V0, 35)[0]
    assert (lhs - rhs).is_zero_to_precision()
    assert (lhs - rhs).cutoff >= 30


def test_log_rejects_units():
    spec = tensor_carlitz_spec(1, V0)
    with pytest.raises(ConvergenceNotCertified):
        log_at_point(spec, (embed_local(RatK.one(CTX3), V0, 40),), V0, 20)


class _StubLogCoeffs:
    """P_0 = Id, then the given P_1 and exact zeros; records the last index
    the log asked for."""

    def __init__(self, place, dim, W, P1=None):
        def entry(i, j, one):
            if i == j and one:
                return LocalNum.unit_one(place, W)
            return LocalNum.exact_zero(place)

        self.P = [kmat([[entry(i, j, True) for j in range(dim)]
                        for i in range(dim)])]
        self.later = [P1] if P1 is not None else []
        self.zero = kmat([[entry(i, j, False) for j in range(dim)]
                          for i in range(dim)])
        self.asked = 0

    def ensure(self, i_max):
        self.asked = max(self.asked, i_max)
        while len(self.P) <= i_max:
            i = len(self.P)
            self.P.append(self.later[i - 1] if i <= len(self.later)
                          else self.zero)


def test_log_tail_bound_uses_the_proved_rate(monkeypatch):
    # With P_i = 0 for i >= 1 the observed rate is 0, so terms from i = 1 on
    # would look negligible; the proved rate c = 3 of a 2-dim module decides
    # instead: q^i m - c i at q = 3, m = 1 is 81 - 12 < 75 at i = 4 and
    # 243 - 15 >= 75 at i = 5, so the log sums i < 5 and asks for P_4.
    spec = tensor_carlitz_spec(2, V0)
    stub = _StubLogCoeffs(V0, 2, 200)
    monkeypatch.setattr("vcarlitz.tmodule._local_log_coeffs",
                        lambda *args: stub)
    z = (embed_local(T, V0, 100),) * 2
    out = log_at_point(spec, z, V0, 75)
    assert stub.asked == 4
    assert all(x.congruent(y, 75) for x, y in zip(out, z))


class _ExtremeLogCoeffs(_StubLogCoeffs):
    """P_i = pi^(-c i) Id, the proved extreme, for every i."""

    def __init__(self, place, dim, W):
        super().__init__(place, dim, W)
        self.place, self.dim, self.W = place, dim, W

    def ensure(self, i_max):
        self.asked = max(self.asked, i_max)
        c = 2 * self.dim - 1
        while len(self.P) <= i_max:
            low = LocalNum(self.place, -c * len(self.P),
                           (1,) + (0,) * (self.W - 1))
            zero = LocalNum.exact_zero(self.place)
            self.P.append(kmat([[low if i == j else zero
                                 for j in range(self.dim)]
                                for i in range(self.dim)]))


@pytest.mark.parametrize("q, dim, m, prec, asked", [
    # I is the least i with q^j m - (2 dim - 1) j >= prec for all j >= i,
    # and the log asks for P_(I-1)
    (3, 1, 1, 30, 3),    # 1, 2, 7, 24, 77
    (3, 2, 1, 75, 4),    # 1, 0, 3, 18, 69, 228
    (2, 3, 1, 40, 6),    # 1, -3, -6, -7, -4, 7, 34, 93
    (5, 2, 2, 50, 2),    # 2, 7, 44, 241
    (2, 1, 3, 20, 2),    # 3, 5, 10, 21
    (4, 4, 1, 100, 3),   # 1, -3, 2, 43, 228
])
def test_log_asks_for_the_a_priori_truncation_index(monkeypatch, q, dim, m,
                                                    prec, asked):
    # every P_i sits at the proved extreme, so every term has ord exactly
    # q^i m - c i; the log must stop at I, where the observed rule of
    # three negligible terms asks for P_(I+2)
    ctx = FqContext(2, 2) if q == 4 else FqContext(q)
    place = PlaceV(ctx, 0)
    spec = tensor_carlitz_spec(dim, place)
    stub = _ExtremeLogCoeffs(place, dim, 400)
    monkeypatch.setattr("vcarlitz.tmodule._local_log_coeffs",
                        lambda *args: stub)
    pi = place.uniformizer()
    z = tuple(embed_local(RatK(pi ** m + pi ** (m + j + 1)), place, 400)
              for j in range(dim))
    out = log_at_point(spec, z, place, prec)
    assert stub.asked == asked
    # the terms past I change no digit below prec
    stub.ensure(asked + 3)
    want = [LocalNum.zero_to_precision(place, prec)] * dim
    for i in range(asked + 4):
        for r in range(dim):
            want[r] = want[r] + stub.P[i][r][r] * z[r].qpow(i)
    assert [(x.nu, x.coeffs) for x in out] == \
        [(x.truncate(prec).nu, x.truncate(prec).coeffs) for x in want]


def test_log_refuses_a_rate_beyond_the_proof(monkeypatch):
    # ord P_1 = -4 < -(2 dim - 1) = -3 contradicts the proved bound
    spec = tensor_carlitz_spec(2, V0)
    low = LocalNum(V0, -4, (1,) + (0,) * 99)
    zero = LocalNum.exact_zero(V0)
    stub = _StubLogCoeffs(V0, 2, 100, P1=kmat([[low, zero], [zero, zero]]))
    monkeypatch.setattr("vcarlitz.tmodule._local_log_coeffs",
                        lambda *args: stub)
    with pytest.raises(AssertionFailure, match="proved bound"):
        log_at_point(spec, (embed_local(T, V0, 40),) * 2, V0, 25)


def test_log_refuses_a_window_short_of_prec(monkeypatch):
    # P_0 known to pi^10 only: the log must raise, not return Log(z) to
    # pi^11 when pi^25 was asked for
    spec = tensor_carlitz_spec(2, V0)
    stub = _StubLogCoeffs(V0, 2, 10)
    monkeypatch.setattr("vcarlitz.tmodule._local_log_coeffs",
                        lambda *args: stub)
    with pytest.raises(PrecisionLoss):
        log_at_point(spec, (embed_local(T, V0, 100),) * 2, V0, 25)


def test_point_window_is_tight_at_the_proved_rate(monkeypatch):
    # ord P_1 = -3 = -(2 dim - 1), the proved extreme: a point of ord 1 at
    # q = 3 needs prec good digits, and one fewer leaves term 1 short
    spec = tensor_carlitz_spec(2, V0)
    low = LocalNum(V0, -3, (1,) + (0,) * 99)
    zero = LocalNum.exact_zero(V0)
    stub = _StubLogCoeffs(V0, 2, 100, P1=kmat([[low, zero], [zero, zero]]))
    monkeypatch.setattr("vcarlitz.tmodule._local_log_coeffs",
                        lambda *args: stub)
    C = _log_window(spec, 3, 25)
    assert C == 25
    out = log_at_point(spec, (embed_local(T, V0, C),) * 2, V0, 25)
    assert all(x.cutoff == 25 for x in out)
    with pytest.raises(PrecisionLoss):
        log_at_point(spec, (embed_local(T, V0, C - 1),) * 2, V0, 25)


def _log_outcome(fn, spec, z, place, prec):
    try:
        return [(x.nu, x.coeffs) for x in fn(spec, z, place, prec)]
    except (ConvergenceNotCertified, PrecisionLoss, AssertionFailure) as exc:
        return type(exc).__name__


@given(random_specs(), st.data())
@settings(max_examples=50, deadline=None)
def test_log_matches_the_observed_rule_loop(spec, data):
    ctx = spec.ctx
    place = PlaceV(ctx, data.draw(st.integers(0, ctx.q - 1)))
    prec = data.draw(st.integers(1, 60))
    pi = RatK(place.uniformizer())
    fq = st.integers(0, ctx.q - 1)
    z = []
    for _ in range(spec.dim):
        unit = PolyA(ctx, data.draw(st.lists(fq, max_size=3)))
        z.append(RatK(unit) * pi ** data.draw(st.integers(1, 3)))
    C = _log_window(spec, ctx.q, prec)
    z = tuple(embed_local(x, place, C) for x in z)
    assert _log_outcome(log_at_point, spec, z, place, prec) == \
        _log_outcome(log_at_point_observed, spec, z, place, prec)


@st.composite
def conjugated_nilpotents(draw):
    """(ctx, N0) with N0 = B U B^(-1), U strictly upper triangular and
    B = L R invertible (L unit lower, R upper triangular with a nonzero
    diagonal), all random over F_q."""
    ctx = draw(st.sampled_from(SOLVER_FIELDS))
    dim = draw(st.integers(1, 4))
    fq, unit = st.integers(0, ctx.q - 1), st.integers(1, ctx.q - 1)
    U = tuple(tuple(draw(fq) if j > i else 0 for j in range(dim))
              for i in range(dim))
    L = tuple(tuple(draw(fq) if j < i else int(i == j) for j in range(dim))
              for i in range(dim))
    R = tuple(tuple(draw(fq) if j > i else draw(unit) if i == j else 0
                    for j in range(dim)) for i in range(dim))
    B = fqmat_mul(ctx, L, R)
    return ctx, fqmat_mul(ctx, fqmat_mul(ctx, B, U), _fq_inverse(ctx, B))


@given(conjugated_nilpotents(), st.data())
@settings(max_examples=60, deadline=None)
def test_readout_row_in_k_n0_matches_the_matrix_inverse(ctx_n0, data):
    ctx, N0 = ctx_n0
    dim = len(N0)
    fq = st.integers(0, ctx.q - 1)
    a = PolyA(ctx, data.draw(st.lists(fq, min_size=1, max_size=5)))
    if a.is_zero():
        a = PolyA.one(ctx)
    r = data.draw(st.integers(0, dim - 1))
    zero = PolyA.zero(ctx)
    spec = TModuleSpec(ctx, dim, N0, [[zero] * dim] * dim, readout=(r,),
                       index=Index([dim]), args=ArgTuple([RatK.T(ctx)]),
                       point=(RatK.T(ctx),) * dim)
    want = kmat_inv(kmat_poly_eval(a, tmodule_b0(spec), ctx))[r]
    assert tmodule._da_inv_row(spec, a) == list(want)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_point_window_covers_every_term(dim, q):
    # C - c i + q^i >= prec for every i, checked far past the loop's stop,
    # and one digit fewer falls short at some i; the same bound serves the
    # coefficients' window, whose P_i are known to C - c i
    spec = tensor_carlitz_spec(dim, PlaceV(FqContext(q)))
    C, c = _log_window(spec, q, 30), 2 * dim - 1
    assert all(C - c * i + q ** i >= 30 for i in range(40))
    assert any(C - 1 - c * i + q ** i < 30 for i in range(40))


@pytest.mark.parametrize("lam", [0, 1, 2])
def test_log_rejects_b1_that_is_not_v_integral(lam):
    # TModuleSpec admits only B1 over A; a B1 replaced afterwards must not
    # reach the log, whose valuation bound rests on B1 being v-integral
    place = PlaceV(CTX3, lam)
    pi = T + RatK(PolyA.constant(CTX3, lam))
    spec = tensor_carlitz_spec(2, place)
    zero = RatK.zero(CTX3)
    spec.B1 = ((zero, zero), (pi.inv(), zero))
    z = (embed_local(pi, place, 40),) * 2
    with pytest.raises(DomainError, match="B1 is not v-integral"):
        log_at_point(spec, z, place, 20)


# -- extended evaluation -------------------------------------------------

def test_extended_matches_series_on_overlap(specs):
    for s, spec in specs.items():
        got = extended_cmspl_v(spec, V0, 30)
        want = cmspl_eval(Index([s]), ArgTuple([T]), V0, 30)
        d = got - want
        assert d.is_zero_to_precision() and d.cutoff >= 30


def test_extended_zeta2_vanishes(specs):
    spec = with_args(specs[2], ArgTuple([RatK.one(CTX3)]),
                     (RatK.zero(CTX3), RatK.one(CTX3)))
    val = extended_cmspl_v(spec, V0, 40)
    assert val.is_zero_to_precision() and val.cutoff >= 40


def test_extended_zeta1_nonzero_leading_digits(specs):
    spec = with_args(specs[1], ArgTuple([RatK.one(CTX3)]),
                     (RatK.one(CTX3),))
    val = extended_cmspl_v(spec, V0, 30)
    assert val.valuation() == 1
    assert val.digits(1, 4) == (2, 1, 1)


def test_annihilator_invariance(specs):
    spec = with_args(specs[2], ArgTuple([RatK.one(CTX3)]),
                     (RatK.zero(CTX3), RatK.one(CTX3)))
    a, _ = residue_annihilator(spec, V0)
    v1 = extended_cmspl_v(spec, V0, 30)
    v2 = extended_cmspl_v(spec, V0, 30, annihilator=a * a)
    d = v1 - v2
    assert d.is_zero_to_precision() and d.cutoff >= 30


@pytest.mark.parametrize("k", [1, 2])
def test_extended_keeps_prec_when_d_a_inverse_has_poles(k):
    # with the annihilator a pi^k, d[a]^(-1) has negative valuation, and
    # the value must still come out to pi^40, equal to the one from a
    text = resources.files("vcarlitz").joinpath(
        "data/tmodules/tensor_q3_s2.txt").read_text()
    spec = parse_tmodule_spec(text)
    assert validate_tmodule(spec, V0, 30).ok
    a, _ = residue_annihilator(spec, V0)
    want = extended_cmspl_v(spec, V0, 40, annihilator=a)
    got = extended_cmspl_v(spec, V0, 40,
                           annihilator=a * V0.uniformizer() ** k)
    assert want.cutoff == got.cutoff == 40
    assert (got.nu, got.coeffs) == (want.nu, want.coeffs)


def test_extended_requires_defining_domain(specs):
    bad = with_args(specs[1], ArgTuple([RatK.one(CTX3) / T]),
                    (RatK.one(CTX3) / T,))
    with pytest.raises(DomainError):
        extended_cmspl_v(bad, V0, 20)


# -- candidates and spec files ------------------------------------------

def test_spec_without_test_points_is_gated():
    spec = tensor_carlitz_spec(2, V0)
    bare = TModuleSpec(CTX3, spec.dim, spec.N0, spec.B1, spec.readout,
                       spec.index, spec.args, spec.point, test_points=())
    assert not bare.validated
    with pytest.raises(DomainError):
        extended_cmspl_v(bare, V0, 10)
    with pytest.raises(ValueError):
        validate_tmodule(bare, V0, 10)  # nothing to validate against


def test_spec_file_roundtrip():
    spec = tensor_carlitz_spec(2, V0)
    text = dump_tmodule_spec(spec)
    again = parse_tmodule_spec(text)
    assert dump_tmodule_spec(again) == text
    assert not again.validated
    assert validate_tmodule(again, V0, 20).ok


def test_spec_file_errors():
    with pytest.raises(ParseError):
        parse_tmodule_spec("name only, no colon structure\n")
    with pytest.raises(ParseError):
        parse_tmodule_spec("name: x\np: 3\ndim: nope\n")
