"""Tests for Frobenius difference systems and their certificates."""

import pytest

from vcarlitz.algebra import FqContext, RatK
from vcarlitz.cli import _residual_records
from vcarlitz.errors import CertificationFailed, DomainError
from vcarlitz.local import LocalNum, PlaceV
from vcarlitz.polylog import ArgTuple, Index, cmpl_eval, pi_tilde
from vcarlitz.diffsys import (
    DiffSystem, Residual, block_sum, build_cmpl_system, build_omega_system,
    dump_system, mpl_certificate, specialize_psi, tp_add, tp_apply, tp_eval_k,
    tp_mul, tp_normalize, tp_one, tp_pow, tp_scale, tp_str, vabp_certify,
    verify_difference,
)
from vcarlitz.tseries import TSeries

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
    assert tp_str((ONE, T)) == "1 + T*t^1"
    assert tp_str(()) == "0"
    assert tp_normalize([T, RatK.zero(CTX3)]) == (T,)


def test_tpoly_apply_matches_scalar_action():
    g = TSeries.from_ratk_poly(V0, [ONE, T, T * T], 5, 20)
    a = (T, ONE)  # T + t
    out = tp_apply(a, g, V0, 20)
    # coefficient of t^1: T*T + 1*1
    want = T * T + ONE
    from vcarlitz.local import embed_local
    assert (out.coeff(1) - embed_local(want, V0, 20)).is_zero_to_precision()


# -- construction and residuals -----------------------------------------

@pytest.mark.parametrize("q,lam", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_omega_system_verifies(q, lam):
    place = PlaceV(FqContext(q), lam)
    res = verify_difference(build_omega_system(place), 40, 40)
    assert res.is_zero
    records, code = _residual_records(res)
    assert records[0][0] == "residual_ord" and code == 0


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
    sys._psi_cache[(20, 20)] = (psi[0], TSeries(V0, bad))
    res = verify_difference(sys, 20, 20)
    assert not res.is_zero and res.exact and res.ord <= 4


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


def test_block_sum_refuses_mixed_places():
    with pytest.raises(ValueError):
        block_sum([build_omega_system(V0),
                   build_omega_system(PlaceV(CTX3, 1))])


# -- specialization ------------------------------------------------------

def test_specialization_at_inverse_uniformizer():
    s = Index([2])
    u = ArgTuple([T])
    sys = build_cmpl_system(s, u, V0)
    vals = specialize_psi(sys, 0, 30)
    pt = pi_tilde(sys.alpha, V0, 30)
    assert (vals[0] - pt.pow(2)).is_zero_to_precision()
    li = cmpl_eval(s, u, V0, 30)
    assert (vals[-1] - pt.pow(2) * li).is_zero_to_precision()


def test_specialization_at_higher_twist_kills_all_but_last():
    sys = build_cmpl_system(Index([2, 1]), ArgTuple([T, T + ONE]), V0)
    vals = specialize_psi(sys, 1, 30)
    assert all(v.is_exact_zero() for v in vals[:-1])
    assert not vals[-1].is_zero_to_precision()


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
    assert any("N in [1]" in n for n in cert.notes)


def test_mpl_certificate_wrong_ftype_fails_condition2():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    cert = mpl_certificate(sys, 1, t_power(2), [1], prec=20)
    assert 2 in cert.failed()


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
    broken = DiffSystem(V0, (((),),), lambda D, N: [TSeries.zero(V0, D, N)],
                        1, sys.alpha)
    gamma = RatK(V0.uniformizer()).inv()
    with pytest.raises(CertificationFailed):
        vabp_certify(broken, gamma, (RatK.zero(CTX3),), ((),), 10, 10)


# -- dumps ---------------------------------------------------------------

def test_dump_contains_entries_and_psi():
    sys = build_cmpl_system(Index([1]), ArgTuple([T]), V0)
    text = dump_system(sys)
    assert "phi[1][0]: T + 2*T^4*t^1" in text
    assert "psi[0]:" in text and "O(t^4)" in text


def test_residual_dump_format():
    res = verify_difference(build_omega_system(V0), 10, 10)
    assert _residual_records(res) == (
        [("residual_ord", "inf"), ("status", "ok")], 0)
