"""Tests for relation search and certified zeta decompositions."""

import pytest

from vcarlitz.algebra import FqContext, RatK
from vcarlitz.errors import (
    CertificationFailed, MissingTModuleSpec, ParseError, PrecisionLoss,
    UncertifiedDecomposition,
)
from vcarlitz.local import LocalNum, PlaceV, embed_local
from vcarlitz.polylog import ArgTuple, Index, cmspl_eval, pi_tilde
from vcarlitz.relations import (
    Decomposition, ValueHandle, depth1_decomposition, eval_vmzv,
    find_k_relations, parse_decomposition, verify_decomposition_inf,
)

from oracles import dump_decomposition, zeta_v

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
T = RatK.T(CTX3)
ONE = RatK.one(CTX3)


def handle(label, weight, s, u, prec=70):
    val = cmspl_eval(Index(s), ArgTuple(u), V0, prec)
    return ValueHandle(label, weight, val)


# -- relation search -----------------------------------------------------

def test_duplicate_value_relation():
    pt = pi_tilde(RatK(V0.uniformizer()), V0, 70)
    reps = find_k_relations([ValueHandle("a", 1, pt),
                             ValueHandle("b", 1, pt)], 0, 40, 60)
    assert len(reps) == 1
    assert reps[0].line().startswith("coeffs=[1, 2] residual_ord=")
    assert reps[0].residual_ord >= 60


def test_carlitz_action_relation():
    # Log(phi_theta(z)) = theta Log(z) forces Li_1(theta^3 + theta^2)
    # = theta Li_1(theta); the search must recover coefficients (1, -theta)
    x1 = handle("x1", 1, [1], [T ** 3 + T ** 2])
    x2 = handle("x2", 1, [1], [T])
    reps = find_k_relations([x1, x2], 1, 40, 60)
    assert len(reps) == 1
    assert reps[0].line() == "coeffs=[1, 2*T] residual_ord=70"
    assert reps[0].support() == (0, 1)


def test_carlitz_action_relation_survives_stricter_recheck():
    x1 = handle("x1", 1, [1], [T ** 3 + T ** 2], prec=85)
    x2 = handle("x2", 1, [1], [T], prec=85)
    reps = find_k_relations([x1, x2], 1, 40, 70)
    assert len(reps) == 1 and reps[0].residual_ord >= 70


def test_recheck_drops_a_relation_off_in_its_last_digit():
    # negative control of the recheck: x1 = theta x2 is reported, and once
    # x1's digit at pi^(N_recheck - 1), above the search precision, is
    # changed, the relation is still in the kernel mod pi^40 but dropped
    x1 = handle("x1", 1, [1], [T ** 3 + T ** 2], prec=60)
    x2 = handle("x2", 1, [1], [T], prec=60)
    reps = find_k_relations([x1, x2], 1, 40, 60)
    assert [r.line() for r in reps] == ["coeffs=[1, 2*T] residual_ord=60"]
    off = ValueHandle("x1", 1, x1.value + LocalNum(V0, 59, (1,)))
    assert off.value.cutoff == 60
    assert off.value.digits(59, 60) != x1.value.digits(59, 60)
    assert find_k_relations([off, x2], 1, 40, 60) == []


def test_no_spurious_relation():
    vals = [handle("a", 1, [1], [T]), handle("b", 2, [2], [T]),
            ValueHandle("c", 0, embed_local(ONE, V0, 70))]
    assert find_k_relations(vals, 3, 40, 60) == []


def test_star_stuffle_closure_weight2():
    # Li*_1(u) Li*_1(v) = Li*_(1,1)(u,v) + Li*_(1,1)(v,u) - Li*_2(uv),
    # witnessing that a product of weight-1 values is a weight-2 value
    a = cmspl_eval(Index([1]), ArgTuple([T]), V0, 70)
    vals = [ValueHandle("sq", 2, a * a),
            handle("dbl", 2, [1, 1], [T, T]),
            handle("tail", 2, [2], [T * T])]
    reps = find_k_relations(vals, 0, 40, 60)
    assert len(reps) == 1
    assert reps[0].line().startswith("coeffs=[1, 1, 1] residual_ord=")


def test_zeta1_squared_in_weight2_span():
    # the square of the weight-1 v-adic zeta lies in the k-span of directly
    # computable weight-2 star values: the search finds a relation whose
    # zeta^2 coefficient (theta^2 + theta + 1) is invertible in k
    z1 = zeta_v(CTX3, V0, 1, 70)
    vals = [ValueHandle("z1^2", 2, z1 * z1),
            handle("a", 2, [2], [T]),
            handle("b", 2, [2], [T * T]),
            handle("c", 2, [1, 1], [T, T])]
    reps = find_k_relations(vals, 2, 40, 60)
    assert any(0 in rep.support() for rep in reps)
    witness = next(rep for rep in reps if 0 in rep.support())
    assert not witness.coeffs[0].is_zero()
    assert witness.residual_ord >= 60


def test_no_weight_mixing():
    vals = [
        handle("w1a", 1, [1], [T]),
        handle("w1b", 1, [1], [T * T]),
        handle("w2a", 2, [2], [T]),
        handle("w2b", 2, [1, 1], [T, T + ONE]),
        handle("w3a", 3, [3], [T]),
        handle("w3b", 3, [2, 1], [T, T + ONE]),
    ]
    for rep in find_k_relations(vals, 3, 40, 60):
        weights = {vals[i].weight for i in rep.support()}
        assert len(weights) == 1


def test_search_preconditions():
    a = handle("a", 1, [1], [T], prec=50)
    with pytest.raises(ValueError):
        find_k_relations([a], 1, 40, 60)  # digits run out before recheck
    with pytest.raises(ValueError):
        find_k_relations([handle("a", 1, [1], [T])], 1, 40, 40)
    b = ValueHandle("b", 1, cmspl_eval(Index([1]), ArgTuple([T + ONE]),
                                       PlaceV(CTX3, 1), 70))
    with pytest.raises(ValueError):
        find_k_relations([handle("a", 1, [1], [T]), b], 1, 40, 60)


# -- decompositions ------------------------------------------------------

def test_decomposition_invariants():
    with pytest.raises(ValueError):  # weight must be preserved
        Decomposition(Index([2]), [(ONE, Index([1]), ArgTuple([ONE]))])
    with pytest.raises(ValueError):  # depth must not increase
        Decomposition(Index([2]),
                      [(ONE, Index([1, 1]), ArgTuple([ONE, ONE]))])
    with pytest.raises(ValueError):  # args must match the index depth
        Decomposition(Index([2]), [(ONE, Index([2]), ArgTuple([ONE, ONE]))])


def test_depth1_candidate_range():
    with pytest.raises(ValueError):
        depth1_decomposition(CTX3, 3)  # q - 1 = 2 is the last one
    dec = depth1_decomposition(CTX3, 2)
    assert not dec.certified


def test_certification_success_and_gate():
    dec = depth1_decomposition(CTX3, 1)
    with pytest.raises(UncertifiedDecomposition):
        eval_vmzv(dec, V0, 30)
    cert = verify_decomposition_inf(dec, 40)
    assert cert["certified"] and cert["prec"] == 40
    assert dec.certified


def test_certification_rejects_false_decomposition():
    bad = Decomposition(Index([2]), [(ONE, Index([2]), ArgTuple([T]))])
    with pytest.raises(CertificationFailed) as exc:
        verify_decomposition_inf(bad, 40)
    assert exc.value.residual_ord is not None


@pytest.mark.parametrize("s", [1, 2])
def test_certification_fails_at_the_last_claimed_digit(s):
    # zeta_A(s) = Li*_s(1) has valuation 0 at infinity, so a coefficient
    # 1 + theta^-(N-1) leaves a residual of order N - 1, the last digit the
    # certificate claims; 1 + theta^-N leaves one beyond it
    N = 30
    for k, fails in ((N - 1, True), (N, False)):
        b = ONE + ONE / T ** k
        dec = Decomposition(Index([s]), [(b, Index([s]), ArgTuple([ONE]))])
        if fails:
            with pytest.raises(CertificationFailed) as exc:
                verify_decomposition_inf(dec, N)
            assert exc.value.residual_ord == N - 1
            assert not dec.certified
        else:
            assert verify_decomposition_inf(dec, N) == {
                "certified": True, "prec": N}


def _split_zeta1(b):
    """zeta_A(1) = b Li*_1(1) + (1 - b) Li*_1(1), true for every b."""
    return Decomposition(Index([1]), [(b, Index([1]), ArgTuple([ONE])),
                                      (ONE - b, Index([1]), ArgTuple([ONE]))])


@pytest.mark.parametrize("k", [5, 8, 20])
def test_certification_keeps_coefficients_with_poles_at_infinity(k):
    # ord_inf T^k = -k: each term must be taken k digits further, and the
    # true decomposition certified at N, not refused at order N - k + 4
    dec = _split_zeta1(T ** k)
    assert verify_decomposition_inf(dec, 40) == {"certified": True,
                                                 "prec": 40}
    # the deeper terms do not hide a false one
    bad = Decomposition(Index([1]), [(T ** k, Index([1]), ArgTuple([ONE])),
                                     (ONE - T ** k + ONE / T ** 39,
                                      Index([1]), ArgTuple([ONE]))])
    with pytest.raises(CertificationFailed) as exc:
        verify_decomposition_inf(bad, 40)
    assert exc.value.residual_ord == 39


@pytest.mark.parametrize("k", [1, 2])
def test_vmzv_keeps_prec_when_a_coefficient_has_a_pole_at_v(k):
    # b = 1/T^k has ord_v b = -k at v = T, so each term is taken k digits
    # further; the value is zeta(1)_v to prec, as with b = 1
    dec = _split_zeta1(ONE / T ** k)
    verify_decomposition_inf(dec, 40)
    got = eval_vmzv(dec, V0, 30)
    want = zeta_v(CTX3, V0, 1, 30)
    assert got.cutoff == want.cutoff == 30
    assert (got.nu, got.coeffs) == (want.nu, want.coeffs)


def test_vmzv_refuses_a_value_known_below_prec(monkeypatch):
    # a term that comes back one digit short must raise, not shorten the
    # value
    import vcarlitz.relations as rel
    full = rel._depth1_extended
    monkeypatch.setattr(rel, "_depth1_extended",
                        lambda *args: full(*args).truncate(args[-1] - 1))
    dec = depth1_decomposition(CTX3, 1)
    verify_decomposition_inf(dec, 40)
    with pytest.raises(PrecisionLoss):
        eval_vmzv(dec, V0, 30)


def test_empty_decomposition_is_an_error():
    empty = Decomposition(Index([1]), [])
    with pytest.raises(ValueError):
        eval_vmzv(empty, V0, 30)
    with pytest.raises(ValueError):
        verify_decomposition_inf(empty, 40)


def test_vmzv_weight2_vanishes():
    dec = depth1_decomposition(CTX3, 2)
    verify_decomposition_inf(dec, 40)
    z2 = eval_vmzv(dec, V0, 40)
    assert z2.zero_to(40)


def test_vmzv_weight1_golden_digits():
    z1 = zeta_v(CTX3, V0, 1, 40)
    assert z1.valuation() == 1
    assert tuple(z1.coeffs[:3]) == (2, 1, 1)


def test_deeper_terms_need_a_supplied_module():
    dec = Decomposition(Index([1, 1]),
                        [(ONE, Index([1, 1]), ArgTuple([ONE, ONE]))])
    dec.certification = {"certified": True, "prec": 40}  # to reach the lookup
    with pytest.raises(MissingTModuleSpec):
        eval_vmzv(dec, V0, 30)


# -- files ---------------------------------------------------------------

def test_decomposition_file_roundtrip():
    dec = depth1_decomposition(CTX3, 2)
    verify_decomposition_inf(dec, 40)
    text = dump_decomposition(dec, CTX3)
    assert text == dump_decomposition(dec, CTX3) and "date" not in text
    assert "target: 2" in text and "term: 1 | 2 | 1" in text
    assert "certified: true" in text and "prec: 40" in text
    back, ctx = parse_decomposition(text)
    assert back.target == dec.target and ctx.q == 3
    # the file's certified line is a claim: the decomposition read back is
    # uncertified until it passes the check again
    assert not back.certified
    with pytest.raises(UncertifiedDecomposition):
        eval_vmzv(back, V0, 40)
    assert verify_decomposition_inf(back, 40) == {"certified": True,
                                                  "prec": 40}
    z2 = eval_vmzv(back, V0, 40)
    assert z2.zero_to(40)


def test_decomposition_parse_errors():
    with pytest.raises(ParseError):
        parse_decomposition("p: 3\ntarget: 2\nnonsense line\n")
    with pytest.raises(ParseError):
        parse_decomposition("p: 3\ntarget: x\nterm: 1 | 2 | 1\n")
    # a date line, as in files written before dumps were reproducible
    dated, _ = parse_decomposition("p: 3\ntarget: 2\nterm: 1 | 2 | 1\n"
                                   "certified: true\nprec: 40\n"
                                   "date: 2026-08-25\n")
    assert dated.certification == {} and not dated.certified
    # a certified line without its precision is read past as well
    bare, _ = parse_decomposition("p: 3\ntarget: 2\nterm: 1 | 2 | 1\n"
                                  "certified: true\n")
    assert not bare.certified


def test_a_forged_certified_file_is_not_trusted():
    # zeta(1) = T * Li*_1(1) is false, and the file claims it is certified
    forged, _ = parse_decomposition("p: 3\ne: 1\ntarget: 1\n"
                                    "term: T | 1 | 1\ncertified: true\n"
                                    "prec: 60\n")
    assert not forged.certified
    with pytest.raises(UncertifiedDecomposition):
        eval_vmzv(forged, V0, 30)
    with pytest.raises(CertificationFailed):
        verify_decomposition_inf(forged, 60)
    assert not forged.certified
