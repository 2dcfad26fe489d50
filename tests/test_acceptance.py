"""Acceptance criteria, one test (and one pass/fail line) per criterion.

Each test asserts the stated tolerance and prints a single summary line;
under ``pytest -v`` the per-test PASSED/FAILED line is the per-criterion
verdict.
"""

import random
import time

import pytest

from vcarlitz.algebra import FqContext, PolyA, RatK, parse_ratk
from vcarlitz.local import LocalNum, PlaceInf, PlaceV, embed_local
from vcarlitz import polylog as pl
from vcarlitz.diffsys import (
    _specialization_holds, block_sum, build_cmpl_system, build_omega_system,
    mpl_certificate, tp_one, tp_scale, vabp_certify, verify_difference,
)
from vcarlitz.abp import (
    RvElem, liouville_check, norm_ball_count, parse_rv, small_solution,
    sup_norm_disk, sup_norm_factored,
)
from vcarlitz.errors import NoSolutionInBudget
from vcarlitz.relations import (
    ValueHandle, depth1_decomposition, eval_vmzv, find_k_relations,
    verify_decomposition_inf,
)
from vcarlitz.tmodule import (
    extended_cmspl_v, parse_tmodule_spec, residue_annihilator,
    validate_tmodule,
)

CTX3 = FqContext(3)
V0 = PlaceV(CTX3, 0)
T = RatK.T(CTX3)
ONE = RatK.one(CTX3)

# instance set shared by criteria 2 and 3: first slot from FIRST,
# later slots from LATER, q = 3, lambda = 0
FIRST = ("T", "T^2", "T^2+T")
LATER = ("T+1", "T")
SHAPES = ((1,), (2,), (2, 1), (1, 1, 1))


def _instances():
    for shape in SHAPES:
        for u1 in FIRST:
            rest = [()]
            for _ in range(len(shape) - 1):
                rest = [r + (x,) for r in rest for x in LATER]
            for tail in rest:
                u = pl.ArgTuple([parse_ratk(CTX3, x)
                                 for x in (u1,) + tail])
                yield pl.Index(shape), u


def _report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_omega_difference_equation():
    start = time.monotonic()
    for q in (2, 3):
        for lam in (0, 1):
            place = PlaceV(FqContext(q), lam)
            res = verify_difference(build_omega_system(place), 40, 40)
            assert res.is_zero, (q, lam)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"residuals 0 mod (t^40, pi^40) for 4 places, {elapsed:.2f}s")


def test_criterion_02_deformation_functional_equations():
    start = time.monotonic()
    count = 0
    for s, u in _instances():
        res = verify_difference(build_cmpl_system(s, u, V0), 40, 40)
        assert res.is_zero, (s, u)
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, f"{count} systems 0 mod (t^40, pi^40), {elapsed:.2f}s")


def test_criterion_03_specialization_identity():
    pt = pl.pi_tilde(RatK(V0.uniformizer()), V0, 45)
    for s, u in _instances():
        base = pt.pow(s.weight) * pl.cmpl_eval(s, u, V0, 45)
        for N in (0, 1):
            got = pl.deformation_specialize(s, u, V0, N, 40).shift(
                N * s.weight * V0.q ** N)
            assert got.congruent(base.qpow(N), 40), (s, u, N)
    _report(3, "L(pi^(-q^N)) = (pitilde^w Li)^(q^N) mod pi^40, N in {0,1}")


def test_criterion_04_exact_zeros():
    # Omega(alpha^(-q^N)) vanishes for N >= 1, so psi(alpha^(-q^N)) is its
    # last entry, whose literal value times pi^(N w q^N) is the target's
    # q^N-th power
    s, u = pl.Index((2, 1)), pl.ArgTuple((T, T + ONE))
    sys_ = build_cmpl_system(s, u, V0)
    target = pl.cmpl_eval(s, u, V0, 20) \
        * pl.pi_tilde(sys_.alpha, V0, 20).pow(s.weight)
    for N in (1, 2, 3):
        assert _specialization_holds(sys_, N, 20, target), N
    # chains with an entry below the twist vanish identically: the twist-2
    # value is exactly the double q-power of the twist-0 value
    s, u = pl.Index((1,)), pl.ArgTuple((T,))
    v0 = pl.deformation_specialize(s, u, V0, 0, 12)
    assert pl.deformation_specialize(s, u, V0, 2, 12).shift(18).congruent(
        v0.qpow(2), 10)
    _report(4, "psi(alpha^(-q^N)) ends in (Z pitilde^w)^(q^N), N in {1,2,3}; "
               "low-chain summands vanish exactly")


def test_criterion_05_goss_vanishing_and_golden_value():
    start = time.monotonic()
    dec2 = depth1_decomposition(CTX3, 2)
    cert = verify_decomposition_inf(dec2, 60)   # |residual|_inf <= q^-60
    assert cert["prec"] == 60
    z2 = eval_vmzv(dec2, V0, 40)
    assert z2.is_zero_to_precision() and z2.cutoff >= 40
    dec1 = depth1_decomposition(CTX3, 1)
    verify_decomposition_inf(dec1, 60)
    z1 = eval_vmzv(dec1, V0, 40)
    assert z1.valuation() == 1
    assert str(z1) == (
        "2*v^1 + v^2 + v^3 + 2*v^6 + v^7 + 2*v^9 + v^10 + 2*v^12 + v^13"
        " + v^15 + v^17 + v^19 + v^21 + v^24 + v^25 + 2*v^26 + 2*v^27"
        " + v^30 + 2*v^33 + 2*v^34 + v^35 + v^36 + v^39 + O(v^40)")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(5, f"zeta(2)_v = 0 mod pi^40, zeta(1)_v golden at ord 1, "
               f"{elapsed:.2f}s")


def test_criterion_06_extended_direct_consistency(shipped_specs):
    for s, spec in shipped_specs.items():
        cert = validate_tmodule(spec, V0, 30)
        assert cert.ok and len(cert.results) >= 3, s
        a, invertible = residue_annihilator(spec, V0)
        assert invertible
        one = extended_cmspl_v(spec, V0, 30, annihilator=a)
        two = extended_cmspl_v(spec, V0, 30, annihilator=a * a)
        assert one.congruent(two, 30), s
    _report(6, "3 tensor specs match the series on 3 points each, "
               "a vs a^2 agree mod pi^30")


def test_criterion_07_star_nonstar_and_stuffle():
    cases = [
        (pl.Index((1, 2)), pl.ArgTuple((T, T + ONE))),
        (pl.Index((2, 1)), pl.ArgTuple((T * T, T))),
        (pl.Index((1, 1, 1)), pl.ArgTuple((T, T + ONE, T))),
    ]
    for s, u in cases:
        star = pl.cmspl_eval(s, u, V0, 30)
        acc = LocalNum.zero_to_precision(V0, 30)
        for coeff, idx, pattern in pl.star_expand(s):
            assert coeff == 1
            acc = acc + pl.cmpl_eval(idx, pl.merge_args(u, pattern), V0, 30)
        assert star.congruent(acc, 30), (s, u)
    for place, (u, w) in ((V0, (T, T * T)), (PlaceInf(CTX3), (ONE, T))):
        a, b = 1, 2
        lhs = pl.cmpl_eval(pl.Index((a,)), pl.ArgTuple((u,)), place, 30) \
            * pl.cmpl_eval(pl.Index((b,)), pl.ArgTuple((w,)), place, 30)
        rhs = pl.cmpl_eval(pl.Index((a, b)), pl.ArgTuple((u, w)), place, 30) \
            + pl.cmpl_eval(pl.Index((b, a)), pl.ArgTuple((w, u)), place, 30) \
            + pl.cmpl_eval(pl.Index((a + b,)), pl.ArgTuple((u * w,)),
                           place, 30)
        assert lhs.congruent(rhs, 30)
    _report(7, "star expansion depth 2-3 and stuffle at both places "
               "mod prec 30")


def test_criterion_08_appendix_suite():
    rng = random.Random(20260825)
    for q in (2, 3):
        for n in range(4):
            for lam in range(q):
                assert norm_ball_count(PlaceV(FqContext(q), lam), n) \
                    == q ** (n + 1)
    # two-route sup norms on 20 random factored polynomials; zeros get
    # distinct valuations so no coefficient cancels in the expansion
    one = LocalNum.unit_one(V0, 30)
    for _ in range(20):
        lam = one.shift(rng.randrange(0, 4))
        ords = rng.sample(range(-3, 4), rng.randrange(1, 4))
        omegas = [one.shift(e) for e in ords]
        sup_norm_factored(lam, omegas, rng.randrange(0, 3),
                          rng.randrange(0, 4))   # raises on disagreement
    # Liouville inequality on 20 random (f, lambda) instances
    for _ in range(20):
        mu = rng.randrange(1, 3)
        root = RatK(V0.uniformizer()) ** rng.randrange(0, 3)
        coeffs = [RatK.one(CTX3)]
        for _ in range(mu):
            coeffs = _poly_mul(coeffs, [-root, RatK.one(CTX3)])
        extra = parse_ratk(CTX3, rng.choice(("1", "T+1", "T^2+1")))
        coeffs = _poly_mul(coeffs, [extra, RatK.one(CTX3)])
        lhs, rhs, ok = liouville_check(coeffs, root, mu, V0)
        assert ok and lhs >= rhs
    # 10 random feasible small-solution systems, re-verified internally
    found = 0
    while found < 10:
        row = []
        for _ in range(rng.randrange(2, 4)):
            entry = tuple(RvElem(V0, [rng.randrange(3)
                                      for _ in range(rng.randrange(1, 3))])
                          for _ in range(rng.randrange(1, 3)))
            row.append(entry)
        if all(all(c.is_zero() for c in e) for e in row):
            continue
        c_exp = max(c.norm_exp() for e in row for c in e
                    if not c.is_zero()) + 2
        try:
            small_solution([row], c_exp, 2, V0)
        except NoSolutionInBudget:
            continue
        found += 1
    _report(8, "ball counts exact, 20+20 random lemma instances, "
               "10 re-verified small solutions")


def _poly_mul(a, b):
    out = [RatK.zero(CTX3)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_criterion_09_relation_search():
    start = time.monotonic()
    x1 = ValueHandle("Li1(C(th))", 1,
                     pl.cmpl_eval(pl.Index((1,)),
                                  pl.ArgTuple((T ** 3 + T ** 2,)), V0, 70))
    x2 = ValueHandle("Li1(th)", 1,
                     pl.cmpl_eval(pl.Index((1,)), pl.ArgTuple((T,)), V0, 70))
    reps = find_k_relations([x1, x2], 1, 40, 60)
    assert len(reps) == 1
    assert [str(c) for c in reps[0].coeffs] == ["1", "2*T"]  # (1, -theta)
    assert reps[0].residual_ord >= 60

    def star(label, weight, s, u):
        return ValueHandle(label, weight,
                           pl.cmspl_eval(pl.Index(s), pl.ArgTuple(u),
                                         V0, 70))

    sample = [
        star("w1a", 1, (1,), (T,)),
        star("w1b", 1, (1,), (T * T,)),
        star("w2a", 2, (2,), (T,)),
        star("w2b", 2, (1, 1), (T, T + ONE)),
        star("w3a", 3, (3,), (T,)),
        star("w3b", 3, (2, 1), (T, T + ONE)),
    ]
    for rep in find_k_relations(sample, 3, 40, 60):
        weights = {sample[i].weight for i in rep.support()}
        assert len(weights) == 1, rep.line()
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(9, f"(1, -theta) recovered at recheck 60, no weight mixing, "
               f"{elapsed:.2f}s")


def test_criterion_10_mpl_and_vabp_certificates():
    weight_systems = [
        build_cmpl_system(pl.Index((1,)), pl.ArgTuple((T,)), V0),
        build_cmpl_system(pl.Index((2,)), pl.ArgTuple((T,)), V0),
        build_cmpl_system(pl.Index((2, 1)), pl.ArgTuple((T, T + ONE)), V0),
    ]
    for sys_ in weight_systems:
        w = sys_.weight
        ftype = (RatK.zero(CTX3),) * w + (ONE,)   # f = t^w
        cert = mpl_certificate(sys_, w, ftype, [1, 2], prec=30)
        assert cert.ok, (w, cert.failed())
    gamma = RatK(V0.uniformizer()).inv()
    dup = block_sum([build_omega_system(V0), build_omega_system(V0)])
    one = tp_one(CTX3)
    neg = tp_scale(one, -ONE, CTX3)
    assert vabp_certify(dup, gamma, (ONE, -ONE), (one, neg), 30, 30)
    single = build_omega_system(V0)
    assert vabp_certify(single, gamma, (RatK.zero(CTX3),), ((),), 30, 30)
    assert not vabp_certify(single, gamma, (ONE,), (one,), 30, 30)
    _report(10, "f = t^w MPL certificates for weights 1-3, N in {1,2}; "
                "vabp pass/pass/fail as listed")


@pytest.fixture(scope="module")
def shipped_specs():
    import importlib.resources as resources
    specs = {}
    for s in (1, 2, 3):
        path = resources.files("vcarlitz").joinpath(
            f"data/tmodules/tensor_q3_s{s}.txt")
        specs[s] = parse_tmodule_spec(path.read_text())
    return specs
