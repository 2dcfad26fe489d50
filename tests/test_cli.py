"""Golden-output regressions for the command-line surface."""

import contextlib
import importlib.resources as resources
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcarlitz
from vcarlitz import diffsys, polylog, relations
from vcarlitz.algebra import FqContext, parse_ratk
from vcarlitz.cli import _COMMANDS, _COMMON, RunConfig, run_command
from vcarlitz.local import LocalNum, PlaceInf

from oracles import parse_local, power_sum_enum


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, out


def data_path(kind, name):
    return str(resources.files("vcarlitz").joinpath(f"data/{kind}/{name}"))


# -- documented examples -------------------------------------------------

def test_eval_cmpl_example(capsys):
    code, out = run(capsys, "eval", "cmpl", "--q", "3", "--lambda", "0",
                    "--index", "1", "--args", "T", "--prec", "4")
    assert code == 0
    assert out == "value=v^1 + v^2 + O(v^4)\n"


def test_verify_omega_example(capsys):
    code, out = run(capsys, "verify", "omega", "--q", "3", "--lambda", "0",
                    "--t-order", "40", "--prec", "40")
    assert code == 0
    assert out == "residual_ord=inf\nstatus=ok\n"


def test_eval_mzv_v_example(capsys):
    code, out = run(capsys, "eval", "mzv-v", "--index", "2", "--q", "3",
                    "--lambda", "0", "--prec", "40")
    assert code == 0
    assert out == "value=O(v^40)\nis_zero_to_prec=true\n"


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("beyond, word", [(0, "false"), (1, "true")])
def test_eval_mzv_v_is_zero_sees_the_last_claimed_digit(
        capsys, monkeypatch, c, beyond, word):
    # zeta(2)_v at q = 3 is zero to prec: c pi^(prec - 1) added to it must
    # print is_zero_to_prec=false, and c pi^prec, past the window, true
    prec = 40
    real = relations.eval_vmzv

    def moved(dec, place, p, tmodules=None):
        val = real(dec, place, p, tmodules=tmodules)
        return val + _digit_at(place, p - 1 + beyond, c, p)

    monkeypatch.setattr("vcarlitz.relations.eval_vmzv", moved)
    code, out = run(capsys, "eval", "mzv-v", "--index", "2", "--q", "3",
                    "--prec", str(prec))
    assert code == 0
    assert out.endswith(f"is_zero_to_prec={word}\n")


# -- other subcommands ---------------------------------------------------

def test_eval_mzv_v_weight1_golden(capsys):
    code, out = run(capsys, "eval", "mzv-v", "--index", "1", "--prec", "5")
    assert code == 0
    assert out == "value=2*v^1 + v^2 + v^3 + O(v^5)\nis_zero_to_prec=false\n"


@pytest.mark.parametrize("q", ["3", "4"])
@pytest.mark.parametrize("index", ["1", "2"])
def test_eval_mzv_v_is_the_same_at_every_lambda(capsys, q, index):
    # T -> T + c fixes every ell_i, so the digits in the uniformizer of the
    # place v cannot depend on lambda
    outs = [run(capsys, "eval", "mzv-v", "--q", q, "--index", index,
                "--lambda", str(lam), "--prec", "20")
            for lam in range(int(q))]
    assert outs[0][0] == 0 and all(out == outs[0] for out in outs)


def test_eval_cmspl_at_infinity(capsys):
    code, out = run(capsys, "eval", "cmspl", "--index", "1", "--args", "1",
                    "--place", "inf", "--prec", "8")
    assert code == 0 and out.startswith("value=") and "w^" in out


def test_eval_mzv_inf(capsys):
    code, out = run(capsys, "eval", "mzv-inf", "--index", "2",
                    "--prec", "20")
    assert code == 0
    assert out == "value=1 + w^6 + 2*w^8 + w^12 + 2*w^14 + w^18 + O(w^20)\n"


def test_eval_mzv_inf_q2_depth3_matches_enumeration(capsys, monkeypatch):
    # at q = 2 the multiplicity enumeration of the power sums blew up here
    code, out = run(capsys, "eval", "mzv-inf", "--q", "2", "--index", "1,1,1",
                    "--prec", "120")
    assert code == 0 and out.startswith("value=")
    place = PlaceInf(FqContext(2))
    got = parse_local(place, out.strip()[len("value="):])
    assert got.cutoff == 120
    monkeypatch.setattr(polylog, "power_sum_inf", power_sum_enum)
    want = polylog.mzv_inf(polylog.Index((1, 1, 1)), place.ctx, 121, prec=40)
    assert want.cutoff == 40 and got.truncate(40) == want


def test_verify_deformation_and_block_system(capsys):
    code, out = run(capsys, "verify", "deformation", "--index", "2,1",
                    "--args", "T,T+1", "--t-order", "30", "--prec", "30")
    assert code == 0 and "status=ok" in out
    code, out = run(capsys, "verify", "system", "--index", "1", "--args", "T",
                    "--index", "2", "--args", "T", "--t-order", "20",
                    "--prec", "20")
    assert code == 0 and "status=ok" in out


def test_verify_specialize(capsys):
    for twist in ("0", "1"):
        code, out = run(capsys, "verify", "specialize", "--index", "2",
                        "--args", "T", "--twist", twist, "--prec", "30")
        assert code == 0 and "status=ok" in out


def _last_compared(prec, nu, q, N, w):
    """The last position of the target at which the specialization check
    reads a digit.

    The target is known to pi^prec from its valuation nu on.  At N = 0 it
    is compared as it is, so up to pi^(prec - 1).  At N >= 1 it is compared
    as target^(q^N), which keeps its prec - nu digits spread q^N apart from
    q^N nu on, with the literal value, known to pi^prec before its shift by
    pi^(N w q^N).  A digit of the target at pi^n lands at pi^(q^N n), so it
    is read while q^N n lies below both cutoffs.
    """
    if N == 0:
        return prec - 1
    Q = q ** N
    return (min(Q * nu + prec - nu, prec + N * w * Q) - 1) // Q


def _digit_at(place, n, c, prec):
    """c pi^n, known to pi^(prec + 1) at least, so adding it keeps a
    window of prec."""
    return LocalNum(place, n, (c,) + (0,) * max(0, prec - n))


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("twist", [0, 1])
@pytest.mark.parametrize("beyond, code_want, word", [(0, 1, "fail"),
                                                     (1, 0, "ok")])
def test_verify_specialize_sees_the_last_compared_digit(
        capsys, monkeypatch, c, twist, beyond, code_want, word):
    # the target is Li_2(T) pitilde^2, pitilde a unit: c pi^n added to
    # Li_2(T) must fail the check at the last position it reads, and pass
    # one position beyond
    prec = 30
    nus = []

    def moved(index, args, place, p):
        val = polylog.cmpl_eval(index, args, place, p)
        nus.append(val.nu)
        n = _last_compared(p, val.nu, place.q, twist, index.weight) + beyond
        return val + _digit_at(place, n, c, p)

    monkeypatch.setattr("vcarlitz.cli.cmpl_eval", moved)
    code, out = run(capsys, "verify", "specialize", "--index", "2",
                    "--args", "T", "--twist", str(twist),
                    "--prec", str(prec))
    assert nus == [1]
    assert code == code_want
    assert out == f"twist={twist}\nstatus={word}\n"


def test_verify_decomposition_file(capsys):
    path = data_path("decompositions", "zeta_q3_s2.txt")
    code, out = run(capsys, "verify", "decomposition", "--file", path,
                    "--prec", "40")
    assert code == 0
    assert out == "certified=true\nprec=40\n"


def test_verify_tmodule_file(capsys):
    path = data_path("tmodules", "tensor_q3_s2.txt")
    code, out = run(capsys, "verify", "tmodule", "--file", path)
    assert code == 0
    assert out.splitlines()[0] == "validated=true"
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("n, code_want, word", [(29, 1, "false"),
                                                (30, 0, "true")])
def test_verify_tmodule_sees_the_last_checked_digit(capsys, monkeypatch, c,
                                                    n, code_want, word):
    # the direct series is compared at prec 30: c v^29 added to it must
    # fail the validation, and c v^30, beyond the checked digits, must not
    precs = set()

    def moved(index, args, place, prec):
        precs.add(prec)
        return (polylog.cmspl_eval(index, args, place, prec)
                + LocalNum(place, n, (c,)))

    monkeypatch.setattr("vcarlitz.tmodule.cmspl_eval", moved)
    path = data_path("tmodules", "tensor_q3_s2.txt")
    code, out = run(capsys, "verify", "tmodule", "--file", path)
    assert precs == {30}
    assert code == code_want
    assert out.splitlines()[0] == f"validated={word}"


@pytest.mark.parametrize("q", ["2", "5"])
@pytest.mark.parametrize("argv", [("verify", "tmodule", "--file"),
                                  ("eval", "mzv-v", "--index", "3",
                                   "--tmodule")])
def test_tmodule_spec_for_another_field_exits_2(capsys, argv, q):
    # a p = 3 spec is refused under --q 2 and --q 5, not read in their field
    path = data_path("tmodules", "tensor_q3_s3.txt")
    code = run_command([*argv, path, "--q", q])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: t-module spec is for a different q\n"


@pytest.mark.parametrize("trust, code_want", [((), 1),
                                              (("--trust-unvalidated",), 0)])
def test_eval_mzv_v_refuses_an_unvalidated_tmodule_unless_trusted(
        capsys, tmp_path, trust, code_want):
    # a corner of B1 zeroed: the spec fails its validation
    with open(data_path("tmodules", "tensor_q3_s2.txt")) as fh:
        text = fh.read()
    path = tmp_path / "broken.txt"
    path.write_text(text.replace("b1-row: 1, 0", "b1-row: 0, 0", 1))
    code = run_command(["eval", "mzv-v", "--index", "2", "--tmodule",
                        str(path), *trust])
    captured = capsys.readouterr()
    assert code == code_want
    assert ("not validated" in captured.err) == (code_want == 1)


def test_verify_tmodule_refuses_n0_that_is_not_nilpotent(capsys, tmp_path):
    with open(data_path("tmodules", "tensor_q3_s3.txt")) as fh:
        text = fh.read()
    path = tmp_path / "not_nilpotent.txt"
    path.write_text(text.replace("n0-row: 0 1 0", "n0-row: 1 1 0", 1))
    code = run_command(["verify", "tmodule", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: N0 is not nilpotent\n"


def test_eval_mzv_v_from_shipped_decomposition(capsys):
    path = data_path("decompositions", "zeta_q3_s2.txt")
    code, out = run(capsys, "eval", "mzv-v", "--index", "2",
                    "--decomposition", path, "--prec", "40")
    assert code == 0
    assert out == "value=O(v^40)\nis_zero_to_prec=true\n"


def test_certify_mpl(capsys):
    code, out = run(capsys, "certify", "mpl", "--index", "1", "--args", "T",
                    "--n-list", "1,2", "--prec", "30")
    assert code == 0
    assert out == ("ok=true\nweight=1\ncondition_1=pass\ncondition_2=pass\n"
                   "condition_3=pass\ncondition_4=pass\n")


def test_certify_mpl_checks_to_prec_30(capsys, monkeypatch):
    # at the default --prec 40 the certificate is computed and compared at 30
    precs = set()

    def spy(index, args, place, prec):
        precs.add(prec)
        return polylog.cmpl_eval(index, args, place, prec)

    monkeypatch.setattr("vcarlitz.diffsys.cmpl_eval", spy)
    code, out = run(capsys, "certify", "mpl", "--index", "1", "--args", "T",
                    "--n-list", "1,2")
    assert precs == {30}
    assert code == 0 and out.startswith("ok=true\n")


def test_certify_mpl_compares_two_independent_routes(capsys, monkeypatch):
    # conditions (3) and (4) compare the chain sum with the literal value
    # of the deformation series, which has its own product route: chain
    # sums that skip the division by the ratio ell_1 / ell_0 in the first
    # slot (m = q - 1, S_1 = 2) must fail condition (3), with
    # deformation_specialize untouched; a specialization routed through
    # the same recursion would skip it too and pass
    divide, skipped = polylog.geometric_divide, []

    def skip_one_ratio(x, m, S=1):
        if (m, S) == (2, 2):
            skipped.append(x)
            return x
        return divide(x, m, S)

    monkeypatch.setattr(polylog, "geometric_divide", skip_one_ratio)
    code, out = run(capsys, "certify", "mpl", "--index", "2,1",
                    "--args", "T,T+1")
    assert skipped
    assert code == 1 and "condition_3=fail\n" in out


def _mpl(capsys, n_list):
    code, out = run(capsys, "certify", "mpl", "--index", "1", "--args", "T",
                    "--n-list", n_list, "--prec", "30")
    return code, dict(line.split("=") for line in out.splitlines())


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("beyond, code_want, word", [(0, 1, "fail"),
                                                     (1, 0, "pass")])
def test_certify_mpl_condition3_sees_the_last_compared_digit(
        capsys, monkeypatch, c, beyond, code_want, word):
    # condition (3) compares psi(alpha^(-1)) with c Z pitilde^w at prec 30
    def moved(index, args, place, p):
        val = polylog.cmpl_eval(index, args, place, p)
        n = _last_compared(p, val.nu, place.q, 0, index.weight) + beyond
        return val + _digit_at(place, n, c, p)

    monkeypatch.setattr("vcarlitz.diffsys.cmpl_eval", moved)
    code, rec = _mpl(capsys, "1,2")
    assert code == code_want
    assert rec["condition_3"] == word and rec["condition_4"] == "pass"


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("beyond, code_want, word", [(0, 1, "fail"),
                                                     (1, 0, "pass")])
def test_certify_mpl_condition4_sees_the_last_compared_digit(
        capsys, monkeypatch, c, N, beyond, code_want, word):
    # condition (4) compares the q^N-th power of the target of (3); only
    # that comparison sees the moved target
    real = diffsys._specialization_holds
    seen = []

    def moved(sys_, k, prec, target):
        if k:
            seen.append(k)
            n = _last_compared(prec, target.nu, sys_.place.q, k,
                               sys_.weight) + beyond
            target = target + _digit_at(sys_.place, n, c, prec)
        return real(sys_, k, prec, target)

    monkeypatch.setattr("vcarlitz.diffsys._specialization_holds", moved)
    code, rec = _mpl(capsys, str(N))
    assert seen == [N]
    assert code == code_want
    assert rec["condition_3"] == "pass" and rec["condition_4"] == word


def test_certify_vabp_pass_and_fail(capsys):
    code, out = run(capsys, "certify", "vabp", "--omega-copies", "2",
                    "--gamma", "1/T", "--rho", "1,2", "--pcoeffs", "1;2",
                    "--t-order", "30", "--prec", "30")
    assert code == 0 and out == "certified=true\n"
    code, out = run(capsys, "certify", "vabp", "--omega-copies", "1",
                    "--gamma", "1/T", "--rho", "1", "--pcoeffs", "1",
                    "--t-order", "20", "--prec", "20")
    assert code == 1 and out == "certified=false\n"
    # a 12 x 12 block sum: Omega^3 + 2 Omega^3 = 0 in characteristic 3
    blocks = []
    for args in ("T,T,T", "T^2,T,T+1", "T,T^2,T"):
        blocks += ["--index", "1,1,1", "--args", args]
    P = "1;0;0;0;2;0;0;0;0;0;0;0"
    code, out = run(capsys, "certify", "vabp", *blocks, "--gamma", "1/T",
                    "--rho", P.replace(";", ","), "--pcoeffs", P)
    assert code == 0 and out == "certified=true\n"
    code, out = run(capsys, "certify", "vabp", *blocks, "--gamma", "1/T",
                    "--rho", "1,0,0,0,1,0,0,0,0,0,0,0", "--pcoeffs", P)
    assert code == 1 and out == "certified=false\n"


@pytest.mark.parametrize("k,code_want,word", [(28, 1, "false"),
                                               (29, 0, "true")])
def test_certify_vabp_at_the_last_claimed_digit(capsys, k, code_want, word):
    # two copies of the CMPL system of (1; T): rows 1 and 3 are the same
    # deformation series, of ord 1, so (1 + T^k) psi_1 - psi_3 has ord
    # k + 1; at --prec 30, k = 28 reaches the last claimed digit and must
    # be refused, k = 29 lies past it.  rho = P(1/T), so only the series
    # check decides
    P = f"0;T^{k}+1;0;2"
    code, out = run(capsys, "certify", "vabp", *["--index", "1", "--args",
                                                 "T"] * 2,
                    "--gamma", "1/T", "--rho", P.replace(";", ","),
                    "--pcoeffs", P, "--t-order", "30", "--prec", "30")
    assert (code, out) == (code_want, f"certified={word}\n")


@pytest.mark.parametrize("pairs", [
    ["--index", "1"],                                    # an extra --index
    ["--args", "T"],                                     # an extra --args
    ["--index", "1", "--args", "T", "--index", "2"],
    ["--index", "1", "--args", "T", "--args", "T^2"],
])
def test_certify_vabp_unmatched_index_or_args_exits_2(capsys, pairs):
    # on the omega block alone the certificate below holds, so dropping the
    # unmatched flag used to print certified=true
    argv = ["certify", "vabp", "--omega-copies", "1", *pairs, "--gamma", "T",
            "--rho", "0", "--pcoeffs", "0"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: each --index needs a matching --args\n"


def test_relations_find(capsys):
    code, out = run(capsys, "relations", "find", "--value", "1|T^3+T^2",
                    "--value", "1|T", "--deg", "1", "--prec", "40",
                    "--n-recheck", "60")
    assert code == 0
    assert out == ("count=1\n"
                   "relation_0=coeffs=[1, 2*T] residual_ord=70\n")


@pytest.mark.parametrize("at, count", [(59, 0), (60, 1)])
def test_relations_find_recheck_drops_a_relation_off_in_its_last_digit(
        capsys, monkeypatch, at, count):
    # negative control of the recheck through the CLI: a digit added to
    # the first value at pi^(n_recheck - 1) drops Li_1(T^3 + T^2) =
    # theta Li_1(T); at pi^(n_recheck) it is past the recheck and the
    # relation stays
    def moved(index, args, place, prec):
        val = polylog.cmspl_eval(index, args, place, prec)
        if args[0] == parse_ratk(place.ctx, "T^3+T^2"):
            val = val + LocalNum(place, at, (1,))
        return val

    monkeypatch.setattr("vcarlitz.cli.cmspl_eval", moved)
    code, out = run(capsys, "relations", "find", "--value", "1|T^3+T^2",
                    "--value", "1|T", "--deg", "1", "--prec", "40",
                    "--n-recheck", "60")
    assert code == 0
    assert out.splitlines()[0] == f"count={count}"
    assert len(out.splitlines()) == 1 + count


def test_appendix_subcommands(capsys):
    code, out = run(capsys, "appendix", "count-ball", "--n", "2")
    assert code == 0 and out == "count=27\n"
    code, out = run(capsys, "appendix", "sup-norm", "--coeffs", "1,v^-1",
                    "--radius", "2", "--prec", "20")
    assert code == 0 and out == "norm_exp=3\n"
    code, out = run(capsys, "appendix", "small-solution", "--rows", "1,2",
                    "--c-exp", "2", "--deg-budget", "0")
    assert code == 0 and out == "x_0=1\nx_1=1\n"


def test_appendix_reads_and_prints_bracket_coefficients(capsys):
    # at q = 4 an R_v coefficient outside F_2 is written [x], as for PolyA
    code, out = run(capsys, "appendix", "sup-norm", "--q", "4", "--coeffs",
                    "1,[x]*v^-1", "--radius", "1")
    assert code == 0 and out == "norm_exp=2\n"
    code, out = run(capsys, "appendix", "small-solution", "--q", "4",
                    "--rows", "1,[x]*v^-1", "--c-exp", "2",
                    "--deg-budget", "1")
    assert code == 0 and out == "x_0=[x]*v^-1 ; 0\nx_1=1 ; 0\n"


# -- modes and errors ----------------------------------------------------

def test_human_output_mode(capsys):
    code, out = run(capsys, "eval", "cmpl", "--index", "1", "--args", "T",
                    "--prec", "4", "--output", "human")
    assert code == 0 and out == "value: v^1 + v^2 + O(v^4)\n"


def test_refinement_is_consistent(capsys):
    _, low = run(capsys, "eval", "cmpl", "--index", "1", "--args", "T",
                 "--prec", "6")
    _, high = run(capsys, "eval", "cmpl", "--index", "1", "--args", "T",
                  "--prec", "12")
    assert high.startswith(low.split("O(")[0])


def test_usage_errors_exit_2(capsys):
    assert run_command(["eval", "cmpl", "--index", "1"]) == 2
    assert run_command(["frobnicate"]) == 2
    assert run_command(["eval", "cmpl", "--index", "1", "--args", "T",
                        "--q", "6"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    assert run_command(["verify", "decomposition", "--file",
                        "/nonexistent.txt"]) == 2
    capsys.readouterr()


def test_verification_failure_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p: 3\ne: 1\ntarget: 2\nterm: 1 | 2 | T\n")
    code, out = run(capsys, "verify", "decomposition", "--file", str(bad),
                    "--prec", "30")
    assert code == 1 and "certified=false" in out


@pytest.mark.parametrize("k, code_want, out_want", [
    (29, 1, "certified=false\nresidual_ord=29\n"),
    (30, 0, "certified=true\nprec=30\n"),
])
def test_verify_decomposition_sees_the_last_claimed_digit(
        capsys, tmp_path, k, code_want, out_want):
    # the shipped zeta(2) = Li*_2(1) with its coefficient moved by
    # theta^-k: at --prec 30 the digit theta^-29 is the last one checked
    moved = tmp_path / "moved.txt"
    moved.write_text(
        f"p: 3\ne: 1\ntarget: 2\nterm: (T^{k}+1)/T^{k} | 2 | 1\n")
    code, out = run(capsys, "verify", "decomposition", "--file", str(moved),
                    "--prec", "30")
    assert (code, out) == (code_want, out_want)


# zeta(1) = T * Li*_1(1) is false, whatever the file claims
FORGED = "p: 3\ne: 1\ntarget: 1\nterm: T | 1 | 1\ncertified: true\nprec: 60\n"


def test_forged_certification_is_rechecked(capsys, tmp_path):
    forged = tmp_path / "forged.txt"
    forged.write_text(FORGED)
    code, out = run(capsys, "eval", "mzv-v", "--index", "1",
                    "--decomposition", str(forged))
    assert code == 1 and out == ""
    code, out = run(capsys, "verify", "decomposition", "--file", str(forged))
    assert code == 1 and "certified=false" in out


@pytest.mark.parametrize("argv", [
    ["eval", "cmpl", "--index", "1", "--args", "T", "--prec", "-5"],
    ["eval", "cmpl", "--index", "1", "--args", "T", "--prec", "0"],
    ["verify", "omega", "--t-order", "0"],
    ["verify", "omega", "--t-order", "-1"],
    ["verify", "omega", "--prec", "0"],
    ["eval", "mzv-v", "--index", "1", "--cert-prec", "0"],
    ["relations", "find", "--value", "1|T", "--value", "2|T", "--deg", "-1"],
    # the 12 x 12 block sum of test_certify_vabp_pass_and_fail, which
    # certifies when the negative count is read as zero copies
    ["certify", "vabp", *[arg for args in ("T,T,T", "T^2,T,T+1", "T,T^2,T")
                          for arg in ("--index", "1,1,1", "--args", args)],
     "--gamma", "1/T", "--rho", "1,0,0,0,2,0,0,0,0,0,0,0",
     "--pcoeffs", "1;0;0;0;2;0;0;0;0;0;0;0", "--omega-copies", "-1"],
    ["appendix", "small-solution", "--rows", "1,2", "--c-exp", "2",
     "--deg-budget", "-5"],
])
def test_out_of_range_input_exits_2(capsys, argv):
    # the last option is the one out of range, and the error names it
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[-2][2:]} must be >= ")


def test_verify_specialize_negative_twist_exits_2(capsys):
    argv = ["verify", "specialize", "--index", "1", "--args", "T",
            "--twist", "-1"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: power index must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ["verify", "specialize", "--index", "1", "--args", "T", "--twist", "40"],
    ["certify", "mpl", "--index", "1", "--args", "T", "--n-list", "40"],
])
def test_twist_past_the_window_budget_exits_2(capsys, argv):
    # psi(alpha^(-3^40)) needs a window of about 40 * 3^40 digits: it is
    # refused before any is allocated, with one error line
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a window of ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,named", [
    (["eval", "cmpl", "--index", "1", "--args", "T^"], "bad term 'T^'"),
    (["eval", "cmpl", "--index", "1", "--args", "xT"], "bad coefficient 'x'"),
    (["eval", "cmpl", "--index", "1", "--args", "T^-1"], "bad term 'T^-1'"),
    (["certify", "mpl", "--index", "1", "--args", "T", "--n-list", "a"],
     "--n-list 'a'"),
    (["appendix", "sup-norm", "--coeffs", "1,y*v^-1", "--radius", "2"],
     "bad term 'y*v^-1'"),
    (["appendix", "small-solution", "--rows", "1,y", "--c-exp", "0"],
     "bad term 'y'"),
    (["appendix", "sup-norm", "--coeffs", "1,v^--1", "--radius", "1"],
     "bad power in term 'v^--1'"),
    (["appendix", "small-solution", "--rows", "1,v^--1", "--c-exp", "2"],
     "bad power in term 'v^--1'"),
    (["eval", "cmpl", "--index", "1", "--args", "1/T+1"],
     "a sum over '/' needs parentheses in '1/T+1'"),
    (["eval", "cmpl", "--index", "1", "--args", "((T+1"],
     "unbalanced or nested parentheses in '((T+1'"),
    (["certify", "vabp", "--omega-copies", "1", "--gamma", "T+1)", "--rho",
      "0", "--pcoeffs", "0"], "unbalanced or nested parentheses in 'T+1)'"),
])
def test_parse_errors_name_the_input(capsys, argv, named):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(p=3, lam=5)
    with pytest.raises(ValueError):
        RunConfig(p=3, output="xml")
    with pytest.raises(ValueError):
        RunConfig(p=3, prec=0)
    with pytest.raises(ValueError):
        RunConfig(p=3, t_order=-1)


# -- help, usage and errors, and process start-up -------------------------

with open(os.path.join(os.path.dirname(__file__), "data",
                       "cli_golden.json")) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.skipif(tuple(GOLDEN["python"]) != sys.version_info[:2],
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda c: " ".join(c["argv"]) or "(none)")
def test_help_usage_and_errors_are_unchanged(case, monkeypatch):
    # captured from the parser that built every leaf's arguments up front
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(case["argv"])
    assert (out.getvalue(), err.getvalue(), code) == \
        (case["stdout"], case["stderr"], case["exit"])


SRC = os.path.dirname(os.path.dirname(os.path.abspath(vcarlitz.__file__)))


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("module", ["vcarlitz", "vcarlitz.cli"])
def test_python_m_runs_the_command(module):
    proc = _python("-m", module, "verify", "omega", "--t-order", "8",
                   "--prec", "8")
    assert (proc.stdout, proc.returncode) == \
        ("residual_ord=inf\nstatus=ok\n", 0)


_LOADS = """
import json, sys
before = set(sys.modules)
from vcarlitz.cli import run_command
code = run_command(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
_BASE = {"algebra", "cli", "errors", "local", "polylog"}
_DIFFSYS = _BASE | {"diffsys", "tseries"}
_CHEAP = ["--prec", "4", "--t-order", "4"]


# one run of every leaf, with the modules it loads
LEAF_RUNS = [
    (["eval", "cmpl", "--index", "1", "--args", "T"], _BASE),
    (["eval", "cmspl", "--index", "1", "--args", "1", "--place", "inf"],
     _BASE),
    (["eval", "mzv-inf", "--index", "2,1"], _BASE),
    (["eval", "mzv-v", "--index", "2"],
     _BASE | {"relations", "linalg", "tmodule"}),
    (["verify", "omega"], _DIFFSYS),
    (["verify", "deformation", "--index", "1", "--args", "T"], _DIFFSYS),
    (["verify", "system", "--index", "1", "--args", "T"], _DIFFSYS),
    (["verify", "specialize", "--index", "1", "--args", "T"], _DIFFSYS),
    (["verify", "decomposition", "--file",
      data_path("decompositions", "zeta_q3_s1.txt")],
     _BASE | {"relations", "linalg"}),
    (["verify", "tmodule", "--file", data_path("tmodules", "tensor_q3_s1.txt")],
     _BASE | {"tmodule", "linalg"}),
    (["certify", "mpl", "--index", "1", "--args", "T"], _DIFFSYS),
    (["certify", "vabp", "--omega-copies", "1", "--gamma", "1/T", "--rho", "1",
      "--pcoeffs", "1"], _DIFFSYS),
    (["relations", "find", "--value", "1|T", "--n-recheck", "8"],
     _BASE | {"relations", "linalg"}),
    (["appendix", "count-ball", "--n", "1"], _BASE | {"abp", "linalg"}),
    (["appendix", "sup-norm", "--coeffs", "1", "--radius", "1"],
     _BASE | {"abp", "linalg"}),
    (["appendix", "small-solution", "--rows", "1,2", "--c-exp", "2"],
     _BASE | {"abp", "linalg"}),
]


@pytest.mark.parametrize("argv, loaded", LEAF_RUNS)
def test_a_process_loads_only_what_its_subcommand_runs(argv, loaded):
    proc = _python("-c", _LOADS, *argv, *_CHEAP)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 1), proc.stderr
    assert {m[len("vcarlitz."):] for m in modules
            if m.startswith("vcarlitz.")} == loaded
    assert "fractions" not in modules


# -- every leaf, in both output modes and under fuzzed argv ---------------

LEAVES = sorted((group, leaf) for group, (_help, leaves) in _COMMANDS.items()
                for leaf in leaves)


def test_leaf_runs_name_every_leaf_once():
    assert sorted(tuple(argv[:2]) for argv, _loaded in LEAF_RUNS) == LEAVES


@pytest.mark.parametrize("argv", [argv for argv, _loaded in LEAF_RUNS],
                         ids=lambda argv: " ".join(argv[:2]))
def test_every_leaf_prints_its_records_in_both_modes(capsys, argv):
    code, machine = run(capsys, *argv, *_CHEAP)
    human_code, human = run(capsys, *argv, *_CHEAP, "--output", "human")
    assert machine and human_code == code
    assert human == "".join(line.replace("=", ": ", 1)
                            for line in machine.splitlines(True))


@pytest.mark.parametrize("q, message", [
    *[(q, f"q = {q} is not a prime power") for q in (-3, 0, 1, 6, 1025)],
    (2048, "field size beyond desk scale"),
    (49, "no default modulus for q = 7^2"),
])
def test_q_that_is_not_a_field_exits_2(capsys, q, message):
    assert run_command(["verify", "omega", f"--q={q}", *_CHEAP]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _mostly(valid, invalid):
    """valid 19 draws in 20, invalid the 20th."""
    return st.integers(0, 19).flatmap(lambda k: valid if k else invalid)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _joined(values, n, sep=","):
    return st.lists(values, min_size=n, max_size=n).map(sep.join)


_INDEX_VALUES = st.sampled_from(["1", "2", "3", "1,1", "2,1", "1,2", "1,1,1"])
_ARG_VALUES = st.sampled_from(["T", "T+1", "T^2+T", "1"])
_K_VALUES = st.sampled_from(["0", "1", "2", "T", "1/T", "T+1"])
_RV_VALUES = st.sampled_from(["1", "2", "v^-1", "1+v^-1", "[x]*v^-1"])
_DECOMPOSITIONS, _TMODULES = (
    sorted(str(path) for path in
           resources.files("vcarlitz").joinpath("data", kind).iterdir())
    for kind in ("decompositions", "tmodules"))


def _args_for(index):
    """args of the depth of index; one time in 20 'T^' or another depth."""
    depth = index.count(",") + 1
    return _mostly(_joined(_ARG_VALUES, depth), st.one_of(
        st.just("T^"), _joined(_ARG_VALUES, depth % 3 + 1)))


def _args_pool(drawn):
    # the i-th --args goes with the i-th --index, when there is one
    indices, i = drawn.get("--index", []), len(drawn.get("--args", []))
    return _args_for(indices[i]) if i < len(indices) else \
        _INDEX_VALUES.flatmap(_args_for)


def _matrix(rows, cols):
    """rows x cols over R_v[t]: each entry one or two t-coefficients."""
    entry = st.integers(1, 2).flatmap(lambda n: _joined(_RV_VALUES, n, ";"))
    return _joined(_joined(entry, cols), rows, "/")


def _system_size(drawn):
    return int(drawn.get("--omega-copies", ["0"])[0]) + sum(
        index.count(",") + 2 for index in drawn.get("--index", []))


def _q(drawn):
    return int(drawn["--q"][0])


# flag -> the pool of its values, given the values drawn for the flags
# before it (the argv order of _COMMON and then the leaf's arguments)
POOLS = {
    # q = 3 twice, the field of the shipped files; lambda = 0 half the
    # time, where T and T^2+T lie in the domain of the v-adic series
    "--q": lambda d: _mostly(st.sampled_from(["2", "3", "3", "4", "5", "9"]),
                             st.just("6")),
    "--lambda": lambda d: _mostly(st.one_of(st.just("0"), _ints(0, _q(d) - 1)),
                                  st.just(str(_q(d)))),
    "--prec": lambda d: _mostly(_ints(1, 12), st.just("0")),
    "--t-order": lambda d: _ints(1, 12),
    "--output": lambda d: st.sampled_from(["machine", "human"]),
    "--index": lambda d: _INDEX_VALUES,
    "--args": _args_pool,
    "--place": lambda d: st.sampled_from(["v", "inf"]),
    "--decomposition": lambda d: st.sampled_from(_DECOMPOSITIONS),
    "--tmodule": lambda d: st.sampled_from(_TMODULES),
    "--cert-prec": lambda d: _ints(1, 12),
    "--twist": lambda d: _ints(0, 2),
    "--file": lambda d: st.sampled_from(_DECOMPOSITIONS + _TMODULES),
    "--ftype": lambda d: st.integers(1, 4).flatmap(
        lambda n: _joined(_K_VALUES, n)),
    "--n-list": lambda d: st.sampled_from(["1,2", "1", "2", "0,1"]),
    "--omega-copies": lambda d: _ints(0, 2),
    "--gamma": lambda d: _K_VALUES,
    "--rho": lambda d: _joined(_K_VALUES, _system_size(d)),
    "--pcoeffs": lambda d: _joined(
        st.sampled_from(["0", "0", "1", "T,1"]), _system_size(d), ";"),
    "--value": lambda d: _INDEX_VALUES.flatmap(
        lambda i: _args_for(i).map(lambda a: f"{i}|{a}")),
    "--deg": lambda d: _ints(0, 2),
    "--n-recheck": lambda d: _ints(int(d["--prec"][0]) + 1,
                                   int(d["--prec"][0]) + 8),
    "--n": lambda d: _ints(0, 3),
    "--coeffs": lambda d: st.integers(1, 3).flatmap(
        lambda n: _joined(_RV_VALUES, n)),
    "--radius": lambda d: _ints(0, 3),
    "--rows": lambda d: st.integers(1, 2).flatmap(lambda r: _matrix(r, r + 1)),
    "--c-exp": lambda d: _ints(0, 3),
    "--deg-budget": lambda d: _ints(0, 2),
}


@st.composite
def leaf_argvs(draw):
    """A leaf of _COMMANDS and a value from its pool for each of its flags
    and _COMMON's: always for a flag with a default or required, one to
    two times an appended one (as many --args as --index, mostly), and on
    a coin otherwise."""
    group, leaf = draw(st.sampled_from(LEAVES))
    argv, drawn = [group, leaf], {}
    for flag, kw in _COMMON + _COMMANDS[group][1][leaf][1]:
        if kw.get("action") == "store_true":
            argv += [flag] * draw(st.booleans())
            continue
        if flag == "--args" and kw.get("action") == "append":
            count = draw(_mostly(st.just(len(drawn.get("--index", []))),
                                 st.integers(0, 2)))
        elif kw.get("action") == "append":
            count = draw(st.integers(int(bool(kw.get("required"))), 2))
        elif kw.get("required") or kw.get("default") is not None:
            count = 1
        else:
            count = draw(st.integers(0, 1))
        for _ in range(count):
            value = draw(POOLS[flag](drawn))
            drawn.setdefault(flag, []).append(value)
            argv += [flag, value]
    return argv


@given(leaf_argvs())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2_with_clean_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    out, err = out.getvalue(), err.getvalue()
    sep = ": " if "human" in argv else "="
    records = out != "" and all(re.fullmatch(f"[a-z][a-z0-9_]*{sep}.*", line)
                                for line in out.splitlines())
    one_error = out == "" and err.startswith("error: ") \
        and err.count("\n") == 1
    assert code in (0, 1, 2)
    if code == 0:
        assert err == "" and records
    elif code == 1:
        assert (err == "" and records) or one_error
    else:
        assert out == "" and "error: " in err.splitlines()[-1]
