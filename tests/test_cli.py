"""Golden-output regressions for the command-line surface."""

import importlib.resources as resources

import pytest

from vcarlitz.cli import RunConfig, run_command


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


# -- other subcommands ---------------------------------------------------

def test_eval_mzv_v_weight1_golden(capsys):
    code, out = run(capsys, "eval", "mzv-v", "--index", "1", "--prec", "5")
    assert code == 0
    assert out == "value=2*v^1 + v^2 + v^3 + O(v^5)\nis_zero_to_prec=false\n"


def test_eval_cmspl_at_infinity(capsys):
    code, out = run(capsys, "eval", "cmspl", "--index", "1", "--args", "1",
                    "--place", "inf", "--prec", "8")
    assert code == 0 and out.startswith("value=") and "w^" in out


def test_eval_mzv_inf(capsys):
    code, out = run(capsys, "eval", "mzv-inf", "--index", "2",
                    "--prec", "20")
    assert code == 0
    assert out == "value=1 + w^6 + 2*w^8 + w^12 + 2*w^14 + w^18 + O(w^20)\n"


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


def test_certify_vabp_pass_and_fail(capsys):
    code, out = run(capsys, "certify", "vabp", "--omega-copies", "2",
                    "--gamma", "1/T", "--rho", "1,2", "--pcoeffs", "1;2",
                    "--t-order", "30", "--prec", "30")
    assert code == 0 and out == "certified=true\n"
    code, out = run(capsys, "certify", "vabp", "--omega-copies", "1",
                    "--gamma", "1/T", "--rho", "1", "--pcoeffs", "1",
                    "--t-order", "20", "--prec", "20")
    assert code == 1 and out == "certified=false\n"


def test_relations_find(capsys):
    code, out = run(capsys, "relations", "find", "--value", "1|T^3+T^2",
                    "--value", "1|T", "--deg", "1", "--prec", "40",
                    "--n-recheck", "60")
    assert code == 0
    assert out == ("count=1\n"
                   "relation_0=coeffs=[1, 2*T] residual_ord=70\n")


def test_appendix_subcommands(capsys):
    code, out = run(capsys, "appendix", "count-ball", "--n", "2")
    assert code == 0 and out == "count=27\n"
    code, out = run(capsys, "appendix", "sup-norm", "--coeffs", "1,v^-1",
                    "--radius", "2", "--prec", "20")
    assert code == 0 and out == "norm_exp=3\n"
    code, out = run(capsys, "appendix", "small-solution", "--rows", "1,2",
                    "--c-exp", "2", "--deg-budget", "0")
    assert code == 0 and out == "x_0=1\nx_1=1\n"


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
])
def test_out_of_range_input_exits_2(capsys, argv):
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= " in captured.err


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(p=3, lam=5)
    with pytest.raises(ValueError):
        RunConfig(p=3, output="xml")
    with pytest.raises(ValueError):
        RunConfig(p=3, prec=0)
    with pytest.raises(ValueError):
        RunConfig(p=3, t_order=-1)
