import csv
import inspect
import json
from math import isnan

import pytest

import eqtor.ellcore as ellcore
import eqtor.fock01 as fock01
from eqtor import cli, relcheck
from eqtor.boson import BosonAlgebra
from eqtor.cli import main, parse_complex
from eqtor.ellcore import PoleProximityError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("0.5,-0.25") == 0.5 - 0.25j


def test_act_vacuum_row(capsys):
    code, out, _ = run(capsys, "act", "--rep", "fock", "--gen", "x+", "--color", "0",
                       "--partition", "", "--N", "3", "--k", "0", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["result"] == "1"
    # support is the spectral parameter itself
    assert abs(complex(*rows[0]["support"]) - 1.3 * complex(0.99500417, 0.09983342) * 1.0) < 1e-6


def test_act_empty_table(capsys):
    code, out, _ = run(capsys, "act", "--gen", "x-", "--partition", "", "--N", "3")
    assert code == 0
    assert "empty" in out


def test_act_phi_factor_list(capsys):
    code, out, _ = run(capsys, "act", "--gen", "phi", "--partition", "2,1", "--N", "3",
                       "--json")
    assert code == 0
    rows = json.loads(out)
    assert any("theta_numer" in row for row in rows)


def test_act_bad_partition(capsys):
    code, _, err = run(capsys, "act", "--gen", "x+", "--partition", "1,2", "--N", "3")
    assert code == 2
    assert "error" in err


def test_expand_theta_zero(capsys):
    code, out, _ = run(capsys, "expand", "theta", "--z", "1,0")
    assert code == 0
    assert out.strip().startswith("+0")


def test_expand_theta_at_zero_is_a_usage_error(capsys):
    code, out, err = run(capsys, "expand", "theta", "--z", "0")
    assert code == 2 and out == ""
    assert "nonzero" in err


@pytest.mark.parametrize("argv", [
    ("--color", "5", "--N", "3"),
    ("--color", "-1", "--N", "3"),
    ("--rep", "vector", "--color", "7", "--N", "3"),
], ids=["fock_high", "fock_negative", "vector_high"])
def test_act_rejects_color_out_of_range(capsys, argv):
    # used to die with an IndexError, or to print "(empty)" with exit 0
    code, out, err = run(capsys, "act", "--gen", "x+", *argv)
    assert code == 2 and out == ""
    assert "--color" in err


def test_expand_gkernel_check(capsys):
    code, out, _ = run(capsys, "expand", "gkernel", "--b", "2", "--check")
    assert code == 0
    assert "series" in out and "pochhammer" in out


def test_expand_pf(capsys):
    code, out, _ = run(capsys, "expand", "pf", "--n", "3", "--samples", "5")
    assert code == 0
    assert "max residual" in out
    # every sampled (a, b) pair is tried at ten t points, each compared or skipped
    compared, skipped = (int(out.split(word)[0].split()[-1])
                         for word in (" balanced instances compared", " skipped near a pole"))
    assert compared > 0 and compared + skipped == 5 * 10
    residual = float(out.strip().rsplit(" ", 1)[-1])
    assert residual < 1e-9


@pytest.mark.parametrize("argv", [("--n", "0"), ("--samples", "0")], ids=["n", "samples"])
def test_expand_pf_rejects_bad_sizes(capsys, argv):
    # used to print a residual of 0 over nothing and exit 0
    code, out, err = run(capsys, "expand", "pf", *argv)
    assert code == 2 and out == ""
    assert ">= 1" in err


def test_expand_pf_fails_when_nothing_is_compared(capsys, monkeypatch):
    def near_pole(*args, **kwargs):
        raise PoleProximityError("t collides with a pole")
    monkeypatch.setattr(cli, "pf_expand", near_pole)
    code, out, err = run(capsys, "expand", "pf", "--n", "2", "--samples", "2")
    assert code == 1 and out == ""
    assert "nothing was compared" in err


def test_verify_bad_parameter_regime(capsys):
    code, _, err = run(capsys, "verify", "fock", "--p", "0.95")
    assert code == 2
    assert "admissible" in err


# a nome whose 40-factor Pochhammer tail shows in double precision: |p| = 0.656,
# where xpxp read 9.3e-8 from the tail, and p = q^4 at the default q
LARGE_NOMES = ("0.5757,0.3145", "{0.real!r},{0.imag!r}".format(ellcore.Params().q ** 4))


@pytest.mark.parametrize("nome", LARGE_NOMES)
def test_verify_rejects_a_visible_truncation_tail(nome, capsys):
    # at the default --terms the point exits 2 and names the flag that fixes it;
    # with enough terms the same point passes every report
    argv = ("verify", "fock", "--N", "3", "--max-size", "3", "--p", nome)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--terms" in err and "Pochhammer tail" in err
    code, _, _ = run(capsys, *argv, "--terms", "120")
    assert code == 0


def test_expand_qpoch_bounds_the_tail_of_the_nome_it_reads(capsys):
    # --s replaces p: 0.01^10 = 1e-20 is far below the double-precision epsilon,
    # though the default p = 0.05 at 10 terms is not
    code, out, _ = run(capsys, "expand", "qpoch", "--z", "0.5", "--s", "0.01", "--terms", "10")
    assert code == 0
    assert out.strip() == cli.fmt_complex(ellcore.qpoch(0.5, 0.01, 10))
    code, out, err = run(capsys, "expand", "qpoch", "--z", "0.5", "--terms", "10")
    assert (code, out) == (2, "")
    assert "|p|^10" in err and "--terms 13" in err


def test_expand_gkernel_bounds_the_tail_of_s(capsys):
    # at 40 factors in s = 0.6 the kernel is off by 7.5e-10 against 400 factors: exit 2;
    # 80 factors agree with 400 to the printed digits
    argv = ("expand", "gkernel", "--z", "0.5", "--s", "0.6", "--b", "1")
    code, out, err = run(capsys, *argv, "--terms", "40")
    assert (code, out) == (2, "")
    assert "|s|^40" in err and "--terms 71" in err
    code, out, _ = run(capsys, *argv, "--terms", "80")
    assert code == 0
    _, exact, _ = run(capsys, *argv, "--terms", "400")
    assert out == exact


@pytest.mark.parametrize("argv, code", [
    (("ratio", "--p", "0.5"), 0), (("ratio", "--s", "0.9", "--terms", "2"), 0),
    (("theta", "--p", "0.5"), 2), (("theta", "--p", "0.5", "--terms", "53"), 0),
    (("pf", "--p", "0.5", "--n", "2", "--samples", "2"), 2)],
    ids=["ratio_p", "ratio_s", "theta", "theta_terms", "pf"])
def test_expand_bound_reads_the_nome_of_each_function(capsys, argv, code):
    # ratio is an exact series and has no bound; theta and pf keep the bound on p
    # (0.5^52 is the double-precision epsilon itself, so 53 terms are the least)
    got, out, err = run(capsys, "expand", *argv)
    assert got == code
    assert ("--terms 53" in err) == (code == 2)


@pytest.mark.parametrize("argv, needle", [
    (("ratio", "--p", "1.5"), "|p|=1.5"), (("ratio", "--p", "nan"), "p must be finite"),
    (("ratio", "--s", "1.5", "--order", "2"), "|s| < 1"), (("ratio", "--s", "nan"), "|s| < 1"),
    (("gkernel", "--s", "1.5"), "|s| < 1"),
    (("qpoch", "--s", "0.01", "--terms", "10", "--kappa", "1,0"), "degenerate"),
    (("ratio", "--s", "0.1", "--tol", "nan"), "tol must be finite")],
    ids=["ratio_p_out", "ratio_p_nan", "ratio_s_out", "ratio_s_nan", "gkernel_s_out",
         "qpoch_kappa", "ratio_tol"])
def test_expand_checks_the_nome_and_the_point(capsys, argv, needle):
    # off the unit disc (a --s 1.5 ratio printed c[1] = -0.6) the product does not
    # converge; and the point is checked as every command checks it, read or not,
    # also where p's truncation bound, which qpoch with --s sets aside, fails
    code, out, err = run(capsys, "expand", *argv)
    assert (code, out) == (2, "")
    assert needle in err


def test_verify_fock_small(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "fock", "--N", "3", "--k", "0",
                       "--max-size", "2", "--json", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data) == 13
    assert all(r["status"] == "pass" for r in data)


def test_verify_determinism(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "fock", "--N", "3", "--max-size", "2",
                         "--json", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"p": [0.02, 0.004], "seed": 5}))
    code, out, _ = run(capsys, "act", "--rep", "fock", "--gen", "x+", "--color", "0",
                       "--partition", "", "--config", str(cfgfile), "--json")
    assert code == 0


def test_report_csv(capsys, tmp_path):
    src = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", "fock", "--N", "3", "--max-size", "2",
                     "--json", "--output", str(src))
    assert code == 0
    csv_path = tmp_path / "r.csv"
    code, out, _ = run(capsys, "report", str(src), "--output", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "relation_id,rep,samples,skipped,max_residual,status"
    assert len(lines) == 14
    assert "13/13 relations pass" in out


@pytest.mark.parametrize("suite", [
    ("heisenberg", "--degree", "1", "--window", "2"),
    ("level1", "--degree", "1", "--window", "1"),
], ids=["heisenberg", "level1"])
def test_report_csv_quotes_fields(capsys, tmp_path, suite):
    # their rep field holds a comma, e.g. "heisenberg(A2, k=1)"
    src = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", *suite, "--json", "--output", str(src))
    assert code == 0
    csv_path = tmp_path / "r.csv"
    assert run(capsys, "report", str(src), "--output", str(csv_path))[0] == 0
    reports = json.loads(src.read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["relation_id", "rep", "samples", "skipped", "max_residual", "status"]
    assert len(rows) == len(reports) + 1
    for row, rpt in zip(rows[1:], reports):
        assert len(row) == 6
        assert (row[0], row[1], row[5]) == (rpt["relation_id"], rpt["rep"], rpt["status"])
        assert "," in row[1]


def test_usage_error_exit_code():
    assert main(["verify"]) == 2
    assert main(["nonsense"]) == 2
    # argparse choices alone reject an unknown generator, rep or function
    assert main(["act", "--gen", "y+"]) == 2
    assert main(["act", "--gen", "x+", "--rep", "boson"]) == 2
    assert main(["expand", "sine"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "config_inf"])
def test_verify_rejects_a_non_finite_tol(capsys, tmp_path, tol):
    # --tol nan failed every relation with exit 1; --tol inf, or Infinity in a
    # config, passed every one with exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": Infinity}')
    argv = ("--config", str(cfg)) if tol == "config_inf" else ("--tol", tol)
    code, out, err = run(capsys, "verify", "vector", "--N", "3", *argv)
    assert code == 2 and out == ""
    assert "tol must be finite and positive" in err


def test_verify_level1_zalg2_small_window(capsys):
    # the Z+-Z+- series are degree-3 polynomials: a window below 3 must not
    # truncate them into a false failure
    code, out, _ = run(capsys, "verify", "level1", "--type", "A2", "--a", "0",
                       "--degree", "1", "--window", "1", "--json")
    assert code == 0
    zalg2 = next(r for r in json.loads(out) if r["relation_id"] == "zalg2")
    assert zalg2["status"] == "pass" and zalg2["max_residual"] < 1e-12


def _recording(original, name, seen):
    signature = inspect.signature(original)

    def wrapped(*args, **kwargs):
        seen.add((name, signature.bind(*args, **kwargs).arguments["window"]))
        return original(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("degree", ["1", "2"])
def test_verify_level1_window_reaches_every_check(capsys, monkeypatch, degree):
    # the mode brackets and l1_xpxp run at min(window, 3) and min(window, 2)
    seen = set()
    for name in ("check_mode_current_bracket", "check_xx_quadratic_level1"):
        monkeypatch.setattr(relcheck, name, _recording(getattr(relcheck, name), name, seen))
    code, out, _ = run(capsys, "verify", "level1", "--type", "A2", "--a", "0",
                       "--degree", degree, "--window", "1", "--json")
    assert code == 0
    assert seen == {("check_mode_current_bracket", 1), ("check_xx_quadratic_level1", 1)}
    by_id = {r["relation_id"]: r for r in json.loads(out)}
    for rid in ("l1_bracket_plus", "l1_bracket_minus", "l1_xpxp"):
        assert by_id[rid]["max_residual"] < 2e-15, rid


@pytest.mark.parametrize("argv", [
    ("heisenberg", "--type", "A2", "--window", "-2"),
    ("fock", "--N", "3", "--max-size", "-1"),
    ("level1", "--type", "A2", "--a", "0", "--degree", "-1"),
    ("vector", "--N", "3", "--k", "3"),
    # the level1 suite samples boson degree 2 at most; a larger one was read as 2
    ("level1", "--type", "A2", "--a", "0", "--degree", "3"),
], ids=["window", "max_size", "degree", "vector_k", "level1_degree"])
def test_verify_rejects_bad_sizes(capsys, argv):
    # a negative size used to check nothing and report every relation as passed
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and "parameter error" in err


def test_verify_empty_report_fails(capsys):
    # x- kills the only state of size 0, so xmxm (and phixm) compare nothing;
    # a report that evaluated nothing must not pass
    code, out, _ = run(capsys, "verify", "fock", "--N", "3", "--max-size", "0", "--json")
    assert code != 0
    by_id = {r["relation_id"]: r for r in json.loads(out)}
    assert by_id["xmxm"]["samples"] == 0 and by_id["xmxm"]["status"] == "fail"
    assert all(r["status"] == "pass" for r in by_id.values() if r["samples"])


@pytest.mark.parametrize("argv", [
    ("expand", "theta", "--json"),
    ("expand", "theta", "--output", "out.txt"),
    ("act", "--gen", "x+", "--output", "out.txt"),
], ids=["expand_json", "expand_output", "act_output"])
def test_output_flags_only_where_read(capsys, tmp_path, monkeypatch, argv):
    # these flags used to be accepted and ignored: no JSON, no file, exit 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err
    assert not (tmp_path / "out.txt").exists()


# every flag `verify` and `expand` took for all suites and functions, and the ones
# each suite or function reads; the parameter and output flags are read everywhere
SHARED_FLAGS = {
    "verify": {"--N": "4", "--k": "1", "--type": "A2", "--a": "0", "--max-size": "0",
               "--degree": "1", "--window": "3"},
    "expand": {"--z": "0.5", "--s": "0.1", "--b": "5", "--a": "0.2", "--b2": "0.5",
               "--order": "3", "--n": "2", "--samples": "2", "--check": None},
}
READ_FLAGS = {
    ("verify", "fock"): {"--N", "--k", "--max-size"},
    ("verify", "vector"): {"--N", "--k"},
    ("verify", "heisenberg"): {"--type", "--degree", "--window"},
    ("verify", "level1"): {"--type", "--a", "--degree", "--window"},
    ("expand", "theta"): {"--z"},
    ("expand", "qpoch"): {"--z", "--s"},
    ("expand", "gkernel"): {"--z", "--s", "--b", "--check"},
    ("expand", "ratio"): {"--a", "--b2", "--s", "--order"},
    ("expand", "pf"): {"--n", "--samples"},
}
IGNORED = [(cmd, what, flag) for (cmd, what), read in READ_FLAGS.items()
           for flag in SHARED_FLAGS[cmd] if flag not in read]


@pytest.mark.parametrize("cmd, what, flag", IGNORED,
                         ids=[f"{what}{flag}" for _, what, flag in IGNORED])
def test_flag_only_where_read(capsys, cmd, what, flag):
    # each of these used to be accepted and ignored
    value = SHARED_FLAGS[cmd][flag]
    code, out, err = run(capsys, cmd, what, flag, *([value] if value else []))
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_verify_all_is_gone(capsys):
    code, out, err = run(capsys, "verify", "all")
    assert code == 2 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("content, needle", [
    ('{"seed": "abc"}', "seed"),
    ('{"tol": "x"}', "tol"),
    ('{"q": [0.9]}', "q"),
    ('{"trunc_M": 2.5}', "trunc_M"),
    ("[1, 2]", "JSON object"),
    ('{"qq": 3}', "qq"),
    ('{"level_k": 5}', "level_k"),
], ids=["seed_str", "tol_str", "q_short", "trunc_float", "not_object", "unknown_key",
        "level_k"])
def test_bad_config_is_a_usage_error(capsys, tmp_path, content, needle):
    # each used to raise a traceback (exit 1) or to be ignored (exit 0)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(content)
    code, out, err = run(capsys, "verify", "vector", "--N", "3", "--config", str(cfgfile))
    assert code == 2 and out == ""
    assert needle in err


def test_missing_config_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "act", "--gen", "x+", "--config", str(tmp_path / "none.json"))
    assert code == 2 and out == ""
    assert "cannot read config" in err


@pytest.mark.parametrize("content, want, message", [
    (b"[1, 2]", 2, "report objects"), (b'{"a": 1}', 2, "report objects"), (b"[]", 1, ""),
    (b"\xff\xfe", 2, "can't decode"),
], ids=["list_of_numbers", "object", "empty", "not_utf8"])
def test_report_rejects_non_reports(capsys, tmp_path, content, want, message):
    # [1, 2] and {"a": 1} used to raise AttributeError, and bytes that are not UTF-8 a
    # UnicodeDecodeError with exit 1; [] printed "0/0 pass" with exit 0
    src = tmp_path / "r.json"
    src.write_bytes(content)
    code, _, err = run(capsys, "report", str(src))
    assert code == want
    assert message in err


@pytest.mark.parametrize("argv", [["verify", "vector", "--json"], ["report", "r.json"]],
                         ids=["verify", "report"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # a FileNotFoundError used to end the run with a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.json").write_text('[{"relation_id": "xpxp", "status": "pass"}]')
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]


def test_nan_report_fails_end_to_end(capsys, tmp_path, monkeypatch):
    # a NaN dressing coefficient makes every heis residual NaN
    ecoef = BosonAlgebra.ecoef
    monkeypatch.setattr(BosonAlgebra, "ecoef",
                        lambda self, m: float("nan") if m == 2 else ecoef(self, m))
    path = tmp_path / "nan.json"
    code, _, _ = run(capsys, "verify", "heisenberg", "--degree", "1", "--window", "2",
                     "--json", "--output", str(path))
    assert code == 1
    rows = json.loads(path.read_text())
    assert len(rows) == 16
    assert all(isnan(r["max_residual"]) and r["status"] == "fail" for r in rows)
    code, out, _ = run(capsys, "report", str(path))
    assert code == 1
    lines = out.splitlines()
    assert all(line.endswith(",nan,fail") for line in lines[1:17])
    assert lines[17] == "# 0/16 relations pass"


def test_verify_overflow_in_a_check_fails_its_report(capsys, monkeypatch):
    # an overflow inside a check fails its report with the exception as its
    # worst case, every report is printed, and no traceback escapes
    def overflow(*args):
        raise OverflowError("numerical result out of range")
    monkeypatch.setattr(relcheck, "check_phi_phi_level1", overflow)
    code, out, err = run(capsys, "verify", "level1", "--json")
    assert code == 1 and err == ""
    rows = json.loads(out)
    assert len(rows) == len(relcheck.LEVEL1_RELATION_IDS)
    phiphi = next(r for r in rows if r["relation_id"] == "l1_phiphi_pm")
    assert isnan(phiphi["max_residual"]) and phiphi["status"] == "fail"
    assert phiphi["worst_case"].startswith("l1_phiphi_pm: OverflowError")


def test_verify_level1_passes_at_a_point_far_from_the_default(capsys):
    # at this admissible point a phi+ phi- kernel series in w/z, summed at w/z
    # near the default point's, overflows; l1_phiphi_pm compares log
    # coefficients and reads no w/z, so every report passes
    code, out, err = run(capsys, "verify", "level1", "--q", "0.6,0.1", "--kappa", "1.2,0.1",
                         "--p", "0.1,0", "--json")
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert len(rows) == len(relcheck.LEVEL1_RELATION_IDS) == 11
    assert all(r["status"] == "pass" for r in rows), rows


def test_verify_nan_module_coefficient_fails_its_reports(capsys, monkeypatch):
    # a NaN from the module is a fault of the module, not bad input: it reaches
    # the reports that read x+ coefficients, which fail, and the CLI exits 1
    monkeypatch.setattr(fock01, "coeff_plus", lambda *args: complex("nan"))
    code, out, err = run(capsys, "verify", "fock", "--N", "3", "--max-size", "2", "--json")
    assert code == 1 and err == ""
    rows = json.loads(out)
    assert len(rows) == len(relcheck.FOCK_RELATION_IDS)
    failed = {r["relation_id"] for r in rows if r["status"] == "fail"}
    assert failed == {"xpxp", "xpxm", "serre_plus", "dedf"}
    assert all(isnan(r["max_residual"]) for r in rows if r["relation_id"] in failed)


def test_verify_terms_sets_every_pochhammer_truncation(capsys, monkeypatch):
    # every Pochhammer product of the run, under its thetas, kernels and theta
    # Laurent coefficients too, stops at the --terms factor count
    terms, qpoch = [], ellcore.qpoch

    def counted(z, s, n):
        terms.append(n)
        return qpoch(z, s, n)
    monkeypatch.setattr(ellcore, "qpoch", counted)
    code, _, _ = run(capsys, "verify", "level1", "--type", "A2", "--a", "0", "--terms", "30")
    assert code == 0
    assert terms and set(terms) == {30}
