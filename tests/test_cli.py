import json
from math import isnan

import pytest

from eqtor import cli
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


def test_usage_error_exit_code():
    assert main(["verify"]) == 2
    assert main(["nonsense"]) == 2
    # argparse choices alone reject an unknown generator, rep or function
    assert main(["act", "--gen", "y+"]) == 2
    assert main(["act", "--gen", "x+", "--rep", "boson"]) == 2
    assert main(["expand", "sine"]) == 2


def test_verify_level1_zalg2_small_window(capsys):
    # the Z+-Z+- series are degree-3 polynomials: a window below 3 must not
    # truncate them into a false failure
    code, out, _ = run(capsys, "verify", "level1", "--type", "A2", "--a", "0",
                       "--degree", "1", "--window", "1", "--json")
    assert code == 0
    zalg2 = next(r for r in json.loads(out) if r["relation_id"] == "zalg2")
    assert zalg2["status"] == "pass" and zalg2["max_residual"] < 1e-12


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


@pytest.mark.parametrize("content, want", [
    ("[1, 2]", 2), ('{"a": 1}', 2), ("[]", 1),
], ids=["list_of_numbers", "object", "empty"])
def test_report_rejects_non_reports(capsys, tmp_path, content, want):
    # [1, 2] and {"a": 1} used to raise AttributeError; [] printed "0/0 pass" with exit 0
    src = tmp_path / "r.json"
    src.write_text(content)
    code, _, err = run(capsys, "report", str(src))
    assert code == want
    if want == 2:
        assert "report objects" in err


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
