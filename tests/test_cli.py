import json
from fractions import Fraction

import pytest

from qcplane import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_simulate_defaults(capsys):
    code, out = run(capsys, "simulate")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "simulate"
    assert report["passed"] is True
    assert report["q"] == "1/2"
    prov = report["provenance"]
    assert prov["mode"] == "float"
    assert prov["window"] == [-6, 6]
    assert prov["interior_margin"] == 1
    assert "identity_checked" in prov
    row = report["windows"][0]
    assert row["dimension"] == 13
    assert row["relation"]["interior"] <= 1e-12
    assert row["relation"]["boundary"] > 1.0
    assert set(row["covariance"]) == {"t", "t^2", "indicator", "lorentzian"}


def test_simulate_exact_mode(capsys):
    code, out = run(capsys, "simulate", "--exact", "--window", "-4", "4")
    assert code == 0
    report = json.loads(out)
    assert report["provenance"]["mode"] == "exact"
    row = report["windows"][0]
    # exact defects serialize as rationals
    assert row["relation"]["interior"] == "0/1"
    assert row["relation"]["boundary"] == "64/1"
    assert row["polar"]["reconstruction"] == "0/1"


def test_simulate_rejects_degenerate_ratio(capsys):
    code, _ = run(capsys, "simulate", "--q", "0/1")
    assert code == 2
    code, _ = run(capsys, "simulate", "--q", "5/4")
    assert code == 2


def test_simulate_rejects_classical_ratio(capsys):
    code, _ = run(capsys, "simulate", "--q", "1/1")
    assert code == 2


def test_simulate_spectra_export(tmp_path, capsys):
    dest = tmp_path / "spectra.csv"
    code, _ = run(capsys, "simulate", "--window", "-2", "2",
                  "--spectra-out", str(dest))
    assert code == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "level,generator,value"
    assert len(lines) == 6


def test_norm_default_oracle(capsys):
    code, out = run(capsys, "norm")
    assert code == 0
    report = json.loads(out)
    assert report["estimates_are_lower_bounds"] is True
    row = report["elements"][0]
    assert row["element"] == "1/(1+t^2)@0"
    assert row["window_spans"] == [[-4, 4], [-8, 8], [-12, 12]]
    finals = row["estimates"]
    assert finals == sorted(finals)
    oracle = float(1 / (1 + Fraction(2) ** -24))
    assert abs(row["final"] - oracle) <= 1e-12
    assert row["converged"] is False


def test_norm_shift_element_oracle(capsys):
    code, out = run(capsys, "norm", "--element", "t@1")
    assert code == 0
    row = json.loads(out)["elements"][0]
    assert abs(row["final"] - 4096.0) <= 1e-8


def test_norm_reports_boundedness(capsys):
    # one row per element: t grows without bound, degree 3 over 2 as well
    for args, bounded in (((), [True]), (("--element", "t@0"), [False]),
                          (("--element", "(1+t)/(2+t)@1", "--element", "0@0",
                            "--element", "t^3/(1+t^2)@2"), [True, True, False])):
        code, out = run(capsys, "norm", *args)
        assert code == 0
        assert [row["bounded"] for row in json.loads(out)["elements"]] == bounded


def test_norm_zero_element(capsys):
    code, out = run(capsys, "norm", "--element", "0@0")
    assert code == 0
    row = json.loads(out)["elements"][0]
    assert row["estimates"] == [0.0, 0.0, 0.0]
    assert row["converged"] is True


def test_bott_numeric_defaults(capsys):
    code, out = run(capsys, "bott")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["perturbed_control"] is False
    assert len(report["projections"]) == 6
    for row in report["projections"]:
        assert row["mode"] == "numeric"
        assert row["max_residue"] <= 1e-12
        assert row["passed"] is True
        assert row["winding_diagnostic"]["unverified"] is True


def test_bott_exact_mode(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bott_n": [1, 2], "sample_exponent_range": 12}))
    code, out = run(capsys, "bott", "--exact", "--config", str(cfgfile))
    assert code == 0
    report = json.loads(out)
    for row in report["projections"]:
        assert row["mode"] == "exact"
        assert row["max_residue"] == "0/1"
        assert row["points_checked"] == 26
        assert row["passed"] is True


def test_bott_perturbed_control_fails(capsys):
    code, out = run(capsys, "bott", "--perturb")
    assert code == 3
    report = json.loads(out)
    assert report["passed"] is False
    assert report["perturbed_control"] is True
    assert any(not row["passed"] for row in report["projections"])


def test_bott_window_too_small(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bott_n": [4]}))
    code, _ = run(capsys, "bott", "--config", str(cfgfile))
    assert code == 2


def test_limit_classical(capsys):
    code, out = run(capsys, "limit", "--q", "1/1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["commutator_max_residue"] == "0/1"
    assert report["eval_multiplicativity_residue"] <= 1e-12
    assert report["theta_independent_at_origin"] is True


def test_limit_rejects_deformed_ratio(capsys):
    code, _ = run(capsys, "limit")
    assert code == 2


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "simulate", "--window", "-4", "4")
    _, second = run(capsys, "simulate", "--window", "-4", "4")
    assert first == second
    _, first = run(capsys, "limit", "--q", "1/1", "--seed", "3")
    _, second = run(capsys, "limit", "--q", "1/1", "--seed", "3")
    assert first == second


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"q": "3/4", "window": [-5, 5],
                                   "tolerance": 1e-10}))
    code, out = run(capsys, "simulate", "--config", str(cfgfile))
    assert code == 0
    report = json.loads(out)
    assert report["q"] == "3/4"
    assert report["provenance"]["window"] == [-5, 5]
    assert report["tolerance"] == 1e-10

    code, out = run(capsys, "simulate", "--config", str(cfgfile), "--q", "1/2")
    assert code == 0
    assert json.loads(out)["q"] == "1/2"


def test_config_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": ["1/3"]}))
    code, _ = run(capsys, "simulate", "--config", str(bad))
    assert code == 2

    bad.write_text(json.dumps({"commands": ["bogus"]}))
    code, _ = run(capsys, "simulate", "--config", str(bad))
    assert code == 2

    # a misspelt key must not fall back to the default gate
    bad.write_text(json.dumps({"tolerence": 1e-3}))
    code, _ = run(capsys, "simulate", "--config", str(bad))
    assert code == 2

    # values that crash or certify nothing
    for tol in ("nan", "inf"):
        code, _ = run(capsys, "simulate", "--q", "3/7", "--window", "-30", "30", "--tol", tol)
        assert code == 2
    for argv, cfg in ((["limit", "--q", "1/1"], {"limit_grid": 1}),
                      (["bott"], {"bott_signs": ["+", "plus"]}),
                      (["bott", "--exact"], {"sample_exponent_range": -1}),
                      (["simulate"], {"exact_mode": "false"}),
                      (["simulate"], {"exact_mode": 0}),
                      (["bott"], {"bott_n": []}),
                      (["bott", "--exact"], {"bott_n": [0, 1]}),
                      (["bott"], {"bott_signs": []})):
        bad.write_text(json.dumps(cfg))
        code, _ = run(capsys, *argv, "--config", str(bad))
        assert code == 2, cfg
    bad.write_text(json.dumps({"exact_mode": True}))
    code, out = run(capsys, "simulate", "--window", "-3", "3", "--config", str(bad))
    assert code == 0
    assert json.loads(out)["provenance"]["mode"] == "exact"

    bad.write_text("not json")
    code, _ = run(capsys, "simulate", "--config", str(bad))
    assert code == 2

    code, _ = run(capsys, "simulate", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_float_grid_beyond_float_range_exits_2(tmp_path, capsys):
    # 2**1100 has no float: the first such level is named and --exact suggested
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"windows_sweep": [[-4, 4], [-1100, 1100]]}))
    for argv in (["simulate", "--window", "-1100", "1100"],
                 ["bott", "--window", "-1100", "1100"],
                 ["norm", "--config", str(sweep)]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "level -1100" in captured.err and "--exact" in captured.err


def test_poles_on_half_line_rejected(capsys):
    # 1048576 = 2**20 is a point of X at q = 1/2, far outside every window;
    # sqrt(2) is irrational, so no rational sample can ever hit it
    for lit in ("1/(t-1048576)@0", "1/(t^2-2)@0"):
        code, out = run(capsys, "norm", "--element", lit)
        assert code == 2
        assert out == ""


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out = run(capsys, "norm", "--out", str(dest))
    assert code == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["command"] == "norm"


def test_missing_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_repeated_main_calls_keep_their_own_arguments(capsys):
    for elements in (["t@1", "0@0"], ["1/(1+t)@0"]):
        argv = [x for e in elements for x in ("--element", e)]
        code, out = run(capsys, "norm", *argv)
        assert code == 0
        assert [row["element"] for row in json.loads(out)["elements"]] == elements
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "--window", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "norm", "--element", "t@1")
    assert code == 0
    assert [row["element"] for row in json.loads(out)["elements"]] == ["t@1"]
