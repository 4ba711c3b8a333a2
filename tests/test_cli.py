import argparse
import json
import math
import random
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from qcplane import algebra, cli, qnormal
from qcplane.errors import DomainError
from qcplane.qnormal import TruncationWindow


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
    # a float row gates relative gaps; the truncated boundary is wholly defective,
    # and its absolute defect sits in the absolute block
    assert row["relation"]["boundary"] == 1.0
    assert row["absolute"]["relation"]["boundary"] > 1.0
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

    # every flag replaces the key it names, through the key's own conversion
    parser = cli._build_parser()
    for cfg, argv, field, want in (
            ({"window": [-5, 5]}, ["--window", "-4", "4"], "window", TruncationWindow(-4, 4)),
            ({"tolerance": 1e-10}, ["--tol", "1e-9"], "tolerance", 1e-9),
            ({"exact_mode": True}, ["--float"], "exact_mode", False),
            ({"exact_mode": False}, ["--exact"], "exact_mode", True),
            ({"elements": ["t@1"]}, ["--element", "t^2@0", "--element", "1@1"], "elements",
             ("t^2@0", "1@1")),
            ({"seed": 3}, ["--seed", "11"], "seed", 11)):
        cfgfile.write_text(json.dumps(cfg))
        loaded = cli.load_config(str(cfgfile), parser.parse_args(["simulate", *argv]))
        assert getattr(loaded, field) == want, argv
    # a bad value that a valid flag replaces is never read
    cfgfile.write_text(json.dumps({"tolerance": "tight"}))
    code, out = run(capsys, "simulate", "--config", str(cfgfile), "--tol", "1e-10")
    assert code == 0 and json.loads(out)["tolerance"] == 1e-10


def test_norm_refuses_a_tolerance_it_would_not_read(tmp_path, capsys):
    # norm gates nothing, so --tol or the tolerance key would have no effect
    cfgfile = tmp_path / "cfg.json"
    for argv, cfg in ((["--tol", "1e-9"], {}), ([], {"tolerance": 1e-9}),
                      (["--tol", "1e-300"], {"windows_sweep": [[-3, 3]]})):
        cfgfile.write_text(json.dumps(cfg))
        assert cli.main(["norm", "--element", "t@1", "--config", str(cfgfile), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol and the tolerance key" in captured.err, argv
    cfgfile.write_text(json.dumps({"windows_sweep": [[-3, 3]]}))
    assert cli.main(["norm", "--element", "t@1", "--config", str(cfgfile)]) == 0


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
                      (["bott"], {"bott_signs": []}),
                      (["simulate"], {"windows_sweep": []}),
                      # integer keys take integers: no rounding, truncation or booleans
                      (["bott"], {"bott_n": [1.5]}),
                      (["simulate"], {"window": [-6.9, 6.9]}),
                      (["simulate"], {"window": [-6, 6, 9]}),
                      (["simulate"], {"window": [-6]}),
                      (["simulate"], {"windows_sweep": [[-4, 4], [-8.5, 8]]}),
                      (["limit", "--q", "1/1"], {"limit_pairs": True}),
                      (["limit", "--q", "1/1"], {"limit_grid": 2.5}),
                      (["simulate"], {"seed": 2.5}),
                      (["bott", "--exact"], {"sample_exponent_range": "25"}),
                      # list keys take lists: a string is not read character by character
                      (["bott"], {"bott_signs": "+-"}),
                      (["simulate"], {"generators": "1"}),
                      (["norm"], {"elements": "t@1"}),
                      # numbers and rationals are not booleans: true used to run as 1
                      (["bott", "--perturb"], {"tolerance": True}),
                      (["limit"], {"q": True}),
                      (["simulate"], {"zero_mass": True}),
                      (["simulate"], {"generators": ["1", True]})):
        bad.write_text(json.dumps(cfg))
        assert cli.main([*argv, "--config", str(bad)]) == 2, cfg
        captured = capsys.readouterr()
        assert captured.out == "" and next(iter(cfg)) in captured.err, cfg
    # a bad value names where it came from: the flag, or the config key
    for argv, cfg, source in ((["--q", "abc"], {}, "--q has a bad value"),
                              ([], {"q": "abc"}, "config 'q' has a bad value")):
        bad.write_text(json.dumps(cfg))
        assert cli.main(["simulate", *argv, "--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and source in captured.err, captured.err
    # norm sweeps windows_sweep; a window given to it would have no effect, and
    # an empty sweep is refused rather than replaced by the default
    for argv, cfg in ((["--window", "-600", "600"], {}), ([], {"window": [-600, 600]}),
                      ([], {"windows_sweep": []})):
        bad.write_text(json.dumps(cfg))
        assert cli.main(["norm", "--element", "t@1", "--config", str(bad), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "windows_sweep" in captured.err
    bad.write_text(json.dumps({"exact_mode": True}))
    code, out = run(capsys, "simulate", "--window", "-3", "3", "--config", str(bad))
    assert code == 0
    assert json.loads(out)["provenance"]["mode"] == "exact"
    bad.write_text(json.dumps({"window": [-3.0, 3]}))
    code, out = run(capsys, "simulate", "--config", str(bad))
    assert code == 0
    assert json.loads(out)["provenance"]["window"] == [-3, 3]

    bad.write_text("not json")
    code, _ = run(capsys, "simulate", "--config", str(bad))
    assert code == 2

    bad.write_text(json.dumps([{"q": "1/2"}]))
    code, out = run(capsys, "simulate", "--config", str(bad))
    assert code == 2 and out == ""

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


def test_bott_wide_float_window_stays_finite(capsys):
    # at t = 2**300 the n = 3 denominators 1 + c t^6 overflow to inf; the float
    # values of 1/(1 + c t^6) and t^3/(1 + c t^6) are then 0, not nan
    code, out = run(capsys, "bott", "--window", "-300", "300")
    assert code == 0
    rows = json.loads(out)["projections"]
    for row in rows:
        assert math.isfinite(row["max_residue"]) and row["passed"] is True
    winding = {(row["n"], row["sign"]): row["winding_diagnostic"]["value"] for row in rows}
    assert abs(winding[3, "+"] - 3.0) <= 1e-9
    assert abs(winding[3, "-"] + 3.0) <= 1e-9


def test_bott_wide_float_window_at_q_3_7_stays_finite(capsys):
    # at q = 3/7 and t ~ 1e110 both t^3 and t^6 overflow, so the mode +-3
    # coefficients t^3/(1 + c t^6) and the corner c t^6/(1 + c t^6) are inf/inf
    # in forward Horner form; the reversed polynomials at 1/t give 0 and 1
    code, out = run(capsys, "bott", "--q", "3/7", "--window", "-300", "300")
    assert code == 0
    rows = json.loads(out)["projections"]
    for row in rows:
        assert math.isfinite(row["max_residue"]) and row["passed"] is True
    winding = {(row["n"], row["sign"]): row["winding_diagnostic"]["value"] for row in rows}
    assert abs(winding[3, "+"] - 3.0) <= 1e-9
    assert abs(winding[3, "-"] + 3.0) <= 1e-9


def test_poles_on_half_line_rejected(capsys):
    # 1048576 = 2**20 is a point of X at q = 1/2, far outside every window;
    # sqrt(2) is irrational, so no rational sample can ever hit it
    for lit in ("1/(t-1048576)@0", "1/(t^2-2)@0"):
        code, out = run(capsys, "norm", "--element", lit)
        assert code == 2
        assert out == ""


def test_deeply_nested_element_exits_2(capsys):
    code, out = run(capsys, "norm", "--element", "(" * 300 + "t" + ")" * 300 + "@0")
    assert code == 2
    assert out == ""


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out = run(capsys, "norm", "--out", str(dest))
    assert code == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["command"] == "norm"


def test_unwritable_output_paths_exit_2_without_a_traceback(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    for flag, name in (("--out", "r.json"), ("--spectra-out", "s.csv")):
        target = str(missing / name)
        assert cli.main(["simulate", flag, target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {target}" in captured.err
    assert not missing.parent.exists()


def test_outputs_are_probed_before_the_command_runs(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "no" / "r.json")
    spectra = tmp_path / "s.csv"
    built = []
    monkeypatch.setattr(cli.qnormal, "build", lambda *args, **kw: built.append(args))
    for out in (missing, str(tmp_path)):
        code = cli.main(["simulate", "--exact", "--window", "-1000", "1000",
                         "--spectra-out", str(spectra), "--out", out])
        assert code == 2 and not built
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not spectra.exists()
    monkeypatch.undo()
    # a run that fails after the probe leaves no new report and keeps an old one
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    old.write_text("old report\n")
    for out in (fresh, old):
        assert cli.main(["norm", "--element", "t^100000@0", "--out", str(out)]) == 2
    assert "invalid input" in capsys.readouterr().err
    assert not fresh.exists() and old.read_text() == "old report\n"
    assert cli.main(["simulate", "--window", "-2", "2", "--out", str(old)]) == 0
    assert json.loads(old.read_text())["command"] == "simulate"


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


def test_power_literal_beyond_the_degree_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert cli.main(["norm", "--element", "t^100000@0"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "degree 1000" in captured.err


def test_float_simulate_refuses_a_zeta_whose_square_overflows(capsys):
    # at q = 1/1000 the grid reaches 1e180, a float, but t^2 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--q", "1/1000", "--window", "-60", "60"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level -59" in captured.err and "--exact" in captured.err
    # inside float range the model is correct: the gate reads the relative gap,
    # which passes, beside an absolute defect of about 1e272
    code, out = run(capsys, "simulate", "--q", "1/1000", "--window", "-50", "50")
    report = json.loads(out)
    assert code == 0 and report["max_interior_defect"] <= report["tolerance"]
    absolute = report["windows"][0]["absolute"]["relation"]["interior"]
    assert math.isfinite(absolute) and absolute > 1e200


def test_limit_table_matches_classical_eval_bit_for_bit():
    rng = random.Random(4)
    radii = [0.1 + 2.9 * i / 9 for i in range(10)]
    angles = [2 * math.pi * i / 10 for i in range(10)]
    for _ in range(10):
        a = cli._random_classical_element(rng, Fraction(1))
        table = algebra.classical_table(a, radii, angles)
        assert table == [[algebra.classical_eval(a, r, th) for th in angles] for r in radii]


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_limit_table_matches_the_per_radius_formula_bit_for_bit():
    # complex(f(r)) per radius and mode, f_k(0) read as value_at_zero,
    # accumulated mode by mode, on real and complex coefficients with
    # denominators, at 0 and at radii near the float limits
    rng = random.Random(9)
    radii = [0.0, 0] + [0.1 + 2.9 * i / 9 for i in range(10)] + [1e-200, 1e160]
    angles = [2 * math.pi * i / 7 for i in range(7)]
    for trial in range(20):
        a = (cli._random_classical_element(rng, Fraction(1)) if trial % 2
             else helpers.random_element(rng, Fraction(1)))
        turns = [[complex(math.cos(k * th), math.sin(k * th)) for th in angles] for k in a.modes]
        want = []
        for r in radii:
            row = [0j] * len(angles)
            for (_, f), turn in zip(a.terms, turns):
                val = complex(f.value_at_zero) if r == 0 else complex(f(r))
                row = [total + val * z for total, z in zip(row, turn)]
            want.append(row)
        got = algebra.classical_table(a, radii, angles)
        assert [[_bits(z) for z in row] for row in got] == [[_bits(z) for z in row] for row in want]
        with pytest.raises(DomainError, match="nonnegative"):
            algebra.classical_table(a, [1.0, -1e-300], angles)


def test_float_bott_builds_no_exact_sample_grid(capsys, monkeypatch):
    # only the exact verdict reads the rational sample points
    real = algebra.grid_sample_points
    calls = []
    monkeypatch.setattr(algebra, "grid_sample_points",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for argv in (["bott"], ["bott", "--perturb"], ["bott", "--q", "2/3"]):
        code, out = run(capsys, *argv)
        assert code in (0, 3) and json.loads(out)["projections"]
    assert calls == []
    code, out = run(capsys, "bott", "--exact")
    assert code == 0 and len(calls) == 1
    for row in json.loads(out)["projections"]:
        assert row["points_checked"] == 52


@pytest.mark.parametrize("exact", [False, True])
def test_simulate_builds_the_covariance_family_once_per_run(tmp_path, capsys, monkeypatch,
                                                            exact):
    built = []
    make = cli._covariance_function

    def counting(name, q):
        built.append(name)
        return make(name, q)

    monkeypatch.setattr(cli, "_covariance_function", counting)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"windows_sweep": [[-3, 3], [-4, 4], [-5, 5]]}))
    argv = ["simulate", "--config", str(cfgfile)] + (["--exact"] if exact else [])
    code, out = run(capsys, *argv)
    assert code == 0
    assert len(json.loads(out)["windows"]) == 3
    assert built == list(cli.COVARIANCE_FAMILY)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv, want_code", [
    ("simulate_exact", ["simulate", "--exact"], 0),
    ("simulate_exact_q3_7_w40", ["simulate", "--exact", "--q", "3/7", "--window", "-40", "40"], 0),
    ("bott_exact", ["bott", "--exact"], 0),
    ("bott", ["bott"], 0),
    ("norm", ["norm"], 0),
    ("limit_q1", ["limit", "--q", "1/1"], 0),
])
def test_reports_match_the_recorded_golden_output(capsys, name, argv, want_code):
    # tests/data/golden_<name>.out is the byte-exact stdout of
    # `python -m qcplane.cli <argv>` recorded before the exact diagonal evaluator
    code, out = run(capsys, *argv)
    assert code == want_code
    assert out.encode() == (GOLDEN / f"golden_{name}.out").read_bytes()


def test_an_exact_defect_passes_only_when_it_is_zero(capsys, monkeypatch):
    # 1e-20 is below --tol, but an exact defect is not a rounding error
    real = qnormal.verify_relation
    monkeypatch.setattr(qnormal, "verify_relation", lambda T: qnormal.RelationReport(
        Fraction(1, 10 ** 20), real(T).boundary_defect))
    code, out = run(capsys, "simulate", "--exact", "--tol", "1e-12")
    report = json.loads(out)
    assert code == 3 and report["passed"] is False
    assert report["failure"].startswith("relation defect 1e-20 at window [-6, 6]")
    assert report["windows"][0]["relation"]["interior"] == "1/100000000000000000000"


def test_exact_windows_whose_defects_pass_the_int_printing_limit_exit_2(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    assert cli.main(["simulate", "--exact", "--q", "3/7", "--window", "-3200", "3200"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[-3200, 3200]" in captured.err and f"{limit}-digit" in captured.err
    # the bound admits +-1600 at q = 3/7, which runs and prints
    cfg = cli.load_config(None, argparse.Namespace(q="3/7", exact=True))
    assert cli._defect_digits(cfg, TruncationWindow(-1600, 1600)) <= limit
    # and it bounds the digits the report prints, also over generators and a sweep
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"generators": ["1", "5/7"],
                                   "windows_sweep": [[-40, 40], [3, 60]]}))
    cfg = cli.load_config(str(cfgfile), argparse.Namespace(q="3/7", exact=True))
    code, out = run(capsys, "simulate", "--exact", "--q", "3/7", "--config", str(cfgfile))
    assert code == 0
    for w, row in zip(cfg.windows_sweep, json.loads(out)["windows"]):
        digits = max(len(part.lstrip("-")) for part in row["relation"]["boundary"].split("/"))
        assert 1 < digits <= cli._defect_digits(cfg, w)


def test_norm_refuses_exact_mode(tmp_path, capsys):
    # its estimates come from float models, so "mode": "exact" would claim too much
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"exact_mode": True}))
    for argv in (["--exact"], ["--config", str(cfgfile)]):
        assert cli.main(["norm", "--element", "t@1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exact" in captured.err
