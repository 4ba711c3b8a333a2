import argparse
import dataclasses
import json
import math
import random
import re
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from qcplane import algebra, cli, qnormal, qspace, ratfunc
from qcplane.errors import DomainError, EvaluationError
from qcplane.qnormal import TruncationWindow
from qcplane.ratfunc import RationalFunction


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


def test_the_measure_refuses_a_q_generator_or_zero_mass_out_of_range(tmp_path, capsys):
    # the config loader leaves these to qspace.QInvariantMeasure; limit reads
    # only q, and refuses every q but 1 itself
    cfg = tmp_path / "cfg.json"
    for argv, data, want in ((["simulate"], {"zero_mass": "-1"}, "invalid input: zero_mass"),
                             (["bott"], {"zero_mass": "-1"}, "invalid input: zero_mass"),
                             (["norm", "--q=-1/2"], {}, "-1/2"),
                             (["simulate"], {"generators": ["3/2"]}, "3/2"),
                             (["norm"], {"generators": ["1", "1/2"]}, "1/2 outside (1/2, 1]"),
                             (["simulate", "--exact"], {"generators": ["0"]}, "invalid input"),
                             (["limit", "--q", "5/4"], {}, "limit requires q = 1"),
                             (["limit", "--q", "0/1"], {}, "limit requires q = 1")):
        cfg.write_text(json.dumps(data))
        assert cli.main([*argv, "--config", str(cfg)]) == 2, (argv, data)
        captured = capsys.readouterr()
        assert captured.out == "" and want in captured.err, captured.err


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


def test_norm_of_a_bounded_element_with_coefficients_past_float_range(capsys):
    code, out = run(capsys, "norm", "--element", "1/(1+2*t)^700@0")
    assert code == 0
    row = json.loads(out)["elements"][0]
    assert row["bounded"] is True and 0 < row["final"] <= 1


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
        assert row["index"] == (1 if row["sign"] == "+" else -1) * row["n"]


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
            ({"window": [-5, 5]}, ["simulate", "--window", "-4", "4"], "window",
             TruncationWindow(-4, 4)),
            ({"tolerance": 1e-10}, ["simulate", "--tol", "1e-9"], "tolerance", 1e-9),
            ({"exact_mode": True}, ["simulate", "--float"], "exact_mode", False),
            ({"exact_mode": False}, ["bott", "--exact"], "exact_mode", True),
            ({"elements": ["t@1"]}, ["norm", "--element", "t^2@0", "--element", "1@1"],
             "elements", ("t^2@0", "1@1")),
            ({"seed": 3}, ["limit", "--seed", "11"], "seed", 11)):
        cfgfile.write_text(json.dumps(cfg))
        loaded = cli.load_config(str(cfgfile), parser.parse_args(argv))
        assert getattr(loaded, field) == want, argv
    # a bad value that a valid flag replaces is never read
    cfgfile.write_text(json.dumps({"tolerance": "tight"}))
    code, out = run(capsys, "simulate", "--config", str(cfgfile), "--tol", "1e-10")
    assert code == 0 and json.loads(out)["tolerance"] == 1e-10


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
                      (["norm"], {"elements": []}),
                      # integer keys take integers: no rounding, truncation or booleans
                      (["bott"], {"bott_n": [1.5]}),
                      (["simulate"], {"window": [-6.9, 6.9]}),
                      (["simulate"], {"window": [-6, 6, 9]}),
                      (["simulate"], {"window": [-6]}),
                      (["simulate"], {"windows_sweep": [[-4, 4], [-8.5, 8]]}),
                      (["limit", "--q", "1/1"], {"limit_pairs": True}),
                      (["limit", "--q", "1/1"], {"limit_grid": 2.5}),
                      (["limit", "--q", "1/1"], {"seed": 2.5}),
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
    # norm sweeps windows_sweep: a window key is refused with the keys norm reads,
    # and an empty sweep is refused rather than replaced by the default
    for cfg in ({"window": [-600, 600]}, {"windows_sweep": []}):
        bad.write_text(json.dumps(cfg))
        assert cli.main(["norm", "--element", "t@1", "--config", str(bad)]) == 2
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
    index = {(row["n"], row["sign"]): row["index"] for row in rows}
    assert index[3, "+"] == 3 and index[3, "-"] == -3


def test_bott_wide_float_window_at_q_3_7_stays_finite(capsys):
    # at q = 3/7 and t ~ 1e110 both t^3 and t^6 overflow, so the mode +-3
    # coefficients t^3/(1 + c t^6) and the corner c t^6/(1 + c t^6) are inf/inf
    # in forward Horner form; the reversed polynomials at 1/t give 0 and 1
    code, out = run(capsys, "bott", "--q", "3/7", "--window", "-300", "300")
    assert code == 0
    rows = json.loads(out)["projections"]
    for row in rows:
        assert math.isfinite(row["max_residue"]) and row["passed"] is True
    index = {(row["n"], row["sign"]): row["index"] for row in rows}
    assert index[3, "+"] == 3 and index[3, "-"] == -3


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


def test_power_literal_beyond_the_degree_bound_exits_2_at_once(capsys, monkeypatch):
    start = time.perf_counter()
    assert cli.main(["norm", "--element", "t^100000@0"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and "degree 1000" in captured.err
    # products and sums whose steps pass the bound are refused before the step:
    # no polynomial past degree 1000 is formed, where the unbounded reader took
    # 1.5, 7.3 and 26 s on a 2-vCPU host.  Each first reads two powers of degree
    # 999 or 1000, which took 0.2-0.6 s there, so their time is bounded loosely
    formed, convolve = [], ratfunc._conv

    def conv(out, x, y):   # records each product's degree
        formed.append(len(out) - 1)
        return convolve(out, x, y)

    monkeypatch.setattr(ratfunc, "_conv", conv)
    for literal in ("(1+t)^1000*(1+t)^1000@0", "(1+t)^1000*(1+t)^1000*(1+t)^1000@0",
                    "1/(1+t)^999+1/(2+t)^999+1/(3+t)^999@0"):
        start = time.perf_counter()
        assert cli.main(["norm", "--element", literal]) == 2
        assert time.perf_counter() - start < 2, literal
        captured = capsys.readouterr()
        assert captured.out == "" and "degree 1000" in captured.err, literal
    assert 999 <= max(formed) <= 1000


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
    # denominators, leaves and the empty element, at 0, at radii near the
    # float limits and at inf
    rng = random.Random(9)
    grid = [0.0, 0] + [0.1 + 2.9 * i / 9 for i in range(10)] + [1e-200, 1e160]
    angles = [2 * math.pi * i / 7 for i in range(7)]
    cases = [(cli._random_classical_element(rng, Fraction(1)) if trial % 2
              else helpers.random_element(rng, Fraction(1)), grid) for trial in range(20)]
    T = RationalFunction.variable()
    rational = algebra.RationalCoefficient((1 + T) / (1 + T * T))
    indicator = algebra.IndicatorCoefficient(qspace.Interval.open_closed(Fraction(1, 2), 1))
    closure = algebra.ClosureCoefficient(lambda t: math.exp(-t), 1.0, True)
    vanishing_at_1 = algebra.RationalCoefficient(T - 1)
    beyond = grid + [0.5, 1.0, 2.0, math.inf]
    cases += [(algebra.element(1, {-1: rational, 0: indicator, 2: vanishing_at_1}), grid[:-1]),
              (algebra.element(1, {0: closure, 1: rational}), beyond),
              (algebra.element(1, {3: vanishing_at_1}), beyond),
              (algebra.zero_element(1), beyond),
              (helpers.random_element(rng, Fraction(1)), beyond),
              (cli._random_classical_element(rng, Fraction(1)), beyond)]
    for a, radii in cases:
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
    # the elements of one grid in one call: each table as alone
    alone = [a for a, radii in cases if radii is grid]
    tables_re, tables_im = algebra.classical_tables(alone, grid, angles)
    for a, table_re, table_im in zip(alone, tables_re, tables_im):
        assert [[_bits(complex(x, y)) for x, y in zip(*rows)] for rows in zip(table_re, table_im)] \
            == [[_bits(z) for z in row] for row in algebra.classical_table(a, grid, angles)]


def test_limit_table_raises_where_the_per_radius_formula_raises():
    # the exact root check accepts 1/((t-1)^2 + 10^-400), but its float
    # denominator vanishes at 1.0; a closure that fails raises too.  The
    # first failure in the order of elements, radii and modes is the one raised
    angles = [0.0, 1.0]
    vanishing = algebra.parse_element(1, ["1/((t-1)^2+1/10^400)@1"]).coefficient(1)
    failing = algebra.ClosureCoefficient(lambda t: 1 / (t < 0.75), 1.0, True)
    both = algebra.element(1, {0: vanishing, 1: failing})
    for elements, radii, message in (
            ([algebra.element(1, {1: vanishing})], [0.5, 1.0, 1 + 2 ** -52, 2.0],
             "denominator vanishes at t=1.0"),
            ([both], [0.5, 0.8, 1.0], "coefficient undefined at t=0.8"),
            ([both], [0.5, 1.0, 0.8], "denominator vanishes at t=1.0"),
            ([algebra.element(1, {1: vanishing}), algebra.element(1, {0: failing})],
             [0.5, 0.8, 1.0], "denominator vanishes at t=1.0")):
        with pytest.raises(EvaluationError) as exc:
            for a in elements:
                for r in radii:
                    for _, f in a.terms:
                        complex(f(r))
        assert str(exc.value) == message
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            algebra.classical_tables(elements, radii, angles)
        if len(elements) == 1:
            with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
                algebra.classical_table(elements[0], radii, angles)


def _per_radius_table(a, radii, angles):
    """classical_table by the per-radius formula: complex arithmetic, cell by cell."""
    turns = [[complex(math.cos(k * th), math.sin(k * th)) for th in angles] for k in a.modes]
    table = []
    for r in radii:
        row = [0j] * len(angles)
        for (_, f), turn in zip(a.terms, turns):
            val = complex(f.value_at_zero) if r == 0 else complex(f(r))
            row = [total + val * z for total, z in zip(row, turn)]
        table.append(row)
    return table


@pytest.mark.parametrize("grid", [10, 7])
def test_limit_residue_equals_the_per_cell_scalar_residue_bit_for_bit(grid):
    base = cli.load_config(None, argparse.Namespace(command="limit", q="1/1"))
    radii = [0.1 + 2.9 * i / (grid - 1) for i in range(grid)]
    angles = [2 * math.pi * i / grid for i in range(grid)]
    for seed in range(30):
        cfg = dataclasses.replace(base, seed=seed, limit_grid=grid)
        rng = random.Random(seed)
        want = 0.0
        for _ in range(cfg.limit_pairs):
            a = cli._random_classical_element(rng, cfg.q)
            b = cli._random_classical_element(rng, cfg.q)
            tables = (_per_radius_table(x, radii, angles) for x in (algebra.multiply(a, b), a, b))
            for row_ab, row_a, row_b in zip(*tables):
                for at_ab, at_a, at_b in zip(row_ab, row_a, row_b):
                    want = max(want, abs(at_ab - at_a * at_b))
        assert cli.cmd_limit(cfg)["eval_multiplicativity_residue"].hex() == want.hex(), seed


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


def test_exact_bott_builds_no_float_model(capsys, monkeypatch):
    # the index is proved on the entries themselves: no window model is built or rounded
    def refuse(*args, **kw):
        raise AssertionError("bott --exact built a window model")

    monkeypatch.setattr(qnormal, "build", refuse)
    monkeypatch.setattr(qnormal.TruncatedQNormal, "as_float", refuse)
    code, out = run(capsys, "bott", "--exact")
    assert code == 0
    indices = [row["index"] for row in json.loads(out)["projections"]]
    assert indices == [1, -1, 2, -2, 3, -3] and all(type(k) is int for k in indices)
    # so a window past float range, which no exact check reads, is no longer refused
    code, _ = run(capsys, "bott", "--exact", "--window", "-1100", "1100")
    assert code == 0


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


GOLDEN_RUNS = [
    ("simulate_exact", ["simulate", "--exact"], 0),
    ("simulate_exact_q3_7_w40", ["simulate", "--exact", "--q", "3/7", "--window", "-40", "40"], 0),
    ("bott_exact", ["bott", "--exact"], 0),
    ("bott", ["bott"], 0),
    ("norm", ["norm"], 0),
    ("limit_q1", ["limit", "--q", "1/1"], 0),
    ("simulate_q3_7_w150", ["simulate", "--q", "3/7", "--window", "-150", "150"], 0),
]


@pytest.mark.parametrize("name, argv, want_code", GOLDEN_RUNS)
def test_reports_match_the_recorded_golden_output(capsys, name, argv, want_code):
    # tests/data/golden_<name>.out is the byte-exact stdout of
    # `python -m qcplane.cli <argv>` recorded before the exact diagonal evaluator;
    # simulate_q3_7_w150, the one float simulate report, before the one-pass Band.gap;
    # bott and bott_exact again when the exact index replaced the float winding
    code, out = run(capsys, *argv)
    assert code == want_code
    assert out.encode() == (GOLDEN / f"golden_{name}.out").read_bytes()


def _not_strict_json(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_reports_are_strict_json_and_float_range_is_refused(capsys):
    for _, argv, want_code in GOLDEN_RUNS:
        code, out = run(capsys, *argv)
        assert code == want_code
        json.loads(out, parse_constant=_not_strict_json)
    # an estimate past float range, and a constant whose scaled denominator rounds
    # to 0.0, exit 2 instead of printing Infinity or "denominator vanishes"
    for lit in ("2^2000@0", "9" * 400 + "/(1+t)@0", "9" * 4300 + "@0"):
        assert cli.main(["norm", "--element", lit]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "float range" in captured.err, captured.err


def test_report_writer_makes_the_bytes_of_json_dumps(tmp_path, capsys):
    # json.dumps plus a newline, to stdout and to --out
    dest = tmp_path / "report.json"
    for doc in ({"b": [1, -2.5, -0.0, math.inf, math.nan, 10 ** 400, None, True],
                 "a": {"\u00e9\u2028\ud800\U0001f600": '"\\/\x00\x1f', "": (1, [])}}, [], "x"):
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        cli._emit(doc, None)
        assert capsys.readouterr().out == want
        cli._emit(doc, str(dest))
        assert dest.read_text(encoding="utf-8") == want


def test_report_writer_refuses_what_json_dumps_refuses(tmp_path):
    dest = tmp_path / "report.json"
    for doc in ({"a": {1, 2}}, [Fraction(1, 2)]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        for out in (None, str(dest)):
            with pytest.raises(TypeError):
                cli._emit(doc, out)


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


# who reads what; the option table in cli must agree with it
READS = {
    "simulate": {"q", "generators", "zero_mass", "window", "windows_sweep", "tolerance",
                 "exact_mode", "out", "spectra_out"},
    "norm": {"q", "generators", "zero_mass", "windows_sweep", "elements", "out"},
    "bott": {"q", "generators", "zero_mass", "window", "tolerance", "exact_mode", "bott_n",
             "bott_signs", "sample_exponent_range", "perturb", "out"},
    "limit": {"q", "tolerance", "seed", "limit_pairs", "limit_grid", "out"},
}

# a small valid value per option; limit runs only at q = 1
VALUES = {"q": "2/3", "generators": ["1"], "zero_mass": "1/3", "window": [-7, 7],
          "windows_sweep": [[-3, 3], [-5, 5]], "tolerance": 1e-9, "exact_mode": True,
          "elements": ["t@1"], "seed": 3, "bott_n": [1], "bott_signs": ["-"],
          "sample_exponent_range": 4, "limit_pairs": 2, "limit_grid": 3}


def _flag_argv(flag, value, tmp_path):
    if flag in ("--exact", "--float", "--perturb"):
        return [flag]
    if flag in ("--out", "--spectra-out"):
        return [flag, str(tmp_path / flag.strip("-"))]
    if flag == "--window":
        return [flag, *map(str, value)]
    if flag == "--element":
        return [flag, value[0]]
    return [flag, str(value)]


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:    # argparse refuses an unknown flag this way
        return exc.code


TABLE_CASES = [(command, o, flag) for command in READS for o in cli.OPTIONS
               for flag in [f for f, _ in o.flags] + ([None] if o.keyed else [])]


@pytest.mark.parametrize("command, option, flag", TABLE_CASES,
                         ids=[f"{c}:{flag or o.name}" for c, o, flag in TABLE_CASES])
def test_each_command_takes_exactly_the_options_it_reads(tmp_path, capsys, command, option,
                                                         flag):
    assert (command in option.readers) == (option.name in READS[command])
    value = "1/1" if option.name == "q" and command == "limit" else VALUES.get(option.name)
    if flag is None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({option.name: value}))
        named, argv = option.name, ["--config", str(cfgfile)]
    else:
        named, argv = flag, _flag_argv(flag, value, tmp_path)
    if command == "limit" and option.name != "q":
        argv = ["--q", "1/1", *argv]
    code = _exit_code([command, *argv])
    captured = capsys.readouterr()
    if option.name in READS[command]:
        assert code in (0, 3), captured.err
    else:
        assert code == 2 and captured.out == "" and named in captured.err, captured.err


@pytest.mark.parametrize("argv, cfg", [
    (["--window", "-9", "9"], {"windows_sweep": [[-3, 3]]}),
    ([], {"window": [-9, 9], "windows_sweep": [[-3, 3]]}),
])
def test_simulate_refuses_a_window_beside_a_sweep(tmp_path, capsys, argv, cfg):
    # simulate runs the sweep in place of the window, which would have no effect
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfgfile), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "window" in captured.err and "windows_sweep" in captured.err


DRAWN = {"q": st.sampled_from(["1/2", "2/3", "3/7", "1/1"]),
         "window": st.lists(st.integers(-8, 8), min_size=2, max_size=2),
         "limit_pairs": st.integers(1, 3)}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_random_invocations_exit_0_2_or_3_without_a_traceback(tmp_path, capsys, data):
    # any subset of the table's options, as a flag or a config key, on any command
    command = data.draw(st.sampled_from(sorted(READS)))
    rows = data.draw(st.lists(st.sampled_from(cli.OPTIONS), max_size=4,
                                  unique_by=lambda o: o.name))
    argv, cfg = [command], {}
    for o in rows:
        value = data.draw(DRAWN.get(o.name, st.just(VALUES.get(o.name))))
        form = data.draw(st.sampled_from([f for f, _ in o.flags] + ([None] if o.keyed else [])))
        if form is None:
            cfg[o.name] = value
        else:
            argv += _flag_argv(form, value, tmp_path)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _exit_code([*argv, "--config", str(cfgfile)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in captured.err
