"""Configuration-driven command line front end.

Assembles the measure -> operator -> algebra -> verification pipeline and
emits deterministic JSON reports.  Exit codes: 0 success, 2 configuration
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, bott, qnormal, qspace, represent
from .errors import ConfigurationError, DomainError, EvaluationError, QcplaneError
from .qnormal import TruncationWindow
from .ratfunc import RationalFunction
from .scalars import format_rational, parse_rational

CONFIG_KEYS = frozenset({"q", "generators", "zero_mass", "window", "windows_sweep",
                         "tolerance", "exact_mode", "elements", "seed", "bott_n",
                         "bott_signs", "sample_exponent_range", "limit_pairs",
                         "limit_grid"})

BOTT_SIGNS = {"+": 1, "-": -1, "1": 1, "-1": -1}

COVARIANCE_FAMILY = ("t", "t^2", "indicator", "lorentzian")

DEFAULT_SWEEP = ((-4, 4), (-8, 8), (-12, 12))


@dataclass(frozen=True)
class RunConfig:
    q: Fraction
    generators: tuple[Fraction, ...]
    zero_mass: Fraction
    window: TruncationWindow
    window_given: bool
    windows_sweep: tuple[TruncationWindow, ...] | None
    tolerance: float
    tolerance_given: bool
    exact_mode: bool
    elements: tuple[str, ...]
    seed: int
    bott_n: tuple[int, ...]
    bott_signs: tuple[int, ...]
    sample_exponent_range: int
    perturb: bool
    limit_pairs: int
    limit_grid: int
    out: str | None
    spectra_out: str | None


def _as_int(raw) -> int:
    """A JSON integer: an int, or a float with no fractional part; never a boolean."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise TypeError(f"expected an integer, got {raw!r}")
    return raw


def _as_window(raw) -> TruncationWindow:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise TypeError(f"a window is a pair of integers, got {raw!r}")
    return TruncationWindow(_as_int(raw[0]), _as_int(raw[1]))


def _as_bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError(f"expected true or false, got {raw!r}")
    return raw


def _not_bool(convert):
    """convert, refusing a JSON boolean that Python would read as the number 0 or 1."""
    def checked(raw):
        if isinstance(raw, bool):
            raise TypeError(f"expected a number, got {raw!r}")
        return convert(raw)
    return checked


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")

        unknown = sorted(set(data) - CONFIG_KEYS)
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")

    # a set flag replaces its key, so it passes the key's conversion
    flags = {}
    for flag, key in (("q", "q"), ("window", "window"), ("tol", "tolerance"),
                      ("exact", "exact_mode"), ("element", "elements"), ("seed", "seed")):
        if getattr(overrides, flag, None) is not None:
            data[key], flags[key] = getattr(overrides, flag), f"--{flag}"
    window_given, tolerance_given = "window" in data, "tolerance" in data

    def pick(key, default, convert):
        try:
            return convert(data.get(key, default))
        except (KeyError, TypeError, ValueError) as exc:
            source = flags.get(key, f"config {key!r}")
            raise ConfigurationError(f"{source} has a bad value: {exc}") from exc

    def each(convert):
        def convert_all(raw):
            # a JSON string is iterable too, by character: refuse it
            if not isinstance(raw, list):
                raise TypeError(f"expected a list, got {raw!r}")
            return tuple(convert(x) for x in raw)
        return convert_all

    rational = _not_bool(parse_rational)
    q = pick("q", "1/2", rational)
    generators = pick("generators", ["1"], each(rational))
    zero_mass = pick("zero_mass", "0", rational)
    window = pick("window", [-6, 6], _as_window)
    sweep = pick("windows_sweep", None, lambda raw: None if raw is None else each(_as_window)(raw))
    tolerance = pick("tolerance", 1e-12, _not_bool(float))
    exact_mode = pick("exact_mode", False, _as_bool)
    elements = pick("elements", [], each(str))
    seed = pick("seed", 7, _as_int)
    bott_n = pick("bott_n", [1, 2, 3], each(_as_int))
    bott_signs = pick("bott_signs", ["+", "-"], each(lambda s: BOTT_SIGNS[str(s)]))
    sample_range = pick("sample_exponent_range", 25, _as_int)
    limit_pairs = pick("limit_pairs", 20, _as_int)
    limit_grid = pick("limit_grid", 10, _as_int)

    if not 0 < q <= 1:
        raise ConfigurationError(f"q must lie in (0, 1], got {q}")
    if not 0 < tolerance < math.inf:
        raise ConfigurationError(f"tolerance must be positive and finite, got {tolerance}")
    if sample_range < 1:
        raise ConfigurationError("sample_exponent_range must be at least 1")
    if limit_pairs < 1 or limit_grid < 2:
        raise ConfigurationError("limit needs limit_pairs >= 1 and limit_grid >= 2")
    if sweep == ():
        raise ConfigurationError("windows_sweep must list at least one window")
    if not bott_n or not bott_signs or min(bott_n) < 1:
        raise ConfigurationError("bott needs nonempty bott_n and bott_signs, "
                                 "and every bott_n entry at least 1")
    low = q if q < 1 else 0
    for g in generators:
        if not low < g <= 1:
            raise ConfigurationError(f"generator {g} outside ({low}, 1]")
    if zero_mass < 0:
        raise ConfigurationError("zero_mass must be nonnegative")

    return RunConfig(q, generators, zero_mass, window, window_given, sweep, tolerance,
                     tolerance_given, exact_mode, elements, seed, bott_n, bott_signs,
                     sample_range, bool(getattr(overrides, "perturb", False)), limit_pairs,
                     limit_grid, getattr(overrides, "out", None),
                     getattr(overrides, "spectra_out", None))


def _require_deformed(cfg: RunConfig, command: str) -> None:
    if cfg.q == 1:
        raise ConfigurationError(f"q = 1 is only valid for the limit command, not {command}")


def _provenance(cfg: RunConfig, identity: str, window: TruncationWindow,
                margin: int) -> dict:
    return {
        "identity_checked": identity,
        "mode": "exact" if cfg.exact_mode else "float",
        "window": [window.n_min, window.n_max],
        "interior_margin": margin,
    }


def _passes(value, tolerance: float) -> bool:
    """The one pass rule: an exact value passes iff it is 0, a float iff it is at most tolerance."""
    return value == 0 if isinstance(value, Fraction) else value <= tolerance


def _defect_digits(cfg: RunConfig, w: TruncationWindow) -> int:
    """A bound on the decimal digits of the exact defects of window w.

    The one nonzero exact defect, the relation's at the boundary, is a squared grid
    value q**n x with n_min < n <= n_max + 1, q = p/r and x = a/b: its numerator and
    denominator have at most 2 (|n| log10 max(p, r) + log10 max(a, b)) + 1 digits.
    """
    reach = max(abs(w.n_min), abs(w.n_max + 1)) * math.log10(max(cfg.q.as_integer_ratio()))
    widest = max((math.log10(max(x.as_integer_ratio())) for x in cfg.generators), default=0)
    return math.ceil(2 * (reach + widest)) + 1


def _defect_json(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    return float(value)


def _defect_rows(rel: qnormal.RelationReport, cov: dict, pol: qnormal.PolarReport) -> dict:
    return {"relation": {"interior": _defect_json(rel.interior_defect),
                         "boundary": _defect_json(rel.boundary_defect)},
            "covariance": {name: _defect_json(d) for name, d in cov.items()},
            "polar": {"reconstruction": _defect_json(pol.reconstruction_defect),
                      "kernel": _defect_json(pol.kernel_defect)}}


def _measure(cfg: RunConfig) -> qspace.QInvariantMeasure:
    return qspace.uniform_measure(cfg.q, cfg.generators, zero_mass=cfg.zero_mass)


_T = RationalFunction.variable()
# the members of the covariance family that do not depend on q, built once
_FIXED_COVARIANCE = {"t": algebra.RationalCoefficient(_T),
                     "t^2": algebra.RationalCoefficient(_T * _T),
                     "lorentzian": algebra.RationalCoefficient(1 / (1 + _T * _T))}


def _covariance_function(name: str, q: Fraction) -> algebra.CoefficientFunction:
    if name == "indicator":
        return algebra.IndicatorCoefficient(qspace.Interval.open_closed(q, 1))
    return _FIXED_COVARIANCE[name]


def cmd_simulate(cfg: RunConfig) -> dict:
    """Relation, covariance and polar defects of the truncated model per window."""
    _require_deformed(cfg, "simulate")
    windows = cfg.windows_sweep or (cfg.window,)
    limit = sys.get_int_max_str_digits()   # 0 when unlimited
    for w in windows:
        if cfg.exact_mode and 0 < limit < _defect_digits(cfg, w):
            raise ConfigurationError(f"window [{w.n_min}, {w.n_max}] is too wide for exact "
                                     f"mode: its defects pass Python's {limit}-digit int limit")
    mu = _measure(cfg)
    rows, failures = [], []
    worst = 0.0
    family = {name: _covariance_function(name, cfg.q) for name in COVARIANCE_FAMILY}
    for w in windows:
        T = qnormal.build(mu, None, w, exact=cfg.exact_mode)
        rel = qnormal.verify_relation(T)
        # gated and absolute defect per member; they differ only on a float model
        cov, cov_abs = {}, {}
        for name, f in family.items():
            cov[name], cov_abs[name] = qnormal.verify_covariance(T, f, with_absolute=True)
        pol = qnormal.polar_check(T)
        interiors = {"relation": rel.interior_defect, **cov,
                     "polar": pol.reconstruction_defect, "kernel": pol.kernel_defect}
        measure = "defect" if T.exact else "relative gap"
        for name, d in interiors.items():
            worst = max(worst, float(d))
            if not _passes(d, cfg.tolerance):
                failures.append(f"{name} {measure} {float(d)} at window [{w.n_min}, {w.n_max}]")
        row = {"window": [w.n_min, w.n_max], "dimension": T.dim, **_defect_rows(rel, cov, pol)}
        if not T.exact:
            row["absolute"] = _defect_rows(rel.absolute, cov_abs, pol.absolute)
        rows.append(row)
        if cfg.spectra_out and w is windows[0]:
            with _open_out(cfg.spectra_out, newline="") as fh:
                qnormal.spectra_to_csv(T, fh)
    report = {
        "command": "simulate",
        "provenance": _provenance(cfg, "zeta zeta* = q^2 zeta* zeta; "
                                       "u f(|zeta|) u* = f(q |zeta|); zeta = u |zeta|",
                                  windows[0], 1),
        "q": format_rational(cfg.q),
        "generators": [format_rational(g) for g in cfg.generators],
        "zero_mass": format_rational(cfg.zero_mass),
        "tolerance": cfg.tolerance,
        "windows": rows,
        "max_interior_defect": worst,
        "passed": not failures,
    }
    if failures:
        report["failure"] = failures[0]
    return report


def cmd_norm(cfg: RunConfig) -> dict:
    """Norm estimates for configured elements over a growing window sweep."""
    _require_deformed(cfg, "norm")
    if cfg.window_given:
        raise ConfigurationError("norm sweeps the windows of windows_sweep; "
                                 "--window and the window key have no effect on it")
    if cfg.tolerance_given:
        raise ConfigurationError("norm reports estimates and gates nothing; "
                                 "--tol and the tolerance key have no effect on it")
    if cfg.exact_mode:
        raise ConfigurationError("norm estimates are float; it takes no --exact or exact_mode")
    mu = _measure(cfg)
    sweep = cfg.windows_sweep or tuple(_as_window(w) for w in DEFAULT_SWEEP)
    literals = cfg.elements or ["1/(1+t^2)@0"]
    rows = []
    for lit in literals:
        a = algebra.parse_element(cfg.q, [lit])
        rep = represent.norm_estimate(a, sweep, mu)
        row = rep.to_json(lit)
        # denominators have no root on [0, inf), so only growth at infinity
        # can make a coefficient unbounded
        row["bounded"] = all(f.degree_num <= f.degree_den for _, f in a.terms)
        row["window_spans"] = [[w.n_min, w.n_max] for w in sweep]
        rows.append(row)
    return {
        "command": "norm",
        "provenance": _provenance(cfg, "covariant representation norm sweep "
                                       "(reduced = universal assumed: amenable scaling action)",
                                  sweep[-1], 0),
        "q": format_rational(cfg.q),
        "estimates_are_lower_bounds": True,
        "elements": rows,
    }


def cmd_bott(cfg: RunConfig) -> dict:
    """Projection verification, exact or represented, for the configured family."""
    _require_deformed(cfg, "bott")
    rows = []
    mu = _measure(cfg)
    T = qnormal.build(mu, None, cfg.window, exact=False)
    if cfg.exact_mode:
        m = cfg.sample_exponent_range
        points = algebra.grid_sample_points(mu.support(), -m, m)
    for n in cfg.bott_n:
        for sign in cfg.bott_signs:
            P = bott.bott_projection(n, sign, cfg.q)
            if cfg.perturb:
                P = bott.ProjectionCandidate(P.n, P.sign, P.q,
                                             bott.m2_scale(P.entries, 2))
            winding = bott.winding_diagnostic(P, T)
            if cfg.exact_mode:
                rep = bott.verify_projection_exact(P, points)
                rows.append(bott.projection_report(
                    P, "exact", format_rational(rep.max_residue), rep.points_checked,
                    winding, {"passed": _passes(rep.max_residue, cfg.tolerance)}))
            else:
                rep = bott.verify_projection_numeric(P, T)
                rows.append(bott.projection_report(
                    P, "numeric", rep.max_defect, None, winding,
                    {"idempotency_defect": rep.idempotency_defect,
                     "selfadjointness_defect": rep.selfadjointness_defect,
                     "passed": _passes(rep.max_defect, cfg.tolerance)}))
    return {
        "command": "bott",
        "provenance": _provenance(cfg, "P P = P = P*", cfg.window,
                                  2 * max(cfg.bott_n)),
        "q": format_rational(cfg.q),
        "tolerance": cfg.tolerance,
        "perturbed_control": cfg.perturb,
        "projections": rows,
        "passed": all(row["passed"] for row in rows),
    }


def _random_classical_element(rng: random.Random, q: Fraction) -> algebra.AlgebraElement:
    coeffs = {}
    for k in range(-2, 3):
        if rng.random() < 0.4:
            continue
        coeffs[k] = algebra.RationalCoefficient(RationalFunction(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)], (1,)))
    return algebra.element(q, coeffs)   # which drops the zero coefficients


def cmd_limit(cfg: RunConfig) -> dict:
    """Classical-limit checks at q = 1: commutativity and multiplicative evaluation."""
    if cfg.q != 1:
        raise ConfigurationError("limit requires q = 1")
    rng = random.Random(cfg.seed)
    sample = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
              Fraction(3, 2), Fraction(2)]
    grid_r = [0.1 + 2.9 * i / (cfg.limit_grid - 1) for i in range(cfg.limit_grid)]
    grid_th = [2 * math.pi * i / cfg.limit_grid for i in range(cfg.limit_grid)]
    commutator_exact = Fraction(0)
    mult_residue = 0.0
    for _ in range(cfg.limit_pairs):
        a = _random_classical_element(rng, cfg.q)
        b = _random_classical_element(rng, cfg.q)
        ab = algebra.multiply(a, b)
        ba = algebra.multiply(b, a)
        commutator_exact = max(commutator_exact, algebra.element_residual(ab, ba, sample))
        for row_ab, row_a, row_b in zip(*(algebra.classical_table(x, grid_r, grid_th)
                                          for x in (ab, a, b))):
            for at_ab, at_a, at_b in zip(row_ab, row_a, row_b):
                mult_residue = max(mult_residue, abs(at_ab - at_a * at_b))
    diag = algebra.parse_element(cfg.q, ["(1+t)/(1+t^2)@0"])
    theta_independent = len(set(algebra.classical_table(diag, [0.0], grid_th)[0])) == 1
    passed = (_passes(commutator_exact, cfg.tolerance) and _passes(mult_residue, cfg.tolerance)
              and theta_independent)
    return {
        "command": "limit",
        "provenance": _provenance(cfg, "commutators vanish at q = 1; "
                                       "evaluation multiplicative on the plane",
                                  cfg.window, 0),
        "q": format_rational(cfg.q),
        "pairs": cfg.limit_pairs,
        "commutator_max_residue": format_rational(commutator_exact),
        "eval_multiplicativity_residue": mult_residue,
        "theta_independent_at_origin": theta_independent,
        "tolerance": cfg.tolerance,
        "passed": passed,
    }


DISPATCH = {"simulate": cmd_simulate, "norm": cmd_norm, "bott": cmd_bott, "limit": cmd_limit}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcplane",
        description="Verification toolkit for the deformed complex plane: "
                    "measures, truncated operators, crossed-product algebra, "
                    "and Bott projections.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("simulate", "build the truncated operator and report defects"),
            ("norm", "norm estimates over a window sweep"),
            ("bott", "verify the Bott projection family"),
            ("limit", "classical-limit checks at q = 1")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--q", help="deformation ratio as p/r")
        p.add_argument("--window", nargs=2, type=int, metavar=("N_MIN", "N_MAX"))
        p.add_argument("--tol", type=float,
                       help="verification tolerance on float values (default 1e-12): the "
                            "relative gap of each identity for simulate, the absolute "
                            "defect for bott and limit; exact values must be 0; norm "
                            "takes none")
        p.add_argument("--exact", action="store_const", const=True, default=None,
                       help="exact-rational mode")
        p.add_argument("--float", dest="exact", action="store_const", const=False,
                       help="floating mode")
        p.add_argument("--element", action="append", metavar="EXPR@K",
                       help="algebra element literal (repeatable)")
        p.add_argument("--seed", type=int, help="PRNG seed")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if name == "simulate":
            p.add_argument("--spectra-out", dest="spectra_out",
                           help="write grid spectra CSV here")
        if name == "bott":
            p.add_argument("--perturb", action="store_true",
                           help="negative control: scale the projection by 2")
    return parser


def _open_out(path: str, newline: str | None = None):
    """Open path for writing; an unwritable path is a configuration error."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from exc


def _probe_out(path: str) -> None:
    """Refuse an output path that cannot be written, before the command runs.

    access(2) is asked about the file, or about its directory while there is
    no file, so the probe creates nothing: a run that fails later leaves no
    empty report behind.  The write at the end still reports what it meets.
    """
    if os.path.isdir(path):
        raise ConfigurationError(f"cannot write {path}: Is a directory")
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if not os.access(target, os.W_OK):
        why = "Permission denied" if os.path.exists(target) else "No such directory"
        raise ConfigurationError(f"cannot write {path}: {why}")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with _open_out(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None), args)
        for path in (cfg.out, cfg.spectra_out):
            if path:
                _probe_out(path)
        report = DISPATCH[args.command](cfg)
        _emit(report, cfg.out)
        return 0 if report.get("passed", True) else 3
    except ConfigurationError as exc:
        sys.stderr.write(f"qcplane: configuration error: {exc}\n")
        return 2
    except (DomainError, EvaluationError) as exc:
        sys.stderr.write(f"qcplane: invalid input: {exc}\n")
        return 2
    except QcplaneError as exc:
        sys.stderr.write(f"qcplane: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
