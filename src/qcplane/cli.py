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
from collections import namedtuple
from dataclasses import make_dataclass
from fractions import Fraction

import numpy as np

from . import algebra, bott, qnormal, qspace, represent
from .errors import ConfigurationError, DomainError, EvaluationError, QcplaneError
from .qnormal import TruncationWindow
from .ratfunc import RationalFunction
from .scalars import format_rational, parse_rational

BOTT_SIGNS = {"+": 1, "-": -1, "1": 1, "-1": -1}

COVARIANCE_FAMILY = ("t", "t^2", "indicator", "lorentzian")

DEFAULT_SWEEP = ((-4, 4), (-8, 8), (-12, 12))


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


def _each(convert):
    def convert_all(raw):
        # a JSON string is iterable too, by character: refuse it
        if not isinstance(raw, list):
            raise TypeError(f"expected a list, got {raw!r}")
        return tuple(convert(x) for x in raw)
    return convert_all


_RATIONAL = _not_bool(parse_rational)
_EVERY = ("simulate", "norm", "bott", "limit")

# One row of the option table.  name is the RunConfig field and, when keyed, the
# config key.  Each flag is (flag, argparse keywords); its value, when set, lands
# in dest and replaces the key before conversion.  Only the commands in readers
# take the flags and the key.
Option = namedtuple("Option", "name readers default convert dest flags keyed",
                    defaults=(None, lambda raw: raw, None, (), True))

OPTIONS = (
    Option("q", _EVERY, "1/2", _RATIONAL, "q",
           (("--q", dict(help="deformation ratio as p/r")),)),
    Option("generators", ("simulate", "norm", "bott"), ["1"], _each(_RATIONAL)),
    Option("zero_mass", ("simulate", "norm", "bott"), "0", _RATIONAL),
    Option("window", ("simulate", "bott"), [-6, 6], _as_window, "window",
           (("--window", dict(nargs=2, type=int, metavar=("N_MIN", "N_MAX"))),)),
    Option("windows_sweep", ("simulate", "norm"), None,
           lambda raw: None if raw is None else _each(_as_window)(raw)),
    Option("tolerance", ("simulate", "bott", "limit"), 1e-12, _not_bool(float), "tol",
           (("--tol", dict(type=float,
                           help="tolerance on float values (default 1e-12): the relative "
                                "gaps of simulate, the absolute defects of bott and limit; "
                                "exact values must be 0")),)),
    Option("exact_mode", ("simulate", "bott"), False, _as_bool, "exact",
           (("--exact", dict(action="store_const", const=True, help="exact-rational mode")),
            ("--float", dict(action="store_const", const=False, help="floating mode")))),
    Option("elements", ("norm",), ["1/(1+t^2)@0"], _each(str), "element",
           (("--element", dict(action="append", metavar="EXPR@K",
                               help="algebra element literal (repeatable)")),)),
    Option("seed", ("limit",), 7, _as_int, "seed",
           (("--seed", dict(type=int, help="PRNG seed")),)),
    Option("bott_n", ("bott",), [1, 2, 3], _each(_as_int)),
    Option("bott_signs", ("bott",), ["+", "-"], _each(lambda s: BOTT_SIGNS[str(s)])),
    Option("sample_exponent_range", ("bott",), 25, _as_int),
    Option("limit_pairs", ("limit",), 20, _as_int),
    Option("limit_grid", ("limit",), 10, _as_int),
    Option("perturb", ("bott",), False, dest="perturb", keyed=False,
           flags=(("--perturb", dict(action="store_true",
                                     help="negative control: scale the projection by 2")),)),
    Option("out", _EVERY, dest="out", keyed=False,
           flags=(("--out", dict(help="write the JSON report here instead of stdout")),)),
    Option("spectra_out", ("simulate",), dest="spectra_out", keyed=False,
           flags=(("--spectra-out", dict(help="write grid spectra CSV here")),)),
)

RunConfig = make_dataclass("RunConfig", [o.name for o in OPTIONS], frozen=True,
                           namespace={"__module__": __name__})   # so that it pickles

# each option's default, converted once: immutable, so every run may share it
_DEFAULTS = {o.name: o.convert(o.default) for o in OPTIONS}

# the config keys each command reads; None, a caller that names no command, may give any
_KEYS = {command: frozenset(o.name for o in OPTIONS
                            if o.keyed and (command is None or command in o.readers))
         for command in (*_EVERY, None)}


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    """The RunConfig of one run: each option from its flag, else its config key, else its default.

    Only the values a flag or a key sets are converted; the defaults were at import.
    overrides.command, when present, names the command; a config key that command
    does not read is refused.
    """
    command = getattr(overrides, "command", None)
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

        unread = sorted(set(data) - _KEYS[command])
        if unread:
            raise ConfigurationError(f"{command or 'qcplane'} reads no config key {unread}; "
                                     f"it reads {sorted(_KEYS[command])}")

    values = dict(_DEFAULTS)
    for o in OPTIONS:
        flag = getattr(overrides, o.dest, None) if o.dest else None
        if flag is None and o.name not in data:
            continue
        try:
            values[o.name] = o.convert(data[o.name] if flag is None else flag)
        except (KeyError, TypeError, ValueError) as exc:
            source = f"config {o.name!r}" if flag is None else o.flags[0][0]
            raise ConfigurationError(f"{source} has a bad value: {exc}") from exc
    cfg = RunConfig(**values)

    if command == "simulate" and cfg.windows_sweep is not None and (
            "window" in data or getattr(overrides, "window", None) is not None):
        raise ConfigurationError("simulate runs windows_sweep in place of window: "
                                 "give --window or a window key, or windows_sweep")
    if not 0 < cfg.tolerance < math.inf:
        raise ConfigurationError(f"tolerance must be positive and finite, got {cfg.tolerance}")
    if cfg.sample_exponent_range < 1:
        raise ConfigurationError("sample_exponent_range must be at least 1")
    if cfg.limit_pairs < 1 or cfg.limit_grid < 2:
        raise ConfigurationError("limit needs limit_pairs >= 1 and limit_grid >= 2")
    if cfg.windows_sweep == ():
        raise ConfigurationError("windows_sweep must list at least one window")
    if not cfg.elements:
        raise ConfigurationError("elements must list at least one element")
    if not cfg.bott_n or not cfg.bott_signs or min(cfg.bott_n) < 1:
        raise ConfigurationError("bott needs nonempty bott_n and bott_signs, "
                                 "and every bott_n entry at least 1")
    return cfg


def _require_deformed(cfg: RunConfig, command: str) -> None:
    if cfg.q == 1:
        raise ConfigurationError(f"q = 1 is only valid for the limit command, not {command}")


def _provenance(identity: str, window: TruncationWindow, margin: int,
                exact: bool | None = None) -> dict:
    """The run's provenance; a mode only from a command that reads exact_mode."""
    out = {"identity_checked": identity, "window": [window.n_min, window.n_max],
           "interior_margin": margin}
    if exact is not None:
        out["mode"] = "exact" if exact else "float"
    return out


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
            cov[name], cov_abs[name] = qnormal.covariance_defects(T, f)
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
        "provenance": _provenance("zeta zeta* = q^2 zeta* zeta; "
                                  "u f(|zeta|) u* = f(q |zeta|); zeta = u |zeta|",
                                  windows[0], 1, cfg.exact_mode),
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
    mu = _measure(cfg)
    sweep = cfg.windows_sweep or tuple(_as_window(w) for w in DEFAULT_SWEEP)
    rows = []
    for lit in cfg.elements:
        a = algebra.parse_element(cfg.q, [lit])
        rep = represent.norm_estimate(a, sweep, mu)
        if not all(map(math.isfinite, rep.estimates)):
            raise EvaluationError("norm estimates leave float range")
        # no denominator has a root on [0, inf): only growth at infinity is unbounded
        rows.append({"element": lit, "windows": list(rep.window_sizes),
                     "estimates": list(rep.estimates), "converged": rep.converged,
                     "final": rep.final, "window_spans": [[w.n_min, w.n_max] for w in sweep],
                     "bounded": all(f.degree_num <= f.degree_den for _, f in a.terms)})
    return {
        "command": "norm",
        "provenance": _provenance("covariant representation norm sweep "
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
    if cfg.exact_mode:
        m = cfg.sample_exponent_range
        points = algebra.grid_sample_points(mu.support(), -m, m)
    else:
        T = qnormal.build(mu, None, cfg.window, exact=False)
    for n in cfg.bott_n:
        for sign in cfg.bott_signs:
            P = bott.bott_projection(n, sign, cfg.q)
            if cfg.perturb:
                P = bott.ProjectionCandidate(P.n, P.sign, P.q,
                                             bott.m2_scale(P.entries, 2))
            if cfg.exact_mode:
                rep = bott.verify_projection_exact(P, points)
                row = {"mode": "exact", "max_residue": format_rational(rep.max_residue),
                       "points_checked": rep.points_checked,
                       "passed": _passes(rep.max_residue, cfg.tolerance)}
            else:
                rep = bott.verify_projection_numeric(P, T)
                row = {"mode": "numeric", "max_residue": rep.max_defect, "points_checked": None,
                       "idempotency_defect": rep.idempotency_defect,
                       "selfadjointness_defect": rep.selfadjointness_defect,
                       "passed": _passes(rep.max_defect, cfg.tolerance)}
            rows.append({"n": n, "sign": "+" if sign > 0 else "-", "q": format_rational(cfg.q),
                         "index": bott.index(P), **row})
    return {
        "command": "bott",
        "provenance": _provenance("P P = P = P*", cfg.window, 2 * max(cfg.bott_n),
                                  cfg.exact_mode),
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
    elements = []
    for _ in range(cfg.limit_pairs):
        a = _random_classical_element(rng, cfg.q)
        b = _random_classical_element(rng, cfg.q)
        ab = algebra.multiply(a, b)
        ba = algebra.multiply(b, a)
        commutator_exact = max(commutator_exact, algebra.element_residual(ab, ba, sample))
        elements += (ab, a, b)
    re, im = algebra.classical_tables(elements, grid_r, grid_th)
    (ab_re, a_re, b_re), (ab_im, a_im, b_im) = ((x[0::3], x[1::3], x[2::3]) for x in (re, im))
    # |ab - a b| per cell, a b as Python's complex product; fmax passes over a NaN
    # as the scalar max(residue, gap) did
    gap = np.hypot(ab_re - (a_re * b_re - a_im * b_im), ab_im - (a_re * b_im + a_im * b_re))
    mult_residue = float(np.fmax.reduce(gap, axis=None, initial=0.0))
    diag = algebra.parse_element(cfg.q, ["(1+t)/(1+t^2)@0"])
    theta_independent = len(set(algebra.classical_table(diag, [0.0], grid_th)[0])) == 1
    passed = (_passes(commutator_exact, cfg.tolerance) and _passes(mult_residue, cfg.tolerance)
              and theta_independent)
    return {
        "command": "limit",
        "provenance": {"identity_checked": "commutators vanish at q = 1; "
                                           "evaluation multiplicative on the plane"},
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
        for o in OPTIONS:
            if name in o.readers:
                for flag, details in o.flags:
                    p.add_argument(flag, dest=o.dest, **details)
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
