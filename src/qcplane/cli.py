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
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, bott, qnormal, qspace, represent
from .errors import ConfigurationError, DomainError, EvaluationError, QcplaneError
from .qnormal import TruncationWindow
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
    windows_sweep: tuple[TruncationWindow, ...] | None
    tolerance: float
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


def _as_window(raw) -> TruncationWindow:
    try:
        lo, hi = int(raw[0]), int(raw[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigurationError(f"window must be a pair of integers, got {raw!r}") from exc
    return TruncationWindow(lo, hi)


def _as_bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError(f"expected true or false, got {raw!r}")
    return raw


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

    def pick(key, default, convert):
        try:
            return convert(data.get(key, default))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"config {key!r} has a bad value: {exc}") from exc

    def each(convert):
        return lambda raw: tuple(convert(x) for x in raw)

    q = pick("q", "1/2", parse_rational)
    generators = pick("generators", ["1"], each(parse_rational))
    zero_mass = pick("zero_mass", "0", parse_rational)
    window = pick("window", [-6, 6], _as_window)
    sweep = pick("windows_sweep", None, lambda raw: None if raw is None else each(_as_window)(raw))
    tolerance = pick("tolerance", 1e-12, float)
    exact_mode = pick("exact_mode", False, _as_bool)
    elements = pick("elements", [], each(str))
    seed = pick("seed", 7, int)
    bott_n = pick("bott_n", [1, 2, 3], each(int))
    bott_signs = pick("bott_signs", ["+", "-"], each(lambda s: BOTT_SIGNS[str(s)]))
    sample_range = pick("sample_exponent_range", 25, int)
    limit_pairs = pick("limit_pairs", 20, int)
    limit_grid = pick("limit_grid", 10, int)

    if getattr(overrides, "q", None) is not None:
        q = parse_rational(overrides.q)
    if getattr(overrides, "window", None) is not None:
        window = _as_window(overrides.window)
    if getattr(overrides, "tol", None) is not None:
        tolerance = float(overrides.tol)
    if getattr(overrides, "exact", None) is not None:
        exact_mode = bool(overrides.exact)
    if getattr(overrides, "element", None):
        elements = tuple(overrides.element)
    if getattr(overrides, "seed", None) is not None:
        seed = int(overrides.seed)

    if not 0 < q <= 1:
        raise ConfigurationError(f"q must lie in (0, 1], got {q}")
    if not 0 < tolerance < math.inf:
        raise ConfigurationError(f"tolerance must be positive and finite, got {tolerance}")
    if sample_range < 1:
        raise ConfigurationError("sample_exponent_range must be at least 1")
    if limit_pairs < 1 or limit_grid < 2:
        raise ConfigurationError("limit needs limit_pairs >= 1 and limit_grid >= 2")
    if not bott_n or not bott_signs or min(bott_n) < 1:
        raise ConfigurationError("bott needs nonempty bott_n and bott_signs, "
                                 "and every bott_n entry at least 1")
    low = q if q < 1 else 0
    for g in generators:
        if not low < g <= 1:
            raise ConfigurationError(f"generator {g} outside ({low}, 1]")
    if zero_mass < 0:
        raise ConfigurationError("zero_mass must be nonnegative")

    return RunConfig(q, generators, zero_mass, window, sweep, tolerance, exact_mode,
                     elements, seed, bott_n, bott_signs, sample_range,
                     bool(getattr(overrides, "perturb", False)), limit_pairs,
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


def _defect_json(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    return float(value)


def _measure(cfg: RunConfig) -> qspace.QInvariantMeasure:
    return qspace.uniform_measure(cfg.q, [format_rational(g) for g in cfg.generators],
                                  zero_mass=format_rational(cfg.zero_mass))


def _covariance_function(name: str, q: Fraction) -> algebra.CoefficientFunction:
    from .ratfunc import RationalFunction
    t = RationalFunction.variable()
    if name == "t":
        return algebra.RationalCoefficient(t)
    if name == "t^2":
        return algebra.RationalCoefficient(t * t)
    if name == "indicator":
        return algebra.IndicatorCoefficient(qspace.Interval.open_closed(q, 1))
    if name == "lorentzian":
        return algebra.RationalCoefficient(1 / (1 + t * t))
    raise ConfigurationError(f"unknown covariance test function {name!r}")


def cmd_simulate(cfg: RunConfig) -> tuple[dict, int]:
    """Relation, covariance and polar defects of the truncated model per window."""
    _require_deformed(cfg, "simulate")
    mu = _measure(cfg)
    windows = list(cfg.windows_sweep) if cfg.windows_sweep else [cfg.window]
    rows = []
    worst = 0.0
    failing: str | None = None
    for w in windows:
        T = qnormal.build(mu, None, w, exact=cfg.exact_mode)
        rel = qnormal.verify_relation(T)
        cov = {}
        for name in COVARIANCE_FAMILY:
            f = _covariance_function(name, cfg.q)
            cov[name] = qnormal.verify_covariance(T, f)
        pol = qnormal.polar_check(T)
        interiors = {"relation": rel.interior_defect, **cov,
                     "polar": pol.reconstruction_defect, "kernel": pol.kernel_defect}
        for name, d in interiors.items():
            size = float(d)
            if size > worst:
                worst = size
            if size > cfg.tolerance and failing is None:
                failing = f"{name} defect {size} at window [{w.n_min}, {w.n_max}]"
        rows.append({
            "window": [w.n_min, w.n_max],
            "dimension": T.dim,
            "relation": {"interior": _defect_json(rel.interior_defect),
                         "boundary": _defect_json(rel.boundary_defect)},
            "covariance": {name: _defect_json(d) for name, d in cov.items()},
            "polar": {"reconstruction": _defect_json(pol.reconstruction_defect),
                      "kernel": _defect_json(pol.kernel_defect)},
        })
        if cfg.spectra_out and w is windows[0]:
            with open(cfg.spectra_out, "w", encoding="utf-8", newline="") as fh:
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
        "passed": failing is None,
    }
    if failing is not None:
        report["failure"] = failing
    return report, 0 if failing is None else 3


def cmd_norm(cfg: RunConfig) -> tuple[dict, int]:
    """Norm estimates for configured elements over a growing window sweep."""
    _require_deformed(cfg, "norm")
    mu = _measure(cfg)
    sweep = cfg.windows_sweep or tuple(_as_window(w) for w in DEFAULT_SWEEP)
    literals = cfg.elements or ["1/(1+t^2)@0"]
    rows = []
    for lit in literals:
        a = algebra.parse_element(cfg.q, [lit] if isinstance(lit, str) else lit)
        rep = represent.norm_estimate(a, sweep, mu)
        row = rep.to_json(lit)
        # denominators have no root on [0, inf), so only growth at infinity
        # can make a coefficient unbounded
        row["bounded"] = all(f.rf.degree_num <= f.rf.degree_den for _, f in a.terms)
        row["window_spans"] = [[w.n_min, w.n_max] for w in sweep]
        rows.append(row)
    report = {
        "command": "norm",
        "provenance": _provenance(cfg, "covariant representation norm sweep "
                                       "(reduced = universal assumed: amenable scaling action)",
                                  sweep[-1], 0),
        "q": format_rational(cfg.q),
        "estimates_are_lower_bounds": True,
        "elements": rows,
    }
    return report, 0


def _bott_sample_points(cfg: RunConfig) -> list[Fraction]:
    m = cfg.sample_exponent_range
    pts = sorted({cfg.q ** e * x for e in range(-m, m + 1) for x in cfg.generators})
    return [Fraction(0)] + pts


def cmd_bott(cfg: RunConfig) -> tuple[dict, int]:
    """Projection verification, exact or represented, for the configured family."""
    _require_deformed(cfg, "bott")
    rows = []
    code = 0
    T = qnormal.build(_measure(cfg), None, cfg.window, exact=False)
    for n in cfg.bott_n:
        for sign in cfg.bott_signs:
            P = bott.bott_projection(n, sign, cfg.q)
            if cfg.perturb:
                P = bott.ProjectionCandidate(P.n, P.sign, P.q,
                                             bott.m2_scale(P.entries, 2))
            winding = bott.winding_diagnostic(P, T)
            if cfg.exact_mode:
                rep = bott.verify_projection_exact(P, _bott_sample_points(cfg))
                ok = rep.max_residue == 0
                rows.append(bott.projection_report(
                    P, "exact", format_rational(rep.max_residue), rep.points_checked,
                    winding, {"passed": ok}))
            else:
                rep = bott.verify_projection_numeric(P, T)
                ok = rep.max_defect <= cfg.tolerance
                rows.append(bott.projection_report(
                    P, "numeric", rep.max_defect, None, winding,
                    {"idempotency_defect": rep.idempotency_defect,
                     "selfadjointness_defect": rep.selfadjointness_defect,
                     "passed": ok}))
            if not ok:
                code = 3
    report = {
        "command": "bott",
        "provenance": _provenance(cfg, "P P = P = P*", cfg.window,
                                  2 * max(cfg.bott_n)),
        "q": format_rational(cfg.q),
        "tolerance": cfg.tolerance,
        "perturbed_control": cfg.perturb,
        "projections": rows,
        "passed": code == 0,
    }
    return report, code


def _random_classical_element(rng: random.Random, q: Fraction,
                              modes: int = 2) -> algebra.AlgebraElement:
    from .ratfunc import RationalFunction
    coeffs = {}
    for k in range(-modes, modes + 1):
        if rng.random() < 0.4:
            continue
        poly = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
        rf = sum((RationalFunction.monomial(d, c) for d, c in enumerate(poly) if c),
                 RationalFunction.constant(0))
        if not rf.is_zero:
            coeffs[k] = algebra.RationalCoefficient(rf)
    return algebra.element(q, coeffs)


def cmd_limit(cfg: RunConfig) -> tuple[dict, int]:
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
        resid = algebra.element_residual(ab, ba, sample)
        if not isinstance(resid, Fraction):
            raise QcplaneError("classical commutator residual left the rational field")
        commutator_exact = max(commutator_exact, resid)
        for r in grid_r:
            for th in grid_th:
                gap = abs(algebra.classical_eval(ab, r, th)
                          - algebra.classical_eval(a, r, th) * algebra.classical_eval(b, r, th))
                mult_residue = max(mult_residue, gap)
    diag = algebra.parse_element(cfg.q, ["(1+t)/(1+t^2)@0"])
    at_zero = {algebra.classical_eval(diag, 0.0, th) for th in grid_th}
    theta_independent = len(at_zero) == 1
    passed = (commutator_exact == 0 and mult_residue <= cfg.tolerance
              and theta_independent)
    report = {
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
    return report, 0 if passed else 3


DISPATCH = {
    "simulate": cmd_simulate,
    "norm": cmd_norm,
    "bott": cmd_bott,
    "limit": cmd_limit,
}


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
        p.add_argument("--tol", type=float, help="verification tolerance")
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


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None), args)
        report, code = DISPATCH[args.command](cfg)
        _emit(report, cfg.out)
        return code
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
