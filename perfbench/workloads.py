"""Seeded job lists for the three benchmark workloads, and the oracle of every job.

A workload is a sequence of rounds.  Every round holds the same job shapes
(the sizes that set a job's cost); the seed draws only what does not change
the cost much: element coefficients, which of two ratios a shape gets in a
round, a generator, the job order.  So every seed times the same mix, and the
percentiles of job time stay comparable between seeds.

Jobs reach qcplane through its public entry points: ``qcplane.cli.main`` for
everything a subcommand can express (with ``--out``, so config parsing and JSON
output are part of the job), and the library calls of the acceptance tests for
the rest.  A job returns an exit code and the bytes of its JSON report; the
oracles below judge those bytes afterwards, outside the timed region, from the
mathematics alone (exact defects are the integer 0, numeric defects stay within
the report's tolerance, a diagonal norm is the largest value on the grid, the
perturbed projection fails).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import qcplane.cli as cli
import qcplane.matrixops as mo
from qcplane import algebra, qnormal, qspace
from qcplane import represent as rp
from qcplane.errors import DomainError, EvaluationError
from qcplane.qnormal import TruncationWindow
from qcplane.scalars import format_rational

WORKLOADS = ("exact-operator", "exact-algebra", "float-spectral")

# Failures the program shows at the commit that introduced this benchmark.  A
# job tagged with one of these ids that fails with the recorded signature
# counts in fail_ratio but not as an unexpected failure.
KNOWN_DEFECTS = {
    "float-gate": ("float simulate with q in {2/3, 3/7} exits 3: the absolute 1e-12 "
                   "gate is applied to defects of operators with norm up to "
                   "(1/q)^(2*150); the exact model satisfies the relation", "exit 3"),
    "pole-on-X": ("an element whose coefficient has a pole on the spectral set X, at "
                  "a level outside the window or grid, is accepted: the denominator "
                  "check samples 7 fixed points", "accepted"),
}

EXACT_RATIOS = ("1/2", "3/4")
SECOND_GENERATORS = ("5/6", "7/8", "9/10")
FLOAT_RATIOS = ("1/2", "2/3", "3/7")
BOTT_RATIOS = ("1/2", "2/3", "9/10")
NORM_SWEEP = ((-64, 64), (-128, 128), (-200, 200))
NORM_REL_TOL = 1e-12
IMAGE_REL_TOL = 1e-10
ROUNDTRIP_REL_TOL = 1e-9

# Rounds timed by a run of REFERENCE_SECONDS: at least 100 jobs, whose two
# passes take about that long.  A run of S seconds times round(S / 30) times
# as many, and never fewer.
REFERENCE_SECONDS = 30
ROUNDS = {"exact-operator": 3, "exact-algebra": 7, "float-spectral": 5}
# Rounds timed twice by a traced run (untraced, then traced).
TRACE_ROUNDS = {"exact-operator": 1, "exact-algebra": 2, "float-spectral": 4}

# Per-layer metrics that must be nonzero in a traced run of each workload: the
# layer -> workload map of the benchmark's notes (README.md).
def _calls(*names: str) -> tuple[str, ...]:
    return tuple(f"{n}.calls" for n in names)


_EVERYWHERE = _calls("cli.main", "cli.load_config", "qspace.uniform_measure", "qspace.contains")
REQUIRED_SPANS = {
    "exact-operator": _EVERYWHERE + _calls(
        "qnormal.build", "qnormal.verify_relation", "qnormal.verify_covariance",
        "qnormal.polar_check", "qnormal.spectral_function",
        "matrixops.adjoint", "matrixops.scale", "matrixops.compress", "matrixops.defect_norm",
        "matrixops.shift_power", "matrixops.to_float", "matrixops.max_entry_gap",
        "represent.represent", "ratfunc.RationalFunction.evaluate") + ("represent.dense_ops",),
    "exact-algebra": _EVERYWHERE + _calls(
        "algebra.multiply", "algebra.adjoint", "algebra.element_residual",
        "algebra.parse_element",
        "ratfunc.RationalFunction.__mul__", "ratfunc.RationalFunction.__add__",
        "ratfunc.RationalFunction.evaluate", "ratfunc.RationalFunction.substitute_scale",
        "ratfunc.RationalFunction.denominator_spotcheck",
        "scalars.RationalComplex.__mul__", "scalars.RationalComplex.__add__",
        "scalars.RationalComplex.__truediv__",
        "bott.bott_projection", "bott.verify_projection_exact") + ("ratfunc.max_degree",),
    "float-spectral": _EVERYWHERE + _calls(
        "matrixops.to_float", "represent.represent", "represent.norm_estimate",
        "represent.z_transform", "represent.pi_image",
        "bott.verify_projection_numeric", "bott.winding_diagnostic") + ("represent.lapack_s",),
}


@dataclass(frozen=True)
class Job:
    jid: str
    kind: str
    params: dict
    known_defect: str | None = None


@dataclass
class Prepared:
    """Generated and validated inputs of one workload."""

    rounds: list[list[Job]]
    workdir: Path
    digest: str
    measures: dict = field(default_factory=dict)     # q -> measure with generator 1


# ----------------------------------------------------------------- literals

def coefficient_literal(rng: random.Random, with_denominator: bool) -> str:
    """Degree-2 polynomial in t, over 1 + c t^2 when with_denominator.

    The coefficient of t^d is n/(d + 2) with a random n in +-1..3: a fixed
    denominator per degree keeps the size of the exact fractions, and so the
    cost of a job, the same from draw to draw.
    """
    terms = []
    for d in range(3):
        c = f"({rng.choice((-3, -2, -1, 1, 2, 3))}/{d + 2})"
        terms.append(c if d == 0 else f"{c}*t^{d}")
    num = "+".join(terms)
    if with_denominator:
        return f"({num})/(1+{rng.randint(1, 3)}*t^2)"
    return f"({num})"


def element_literals(rng: random.Random, n_modes: int, span: int,
                     den_first: bool) -> list[str]:
    """n_modes distinct modes in [-span, span], the largest |k| first; denominators alternate.

    The mode sizes are fixed by (n_modes, span) because a represented mode k
    costs |k| dense shift products: only the coefficients are drawn.
    """
    by_size = [k for m in range(span, -1, -1) for k in ((m, -m) if m else (0,))]
    sign = rng.choice((1, -1))
    modes = [sign * k for k in by_size[:n_modes]]
    return [f"{coefficient_literal(rng, (i % 2 == 0) == den_first)}@{k}"
            for i, k in enumerate(modes)]


def bounded_literal(rng: random.Random, mode: int) -> tuple[str, tuple[int, int, int, int]]:
    """(a0 + a1 t)/(b0 + b2 t^2) at a mode: bounded on [0, inf), no real pole there."""
    a0 = rng.choice([-3, -2, -1, 1, 2, 3])
    a1 = rng.choice([-3, -2, -1, 1, 2, 3])
    b0 = rng.randint(1, 4)
    b2 = rng.randint(1, 4)
    return f"({a0}+({a1})*t)/({b0}+{b2}*t^2)@{mode}", (a0, a1, b0, b2)


def pole_literal(q: Fraction, level: int) -> tuple[str, Fraction]:
    """1/(t - r) with r = q**level, a point of X when the generator 1 is in X."""
    r = q ** level
    return f"1/({r.denominator}*t-{r.numerator})@0", r


# --------------------------------------------------------------- generators

def _exact_operator_round(rng: random.Random, r: int) -> list[Job]:
    """Every shape once per ratio: q changes the size of the exact fractions,
    so a round that holds both ratios costs the same in every seed."""
    jobs = []
    for q in EXACT_RATIOS:
        tag = f"r{r}-q{q.replace('/', '_')}"
        # simulate --exact: one generator at windows +-3..+-6 (dim 7-13), two at +-2 (dim 10).
        for n_gens, h in [(1, h) for h in range(3, 7)] + [(2, 2)]:
            gens = ["1"] if n_gens == 1 else ["1", rng.choice(SECOND_GENERATORS)]
            jobs.append(Job(f"{tag}-sim-{n_gens}g-h{h}", "sim-exact",
                            {"command": "simulate", "q": q, "window": [-h, h], "exact": True,
                             "config": {"generators": gens}}))
        # criterion-05 style representation checks at dim 9 and 13 with 1-3 modes;
        # mode span s keeps the product's interior nonempty (2 s < h).  The
        # heaviest shape comes twice, so that the p90 falls inside a block of
        # like jobs rather than on the gap between two kinds.
        checks = [(4, 1, 1, "adj"), (4, 1, 1, "prod"), (4, 2, 2, "prod"), (4, 2, 3, "adj"),
                  (5, 2, 1, "adj"), (5, 2, 2, "adj"), (5, 2, 1, "prod"), (5, 2, 3, "adj"),
                  (5, 2, 2, "prod"), (5, 2, 3, "prod"), (5, 2, 3, "prod")]
        for i, (h, span, n_modes, kind) in enumerate(checks):
            den = n_modes % 2 == 0
            params = {"q": q, "window": [-h, h], "a": element_literals(rng, n_modes, span, den)}
            if kind == "prod":
                params["b"] = element_literals(rng, n_modes, span, not den)
            jobs.append(Job(f"{tag}-{kind}{i}-h{h}-m{n_modes}",
                            "rep-product" if kind == "prod" else "rep-adjoint", params))
        h = 5
        lit, pole = pole_literal(Fraction(q), -(h + 3))
        jobs.append(Job(f"{tag}-pole-h{h}", "rep-pole",
                        {"q": q, "window": [-h, h], "pole": format_rational(pole),
                         "a": [lit] + element_literals(rng, 1, 2, True)}, "pole-on-X"))
    return jobs


def _exact_algebra_round(rng: random.Random, r: int) -> list[Job]:
    jobs = []
    phase = rng.randrange(3)
    # Associativity triples with 1-3 modes and anti-homomorphism checks with
    # 1-5 modes, on grids of 9-17 levels.  The heaviest triple comes twice, so
    # that the p90 falls inside a block of like jobs, and the lightest twice,
    # so that the median falls inside one too.
    for i, n_modes in enumerate((1, 1, 2, 3, 3)):
        m = 3 + n_modes                            # grid levels -m..m: 9..17 points
        den = (n_modes + r) % 2 == 0
        jobs.append(Job(f"r{r}-assoc{i}-m{n_modes}", "assoc",
                        {"q": "1/2", "levels": [-m, m],
                         "a": element_literals(rng, n_modes, 3, den),
                         "b": element_literals(rng, n_modes, 3, not den),
                         "c": element_literals(rng, n_modes, 3, den)}))
    for n_modes in range(1, 6):
        m = 3 + n_modes
        den = (n_modes + r) % 2 == 1
        jobs.append(Job(f"r{r}-antihom-m{n_modes}", "antihom",
                        {"q": "1/2", "levels": [-m, m],
                         "a": element_literals(rng, n_modes, 3, den),
                         "b": element_literals(rng, n_modes, 3, not den)}))
    for n in (1, 2, 3):
        q = BOTT_RATIOS[(n + r + phase) % 3]
        jobs.append(Job(f"r{r}-bott-exact-n{n}", "bott-exact",
                        {"command": "bott", "q": q, "exact": True,
                         "config": {"bott_n": [n], "sample_exponent_range": 25}}))
    jobs.append(Job(f"r{r}-limit", "limit",
                    {"command": "limit", "q": "1/1", "seed": rng.randrange(10 ** 6),
                     "config": {"limit_pairs": 6}}))
    # The pole sits at level -(m + 5): the mode shifts of a product (|n| <= 3)
    # keep it off the grid and off the 7 points the denominator check samples.
    m = 6
    lit, pole = pole_literal(Fraction(1, 2), -(m + 5))
    jobs.append(Job(f"r{r}-pole", "residual-pole",
                    {"q": "1/2", "levels": [-m, m], "pole": format_rational(pole),
                     "a": [lit] + element_literals(rng, 2, 3, True),
                     "b": element_literals(rng, 2, 3, False)}, "pole-on-X"))
    return jobs


def _float_spectral_round(rng: random.Random, r: int) -> list[Job]:
    jobs = []
    phase = rng.randrange(3)
    for depth in (1, 2, 3):
        for j in range(2):
            q = FLOAT_RATIOS[(depth + j + r + phase) % 3]
            lit, coeffs = bounded_literal(rng, 0)
            jobs.append(Job(f"r{r}-norm-d{depth}-{j}", "norm",
                            {"command": "norm", "q": q, "element": [lit], "coeffs": coeffs,
                             "config": {"windows_sweep": [list(w) for w in NORM_SWEEP[:depth]]}}))
    for band in (50, 100, 150):
        for q in FLOAT_RATIOS:
            h = band - rng.randint(0, 10)
            jobs.append(Job(f"r{r}-sim-h{band}-q{q.replace('/', '_')}", "sim-float",
                            {"command": "simulate", "q": q, "window": [-h, h], "exact": False},
                            None if q == "1/2" else "float-gate"))
    for n in (1, 2, 3):
        q = FLOAT_RATIOS[(n + r + phase) % 3]
        jobs.append(Job(f"r{r}-bott-n{n}", "bott-numeric",
                        {"command": "bott", "q": q, "window": [-100, 100], "exact": False,
                         "config": {"bott_n": [n]}}))
    jobs.append(Job(f"r{r}-bott-perturb", "bott-perturb",
                    {"command": "bott", "q": FLOAT_RATIOS[(r + phase) % 3],
                     "window": [-100, 100], "exact": False, "perturb": True,
                     "config": {"bott_n": [1 + (r + phase) % 3]}}))
    for h in (25, 50, 75):
        q = FLOAT_RATIOS[(h // 25 + r + phase) % 3]
        lits = [bounded_literal(rng, k)[0] for k in (-1, 0, 2)]
        jobs.append(Job(f"r{r}-roundtrip-h{h}", "roundtrip",
                        {"q": q, "window": [-h, h], "a": lits}))
    q = Fraction(FLOAT_RATIOS[(r + phase) % 3])
    lit, pole = pole_literal(q, -(NORM_SWEEP[-1][1] + 10))
    jobs.append(Job(f"r{r}-norm-pole", "norm-pole",
                    {"command": "norm", "q": format_rational(q), "element": [lit],
                     "pole": format_rational(pole),
                     "config": {"windows_sweep": [list(w) for w in NORM_SWEEP]}},
                    "pole-on-X"))
    return jobs


GENERATORS = {
    "exact-operator": _exact_operator_round,
    "exact-algebra": _exact_algebra_round,
    "float-spectral": _float_spectral_round,
}


def n_rounds(workload: str, seconds: float) -> int:
    return ROUNDS[workload] * max(1, round(seconds / REFERENCE_SECONDS))


def generate(workload: str, seed: int, seconds: float) -> list[list[Job]]:
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for r in range(n_rounds(workload, seconds)):
        jobs = GENERATORS[workload](rng, r)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def digest(rounds: list[list[Job]]) -> str:
    blob = json.dumps([[j.jid, j.kind, j.params, j.known_defect] for rnd in rounds for j in rnd],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ set-up

def _overrides(job: Job) -> argparse.Namespace:
    """The flags of a CLI job as the namespace cli.load_config reads."""
    p = job.params
    return argparse.Namespace(
        q=p.get("q"), window=p.get("window"), tol=None, exact=p.get("exact"),
        element=p.get("element"), seed=p.get("seed"), perturb=p.get("perturb", False),
        out=None, spectra_out=None)


def _argv(job: Job, workdir: Path) -> list[str]:
    p = job.params
    argv = [p["command"], "--config", str(workdir / f"{job.jid}.json")]
    if "q" in p:
        argv += ["--q", p["q"]]
    if "window" in p:
        argv += ["--window", str(p["window"][0]), str(p["window"][1])]
    if p.get("exact") is True:
        argv.append("--exact")
    elif p.get("exact") is False:
        argv.append("--float")
    for lit in p.get("element") or []:
        argv += ["--element", lit]
    if "seed" in p:
        argv += ["--seed", str(p["seed"])]
    if p.get("perturb"):
        argv.append("--perturb")
    return argv + ["--out", str(workdir / f"{job.jid}.out.json")]


def prepare(workload: str, seed: int, seconds: float, workdir: Path) -> Prepared:
    """Generate the rounds, write each CLI job's config, and validate every input.

    Validation uses the program's public parsers: ``cli.load_config`` for each
    config, ``qspace.uniform_measure`` for each model, ``qspace.contains`` for
    every residual grid point and every planted pole (which must lie on X).
    """
    rounds = generate(workload, seed, seconds)
    workdir.mkdir(parents=True, exist_ok=True)
    prep = Prepared(rounds, workdir, digest(rounds))
    for jobs in rounds:
        for job in jobs:
            p = job.params
            if "command" in p:
                path = workdir / f"{job.jid}.json"
                path.write_text(json.dumps(p.get("config", {}), sort_keys=True))
                cli.load_config(str(path), _overrides(job))
            if "command" in p and "pole" not in p:
                continue
            if p["q"] not in prep.measures:
                prep.measures[p["q"]] = qspace.uniform_measure(p["q"], ["1"])
            X = prep.measures[p["q"]].support()
            if "levels" in p:
                pts = algebra.grid_sample_points(X, *p["levels"])
                if not all(qspace.contains(X, t) for t in pts):
                    raise ValueError(f"{job.jid}: grid point outside X")
            if "pole" in p and not qspace.contains(X, p["pole"]):
                raise ValueError(f"{job.jid}: planted pole is not on X")
    return prep


# ---------------------------------------------------------------- execution

def _json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _exact_model(prep: Prepared, p: dict) -> qnormal.TruncatedQNormal:
    mu = prep.measures[p["q"]]
    return qnormal.build(mu, None, TruncationWindow(*p["window"]), exact=True)


def _lib_rep_product(prep: Prepared, p: dict) -> dict:
    T = _exact_model(prep, p)
    a = algebra.parse_element(p["q"], p["a"])
    b = algebra.parse_element(p["q"], p["b"])
    Ma, Mb = rp.represent(a, T), rp.represent(b, T)
    Mab = rp.represent(algebra.multiply(a, b), T)
    idx = T.interior_indices(max(a.mode_span + b.mode_span, 1))
    gap = mo.max_entry_gap(mo.compress(Mab, idx), mo.compress(Ma @ Mb, idx))
    return {"dim": T.dim, "interior": len(idx), "gap": format_rational(gap)}


def _adjoint_check(T, a) -> dict:
    Ma = rp.represent(a, T)
    Mstar = rp.represent(algebra.adjoint(a), T)
    idx = T.interior_indices(max(a.mode_span, 1))
    gap = mo.max_entry_gap(mo.compress(Mstar, idx), mo.compress(mo.adjoint(Ma), idx))
    dense = mo.to_float(Ma)
    image = rp.represent(a, T.as_float())
    return {"dim": T.dim, "interior": len(idx), "gap": format_rational(gap),
            "float_gap": mo.max_entry_gap(dense, image),
            "float_scale": float(np.max(np.abs(dense))) if dense.size else 0.0}


def _lib_rep_adjoint(prep: Prepared, p: dict) -> dict:
    return _adjoint_check(_exact_model(prep, p), algebra.parse_element(p["q"], p["a"]))


def _parse_or_reject(q, literals):
    try:
        return algebra.parse_element(q, literals)
    except (DomainError, EvaluationError):
        return None


def _lib_rep_pole(prep: Prepared, p: dict) -> dict:
    a = _parse_or_reject(p["q"], p["a"])
    if a is None:
        return {"verdict": "rejected"}
    try:
        checked = _adjoint_check(_exact_model(prep, p), a)
    except EvaluationError:
        return {"verdict": "rejected"}
    return {"verdict": "accepted", **checked}


def _residual_json(r) -> str | float:
    return format_rational(r) if isinstance(r, Fraction) else float(r)


def _grid(prep: Prepared, p: dict):
    X = prep.measures[p["q"]].support()
    return algebra.grid_sample_points(X, *p["levels"])


def _lib_assoc(prep: Prepared, p: dict) -> dict:
    a, b, c = (algebra.parse_element(p["q"], p[k]) for k in "abc")
    lhs = algebra.multiply(algebra.multiply(a, b), c)
    rhs = algebra.multiply(a, algebra.multiply(b, c))
    pts = _grid(prep, p)
    return {"points": len(pts), "residual": _residual_json(algebra.element_residual(lhs, rhs, pts))}


def _antihom(prep: Prepared, p: dict, a, b) -> dict:
    pts = _grid(prep, p)
    lhs = algebra.adjoint(algebra.multiply(a, b))
    rhs = algebra.multiply(algebra.adjoint(b), algebra.adjoint(a))
    return {"points": len(pts),
            "residual": _residual_json(algebra.element_residual(lhs, rhs, pts)),
            "double_adjoint": _residual_json(
                algebra.element_residual(algebra.adjoint(algebra.adjoint(a)), a, pts))}


def _lib_antihom(prep: Prepared, p: dict) -> dict:
    a, b = (algebra.parse_element(p["q"], p[k]) for k in "ab")
    return _antihom(prep, p, a, b)


def _lib_residual_pole(prep: Prepared, p: dict) -> dict:
    a = _parse_or_reject(p["q"], p["a"])
    if a is None:
        return {"verdict": "rejected"}
    try:
        checked = _antihom(prep, p, a, algebra.parse_element(p["q"], p["b"]))
    except EvaluationError:
        return {"verdict": "rejected"}
    return {"verdict": "accepted", **checked}


def _lib_roundtrip(prep: Prepared, p: dict) -> dict:
    Tf = _exact_model(prep, p).as_float()
    M = rp.represent(algebra.parse_element(p["q"], p["a"]), Tf)
    back = rp.pi_image(rp.z_transform(M).z)
    return {"dim": Tf.dim, "scale": float(np.max(np.abs(M))),
            "roundtrip_gap": float(np.max(np.abs(back - M)))}


LIBRARY = {
    "rep-product": _lib_rep_product,
    "rep-adjoint": _lib_rep_adjoint,
    "rep-pole": _lib_rep_pole,
    "assoc": _lib_assoc,
    "antihom": _lib_antihom,
    "residual-pole": _lib_residual_pole,
    "roundtrip": _lib_roundtrip,
}


def execute(prep: Prepared, job: Job) -> tuple[int, bytes]:
    """Run one job through the public entry point; return (exit code, report bytes)."""
    if "command" not in job.params:
        return 0, _json_bytes(LIBRARY[job.kind](prep, job.params))
    argv = _argv(job, prep.workdir)
    out = Path(argv[-1])
    if out.exists():
        out.unlink()
    code = cli.main(argv)
    return code, out.read_bytes() if out.exists() else b""


# ------------------------------------------------------------------ oracles

def _all_zero(values) -> bool:
    return all(v == "0/1" for v in values)


def _check_sim_exact(p, code, rep):
    rows = rep["windows"]
    defects = []
    for row in rows:
        defects += [row["relation"]["interior"], *row["covariance"].values(),
                    row["polar"]["reconstruction"], row["polar"]["kernel"]]
    h = p["window"][1]
    dim = len(p["config"]["generators"]) * (2 * h + 1)
    if code != 0 or not rep["passed"]:
        return f"exit {code}"
    if not _all_zero(defects):
        return "nonzero exact defect"
    if rows[0]["dimension"] != dim or rows[0]["relation"]["boundary"] == "0/1":
        return "wrong model"
    return None


def _check_sim_float(p, code, rep):
    if code != 0 or not rep["passed"]:
        return f"exit {code}"
    tol = rep["tolerance"]
    row = rep["windows"][0]
    defects = [row["relation"]["interior"], *row["covariance"].values(),
               row["polar"]["reconstruction"], row["polar"]["kernel"]]
    if max(defects) > tol or rep["max_interior_defect"] > tol:
        return "numeric defect above tolerance"
    return None


def _diagonal_norm(p) -> float:
    """max |f(q^n)| over the last sweep window, in exact arithmetic (criterion 06)."""
    a0, a1, b0, b2 = p["coeffs"]
    q = Fraction(p["q"])
    lo, hi = p["config"]["windows_sweep"][-1]
    best = Fraction(0)
    for n in range(lo, hi + 1):
        t = q ** n
        best = max(best, abs((a0 + a1 * t) / (b0 + b2 * t * t)))
    return float(best)


def _check_norm(p, code, rep):
    if code != 0:
        return f"exit {code}"
    row = rep["elements"][0]
    est = row["estimates"]
    if any(b < a for a, b in zip(est, est[1:])):
        return "estimates decrease"
    oracle = _diagonal_norm(p)
    if abs(row["final"] - oracle) > NORM_REL_TOL * max(1.0, oracle):
        return f"final {row['final']} != diagonal oracle {oracle}"
    return None


def _check_norm_pole(p, code, rep):
    return None if code == 2 else ("accepted" if code == 0 else f"exit {code}")


def _check_bott(p, code, rep):
    if code != 0 or not rep["passed"]:
        return f"exit {code}"
    rows = rep["projections"]
    if len(rows) != 2 * len(p["config"]["bott_n"]):
        return "missing projections"
    if p.get("exact"):
        m = p["config"]["sample_exponent_range"]
        if not _all_zero(r["max_residue"] for r in rows):
            return "nonzero exact residue"
        if any(r["points_checked"] != 2 * m + 2 for r in rows):
            return "wrong sample count"
    elif any(r["max_residue"] > rep["tolerance"] for r in rows):
        return "numeric defect above tolerance"
    return None


def _check_bott_perturb(p, code, rep):
    if code != 3 or rep["passed"]:
        return f"negative control exit {code}"
    return None


def _check_limit(p, code, rep):
    if code != 0 or not rep["passed"]:
        return f"exit {code}"
    if rep["commutator_max_residue"] != "0/1":
        return "nonzero commutator"
    if rep["eval_multiplicativity_residue"] > rep["tolerance"] or not rep["theta_independent_at_origin"]:
        return "evaluation not a character"
    return None


def _check_exact_gap(p, code, rep):
    if rep["interior"] < 1:
        return "empty interior"
    if rep["gap"] != "0/1":
        return "nonzero exact gap"
    if "float_gap" in rep and rep["float_gap"] > IMAGE_REL_TOL * max(1.0, rep["float_scale"]):
        return "float image disagrees with the exact matrix"
    return None


def _check_residual(p, code, rep):
    values = [rep["residual"]] + ([rep["double_adjoint"]] if "double_adjoint" in rep else [])
    return None if _all_zero(values) else "nonzero exact residual"


def _check_rejected(p, code, rep):
    return None if rep["verdict"] == "rejected" else rep["verdict"]


def _check_roundtrip(p, code, rep):
    if rep["roundtrip_gap"] > ROUNDTRIP_REL_TOL * max(1.0, rep["scale"]):
        return "roundtrip gap above tolerance"
    return None


ORACLES = {
    "sim-exact": _check_sim_exact,
    "sim-float": _check_sim_float,
    "norm": _check_norm,
    "norm-pole": _check_norm_pole,
    "bott-exact": _check_bott,
    "bott-numeric": _check_bott,
    "bott-perturb": _check_bott_perturb,
    "limit": _check_limit,
    "rep-product": _check_exact_gap,
    "rep-adjoint": _check_exact_gap,
    "rep-pole": _check_rejected,
    "assoc": _check_residual,
    "antihom": _check_residual,
    "residual-pole": _check_rejected,
    "roundtrip": _check_roundtrip,
}


def judge(job: Job, code: int, data: bytes) -> str | None:
    """None when the job's output agrees with the oracle, else why it does not."""
    if code == 2 and job.kind != "norm-pole":
        return "exit 2"
    try:
        rep = json.loads(data) if data else {}
        return ORACLES[job.kind](job.params, code, rep)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def is_known(job: Job, why: str) -> bool:
    return job.known_defect is not None and why == KNOWN_DEFECTS[job.known_defect][1]

