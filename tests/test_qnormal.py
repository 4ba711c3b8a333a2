import dataclasses
import io
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import helpers
import qcplane.matrixops as mo
from qcplane import algebra, cli, qnormal, qspace, represent
from qcplane.algebra import IndicatorCoefficient, RationalCoefficient
from qcplane.errors import ConfigurationError, DomainError, EvaluationError
from qcplane.qnormal import TruncationWindow
from qcplane.qspace import Interval
from qcplane.ratfunc import RationalFunction
from qcplane.scalars import RationalComplex

T_VAR = RationalFunction.variable()
IM = RationalComplex(Fraction(0), Fraction(1))


def test_window_validation():
    with pytest.raises(ConfigurationError):
        TruncationWindow(3, 1)
    w = TruncationWindow(-2, 2)
    assert list(w.levels) == [-2, -1, 0, 1, 2]
    assert list(w.interior_levels()) == [-1, 0, 1]


def test_build_entry_oracle():
    # transcribe the shift action by hand: e_n -> q^n e_{n-1} for n = 1..3
    mu = qspace.uniform_measure("1/2", ["1"])
    T = qnormal.build(mu, None, TruncationWindow(0, 3), exact=True)
    assert T.dim == 4
    expected = np.zeros((4, 4), dtype=object)
    for n in (1, 2, 3):
        expected[n - 1, n] = Fraction(1, 2) ** n
    assert mo.max_entry_gap(T.zeta, expected) == 0


def test_build_kernel_slot():
    mu = qspace.uniform_measure("1/2", ["1"], zero_mass="1")
    T = qnormal.build(mu, None, TruncationWindow(0, 3), exact=True)
    assert T.dim == 5
    assert T.kernel_dim == 1
    k = T.kernel_index
    assert all(T.zeta[i, k] == 0 for i in range(T.dim))
    assert all(T.zeta[k, i] == 0 for i in range(T.dim))


@pytest.mark.parametrize("gens, zero_mass", [(["1"], "0"), (["1", "3/4"], "1")])
def test_exact_shift_bands_have_int_tails(gens, zero_mass):
    mu = qspace.uniform_measure("1/2", gens, zero_mass=zero_mass)
    T = qnormal.build(mu, None, TruncationWindow(-3, 3), exact=True)
    top = len(T.grid) - T.n_gens   # rows of grid points with a level below them
    for band in (T.u_band, T.zeta_band):
        (d, v), = band.diags.items()
        assert d == T.n_gens
        assert all(type(x) is Fraction for x in v[:top])
        assert all(type(x) is int and x == 0 for x in v[top:])
    assert all(T.u_band.diags[T.n_gens][:top] == 1)
    # grid points are nonzero Fractions; the kernel slot's point 0 is the int 0
    modulus = T.modulus_band.diags[0]
    assert all(type(t) is Fraction and t > 0 for t in modulus[:len(T.grid)])
    assert all(helpers.follows_value_rule(t) for t in modulus)


def test_build_zero_only_support():
    mu = qspace.uniform_measure("1/2", [], zero_mass="1")
    T = qnormal.build(mu, None, TruncationWindow(-1, 1), exact=True)
    assert T.dim == 1
    assert T.kernel_dim == 1
    assert T.zeta[0, 0] == 0


def test_build_rejects_short_window(dyadic_measure):
    with pytest.raises(ConfigurationError):
        qnormal.build(dyadic_measure, None, TruncationWindow(0, 1))


def test_build_rejects_mismatched_set(dyadic_measure):
    window = TruncationWindow(-2, 2)
    for other in (qspace.make_spectral_set("1/2", ["3/4"]),
                  qspace.make_spectral_set("1/2", ["1", "3/4"]),
                  qspace.make_spectral_set("2/3", ["1"])):
        with pytest.raises(DomainError, match="does not match"):
            qnormal.build(dyadic_measure, other, window)
    same = qnormal.build(dyadic_measure, qspace.make_spectral_set("1/2", ["1"]), window)
    assert same.grid == qnormal.build(dyadic_measure, None, window).grid


def test_build_rejects_trivial_measure():
    with pytest.raises(DomainError):
        qnormal.build(qspace.QInvariantMeasure(Fraction(1, 2), ()), None,
                      TruncationWindow(-2, 2))


def test_build_from_generators_refuses_values_outside_its_domain():
    window = TruncationWindow(-2, 2)
    for q, gens, zero_mass, named in (("0", ["1"], 0, "got 0"), ("3/2", ["1"], 0, "got 3/2"),
                                      ("1/2", ["1/2"], 0, "generator 1/2 "),
                                      ("1/2", ["5/4"], 0, "generator 5/4 "),
                                      ("1/1", ["0"], 0, "generator 0 "),
                                      ("1/1", ["3/2"], 0, "generator 3/2 "),
                                      ("1/2", ["1"], "-1/3", "got -1/3")):
        with pytest.raises(DomainError, match=named):
            qnormal.build_from_generators(q, gens, window, zero_mass)


def test_relation_interior_exact_zero(dyadic_measure, dyadic_set):
    T = qnormal.build(dyadic_measure, dyadic_set, TruncationWindow(-4, 4), exact=True)
    rep = qnormal.verify_relation(T)
    assert rep.interior_defect == 0
    assert isinstance(rep.interior_defect, Fraction)
    assert rep.boundary_defect > 0


def test_relation_float_small(dyadic_measure):
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-4, 4))
    rep = qnormal.verify_relation(T)
    assert rep.interior_defect <= 1e-13


def test_relation_multi_generator_exact():
    mu = qspace.uniform_measure("3/4", ["1", "9/10"])
    T = qnormal.build(mu, None, TruncationWindow(-5, 5), exact=True)
    assert qnormal.verify_relation(T).interior_defect == 0


def test_relation_classical_mode():
    # q = 1: the operator is normal, defect vanishes identically
    T = qnormal.build_from_generators("1/1", ["1"], TruncationWindow(-3, 3), exact=True)
    rep = qnormal.verify_relation(T)
    assert rep.interior_defect == 0
    assert rep.boundary_defect > 0


def test_relation_zero_only_model():
    mu = qspace.uniform_measure("1/2", [], zero_mass="1")
    T = qnormal.build(mu, None, TruncationWindow(-1, 1), exact=True)
    rep = qnormal.verify_relation(T)
    assert rep.interior_defect == 0
    assert rep.boundary_defect == 0


def test_shift_partial_isometry_structure(dyadic_measure):
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-3, 3), exact=True)
    n = T.dim
    uu = T.u @ mo.adjoint(T.u)
    uzu = mo.adjoint(T.u) @ T.u
    for i in range(n):
        for j in range(n):
            if i != j:
                assert uu[i, j] == 0
                assert uzu[i, j] == 0
    levels = [gp.level for gp in T.grid]
    for i, lev in enumerate(levels):
        assert uzu[i, i] == (0 if lev == T.window.n_min else 1)
        assert uu[i, i] == (0 if lev == T.window.n_max else 1)


def test_grading_adjacent_levels_only():
    mu = qspace.uniform_measure("2/3", ["1", "5/6"])
    T = qnormal.build(mu, None, TruncationWindow(-3, 3), exact=True)
    for i, gi in enumerate(T.grid):
        for j, gj in enumerate(T.grid):
            if T.zeta[i, j] != 0:
                assert gi.level == gj.level - 1
                assert gi.gen == gj.gen


def test_modulus_spectrum_inside_set():
    mu = qspace.uniform_measure("2/3", ["1", "5/6"])
    X = mu.support()
    T = qnormal.build(mu, X, TruncationWindow(-4, 4), exact=True)
    values = [gp.value for gp in T.grid]
    assert len(set(values)) == len(values)
    for v in values:
        assert qspace.contains(X, v)


def test_spectral_function_examples(dyadic_measure):
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-2, 2), exact=True)
    one = qnormal.spectral_function(T, RationalCoefficient(RationalFunction.constant(1)))
    assert mo.max_entry_gap(one, np.eye(T.dim, dtype=object)) == 0

    ind = qnormal.spectral_function(T, IndicatorCoefficient(Interval.open_closed("1/2", 1)))
    for i, gp in enumerate(T.grid):
        assert ind[i, i] == (1 if gp.level == 0 else 0)

    lor = qnormal.spectral_function(T, RationalCoefficient(1 / (1 + T_VAR * T_VAR)))
    level0 = [i for i, gp in enumerate(T.grid) if gp.level == 0][0]
    assert lor[level0, level0] == Fraction(1, 2)


@pytest.mark.parametrize("zero_mass", ["0", "1"])
def test_exact_spectral_band_stores_real_values_as_fractions(zero_mass):
    mu = qspace.uniform_measure("1/2", ["1", "3/4"], zero_mass=zero_mass)
    T = qnormal.build(mu, None, TruncationWindow(-3, 3), exact=True)
    points = [gp.value for gp in T.grid] + [Fraction(0)] * T.kernel_dim
    real = [RationalCoefficient(T_VAR), RationalCoefficient(T_VAR * T_VAR),
            IndicatorCoefficient(Interval.open_closed("1/2", 1)),
            RationalCoefficient(1 / (1 + T_VAR * T_VAR))]
    for f in real:
        for factor in (1, T.q):
            values = qnormal.spectral_band(T, f, factor).diags[0]
            assert all(type(v) is (Fraction if v else int) for v in values)
            assert list(values) == [f.eval_exact(factor * t) for t in points]
    f = RationalCoefficient(IM * T_VAR)
    values = qnormal.spectral_band(T, f).diags[0]
    assert all(type(v) is RationalComplex and v.im for v in values[:len(T.grid)])
    assert all(helpers.follows_value_rule(v) for v in values)
    assert list(values) == [f.eval_exact(t) for t in points]


def test_spectral_function_kernel_value(kernel_measure):
    T = qnormal.build(kernel_measure, None, TruncationWindow(-2, 2), exact=True)
    f = RationalCoefficient(1 / (1 + T_VAR))
    F = qnormal.spectral_function(T, f)
    assert F[T.kernel_index, T.kernel_index] == 1


def test_spectral_function_undefined_point(dyadic_measure):
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-2, 2))
    bad = algebra.ClosureCoefficient(lambda t: 1.0 / (t - 0.5), 0.0, True)
    with pytest.raises(EvaluationError):
        qnormal.spectral_function(T, bad)


def test_covariance_family_exact(dyadic_measure):
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-4, 4), exact=True)
    fams = [
        RationalCoefficient(RationalFunction.constant(3)),
        RationalCoefficient(T_VAR),
        RationalCoefficient(T_VAR * T_VAR),
        RationalCoefficient(1 / (1 + T_VAR * T_VAR)),
        IndicatorCoefficient(Interval.open_closed("1/2", 1)),
    ]
    for f in fams:
        assert qnormal.verify_covariance(T, f) == 0


def test_covariance_dual_route_indicator(dyadic_measure):
    # u E(M) u* against the directly scaled spectral projection E(q^{-1} M)
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-4, 4), exact=True)
    M = Interval.open_closed("1/2", 1)
    lhs = T.u @ qnormal.spectral_function(T, IndicatorCoefficient(M)) @ mo.adjoint(T.u)
    rhs = qnormal.spectral_function(T, IndicatorCoefficient(M.scaled(Fraction(2))))
    idx = T.interior_indices()
    assert mo.max_entry_gap(mo.compress(lhs, idx), mo.compress(rhs, idx)) == 0


def test_covariance_modulus_route(dyadic_measure):
    # u |zeta| u* = q |zeta| read off the modulus matrix itself
    T = qnormal.build(dyadic_measure, None, TruncationWindow(-4, 4), exact=True)
    lhs = T.u @ T.modulus @ mo.adjoint(T.u)
    rhs = T.modulus * Fraction(1, 2)
    idx = T.interior_indices()
    assert mo.max_entry_gap(mo.compress(lhs, idx), mo.compress(rhs, idx)) == 0


def test_polar_check_passes_and_detects_tampering(kernel_measure):
    T = qnormal.build(kernel_measure, None, TruncationWindow(-3, 3), exact=True)
    rep = qnormal.polar_check(T)
    assert rep.reconstruction_defect == 0
    assert rep.kernel_defect == 0

    # entries (0, kernel) and (0, 1) of u, on offsets kernel_index and 1
    row0 = np.array([Fraction(1)] + [Fraction(0)] * (T.dim - 1), dtype=object)
    bad_u = T.u_band + mo.Band(T.dim, True, {T.kernel_index: row0, 1: row0 * Fraction(1, 3)})
    tampered = dataclasses.replace(T, u_band=bad_u)
    bad = qnormal.polar_check(tampered)
    assert bad.kernel_defect > 0
    assert bad.reconstruction_defect > 0


def test_polar_kernel_defect_float_is_column_norm(kernel_measure):
    T = qnormal.build(kernel_measure, None, TruncationWindow(-3, 3), exact=False)
    assert qnormal.polar_check(T).kernel_defect == 0.0
    k = T.kernel_index
    # entries (k - 1, k) = 3 and (k - 2, k) = 4i of u, on offsets 1 and 2
    one, two = (np.zeros(T.dim, dtype=complex) for _ in range(2))
    one[k - 1], two[k - 2] = 3, 4j
    bad_u = T.u_band + mo.Band(T.dim, False, {1: one, 2: two})
    bad = qnormal.polar_check(dataclasses.replace(T, u_band=bad_u))
    # gated on the relative gap against 0, which any nonzero entry makes 1
    assert bad.absolute.kernel_defect == 5.0 and bad.kernel_defect == 1.0
    exact = qnormal.polar_check(dataclasses.replace(
        qnormal.build(kernel_measure, None, TruncationWindow(-3, 3), exact=True),
        u_band=mo.Band(T.dim, True, {1: np.array([Fraction(3) * (i == k - 1)
                                                  for i in range(T.dim)], dtype=object)})))
    assert exact.kernel_defect == 3


def test_float_indicator_decided_exactly_at_deep_levels():
    # grid points 7**-n below 10**-12 sit inside (7**-30, 1]; a rational guess
    # with denominators up to 10**12 rounds them to 0, outside the interval
    q = Fraction(1, 7)
    mu = qspace.uniform_measure("1/7", ["1"])
    ind = IndicatorCoefficient(Interval.open_closed(q ** 30, 1))
    for lo, hi in ((-2, 35), (-5, 5)):
        T = qnormal.build(mu, None, TruncationWindow(lo, hi), exact=True)
        want = mo.to_float(qnormal.spectral_function(T, ind))
        assert np.array_equal(qnormal.spectral_function(T.as_float(), ind), want)
        assert qnormal.verify_covariance(T.as_float(), ind) == 0.0


def test_float_spectral_points_are_the_exact_points_rounded():
    T = qnormal.build(qspace.uniform_measure("3/7", ["1", "2/3"], zero_mass="1"), None,
                      TruncationWindow(-9, 9), exact=False)
    seen = []
    f = algebra.ClosureCoefficient(lambda t: seen.append(t) or t, 5.0, True)
    band = qnormal.spectral_band(T, f)
    assert all(type(t) is float for t in seen)
    assert seen == [float(gp.value) for gp in T.grid]
    assert band.diags[0][T.kernel_index] == 5.0
    seen.clear()
    qnormal.spectral_band(T, f, T.q)
    assert seen == [float(T.q * gp.value) for gp in T.grid]


def test_covariance_defect_sees_a_q_that_does_not_match_the_grid():
    # f(q modulus) is evaluated at q * t_{j,n}, which is the grid one level up
    # only when q is the grid's level ratio, so a model whose q is not shows a defect
    T = qnormal.build(qspace.uniform_measure("3/7", ["1", "2/3"], zero_mass="1"), None,
                      TruncationWindow(-4, 4), exact=True)
    wrong = dataclasses.replace(T, q=Fraction(1, 2))
    for f in (RationalCoefficient(T_VAR), IndicatorCoefficient(Interval.open_closed("1/2", 1)),
              algebra.ClosureCoefficient(lambda t: t / (1 + t), 0.0, True)):
        if not isinstance(f, algebra.ClosureCoefficient):
            assert qnormal.verify_covariance(T, f) == 0
            assert qnormal.verify_covariance(wrong, f) > 0
        assert qnormal.verify_covariance(T.as_float(), f) == 0.0
        assert qnormal.verify_covariance(wrong.as_float(), f) > 0


def _random_interval(rng: random.Random, points: list[Fraction]) -> Interval:
    """Open, closed or unbounded, with endpoints often on the given points."""
    def end() -> Fraction:
        if points and rng.random() < 0.6:
            return rng.choice(points)
        return Fraction(rng.randint(0, 40), rng.randint(1, 12))
    lo, hi = sorted((end(), end()))
    if rng.random() < 0.25:
        return Interval(lo, None, rng.random() < 0.5, False)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


@pytest.mark.parametrize("q, gens, window, zero_mass", [
    ("1/2", ["1"], (-6, 6), "0"),
    ("3/7", ["1", "2/3"], (-9, 7), "1"),      # two generators and a kernel slot
    ("2/3", ["5/6", "1"], (-3, 3), "0"),      # generators out of order
    ("1/1", ["1", "1/2"], (-4, 4), "1"),      # q = 1: every level alike
    ("1/2", [], (-2, 2), "1"),                # zero generators: the kernel only
])
def test_indicator_bisection_matches_pointwise_membership(q, gens, window, zero_mass):
    rng = random.Random(f"{q}{gens}")
    T = qnormal.build_from_generators(q, gens, TruncationWindow(*window),
                                      zero_mass=zero_mass, exact=True)
    grid = [gp.value for gp in T.grid]
    intervals = [_random_interval(rng, grid + [T.q * t for t in grid]) for _ in range(60)]
    intervals += [Interval.point(0), Interval.point(grid[0]) if grid else Interval.point(1),
                  Interval(Fraction(0), None, True, False), Interval.open_closed(q, 1)]
    for interval in intervals:
        f = IndicatorCoefficient(interval)
        for factor in (1, T.q, Fraction(5, 3)):
            want = [interval.contains(factor * t) for t in grid]
            want += [interval.contains(0)] * T.kernel_dim
            exact = qnormal.spectral_band(T, f, factor).diags[0]
            assert list(exact) == [Fraction(int(w)) for w in want], (interval, factor)
            assert all(type(v) is (Fraction if v else int) for v in exact)
            floats = qnormal.spectral_band(T.as_float(), f, factor).diags[0]
            assert floats.dtype == complex
            assert list(floats) == [complex(w) for w in want]


@pytest.mark.parametrize("q, gens, zero_mass", [
    ("1/2", ["1"], "0"), ("3/7", ["1", "2/3"], "1"), ("9/10", ["19/20", "1"], "0"),
    ("1/1", ["1", "1/3"], "0"), ("1/2", [], "1")])
def test_build_grid_and_modulus_match_the_direct_formula(q, gens, zero_mass):
    window = TruncationWindow(-40, 35)
    qq = Fraction(q)
    want = [(n, j, qq ** n * Fraction(x)) for n in window.levels for j, x in enumerate(gens)]
    for exact in (True, False):
        T = qnormal.build_from_generators(q, gens, window, zero_mass=zero_mass, exact=exact)
        assert [(gp.level, gp.gen, gp.value) for gp in T.grid] == want
        assert all(type(gp.value) is Fraction for gp in T.grid)
        modulus = T.modulus_band.diags[0]
        if exact:
            assert list(modulus) == [t for _, _, t in want] + [0] * T.kernel_dim
        else:
            assert modulus.dtype == complex
            assert modulus.tolist() == [complex(t) for _, _, t in want] + [0j] * T.kernel_dim
        for pad in (1, 3, 40):
            keep = set(window.interior_levels(pad))
            assert T.interior_indices(pad) == [i for i, gp in enumerate(T.grid)
                                               if gp.level in keep]


def test_weights_do_not_change_the_model():
    # the model acts on the normalized atom indicators, so only the atoms'
    # positions and whether 0 carries mass enter it
    atoms = [("1", "2"), ("3/4", "1/3")]
    weighted = qspace.atomic_measure("1/2", atoms, zero_mass="1")
    unit = qspace.atomic_measure("1/2", [(p, "1") for p, _ in atoms], zero_mass="1")
    for exact in (True, False):
        T, U = (qnormal.build(mu, None, TruncationWindow(-4, 4), exact=exact)
                for mu in (weighted, unit))
        for name in ("zeta", "u", "modulus"):
            a, b = getattr(T, name), getattr(U, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_spectra_csv_and_summary(kernel_measure):
    T = qnormal.build(kernel_measure, None, TruncationWindow(-1, 1))
    buf = io.StringIO()
    qnormal.spectra_to_csv(T, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "level,generator,value"
    assert lines[-1].startswith("kernel")


@pytest.mark.parametrize("q", ["1/2", "2/3", "3/7", "1/1"])
@pytest.mark.parametrize("gens, window", [(["1"], (-70, 9)), (["1", "5/6"], (-6, 64))])
def test_level_grid_rounded_matches_the_exact_points(q, gens, window):
    # windows reach powers of q past 2**53, where a float numerator or
    # denominator would already be rounded
    qq = Fraction(q)
    T = qnormal.build_from_generators(q, gens, TruncationWindow(*window))
    for f in (Fraction(1), qq, 1 / qq, Fraction(3, 5)):
        got = T.grid.rounded(f)
        assert got.dtype == np.float64
        assert got.tolist() == [float(f * gp.value) for gp in T.grid]
    assert T.grid.rounded().tolist() == T.modulus_band.diags[0].real.tolist()


@pytest.mark.parametrize("q", ["1/2", "3/7", "5/3"])
@pytest.mark.parametrize("gens", [["1"], ["1", "5/6"], ["1", "2/3", "9/7"]])
@pytest.mark.parametrize("levels", [range(-9, -3), range(-1, 0), range(-4, 3), range(0, 1),
                                    range(2, 8), range(-200, 201), range(-3, -2)])
def test_level_grid_pairs_are_the_points_times_the_factor(q, gens, levels):
    # windows wholly below, across and wholly above level 0, against
    # factor * q**n * x formed from Fractions, not from the grid's points
    qq, xs = Fraction(q), [Fraction(x) for x in gens]
    grid = qnormal.LevelGrid(qq, tuple(xs), levels)
    for f in (Fraction(1), qq, Fraction(7, 3)):
        want = [f * qq ** n * x for n in levels for x in xs]
        nums, dens = grid.pairs(f)
        assert all(type(a) is int and type(b) is int and b > 0 for a, b in zip(nums, dens))
        assert [Fraction(a, b) for a, b in zip(nums, dens)] == want
        assert grid.rounded(f).tolist() == [float(w) for w in want]


@pytest.mark.parametrize("q", ["1/2", "2/3", "3/7", "1/1"])
@pytest.mark.parametrize("gens", [["1"], ["1", "5/6"], ["1", "5/6", "3/4"]])
@pytest.mark.parametrize("window", [(-9, -3), (-3, -1), (-4, 5), (-1, 1), (0, 2), (2, 9),
                                    (-40, 40)])
@pytest.mark.parametrize("zero_mass", ["0", "1"])
def test_q_points_are_the_grid_rounded_at_q(q, gens, window, zero_mass):
    # read off the modulus one level up; a model relabelled with another q
    # rounds the products of its own q with the grid points
    w = TruncationWindow(*window)
    for T in (qnormal.build_from_generators(q, gens, w, zero_mass),
              qnormal.build_from_generators(q, gens, w, zero_mass, exact=True).as_float()):
        assert T._q_points.dtype == np.float64
        assert T._q_points.tobytes() == T.grid.rounded(T.q).tobytes()
        other = Fraction(1, 3)
        relabelled = dataclasses.replace(T, q=other)
        assert relabelled._q_points.tobytes() == T.grid.rounded(other).tobytes()


@pytest.mark.parametrize("q, gens", [
    ("3/7", ["1", "2/3"]), ("1/2", ["1"]), ("1/1", ["1", "1/4"]), ("1/2", [])])
def test_level_grid_reads_as_the_tuple_of_grid_points(q, gens):
    window = TruncationWindow(-4, 3)
    T = qnormal.build_from_generators(q, gens, window, zero_mass="1")
    want = tuple(qnormal.GridPoint(j, n, Fraction(q) ** n * Fraction(x))
                 for n in window.levels for j, x in enumerate(gens))
    grid = T.grid
    assert len(grid) == len(want)
    assert tuple(grid) == want
    assert [grid[i] for i in range(-len(want), len(want))] == list(want + want)
    assert list(reversed(grid)) == list(reversed(want))
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            grid[bad]


def test_float_grid_beyond_float_range_names_the_first_level():
    for q, gens, lo in (("1/2", ["1", "3/4"], -1100), ("3/7", ["1", "1/2"], -900)):
        with pytest.raises(DomainError, match=f"level {lo} leaves float range; use --exact"):
            qnormal.build_from_generators(q, gens, TruncationWindow(lo, 5))
        T = qnormal.build_from_generators(q, ["1"], TruncationWindow(lo, 5), exact=True)
        assert T.modulus_band.diags[0][0] == Fraction(q) ** lo


def test_float_relation_refuses_a_zeta_whose_square_overflows():
    # q = 1/1000 at level -59: |zeta| = 1e177 is a float, its square is not
    T = qnormal.build_from_generators("1/1000", ["1"], TruncationWindow(-60, 60))
    with pytest.raises(DomainError, match="level -59 .*--exact"):
        qnormal.verify_relation(T)
    # at level -51 the largest |zeta| is 1e150, whose square is still a float
    T = qnormal.build_from_generators("1/1000", ["1"], TruncationWindow(-51, 60))
    assert np.isfinite(qnormal.verify_relation(T).boundary_defect)
    exact = qnormal.build_from_generators("1/1000", ["1"], TruncationWindow(-60, 60), exact=True)
    assert qnormal.verify_relation(exact).interior_defect == 0


def test_float_indicator_band_makes_no_grid_point(monkeypatch):
    # float probes are integer pairs from powers of the grid ratio: no GridPoint
    rng = random.Random(7)
    models = [qnormal.build_from_generators(q, gens, TruncationWindow(-60, 45),
                                            zero_mass=zero_mass, exact=False)
              for q, gens, zero_mass in (("1/2", ["1"], "0"), ("3/7", ["1", "2/3"], "1"),
                                         ("1/1", ["1", "1/2"], "0"))]
    points = [Fraction(2) ** k for k in range(-70, 60, 7)] + [Fraction(3, 7) ** k
                                                             for k in range(-50, 50, 9)]
    intervals = [_random_interval(rng, points) for _ in range(40)]
    intervals += [Interval.point(0), Interval.point(1), Interval.open_closed("1/2", 1)]
    want = {}
    for i, T in enumerate(models):
        for j, interval in enumerate(intervals):
            for factor in (1, T.q, Fraction(5, 3)):
                want[i, j, factor] = [interval.contains(factor * gp.value) for gp in T.grid]

    def no_grid_point(self, i):
        raise AssertionError("a GridPoint was made")

    monkeypatch.setattr(qnormal.LevelGrid, "__getitem__", no_grid_point)
    for i, T in enumerate(models):
        for j, interval in enumerate(intervals):
            f = IndicatorCoefficient(interval)
            for factor in (1, T.q, Fraction(5, 3)):
                got = qnormal.spectral_band(T, f, factor).diags[0][:len(T.grid)]
                assert got.tolist() == [complex(w) for w in want[i, j, factor]]
        assert qnormal.verify_covariance(T, IndicatorCoefficient(intervals[-1])) == 0.0
        assert qnormal.polar_check(T).kernel_defect == 0.0


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                      "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
                      "__pos__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def test_exact_band_work_does_no_fraction_arithmetic(monkeypatch):
    # exact bands multiply, add and compare integer pairs: the model checks and
    # an exact representation run with every Fraction operator refusing to run
    models = [qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-5, 5), zero_mass=1,
                                            exact=True),
              qnormal.build_from_generators("3/7", ["1", "5/7"], TruncationWindow(-40, 40),
                                            exact=True)]
    lits = ["t@1", "1/(1+t^2)@0", "(1+t)/(2+t^3)@-2", "t^2@3", "(2/3)*t@-1"]
    work = []
    for T in models:
        family = [RationalCoefficient(T_VAR), RationalCoefficient(T_VAR * T_VAR),
                  IndicatorCoefficient(Interval.open_closed(T.q, 1)),
                  RationalCoefficient(1 / (1 + T_VAR * T_VAR))]
        a = algebra.parse_element(T.q, lits)
        a = algebra.element(T.q, {**dict(a.terms), 2: RationalCoefficient(IM * T_VAR)})
        work.append((T, family, a))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on the exact band path")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)
    results = []
    for T, family, a in work:
        results.append((qnormal.verify_relation(T),
                        [qnormal.verify_covariance(T, f) for f in family],
                        qnormal.polar_check(T), represent.represent_band(a, T)))
    monkeypatch.undo()

    for (T, _, a), (rel, cov, pol, band) in zip(work, results):
        assert rel.interior_defect == 0 and rel.boundary_defect > 0
        assert cov == [0, 0, 0, 0]
        assert pol.reconstruction_defect == 0 and pol.kernel_defect == 0
        # f_k(t_i) at (i, i + k n_gens) on the rows of mode k
        points, n = [gp.value for gp in T.grid] + [Fraction(0)] * T.kernel_dim, len(T.grid)
        want = np.zeros((T.dim, T.dim), dtype=object)
        for k, f in a.terms:
            d = k * T.n_gens
            for i in range(T.dim) if k == 0 else range(max(0, -d), min(n, n - d)):
                want[i, i + d] = f.eval_exact(points[i])
        assert all(x == y for x, y in zip(band.dense().flat, want.flat))


# u, the unit of roundoff as machine epsilon
U = np.finfo(float).eps
GATE = 1e-12


def _q_family(q: Fraction) -> list:
    """The covariance members of ``qcplane simulate``, all of which see q through f(q |zeta|)."""
    return [RationalCoefficient(T_VAR), RationalCoefficient(T_VAR * T_VAR),
            IndicatorCoefficient(Interval.open_closed(q, 1)),
            RationalCoefficient(1 / (1 + T_VAR * T_VAR))]


@pytest.mark.parametrize("q", ["1/2", "2/3", "3/7"])
@pytest.mark.parametrize("h", [8, 30, 150])
@pytest.mark.parametrize("gens, zero_mass", [(["1"], 0), (["1", "5/7"], 1)])
def test_a_moved_q_fails_the_float_gate_and_the_true_q_passes(q, h, gens, zero_mass):
    # |zeta|**2 reaches (1/q)**(2h), up to 1e110 here: the absolute defect of a
    # correct model is huge, its relative gap a few units of roundoff
    T = qnormal.build_from_generators(q, gens, TruncationWindow(-h, h), zero_mass=zero_mass)
    moved = dataclasses.replace(T, q=T.q + Fraction(1, 10 ** 9))
    rel, rel_moved = qnormal.verify_relation(T), qnormal.verify_relation(moved)
    assert rel.interior_defect <= 4 * U
    assert rel_moved.interior_defect > GATE
    for f in _q_family(T.q):
        assert qnormal.verify_covariance(T, f) <= 4 * U
        assert qnormal.verify_covariance(moved, f) > GATE
    # zeta = u |zeta| does not involve q: it holds exactly either way
    for pol in (qnormal.polar_check(T), qnormal.polar_check(moved)):
        assert pol.reconstruction_defect == pol.kernel_defect == 0.0


@pytest.mark.parametrize("q", ["1/2", "2/3", "3/7"])
def test_correct_float_simulate_runs_pass_up_to_wide_windows(q, capsys):
    for h in (8, 30, 75, 150):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--q", q, "--window", str(-h), str(h)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["passed"] is True, (q, h, report.get("failure"))
        assert report["max_interior_defect"] <= 4 * U
        row = report["windows"][0]
        assert set(row["absolute"]) == {"relation", "covariance", "polar"}
        assert set(row["absolute"]["covariance"]) == set(row["covariance"])


def _float_band(dim: int, values) -> mo.Band:
    return mo.Band(dim, False, {0: np.array(values, dtype=complex)})


def test_gap_is_relative_entry_by_entry_and_warning_free():
    L = _float_band(4, [0, 1e200, 3, 1])
    R = _float_band(4, [0, 1e200 * (1 + U), 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        absolute, relative = L.gap(R)
        assert L.gap(L) == (0.0, 0.0)
        # both sides 0 everywhere, also with a band that stores no diagonal
        assert _float_band(4, [0] * 4).gap(mo.Band(4, False)) == (0.0, 0.0)
    assert absolute == abs(1e200 - 1e200 * (1 + U))
    assert relative == 0.5   # |3 - 1| / (3 + 1) beats the 1e200 entries' u / 2
    assert L.gap(R, [0, 1]) == (absolute, pytest.approx(U / 2, rel=1e-6))
    # against 0 every nonzero entry is wholly wrong
    assert L.gap(mo.Band(4, False)) == (1e200, 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_gap_of_an_overflowed_side_is_inf(bad):
    good = _float_band(3, [1, 2, 3])
    worse = _float_band(3, [1, bad, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L, R in ((good, worse), (worse, good), (worse, worse)):
            absolute, relative = L.gap(R)
            assert relative == math.inf and absolute == math.inf
        # outside the kept rows the overflow is not seen
        assert good.gap(worse, [0, 2]) == (0.0, 0.0)
        # finite sides whose scale |L| + |R| overflows give inf too
        big = _float_band(3, [1, 1e308, 3])
        assert big.gap(big)[1] == math.inf


def test_float_band_lies_within_a_few_roundoffs_of_the_exact_band_rounded_once():
    # each float entry f_k(t) is Horner's scheme on the rounded point: it must
    # lie within a few u |f_k(t)| of the exact value rounded once; a model built
    # on a q moved by 1e-9 moves its points, and its entries, far past that
    rng = random.Random(11)
    bound = 16 * U
    for q in ("1/2", "2/3", "3/7"):
        moved_q = Fraction(q) + Fraction(1, 10 ** 9)
        for h in (8, 30, 60):
            exact = qnormal.build_from_generators(q, ["1", "5/6"], TruncationWindow(-h, h),
                                                  zero_mass=1, exact=True)
            T = qnormal.build_from_generators(q, ["1", "5/6"], TruncationWindow(-h, h),
                                              zero_mass=1)
            moved = qnormal.build_from_generators(moved_q, ["1", "5/6"],
                                                  TruncationWindow(-h, h), zero_mass=1)
            for _ in range(3):
                a = helpers.random_element(rng, q)
                want = represent.represent_band(a, exact).as_float()
                got = represent.represent_band(a, T)
                off = represent.represent_band(algebra.element(moved_q, dict(a.terms)), moved)
                assert sorted(got.diags) == sorted(want.diags)
                worst_moved = 0.0
                for d, w in want.diags.items():
                    assert np.all(np.abs(got.diags[d] - w) <= bound * np.abs(w)), (q, h, d)
                    nonzero = w != 0
                    worst_moved = max(worst_moved, float(np.max(
                        np.abs(off.diags[d] - w)[nonzero] / np.abs(w[nonzero]), initial=0.0)))
                assert worst_moved > bound, (q, h)


def test_a_support_of_0_alone_is_one_kernel_slot():
    T = qnormal.build_from_generators("1/2", [], TruncationWindow(-3, 3))
    assert (T.dim, T.kernel_dim, T.kernel_index, T.n_gens, len(T.grid)) == (1, 1, 0, 0, 0)


def test_model_sizes_are_counted_once(monkeypatch):
    T = qnormal.build_from_generators("3/7", ["1", "2/3"], TruncationWindow(-4, 4),
                                      zero_mass=1)
    counted = []
    count = qnormal.LevelGrid.__len__
    monkeypatch.setattr(qnormal.LevelGrid, "__len__",
                        lambda grid: counted.append(grid) or count(grid))
    for _ in range(3):
        assert (T.dim, T.kernel_index, T.n_gens) == (19, 18, 2)
    assert len(counted) == 2


def test_float_spectral_band_refuses_a_factor_past_the_float_range():
    T = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-3, 3))
    with pytest.raises(EvaluationError, match="coefficient undefined on the grid"):
        qnormal.spectral_band(T, RationalCoefficient(T_VAR), Fraction(10) ** 400)


def test_an_exact_model_refuses_a_closure_coefficient():
    T = qnormal.build_from_generators("1/2", ["1", "3/4"], TruncationWindow(-3, 3), zero_mass=1,
                                      exact=True)
    closure = algebra.ClosureCoefficient(lambda t: 1 / (1 + t), 1, True)
    message = "^ClosureCoefficient has no exact evaluation$"
    with pytest.raises(EvaluationError, match=message):
        qnormal.spectral_band(T, closure)
    a = algebra.element(T.q, {0: RationalCoefficient(RationalFunction.variable()), 1: closure})
    with pytest.raises(EvaluationError, match=message):
        represent.represent(a, T)
    # the float model evaluates it
    assert represent.represent(a, T.as_float()).shape == (T.dim, T.dim)
