import dataclasses
import io
from fractions import Fraction

import numpy as np
import pytest

import qcplane.matrixops as mo
from qcplane import algebra, qnormal, qspace
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
    other = qspace.make_spectral_set("1/2", ["3/4"])
    with pytest.raises(DomainError):
        qnormal.build(dyadic_measure, other, TruncationWindow(-2, 2))


def test_build_rejects_trivial_measure():
    with pytest.raises(DomainError):
        qnormal.build(qspace.QInvariantMeasure(Fraction(1, 2), ()), None,
                      TruncationWindow(-2, 2))


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
            assert all(type(v) is Fraction for v in values)
            assert list(values) == [f.eval_exact(factor * t) for t in points]
    f = RationalCoefficient(IM * T_VAR)
    values = qnormal.spectral_band(T, f).diags[0]
    assert all(type(v) is RationalComplex and v.im for v in values[:len(T.grid)])
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
    assert bad.kernel_defect == 5.0
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
    # f(q modulus) is evaluated at q * t_{j,n}, not read off the grid one level
    # up, so a model whose q is not its grid's level ratio shows a defect
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


def test_weights_metadata_retained():
    mu = qspace.atomic_measure("1/2", [("1", "2"), ("3/4", "1/3")])
    T = qnormal.build(mu, None, TruncationWindow(-2, 2), exact=True)
    by_gen = {gp.gen: gp.weight for gp in T.grid}
    assert by_gen == {0: Fraction(1, 3), 1: Fraction(2)}


def test_spectra_csv_and_summary(kernel_measure):
    T = qnormal.build(kernel_measure, None, TruncationWindow(-1, 1))
    buf = io.StringIO()
    qnormal.spectra_to_csv(T, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "level,generator,value"
    assert lines[-1].startswith("kernel")
