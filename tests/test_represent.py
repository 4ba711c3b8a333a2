import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import qcplane.matrixops as mo
from qcplane import algebra, qnormal, qspace, represent
from qcplane.algebra import ClosureCoefficient, parse_element
from qcplane.errors import ConfigurationError, DomainError, SingularityError
from qcplane.qnormal import TruncationWindow
from qcplane.represent import (NormReport, norm_estimate, pi_image, psi_check,
                               rapid_decay_family, represent_with_kernel,
                               scalar_z, verify_z_factorization, z_transform)
from qcplane.ratfunc import RationalFunction
from qcplane.scalars import RationalComplex
from helpers import random_element

HALF = "1/2"


def _model(mu, lo, hi, exact=True):
    return qnormal.build(mu, None, TruncationWindow(lo, hi), exact=exact)


def test_represent_identity(dyadic_measure):
    T = _model(dyadic_measure, -3, 3)
    M = represent.represent(parse_element(HALF, ["1@0"]), T)
    assert mo.max_entry_gap(M, np.eye(T.dim, dtype=object)) == 0
    # with no generators every mode sits on offset 0 and the modes add up;
    # t vanishes on the kernel slot
    T0 = _model(qspace.uniform_measure(HALF, [], zero_mass="1"), -3, 3)
    M = represent.represent(parse_element(HALF, ["1@0", "t@1", "t@-1"]), T0)
    assert M.shape == (1, 1) and M[0, 0] == 1


def test_represent_mode_one_is_rescaled_shift(dyadic_measure):
    # t * U acts as (1/q) zeta on the model: same shift, no extra q factor
    T = _model(dyadic_measure, -3, 3)
    M = represent.represent(parse_element(HALF, ["t@1"]), T)
    assert mo.max_entry_gap(M, T.zeta * Fraction(2)) == 0


def _represent_oracle(a, T) -> np.ndarray:
    """Row i of f_k(modulus) u**k is f_k(t_i) times row i of the matrix power."""
    points = [gp.value for gp in T.grid] + [Fraction(0)] * T.kernel_dim
    M = np.full((T.dim, T.dim), Fraction(0), dtype=object)
    for k, f in a.terms:
        step = T.u if k >= 0 else mo.adjoint(T.u)
        P = np.linalg.matrix_power(step, abs(k)) if k else np.eye(T.dim, dtype=object)
        for i, t in enumerate(points):
            M[i] = M[i] + f.eval_exact(t) * P[i]
    return M


def test_represent_matches_pointwise_oracle(kernel_measure):
    im_t = algebra.RationalCoefficient(
        RationalComplex(Fraction(0), Fraction(1)) * RationalFunction.variable())
    real = parse_element(HALF, ["t@1", "1/(1+t^2)@0", "(1+t)/(2+t^3)@-2", "t^2@3"])
    mixed = algebra.element(Fraction(1, 2), {**dict(real.terms), -1: im_t})
    for mu in (kernel_measure, qspace.uniform_measure(HALF, ["1", "3/4"])):
        T = _model(mu, -3, 3)
        for a in (real, mixed):
            M = represent.represent(a, T)
            assert mo.max_entry_gap(M, _represent_oracle(a, T)) == 0
        # the values of this real element's modes are nonzero, so Fractions, at
        # (i, i + k n_gens) on the rows of mode k; every other entry is the int 0
        M, n = represent.represent(real, T), len(T.grid)
        written = np.zeros(M.shape, dtype=bool)
        for k, _ in real.terms:
            d = k * T.n_gens
            rows = np.arange(T.dim) if k == 0 else np.arange(max(0, -d), min(n, n - d))
            written[rows, rows + d] = True
        assert all(type(x) is Fraction for x in M[written])
        assert all(type(x) is int and x == 0 for x in M[~written])
        assert not any(isinstance(x, RationalComplex) for x in M.flat)


def test_represent_ratio_mismatch(dyadic_measure):
    T = _model(dyadic_measure, -3, 3)
    with pytest.raises(DomainError):
        represent.represent(parse_element("3/4", ["1@0"]), T)


def test_represent_multiplicative_on_interior(dyadic_measure):
    rng = random.Random(11)
    T = _model(dyadic_measure, -8, 8)
    for _ in range(6):
        a = random_element(rng, HALF, max_modes=3)
        b = random_element(rng, HALF, max_modes=3)
        lhs = represent.represent(algebra.multiply(a, b), T)
        rhs = represent.represent(a, T) @ represent.represent(b, T)
        pad = a.mode_span + b.mode_span
        idx = T.interior_indices(max(pad, 1))
        assert idx, "window exhausted"
        gap = mo.max_entry_gap(mo.compress(lhs, idx), mo.compress(rhs, idx))
        assert gap == 0


def test_represent_adjoint_on_interior(dyadic_measure):
    rng = random.Random(12)
    T = _model(dyadic_measure, -8, 8)
    for _ in range(6):
        a = random_element(rng, HALF, max_modes=4)
        lhs = represent.represent(algebra.adjoint(a), T)
        rhs = mo.adjoint(represent.represent(a, T))
        idx = T.interior_indices(max(a.mode_span, 1))
        assert mo.max_entry_gap(mo.compress(lhs, idx), mo.compress(rhs, idx)) == 0


def test_kernel_slot_value(kernel_measure):
    T = _model(kernel_measure, -3, 3)
    a = parse_element(HALF, ["1/(1+t)@0", "t@1"])
    M = represent_with_kernel(a, T)
    k = T.kernel_index
    assert M[k, k] == 1
    assert all(M[k, j] == 0 for j in range(T.dim) if j != k)


def test_kernel_extension_rejects_full_element(kernel_measure):
    T = _model(kernel_measure, -3, 3)
    full = algebra.element(HALF, {1: ClosureCoefficient(lambda t: 1.0, 1.0, False)})
    with pytest.raises(DomainError):
        represent_with_kernel(full, T)


def test_kernel_extension_needs_kernel(dyadic_measure):
    T = _model(dyadic_measure, -3, 3)
    with pytest.raises(DomainError):
        represent_with_kernel(parse_element(HALF, ["1@0"]), T)


def test_psi_constant_vanishes(kernel_measure):
    T = _model(kernel_measure, -4, 4, exact=False)
    assert psi_check(parse_element(HALF, ["3@0"]), T) <= 1e-14


def test_psi_single_shift_mode_vanishes(kernel_measure):
    # u annihilates the kernel slot from both sides, so dropping it is free
    T = _model(kernel_measure, -4, 4, exact=False)
    assert psi_check(parse_element(HALF, ["t@1"]), T) <= 1e-13


def test_psi_decay_matches_closed_form(kernel_measure):
    a = parse_element(HALF, ["1/(1+t^2)@0"])
    got = []
    for hi in (4, 8, 12):
        T = _model(kernel_measure, -6, hi, exact=False)
        val = psi_check(a, T)
        want = float(Fraction(4) ** -hi / (1 + Fraction(4) ** -hi))
        assert abs(val - want) <= 1e-12
        # the same gap measured on the dense matrix
        M = represent_with_kernel(a, T)
        dense = abs(mo.defect_norm(M) - mo.defect_norm(mo.compress(M, range(len(T.grid)))))
        assert abs(val - dense) <= 1e-15
        got.append(val)
    assert got[0] > got[1] > got[2]
    assert got[2] <= 1e-6


def test_norm_diagonal_matches_grid_max(dyadic_measure):
    a = parse_element(HALF, ["1/(1+t^2)@0"])
    report = norm_estimate(a, [TruncationWindow(-4, 4)], dyadic_measure)
    oracle = max(1.0 / (1.0 + float(Fraction(1, 2) ** n) ** 2) for n in range(-4, 5))
    assert abs(report.final - oracle) <= 1e-12
    assert not report.converged


def test_norm_shift_mode_matches_grid_max(dyadic_measure):
    a = parse_element(HALF, ["t@1"])
    report = norm_estimate(a, [TruncationWindow(-3, 3)], dyadic_measure)
    assert abs(report.final - 8.0) <= 1e-12


def test_norm_sweep_nondecreasing(dyadic_measure):
    a = parse_element(HALF, ["1/(1+t^2)@0"])
    windows = [TruncationWindow(-n, n) for n in (4, 8, 12)]
    report = norm_estimate(a, windows, dyadic_measure)
    assert report.window_sizes == (9, 17, 25)
    assert report.estimates[0] <= report.estimates[1] <= report.estimates[2]
    assert report.final == report.estimates[-1]


def test_norm_zero_element(dyadic_measure):
    report = norm_estimate(algebra.zero_element(HALF),
                           [TruncationWindow(-2, 2), TruncationWindow(-3, 3)],
                           dyadic_measure)
    assert report.estimates == (0.0, 0.0)
    assert report.converged


def test_norm_converged_is_relative(dyadic_measure):
    windows = [TruncationWindow(-n, n) for n in (4, 8)]
    flat = norm_estimate(parse_element(HALF, ["3@0"]), windows, dyadic_measure)
    assert flat.estimates == (3.0, 3.0)
    assert flat.converged
    # about 1e-9 in size, changing by about 4e-3 of itself between the windows
    tiny = parse_element(HALF, ["1/(1000000000+1000000000*t^2)@0"])
    report = norm_estimate(tiny, windows, dyadic_measure)
    assert abs(report.estimates[-1] - report.estimates[-2]) < 1e-8
    assert not report.converged


def test_norm_window_ordering_enforced(dyadic_measure):
    a = parse_element(HALF, ["1@0"])
    with pytest.raises(DomainError):
        norm_estimate(a, [TruncationWindow(-3, 3), TruncationWindow(-2, 2)],
                      dyadic_measure)
    with pytest.raises(DomainError):
        norm_estimate(a, [], dyadic_measure)


def test_norm_report_rejects_decreasing_estimates():
    with pytest.raises(DomainError):
        NormReport((3, 5), (1.0, 0.5), False, 0.5)


def test_z_transform_scalar_cases():
    Z = z_transform(np.zeros((3, 3))).z
    assert np.linalg.norm(Z) == 0
    Z = z_transform(np.eye(3)).z
    assert np.allclose(Z, np.eye(3) / math.sqrt(2.0), atol=1e-15)


def test_z_transform_diagonal_oracle():
    d = np.array([0.5 ** n for n in range(-5, 6)])
    Z = z_transform(np.diag(d)).z
    want = np.diag([scalar_z(x) for x in d])
    assert np.max(np.abs(Z - want)) <= 1e-15


def test_z_transform_contracts():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Z = z_transform(M).z
        assert np.linalg.norm(Z, 2) < 1.0


def test_z_of_model_shift_times_scalar_profile(dyadic_measure):
    # z(zeta) = u z(modulus) exactly: both sides shift levels down by one
    T = _model(dyadic_measure, -6, 6, exact=False)
    Z = z_transform(T.zeta).z
    prof = np.diag([scalar_z(float(gp.value)) for gp in T.grid])
    assert np.max(np.abs(Z - T.u @ prof)) <= 1e-14


def test_pi_image_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(1, 40))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        norm = np.linalg.norm(M, 2)
        M *= rng.uniform(0.1, 10.0) / norm
        back = pi_image(z_transform(M).z)
        assert np.max(np.abs(back - M)) <= 1e-9


def test_pi_image_rejects_unit_norm():
    with pytest.raises(SingularityError):
        pi_image(np.eye(4))


def test_pi_image_shape_guard():
    with pytest.raises(DomainError):
        pi_image(np.ones((2, 3)))
    with pytest.raises(DomainError):
        z_transform(np.ones((2, 3)))


def test_rapid_decay_profile():
    phi2 = rapid_decay_family(2, HALF)
    phi3 = rapid_decay_family(3, HALF)
    assert phi2(0.0) == 0.0
    assert phi2.value_at_zero == 0
    assert phi2.vanishes_at_infinity
    for t in [2.0 ** k for k in range(-25, 26)]:
        v2, v3 = phi2(t), phi3(t)
        assert v2.imag == 0.0
        assert 0.0 <= v2.real <= v3.real < 1.0
    for t in [2.0 ** k for k in range(-10, 11)]:
        assert phi2(t).real > 0.0
    # decays faster than any power at both ends
    for t in (2.0 ** -20, 2.0 ** -30):
        assert abs(phi3(t)) / t ** 8 <= 1e-10
    for t in (2.0 ** 20, 2.0 ** 30):
        assert abs(phi3(t)) * t ** 8 <= 1e-10
    with pytest.raises(DomainError):
        rapid_decay_family(0, HALF)


def _decaying_coefficient():
    return ClosureCoefficient(lambda t: t * math.exp(-t), 0.0, True)


def test_z_factorization_small_defect(dyadic_measure):
    T = _model(dyadic_measure, -6, 6, exact=False)
    f = _decaying_coefficient()
    for k in (1, -1, 2, -2):
        assert verify_z_factorization(T, f, k, n=2) <= 1e-10
    # t**2 leaves float range at the ends of these windows, z(t) does not
    for q in (HALF, "3/7"):
        T = qnormal.build_from_generators(q, ["1"], TruncationWindow(-800, 800))
        for k in (1, -1, 3, -3):
            defect = verify_z_factorization(T, f, k, n=2)
            assert math.isfinite(defect) and defect <= 1e-10


def test_z_factorization_sees_a_q_that_does_not_match_the_grid(dyadic_measure):
    # k = -1 uses only z(t) itself, so it cannot tell the ratios apart
    T = dataclasses.replace(_model(dyadic_measure, -6, 6, exact=False), q=Fraction(1, 3))
    for k in (1, 2, -3):
        assert verify_z_factorization(T, _decaying_coefficient(), k, n=2) > 1e-3


def test_z_factorization_guards(dyadic_measure):
    T = _model(dyadic_measure, -6, 6, exact=False)
    f = _decaying_coefficient()
    with pytest.raises(DomainError):
        verify_z_factorization(T, f, 0, n=2)
    bad = ClosureCoefficient(lambda t: 1.0 + t, 1.0, False)
    with pytest.raises(DomainError):
        verify_z_factorization(T, bad, 1, n=2)
    small = _model(dyadic_measure, -2, 2, exact=False)
    with pytest.raises(ConfigurationError):
        verify_z_factorization(small, f, 3, n=2)


def test_scalar_z_matches_matrix_case():
    for tau in (0.0, 0.25, 1.0, 8.0):
        got = z_transform(np.array([[tau]])).z[0, 0]
        assert abs(got - scalar_z(tau)) <= 1e-15


def test_scalar_z_at_extreme_arguments():
    # tau**2 overflows and underflows here; the transform is ~1 and ~tau
    assert scalar_z(1e200) == 1.0
    assert scalar_z(-1e200) == -1.0
    assert scalar_z(1e-200) == 1e-200


def _old_pi_image(z):
    """The former two-step inverse transform: ||z|| by SVD, then eigh of 1 - z*z."""
    z = np.asarray(z, dtype=complex)
    norm = float(np.linalg.norm(z, 2))
    if norm >= 1.0 - represent.UNIT_NORM_GUARD:
        raise SingularityError(f"operator norm {norm} too close to 1; image unbounded")
    G = np.eye(z.shape[0], dtype=complex) - z.conj().T @ z
    vals, vecs = np.linalg.eigh(G)
    vals = np.clip(vals, represent.EIGENVALUE_CLAMP, None)
    return z @ ((vecs * (vals ** -0.5)) @ vecs.conj().T)


def _with_norm(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    """A complex n x n matrix with singular values norm, then below norm / 2."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    s = np.concatenate([[norm], rng.uniform(0, norm / 2, n - 1)])
    return (u * s) @ v.conj().T


def test_pi_image_is_bit_identical_to_the_two_step_path(dyadic_measure):
    rng = np.random.default_rng(5)
    T = _model(dyadic_measure, -6, 6, exact=False)
    zs = [z_transform(represent.represent(parse_element(HALF, lits), T)).z
          for lits in (["t@1"], ["1/(1+t^2)@0", "t@-1"])]
    zs += [_with_norm(rng, n, s) for n, s in ((1, 0.5), (5, 0.9), (40, 1 - 1e-6))]
    for z in zs:
        got, want = pi_image(z), _old_pi_image(z)
        if z.imag.any():
            assert np.array_equal(got, want)
        else:   # a real z is inverted in real arithmetic, which rounds differently
            assert got.dtype == complex and not got.imag.any()
            assert np.linalg.norm(got - want, 2) <= 1e-14 * np.linalg.norm(want, 2)
    assert sum(not z.imag.any() for z in zs) == 2


def test_pi_image_guard_reads_the_norm_from_the_eigendecomposition():
    rng = np.random.default_rng(9)
    for n in (1, 4, 30):
        for norm in (1 - 1e-11, 1.0, 1 + 1e-6, 3.0):
            with pytest.raises(SingularityError, match="too close to 1; image unbounded"):
                pi_image(_with_norm(rng, n, norm))
        z = _with_norm(rng, n, 1 - 1e-9)
        assert np.all(np.isfinite(pi_image(z)))


def _complex_z_transform(M):
    """The bounded transform in complex arithmetic, whatever M's entries."""
    M = np.asarray(M, dtype=complex)
    H = np.eye(M.shape[0], dtype=complex) + M.conj().T @ M
    vals, vecs = np.linalg.eigh(H)
    vals = np.clip(vals, represent.EIGENVALUE_CLAMP, None)
    return M @ ((vecs * (vals ** -0.5)) @ vecs.conj().T)


def test_z_transform_of_a_real_matrix_matches_the_complex_formula(dyadic_measure):
    # the two paths round differently, by about eps times the condition of
    # 1 + M*M, so the matrices here have norm at most 4
    rng = np.random.default_rng(23)
    mats = []
    for n in (1, 2, 7, 30, 60):
        for norm in (1e-3, 0.5, 4.0):
            M = rng.normal(size=(n, n))
            mats.append(M * (norm / np.linalg.norm(M, 2)))
    T = _model(dyadic_measure, -25, 25, exact=False)
    mats += [represent.represent(parse_element(HALF, lits), T).real
             for lits in (["t/(1+t^2)@1"], ["2*t^2/(1+t^4)@2", "3/(1+t)@0", "t/(2+t^2)@-3"])]
    for M in mats:
        want = _complex_z_transform(M)
        for given in (M, M.astype(complex)):
            pair = z_transform(given)
            assert pair.z.dtype == complex and pair.original.dtype == complex
            assert np.array_equal(pair.original, M)
            assert not pair.z.imag.any()
            assert np.linalg.norm(pair.z - want, 2) <= 1e-14 * np.linalg.norm(want, 2)


def test_z_transform_of_a_complex_matrix_keeps_the_complex_bits():
    rng = np.random.default_rng(29)
    for n in (1, 3, 12, 40):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.array_equal(z_transform(M).z, _complex_z_transform(M))
    # one nonzero imaginary part is enough to take the complex path
    M = rng.normal(size=(6, 6)).astype(complex)
    M[2, 4] += 1e-300j
    assert np.array_equal(z_transform(M).z, _complex_z_transform(M))


@pytest.mark.parametrize("half", [25, 50, 75])
def test_pi_image_inverts_the_real_transform_of_represented_elements(dyadic_measure, half):
    T = _model(dyadic_measure, -half, half, exact=False)
    assert T.dim == 2 * half + 1
    for lits in (["t/(1+t^2)@1"], ["1/(1+t^2)@0", "t/(1+t^2)@-1"],
                 ["2*t^2/(1+t^4)@2", "3/(1+t)@0", "t/(2+t^2)@-3"]):
        M = represent.represent(parse_element(HALF, lits), T)
        assert not M.imag.any()
        back = pi_image(z_transform(M).z)
        assert np.max(np.abs(back - M)) <= 1e-9


def _former_represent_band(a, T) -> mo.Band:
    """The earlier construction: sum_k f_k(modulus) times the one diagonal of u**k."""
    diags = {}
    for k, f in a.terms:
        for d, row in qnormal.shift(T, k).diags.items():
            values = qnormal.spectral_band(T, f).diags[0] * row
            diags[d] = diags[d] + values if d in diags else values
    return mo.Band(T.dim, T.exact, diags)


@pytest.mark.parametrize("q, gens, zero_mass", [
    ("1/2", ["1"], "0"), ("1/2", ["1"], "1"), ("3/7", ["1", "2/3"], "0"),
    ("2/3", ["1", "5/6"], "1/2"), ("1/1", ["1", "1/3"], "1"), ("1/2", [], "1"),
])
@pytest.mark.parametrize("exact", [True, False])
def test_represent_band_places_each_mode_on_the_rows_of_its_shift(q, gens, zero_mass, exact):
    # modes up to 6 levels away on a window of 5 levels: |k| >= levels reaches
    # past the grid, and with no generators every mode lands on offset 0
    T = qnormal.build_from_generators(q, gens, TruncationWindow(-2, 2),
                                      zero_mass=zero_mass, exact=exact)
    im_t = algebra.RationalCoefficient(
        RationalComplex(Fraction(1), Fraction(-2)) * RationalFunction.variable())
    a = parse_element(q, ["1/(1+t^2)@0", "t@1", "(1+t)/(2+t^3)@-2", "t^2@4", "3@5", "t@-6"])
    a = algebra.element(a.q, {**dict(a.terms), -1: im_t})
    new, old = represent.represent_band(a, T), _former_represent_band(a, T)
    assert set(new.diags) == set(old.diags)
    N, M = new.dense(), old.dense()
    if exact:
        assert all(x == y for x, y in zip(N.flat, M.flat))
    else:
        assert np.array_equal(N, M)
