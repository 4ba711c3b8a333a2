import random
from fractions import Fraction

import numpy as np
import pytest

import qcplane.matrixops as mo
from qcplane import qnormal, qspace
from qcplane.qnormal import TruncationWindow
from qcplane.scalars import RationalComplex


def _scalar(rng: random.Random, exact: bool):
    re, im = rng.randint(-4, 4), rng.randint(-3, 3)
    if exact:
        return RationalComplex(Fraction(re, rng.randint(1, 5)), Fraction(im, rng.randint(1, 5)))
    # small Gaussian integers: every float sum and product below is exact
    return complex(re, im)


def _random_band(rng: random.Random, dim: int, exact: bool, offsets) -> mo.Band:
    diags = {}
    for d in offsets:
        zero = Fraction(0) if exact else 0j
        diags[d] = np.array([_scalar(rng, exact) if 0 <= i + d < dim else zero
                             for i in range(dim)], dtype=object if exact else complex)
    return mo.Band(dim, exact, diags)


def _oracle(B: mo.Band) -> np.ndarray:
    """Dense matrix written entry by entry: (i, i + d) holds v_d[i]."""
    n = B.dim
    D = np.zeros((n, n), dtype=object if B.exact else complex)
    for d, v in B.diags.items():
        for i in range(n):
            if 0 <= i + d < n:
                D[i, i + d] = D[i, i + d] + v[i]
    return D


OFFSETS = [(0, 2, -1), (-3, 1, 7), (4, -4, 0, 12), (-9,), ()]


@pytest.mark.parametrize("exact", [True, False])
def test_band_matches_dense_object_arithmetic(exact):
    rng = random.Random(53)
    dim = 7
    for offs_a in OFFSETS:
        for offs_b in OFFSETS:
            A = _random_band(rng, dim, exact, offs_a)
            B = _random_band(rng, dim, exact, offs_b)
            # offsets 7, 12 and -9 lie outside a 7 x 7 matrix and are dropped
            assert all(abs(d) < dim for d in A.diags)
            DA, DB = _oracle(A), _oracle(B)
            assert mo.max_entry_gap(A.dense(), DA) == 0
            assert mo.max_entry_gap((A @ B).dense(), DA @ DB) == 0
            assert mo.max_entry_gap((A + B).dense(), DA + DB) == 0
            assert mo.max_entry_gap((A - B).dense(), DA - DB) == 0
            star = np.array([[DA[j, i].conjugate() for j in range(dim)] for i in range(dim)],
                            dtype=DA.dtype)
            assert mo.max_entry_gap(A.adjoint().dense(), star) == 0
            s = _scalar(rng, exact)
            assert mo.max_entry_gap(A.scale(s).dense(), DA * s) == 0
            assert A.dense().dtype == (object if exact else complex)


def test_band_as_float_and_regime_checks():
    rng = random.Random(59)
    A = _random_band(rng, 5, True, (0, 1, -2))
    F = A.as_float()
    assert not F.exact
    assert np.array_equal(F.dense(), mo.to_float(A.dense()))
    assert F.as_float() is F
    with pytest.raises(ValueError):
        A @ F
    with pytest.raises(ValueError):
        A + _random_band(rng, 6, True, (0,))


def test_kernel_model_bands_match_dense_products():
    mu = qspace.uniform_measure("1/2", ["1", "3/4"], zero_mass="1")
    T = qnormal.build(mu, None, TruncationWindow(-3, 3), exact=True)
    assert T.kernel_index == T.dim - 1
    assert mo.max_entry_gap((T.u_band @ T.modulus_band).dense(), T.u @ T.modulus) == 0
    assert mo.max_entry_gap((T.zeta_band.adjoint() @ T.zeta_band).dense(),
                            mo.adjoint(T.zeta) @ T.zeta) == 0
    # shift powers against matrix_power, up to and past the 5-level window
    for gens in (["1"], ["1", "3/4"]):
        mu = qspace.uniform_measure("1/2", gens, zero_mass="1")
        for exact in (True, False):
            T = qnormal.build(mu, None, TruncationWindow(-2, 2), exact=exact)
            k = T.kernel_index
            for n in [*range(-6, 7), -20, 20]:
                step = T.u if n >= 0 else mo.adjoint(T.u)
                want = (np.linalg.matrix_power(step, abs(n)) if n
                        else np.eye(T.dim, dtype=object if exact else complex))
                shift = qnormal.shift(T, n).dense()
                assert mo.max_entry_gap(shift, want) == 0
                if abs(n) >= T.window.size:
                    assert not shift.any()
                # no shift power reaches the kernel slot
                assert all(shift[i, k] == 0 and shift[k, i] == 0
                           for i in range(T.dim) if i != k)


def _float_band(rng: np.random.Generator, dim: int, offsets, density=0.6) -> mo.Band:
    diags = {}
    for d in offsets:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v[rng.random(dim) > density] = 0
        diags[d] = v
    return mo.Band(dim, False, diags)


def _dense_norm(M: np.ndarray, keep) -> float:
    C = mo.compress(M, range(M.shape[0]) if keep is None else keep)
    return float(np.linalg.norm(C, 2)) if C.size else 0.0


FLOAT_OFFSETS = [(0,), (3,), (0, 5, -5), (2, -7, 11), (-1, 0, 1), (1, -1), (), (40, -40, 0)]


def test_float_band_norm_matches_dense_svd():
    rng = np.random.default_rng(61)
    for dim in (1, 2, 9, 24):
        for offsets in FLOAT_OFFSETS:
            for density in (0.3, 1.0):
                B = _float_band(rng, dim, offsets, density)
                keeps = [None, [], sorted(rng.choice(dim, size=dim // 2, replace=False))]
                for keep in keeps:
                    want = _dense_norm(B.dense(), keep)
                    assert abs(B.norm(keep) - want) <= 1e-12 * max(1.0, want)


def test_float_band_norm_single_chain_and_zero_bands():
    rng = np.random.default_rng(67)
    # a full tridiagonal band links every row and column: one block, one SVD
    B = _float_band(rng, 30, (-1, 0, 1), density=1.0)
    want = float(np.linalg.norm(B.dense(), 2))
    assert abs(B.norm() - want) <= 1e-12 * want
    zero = mo.Band(12, False, {0: np.zeros(12, dtype=complex), 3: np.zeros(12, dtype=complex)})
    assert zero.norm() == 0.0
    assert mo.Band(12, False).norm(range(4)) == 0.0
    # values a diagonal holds past the matrix edge are not entries
    edge = mo.Band(4, False, {2: np.array([0, 0, 5, 7], dtype=complex)})
    assert edge.norm() == 0.0
    assert B.norm([]) == 0.0


def test_float_band_norm_reports_overflow_as_unbounded():
    B = mo.Band(3, False, {0: np.array([1, np.inf, 0], dtype=complex)})
    assert B.norm() == float("inf")
    assert B.norm([0, 2]) == 1.0
    nan = mo.Band(3, False, {1: np.array([np.nan, 0, 0], dtype=complex)})
    assert nan.norm() == float("inf")


def test_float_band_norm_of_permuted_block_diagonal():
    rng = np.random.default_rng(71)
    for _ in range(20):
        sizes = rng.integers(1, 5, size=rng.integers(1, 7))
        n = int(sizes.sum())
        M = np.zeros((n, n), dtype=complex)
        start = 0
        for s in sizes:
            M[start:start + s, start:start + s] = (rng.normal(size=(s, s))
                                                   + 1j * rng.normal(size=(s, s)))
            start += s
        P = M[rng.permutation(n)][:, rng.permutation(n)]
        # every entry (i, j) sits on offset j - i
        diags = {d: np.array([P[i, i + d] if 0 <= i + d < n else 0 for i in range(n)])
                 for d in range(-n + 1, n)}
        B = mo.Band(n, False, diags)
        assert np.array_equal(B.dense(), P)
        want = float(np.linalg.norm(M, 2))
        assert abs(B.norm() - want) <= 1e-12 * want


def test_exact_band_norm_is_max_entry_magnitude():
    rng = random.Random(73)
    dim = 7
    for offsets in OFFSETS:
        B = _random_band(rng, dim, True, offsets)
        D = B.dense()
        for keep in (None, [], [1, 2, 5], [0, 6]):
            C = mo.compress(D, range(dim) if keep is None else keep)
            want = mo.max_entry_gap(C, np.zeros_like(C))
            got = B.norm(keep)
            assert isinstance(got, Fraction)
            assert got == want
            assert got == mo.defect_norm(C)


def test_band_trace_and_blocks():
    rng = random.Random(79)
    for exact in (True, False):
        blocks = [[_random_band(rng, 5, exact, offs) for offs in row]
                  for row in (((0, 2), (-1,)), ((), (0, -4, 3)))]
        whole = mo.Band.from_blocks(blocks)
        want = np.block([[b.dense() for b in row] for row in blocks])
        assert whole.dim == 10
        assert mo.max_entry_gap(whole.dense(), want) == 0
        assert whole.trace() == np.trace(want)
    assert mo.Band(4, True).trace() == 0
