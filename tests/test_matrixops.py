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
    k = T.kernel_index
    assert k == T.dim - 1
    assert mo.max_entry_gap((T.u_band @ T.modulus_band).dense(), T.u @ T.modulus) == 0
    assert mo.max_entry_gap((T.zeta_band.adjoint() @ T.zeta_band).dense(),
                            mo.adjoint(T.zeta) @ T.zeta) == 0
    for n in range(-4, 5):
        step = T.u if n >= 0 else mo.adjoint(T.u)
        want = np.linalg.matrix_power(step, abs(n)) if n else np.eye(T.dim, dtype=object)
        shift = qnormal.shift(T, n).dense()
        assert mo.max_entry_gap(shift, want) == 0
        # no shift power reaches the kernel slot
        assert all(shift[i, k] == 0 and shift[k, i] == 0 for i in range(T.dim) if i != k)
