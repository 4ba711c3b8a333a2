import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import helpers
import qcplane.matrixops as mo
from qcplane import algebra, qnormal, qspace, represent
from qcplane.algebra import RationalCoefficient
from qcplane.qnormal import TruncationWindow
from qcplane.ratfunc import RationalFunction
from qcplane.scalars import RationalComplex, exact_magnitude

T_VAR = RationalFunction.variable()


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
    """Dense matrix written entry by entry: (i, i + d) holds v_d[i].

    An exact one has Fraction(0) in every entry no diagonal value lands on.
    """
    n = B.dim
    D = (np.full((n, n), Fraction(0), dtype=object) if B.exact
         else np.zeros((n, n), dtype=complex))
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


# (3, -9, 15), (6, 18) and (-4, 8, 20) lie in a coset d0 + hZ with d0 != 0 and blocks
# of several rows; (-30, 30) at dim 40 has h = 60 >= dim, so every block is one entry
FLOAT_OFFSETS = [(0,), (3,), (0, 5, -5), (2, -7, 11), (-1, 0, 1), (1, -1), (), (40, -40, 0),
                 (3, -9, 15), (6, 18), (-4, 8, 20), (-30, 30)]


def test_float_band_norm_matches_dense_svd():
    rng = np.random.default_rng(61)
    for dim in (1, 2, 9, 24, 40, 61):
        for offsets in FLOAT_OFFSETS:
            for density in (0.3, 1.0):
                B = _float_band(rng, dim, offsets, density)
                # an all-zero diagonal at offset 7 adds no entry, so it must not join blocks
                Z = mo.Band(dim, False, {**B.diags, 7: np.zeros(dim, dtype=complex)})
                # a range of rows is marked by one slice, any other iterable by its indices
                keeps = [None, [], sorted(rng.choice(dim, size=dim // 2, replace=False)),
                         range(1, dim - 1), range(dim // 3, dim), range(0, dim, 2)]
                for keep in keeps:
                    want = _dense_norm(B.dense(), keep)
                    assert abs(B.norm(keep) - want) <= 1e-12 * max(1.0, want)
                    assert Z.norm(keep) == B.norm(keep)
    # no two entries of (-30, 30) at dim 40 share a row class mod 60: the norm is
    # the largest |entry|, bit for bit
    B = _float_band(rng, 40, (-30, 30), 1.0)
    assert B.norm() == float(np.max(np.abs(B.dense())))


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


def _int_padded_band(rng: random.Random, dim: int, offsets, complex_values: bool) -> mo.Band:
    """Exact band as the models make one: values on some rows, the int 0 on the rest."""
    diags = {}
    for d in offsets:
        v = np.zeros(dim, dtype=object)
        for i in range(max(0, -d), min(dim, dim - d)):
            if rng.random() < 0.7:
                v[i] = (_scalar(rng, True) if complex_values
                        else Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        diags[d] = v
    return mo.Band(dim, True, diags)


def _oracle_power(D: np.ndarray, k: int) -> np.ndarray:
    """D**k of an exact dense oracle, (D*)**|k| for k < 0, padded with Fraction(0)."""
    step = D if k >= 0 else np.array([[x.conjugate() for x in col] for col in D.T], dtype=object)
    P = np.full(D.shape, Fraction(0), dtype=object)
    for i in range(len(D)):
        P[i, i] = Fraction(1)
    for _ in range(abs(k)):
        P = P @ step
    return P


def _assert_same_entries(M: np.ndarray, D: np.ndarray) -> None:
    assert M.shape == D.shape
    assert all(x == y for x, y in zip(M.flat, D.flat))
    assert all(helpers.follows_value_rule(x) for x in M.flat)


def _wide_model() -> qnormal.TruncatedQNormal:
    """q = 3/7 on levels -200..200 with two generators and a kernel slot: dim 803."""
    return qnormal.build_from_generators("3/7", ["1", "5/7"], TruncationWindow(-200, 200),
                                         zero_mass=1, exact=True)


def _cut(rng: random.Random, B: mo.Band, start: int, dim: int) -> mo.Band:
    """Rows and columns start..start + dim - 1 of B, with about a third of the
    values replaced by the int 0."""
    diags = {}
    for d, v in B.diags.items():
        if abs(d) < dim:
            w = np.array(v[start:start + dim])
            w[[rng.random() < 0.3 for _ in range(dim)]] = 0
            diags[d] = w
    return mo.Band(dim, True, diags)


def _cut_bands(rng: random.Random, complex_values: bool) -> list[mo.Band]:
    """7 x 7 bands cut from models: real values past 2**1000 from the top of the
    wide model's relation operands, or complex values over a kernel slot."""
    if not complex_values:
        T = _wide_model()
        zs = T.zeta_band.adjoint()
        bands = [T.zeta_band @ zs, zs @ T.zeta_band, T.zeta_band + zs, T.modulus_band]
        cuts = [_cut(rng, B, start, 7) for B in bands for start in (0, 3)]
        assert max(abs(x).numerator.bit_length() for B in cuts
                   for v in B.diags.values() for x in v) > 1000
        return cuts
    cuts = []
    for gens in (["1"], ["1", "3/4"]):
        T = qnormal.build_from_generators("1/2", gens, TruncationWindow(-3, 3), zero_mass=1,
                                          exact=True)
        i_t = RationalComplex(Fraction(1, 3), Fraction(-2)) * T_VAR
        a = algebra.element(T.q, {0: RationalCoefficient(1 + i_t), 1: RationalCoefficient(i_t),
                                  -1: RationalCoefficient(1 / (1 + T_VAR * T_VAR))})
        B = represent.represent_band(a, T) + T.zeta_band.scale(RationalComplex(0, Fraction(1, 5)))
        cuts += [_cut(rng, B, start, 7) for start in sorted({T.dim - 7, max(T.dim - 10, 0), 0})]
    return cuts


@pytest.mark.parametrize("complex_values", [False, True])
def test_int_padded_exact_bands_match_fraction_padded_oracle(complex_values):
    rng = random.Random(83)
    dim = 7
    for offs_a in OFFSETS:
        for offs_b in OFFSETS:
            A = _int_padded_band(rng, dim, offs_a, complex_values)
            B = _int_padded_band(rng, dim, offs_b, complex_values)
            DA, DB = _oracle(A), _oracle(B)
            _assert_same_entries(A.dense(), DA)
            _assert_same_entries((A + B).dense(), DA + DB)
            _assert_same_entries((A - B).dense(), DA - DB)
            _assert_same_entries((A @ B).dense(), DA @ DB)
            _assert_same_entries(A.adjoint().dense(), _oracle_power(DA, -1))
    for d in (0, 1, -2, 3, 6):
        A = _int_padded_band(rng, dim, (d,), complex_values)
        for k in range(-4, 5):
            _assert_same_entries(A.power(k).dense(), _oracle_power(_oracle(A), k))
    blocks = [[_int_padded_band(rng, 4, offs, complex_values) for offs in row]
              for row in (((0, 2), (-1,)), ((), (0, -3, 3)))]
    _assert_same_entries(mo.Band.from_blocks(blocks).dense(),
                         np.block([[_oracle(b) for b in row] for row in blocks]))
    # bands cut from models: entries past 2**1000, or complex over a kernel slot
    cuts = _cut_bands(rng, complex_values)
    for A, B in zip(cuts, cuts[1:] + cuts[:1]):
        DA, DB = _oracle(A), _oracle(B)
        _assert_same_entries(A.dense(), DA)
        _assert_same_entries((A + B).dense(), DA + DB)
        _assert_same_entries((A - B).dense(), DA - DB)
        _assert_same_entries((A @ B).dense(), DA @ DB)
        _assert_same_entries(A.adjoint().dense(), _oracle_power(DA, -1))
        _assert_same_entries(A.scale(Fraction(-3, 7)).dense(), DA * Fraction(-3, 7))
    # an exact model made float is the float-built model, bit for bit
    exact = _wide_model() if not complex_values else qnormal.build_from_generators(
        "1/2", ["1", "3/4"], TruncationWindow(-3, 3), zero_mass=1, exact=True)
    floats = qnormal.build_from_generators(exact.q, exact.grid.generators, exact.window,
                                           zero_mass=exact.kernel_dim, exact=False)
    for name in ("zeta_band", "u_band", "modulus_band"):
        got, want = getattr(exact.as_float(), name), getattr(floats, name)
        assert not got.exact and got.diags.keys() == want.diags.keys()
        for d, v in want.diags.items():
            assert got.diags[d].dtype == v.dtype == complex
            assert got.diags[d].tobytes() == v.tobytes()


def _assert_value_rule(B: mo.Band) -> None:
    """Every entry of dense() and diags: the int 0 when it is 0, a Fraction when
    real, else a RationalComplex with a nonzero imaginary part."""
    assert all(helpers.follows_value_rule(x) for x in B.dense().flat)
    assert all(helpers.follows_value_rule(x) for v in B.diags.values() for x in v)


@pytest.mark.parametrize("complex_values", [False, True])
def test_exact_band_entries_follow_the_value_rule(complex_values):
    rng = random.Random(101)
    half_i = RationalComplex(0, Fraction(1, 2))
    for offs_a in OFFSETS:
        for offs_b in OFFSETS:
            # values written as Fraction(0) or RationalComplex(0), and int-padded ones
            A = (_random_band(rng, 7, True, offs_a) if complex_values
                 else _int_padded_band(rng, 7, offs_a, False))
            B = _int_padded_band(rng, 7, offs_b, complex_values)
            for C in (A, A + B, A - B, A @ B, A @ A.adjoint(), A.adjoint(),
                      A.scale(Fraction(-3, 7)), A.scale(half_i), A.scale(0)):
                _assert_value_rule(C)
            # a difference that cancels holds the int 0 everywhere
            assert all(type(x) is int and x == 0 for x in (A - A).dense().flat)
            assert all(type(x) is int for v in (A - A).diags.values() for x in v)
    for d in (0, 1, -2, 3, 6):
        A = _int_padded_band(rng, 7, (d,), complex_values)
        for k in range(-4, 5):
            _assert_value_rule(A.power(k))
    blocks = [[_int_padded_band(rng, 4, offs, complex_values) for offs in row]
              for row in (((0, 2), (-1,)), ((), (0, -3, 3)))]
    _assert_value_rule(mo.Band.from_blocks(blocks))
    # a kernel-slot model: its bands, a represented element and the relation defect
    T = qnormal.build_from_generators("1/2", ["1", "3/4"], TruncationWindow(-3, 3), zero_mass=1,
                                      exact=True)
    zs = T.zeta_band.adjoint()
    a = algebra.element(T.q, {0: RationalCoefficient(1 + half_i * T_VAR),
                              1: RationalCoefficient(T_VAR), -1: RationalCoefficient(RationalFunction.constant(half_i))})
    for C in (T.zeta_band, T.u_band, T.modulus_band, represent.represent_band(a, T),
              T.zeta_band @ zs - (zs @ T.zeta_band).scale(T.q * T.q), *_cut_bands(rng, True)):
        _assert_value_rule(C)


def test_exact_measures_of_int_padded_operators_are_fractions():
    zero = mo.Band(6, True, {0: np.zeros(6, dtype=object), 2: np.zeros(6, dtype=object)})
    Z = zero.dense()
    for got in (zero.norm(), zero.norm([1, 3]), mo.Band(6, True).norm(), mo.defect_norm(Z),
                mo.defect_norm(Z[:0, :0]), mo.max_entry_gap(Z, Z)):
        assert type(got) is Fraction and got == 0
    rng = random.Random(89)
    for complex_values in (False, True):
        A = _int_padded_band(rng, 7, (0, 2, -1), complex_values)
        D = A - A
        for got in (D.norm(), mo.defect_norm(D.dense()), mo.max_entry_gap(A.dense(), A.dense())):
            assert type(got) is Fraction and got == 0
        want = max(exact_magnitude(x) for x in _oracle(A).flat)
        for got in (A.norm(), mo.defect_norm(A.dense()), mo.max_entry_gap(A.dense(), D.dense())):
            assert type(got) is Fraction and got == want
    _int_padded_band(rng, 7, (0, 3), False)   # the cut bands below follow this draw
    # bands cut from models: entries past 2**1000, or complex over a kernel slot
    for complex_values in (False, True):
        for A in _cut_bands(rng, complex_values):
            D = A - A
            DA = _oracle(A)
            for got in (D.norm(), D.norm([0, 4]), mo.max_entry_gap(A.dense(), A.dense())):
                assert type(got) is Fraction and got == 0
            want = max(exact_magnitude(x) for x in DA.flat)
            for got in (A.norm(), mo.defect_norm(A.dense()), mo.max_entry_gap(A.dense(), D.dense())):
                assert type(got) is Fraction and got == want
            keep = [1, 2, 5]
            assert A.norm(keep) == max(exact_magnitude(x) for x in mo.compress(DA, keep).flat)
    # negative control: one interior entry of zeta moved by 10**-30 gives the
    # relation defect of the dense oracle, not 0
    T = qnormal.build_from_generators("3/7", ["1", "5/7"], TruncationWindow(-6, 6), zero_mass=1,
                                      exact=True)
    i = T.interior_indices()[5]
    nudge = np.zeros(T.dim, dtype=object)
    nudge[i] = Fraction(1, 10 ** 30)
    bad = dataclasses.replace(T, zeta_band=T.zeta_band + mo.Band(T.dim, True, {T.n_gens: nudge}))
    Z = bad.zeta
    Zs = mo.adjoint(Z)
    q2 = T.q * T.q
    oracle = Z @ Zs - (Zs @ Z) * q2
    idx = T.interior_indices()
    report = qnormal.verify_relation(bad)
    want = mo.defect_norm(mo.compress(oracle, idx))
    assert type(report.interior_defect) is Fraction and report.interior_defect == want > 0
    assert report.boundary_defect == mo.defect_norm(oracle)
    assert qnormal.verify_relation(T).interior_defect == 0


def test_one_offset_float_band_norm_is_the_largest_kept_entry():
    rng = np.random.default_rng(73)
    for dim in (1, 2, 9, 24):
        for d in (0, 1, -3, 7, dim - 1):
            for density in (0.0, 0.3, 1.0):
                B = _float_band(rng, dim, (d,), density)
                for keep in (None, [], sorted(rng.choice(dim, size=dim // 2, replace=False)),
                             range(0), range(1, dim - 1), range(dim // 2, dim + 3)):
                    inside = [i for i in range(dim) if keep is None or i in keep]
                    kept = np.zeros(dim, dtype=bool)
                    kept[inside] = True
                    rows = B._rows(d)
                    rows = rows[kept[rows] & kept[rows + d]]
                    entries = B.diags[d][rows] if d in B.diags else np.zeros(0)
                    got = B.norm(keep)
                    assert got == (float(np.max(np.abs(entries))) if entries.any() else 0.0)
                    want = _dense_norm(B.dense(), inside)
                    assert abs(got - want) <= 1e-12 * max(1.0, want)


def _reference_kept_rows(B: mo.Band, keep) -> dict:
    """Band._kept_rows as it was before the one-pass gap: keep marked in one row mask."""
    if keep is None:
        return {d: B._rows(d) for d in B._diags}
    kept = np.zeros(B.dim, dtype=bool)
    if isinstance(keep, range) and keep.step == 1 and keep.start >= 0:
        kept[keep.start:keep.stop] = True
    else:
        kept[np.asarray(list(keep), dtype=int)] = True
    out = {}
    for d in B._diags:
        r = B._rows(d)
        out[d] = r[kept[r] & kept[r + d]]
    return out


def _reference_float_norm(B: mo.Band, kept: dict) -> float:
    """Band._float_norm as it was before the one-pass gap, on the rows of kept."""
    offsets, rows, cols, vals = [], [], [], []
    for d, r in kept.items():
        v = B._diags[d][r]
        if not np.isfinite(v).all():
            return float("inf")
        nonzero = v != 0
        if nonzero.any():
            offsets.append(d)
            rows.append(r[nonzero])
            cols.append(r[nonzero] + d)
            vals.append(v[nonzero])
    if not offsets:
        return 0.0
    h = math.gcd(*(d - offsets[0] for d in offsets)) or B.dim
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    block = rows % h
    single = np.bincount(block)[block] == 1
    best = float(np.max(np.abs(vals[single]), initial=0.0))
    if not single.all():
        n = -(-B.dim // h)
        shared = ~single
        members, slot = np.unique(block[shared], return_inverse=True)
        stack = np.zeros((len(members), n, n), dtype=complex)
        stack[slot, rows[shared] // h, cols[shared] // h] = vals[shared]
        best = max(best, float(np.max(np.linalg.norm(stack, 2, axis=(1, 2)))))
    return best


def _reference_gap(L: mo.Band, R: mo.Band, keep) -> tuple[float, float]:
    """Band.gap as it was before the one-pass gap: L - R formed as a band, then measured."""
    with np.errstate(over="ignore", invalid="ignore"):
        D = L - R
    kept = _reference_kept_rows(D, keep)
    worst = 0.0
    for d, r in kept.items():
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.abs(L.diagonal(d)[r]) + np.abs(R.diagonal(d)[r])
        if not np.isfinite(scale).all():
            return float("inf"), float("inf")
        diff = np.abs(D._diags[d][r])
        worst = max(worst, float((diff / np.maximum(scale, np.finfo(float).smallest_subnormal))
                                 .max(initial=0.0)))
    return _reference_float_norm(D, kept), worst


def _edge_band(rng: np.random.Generator, dim: int, offsets) -> mo.Band:
    """A float band whose entries mix normal values over 60 decades with 0, +-inf, nan
    and +-1e308, each special value in about one band of two."""
    special = np.array([0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    diags = {}
    for d in offsets:
        v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.integers(-30, 30, dim)
        v[rng.random(dim) < 0.3] = 0
        for part in (v.real, v.imag):
            hit = rng.random(dim) < (0.15 if rng.random() < 0.5 else 0.0)
            part[hit] = rng.choice(special, hit.sum())
        diags[d] = v
    return mo.Band(dim, False, diags)


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


def test_one_pass_gap_and_norm_keep_the_bits_of_the_band_difference():
    # gap and norm against the copies above, on the same bands and keeps, bit for bit
    # and raising no warning
    rng = np.random.default_rng(48)
    for trial in range(400):
        dim = int(rng.integers(1, 41))
        offsets = [int(d) for d in rng.integers(-dim, dim + 1, size=rng.integers(0, 4))]
        L = _edge_band(rng, dim, offsets)
        if rng.random() < 0.5:
            # R equal to L on most entries, so that many differences are 0
            with np.errstate(all="ignore"):
                R = mo.Band(dim, False, {d: np.where(rng.random(dim) < 0.7, v, 0.5 * v)
                                         for d, v in L.diags.items()})
        else:
            others = [int(d) for d in rng.integers(-dim, dim + 1, size=rng.integers(0, 4))]
            R = _edge_band(rng, dim, others)
        a, b = sorted(int(x) for x in rng.integers(0, dim + 1, size=2))
        keeps = [None, range(0), range(a, a), range(a, b), range(0, dim), range(b, dim + 5), [],
                 sorted(int(i) for i in rng.choice(dim, size=rng.integers(1, dim + 1),
                                                   replace=False))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for keep in keeps:
                assert _bits(L.gap(R, keep)) == _bits(_reference_gap(L, R, keep)), (trial, keep)
                for B in (L, R):
                    want = _reference_float_norm(B, _reference_kept_rows(B, keep))
                    assert _bits([B.norm(keep)]) == _bits([want]), (trial, keep)


@pytest.mark.parametrize("complex_values", [False, True])
def test_power_of_a_multi_diagonal_band_matches_the_dense_oracle(complex_values):
    rng = random.Random(89)
    for offs in ((0, 1), (-1, 2), (0, 2, -1), (3, -3), (1, 8), ()):
        A = _int_padded_band(rng, 7, offs, complex_values)
        for k in range(-3, 4):
            _assert_same_entries(A.power(k).dense(), _oracle_power(_oracle(A), k))


def test_float_power_of_one_diagonal_is_the_product_of_its_shifted_diagonals():
    # row i of A**k, A = diag(v) S**n, is v[i] v[i + n] ... v[i + (k - 1) n],
    # multiplied left to right in complex128
    rng = np.random.default_rng(17)
    dim = 9
    for n in (0, 1, -1, 2, -3, 5):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        A = mo.Band(dim, False, {n: v})
        for k in range(1, 6):
            got = A.power(k)
            if k * abs(n) >= dim:
                assert not got.diags
                continue
            want = v
            for j in range(1, k):
                want = want * np.roll(v, -j * n)
            rows = A._rows(k * n)
            assert list(got.diags) == [k * n]
            assert got.diags[k * n][rows].tobytes() == want[rows].tobytes()


def test_exact_scaling_refuses_a_float():
    band = mo.Band(3, True, {0: mo.ExactDiagonal.written([1, 2, 3], [1, 1, 1])})
    for s in (0.5, 1j):
        with pytest.raises(TypeError, match="not an exact scalar"):
            band.scale(s)
    with pytest.raises(TypeError, match="not an exact scalar"):
        exact_magnitude(0.5)
