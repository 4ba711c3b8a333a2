"""Covariant matrix representation, norm estimation, and bounded transforms.

An algebra element sum f_k U**k acts on a truncated operator model as the
band with f_k(t) on the rows where shift(k) has its entries, with no dense
matrix on any model path.  The norm estimator sweeps a family of growing
windows of one fixed faithful model and reports the largest singular value per
window; this stands in for the universal norm (the acting group Z is amenable, an
assumption recorded in the report, never verified here).

The dense bounded transform z(T) = T(1 + T*T)^(-1/2) and its inverse live
here too; the identity moving u**k into powers of z(zeta) = u z(modulus) is a
band identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import matrixops as mo
from .algebra import (AlgebraElement, Classification, ClosureCoefficient,
                      CoefficientFunction, classify)
from .errors import ConfigurationError, DomainError, SingularityError
from .qnormal import TruncatedQNormal, build, shift, spectral_band
from .qspace import QInvariantMeasure

REL_CONVERGENCE_TOL = 1e-8
NONDECREASING_SLACK = 1e-12
EIGENVALUE_CLAMP = 1e-14
UNIT_NORM_GUARD = 1e-10


@dataclass(frozen=True)
class NormReport:
    """Singular-value estimates over a nested window sweep."""

    window_sizes: tuple[int, ...]
    estimates: tuple[float, ...]
    converged: bool
    final: float

    def __post_init__(self):
        for a, b in zip(self.estimates, self.estimates[1:]):
            if b < a - NONDECREASING_SLACK * max(1.0, a):
                raise DomainError("estimates must be nondecreasing in window size")


@dataclass(frozen=True, eq=False)
class ZTransformPair:
    original: np.ndarray
    z: np.ndarray


def represent_band(a: AlgebraElement, T: TruncatedQNormal) -> mo.Band:
    """Band of sum_k f_k(modulus) u**k; exact when T and all f_k are.

    u**k (k != 0) is 1 at offset d = k n_gens on the grid rows from max(0, -d) to
    min(len(grid), len(grid) - d), u**0 is the identity; f_k(t_i) goes on those rows,
    and the other rows of the diagonal hold 0.  An exact band's entries leave it
    by value, as :meth:`represent` states.
    """
    # the ratios are compared as integer pairs: exact band work does no Fraction arithmetic
    if a.q.as_integer_ratio() != T.q.as_integer_ratio():
        raise DomainError("element and model have different ratios")
    n = len(T.grid)
    diags: dict = {}
    for k, f in a.terms:
        d = k * T.n_gens
        # a d past the grid is past the matrix too, and mo.Band drops it; offsets
        # collide only with no generators, where only u**0 has rows
        rows = slice(0, T.dim) if k == 0 else slice(max(0, -d), min(n, n - d))
        values = spectral_band(T, f).diagonal(0)
        diags.setdefault(d, mo.zeros(T.dim, T.exact))[rows] = values[rows]
    return mo.Band(T.dim, T.exact, diags)


def represent(a: AlgebraElement, T: TruncatedQNormal) -> np.ndarray:
    """Matrix of sum_k f_k(modulus) u**k; exact when T and all f_k are.

    An exact matrix holds each value f_k(t_i) at (i, i + k n_gens) on the rows
    of mode k, and 0 elsewhere.  Every entry is given by its value: the int 0
    when it is 0, a Fraction when it is real, and a RationalComplex when its
    imaginary part is nonzero.
    """
    return represent_band(a, T).dense()


def _kernel_band(a: AlgebraElement, T: TruncatedQNormal) -> mo.Band:
    if classify(a) is Classification.FULL:
        raise DomainError("kernel extension needs vanishing nonzero modes")
    if T.kernel_dim != 1:
        raise DomainError("model carries no kernel slot")
    return represent_band(a, T)


def represent_with_kernel(a: AlgebraElement, T: TruncatedQNormal) -> np.ndarray:
    """As represent, with the kernel slot guaranteed to act as f_0(0)."""
    return _kernel_band(a, T).dense()


def psi_check(a: AlgebraElement, T: TruncatedQNormal) -> float:
    """Norm gap between the kernel-extended and kernel-free representations.

    The kernel slot acts as the scalar f_0(0), which the grid block already
    approaches along levels n -> +infinity, so the gap shrinks as the window
    grows upward.
    """
    B = _kernel_band(a, T.as_float())
    return abs(B.norm() - B.norm(range(len(T.grid))))


def norm_estimate(a: AlgebraElement, windows, mu: QInvariantMeasure) -> NormReport:
    """Largest singular value of the represented element per window."""
    windows = list(windows)
    if not windows:
        raise DomainError("need at least one window")
    sizes = [w.size for w in windows]
    if sizes != sorted(sizes):
        raise DomainError("windows must be increasing")
    estimates = [represent_band(a, build(mu, None, w)).norm() for w in windows]
    converged = (len(estimates) >= 2 and
                 abs(estimates[-1] - estimates[-2]) <= REL_CONVERGENCE_TOL * estimates[-1])
    return NormReport(tuple(sizes), tuple(estimates), converged, estimates[-1])


def _bounded(M: np.ndarray, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex A (1 + sign A*A)^(-1/2) of a square M, sign = +-1, and the ascending
    eigenvalues of 1 + sign A*A, clamped away from 0 only in the root.

    A is M's real part when M has no nonzero imaginary part, so that the work
    runs in real arithmetic, and M otherwise.
    """
    if not np.all(np.isfinite(M)):
        raise ArithmeticError("matrix has non-finite entries")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError("transform needs a square matrix")
    A = M.real if not M.imag.any() else M
    gram = A.conj().T @ A
    vals, vecs = np.linalg.eigh(np.eye(M.shape[0], dtype=A.dtype) + (gram if sign > 0 else -gram))
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("eigendecomposition produced non-finite values")
    root = (vecs * (np.clip(vals, EIGENVALUE_CLAMP, None) ** -0.5)) @ vecs.conj().T
    return (A @ root).astype(complex, copy=False), vals


def z_transform(M: np.ndarray) -> ZTransformPair:
    """Bounded transform M (1 + M*M)^(-1/2); both matrices of the pair are complex.

    Its norm ||M|| / sqrt(1 + ||M||^2) is below 1 in exact arithmetic.  The
    computed one stays below 1 while ||M||^2 is far below 1/eps (4.5e15): the
    eigendecomposition of 1 + M*M is off by about eps (1 + ||M||^2) in each
    eigenvalue.  `1@0 + t@2` at q = 1/2 on levels -30..30, of norm 1.1e9,
    comes out at 1.0e7.  An M with no nonzero imaginary part is transformed in
    real arithmetic.
    """
    M = np.asarray(M, dtype=complex)
    return ZTransformPair(M, _bounded(M, 1)[0])


def pi_image(z: np.ndarray) -> np.ndarray:
    """Inverse transform z (1 - z*z)^(-1/2); defined only strictly inside the ball.

    One eigendecomposition of G = 1 - z*z serves both the guard and the
    image: its least eigenvalue is 1 - ||z||^2, so ||z|| needs no SVD.  The
    result is complex; as in :func:`z_transform`, a z with no nonzero
    imaginary part is inverted in real arithmetic.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape == (0, 0):
        return z
    image, vals = _bounded(z, -1)
    norm = math.sqrt(max(0.0, 1.0 - float(vals[0])))
    if norm >= 1.0 - UNIT_NORM_GUARD:
        raise SingularityError(f"operator norm {norm} too close to 1; image unbounded")
    return image


def scalar_z(tau: float) -> float:
    return tau / math.hypot(1.0, tau)


def rapid_decay_family(n: int, q) -> CoefficientFunction:
    """Smooth compactly-decaying approximate unit exp(-q**n (t + 1/t)).

    Vanishes with all orders at t = 0 and at infinity; pointwise nondecreasing
    in n with limit 1 on (0, inf).
    """
    if n < 1:
        raise DomainError("family index starts at 1")
    qn = float(Fraction(q) ** n)

    def phi(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return math.exp(-qn * (t + 1.0 / t))

    return ClosureCoefficient(phi, 0.0, True)


def verify_z_factorization(T: TruncatedQNormal, f: CoefficientFunction,
                           k: int, n: int) -> float:
    """Interior defect of the shift-power factorization through z(zeta).

    For k > 0 compares phi_n(|zeta|) f(|zeta|) u**k with
    phi_n(|zeta|) (prod_{j=1..k} z(q**j |zeta|)^{-1}) f(|zeta|) z_zeta**k,
    and the mirrored product for k < 0 with powers of z_zeta*.
    """
    if k == 0:
        raise DomainError("factorization is about nonzero shift powers")
    if f.value_at_zero != 0:
        raise DomainError("coefficient must vanish at the origin")
    pad = max(abs(k), 1)
    if not T.window.interior_levels(pad):
        raise ConfigurationError("window too small for the requested shift power")
    Tf = T.as_float()
    phi_f = spectral_band(Tf, rapid_decay_family(n, T.q)) @ spectral_band(Tf, f)
    # z(zeta) = u z(modulus), because zeta* zeta is diagonal in the model
    Zk = (Tf.u_band @ spectral_band(Tf, ClosureCoefficient(scalar_z, 0.0, False))).power(k)
    scales = [float(T.q) ** j for j in (range(1, k + 1) if k > 0 else range(0, k, -1))]
    # only where phi f != 0 (never the kernel slot) are the z-values far from underflow
    coef = np.zeros(Tf.dim, dtype=complex)
    t = Tf.modulus_band.diags[0].real.tolist()
    for i in np.flatnonzero(phi_f.diags[0]):
        coef[i] = phi_f.diags[0][i] / math.prod(scalar_z(s * t[i]) for s in scales)
    D = phi_f @ shift(Tf, k) - mo.Band(Tf.dim, False, {0: coef}) @ Zk
    return D.norm(Tf.interior_range(pad))
