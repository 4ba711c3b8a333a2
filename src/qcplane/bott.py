"""Bott-type projections over the compactified deformed plane.

The rank-one projection onto the graph of the n-th power of the deformed
coordinate has 2x2 entries that are rational functions of the modulus times
canonical shift powers.  The entries live in the unitization of the
subalgebra, whose unit is the constant element ``1@0``, so each is a plain
crossed-product element (the lower diagonal one tends to 1 at infinity).
Idempotency and self-adjointness are verified two ways: exactly by
``element_residual``, which decides equal coefficients as rational functions
and evaluates only a differing pair, at rational sample points; and
numerically through the truncated matrix representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import matrixops as mo
from .algebra import (AlgebraElement, RationalCoefficient, add, adjoint, element,
                      element_residual, multiply, scale)
from .errors import ConfigurationError, DomainError
from .qnormal import TruncatedQNormal
from .ratfunc import RationalFunction
from .represent import represent_band
from .scalars import parse_rational

Entries = tuple[tuple[AlgebraElement, AlgebraElement],
                tuple[AlgebraElement, AlgebraElement]]


def canonical_power(n: int, q) -> tuple[int, RationalCoefficient]:
    """Crossed-product form of the n-th power of the deformed coordinate.

    Repeated reordering through u t = q t u gives
    zeta**n  = q**(n(n+1)/2) t**n U**n        for n > 0,
    zeta***n = q**(-n(n-1)/2) t**n U**(-n)    encoded here as negative input.
    """
    if n == 0:
        raise DomainError("power 0 is the algebra unit, not a coordinate power")
    q = parse_rational(q)
    m = abs(n)
    if n > 0:
        prefactor = q ** (m * (m + 1) // 2)
    else:
        prefactor = q ** (-(m * (m - 1) // 2))
    return n, RationalCoefficient(RationalFunction.monomial(m, prefactor))


def power_element(n: int, q) -> AlgebraElement:
    mode, cf = canonical_power(n, q)
    return element(parse_rational(q), {mode: cf})


@dataclass(frozen=True, eq=False)
class ProjectionCandidate:
    """2x2 projection over the unitized algebra, graph of the n-th power."""

    n: int
    sign: int
    q: Fraction
    entries: Entries


def bott_projection(n: int, sign: int, q) -> ProjectionCandidate:
    """Entries of the rank-one projection onto the graph of the n-th power.

    For sign > 0 the column vector is (1, zeta***n) normalized by
    g = 1/(1 + q**(n(n+1)) t**(2n)); sign < 0 swaps the roles of
    zeta**n and zeta***n.
    """
    if n < 1:
        raise DomainError("projection index must be a positive integer")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    q = parse_rational(q)
    if not 0 < q < 1:
        raise DomainError("projection construction needs q in (0, 1)")

    power = n if sign > 0 else -n
    col = power_element(-power, q)   # second component of the column vector
    row = power_element(power, q)    # second component of the row vector
    c = q ** (n * (n + 1)) if sign > 0 else q ** (-(n * (n - 1)))
    g_fn = RationalFunction.constant(1) / (RationalFunction.constant(1)
                                           + RationalFunction.monomial(2 * n, c))
    g = element(q, {0: RationalCoefficient(g_fn)})

    e12 = multiply(g, row)
    e22 = multiply(col, e12)
    return ProjectionCandidate(n, sign, q, ((g, e12), (multiply(col, g), e22)))


def m2_mul(A: Entries, B: Entries) -> Entries:
    return tuple(tuple(add(multiply(A[i][0], B[0][j]), multiply(A[i][1], B[1][j]))
                       for j in range(2)) for i in range(2))


def m2_adjoint(A: Entries) -> Entries:
    return ((adjoint(A[0][0]), adjoint(A[1][0])),
            (adjoint(A[0][1]), adjoint(A[1][1])))


def m2_scale(A: Entries, s) -> Entries:
    return tuple(tuple(scale(A[i][j], s) for j in range(2)) for i in range(2))


@dataclass(frozen=True)
class ExactProjectionReport:
    max_residue: Fraction
    points_checked: int


@dataclass(frozen=True)
class NumericProjectionReport:
    idempotency_defect: float
    selfadjointness_defect: float

    @property
    def max_defect(self) -> float:
        return max(self.idempotency_defect, self.selfadjointness_defect)


def verify_projection_exact(P: ProjectionCandidate, sample_points) -> ExactProjectionReport:
    """Pointwise-exact certificate that P P = P and P* = P.

    P P and P* are compared with P entry by entry through element_residual, which
    evaluates each differing coefficient pair at every rational sample point in
    exact arithmetic; the largest deviation must be exactly 0 for a projection.
    """
    points = [p if type(p) in (int, Fraction) else Fraction(p) for p in sample_points]
    if not points:
        raise DomainError("need at least one sample point")
    A = P.entries
    worst = max(element_residual(x, a, points) for R in (m2_mul(A, A), m2_adjoint(A))
                for row, row_a in zip(R, A) for x, a in zip(row, row_a))
    return ExactProjectionReport(worst, len(points))


def _block_band(A: Entries, T: TruncatedQNormal) -> mo.Band:
    """The 2x2 block operator [[A_00, A_01], [A_10, A_11]] as one band of size 2 dim."""
    return mo.Band.from_blocks([[represent_band(A[i][j], T) for j in range(2)]
                                for i in range(2)])


def _block_interior(T: TruncatedQNormal, pad: int) -> list[int]:
    idx, dim = T.interior_indices(pad), T.dim
    return idx + [i + dim for i in idx]


def verify_projection_numeric(P: ProjectionCandidate, T: TruncatedQNormal) -> NumericProjectionReport:
    """Defects of B**2 = B = B* for the represented 2x2 block operator."""
    pad = 2 * P.n
    if not T.window.interior_levels(pad):
        raise ConfigurationError(f"window too small for numeric check of n={P.n}: "
                                 f"padding {pad} leaves no interior")
    Tf = T.as_float()
    B = _block_band(P.entries, Tf)
    idx = _block_interior(Tf, pad)
    idem = (B @ B - B).norm(idx)
    sadj = (B.adjoint() - B).norm(idx)
    return NumericProjectionReport(float(idem), float(sadj))


def winding_diagnostic(P: ProjectionCandidate, T: TruncatedQNormal) -> float:
    """Trace gap against the flat rank-one projection diag(1, 0).

    Exploratory only: the value drifts toward the expected pairing as the
    window grows but nothing here certifies it.  Reports carry it with an
    explicit unverified marker.
    """
    Tf = T.as_float()
    trace = sum(represent_band(P.entries[i][i], Tf).trace() for i in range(2))
    # the flat projection diag(1, 0) has trace dim
    return float((trace - Tf.dim).real)
