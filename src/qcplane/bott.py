"""Bott-type projections over the compactified deformed plane.

The rank-one projection onto the graph of the n-th power of the deformed
coordinate has 2x2 entries that are rational functions of the modulus times
canonical shift powers; both diagonal entries live in the unitization (the
lower one has unit scalar 1).  Idempotency and self-adjointness are verified
two ways: exactly, coefficient by coefficient at rational sample points, and
numerically through the truncated matrix representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import matrixops as mo
from .algebra import (AlgebraElement, RationalCoefficient, UnitizedElement,
                      element, multiply, u_add, u_adjoint, u_mul, u_scale,
                      u_sub, unitized_residual, zero_element)
from .errors import ConfigurationError, DomainError
from .qnormal import TruncatedQNormal
from .ratfunc import RationalFunction
from .represent import represent_band
from .scalars import parse_rational

Entries = tuple[tuple[UnitizedElement, UnitizedElement],
                tuple[UnitizedElement, UnitizedElement]]


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

    @property
    def mode_span(self) -> int:
        return self.n


def _split_at_infinity(a: AlgebraElement) -> UnitizedElement:
    """Peel the limit at infinity of the mode-0 coefficient into the unit slot."""
    lam = Fraction(0)
    body: dict[int, RationalCoefficient] = {}
    for k, f in a.terms:
        if not isinstance(f, RationalCoefficient):
            raise DomainError("unitization split needs rational coefficients")
        if k == 0:
            lim = f.rf.limit_at_infinity()
            if lim.im != 0:
                raise DomainError("unit scalar must be real here")
            lam = lim.re
            body[k] = RationalCoefficient._from_checked(f.rf - RationalFunction.constant(lim))
        else:
            if not f.rf.vanishes_at_infinity:
                raise DomainError("off-zero modes must vanish at infinity")
            body[k] = f
    return UnitizedElement(element(a.q, body), lam)


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

    e11 = _split_at_infinity(g)
    e12 = _split_at_infinity(multiply(g, row))
    e21 = _split_at_infinity(multiply(col, g))
    e22 = _split_at_infinity(multiply(col, multiply(g, row)))
    return ProjectionCandidate(n, sign, q, ((e11, e12), (e21, e22)))


def unitized_diag(q, top, bottom) -> Entries:
    """Diagonal 2x2 of unit scalars, zero bodies."""
    q = parse_rational(q)
    z = zero_element(q)
    return ((UnitizedElement(z, top), UnitizedElement(z, 0)),
            (UnitizedElement(z, 0), UnitizedElement(z, bottom)))


def m2_mul(A: Entries, B: Entries) -> Entries:
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            row.append(u_add(u_mul(A[i][0], B[0][j]), u_mul(A[i][1], B[1][j])))
        out.append(tuple(row))
    return tuple(out)


def m2_sub(A: Entries, B: Entries) -> Entries:
    return tuple(tuple(u_sub(A[i][j], B[i][j]) for j in range(2)) for i in range(2))


def m2_adjoint(A: Entries) -> Entries:
    return ((u_adjoint(A[0][0]), u_adjoint(A[1][0])),
            (u_adjoint(A[0][1]), u_adjoint(A[1][1])))


def m2_scale(A: Entries, s) -> Entries:
    return tuple(tuple(u_scale(A[i][j], s) for j in range(2)) for i in range(2))


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
    """Pointwise-exact certificate that P*P - P and P* - P vanish.

    Every coefficient of every entry of both residue matrices is evaluated at
    every rational sample point in exact arithmetic; the report carries the
    maximum magnitude found, which must be exactly 0 for a true projection.
    """
    points = [Fraction(p) for p in sample_points]
    if not points:
        raise DomainError("need at least one sample point")
    A = P.entries
    residues = [m2_sub(m2_mul(A, A), A), m2_sub(m2_adjoint(A), A)]
    zero = unitized_diag(P.q, 0, 0)
    worst = Fraction(0)
    for R in residues:
        for i in range(2):
            for j in range(2):
                r = unitized_residual(R[i][j], zero[i][j], points)
                if not isinstance(r, Fraction):
                    raise DomainError("sample evaluation left the rational field")
                worst = max(worst, r)
    return ExactProjectionReport(worst, len(points))


def represent_unitized(x: UnitizedElement, T: TruncatedQNormal) -> mo.Band:
    return represent_band(x.body, T) + mo.Band.identity(T.dim, T.exact).scale(x.unit)


def _block_band(A: Entries, T: TruncatedQNormal) -> mo.Band:
    """The 2x2 block operator [[A_00, A_01], [A_10, A_11]] as one band of size 2 dim."""
    return mo.Band.from_blocks([[represent_unitized(A[i][j], T) for j in range(2)]
                                for i in range(2)])


def _block_interior(T: TruncatedQNormal, pad: int) -> list[int]:
    idx = T.interior_indices(pad)
    return idx + [i + T.dim for i in idx]


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
    B = _block_band(P.entries, Tf)
    # the flat projection diag(1, 0) has trace dim
    return float((B.trace() - Tf.dim).real)


def projection_report(P: ProjectionCandidate, mode: str, max_residue,
                      points_checked: int | None, winding: float | None,
                      extra: dict | None = None) -> dict:
    data = {
        "n": P.n,
        "sign": "+" if P.sign > 0 else "-",
        "q": f"{P.q.numerator}/{P.q.denominator}",
        "mode": mode,
        "max_residue": max_residue,
        "points_checked": points_checked,
        "winding_diagnostic": None if winding is None else {"value": winding,
                                                            "unverified": True},
    }
    if extra:
        data.update(extra)
    return data
