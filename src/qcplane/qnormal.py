"""Finite truncations of q-normal operators built from invariant measures.

The L2 space of a q-invariant atomic measure has an orthonormal basis of
normalized atom indicators e_{j,n}, one per generator j and scaling level n
(value t_{j,n} = q**n * x_j), plus one kernel vector when the origin carries
mass.  On a finite window of levels the deformed coordinate acts as
zeta = u * modulus with modulus diagonal and u the downward level shift,
truncated to a partial isometry.  All three are stored as bands
(``matrixops.Band``): modulus on offset 0, u and zeta on offset n_gens.  The
defining identities hold exactly away from the window boundary, and the
verification ops below compress to that interior before measuring defects.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import matrixops as mo
from .algebra import CoefficientFunction, IndicatorCoefficient
from .errors import ConfigurationError, DomainError, EvaluationError
from .qspace import Interval, QInvariantMeasure, SpectralSet
from .scalars import RationalComplex, format_rational, parse_rational


@dataclass(frozen=True)
class TruncationWindow:
    """Range of scaling levels n_min..n_max kept by the truncation."""

    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min > self.n_max:
            raise ConfigurationError(f"window [{self.n_min}, {self.n_max}] out of order")

    @property
    def levels(self) -> range:
        return range(self.n_min, self.n_max + 1)

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1

    def interior_levels(self, pad: int = 1) -> range:
        """Levels at distance >= pad from both window ends.

        The shift truncation is defective at both boundary levels (the top
        loses u*u = 1, the bottom loses uu* = 1), so interior compressions
        drop pad levels from each side.
        """
        return range(self.n_min + pad, self.n_max - pad + 1)


@dataclass(frozen=True)
class GridPoint:
    gen: int
    level: int
    value: Fraction
    weight: Fraction


@dataclass(frozen=True)
class RelationReport:
    interior_defect: object
    boundary_defect: object


@dataclass(frozen=True)
class PolarReport:
    reconstruction_defect: object
    kernel_defect: object


@dataclass(frozen=True, eq=False)
class TruncatedQNormal:
    """Band model of zeta = u * modulus on a level window, kernel slot last.

    ``zeta``, ``u`` and ``modulus`` are dense views of the stored bands.
    """

    q: Fraction
    window: TruncationWindow
    grid: tuple[GridPoint, ...]
    kernel_dim: int
    exact: bool
    zeta_band: mo.Band
    u_band: mo.Band
    modulus_band: mo.Band

    @property
    def zeta(self) -> np.ndarray:
        return self.zeta_band.dense()

    @property
    def u(self) -> np.ndarray:
        return self.u_band.dense()

    @property
    def modulus(self) -> np.ndarray:
        return self.modulus_band.dense()

    @property
    def dim(self) -> int:
        return len(self.grid) + self.kernel_dim

    @property
    def kernel_index(self) -> int | None:
        return len(self.grid) if self.kernel_dim else None

    def interior_indices(self, pad: int = 1) -> list[int]:
        keep = set(self.window.interior_levels(pad))
        return [i for i, gp in enumerate(self.grid) if gp.level in keep]

    def as_float(self) -> "TruncatedQNormal":
        if not self.exact:
            return self
        return dataclasses.replace(self, exact=False,
                                   zeta_band=self.zeta_band.as_float(),
                                   u_band=self.u_band.as_float(),
                                   modulus_band=self.modulus_band.as_float())


def _validate_generators(q: Fraction, generators: Sequence[Fraction]) -> tuple[Fraction, ...]:
    gens = tuple(Fraction(g) for g in generators)
    low = q if q < 1 else Fraction(0)
    for g in gens:
        if not low < g <= 1:
            raise DomainError(f"generator {g} outside ({low}, 1]")
    return gens


def build_from_generators(q, generators, window: TruncationWindow, weights=None,
                          zero_mass=0, exact: bool = False) -> TruncatedQNormal:
    """Assemble the truncation directly from generator values.

    Accepts q = 1 (classical mode), where every level carries the same values
    and the model is an ordinary normal operator.
    """
    q = parse_rational(q)
    if not 0 < q <= 1:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    gens = _validate_generators(q, generators)
    zero_mass = parse_rational(zero_mass)
    if zero_mass < 0:
        raise DomainError("zero_mass must be nonnegative")
    if weights is None:
        weights = [Fraction(1)] * len(gens)
    weights = [parse_rational(w) for w in weights]
    if len(weights) != len(gens):
        raise DomainError("one weight per generator required")
    if any(w <= 0 for w in weights):
        raise DomainError("weights must be positive")
    if gens and window.size < 3:
        raise ConfigurationError("window too small: need at least 3 levels")
    if not gens and zero_mass == 0:
        # support {0} carries unit mass by convention
        zero_mass = Fraction(1)

    grid = tuple(GridPoint(j, n, qn * x, weights[j])
                 for n in window.levels for qn in (q ** n,) for j, x in enumerate(gens))
    kernel_dim = 1 if zero_mass > 0 else 0
    n_gens = len(gens)
    dim = len(grid) + kernel_dim

    zero, one = (Fraction(0), Fraction(1)) if exact else (0j, 1.0 + 0j)
    u, modulus, zeta = (np.full(dim, zero, dtype=object if exact else complex)
                        for _ in range(3))
    for i, gp in enumerate(grid):
        try:
            modulus[i] = gp.value if exact else complex(gp.value)
        except OverflowError:
            raise DomainError(f"level {gp.level} leaves float range; use --exact") from None
    # e_{j,n} -> e_{j,n-1}: levels come in ascending blocks of n_gens, so entry
    # (i, i + n_gens) moves grid point i + n_gens one level down
    u[:len(grid) - n_gens] = one
    zeta[:len(grid) - n_gens] = modulus[n_gens:len(grid)]
    return TruncatedQNormal(q, window, grid, kernel_dim, exact,
                            mo.Band(dim, exact, {n_gens: zeta}),
                            mo.Band(dim, exact, {n_gens: u}),
                            mo.Band(dim, exact, {0: modulus}))


def build(mu: QInvariantMeasure, X: SpectralSet | None, window: TruncationWindow,
          q=None, exact: bool = False) -> TruncatedQNormal:
    """Build the truncated model of the measure's L2 multiplication-shift pair."""
    if q is not None and parse_rational(q) != mu.q:
        raise DomainError("explicit q disagrees with the measure")
    if X is not None:
        if X.q != mu.q:
            raise DomainError("spectral set ratio disagrees with the measure")
        support = mu.support()
        if X.generators != support.generators or X.includes_zero != support.includes_zero:
            raise DomainError("spectral set does not match the measure support")
    if mu.is_trivial:
        raise DomainError("measure has empty support")
    gens = [p for p, _ in mu.base_atoms]
    weights = [w for _, w in mu.base_atoms]
    return build_from_generators(mu.q, gens, window, weights, mu.zero_mass, exact)


def verify_relation(T: TruncatedQNormal, pad: int = 1) -> RelationReport:
    """Defect of zeta zeta* = q**2 zeta* zeta, interior and full-window."""
    zs = T.zeta_band.adjoint()
    q2 = T.q * T.q if T.exact else float(T.q) ** 2
    D = T.zeta_band @ zs - (zs @ T.zeta_band).scale(q2)
    return RelationReport(D.norm(T.interior_indices(pad)), D.norm())


def spectral_band(T: TruncatedQNormal, f: CoefficientFunction, factor=1) -> mo.Band:
    """Diagonal band f(factor * modulus): f(factor * t_{j,n}) on the grid, f(0) on the kernel.

    Float models evaluate f at the floats of the exact points: read off the
    modulus diagonal at factor 1, rounded from factor * t_{j,n} otherwise, so
    both sides of a covariance identity see the same floats.  Indicators are
    decided by exact membership of the exact point.
    """
    try:
        if T.exact:
            values = [_real(f.eval_exact(factor * gp.value)) for gp in T.grid]
        elif isinstance(f, IndicatorCoefficient):
            values = [complex(f.eval_exact(factor * gp.value)) for gp in T.grid]
        elif factor == 1:
            values = [complex(f(t)) for t in T.modulus_band.diags[0].real[:len(T.grid)].tolist()]
        else:
            values = [complex(f(float(factor * gp.value))) for gp in T.grid]
        if T.kernel_dim:
            values.append(_real(f.value_at_zero) if T.exact else complex(f.value_at_zero))
    except (ArithmeticError, OverflowError) as exc:
        raise EvaluationError(f"coefficient undefined on the grid: {exc}") from exc
    return mo.Band(T.dim, T.exact, {0: np.array(values, dtype=object if T.exact else complex)})


def _real(x):
    """An exact value with zero imaginary part as its Fraction real part."""
    return x.re if isinstance(x, RationalComplex) and not x.im else x


def spectral_function(T: TruncatedQNormal, f: CoefficientFunction) -> np.ndarray:
    """Diagonal matrix f(modulus): f(t_{j,n}) on the grid, f(0) on the kernel."""
    return spectral_band(T, f).dense()


def shift(T: TruncatedQNormal, k: int) -> mo.Band:
    """u**k for k >= 0, (u*)**|k| for k < 0, built as one band at offset k n_gens."""
    return T.u_band.power(k)


def verify_covariance(T: TruncatedQNormal, f: CoefficientFunction, pad: int = 1):
    """Interior defect of u f(modulus) u* = f(q modulus)."""
    lhs = T.u_band @ spectral_band(T, f) @ T.u_band.adjoint()
    rhs = spectral_band(T, f, T.q)
    return (lhs - rhs).norm(T.interior_indices(pad))


def polar_check(T: TruncatedQNormal) -> PolarReport:
    """zeta = u modulus, with zeta and u built apart; u must kill the kernel slot."""
    rec = (T.zeta_band - T.u_band @ T.modulus_band).norm()
    # chi_{0}(modulus) projects onto the kernel slot, if any: u's kernel column
    kernel = spectral_band(T, IndicatorCoefficient(Interval.point(0)))
    return PolarReport(rec, (T.u_band @ kernel).norm())


def spectra_to_csv(T: TruncatedQNormal, stream) -> None:
    """Dump grid values as rows of (level, generator, value)."""
    writer = csv.writer(stream)
    writer.writerow(["level", "generator", "value"])
    for gp in T.grid:
        writer.writerow([gp.level, gp.gen, format_rational(gp.value)])
    if T.kernel_dim:
        writer.writerow(["kernel", "-", "0/1"])
