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
A float model's defects are gated as relative gaps (``Band.gap``), since its
entries grow like (1/q)**|n| across the window; the absolute ones ride along.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

import numpy as np

from . import matrixops as mo
from .algebra import CoefficientFunction, IndicatorCoefficient, RationalCoefficient
from .errors import ConfigurationError, DomainError, EvaluationError
from .qspace import Interval, QInvariantMeasure, SpectralSet, level_run
from .scalars import format_rational, parse_rational

_SQRT_FLOAT_MAX = np.sqrt(np.finfo(float).max)


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


@dataclass(frozen=True)
class LevelGrid(Sequence):
    """The points t_{j,n} = q**n x_j, ascending levels in blocks of n_gens points.

    Stores ratio, generators and levels; a GridPoint is made only when indexed.
    The atom weights of a measure are not kept: the model acts in the basis of
    normalized atom indicators, so it does not depend on them.
    """

    q: Fraction
    generators: tuple[Fraction, ...]
    levels: range

    def __len__(self) -> int:
        return len(self.levels) * len(self.generators)

    def __getitem__(self, i):
        n, j = divmod(range(len(self))[i], len(self.generators))
        qn, x = self.q ** self.levels[n], self.generators[j]
        return GridPoint(j, self.levels[n], qn if x == 1 else qn * x)

    def pairs(self, factor: Fraction = Fraction(1)) -> tuple[list[int], list[int]]:
        """Integers (nums, dens) with factor * t_{j,n} == nums[i] / dens[i], for every point.

        q = p/r, so q**n is p**n / r**n, and r**|n| / p**|n| below level 0: each
        pair is a product of integer powers, never reduced.
        """
        top = max(abs(self.levels.start), abs(self.levels[-1]))
        ps, rs = ([*accumulate(repeat(b, top), operator.mul, initial=1)]
                  for b in (self.q.numerator, self.q.denominator))
        powers = [(ps[n], rs[n]) if n >= 0 else (rs[-n], ps[-n]) for n in self.levels]
        scaled = [(factor.numerator * x.numerator, factor.denominator * x.denominator)
                  for x in self.generators]
        return ([a * pn for pn, _ in powers for a, _ in scaled],
                [b * rn for _, rn in powers for _, b in scaled])

    def rounded(self, factor: Fraction = Fraction(1)) -> np.ndarray:
        """float(factor * t_{j,n}) for every point: one integer true division each."""
        return np.array(list(map(operator.truediv, *self.pairs(factor))), dtype=float)


@dataclass(frozen=True)
class RelationReport:
    """Gated defects; a float model's are relative gaps, with the absolute ones beside them."""

    interior_defect: object
    boundary_defect: object
    absolute: "RelationReport | None" = None


@dataclass(frozen=True)
class PolarReport:
    """Gated defects; a float model's are relative gaps, with the absolute ones beside them."""

    reconstruction_defect: object
    kernel_defect: object
    absolute: "PolarReport | None" = None


@dataclass(frozen=True, eq=False)
class TruncatedQNormal:
    """Band model of zeta = u * modulus on a level window, kernel slot last.

    ``zeta``, ``u`` and ``modulus`` are dense views of the stored bands.
    """

    q: Fraction
    window: TruncationWindow
    grid: LevelGrid
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

    @property
    def n_gens(self) -> int:
        return len(self.grid) // self.window.size

    def interior_indices(self, pad: int = 1) -> list[int]:
        # the grid holds ascending levels in blocks of n_gens points
        levels = self.window.interior_levels(pad)
        start = (levels.start - self.window.n_min) * self.n_gens
        return list(range(start, start + len(levels) * self.n_gens))

    @functools.cached_property
    def _q_points(self) -> np.ndarray:
        """float(q * t_{j,n}) for every grid point: each product rounded once."""
        return self.grid.rounded(self.q)

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


def build_from_generators(q, generators, window: TruncationWindow, zero_mass=0,
                          exact: bool = False) -> TruncatedQNormal:
    """Assemble the truncation directly from generator values.

    Takes no atom weights: the model acts on the normalized atom indicators,
    so a measure's weights do not change it; only whether the origin carries
    mass (a kernel slot) does.  Accepts q = 1 (classical mode), where every
    level carries the same values and the model is an ordinary normal operator.
    """
    q = parse_rational(q)
    if not 0 < q <= 1:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    gens = _validate_generators(q, generators)
    zero_mass = parse_rational(zero_mass)
    if zero_mass < 0:
        raise DomainError(f"zero_mass must be nonnegative, got {zero_mass}")
    if gens and window.size < 3:
        raise ConfigurationError("window too small: need at least 3 levels")
    if not gens and zero_mass == 0:
        # support {0} carries unit mass by convention
        zero_mass = Fraction(1)

    grid = LevelGrid(q, gens, window.levels)
    kernel_dim = 1 if zero_mass > 0 else 0
    n_gens = len(gens)
    dim = len(grid) + kernel_dim

    if exact:
        nums, dens = grid.pairs()
        modulus = mo.ExactDiagonal.written(nums + [0] * kernel_dim, dens + [1] * kernel_dim)
    else:
        modulus = np.zeros(dim, dtype=complex)
        try:
            modulus[:len(grid)] = grid.rounded()
        except OverflowError:
            # levels ascend and q <= 1, so the first level holds the largest points
            raise DomainError(f"level {window.n_min} leaves float range; use --exact") from None
    # e_{j,n} -> e_{j,n-1}: levels come in ascending blocks of n_gens, so entry
    # (i, i + n_gens) moves grid point i + n_gens one level down; the rows of
    # the lowest level and the kernel slot hold zeros
    top = len(grid) - n_gens
    u, zeta = mo.zeros(dim, exact), mo.zeros(dim, exact)
    u[:top] = mo.ones(top, exact)
    zeta[:top] = modulus[n_gens:len(grid)]
    return TruncatedQNormal(q, window, grid, kernel_dim, exact,
                            mo.Band(dim, exact, {n_gens: zeta}),
                            mo.Band(dim, exact, {n_gens: u}),
                            mo.Band(dim, exact, {0: modulus}))


def build(mu: QInvariantMeasure, X: SpectralSet | None, window: TruncationWindow,
          exact: bool = False) -> TruncatedQNormal:
    """Build the truncated model of the measure's L2 multiplication-shift pair."""
    if X is not None:
        if X.q != mu.q:
            raise DomainError("spectral set ratio disagrees with the measure")
        support = mu.support()
        if X.generators != support.generators or X.includes_zero != support.includes_zero:
            raise DomainError("spectral set does not match the measure support")
    if mu.is_trivial:
        raise DomainError("measure has empty support")
    return build_from_generators(mu.q, [p for p, _ in mu.base_atoms], window,
                                 mu.zero_mass, exact)


def _defects(T: TruncatedQNormal, lhs: mo.Band, rhs: mo.Band, keeps=(None,)) -> list:
    """(gated, absolute) defect of lhs = rhs compressed to each keep set in keeps.

    An exact model's defect is the largest entry of |lhs - rhs|, gated and
    absolute alike, with lhs - rhs formed once.  A float model is gated on
    the relative gap of ``Band.gap``: every band of the model has one
    diagonal, so each entry of either side is a single rounded product, and a
    correct identity reads a few units of roundoff however large |zeta| grows
    across the window.
    """
    if T.exact:
        D = lhs - rhs
        return [(D.norm(keep),) * 2 for keep in keeps]
    return [lhs.gap(rhs, keep)[::-1] for keep in keeps]   # gap gives (absolute, relative)


def verify_relation(T: TruncatedQNormal) -> RelationReport:
    """Defect of zeta zeta* = q**2 zeta* zeta, interior and full-window, gated as in _defects.

    A float model with an entry of |zeta| above sqrt(float max) is refused
    before any product is formed, since its square leaves float range.
    """
    for v in [] if T.exact else T.zeta_band.diags.values():
        i = int(np.argmax(np.abs(v)))   # zeta[i] is |zeta| at grid point i + n_gens
        if abs(v[i]) > _SQRT_FLOAT_MAX:
            raise DomainError(f"|zeta| at level {T.grid[i + T.n_gens].level} squares "
                              "beyond float range; use --exact")
    zs = T.zeta_band.adjoint()
    p, r = T.q.as_integer_ratio()
    q2 = Fraction(p * p, r * r) if T.exact else float(T.q) ** 2
    lhs, rhs = T.zeta_band @ zs, (zs @ T.zeta_band).scale(q2)
    keeps = (T.interior_indices(), None)
    (inner, inner_abs), (whole, whole_abs) = _defects(T, lhs, rhs, keeps)
    return RelationReport(inner, whole, None if T.exact else RelationReport(inner_abs, whole_abs))


def _indicator_mask(T: TruncatedQNormal, interval: Interval, factor: Fraction) -> np.ndarray:
    """Exact membership of factor * t_{j,n} in the interval for every grid point, and of 0
    on the kernel slot.

    Along one generator the points q**n x_j fall as n grows, so the levels
    inside the interval form one run: ``qspace.level_run`` of factor * x_j,
    clipped to the window.  The ratio is the grid's, which sets the points.
    When it is 1 every level holds the same point: all are in or none.  Every
    product and test is on integer pairs.
    """
    mask = np.zeros(T.dim, dtype=bool)
    n_gens, n_min, q = T.n_gens, T.window.n_min, T.grid.q
    fp, fr = factor.as_integer_ratio()
    for j, x in enumerate(T.grid.generators):
        fx = Fraction(fp * x.numerator, fr * x.denominator)
        if q.numerator == q.denominator:
            start, stop = 0, T.window.size if interval.contains(fx) else 0
        else:
            start, stop = level_run(q, fx, interval)
            start = 0 if start is None else max(start - n_min, 0)
            stop = T.window.size if stop is None else max(stop - n_min, 0)
        mask[start * n_gens + j:stop * n_gens:n_gens] = True
    mask[len(T.grid):] = interval.contains(0)
    return mask


def spectral_band(T: TruncatedQNormal, f: CoefficientFunction, factor=1) -> mo.Band:
    """Diagonal band f(factor * modulus): f(factor * t_{j,n}) on the grid, f(0) on the kernel.

    Indicators are decided by exact membership of the exact points: along each
    generator the points inside the interval form one run of levels, whose
    ends are the ``qspace.ladder`` levels of the interval's ends.  Otherwise
    exact models evaluate f by ``RationalFunction.evaluate_pairs`` on the
    integer pairs of the whole exact modulus diagonal times factor, the
    kernel's 0 included, and keep the integers it returns.  Float models
    evaluate f at the floats of the exact points: the modulus diagonal at
    factor 1, factor * t_{j,n} rounded once otherwise, so both sides of a
    covariance identity see the same floats.  A rational coefficient is
    evaluated on the whole diagonal by one array Horner scheme; other
    callables per point.
    """
    factor = Fraction(factor)
    n = len(T.grid)
    try:
        if isinstance(f, IndicatorCoefficient):
            mask = _indicator_mask(T, f.interval, factor)
            values = (mo.ExactDiagonal.written(mask.astype(int).tolist(), [1] * T.dim)
                      if T.exact else mask.astype(complex))
        elif T.exact:
            if not isinstance(f, RationalCoefficient):
                raise EvaluationError(f"{type(f).__name__} has no exact evaluation")
            t, (fp, fr) = T.modulus_band.diagonal(0), factor.as_integer_ratio()
            re, im, den = f.evaluate_pairs([fp * x for x in t.re.tolist()],
                                           [fr * x for x in t.den.tolist()])
            values = mo.ExactDiagonal.written(re, den, im)
        else:
            values = np.empty(T.dim, dtype=complex)
            t = (T.modulus_band.diags[0].real[:n] if factor == 1 else
                 T._q_points if factor == T.q else T.grid.rounded(factor))
            values[:n] = (f.evaluate_array(t) if isinstance(f, RationalCoefficient)
                          else [complex(f(x)) for x in t.tolist()])
            if T.kernel_dim:
                values[n] = complex(f.value_at_zero)
    except (ArithmeticError, OverflowError) as exc:
        raise EvaluationError(f"coefficient undefined on the grid: {exc}") from exc
    return mo.Band(T.dim, T.exact, {0: values})


def spectral_function(T: TruncatedQNormal, f: CoefficientFunction) -> np.ndarray:
    """Diagonal matrix f(modulus): f(t_{j,n}) on the grid, f(0) on the kernel."""
    return spectral_band(T, f).dense()


def shift(T: TruncatedQNormal, k: int) -> mo.Band:
    """u**k for k >= 0, (u*)**|k| for k < 0, built as one band at offset k n_gens."""
    return T.u_band.power(k)


def verify_covariance(T: TruncatedQNormal, f: CoefficientFunction,
                      with_absolute: bool = False):
    """Gated interior defect of u f(modulus) u* = f(q modulus), as in _defects.

    with_absolute returns the pair (gated, absolute) from the same two sides.
    """
    lhs = T.u_band @ spectral_band(T, f) @ T.u_band.adjoint()
    (gated, absolute), = _defects(T, lhs, spectral_band(T, f, T.q), (T.interior_indices(),))
    return (gated, absolute) if with_absolute else gated


_AT_ORIGIN = IndicatorCoefficient(Interval.point(0))


def polar_check(T: TruncatedQNormal) -> PolarReport:
    """zeta = u modulus, with zeta and u built apart; u must kill the kernel slot."""
    (rec, rec_abs), = _defects(T, T.zeta_band, T.u_band @ T.modulus_band)
    # chi_{0}(modulus) projects onto the kernel slot, if any: u's kernel column,
    # against 0, so a float model's relative gap is 1 at any nonzero entry
    column = T.u_band @ spectral_band(T, _AT_ORIGIN)
    (kernel, kernel_abs), = _defects(T, column, mo.Band(T.dim, T.exact))
    return PolarReport(rec, kernel, None if T.exact else PolarReport(rec_abs, kernel_abs))


def spectra_to_csv(T: TruncatedQNormal, stream) -> None:
    """Dump grid values as rows of (level, generator, value)."""
    writer = csv.writer(stream)
    writer.writerow(["level", "generator", "value"])
    for gp in T.grid:
        writer.writerow([gp.level, gp.gen, format_rational(gp.value)])
    if T.kernel_dim:
        writer.writerow(["kernel", "-", "0/1"])
