"""Self-similar spectral sets on [0, inf) and their scaling-invariant measures.

A spectral set is the closure of finitely many scaling orbits
``{q**k * x : k in Z}`` together with 0; a measure on it is invariant under
multiplication by q exactly when its atom weights are constant along each
orbit.  Such a measure is determined by its restriction to the fundamental
interval (q, 1] plus a point mass at 0, and that is how it is stored here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from .errors import DomainError
from .scalars import format_rational, parse_rational

INFINITE = float("inf")

# ladder refuses a level k once |k| times the bit length of q's denominator
# passes this: a point far from 1 on a ratio next to 1 cannot ask for a huge power
MAX_LADDER_BITS = 1 << 16


@dataclass(frozen=True)
class Interval:
    """Interval in [0, inf); ``upper=None`` means unbounded above."""

    lower: Fraction
    upper: Fraction | None
    lower_closed: bool = False
    upper_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lower", Fraction(self.lower))
        if self.upper is not None:
            object.__setattr__(self, "upper", Fraction(self.upper))
        if self.lower < 0:
            raise DomainError("interval must sit in [0, inf)")
        if self.upper is None:
            if self.upper_closed:
                raise DomainError("an unbounded interval cannot be closed above")
        elif self.upper < self.lower:
            raise DomainError("interval endpoints out of order")

    @classmethod
    def open_closed(cls, lower, upper) -> "Interval":
        return cls(Fraction(lower), Fraction(upper), False, True)

    @classmethod
    def point(cls, value) -> "Interval":
        return cls(Fraction(value), Fraction(value), True, True)

    @property
    def is_empty(self) -> bool:
        if self.upper is None:
            return False
        if self.lower < self.upper:
            return False
        return not (self.lower_closed and self.upper_closed)

    def contains(self, t: Fraction) -> bool:
        # compared by cross-multiplication, cheaper than Fraction comparisons
        t = Fraction(t)
        num, den = t.numerator, t.denominator
        gap = num * self.lower.denominator - self.lower.numerator * den
        if gap < 0 or (gap == 0 and not self.lower_closed):
            return False
        if self.upper is None:
            return True
        gap = num * self.upper.denominator - self.upper.numerator * den
        return gap < 0 or (gap == 0 and self.upper_closed)

    def scaled(self, c: Fraction) -> "Interval":
        """Image {c * t : t in self} for rational c > 0."""
        c = Fraction(c)
        if c <= 0:
            raise DomainError("scale factor must be positive")
        upper = None if self.upper is None else c * self.upper
        return Interval(c * self.lower, upper, self.lower_closed, self.upper_closed)


def _flog(x: Fraction) -> float:
    """log x for rational x > 0, without cancellation near x = 1.

    For x in (1/2, 3/2), log1p of (num - den) / den, an integer true division
    that rounds once; elsewhere log x is at least log 3/2 in size and the
    difference of the two logarithms is accurate.
    """
    num, den = x.numerator, x.denominator
    if 2 * abs(num - den) < den:
        return math.log1p((num - den) / den)
    return math.log(num) - math.log(den)


def ladder(q: Fraction, t: Fraction) -> tuple[int, int, int]:
    """Level of rational t > 0 on the scaling ladder of q in (0, 1).

    Returns (k, num, den) with t == q**k * num / den and num / den in (q, 1]:
    the one level k at which t / q**k lies in the fundamental interval.  k is
    guessed by logarithms and corrected exactly in integers.  A level whose
    power of q needs more than MAX_LADDER_BITS bits is refused with
    DomainError before the power is formed.
    """
    p, r = q.numerator, q.denominator
    k = math.floor(_flog(t) / _flog(q))
    if abs(k) * r.bit_length() > MAX_LADDER_BITS:
        raise DomainError(f"{format_rational(t)} sits near level {k} of q = {format_rational(q)}, "
                          f"whose power passes {MAX_LADDER_BITS} bits")
    # s = t / q**k = num / den, with q**k = p**k / r**k
    num, den = ((t.numerator * r ** k, t.denominator * p ** k) if k >= 0
                else (t.numerator * p ** -k, t.denominator * r ** -k))
    while num > den:            # s > 1: one level down, s * q
        num, den, k = num * p, den * r, k - 1
    while num * r <= den * p:   # s <= q: one level up, s / q
        num, den, k = num * r, den * p, k + 1
    return k, num, den


def level_run(q: Fraction, x: Fraction, interval: Interval) -> tuple[int | None, int | None]:
    """The levels k with q**k * x in the interval, for x > 0: start <= k < stop.

    The points q**k * x fall as k grows, so they form one run, read off the
    ladder levels of both ends in closed form.  None marks a side the run
    does not end on: no upper end, or a lower end at 0.
    """
    upper, lower = interval.upper, interval.lower
    if upper is not None and not upper.numerator:
        return 0, 0             # no orbit point is 0
    start = stop = None
    if upper is not None:
        # u / x = q**j * s with s in (q, 1]: q**k * x <= u from k = j on if s = 1
        j, num, den = ladder(q, _quotient(upper, x))
        start = j if interval.upper_closed and num == den else j + 1
    if lower.numerator:
        # l / x = q**i * s: q**k * x > l up to k = i, unless s = 1 and l is left out
        i, num, den = ladder(q, _quotient(lower, x))
        stop = i if not interval.lower_closed and num == den else i + 1
    return start, stop


def _quotient(a: Fraction, b: Fraction) -> Fraction:
    """a / b for b != 0, formed from the integers of a and b."""
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)


def orbit_exponents(q: Fraction, x: Fraction, interval: Interval) -> range:
    """All integers k with q**k * x inside the interval (must be finite)."""
    if interval.is_empty or interval.upper is None:
        raise DomainError("orbit enumeration needs a bounded nonempty interval")
    if interval.upper <= 0:
        return range(0)
    if interval.lower == 0:
        raise DomainError("orbit meets every neighbourhood of 0")
    return range(*level_run(q, x, interval))


def _grid_pairs(q: Fraction, generators, levels: range,
                factor: Fraction = Fraction(1)) -> tuple[list[int], list[int]]:
    """Integers (nums, dens) with factor * q**n * x_j == nums[i] / dens[i], the
    points in ascending levels, one block of generators per level.

    q = p/r, so q**n is p**n / r**n, and r**|n| / p**|n| below level 0: each
    pair is a product of integer powers, never reduced.  The level pairs are
    slices of the two power tables, read backwards below level 0, and a
    generator's pair (factor * x_j) multiplies them only where it is not 1.
    """
    lo, hi = levels.start, levels.stop
    ps, rs = ([*accumulate(repeat(b, max(-lo, hi - 1)), operator.mul, initial=1)]
              for b in q.as_integer_ratio())
    below, above = slice(max(-lo, 0), max(-hi, 0), -1), slice(max(lo, 0), max(hi, 0))
    level_nums, level_dens = rs[below] + ps[above], ps[below] + rs[above]
    fp, fr = factor.as_integer_ratio()
    g = len(generators)
    nums, dens = ([0] * (len(levels) * g) for _ in range(2))
    for j, x in enumerate(generators):
        a, b = fp * x.numerator, fr * x.denominator
        nums[j::g] = level_nums if a == 1 else [a * v for v in level_nums]
        dens[j::g] = level_dens if b == 1 else [b * v for v in level_dens]
    return nums, dens


@dataclass(frozen=True)
class SpectralSet:
    """Union of scaling orbits of finitely many generators in (q, 1], plus 0."""

    q: Fraction
    generators: tuple[Fraction, ...]
    includes_zero: bool = True

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        gens = tuple(sorted(Fraction(g) for g in self.generators))
        object.__setattr__(self, "generators", gens)
        if not 0 < self.q < 1:
            raise DomainError(f"spectral sets need q in (0, 1), got {self.q}")
        for g in gens:
            if not self.q < g <= 1:
                raise DomainError(f"generator {g} outside ({self.q}, 1]")
        if len(set(gens)) != len(gens):
            raise DomainError("duplicate generators")
        if gens and not self.includes_zero:
            raise DomainError("0 is a limit of every scaling orbit; includes_zero is forced")

    @property
    def is_zero_only(self) -> bool:
        return not self.generators and self.includes_zero


def make_spectral_set(q, generators) -> SpectralSet:
    """Build the closed scaling-invariant set generated by points of (q, 1]."""
    return SpectralSet(parse_rational(q), tuple(parse_rational(g) for g in generators), True)


def contains(X: SpectralSet, t) -> bool:
    """Exact membership of rational t >= 0 in the spectral set."""
    t = parse_rational(t)
    if t < 0:
        raise DomainError("membership is defined on [0, inf)")
    if t == 0:
        return X.includes_zero
    if not X.generators:
        return False
    # every generator lies in (q, 1], so t can only be q**k g at its ladder level k
    _, num, den = ladder(X.q, t)
    return any(num * g.denominator == g.numerator * den for g in X.generators)


@dataclass(frozen=True)
class QInvariantMeasure:
    """Scaling-invariant measure: atoms on the fundamental interval plus mass at 0.

    ``base_atoms`` lists (position, weight) with positions in (q, 1]; the same
    position may repeat, modelling a fibre of dimension > 1.  The full measure
    gives each orbit point q**k * x the weight of its base atom.
    """

    q: Fraction
    base_atoms: tuple[tuple[Fraction, Fraction], ...]
    zero_mass: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        atoms = tuple(sorted((Fraction(p), Fraction(w)) for p, w in self.base_atoms))
        object.__setattr__(self, "base_atoms", atoms)
        object.__setattr__(self, "zero_mass", Fraction(self.zero_mass))
        # the spectral set checks q and the positions; it is the support
        object.__setattr__(self, "_support", SpectralSet(
            self.q, tuple({p for p, _ in atoms}), bool(atoms) or self.zero_mass > 0))
        for _, w in atoms:
            if w <= 0:
                raise DomainError(f"atom weight must be positive, got {w}")
        if self.zero_mass < 0:
            raise DomainError(f"zero_mass must be nonnegative, got {self.zero_mass}")

    @property
    def is_trivial(self) -> bool:
        return not self.base_atoms and self.zero_mass == 0

    def support(self) -> SpectralSet:
        return self._support


def atomic_measure(q, atoms, zero_mass=0) -> QInvariantMeasure:
    return QInvariantMeasure(parse_rational(q),
                             tuple((parse_rational(p), parse_rational(w)) for p, w in atoms),
                             parse_rational(zero_mass))


def uniform_measure(q, generators, zero_mass=0) -> QInvariantMeasure:
    """One atom of weight 1 on each generator.

    The truncated model does not depend on the atom weights, so one weight
    serves every caller.
    """
    return atomic_measure(q, [(g, 1) for g in generators], zero_mass)


def mu0_from_nu(q, nu_atoms) -> QInvariantMeasure:
    """Fold a finite measure on [q, 1] into base atoms on (q, 1].

    Endpoints q and 1 coincide on the quotient circle, so mass sitting at q is
    moved to 1 before restricting to the half-open fundamental interval.
    """
    qq = parse_rational(q)
    mass: dict[Fraction, Fraction] = {}
    for p, w in nu_atoms:
        p = parse_rational(p)
        w = parse_rational(w)
        if not qq <= p <= 1:
            raise DomainError(f"input atom {p} outside [{qq}, 1]")
        if w <= 0:
            raise DomainError("input weights must be positive")
        pos = Fraction(1) if p == qq else p
        mass[pos] = mass.get(pos, Fraction(0)) + w
    atoms = tuple(sorted((p, w) for p, w in mass.items() if qq < p <= 1))
    return QInvariantMeasure(qq, atoms)


def measure_of(mu: QInvariantMeasure, interval: Interval) -> Fraction | float:
    """Exact measure of an interval; float('inf') when the mass diverges."""
    if interval.is_empty:
        return Fraction(0)
    total = Fraction(0)
    if interval.contains(Fraction(0)):
        total += mu.zero_mass
    if not mu.base_atoms:
        return total
    if interval.upper is None:
        return INFINITE
    if interval.upper <= 0:
        return total
    if interval.lower == 0:
        # every orbit accumulates at 0, so any right neighbourhood of 0
        # carries infinitely many atoms
        return INFINITE
    for p, w in mu.base_atoms:
        total += w * len(orbit_exponents(mu.q, p, interval))
    return total


def verify_q_invariance(mu: QInvariantMeasure, interval: Interval) -> bool:
    """Check mu(q * M) == mu(M) exactly for an interval M inside (0, inf)."""
    if interval.lower == 0 and interval.lower_closed:
        raise DomainError("invariance is checked on subsets of (0, inf)")
    return measure_of(mu, interval.scaled(mu.q)) == measure_of(mu, interval)
