"""Rational functions of one nonnegative real variable, with exact coefficients.

A rational function is stored as a pair of coefficient tuples (ascending
powers) over :class:`~qcplane.scalars.RationalComplex`.  No gcd normalization
is performed; equality of functions is decided by evaluation at sample points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EvaluationError
from .scalars import RationalComplex

Coeffs = tuple[RationalComplex, ...]

_ZERO = RationalComplex()
_ONE = RationalComplex(Fraction(1))


def _coerce_coeffs(raw) -> Coeffs:
    return _trim(tuple(RationalComplex.coerce(c) for c in raw))


def _trim(cs: Coeffs) -> Coeffs:
    n = len(cs)
    while n > 0 and cs[n - 1].is_zero:
        n -= 1
    return cs[:n]


def _p_add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(tuple(out))


def _p_neg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def _p_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _trim(tuple(out))


def _p_conj(a: Coeffs) -> Coeffs:
    return tuple(c.conjugate() for c in a)


def _p_argscale(a: Coeffs, lam: Fraction) -> Coeffs:
    # f(lam * t): coefficient k picks up lam**k
    return _trim(tuple(c * RationalComplex(lam ** k) for k, c in enumerate(a)))


def _p_eval(a: Coeffs, x) -> RationalComplex:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _p_eval_float(a: Coeffs, t: float) -> complex:
    acc = 0j
    for c in reversed(a):
        acc = acc * t + complex(c)
    return acc


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """Quotient of two polynomials with Gaussian-rational coefficients."""

    num: Coeffs
    den: Coeffs

    def __post_init__(self):
        object.__setattr__(self, "num", _coerce_coeffs(self.num))
        object.__setattr__(self, "den", _coerce_coeffs(self.den))
        if not self.den:
            raise DomainError("zero denominator polynomial")
        if not self.num:
            object.__setattr__(self, "den", (_ONE,))

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls((RationalComplex.coerce(c),), (_ONE,))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls((_ZERO, _ONE), (_ONE,))

    @classmethod
    def monomial(cls, k: int, scale=1) -> "RationalFunction":
        if k < 0:
            raise DomainError("monomial exponent must be nonnegative")
        coeffs = (_ZERO,) * k + (RationalComplex.coerce(scale),)
        return cls(coeffs, (_ONE,))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return RationalFunction(_p_add(_p_mul(self.num, o.den), _p_mul(o.num, self.den)),
                                _p_mul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return RationalFunction(_p_neg(self.num), self.den)

    def __mul__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return RationalFunction(_p_mul(self.num, o.num), _p_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DomainError("division by the zero function")
        return RationalFunction(_p_mul(self.num, o.den), _p_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.is_zero:
                raise DomainError("negative power of the zero function")
            return RationalFunction(self.den, self.num) ** (-k)
        out = RationalFunction.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "RationalFunction":
        return RationalFunction(_p_conj(self.num), _p_conj(self.den))

    def substitute_scale(self, lam: Fraction) -> "RationalFunction":
        """Return t -> f(lam * t) for rational lam > 0."""
        lam = Fraction(lam)
        if lam <= 0:
            raise DomainError("argument scale must be positive")
        return RationalFunction(_p_argscale(self.num, lam), _p_argscale(self.den, lam))

    def evaluate(self, x) -> RationalComplex:
        xx = RationalComplex.coerce(x)
        d = _p_eval(self.den, xx)
        if d.is_zero:
            raise EvaluationError(f"denominator vanishes at t={x}")
        return _p_eval(self.num, xx) / d

    def evaluate_float(self, t: float) -> complex:
        d = _p_eval_float(self.den, t)
        if d == 0:
            raise EvaluationError(f"denominator vanishes at t={t}")
        return _p_eval_float(self.num, t) / d

    @property
    def degree_num(self) -> int:
        return len(self.num) - 1 if self.num else -1

    @property
    def degree_den(self) -> int:
        return len(self.den) - 1

    @property
    def vanishes_at_infinity(self) -> bool:
        return self.is_zero or self.degree_num < self.degree_den

    def limit_at_infinity(self) -> RationalComplex:
        if self.is_zero or self.degree_num < self.degree_den:
            return _ZERO
        if self.degree_num == self.degree_den:
            return self.num[-1] / self.den[-1]
        raise DomainError("function unbounded at infinity")

    def denominator_spotcheck(self, points) -> None:
        """Heuristic guard: denominator must not vanish at the given t >= 0.

        Full nonvanishing on [0, inf) is not decidable from samples; every
        exact evaluation still checks its own point.
        """
        for p in points:
            if _p_eval(self.den, RationalComplex.coerce(p)).is_zero:
                raise EvaluationError(f"denominator vanishes at sample t={p}")


def _as_rf(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, RationalComplex)):
        return RationalFunction.constant(value)
    return None


DEFAULT_SPOTCHECK_POINTS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
                            Fraction(2), Fraction(7), Fraction(2 ** 16))
