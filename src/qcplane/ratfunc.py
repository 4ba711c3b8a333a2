"""Rational functions of one nonnegative real variable, with exact coefficients.

A rational function is stored as a pair of coefficient tuples (ascending
powers) over :class:`~qcplane.scalars.RationalComplex`.  No gcd normalization
is performed; :meth:`RationalFunction.equals` decides equality of functions
exactly, by comparing the cross products num_a den_b and num_b den_a as
polynomials.  :meth:`RationalFunction.check_denominator` decides exactly
whether the denominator has a root on [0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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


def _cleared(parts) -> tuple[list[int], int]:
    """Integers n_i and one common denominator d with parts[i] == n_i / d."""
    parts = list(parts)
    d = math.lcm(*(f.denominator for f in parts))
    return [f.numerator * (d // f.denominator) for f in parts], d


def _convolve(x: list[int], y: list[int]) -> list[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    return out


def _p_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    """Polynomial product, convolved over the integers.

    The real and the imaginary parts of each factor are cleared to integers
    over one common denominator each, so the inner loop multiplies Python ints
    and each product coefficient becomes a Fraction once.  Trimmed factors
    give a trimmed product: Q(i) has no zero divisors.
    """
    if not a or not b:
        return ()
    ar, dar = _cleared(c.re for c in a)
    br, dbr = _cleared(c.re for c in b)
    if not any(c.im for c in a) and not any(c.im for c in b):
        d = dar * dbr
        return tuple(RationalComplex(Fraction(n, d)) for n in _convolve(ar, br))
    ai, dai = _cleared(c.im for c in a)
    bi, dbi = _cleared(c.im for c in b)
    # (ar/dar + i ai/dai)(br/dbr + i bi/dbi), one denominator per part
    d_rr, d_ii, d_ri, d_ir = dar * dbr, dai * dbi, dar * dbi, dai * dbr
    out = []
    for rr, ii, ri, ir in zip(_convolve(ar, br), _convolve(ai, bi),
                              _convolve(ar, bi), _convolve(ai, br)):
        out.append(RationalComplex(Fraction(rr * d_ii - ii * d_rr, d_rr * d_ii),
                                   Fraction(ri * d_ir + ir * d_ri, d_ri * d_ir)))
    return tuple(out)


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


def _p_eval_float(a: tuple[complex, ...], t: float) -> complex:
    acc = 0j
    for c in reversed(a):
        acc = acc * t + c
    return acc


# Polynomials over Q as ascending lists of Fraction, for the denominator test.

def _q_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _q_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a on division by the nonzero b."""
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        s = len(a) - len(b)
        for i, bc in enumerate(b[:-1]):
            a[s + i] -= c * bc
        a.pop()
        _q_trim(a)
    return a


def _q_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _q_rem(a, b)
    return a


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _positive_root_count(g: list[Fraction]) -> int:
    """Distinct roots of g in (0, inf) by Sturm's theorem; needs g(0) != 0."""
    if len(g) < 2:
        return 0
    seq = [g, [k * c for k, c in enumerate(g)][1:]]
    while True:
        r = _q_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return _sign_changes(p[0] for p in seq) - _sign_changes(p[-1] for p in seq)


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

    @cached_property
    def _float_coeffs(self) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
        return tuple(complex(c) for c in self.num), tuple(complex(c) for c in self.den)

    def evaluate_float(self, t: float) -> complex:
        num, den = self._float_coeffs
        d = _p_eval_float(den, t)
        if d == 0:
            raise EvaluationError(f"denominator vanishes at t={t}")
        return _p_eval_float(num, t) / d

    def equals(self, other: "RationalFunction") -> bool:
        """Exact equality as functions: num_a den_b == num_b den_a."""
        return _p_mul(self.num, other.den) == _p_mul(other.num, self.den)

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

    def check_denominator(self) -> None:
        """Raise EvaluationError unless the denominator has no root on [0, inf).

        A real t is a root of the denominator exactly when it is a common root
        of its real and imaginary parts, that is a root of their gcd g over Q.
        A root at t = 0 shows in g's constant term; Sturm's theorem counts the
        distinct roots in (0, inf).  The answer is decided, not sampled.
        """
        g = _q_gcd(_q_trim([c.re for c in self.den]), _q_trim([c.im for c in self.den]))
        if g[0] == 0:
            raise EvaluationError("denominator vanishes at t=0")
        roots = _positive_root_count(g)
        if roots:
            raise EvaluationError(f"denominator has {roots} distinct root(s) in (0, inf)")


def _as_rf(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, RationalComplex)):
        return RationalFunction.constant(value)
    return None
