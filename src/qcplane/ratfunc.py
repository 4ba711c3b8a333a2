"""Rational functions of one nonnegative real variable, with exact coefficients.

Each polynomial is stored integer-cleared as a canonical triple (re, im, d):
coefficient k (ascending powers) is (re[k] + i im[k]) / d, trimmed, d > 0 and
gcd(d, *re, *im) == 1, so all exact arithmetic runs on Python ints.  Numerator
and denominator are not reduced against each other; ``equals`` compares cross
products.  The variable is real, and ``evaluate`` takes a rational point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest

from .errors import DomainError, EvaluationError
from .scalars import RationalComplex

Coeffs = tuple[RationalComplex, ...]
Poly = tuple[tuple[int, ...], tuple[int, ...], int]
_ONE: Poly = ((1,), (0,), 1)


def _canon(re: list[int], im: list[int], d: int) -> Poly:
    """The canonical triple of (re + i im) / d, for d > 0."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    re, im = re[:n], im[:n]
    g = math.gcd(d, *re, *im)
    if g > 1:
        return tuple(c // g for c in re), tuple(c // g for c in im), d // g
    return tuple(re), tuple(im), d


def _poly(raw) -> Poly:
    """Clear a sequence of int, Fraction or RationalComplex over one denominator."""
    if all(type(c) is int for c in raw):
        return _canon(list(raw), [0] * len(raw), 1)
    cs = [RationalComplex.coerce(c) for c in raw]
    d = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
    return _canon([c.re.numerator * (d // c.re.denominator) for c in cs],
                  [c.im.numerator * (d // c.im.denominator) for c in cs], d)


def _coeffs(re: tuple[int, ...], im: tuple[int, ...], d: int) -> Coeffs:
    return tuple(RationalComplex(Fraction(r, d), Fraction(i, d)) for r, i in zip(re, im))


def _p_add(a: Poly, b: Poly) -> Poly:
    (ar, ai, da), (br, bi, db) = a, b
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    return _canon([x * sa + y * sb for x, y in zip_longest(ar, br, fillvalue=0)],
                  [x * sa + y * sb for x, y in zip_longest(ai, bi, fillvalue=0)], da * sa)


def _p_mul(a: Poly, b: Poly) -> Poly:
    """Product over the integers; the imaginary parts of real factors are skipped."""
    if a == _ONE or b == _ONE:
        return b if a == _ONE else a
    (ar, ai, da), (br, bi, db) = a, b
    re = [0] * (len(ar) + len(br) - 1)
    im = re.copy()
    terms = [(re, ar, br), (im, ai, br)] if any(ai) else [(re, ar, br)]
    if any(bi):
        terms += [(im, ar, bi), (re, [-c for c in ai], bi)]
    for out, x, y in terms:   # out += x * y, convolved
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    out[i + j] += xi * yj
    return _canon(re, im, da * db)


def _p_argscale(a: Poly, lam: Fraction) -> Poly:
    """c(lam t) for lam = p/r: c_k picks up p^k r^(n-k) and d picks up r^n."""
    re, im, d = a
    p, r, n = lam.numerator, lam.denominator, max(len(re) - 1, 0)
    w = [p ** k * r ** (n - k) for k in range(len(re))]
    return _canon([c * x for c, x in zip(re, w)], [c * x for c, x in zip(im, w)], d * r ** n)


def _horner(cs: tuple[int, ...], p: int, r: int) -> int:
    """r^n c(p/r) for c of degree n, by Horner's scheme in homogeneous form."""
    acc, rj = 0, 1
    for c in reversed(cs):
        acc = acc * p + c * rj
        rj *= r
    return acc


def _p_eval_float(a: tuple[complex, ...], t: float) -> complex:
    acc = 0j
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _q_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _q_rem(a: list, b: list) -> list:
    """Remainder of a on division by the nonzero b."""
    a = list(a)
    while len(a) >= len(b):
        c = Fraction(a[-1], b[-1])
        s = len(a) - len(b)
        for i, bc in enumerate(b[:-1]):
            a[s + i] -= c * bc
        a.pop()
        _q_trim(a)
    return a


def _q_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _q_rem(a, b)
    return a


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _positive_root_count(g: list) -> int:
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


class RationalFunction:
    """Quotient of two polynomials with Gaussian-rational coefficients; immutable."""

    def __init__(self, num, den):
        den = _poly(den)
        if not den[0]:
            raise DomainError("zero denominator polynomial")
        self._set(_poly(num), den)

    def _set(self, num: Poly, den: Poly) -> "RationalFunction":
        self.__dict__.update(_num=num, _den=den if num[0] else _ONE)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalFunction is immutable; cannot set {name!r}")

    # read-only views: RationalComplex coefficients, ascending powers, trimmed
    num = cached_property(lambda self: _coeffs(*self._num))
    den = cached_property(lambda self: _coeffs(*self._den))

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls((c,), (1,))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls((0, 1), (1,))

    @classmethod
    def monomial(cls, k: int, scale=1) -> "RationalFunction":
        if k < 0:
            raise DomainError("monomial exponent must be nonnegative")
        return cls((0,) * k + (scale,), (1,))

    @property
    def is_zero(self) -> bool:
        return not self._num[0]

    def __add__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return _rf(_p_add(_p_mul(self._num, o._den), _p_mul(o._num, self._den)),
                   _p_mul(self._den, o._den))

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
        re, im, d = self._num
        return _rf((tuple(-c for c in re), tuple(-c for c in im), d), self._den)

    def __mul__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        return _rf(_p_mul(self._num, o._num), _p_mul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_rf(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DomainError("division by the zero function")
        return _rf(_p_mul(self._num, o._den), _p_mul(self._den, o._num))

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
            return _rf(self._den, self._num) ** (-k)
        out = RationalFunction.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "RationalFunction":
        (nr, ni, dn), (dr, di, dd) = self._num, self._den
        return _rf((nr, tuple(-c for c in ni), dn), (dr, tuple(-c for c in di), dd))

    def substitute_scale(self, lam: Fraction) -> "RationalFunction":
        """Return t -> f(lam * t) for rational lam > 0."""
        lam = Fraction(lam)
        if lam <= 0:
            raise DomainError("argument scale must be positive")
        return _rf(_p_argscale(self._num, lam), _p_argscale(self._den, lam))

    def evaluate(self, x) -> RationalComplex:
        """Exact value at a real point: int, Fraction or RationalComplex with im == 0."""
        t = x.re if isinstance(x, RationalComplex) and not x.im else x
        if not isinstance(t, (int, Fraction)):
            raise TypeError(f"evaluate needs a real rational point, got {x!r}")
        p, r = t.numerator, t.denominator
        (nr, ni, dn), (dr, di, dd) = self._num, self._den
        # num(t) = (a + i b) / (dn r^deg num) and den(t) = (c + i e) / (dd r^deg den)
        a, b, c, e = (_horner(cs, p, r) for cs in (nr, ni, dr, di))
        if not c and not e:
            raise EvaluationError(f"denominator vanishes at t={x}")
        if e:
            a, b, c = a * c + b * e, b * c - a * e, c * c + e * e
        s, c = dd * r ** len(dr), c * dn * r ** len(nr)
        return RationalComplex(Fraction(a * s, c), Fraction(b * s, c))

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
        return _p_mul(self._num, other._den) == _p_mul(other._num, self._den)

    @property
    def degree_num(self) -> int:
        return len(self._num[0]) - 1

    @property
    def degree_den(self) -> int:
        return len(self._den[0]) - 1

    @property
    def vanishes_at_infinity(self) -> bool:
        return self.is_zero or self.degree_num < self.degree_den

    def limit_at_infinity(self) -> RationalComplex:
        if self.is_zero or self.degree_num < self.degree_den:
            return RationalComplex()
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
        re, im, _ = self._den
        g = _q_gcd(_q_trim(list(re)), _q_trim(list(im)))
        if g[0] == 0:
            raise EvaluationError("denominator vanishes at t=0")
        roots = _positive_root_count(g)
        if roots:
            raise EvaluationError(f"denominator has {roots} distinct root(s) in (0, inf)")


def _rf(num: Poly, den: Poly) -> RationalFunction:
    return RationalFunction.__new__(RationalFunction)._set(num, den)


def _as_rf(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, RationalComplex)):
        return RationalFunction.constant(value)
    return None
