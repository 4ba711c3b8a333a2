"""Exact scalar arithmetic: rational parsing and Gaussian-rational complex numbers.

Every exact-mode computation in the package reduces to arithmetic over
``fractions.Fraction`` and :class:`RationalComplex`.  Floats never enter the
exact path; mixing one in raises ``TypeError`` rather than silently degrading.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a rational literal of the form ``p/r`` (or a plain integer)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"not a rational literal: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational as ``p/r`` (denominator always shown)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _coerced(op):
    """op with its other operand coerced to RationalComplex; NotImplemented if it will not."""
    @functools.wraps(op)
    def method(self, other):
        try:
            o = RationalComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return op(self, o)
    return method


@dataclass(frozen=True, eq=False)
class RationalComplex:
    """Complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalComplex(Fraction(value))
        raise TypeError(f"cannot coerce {type(value).__name__} to RationalComplex")

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def magnitude(self) -> Fraction:
        """Exact size proxy max(|re|, |im|); zero iff the number is zero."""
        return max(abs(self.re), abs(self.im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @_coerced
    def __add__(self, o):
        return RationalComplex(self.re + o.re, self.im + o.im)
    __radd__ = __add__

    @_coerced
    def __sub__(self, o):
        return RationalComplex(self.re - o.re, self.im - o.im)

    @_coerced
    def __rsub__(self, o):
        return RationalComplex(o.re - self.re, o.im - self.im)

    @_coerced
    def __mul__(self, o):
        return RationalComplex(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)
    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        return RationalComplex((self.re * o.re + self.im * o.im) / d,
                               (self.im * o.re - self.re * o.im) / d)

    @_coerced
    def __rtruediv__(self, o):
        return o / self

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, RationalComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __complex__(self):
        return complex(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"


def exact_magnitude(value) -> Fraction:
    """Exact magnitude proxy for Fraction, int or RationalComplex."""
    if isinstance(value, Fraction):
        return abs(value)
    if isinstance(value, RationalComplex):
        return value.magnitude()
    if isinstance(value, int):
        return abs(Fraction(value))
    raise TypeError(f"not an exact scalar: {type(value).__name__}")
