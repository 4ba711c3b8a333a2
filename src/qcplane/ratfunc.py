"""Rational functions of one nonnegative real variable, with exact coefficients.

Each polynomial is stored integer-cleared as a canonical triple (re, im, d):
coefficient k (ascending powers) is (re[k] + i im[k]) / d, trimmed, d > 0 and
gcd(d, *re, *im) == 1, so all exact arithmetic runs on Python ints.  A function
(num, den) keeps den primitive (d == 1, gcd(*re, *im) == 1, the first nonzero
part of its lead positive; exactly ``_ONE`` if constant), its content in num.
The two are not reduced against each other; ``equals`` compares cross
products.  The variable is real, and ``evaluate`` takes a rational point.

A real polynomial keeps an all-zero im of re's length.  Each kernel step
tests once whether its operands are real and then skips im, writing back that
zero tuple: two real factors make one convolution, a real pair is its own
conjugate.  A product by a constant scales coefficients.  The rescaling
f(p/r t) multiplies num and den by one weight table p^k r^(n-k), n the larger
degree, whose common r^n cancels; the weights are positive, so it moves only
den's content, into num's d.

Sums, products and nonnegative powers need no normal-form pass when their den
is one shared den or a product of real dens: by Gauss's lemma a product of
primitive integer polynomials is primitive, and its lead is a product of
positive leads, so only a zero num changes the pair (to den ``_ONE``).
``_normal`` still runs where that fails: on products of complex dens, which
can gain a content or a negative lead ((it+1)(it-1) = -t^2-1), on quotients
and negative powers, whose den comes from a numerator, on conjugates whose
lead is purely imaginary, which flips sign, and on construction.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .errors import DomainError, EvaluationError
from .scalars import RationalComplex

Coeffs = tuple[RationalComplex, ...]
Poly = tuple[tuple[int, ...], tuple[int, ...], int]
Pair = tuple[Poly, Poly]   # (num, den) in the normal form of the module docstring
_ONE: Poly = ((1,), (0,), 1)

# f ** k is refused when k times f's degree, or k times the bit length of its
# largest integer, passes these: a literal cannot ask for unbounded work
MAX_POWER_DEGREE = 1000
MAX_POWER_BITS = 1 << 16


def _canon(re: list[int], im: list[int] | tuple[int, ...], d: int) -> Poly:
    """The canonical triple of (re + i im) / d, for d > 0; an all-zero im may be ()."""
    n, real = len(re), not any(im)
    while n and not re[n - 1] and (real or not im[n - 1]):
        n -= 1
    re, im = re[:n], (0,) * n if real else tuple(im[:n])
    g = math.gcd(d, *re) if real else math.gcd(d, *re, *im)
    if g > 1:
        return tuple([c // g for c in re]), im if real else tuple([c // g for c in im]), d // g
    return tuple(re), im, d


def _poly(raw) -> Poly:
    """Clear a sequence of int, Fraction or RationalComplex over one denominator."""
    if all(type(c) in (int, Fraction) for c in raw):
        d = math.lcm(*(c.denominator for c in raw))
        return _canon([c.numerator * (d // c.denominator) for c in raw], [0] * len(raw), d)
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
    re = [x * sa + y * sb for x, y in zip_longest(ar, br, fillvalue=0)]
    if not any(ai) and not any(bi):
        return _canon(re, (), da * sa)
    return _canon(re, [x * sa + y * sb for x, y in zip_longest(ai, bi, fillvalue=0)], da * sa)


def _conv(out: list[int], x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
    """out += x * y, convolved; returns out."""
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y, i):
                out[j] += xi * yj
    return out


def _p_mul(a: Poly, b: Poly) -> Poly:
    """Product over the integers.

    A constant factor scales the other's coefficients; otherwise the real
    parts are convolved and only nonzero imaginary parts join in, so two
    real factors make one convolution.
    """
    if a == _ONE or b == _ONE:
        return b if a == _ONE else a
    if len(a[0]) > len(b[0]):
        a, b = b, a
    (ar, ai, da), (br, bi, db) = a, b
    real = not any(ai) and not any(bi)
    if len(ar) <= 1:   # a is a constant, or zero
        if not ar:
            return a
        cr, ci = ar[0], ai[0]
        if real:
            return _canon([cr * x for x in br], (), da * db)
        return _canon([cr * x - ci * y for x, y in zip(br, bi)],
                      [cr * y + ci * x for x, y in zip(br, bi)], da * db)
    size = len(ar) + len(br) - 1
    re = _conv([0] * size, ar, br)
    if real:
        return _canon(re, (), da * db)
    im = [0] * size
    if any(ai):
        _conv(im, ai, br)
        if any(bi):
            _conv(re, [-c for c in ai], bi)
    if any(bi):
        _conv(im, ar, bi)
    return _canon(re, im, da * db)


def _p_neg(a: Poly) -> Poly:
    re, im, d = a
    return tuple([-c for c in re]), im if not any(im) else tuple([-c for c in im]), d


def _f_argscale(a: Pair, p: int, r: int) -> Pair:
    """f(p/r t) for integers p, r > 0, num and den scaled by one weight table.

    Coefficient k of num and den is multiplied by p^k r^(n-k), n the larger
    degree: that is num(p/r t) and den(p/r t) times the same r^n, which
    cancels in the quotient.  Every weight is positive, so den keeps d = 1 and
    the sign of its lead; only its content g moves, into num's d.  A constant
    den stays 1, and r^n goes into num's d.
    """
    (nr, ni, d), (dr, di, _) = a
    if not nr:
        return a
    n, real = max(len(nr), len(dr)) - 1, not any(ni) and not any(di)
    w = [r ** n]
    for _ in range(n):   # p^k r^(n-k) from its predecessor
        w.append(w[-1] // r * p)

    def scaled(cs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([c * x for c, x in zip(cs, w)])

    num_im = () if real else scaled(ni)
    if a[1] == _ONE:
        return _canon(scaled(nr), num_im, d * w[0]), _ONE
    den_re, den_im = scaled(dr), di if real else scaled(di)
    g = math.gcd(*den_re) if real else math.gcd(*den_re, *den_im)
    if g > 1:
        den_re = tuple([c // g for c in den_re])
        den_im = di if real else tuple([c // g for c in den_im])
    return _canon(scaled(nr), num_im, d * g), (den_re, den_im, 1)


def _normal(num: Poly, den: Poly) -> Pair:
    """num / den in the normal form, den != 0; a constant den (a + ib) / d goes into num."""
    re, im, d = den
    if not num[0] or den == _ONE:
        return num, _ONE
    real = not any(im)
    if len(re) == 1:   # 1 / den is d / c, canonical as sign(c) d / |c| when c is real
        c = re[0]
        if real:
            return _p_mul(num, ((d if c > 0 else -d,), (0,), abs(c))), _ONE
        return _p_mul(num, _canon([d * c], [-d * im[0]], c ** 2 + im[0] ** 2)), _ONE
    g = math.gcd(*re) if real else math.gcd(*re, *im)
    s = 1 if (re[-1] or im[-1]) > 0 else -1
    if g == s == d == 1:
        return num, den
    sg = s * g
    return (_p_mul(num, ((s * d,), (0,), g)),
            (tuple([c // sg for c in re]), im if real else tuple([c // sg for c in im]), 1))


def _over(num: Poly, den: Poly) -> Pair:
    """num / den for a den already in the normal form: only a zero num moves it to ``_ONE``."""
    return (num, den) if num[0] else (num, _ONE)


def _over_product(num: Poly, ad: Poly, bd: Poly) -> Pair:
    """num / (ad bd) for normal ad and bd.

    Real ones multiply to a normal den by Gauss's lemma: a product of
    primitive integer polynomials is primitive, its lead is a product of
    positive leads, and its d is 1.  Complex ones can lose both (content 2 in
    ((1+i)t+1+i)((1-i)t+1-i), lead -1 in (it+1)(it-1)), so their product goes
    through _normal.  The real product needs no _canon either: d is 1 and the
    lead, a product of nonzero integers, is nonzero.
    """
    if any(ad[1]) or any(bd[1]):
        return _normal(num, _p_mul(ad, bd))
    if not num[0]:
        return num, _ONE
    if ad == _ONE or bd == _ONE:
        return num, bd if ad == _ONE else ad
    re = _conv([0] * (len(ad[0]) + len(bd[0]) - 1), ad[0], bd[0])
    return num, (tuple(re), (0,) * len(re), 1)


def _f_add(a: Pair, b: Pair) -> Pair:
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return _over(_p_add(an, bn), ad)
    return _over_product(_p_add(_p_mul(an, bd), _p_mul(bn, ad)), ad, bd)


def _f_neg(a: Pair) -> Pair:
    return _p_neg(a[0]), a[1]


def _f_conj(a: Pair) -> Pair:
    """The conjugate pair: a den whose lead has a real part keeps that lead, so
    stays normal; only a purely imaginary lead turns negative and goes through _normal."""
    (nr, ni, dn), (dr, di, dd) = a
    if not any(ni) and not any(di):
        return a
    num, den = (nr, tuple([-c for c in ni]), dn), (dr, tuple([-c for c in di]), dd)
    return (num, den) if dr[-1] else _normal(num, den)


def _f_sub(a: Pair, b: Pair) -> Pair:
    return _f_add(a, _f_neg(b))


def _f_mul(a: Pair, b: Pair) -> Pair:
    return _over_product(_p_mul(a[0], b[0]), a[1], b[1])


def _f_div(a: Pair, b: Pair) -> Pair:
    if not b[0][0]:
        raise DomainError("division by the zero function")
    (an, ad), (bn, bd) = a, b
    if ad == bd == _ONE and len(an[0]) <= 1 == len(bn[0]) and not any(an[1]) and not bn[1][0]:
        # real constants x / da and y / db: one fraction, as _normal's constant branch makes it
        x, (y,) = an[0][0] if an[0] else 0, bn[0]
        return _canon([(x if y > 0 else -x) * bn[2]], (), an[2] * abs(y)), _ONE
    return _normal(_p_mul(a[0], b[1]), _p_mul(a[1], b[0]))


def _f_pow(a: Pair, k: int) -> Pair:
    """a ** k by squaring, refused before any expansion past the power bounds.

    For k >= 0 and a real den, den ** k is normal by Gauss's lemma, as in
    _over_product; an inverse or a complex den goes through _normal.
    """
    inverse = k < 0
    if inverse:
        if not a[0][0]:
            raise DomainError("negative power of the zero function")
        a, k = (a[1], a[0]), -k
    (nr, ni, nd), (dr, di, dd) = a
    degree = k * (max(len(nr), len(dr)) - 1)
    bits = k * max(map(int.bit_length, (*nr, *ni, nd, *dr, *di, dd)))
    if degree > MAX_POWER_DEGREE or bits > MAX_POWER_BITS:
        raise DomainError(f"power {k} passes the bounds of degree {MAX_POWER_DEGREE} "
                          f"and of {MAX_POWER_BITS}-bit coefficients")
    (num, den), (bn, bd) = (_ONE, _ONE), a
    while k:   # by squaring: num^k and den^k over the bits of k
        if k & 1:
            num, den = _p_mul(num, bn), _p_mul(den, bd)
        k >>= 1
        if k:
            bn, bd = _p_mul(bn, bn), _p_mul(bd, bd)
    return _normal(num, den) if inverse or any(di) else _over(num, den)


def _operator(op):
    """RationalFunction method applying op to the pairs of self and _as_rf(other)."""
    def method(self, other):
        o = _as_rf(other)
        return NotImplemented if o is None else _rf(op(self._pair, o._pair))
    return method


def _horner(cs: tuple[int, ...], p: int, r: int) -> int:
    """r^n c(p/r) for c of degree n, by Horner's scheme in homogeneous form."""
    acc, rj = 0, 1
    for c in reversed(cs):
        acc = acc * p + c * rj
        rj *= r
    return acc


def _p_eval_float(cs: tuple[float, ...], t):
    """Horner's scheme for real coefficients at a float or a float array."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _smith_div(a, b, c, e, *, upper: bool):
    """(a + ib) / (c + ie) by Smith's scaling, in the branch chosen by upper = |c| >= |e|.

    This is the formula of CPython's complex division, written out so that
    scalars and arrays round alike.
    """
    if upper:
        ratio = e / c
        denom = c + e * ratio
        return (a + b * ratio) / denom, (b - a * ratio) / denom
    ratio = c / e
    denom = c * ratio + e
    return (a * ratio + b) / denom, (b * ratio - a) / denom


def _smith(a, b, c, e):
    """Smith's division of floats or float arrays, the branch chosen per entry."""
    if np.ndim(c) == 0:
        return _smith_div(a, b, c, e, upper=abs(c) >= abs(e))
    return np.where(np.abs(c) >= np.abs(e), _smith_div(a, b, c, e, upper=True),
                    _smith_div(a, b, c, e, upper=False))


def _reversed_value(cs: tuple[tuple[float, ...], ...], t):
    """(Re, Im) of n(t)/d(t), as t^(deg n - deg d) n~(1/t)/d~(1/t).

    cs holds the parts (n, d) for real coefficients, (Re n, Im n, Re d, Im d)
    otherwise.  n~ and d~ are the reversed polynomials, evaluated at 1/t, so
    no power of a large t is formed beyond t^(deg n - deg d) itself.  The
    monomial is a Horner product, which rounds alike for a float and a float
    array; complex parts are divided by Smith's formula.
    """
    u = 1 / t
    k = len(cs[0]) - len(cs[-1])
    monomial = _p_eval_float((0.0,) * abs(k) + (1.0,), t if k > 0 else u)
    parts = [_p_eval_float(p[::-1], u) for p in cs]
    if len(parts) == 2:
        return parts[0] / parts[1] * monomial, 0.0
    re, im = _smith(*parts)
    return re * monomial, im * monomial


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _positive_root_count(g: list[int] | tuple[int, ...]) -> int:
    """Distinct roots in (0, inf) of the integer polynomial g by Sturm's theorem; needs g(0) != 0.

    The sequence is g, g' and the negated remainders.  Each remainder is a
    pseudo-remainder whose every step multiplies by |lc b| > 0, divided by its
    positive content: a positive multiple of the remainder over Q, so the signs
    that Sturm's theorem reads are those over Q, and no Fraction is formed.
    """
    if len(g) < 2:
        return 0
    seq = [g, [k * c for k, c in enumerate(g)][1:]]
    while True:
        a, b = list(seq[-2]), seq[-1]
        m, s = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(a) >= len(b):   # a <- |lc b| a - sign(lc b) lc(a) t^k b, lead dropped
            c = s * a.pop()
            a = [m * x for x in a]
            for i, y in enumerate(b[:-1], len(a) + 1 - len(b)):
                a[i] -= c * y
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        h = math.gcd(*a)
        seq.append([-x // h for x in a])
    return _sign_changes(p[0] for p in seq) - _sign_changes(p[-1] for p in seq)


class _once:
    """A value computed from the instance on first access and stored in its __dict__,
    which then shadows this descriptor; unlike ``functools.cached_property`` on
    Python 3.11, it takes no lock."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class RationalFunction:
    """Quotient of two polynomials with Gaussian-rational coefficients; immutable."""

    def __init__(self, num, den):
        den = _poly(den)
        if not den[0]:
            raise DomainError("zero denominator polynomial")
        self._set(_normal(_poly(num), den))

    def _set(self, pair: Pair) -> "RationalFunction":
        self.__dict__.update(_pair=pair, _num=pair[0], _den=pair[1])
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalFunction is immutable; cannot set {name!r}")

    # read-only views: RationalComplex coefficients, ascending powers, trimmed
    num = _once(lambda self: _coeffs(*self._num))
    den = _once(lambda self: _coeffs(*self._den))

    # plain RationalFunctions, also when called on a subclass
    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction((c,), (1,))

    @staticmethod
    def variable() -> "RationalFunction":
        return RationalFunction((0, 1), (1,))

    @staticmethod
    def monomial(k: int, scale=1) -> "RationalFunction":
        if k < 0:
            raise DomainError("monomial exponent must be nonnegative")
        return RationalFunction((0,) * k + (scale,), (1,))

    @property
    def is_zero(self) -> bool:
        return not self._num[0]

    __add__ = __radd__ = _operator(_f_add)
    __sub__ = _operator(_f_sub)
    __rsub__ = _operator(lambda a, b: _f_sub(b, a))
    __mul__ = __rmul__ = _operator(_f_mul)
    __truediv__ = _operator(_f_div)
    __rtruediv__ = _operator(lambda a, b: _f_div(b, a))

    def __neg__(self):
        return _rf(_f_neg(self._pair))

    def __pow__(self, k: int):
        return _rf(_f_pow(self._pair, k)) if isinstance(k, int) else NotImplemented

    def conjugate(self) -> "RationalFunction":
        return _rf(_f_conj(self._pair))

    def substitute_scale(self, lam: Fraction) -> "RationalFunction":
        """Return t -> f(lam * t) for rational lam > 0."""
        lam = Fraction(lam)
        if lam <= 0:
            raise DomainError("argument scale must be positive")
        return _rf(_f_argscale(self._pair, lam.numerator, lam.denominator))

    def evaluate(self, x) -> RationalComplex:
        """Exact value at a real point (int, Fraction or RationalComplex with im == 0)."""
        t = x.re if isinstance(x, RationalComplex) and not x.im else x
        if not isinstance(t, (int, Fraction)):
            raise TypeError(f"evaluate needs a real rational point, got {x!r}")
        (a,), im, (c,) = self.evaluate_pairs((t.numerator,), (t.denominator,))
        return RationalComplex(Fraction(a, c), Fraction(im[0] if im else 0, c))

    def evaluate_pairs(self, nums, dens) -> tuple[list[int], list[int] | None, list[int]]:
        """(re, im, den) with f(p / r) = (re + i im) / den and den > 0, at each point p / r.

        The points are integer pairs with r > 0, reduced or not, such as the
        values of an exact diagonal.  Horner's scheme runs in integers at p / r
        and no pair is reduced.  im is None when f has real coefficients.
        """
        (nr, ni, dn), (dr, di, dd) = self._num, self._den
        real, k = not any(ni) and not any(di), len(dr) - len(nr)
        re, im, den = [], None if real else [], []
        for p, r in zip(nums, dens):
            # num = (a + i b) / (dn r^len(nr)) and den = (c + i e) / (dd r^len(dr))
            a, c = _horner(nr, p, r), _horner(dr, p, r)
            b, e = (0, 0) if real else (_horner(ni, p, r), _horner(di, p, r))
            if not c and not e:
                raise EvaluationError(f"denominator vanishes at t={Fraction(p, r)}")
            if e:
                a, b, c = a * c + b * e, b * c - a * e, c * c + e * e
            s, c = (dd * r ** k, c * dn) if k >= 0 else (dd, c * dn * r ** -k)
            if c < 0:
                s, c = -s, -c
            re.append(a * s)
            den.append(c)
            if not real:
                im.append(b * s)
        return re, im, den

    @_once
    def _float_coeffs(self) -> tuple[tuple[float, ...], ...]:
        """Rounded (Re num, Im num, Re den, Im den), or (Re num, Re den) if all real;
        made on the first float evaluation."""
        (nr, ni, dn), (dr, di, dd) = self._num, self._den
        parts = [(nr, dn), (ni, dn), (dr, dd), (di, dd)]
        if not any(ni) and not any(di):
            parts = parts[::2]
        # integer true division rounds once, as float(Fraction(c, d)) does
        try:
            return tuple(tuple(c / d for c in cs) for cs, d in parts)
        except OverflowError:
            pass
        # a bounded function can have coefficients past float range.  One common
        # 2**s on num and den leaves the quotient and puts each part's sum of
        # |c| / d below 2**1023, so Horner stays finite at |t| <= 1 and, on the
        # reversed polynomials, at |t| >= 1
        s = max(sum(map(abs, cs)).bit_length() - d.bit_length() for cs, d in parts) - 1022
        return tuple(tuple(c / (d << s) for c in cs) for cs, d in parts)

    def evaluate_float(self, t: float) -> complex:
        """Value at a float point: Horner on real and imaginary parts, one division.

        Agrees bit for bit with :meth:`evaluate_array`.  Where the denominator
        or the quotient is not finite at a finite t != 0, the value is taken
        from the reversed polynomials at 1/t instead, for real and for complex
        coefficients: an overflowed denominator does not make the value 0.
        """
        cs = self._float_coeffs
        parts = [_p_eval_float(x, t) for x in cs]
        c, e = (parts[1], 0.0) if len(cs) == 2 else parts[2:]
        if c == 0 and e == 0:
            raise EvaluationError(f"denominator vanishes at t={t}")
        v = parts[0] / c if len(cs) == 2 else complex(*_smith(*parts))
        finite = cmath.isfinite(v) and math.isfinite(c) and math.isfinite(e)
        if not finite and t != 0 and math.isfinite(t):
            v = complex(*_reversed_value(cs, t))
        return complex(v)

    def evaluate_array(self, t: np.ndarray) -> np.ndarray:
        """Values at a float64 array of points as a complex128 array.

        The arithmetic of :meth:`evaluate_float`, elementwise and warning-free.
        """
        with np.errstate(all="ignore"):
            parts = [_p_eval_float(cs, t) for cs in self._float_coeffs]
            real = len(parts) == 2
            c, e = (parts[1], 0.0) if real else parts[2:]
            if not (c != 0 if real else (c != 0) | (e != 0)).all():
                raise EvaluationError(f"denominator vanishes at t={t[(c == 0) & (e == 0)][0]}")
            if real:
                v = (parts[0] / c).astype(complex)
            else:
                v = np.empty(np.shape(t), dtype=complex)
                v.real, v.imag = _smith(*parts)
            if np.isfinite(v).all() and np.isfinite(c).all() and (real or np.isfinite(e).all()):
                return v
            finite = np.isfinite(v) & np.isfinite(c) & np.isfinite(e)
            redo = ~finite & np.isfinite(t) & (t != 0)
            if np.any(redo):
                v.real[redo], v.imag[redo] = _reversed_value(self._float_coeffs, t[redo])
            return v

    def equals(self, other: "RationalFunction") -> bool:
        """Exact equality as functions: num_a den_b == num_b den_a."""
        return (self._pair == other._pair
                or _p_mul(self._num, other._den) == _p_mul(other._num, self._den))

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

        A real t is a root of the denominator exactly when it is a root of the
        integer polynomial g = |den|^2 = Re^2 + Im^2, or g = den when den is
        real.  A root at t = 0 shows in g's constant term; Sturm's theorem
        counts the distinct roots in (0, inf), which coefficients >= 0 rule out
        at once.  The answer is decided, not sampled.
        """
        re, im, _ = self._den
        g = _conv(_conv([0] * (2 * len(re) - 1), re, re), im, im) if any(im) else re
        if g[0] == 0:
            raise EvaluationError("denominator vanishes at t=0")
        roots = _positive_root_count(g) if min(g) < 0 else 0
        if roots:
            raise EvaluationError(f"denominator has {roots} distinct root(s) in (0, inf)")


def _rf(pair: Pair) -> RationalFunction:
    return RationalFunction.__new__(RationalFunction)._set(pair)


def _as_rf(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction, RationalComplex)):
        return RationalFunction.constant(value)
    return None
