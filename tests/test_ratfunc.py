import math
import random
from fractions import Fraction

import pytest

from qcplane import ratfunc
from qcplane.errors import EvaluationError
from qcplane.ratfunc import RationalFunction
from qcplane.scalars import RationalComplex

T = RationalFunction.variable()
IM = RationalComplex(Fraction(0), Fraction(1))


def _random_complex(rng: random.Random, real: bool = False) -> RationalComplex:
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    im = Fraction(0) if real else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return RationalComplex(re, im)


def _random_poly(rng: random.Random, degree: int, real: bool = False) -> tuple:
    coeffs = [_random_complex(rng, real) for _ in range(degree)]
    lead = RationalComplex()
    while lead.is_zero:
        lead = _random_complex(rng, real)
    return tuple(coeffs) + (lead,)


def _p_scaled(a, s: RationalComplex) -> tuple:
    return tuple(c * s for c in a)


def _poly_rf(coeffs) -> RationalFunction:
    return RationalFunction(coeffs, (1,))


def _sympy_roots_on_half_line(den) -> int:
    """Distinct roots on [0, oo) of gcd(Re den, Im den), counted by sympy."""
    sp = pytest.importorskip("sympy")
    t = sp.symbols("t")
    re = sp.Poly([sp.Rational(c.re.numerator, c.re.denominator) for c in reversed(den)],
                 t, domain="QQ")
    im = sp.Poly([sp.Rational(c.im.numerator, c.im.denominator) for c in reversed(den)],
                 t, domain="QQ")
    return int(sp.gcd(re, im).count_roots(0, sp.oo))


def _rejected(f: RationalFunction) -> bool:
    try:
        f.check_denominator()
    except EvaluationError:
        return True
    return False


@pytest.mark.parametrize("den, has_root", [
    (T * (T + 1), True),                  # root at 0
    (2 * T - 3, True),                    # rational root 3/2
    (T * T - 2, True),                    # irrational root sqrt(2)
    ((T - 1) * (T - 1), True),            # double root on the half line
    (T + 5, False),                       # negative root
    (T - IM, False),                      # root off the real axis
    ((T + 1) * (T + 1), False),           # double negative root
    (1 + T * T, False),
    ((T - 2) * (T - IM), True),           # real root shared by Re and Im
    ((T + 2) * (T - IM), False),
    (T ** 3 - 3 * T * T + 2 * T, True),   # roots 0, 1, 2
    (RationalFunction.constant(RationalComplex(Fraction(1, 3), Fraction(-2))), False),
])
def test_check_denominator_planted_roots(den, has_root):
    f = 1 / den
    assert _rejected(f) == has_root
    assert (_sympy_roots_on_half_line(f.den) > 0) == has_root


def test_check_denominator_matches_sympy_on_random_denominators():
    rng = random.Random(20261018)
    rejected = 0
    for trial in range(150):
        real = trial % 3 != 2
        den = _random_poly(rng, rng.randint(0, 5), real)
        if trial % 5 == 0:
            # a shared real factor makes the gcd of Re and Im nontrivial
            shared = _random_poly(rng, rng.randint(1, 2), real=True)
            den = (_poly_rf(_p_scaled(den, _random_complex(rng))) * _poly_rf(shared)).num
        f = RationalFunction((1,), den)
        expected = _sympy_roots_on_half_line(f.den)
        assert _rejected(f) == (expected > 0), den
        rejected += expected > 0
        g = ratfunc._q_gcd(ratfunc._q_trim([c.re for c in f.den]),
                           ratfunc._q_trim([c.im for c in f.den]))
        if g[0] != 0:
            assert ratfunc._positive_root_count(g) == expected
    assert 20 < rejected < 130  # both verdicts are exercised


def _schoolbook(a, b) -> tuple:
    out = [RationalComplex()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return tuple(out)


def test_integer_convolution_matches_schoolbook():
    rng = random.Random(7)
    for trial in range(200):
        a = _random_poly(rng, rng.randint(0, 6), real=trial % 4 == 0)
        b = _random_poly(rng, rng.randint(0, 6), real=trial % 4 in (0, 1))
        if trial % 7 == 0:
            a = (RationalComplex(),) * 2 + a   # zero low-order coefficients
        product = (_poly_rf(a) * _poly_rf(b)).num
        assert product == _schoolbook(a, b)
        assert all(isinstance(c.re, Fraction) and isinstance(c.im, Fraction)
                   for c in product)
    assert (_poly_rf(()) * _poly_rf(_random_poly(rng, 2))).num == ()


def test_equals_decides_function_equality():
    f = (1 + T) / (1 + T * T)
    assert f.equals((2 + 2 * T) / (2 + 2 * T * T))
    assert f.equals(((1 + T) * (T + IM)) / ((1 + T * T) * (T + IM)))
    assert not f.equals((1 + T) / (1 + 2 * T * T))
    assert not f.equals(f + RationalFunction.constant(Fraction(1, 10 ** 30)))
    assert RationalFunction.constant(0).equals(T - T)


def test_evaluate_float_is_plain_horner():
    rng = random.Random(3)
    for _ in range(50):
        f = RationalFunction(_random_poly(rng, rng.randint(0, 4)),
                             _random_poly(rng, rng.randint(0, 4)))
        for t in (0.0, 0.37, 1.0, 2.5, 1e3):
            num = den = 0j
            for c in reversed(f.num):
                num = num * t + complex(c)
            for c in reversed(f.den):
                den = den * t + complex(c)
            if den == 0:
                continue
            assert f.evaluate_float(t) == num / den
            assert f.evaluate_float(t) == num / den   # cached coefficients agree


# A schoolbook oracle: a function is a (num, den) pair of RationalComplex tuples,
# trimmed, with den (1,) when num is zero, as the coefficient views present it.

def _trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def _oracle(num, den) -> tuple:
    num, den = _trim(num), _trim(den)
    return (num, den) if num else ((), (RationalComplex(Fraction(1)),))


def _sum(a, b) -> tuple:
    out = [RationalComplex()] * max(len(a), len(b))
    for cs in (a, b):
        for k, c in enumerate(cs):
            out[k] = out[k] + c
    return tuple(out)


def _value(cs, t: Fraction) -> RationalComplex:
    acc = RationalComplex()
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _random_pair(rng: random.Random, trial: int):
    num = _random_poly(rng, rng.randint(0, 4), real=trial % 3 == 0)
    den = _random_poly(rng, rng.randint(0, 3), real=trial % 3 != 2)
    if trial % 4 == 1:
        num = (RationalComplex(),) * rng.randint(1, 2) + num   # zero low-order coefficients
    if trial % 13 == 0:
        num = ()
    return RationalFunction(num, den), _oracle(num, den)


def _assert_stored(f: RationalFunction, oracle) -> None:
    assert (f.num, f.den) == oracle
    for re, im, d in (f._num, f._den):
        assert d > 0 and len(re) == len(im)
        assert not re or re[-1] or im[-1]
        assert math.gcd(d, *re, *im) == 1


def test_integer_storage_matches_schoolbook_oracle():
    rng = random.Random(11)
    points = [Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-7, 5), Fraction(5)]
    for trial in range(150):
        (f, (fn, fd)), (g, (gn, gd)) = _random_pair(rng, trial), _random_pair(rng, trial + 1)
        _assert_stored(f, (fn, fd))
        _assert_stored(f + g, _oracle(_sum(_schoolbook(fn, gd), _schoolbook(gn, fd)),
                                      _schoolbook(fd, gd)))
        _assert_stored(f * g, _oracle(_schoolbook(fn, gn), _schoolbook(fd, gd)))
        _assert_stored(-f, _oracle(tuple(-c for c in fn), fd))
        _assert_stored(f.conjugate(), _oracle(tuple(c.conjugate() for c in fn),
                                              tuple(c.conjugate() for c in fd)))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = [tuple(c * lam ** k for k, c in enumerate(cs)) for cs in (fn, fd)]
        _assert_stored(f.substitute_scale(lam), _oracle(*scaled))
        assert f.equals(g) == (_trim(_schoolbook(fn, gd)) == _trim(_schoolbook(gn, fd)))
        if not g.is_zero:
            _assert_stored(f / g, _oracle(_schoolbook(fn, gd), _schoolbook(fd, gn)))
            assert ((f * g) / g).equals(f)
        for t in points:
            den = _value(fd, t)
            if den.is_zero:
                with pytest.raises(EvaluationError):
                    f.evaluate(t)
                continue
            want = _value(fn, t) / den
            assert f.evaluate(t) == want
            assert f.evaluate(RationalComplex(t)) == want
    with pytest.raises(AttributeError):
        f.num = ()


@pytest.mark.parametrize("x", [RationalComplex(Fraction(1), Fraction(1)), 0.5, 1j, "1"])
def test_evaluate_rejects_non_real_points(x):
    with pytest.raises(TypeError):
        ((1 + T) / (2 + T * T)).evaluate(x)


def test_integer_coefficients_take_the_same_canonical_form():
    rng = random.Random(23)
    seqs = [(), (0,), (0, 0, 0), (5,), (-4, 0, 6, 0, 0), (0, 3, 0)]
    seqs += [tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))) + (0,) * rng.randint(0, 2)
             for _ in range(200)]
    for seq in seqs:
        assert ratfunc._poly(seq) == ratfunc._poly([Fraction(c) for c in seq])
