import itertools
import math
import random
from fractions import Fraction

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qcplane import algebra, qnormal, ratfunc
from qcplane.errors import DomainError, EvaluationError
from qcplane.qnormal import TruncationWindow
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
        p = _poly_rf(f.den)   # integer coefficients: the denominator is primitive
        g = [int(c.re) for c in (p * p.conjugate()).num]   # |den|^2
        if g[0] != 0:
            assert ratfunc._positive_root_count(g) == expected
    assert 20 < rejected < 130  # both verdicts are exercised


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _integer_polys(draw) -> list[int]:
    """Integer polynomials with g(0) != 0: a random factor times planted real roots p/r.

    A planted root may be simple or double, positive or negative, and may be
    planted twice, so g is square-free or not.
    """
    g = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
    g[0] = g[0] or 1
    g[-1] = g[-1] or 1
    for p, r, twice in draw(st.lists(st.tuples(st.integers(-8, 8).filter(bool),
                                               st.integers(1, 5), st.booleans()),
                                     max_size=4)):
        factor = [-p, r]   # r t - p
        g = _int_mul(g, _int_mul(factor, factor) if twice else factor)
    return g


@settings(max_examples=300, deadline=None)
@given(_integer_polys())
def test_positive_root_count_matches_sympy(g):
    sp = pytest.importorskip("sympy")
    t = sp.symbols("t")
    # count_roots counts distinct roots, here those in [0, oo) with 0 not a root
    assert ratfunc._positive_root_count(g) == sp.Poly(g[::-1], t).count_roots(0, sp.oo)


def test_sturm_remainders_stay_small(monkeypatch):
    # every value Sturm's theorem reads is a lead or constant coefficient of a
    # remainder divided by its content, which is at most a subresultant of g and
    # g': a determinant of order <= 2n - 1 with entries <= n max|g|, bounded by
    # Hadamard.  Pseudo-remainders that keep their content pass the bound by
    # orders of magnitude at degree 14.
    read, count = [], ratfunc._sign_changes

    def spy(values):
        values = list(values)
        read.extend(values)
        return count(values)

    monkeypatch.setattr(ratfunc, "_sign_changes", spy)
    rng, n = random.Random(14), 14
    order = 2 * n - 1
    for _ in range(20):
        g = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n + 1)]
        read.clear()
        ratfunc._positive_root_count(g)
        bound = (math.isqrt(order) + 1) ** order * (n * max(map(abs, g))) ** order
        assert len(read) > 4 and max(map(abs, read)) <= bound


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


def test_float_coefficients_are_made_once_on_the_first_float_use():
    # exact work never rounds the coefficients; the first float evaluation makes
    # them once, and every later float evaluation reads the same tuple
    f = (1 + IM * T) / (2 + T * T)
    g = f * f - f.substitute_scale(Fraction(1, 3))
    assert g.evaluate(Fraction(1, 2)) == g.evaluate(Fraction(1, 2))
    assert g.num and g.den and g.equals(g)
    assert "_float_coeffs" not in vars(g)
    value = g.evaluate_float(0.5)
    made = vars(g)["_float_coeffs"]
    assert g.evaluate_array(np.array([0.5]))[0] == value
    assert g._float_coeffs is made and g.num is vars(g)["num"]
    with pytest.raises(AttributeError):
        g._float_coeffs = ()


def _model_points(q: str, h: int) -> list[np.ndarray]:
    """The float points a model evaluates at: its grid at factor 1 and at factor q."""
    T = qnormal.build_from_generators(q, ["1", "5/6"], TruncationWindow(-h, h))
    return [T.modulus_band.diags[0].real[:len(T.grid)],
            np.array([float(T.q * gp.value) for gp in T.grid])]


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal bit patterns, with every nan counted equal to every nan."""
    x, y = x.view(float), y.view(float)
    nan = np.isnan(x)
    return bool(np.array_equal(nan, np.isnan(y))
                and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


@pytest.mark.parametrize("q", ["1/2", "2/3", "3/7"])
def test_evaluate_array_matches_evaluate_float_bit_for_bit(q):
    rng = random.Random(q)
    points = [t for h in (200, 300) for t in _model_points(q, h)]
    # 1/(1 + t^6) and t^3/(1 + t^6), the n = 3 Bott coefficients, among random ones,
    # a ratio whose numerator and denominator both overflow to inf/inf and an
    # unbounded ratio, whose value overflows to inf
    fs = [1 / (1 + T ** 6), T ** 3 / (1 + T ** 6), (1 + T ** 8) / (2 + T ** 8),
          T ** 8 / (1 + T)]
    for trial in range(24):
        real = trial % 2 == 0
        fs.append(RationalFunction(_random_poly(rng, rng.randint(0, 5), real),
                                   _random_poly(rng, rng.randint(0, 5), real)))
    overflowed = 0
    for f in fs:
        for t in points:
            try:
                scalar = np.array([f.evaluate_float(x) for x in t.tolist()])
            except EvaluationError:
                with pytest.raises(EvaluationError):
                    f.evaluate_array(t)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = f.evaluate_array(t)
            assert values.dtype == complex and values.shape == t.shape
            assert _same_bits(values, scalar), f.num
            overflowed += not np.isfinite(values).all()
    assert overflowed > 0   # the inf case is exercised too
    for f in fs[:2]:
        # real coefficients whose denominator overflows are finite, not nan, also
        # where the numerator t^3 overflows as well (q = 3/7); at 2^300 they read
        # the true values 2^-1800 (which rounds to 0) and 2^-900
        assert all(np.isfinite(f.evaluate_array(t)).all() for t in points)
        want = complex(f.evaluate(Fraction(2) ** 300))
        assert f.evaluate_array(np.array([2.0 ** 300]))[0] == pytest.approx(want, rel=1e-15, abs=0)
        assert f.evaluate_float(2.0 ** 300) == pytest.approx(want, rel=1e-15, abs=0)
    # inf/inf is read from the reversed polynomials: 1 - 1/(2 + t^8) rounds to 1
    assert fs[2].evaluate_array(np.array([2.0 ** 300]))[0] == 1
    assert fs[2].evaluate_float(2.0 ** 300) == 1


def test_evaluate_array_agrees_with_exact_values_at_finite_points():
    rng = random.Random(11)
    t = np.array([0.0, 0.25, 1.0, 3.5, 1e3])
    for trial in range(40):
        f = RationalFunction(_random_poly(rng, rng.randint(0, 4), trial % 2 == 0),
                             _random_poly(rng, rng.randint(0, 4), trial % 2 == 0))
        try:
            exact = [complex(f.evaluate(Fraction(x))) for x in t.tolist()]
        except EvaluationError:
            continue
        assert np.allclose(f.evaluate_array(t), exact, rtol=1e-12, atol=0)


def test_evaluate_array_zero_denominator_raises():
    f = 1 / (T - 1)
    with pytest.raises(EvaluationError, match="t=1.0"):
        f.evaluate_array(np.array([0.5, 1.0, 2.0]))
    with pytest.raises(EvaluationError):
        f.evaluate_float(1.0)
    g = 1 / ((T - 1) * (T - IM))
    with pytest.raises(EvaluationError):
        g.evaluate_array(np.array([1.0]))


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


def _assert_normal(f: RationalFunction) -> None:
    """Canonical triples; den primitive, the first nonzero part of its lead positive."""
    for re, im, d in (f._num, f._den):
        assert d > 0 and len(re) == len(im)
        assert not re or re[-1] or im[-1]
        assert math.gcd(d, *re, *im) == 1
    re, im, d = f._den
    assert d == 1 and math.gcd(*re, *im) == 1 and (re[-1] or im[-1]) > 0
    assert (f._den == ratfunc._ONE) == (len(re) == 1)
    assert f._num[0] or f._den == ratfunc._ONE   # the zero function is 0 / 1
    assert f._pair == (f._num, f._den)


def _assert_stored(f: RationalFunction, oracle) -> None:
    """f is in the normal form and equals the oracle's quotient in value."""
    _assert_normal(f)
    num, den = oracle
    assert _trim(_schoolbook(f.num, den)) == _trim(_schoolbook(num, f.den))
    if not num:
        assert f.is_zero


def test_integer_storage_matches_schoolbook_oracle():
    rng = random.Random(11)
    points = [Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-7, 5), Fraction(5)]
    for trial in range(150):
        (f, (fn, fd)), (g, (gn, gd)) = _random_pair(rng, trial), _random_pair(rng, trial + 1)
        _assert_stored(f, (fn, fd))
        _assert_stored(f + g, _oracle(_sum(_schoolbook(fn, gd), _schoolbook(gn, fd)),
                                      _schoolbook(fd, gd)))
        _assert_stored(f - g, _oracle(_sum(_schoolbook(fn, gd),
                                           _schoolbook(tuple(-c for c in gn), fd)),
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


def test_complex_coefficients_read_from_reversed_polynomials_where_both_overflow():
    # numerator and denominator overflow together, and Smith's division of
    # inf by inf reads nan; the reversed polynomials at 1/t give the value
    cases = [((1 + IM * T ** 8) / (2 + T ** 8), 2.0 ** 300, 1j),
             (IM * T ** 3 / (1 + T ** 6), 1e110, 0j),     # i 1e-330 rounds to 0
             ((T + 3 * IM * T ** 8) / (2 * T ** 8 + 1), 1e40, 5e-281 + 1.5j)]
    for f, t, want in cases:
        points = np.array([t, 0.0, 0.5, 3.0, 1e30, t * 4])
        scalar = np.array([f.evaluate_float(x) for x in points.tolist()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f.evaluate_array(points)
        assert _same_bits(values, scalar)
        assert np.isfinite(values).all()
        assert values[0] == pytest.approx(want, rel=1e-15, abs=0)
        exact = [complex(f.evaluate(Fraction(x))) for x in points[1:5].tolist()]
        assert np.allclose(values[1:5], exact, rtol=1e-12, atol=0)


def _repeated(f: RationalFunction, k: int) -> RationalFunction:
    out = RationalFunction.constant(1)
    for _ in range(abs(k)):
        out = out * f if k > 0 else out / f
    return out


def test_power_by_squaring_equals_repeated_multiplication():
    rng = random.Random(17)
    fs = [T, 1 + T, RationalFunction.constant(Fraction(-3, 2)),
          RationalFunction((1, IM, Fraction(2, 3)), (5, -1, 1))]
    fs += [RationalFunction(_random_poly(rng, rng.randint(1, 4), trial % 2 == 0),
                            _random_poly(rng, rng.randint(1, 3), trial % 2 == 0))
           for trial in range(6)]
    for f in fs:
        for k in range(-7, 8):
            if k < 0 and f.is_zero:
                continue
            got, want = f ** k, _repeated(f, k)
            assert (got._num, got._den) == (want._num, want._den), (f.num, k)
            assert got.equals(want)
    zero = RationalFunction.constant(0)
    assert (zero ** 5).is_zero and (zero ** 0).equals(RationalFunction.constant(1))
    with pytest.raises(DomainError):
        zero ** -1


def test_power_refuses_results_beyond_the_stated_bounds():
    assert (T ** ratfunc.MAX_POWER_DEGREE).degree_num == ratfunc.MAX_POWER_DEGREE
    assert ((1 / T) ** -ratfunc.MAX_POWER_DEGREE).degree_num == ratfunc.MAX_POWER_DEGREE
    two, m = RationalFunction.constant(2), ratfunc.MAX_POWER_BITS // 2   # 2 is two bits long
    assert (two ** m).evaluate(0).re == 2 ** m
    for f, k in ((T, ratfunc.MAX_POWER_DEGREE + 1), (1 + T ** 2, 501), (T, 10 ** 50),
                 (1 / (1 + T), -ratfunc.MAX_POWER_DEGREE - 1),
                 (two, m + 1)):
        with pytest.raises(DomainError, match="passes the bounds"):
            f ** k


def test_power_bounds_read_the_denominator_too():
    # a large integer in the denominator alone passes the bit bound
    f = 1 / (2 ** 700 + T)   # 701 bits: 93 * 701 <= MAX_POWER_BITS < 94 * 701
    assert f._num == ratfunc._ONE and (f ** 93).degree_den == 93
    for g, k in ((f, 94), (1 / f, -94)):
        with pytest.raises(DomainError, match="passes the bounds"):
            g ** k


def test_values_where_only_the_denominator_overflows():
    # at t = 1e60 the denominator 1 + t^6 is inf while t^3 = 1e180 is finite;
    # the quotient of the two would read 0, the reversed polynomials give 1e-180
    for f, want in ((T ** 3 / (1 + T ** 6), 1e-180), (IM * T ** 3 / (1 + T ** 6), 1e-180j),
                    ((2 + IM) * T ** 3 / (1 + IM + T ** 6), (2 + 1j) * 1e-180)):
        points = np.array([1e60, 0.0, 0.5, 3.0, 1e51, 1e60 * 7])
        scalar = np.array([f.evaluate_float(x) for x in points.tolist()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = f.evaluate_array(points)
        assert _same_bits(values, scalar)
        assert values[0] == pytest.approx(want, rel=1e-15, abs=0)
        assert values[5] == pytest.approx(want / 7 ** 3, rel=1e-15, abs=0)
        # at 1e51 the denominator 1e306 is finite: the forward quotient stands
        num, den = (_forward(cs, 1e51) for cs in (f.num, f.den))
        assert values[4] == num / den
        assert values[4] == pytest.approx(want * 1e27, rel=1e-15, abs=0)


def test_bounded_functions_with_coefficients_past_float_range_evaluate():
    # the largest coefficient of (1+2t)^700 is about 1e332; the values lie in [0, 1]
    b = (1 + 2 * T) ** 700
    points = [Fraction(1, 2) ** n for n in range(-12, 13)]
    for f in (1 / b, b / b):
        values = f.evaluate_array(np.array([float(x) for x in points]))
        assert _same_bits(values, np.array([f.evaluate_float(float(x)) for x in points]))
        for x, v in zip(points, values.tolist()):
            want = float(f.evaluate(x).re)   # 0.0 where the exact value underflows
            assert abs(v - want) <= 1e-12 * abs(want)


def _forward(cs, t: float) -> complex:
    acc = 0j
    for c in reversed(cs):
        acc = acc * t + complex(c)
    return acc


_small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def _drawn_functions(draw):
    """(f, (num, den)): real or complex quotients of degree <= 4 over <= 3, den nonzero."""
    real = draw(st.booleans())
    coeff = st.builds(RationalComplex, _small_fractions,
                      st.just(Fraction(0)) if real else _small_fractions)
    num = draw(st.lists(coeff, max_size=5))
    den = draw(st.lists(coeff, min_size=1, max_size=4).filter(
        lambda cs: any(not c.is_zero for c in cs)))
    return RationalFunction(num, den), (tuple(num), tuple(den))


def _exact_rational_functions():
    return _drawn_functions().map(lambda drawn: drawn[0])


@settings(max_examples=100, deadline=None)
@given(_drawn_functions(), _drawn_functions(),
       st.sampled_from([0, 1, -1, 3, Fraction(-2, 9), RationalComplex(Fraction(1, 2), Fraction(-3)),
                        RationalComplex(Fraction(0), Fraction(5, 7))]),
       st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
       st.integers(min_value=-3, max_value=3))
def test_normal_form_holds_after_every_operation(drawn_f, drawn_g, s, lam, k):
    (f, (fn, fd)), (g, (gn, gd)) = drawn_f, drawn_g
    neg_gn = tuple(-c for c in gn)
    cases = [(f, (fn, fd)),
             (f + g, (_sum(_schoolbook(fn, gd), _schoolbook(gn, fd)), _schoolbook(fd, gd))),
             (f - g, (_sum(_schoolbook(fn, gd), _schoolbook(neg_gn, fd)), _schoolbook(fd, gd))),
             (f * g, (_schoolbook(fn, gn), _schoolbook(fd, gd))),
             (f * s, (_p_scaled(fn, RationalComplex.coerce(s)), fd)),
             (s * f, (_p_scaled(fn, RationalComplex.coerce(s)), fd)),
             (-f, (tuple(-c for c in fn), fd)),
             (f.conjugate(), (tuple(c.conjugate() for c in fn), tuple(c.conjugate() for c in fd))),
             (f.substitute_scale(lam), tuple(tuple(c * lam ** j for j, c in enumerate(cs))
                                             for cs in (fn, fd)))]
    if not g.is_zero:
        cases.append((f / g, (_schoolbook(fn, gd), _schoolbook(fd, gn))))
    if k >= 0 or not f.is_zero:
        num, den = ((RationalComplex(Fraction(1)),),) * 2
        for _ in range(abs(k)):
            num, den = _schoolbook(num, fn if k > 0 else fd), _schoolbook(den, fd if k > 0 else fn)
        cases.append((f ** k, (num, den)))
    for h, (num, den) in cases:
        _assert_normal(h)
        assert _trim(_schoolbook(h.num, den)) == _trim(_schoolbook(num, h.den))
        assert h.is_zero == (not _trim(num))


@settings(max_examples=150, deadline=None)
@given(_exact_rational_functions(), st.sampled_from(["1/2", "3/7", "2/3"]),
       st.sampled_from(["1", "q", "1/q"]), st.booleans())
def test_evaluate_pairs_matches_pointwise_evaluation(f, q, which, kernel):
    gens = ["1", "5/6"] if q == "2/3" else ["1"]
    model = qnormal.build_from_generators(q, gens, TruncationWindow(-4, 4),
                                      zero_mass=int(kernel), exact=True)
    factor = {"1": Fraction(1), "q": model.q, "1/q": 1 / model.q}[which]
    points = model.modulus_band.diags[0]
    nums = [factor.numerator * t.numerator for t in points]
    dens = [factor.denominator * t.denominator for t in points]
    wants = []
    for t in points:
        den = _value(f.den, factor * t)
        wants.append(None if den.is_zero else _value(f.num, factor * t) / den)
    if None in wants:
        with pytest.raises(EvaluationError, match="denominator vanishes"):
            f.evaluate_pairs(nums, dens)
        return
    re, im, den = f.evaluate_pairs(nums, dens)
    assert len(re) == len(den) == len(points)
    # im is None exactly when f has real coefficients
    assert (im is None) == all(not c.im for c in f.num + f.den)
    for t, a, b, c, want in zip(points, re, im or [0] * len(re), den, wants):
        v = f.evaluate(factor * t)
        assert type(v) is RationalComplex
        assert v == want == RationalComplex(Fraction(a, c), Fraction(b, c))
    # the same values from unreduced integer pairs: ints with positive denominators
    re, im, den = f.evaluate_pairs([3 * p for p in nums], [3 * r for r in dens])
    assert all(type(x) is int for x in re + den + (im or []))
    assert min(den) > 0
    assert [RationalComplex(Fraction(a, c), Fraction(b, c))
            for a, b, c in zip(re, im or [0] * len(re), den)] == wants


def test_evaluate_pairs_raises_at_a_denominator_root_on_the_diagonal():
    model = qnormal.build_from_generators("1/2", ["1"], TruncationWindow(-3, 3),
                                      zero_mass=1, exact=True)
    points = model.modulus_band.diags[0]   # 8, 4, ..., 1/8 and the kernel's 0
    for f, factor, root in ((1 / (2 * T - 1), Fraction(1), "1/2"),
                            (1 / (T - 1), Fraction(1, 2), "1"),
                            (1 / ((T - 4) * (T - IM)), Fraction(2), "4"),
                            (1 / T, Fraction(1), "0")):
        nums = [factor.numerator * t.numerator for t in points]
        dens = [factor.denominator * t.denominator for t in points]
        with pytest.raises(EvaluationError, match=f"denominator vanishes at t={root}$"):
            f.evaluate_pairs(nums, dens)
        with pytest.raises(EvaluationError, match=f"denominator vanishes at t={root}$"):
            f.evaluate(Fraction(root))
    # a root between the points is no root on the diagonal
    re, _, den = (1 / (3 * T - 1)).evaluate_pairs([t.numerator for t in points],
                                                  [t.denominator for t in points])
    assert len(re) == len(den) == model.dim


def _two_table_argscale(f: RationalFunction, p: int, r: int) -> tuple:
    """The former rescale: num and den each scaled by its own weight table."""
    def argscale(a):
        re, im, d = a
        n = max(len(re) - 1, 0)
        w = [p ** k * r ** (n - k) for k in range(len(re))]
        return ratfunc._canon([c * x for c, x in zip(re, w)], [c * x for c, x in zip(im, w)],
                              d * r ** n)
    return ratfunc._normal(argscale(f._num), argscale(f._den))


def test_one_table_argscale_equals_the_two_table_formula():
    rng = random.Random(16)
    lams = [(1, 1), (1, 2), (2, 1), (3, 7), (7, 3), (9, 10), (1024, 1), (1, 3 ** 20)]
    cases = 0
    for trial in range(300):
        f, _ = _random_pair(rng, trial)
        for p, r in lams + [(rng.randint(1, 50), rng.randint(1, 50))]:
            got = ratfunc._f_argscale(f._pair, p, r)
            assert got == _two_table_argscale(f, p, r), (f._pair, p, r)
            assert got == f.substitute_scale(Fraction(p, r))._pair
            cases += 1
    # degrees of num above, equal to and below those of den, real and complex
    assert cases == 2700


def test_argscale_of_a_polynomial_keeps_den_one_and_cancels_r_power():
    f = RationalFunction((1, 2, 3), (1,))                     # 1 + 2t + 3t^2 at 2t/3
    assert f.substitute_scale(Fraction(2, 3))._pair == (((3, 4, 4), (0, 0, 0), 3), ratfunc._ONE)
    g = RationalFunction((0, 1), (1, 0, 1))                  # t / (1 + t^2)
    # (2t/3) / (1 + 4t^2/9) = 6t / (9 + 4t^2): den primitive, lead positive
    assert g.substitute_scale(Fraction(2, 3))._pair == (((0, 6), (0, 0), 1), ((9, 0, 4), (0, 0, 0), 1))


def _p_mul_oracle(a, b) -> tuple:
    """Schoolbook product of two canonical triples through their coefficient views."""
    fa, fb = (RationalFunction(ratfunc._coeffs(*x) or (0,), (1,)) for x in (a, b))
    return ratfunc._poly(_schoolbook(fa.num, fb.num)) if fa.num and fb.num else ratfunc._poly((0,))


def test_p_mul_paths_match_the_schoolbook_product():
    rng = random.Random(61)
    seen = set()
    for trial in range(400):
        polys = []
        for real in (trial % 2 == 0, trial % 3 == 0):
            degree = rng.choice([0, 0, 1, 2, 4])
            cs = _random_poly(rng, degree, real)
            if trial % 11 == 0:
                cs = (RationalComplex(),)
            polys.append(ratfunc._poly(cs))
        a, b = polys
        got = ratfunc._p_mul(a, b)
        assert got == _p_mul_oracle(a, b) == ratfunc._p_mul(b, a), (a, b)
        seen.add((min(len(a[0]), len(b[0])) <= 1, not any(a[1]) and not any(b[1])))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# The pair kernel as it was before its real path: every step carries im
# through, zero or not.  The kernel must return the very same pairs.

def _ref_canon(re, im, d):
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    re, im = re[:n], im[:n]
    g = math.gcd(d, *re, *im)
    if g > 1:
        return tuple([c // g for c in re]), tuple([c // g for c in im]), d // g
    return tuple(re), tuple(im), d


def _ref_p_add(a, b):
    (ar, ai, da), (br, bi, db) = a, b
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    return _ref_canon([x * sa + y * sb for x, y in itertools.zip_longest(ar, br, fillvalue=0)],
                      [x * sa + y * sb for x, y in itertools.zip_longest(ai, bi, fillvalue=0)],
                      da * sa)


def _ref_p_mul(a, b):
    if a == ratfunc._ONE or b == ratfunc._ONE:
        return b if a == ratfunc._ONE else a
    if len(a[0]) > len(b[0]):
        a, b = b, a
    (ar, ai, da), (br, bi, db) = a, b
    if len(ar) <= 1:
        if not ar:
            return a
        cr, ci = ar[0], ai[0]
        return _ref_canon([cr * x - ci * y for x, y in zip(br, bi)],
                          [cr * y + ci * x for x, y in zip(br, bi)], da * db)
    size = len(ar) + len(br) - 1
    re, im = ratfunc._conv([0] * size, ar, br), [0] * size
    if any(ai):
        ratfunc._conv(im, ai, br)
        if any(bi):
            ratfunc._conv(re, [-c for c in ai], bi)
    if any(bi):
        ratfunc._conv(im, ar, bi)
    return _ref_canon(re, im, da * db)


def _ref_normal(num, den):
    re, im, d = den
    if not num[0] or den == ratfunc._ONE:
        return num, ratfunc._ONE
    if len(re) == 1:
        return (_ref_p_mul(num, _ref_canon([d * re[0]], [-d * im[0]], re[0] ** 2 + im[0] ** 2)),
                ratfunc._ONE)
    g, s = math.gcd(*re, *im), 1 if (re[-1] or im[-1]) > 0 else -1
    if g == s == d == 1:
        return num, den
    sg = s * g
    return (_ref_p_mul(num, ((s * d,), (0,), g)),
            (tuple([c // sg for c in re]), tuple([c // sg for c in im]), 1))


def _ref_argscale(a, p, r):
    (nr, ni, d), (dr, di, _) = a
    if not nr:
        return a
    n = max(len(nr), len(dr)) - 1
    w = [p ** k * r ** (n - k) for k in range(n + 1)]

    def scaled(cs):
        return tuple([c * x for c, x in zip(cs, w)])

    if a[1] == ratfunc._ONE:
        return _ref_canon(scaled(nr), scaled(ni), d * w[0]), ratfunc._ONE
    return _ref_normal(_ref_canon(scaled(nr), scaled(ni), d), (scaled(dr), scaled(di), 1))


def _ref_conj(a):
    (nr, ni, dn), (dr, di, dd) = a
    return _ref_normal((nr, tuple([-c for c in ni]), dn), (dr, tuple([-c for c in di]), dd))


def _ref_add(a, b):
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return _ref_normal(_ref_p_add(an, bn), ad)
    return _ref_normal(_ref_p_add(_ref_p_mul(an, bd), _ref_p_mul(bn, ad)), _ref_p_mul(ad, bd))


def _ref_mul(a, b):
    return _ref_normal(_ref_p_mul(a[0], b[0]), _ref_p_mul(a[1], b[1]))


def _ref_div(a, b):
    return _ref_normal(_ref_p_mul(a[0], b[1]), _ref_p_mul(a[1], b[0]))


def _ref_neg(a):
    (re, im, d), den = a
    return (tuple([-c for c in re]), tuple([-c for c in im]), d), den


def _ref_pow(a, k):
    if k < 0:
        a, k = (a[1], a[0]), -k
    (num, den), (bn, bd) = (ratfunc._ONE, ratfunc._ONE), a
    while k:
        if k & 1:
            num, den = _ref_p_mul(num, bn), _ref_p_mul(den, bd)
        k >>= 1
        if k:
            bn, bd = _ref_p_mul(bn, bn), _ref_p_mul(bd, bd)
    return _ref_normal(num, den)


def _is_real_pair(pair) -> bool:
    return all(im == (0,) * len(re) for re, im, _ in pair)


def _kernel_inputs() -> list:
    """Random real and complex pairs, constants, zero, and real pairs whose sums
    and products with one another cancel to a constant."""
    rng = random.Random(2028)
    fs = [_random_pair(rng, trial)[0] for trial in range(60)]
    fs += [RationalFunction.constant(c) for c in
           (0, 1, -1, Fraction(-3, 4), Fraction(6, 5), RationalComplex(Fraction(2), Fraction(-1, 3)))]
    for f in (1 + T) / (2 - 3 * T * T), (T * T - 1) / (4 * T + 2), 3 * T - Fraction(1, 2):
        fs += [f, 5 - f, -f, Fraction(-2, 7) / f]
    return [f._pair for f in fs]


def test_pair_kernel_returns_the_pairs_of_the_general_path():
    fs = _kernel_inputs()
    rng = random.Random(2029)
    seen = set()
    for i, a in enumerate(fs):
        assert ratfunc._f_conj(a) == _ref_conj(a)
        for p, r in ((1, 1), (1, 2), (3, 7), (9, 4), (rng.randint(1, 30), rng.randint(1, 30))):
            assert ratfunc._f_argscale(a, p, r) == _ref_argscale(a, p, r), (a, p, r)
        for k in range(-3 if a[0][0] else 0, 4):
            assert ratfunc._f_pow(a, k) == _ref_pow(a, k), (a, k)
        for b in fs[i:]:
            for op, ref in ((ratfunc._f_add, _ref_add), (ratfunc._f_mul, _ref_mul),
                            (ratfunc._f_sub, lambda x, y: _ref_add(x, _ref_neg(y)))):
                got = op(a, b)
                assert got == ref(a, b) and op(b, a) == ref(b, a), (op, a, b)
                seen.add((_is_real_pair(a) and _is_real_pair(b), got[1] == ratfunc._ONE))
            if b[0][0]:
                assert ratfunc._f_div(a, b) == _ref_div(a, b), (a, b)
    # real and complex operands, with constant and non-constant results
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_every_kernel_step_returns_a_normal_pair():
    # complex dens whose products are real: content 2 from (1+i)(1-i), lead -1 from i * i
    fs = _kernel_inputs() + [(1 / d)._pair for d in (IM * T + 1, IM * T - 1,
                                                      (1 + IM) * (T + 1), (1 - IM) * (T + 1))]
    rng = random.Random(2031)
    for i, a in enumerate(fs):
        results = [ratfunc._f_conj(a)]
        results += [ratfunc._f_argscale(a, p, r)
                    for p, r in ((1, 1), (3, 7), (9, 4), (rng.randint(1, 30), rng.randint(1, 30)))]
        results += [ratfunc._f_pow(a, k) for k in range(-3 if a[0][0] else 0, 4)]
        for b in fs[i:]:
            for x, y in ((a, b), (b, a)):
                results += [op(x, y) for op in (ratfunc._f_add, ratfunc._f_sub, ratfunc._f_mul)]
                if y[0][0]:
                    results.append(ratfunc._f_div(x, y))
        for pair in results:
            _assert_normal(ratfunc._rf(pair))
    # real constant over real constant, which _f_div makes as one fraction
    constants = [RationalFunction.constant(c)._pair
                 for c in (0, 1, -1, 2, -3, 4, 6, -12, Fraction(-3, 4), Fraction(6, 5), Fraction(2, 3))]
    for x in constants:
        for y in constants[1:]:
            quotient = ratfunc._f_div(x, y)
            assert quotient == _ref_div(x, y), (x, y)
            _assert_normal(ratfunc._rf(quotient))


def test_real_elements_keep_an_all_zero_im_of_re_length():
    rng = random.Random(2030)
    for trial in range(40):
        q = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), Fraction(1)])
        a, b = (helpers.random_element(rng, q, complex_coeffs=False) for _ in range(2))
        results = [algebra.multiply(a, b), algebra.adjoint(a), algebra.multiply(algebra.adjoint(b), a)]
        results += [algebra.element(q, {k: algebra.cf_alpha(f, n, q) for k, f in a.terms})
                    for n in (-2, 1, 3)]
        literals = [f"({rng.randint(-5, 5)} + {rng.randint(-3, 3)}*t - t^2/{rng.randint(1, 4)})"
                    f"/({rng.randint(1, 6)} + t^{rng.randint(1, 3)})@{rng.randint(-2, 2)}"
                    for _ in range(rng.randint(1, 4))]
        results.append(algebra.parse_element(q, literals))
        for x in results:
            for _, f in x.terms:
                assert _is_real_pair(f._pair), (trial, f._pair)


def test_constructors_and_rescaling_refuse_values_outside_their_domain():
    with pytest.raises(DomainError, match="zero denominator"):
        RationalFunction((1,), (0, 0))
    with pytest.raises(DomainError, match="nonnegative"):
        RationalFunction.monomial(-1)
    for lam in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(DomainError, match="positive"):
            T.substitute_scale(lam)
