"""Shared builders for randomized exact fixtures."""

from __future__ import annotations

import random
from fractions import Fraction

from qcplane import algebra
from qcplane.ratfunc import RationalFunction
from qcplane.scalars import RationalComplex


def random_rational_function(rng: random.Random, degree: int = 2,
                             vanish_at_zero: bool = False,
                             complex_coeffs: bool = True) -> RationalFunction:
    """Small random polynomial over a positive denominator 1 + c t^2."""
    lo = 1 if vanish_at_zero else 0
    coeffs = []
    for d in range(degree + 1):
        if d < lo:
            coeffs.append(RationalComplex())
            continue
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if complex_coeffs else Fraction(0)
        coeffs.append(RationalComplex(re, im))
    num = RationalFunction(tuple(coeffs), (RationalComplex(Fraction(1)),))
    if rng.random() < 0.5:
        den = 1 + RationalFunction.monomial(2, Fraction(rng.randint(1, 3)))
        return num / den
    return num


def random_element(rng: random.Random, q, max_modes: int = 5,
                   vanishing: bool = False, complex_coeffs: bool = True) -> algebra.AlgebraElement:
    n_modes = rng.randint(1, max_modes)
    span = 3
    modes = rng.sample(range(-span, span + 1), n_modes)
    coeffs = {}
    for k in modes:
        rf = random_rational_function(rng, degree=2, vanish_at_zero=vanishing and k != 0,
                                      complex_coeffs=complex_coeffs)
        if not rf.is_zero:
            coeffs[k] = algebra.RationalCoefficient(rf)
    return algebra.element(Fraction(q), coeffs)


def sample_fractions() -> list[Fraction]:
    return [Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
            Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)]


def follows_value_rule(x) -> bool:
    """An exact band entry as it leaves the band: the int 0 when it is 0, a
    Fraction when it is real, else a RationalComplex with a nonzero imaginary part."""
    if x == 0:
        return type(x) is int
    return type(x) is Fraction or (type(x) is RationalComplex and x.im != 0)
