import operator
from fractions import Fraction

import pytest

from qcplane.scalars import RationalComplex

# slot -> (operator, whether RationalComplex is the right operand, the rule for
# the imaginary part b against a real operand x)
SLOTS = {
    "__add__": (operator.add, False, lambda b, x: b),
    "__radd__": (operator.add, True, lambda b, x: b),
    "__sub__": (operator.sub, False, lambda b, x: b),
    "__rsub__": (operator.sub, True, lambda b, x: -b),
    "__mul__": (operator.mul, False, lambda b, x: b * x),
    "__rmul__": (operator.mul, True, lambda b, x: x * b),
    "__truediv__": (operator.truediv, False, lambda b, x: b / x),
}


def _apply(slot, z, x):
    op, reflected, _ = SLOTS[slot]
    return op(x, z) if reflected else op(z, x)


@pytest.mark.parametrize("slot", SLOTS)
def test_every_operator_slot_refuses_a_float(slot):
    z = RationalComplex(Fraction(1, 3), Fraction(-2, 5))
    assert getattr(z, slot)(0.5) is NotImplemented
    with pytest.raises(TypeError):
        _apply(slot, z, 0.5)


@pytest.mark.parametrize("slot", SLOTS)
def test_every_operator_slot_agrees_with_fraction_arithmetic(slot):
    im_rule = SLOTS[slot][2]
    for a in (Fraction(0), Fraction(-7, 3), Fraction(5)):
        for b in (Fraction(0), Fraction(2, 9)):
            for x in (3, -1, Fraction(4, 7), Fraction(-5, 2)):
                got = _apply(slot, RationalComplex(a, b), x)
                assert type(got) is RationalComplex
                assert got.re == _apply(slot, a, x)
                assert got.im == im_rule(b, x)


def test_division_by_zero_raises():
    for zero in (0, Fraction(0), RationalComplex()):
        with pytest.raises(ZeroDivisionError):
            RationalComplex(Fraction(1), Fraction(1)) / zero


def test_reflected_division_takes_an_int_or_fraction_dividend():
    z = RationalComplex(Fraction(1, 3), Fraction(-2, 5))
    assert z.__rtruediv__(0.5) is NotImplemented
    with pytest.raises(TypeError):
        0.5 / z
    for a, b in ((Fraction(-7, 3), Fraction(0)), (Fraction(5), Fraction(2, 9)),
                 (Fraction(0), Fraction(-1, 4))):
        for x in (3, -1, 0, Fraction(4, 7), Fraction(-5, 2)):
            got, d = x / RationalComplex(a, b), a * a + b * b
            assert type(got) is RationalComplex
            # x / (a + ib) = x (a - ib) / (a^2 + b^2)
            assert (got.re, got.im) == (x * a / d, -x * b / d)
            assert got * RationalComplex(a, b) == x
    for x in (2, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            x / RationalComplex()
